#include "perf/native.h"

#include <chrono>

#include "native/host.h"
#include "os/api.h"
#include "util/log.h"

namespace revnic::perf {

SweepResult RunNativeMeasuredSweep(const NativeSweepInputs& inputs,
                                   const PlatformProfile& profile,
                                   const std::vector<size_t>& sizes) {
  using std::chrono::steady_clock;
  SweepResult result;
  result.label = inputs.label;
  if (inputs.module == nullptr || inputs.recovered == nullptr || !inputs.module->loaded()) {
    RLOG_WARN("native sweep '%s': no loaded module", inputs.label.c_str());
    return result;
  }
  auto device = drivers::MakeDevice(inputs.driver);
  native::NativeKitosHost host(inputs.module, inputs.recovered, device.get());
  std::string error;
  if (!host.Bind(&error) || !host.Initialize()) {
    RLOG_WARN("native sweep '%s': bring-up failed (%s)", inputs.label.c_str(),
              error.c_str());
    return result;
  }

  for (size_t payload : sizes) {
    hw::Frame frame =
        hw::BuildUdpFrame({0x52, 0x54, 0, 0, 0, 1}, {0x52, 0x54, 0, 0, 0, 2}, payload, 0xA5);
    double io_sum = 0, bytes_sum = 0, ns_sum = 0;
    unsigned ok_count = 0;
    for (unsigned i = 0; i < inputs.packets_per_size; ++i) {
      uint64_t io0 = host.counters().io_total();
      uint64_t bm0 = host.api_service().counters().bytes_moved;
      auto t0 = steady_clock::now();
      auto status = host.SendFrame(frame);
      auto t1 = steady_clock::now();
      if (!status.has_value() || *status != os::kStatusSuccess) {
        continue;
      }
      ++ok_count;
      io_sum += static_cast<double>(host.counters().io_total() - io0);
      bytes_sum += static_cast<double>(host.api_service().counters().bytes_moved - bm0);
      ns_sum += static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    }
    if (ok_count == 0) {
      RLOG_WARN("native sweep '%s': all sends failed at payload %zu", inputs.label.c_str(),
                payload);
      return result;
    }
    double n = ok_count;
    PerfPoint point;
    point.payload_bytes = payload;
    point.io_accesses = io_sum / n;
    point.bytes_copied = bytes_sum / n;
    point.guest_instrs = 0;  // compiled code: no interpreted-instruction term
    point.stall_us = 0;      // stalls are template-stripped, as in the model
    point.host_ns = ns_sum / n;

    // The kitos profile (no OS stack), with the instruction term replaced
    // by the measured reality above.
    ModelPacketCost(profile, os::TargetOs::kKitos, frame.size(), &point);
    result.points.push_back(point);
  }
  result.ok = true;
  return result;
}

}  // namespace revnic::perf
