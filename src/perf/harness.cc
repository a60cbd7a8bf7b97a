#include "perf/harness.h"

#include <algorithm>

#include "drivers/native.h"
#include "hw/counting.h"
#include "os/winsim_host.h"
#include "util/log.h"

namespace revnic::perf {

namespace {

struct PacketLedger {
  double io_accesses = 0;
  double bytes_copied = 0;
  double guest_instrs = 0;
  double stall_us = 0;
  bool ok = false;
};

// Per-configuration measurement plumbing.
class Bench {
 public:
  virtual ~Bench() = default;
  virtual bool Up() = 0;
  virtual PacketLedger SendOne(const hw::Frame& frame) = 0;
};

class OriginalBench : public Bench {
 public:
  explicit OriginalBench(drivers::DriverId id)
      : device_(drivers::MakeDevice(id)),
        proxy_(device_.get()),
        host_(drivers::DriverImage(id), device_.get(), &proxy_) {}

  bool Up() override { return host_.Initialize(); }

  PacketLedger SendOne(const hw::Frame& frame) override {
    PacketLedger ledger;
    uint64_t io0 = proxy_.total();
    uint64_t in0 = host_.guest_instrs();
    uint64_t st0 = host_.os().counters().stall_micros;
    uint64_t bm0 = host_.os().counters().bytes_moved;
    auto status = host_.SendFrame(frame);
    ledger.ok = status.has_value() && *status == os::kStatusSuccess;
    ledger.io_accesses = static_cast<double>(proxy_.total() - io0);
    ledger.guest_instrs = static_cast<double>(host_.guest_instrs() - in0);
    ledger.stall_us = static_cast<double>(host_.os().counters().stall_micros - st0);
    ledger.bytes_copied = static_cast<double>(host_.os().counters().bytes_moved - bm0);
    return ledger;
  }

 private:
  std::unique_ptr<hw::NicDevice> device_;
  hw::CountingIoProxy proxy_;
  os::ConcreteWinSimHost host_;
};

class SynthesizedBench : public Bench {
 public:
  SynthesizedBench(drivers::DriverId id, const synth::RecoveredModule* module,
                   os::TargetOs target)
      : device_(drivers::MakeDevice(id)),
        proxy_(device_.get()),
        host_(module, device_.get(), target, &proxy_) {}

  bool Up() override { return host_.Initialize(); }

  PacketLedger SendOne(const hw::Frame& frame) override {
    PacketLedger ledger;
    uint64_t io0 = proxy_.total();
    uint64_t in0 = host_.guest_instrs();
    uint64_t bm0 = host_.api_service().counters().bytes_moved;
    auto status = host_.SendFrame(frame);
    ledger.ok = status.has_value() && *status == os::kStatusSuccess;
    ledger.io_accesses = static_cast<double>(proxy_.total() - io0);
    // +kTemplateInstrs: the generic template's entry lock and glue (§4.2) --
    // the "slightly higher CPU utilization" of synthesized drivers (§5.3).
    ledger.guest_instrs = static_cast<double>(host_.guest_instrs() - in0) + 700;
    ledger.bytes_copied =
        static_cast<double>(host_.api_service().counters().bytes_moved - bm0);
    // Vendor stalls were stripped by the template -- no stall charge (§4.2).
    ledger.stall_us = 0;
    return ledger;
  }

 private:
  std::unique_ptr<hw::NicDevice> device_;
  hw::CountingIoProxy proxy_;
  os::RecoveredDriverHost host_;
};

class NativeBench : public Bench {
 public:
  // Fixed per-packet instruction estimate for native compiled code: compact
  // hand-written drivers spend far fewer instructions than interpreted guest
  // code; their cost is dominated by the io/byte terms.
  static constexpr double kNativeFixedInstrs = 900;

  explicit NativeBench(drivers::DriverId id)
      : device_(drivers::MakeDevice(id)),
        proxy_(device_.get()),
        driver_(drivers::MakeNativeDriver(id)),
        mm_(os::kGuestRamSize) {
    device_->AttachRam(&mm_);
    device_->set_irq_hook([this](bool level) { irq_ = level; });
  }

  bool Up() override {
    if (!driver_->Init(&proxy_, &mm_)) {
      return false;
    }
    driver_->set_rx_callback([](const hw::Frame&) {});
    return true;
  }

  PacketLedger SendOne(const hw::Frame& frame) override {
    PacketLedger ledger;
    uint64_t io0 = proxy_.total();
    uint64_t bc0 = driver_->bytes_copied();
    ledger.ok = driver_->Send(frame);
    if (irq_) {
      driver_->HandleInterrupt();
    }
    ledger.io_accesses = static_cast<double>(proxy_.total() - io0);
    ledger.bytes_copied = static_cast<double>(driver_->bytes_copied() - bc0);
    ledger.guest_instrs = kNativeFixedInstrs;
    return ledger;
  }

 private:
  std::unique_ptr<hw::NicDevice> device_;
  hw::CountingIoProxy proxy_;
  std::unique_ptr<drivers::NativeNicDriver> driver_;
  vm::MemoryMap mm_;
  bool irq_ = false;
};

std::unique_ptr<Bench> MakeBench(const SweepConfig& config) {
  switch (config.kind) {
    case DriverKind::kOriginalBinary:
      return std::make_unique<OriginalBench>(config.driver);
    case DriverKind::kSynthesized:
      return std::make_unique<SynthesizedBench>(config.driver, config.module, config.target);
    case DriverKind::kNativeReference:
      return std::make_unique<NativeBench>(config.driver);
  }
  return nullptr;
}

}  // namespace

std::vector<size_t> DefaultPayloadSizes() {
  return {64, 128, 256, 384, 512, 640, 768, 896, 1024, 1152, 1280, 1408, 1472};
}

void ModelPacketCost(const PlatformProfile& profile, os::TargetOs os_profile, size_t frame_bytes,
                     PerfPoint* point) {
  double driver_cycles = point->io_accesses * profile.cycles_per_io +
                         point->bytes_copied * profile.cycles_per_byte +
                         point->guest_instrs * profile.cycles_per_instr;
  double os_cycles = OsPacketCycles(profile, os_profile);
  if (os_profile != os::TargetOs::kKitos) {
    os_cycles += static_cast<double>(frame_bytes) * profile.os_per_byte_cycles;
  }
  double cpu_cycles = driver_cycles + point->stall_us * profile.cpu_mhz + os_cycles;
  double cpu_us = cpu_cycles / profile.cpu_mhz;
  double frame_bits = static_cast<double>(frame_bytes + 8 + 12) * 8;  // preamble + IFG
  double wire_us = profile.link_mbps > 0 ? frame_bits / profile.link_mbps : 0;
  double packet_us = profile.dma_overlap ? std::max(cpu_us, wire_us) : cpu_us + wire_us;
  point->throughput_mbps = static_cast<double>(point->payload_bytes) * 8 / packet_us;
  point->cpu_util = packet_us > 0 ? cpu_us / packet_us : 1.0;
  point->driver_cpu_frac = cpu_cycles > 0 ? driver_cycles / cpu_cycles : 0;
}

SweepResult RunSweep(const SweepConfig& config, const PlatformProfile& profile,
                     const std::vector<size_t>& sizes) {
  SweepResult result;
  result.label = config.label;
  std::unique_ptr<Bench> bench = MakeBench(config);
  if (!bench || !bench->Up()) {
    RLOG_WARN("perf sweep '%s': bring-up failed", config.label.c_str());
    return result;
  }
  os::TargetOs os_profile =
      config.kind == DriverKind::kOriginalBinary ? os::TargetOs::kWindows : config.target;

  for (size_t payload : sizes) {
    hw::Frame frame =
        hw::BuildUdpFrame({0x52, 0x54, 0, 0, 0, 1}, {0x52, 0x54, 0, 0, 0, 2}, payload, 0xA5);
    PacketLedger sum;
    unsigned ok_count = 0;
    for (unsigned i = 0; i < config.packets_per_size; ++i) {
      PacketLedger one = bench->SendOne(frame);
      if (!one.ok) {
        continue;
      }
      ++ok_count;
      sum.io_accesses += one.io_accesses;
      sum.bytes_copied += one.bytes_copied;
      sum.guest_instrs += one.guest_instrs;
      sum.stall_us += one.stall_us;
    }
    if (ok_count == 0) {
      RLOG_WARN("perf sweep '%s': all sends failed at payload %zu", config.label.c_str(),
                payload);
      return result;
    }
    double n = ok_count;
    PerfPoint point;
    point.payload_bytes = payload;
    point.io_accesses = sum.io_accesses / n;
    point.bytes_copied = sum.bytes_copied / n;
    point.guest_instrs = sum.guest_instrs / n;
    point.stall_us = sum.stall_us / n;

    ModelPacketCost(profile, os_profile, frame.size(), &point);
    result.points.push_back(point);
  }
  result.ok = true;
  return result;
}

}  // namespace revnic::perf
