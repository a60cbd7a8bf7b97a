#include "native/harness.h"

#include <chrono>
#include <memory>
#include <vector>

#include "hw/counting.h"
#include "hw/faults.h"
#include "native/host.h"
#include "native/loader.h"
#include "native/toolchain.h"
#include "os/api.h"
#include "os/winsim_host.h"

namespace revnic::native {

namespace {

using drivers::DriverId;
using std::chrono::steady_clock;

// Host cycle counter for per-frame cost; falls back to nanoseconds where no
// TSC is reachable, so the field stays comparable-within-a-run everywhere.
uint64_t HostCycles() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   steady_clock::now().time_since_epoch())
                                   .count());
#endif
}

double ElapsedNs(steady_clock::time_point t0, steady_clock::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

hw::Frame TxFrame(size_t payload, uint8_t tag) {
  return hw::BuildUdpFrame({1, 2, 3, 4, 5, 6}, {2, 2, 2, 2, 2, 2}, payload, tag);
}

hw::Frame RxFrame(size_t payload, uint8_t tag) {
  hw::MacAddr bcast = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  return hw::BuildUdpFrame({3, 3, 3, 3, 3, 3}, bcast, payload, tag);
}

// The same 8-frame tx + broadcast rx workload tests/pipeline_test.cc uses
// for the interpreted synthesized driver, now against the compiled one.
bool CleanParity(DriverId id, const NativeModule& module,
                 const synth::RecoveredModule& recovered, std::string* detail) {
  auto dev_orig = drivers::MakeDevice(id);
  os::ConcreteWinSimHost orig(drivers::DriverImage(id), dev_orig.get());
  if (!orig.Initialize()) {
    *detail = "original driver failed to initialize";
    return false;
  }
  auto dev_nat = drivers::MakeDevice(id);
  NativeKitosHost nat(&module, &recovered, dev_nat.get());
  std::string err;
  if (!nat.Bind(&err)) {
    *detail = "bind: " + err;
    return false;
  }
  if (!nat.Initialize()) {
    *detail = "compiled driver failed to initialize";
    return false;
  }

  std::vector<hw::Frame> wire_orig, wire_nat;
  dev_orig->set_tx_hook([&](const hw::Frame& f) { wire_orig.push_back(f); });
  dev_nat->set_tx_hook([&](const hw::Frame& f) { wire_nat.push_back(f); });
  for (int i = 0; i < 8; ++i) {
    hw::Frame f = TxFrame(64 + (i * 173) % 1300, static_cast<uint8_t>(i));
    auto st_orig = orig.SendFrame(f);
    auto st_nat = nat.SendFrame(f);
    if (!st_orig.has_value() || !st_nat.has_value() || *st_orig != *st_nat) {
      *detail = "send status diverges at frame " + std::to_string(i);
      return false;
    }
  }
  hw::Frame rx = RxFrame(200, 0x7E);
  bool in_orig = dev_orig->InjectReceive(rx);
  bool in_nat = dev_nat->InjectReceive(rx);
  orig.DeliverInterrupts();
  nat.DeliverInterrupts();

  if (wire_orig != wire_nat) {
    *detail = "clean hardware I/O traces diverge (" + std::to_string(wire_orig.size()) +
              " vs " + std::to_string(wire_nat.size()) + " wire frames)";
    return false;
  }
  if (in_orig != in_nat || orig.rx_delivered() != nat.rx_delivered()) {
    *detail = "receive-path delivery diverges";
    return false;
  }
  if (dev_orig->mac() != dev_nat->mac() ||
      dev_orig->promiscuous() != dev_nat->promiscuous() ||
      dev_orig->rx_enabled() != dev_nat->rx_enabled()) {
    *detail = "device end state diverges";
    return false;
  }
  return true;
}

// tests/fault_test.cc's faulted-equivalence workload, native vs. original:
// identical seeded misbehavior on both sides must produce identical wire
// traces, upward deliveries, and fault-decision cursors.
bool FaultedParity(DriverId id, const NativeModule& module,
                   const synth::RecoveredModule& recovered, const std::string& plan_spec,
                   std::string* detail) {
  hw::FaultPlan plan;
  std::string err;
  if (!hw::ParseFaultPlan(plan_spec, &plan, &err)) {
    *detail = "bad fault plan: " + err;
    return false;
  }
  auto dev_orig = drivers::MakeDevice(id);
  hw::FaultInjector faulty_orig(dev_orig.get(), plan);
  os::ConcreteWinSimHost orig(drivers::DriverImage(id), &faulty_orig);
  if (!orig.Initialize()) {
    *detail = "original driver failed to initialize under faults";
    return false;
  }
  auto dev_nat = drivers::MakeDevice(id);
  hw::FaultInjector faulty_nat(dev_nat.get(), plan);
  NativeKitosHost nat(&module, &recovered, &faulty_nat);
  if (!nat.Bind(&err)) {
    *detail = "bind: " + err;
    return false;
  }
  if (!nat.Initialize()) {
    *detail = "compiled driver failed to initialize under faults";
    return false;
  }

  // Align both schedules at the workload boundary; the hosts' init
  // boilerplate differs by design (that is the porting point).
  faulty_orig.schedule().set_cursor(0);
  faulty_orig.schedule().set_stats({});
  faulty_nat.schedule().set_cursor(0);
  faulty_nat.schedule().set_stats({});

  std::vector<hw::Frame> wire_orig, wire_nat;
  faulty_orig.set_tx_hook([&](const hw::Frame& f) { wire_orig.push_back(f); });
  faulty_nat.set_tx_hook([&](const hw::Frame& f) { wire_nat.push_back(f); });
  for (int i = 0; i < 6; ++i) {
    hw::Frame tx = TxFrame(64 + (i * 173) % 1300, static_cast<uint8_t>(i));
    auto st_orig = orig.SendFrame(tx);
    auto st_nat = nat.SendFrame(tx);
    if (!st_orig.has_value() || !st_nat.has_value() || *st_orig != *st_nat) {
      *detail = "faulted send status diverges at frame " + std::to_string(i);
      return false;
    }
    hw::Frame rx = RxFrame(80 + (i * 211) % 1200, static_cast<uint8_t>(0x40 + i));
    if (faulty_orig.InjectReceive(rx) != faulty_nat.InjectReceive(rx)) {
      *detail = "faulted rx acceptance diverges at frame " + std::to_string(i);
      return false;
    }
    orig.DeliverInterrupts();
    nat.DeliverInterrupts();
  }

  if (wire_orig != wire_nat) {
    *detail = "faulted hardware I/O traces diverge";
    return false;
  }
  if (orig.rx_delivered() != nat.rx_delivered()) {
    *detail = "faulted receive-path delivery diverges";
    return false;
  }
  if (faulty_orig.schedule().cursor() != faulty_nat.schedule().cursor()) {
    *detail = "fault decision streams diverge (cursor " +
              std::to_string(faulty_orig.schedule().cursor()) + " vs " +
              std::to_string(faulty_nat.schedule().cursor()) + ")";
    return false;
  }
  return true;
}

void FinishSide(RaceSideStats* out, double wall_ns, uint64_t cycles) {
  out->wall_ns = wall_ns;
  if (out->frames > 0 && wall_ns > 0) {
    out->frames_per_sec = static_cast<double>(out->frames) / (wall_ns * 1e-9);
    out->ns_per_frame = wall_ns / static_cast<double>(out->frames);
    out->host_cycles_per_frame =
        static_cast<double>(cycles) / static_cast<double>(out->frames);
  }
}

// The timed loop, identical on both sides: one send per frame and, every
// fourth frame, a broadcast receive drained through the ISR/DPC. `host` is
// initialized; `dev` is the device model behind it.
void PushFrames(os::MiniportHost& host, hw::NicDevice* dev, uint64_t frames, size_t payload,
                RaceSideStats* out) {
  hw::Frame tx = TxFrame(payload, 0x5C);
  hw::Frame rx = RxFrame(payload, 0x7E);
  auto t0 = steady_clock::now();
  uint64_t c0 = HostCycles();
  for (uint64_t i = 0; i < frames; ++i) {
    auto st = host.SendFrame(tx);
    if (st.has_value() && *st == os::kStatusSuccess) {
      ++out->tx_ok;
    }
    if ((i & 3u) == 3u) {
      dev->InjectReceive(rx);
      host.DeliverInterrupts();
      out->rx_delivered += host.rx_delivered().size();
      host.rx_delivered().clear();  // don't let a million-frame run hoard RAM
    }
  }
  uint64_t c1 = HostCycles();
  auto t1 = steady_clock::now();
  out->frames = frames;
  out->rx_delivered += host.rx_delivered().size();
  host.rx_delivered().clear();
  out->bytes_copied = host.api_service().counters().bytes_moved + dev->stats().tx_bytes +
                      dev->stats().rx_bytes;
  FinishSide(out, ElapsedNs(t0, t1), c1 - c0);
}

bool MeasureNative(DriverId id, const NativeModule& module,
                   const synth::RecoveredModule& recovered, const RaceOptions& opts,
                   RaceSideStats* out, std::string* error) {
  auto dev = drivers::MakeDevice(id);
  NativeKitosHost host(&module, &recovered, dev.get());
  if (!host.Bind(error)) {
    return false;
  }
  if (!host.Initialize()) {
    *error = "compiled driver failed to initialize for measurement";
    return false;
  }
  PushFrames(host, dev.get(), opts.native_frames, opts.payload, out);
  out->io_accesses = host.counters().io_total();
  return true;
}

bool MeasureDbt(DriverId id, const RaceOptions& opts, RaceSideStats* out,
                std::string* error) {
  auto dev = drivers::MakeDevice(id);
  hw::CountingIoProxy io(dev.get());
  os::ConcreteWinSimHost host(drivers::DriverImage(id), dev.get(), &io);
  if (!host.Initialize()) {
    *error = "original driver failed to initialize for measurement";
    return false;
  }
  uint64_t instrs0 = host.guest_instrs();
  PushFrames(host, dev.get(), opts.dbt_frames, opts.payload, out);
  out->io_accesses = io.total();
  out->guest_instrs = host.guest_instrs() - instrs0;
  return true;
}

}  // namespace

RaceResult RunRace(DriverId id, const std::string& kitos_source,
                   const synth::RecoveredModule& recovered, const RaceOptions& opts) {
  RaceResult res;
  if (!ToolchainAvailable(&res.skip_reason)) {
    return res;
  }
  res.available = true;

  std::string dir = opts.workdir.empty() ? DefaultWorkDir() : opts.workdir;
  std::string so = dir + "/driver_kitos_" + drivers::DriverName(id) + ".so";
  if (!CompileSharedObject(kitos_source, so, &res.error)) {
    return res;
  }
  res.so_path = so;
  NativeModule module;
  if (!module.Load(so, &res.error)) {
    return res;
  }

  res.parity_checked = true;
  res.parity_ok = CleanParity(id, module, recovered, &res.parity_detail);
  if (res.parity_ok && !opts.fault_plan.empty()) {
    res.parity_ok = FaultedParity(id, module, recovered, opts.fault_plan, &res.parity_detail);
  }

  if (opts.measure) {
    if (!MeasureNative(id, module, recovered, opts, &res.native_side, &res.error)) {
      return res;
    }
    if (!MeasureDbt(id, opts, &res.dbt, &res.error)) {
      return res;
    }
    if (res.dbt.frames_per_sec > 0) {
      res.speedup = res.native_side.frames_per_sec / res.dbt.frames_per_sec;
    }
  }
  res.ok = true;
  return res;
}

}  // namespace revnic::native
