// Performance harness: the paper's UDP size-sweep benchmark (§5.3).
//
// "We wrote a benchmark that sends UDP packets of increasing size, up to the
// maximum length of an Ethernet frame." The harness runs a driver
// configuration (original binary on WinSim, synthesized module on a target
// OS template, or native reference driver), measures per-packet costs, and
// converts them to throughput / CPU utilization through a PlatformProfile.
#ifndef REVNIC_PERF_HARNESS_H_
#define REVNIC_PERF_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "drivers/drivers.h"
#include "os/recovered_host.h"
#include "perf/profile.h"
#include "synth/module.h"

namespace revnic::perf {

// One driver configuration under test ("Windows Original", "Windows->Linux",
// "Linux Original", ...).
enum class DriverKind : uint8_t {
  kOriginalBinary = 0,  // original .sys on WinSim (the source OS)
  kSynthesized,         // RevNIC module in a target-OS template
  kNativeReference,     // target OS's own driver
};

struct SweepConfig {
  drivers::DriverId driver;
  DriverKind kind = DriverKind::kOriginalBinary;
  os::TargetOs target = os::TargetOs::kWindows;  // for kSynthesized/kNative
  // Required for kSynthesized.
  const synth::RecoveredModule* module = nullptr;
  unsigned packets_per_size = 8;
  std::string label;
};

struct PerfPoint {
  size_t payload_bytes = 0;
  double throughput_mbps = 0;
  double cpu_util = 0;         // 0..1
  double driver_cpu_frac = 0;  // driver cycles / total cycles (Figure 5)
  // Raw per-packet ledger (averaged).
  double io_accesses = 0;
  double bytes_copied = 0;
  double guest_instrs = 0;
  double stall_us = 0;
  // Measured wall time per packet on the host, in nanoseconds. Only the
  // native-execution sweep (perf/native.h) fills this; modeled sweeps have
  // no wall-clock dimension and leave it 0.
  double host_ns = 0;
};

struct SweepResult {
  std::string label;
  std::vector<PerfPoint> points;
  bool ok = false;
};

// Standard paper sweep: UDP payloads from 64 B up to 1472 B.
std::vector<size_t> DefaultPayloadSizes();

// The per-packet cost model every sweep shares: turns a point's averaged
// ledger (io_accesses, bytes_copied, guest_instrs, stall_us) into its
// throughput, CPU utilization and driver CPU share, charging the
// `os_profile` network stack for one frame of `frame_bytes`.
void ModelPacketCost(const PlatformProfile& profile, os::TargetOs os_profile, size_t frame_bytes,
                     PerfPoint* point);

SweepResult RunSweep(const SweepConfig& config, const PlatformProfile& profile,
                     const std::vector<size_t>& sizes = DefaultPayloadSizes());

}  // namespace revnic::perf

#endif  // REVNIC_PERF_HARNESS_H_
