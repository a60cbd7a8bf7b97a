// Porting scenario (the paper's headline use case): take the Windows RTL8139
// driver, port it to Linux, and compare it against both the original driver
// and Linux's own 8139too driver -- functionality and performance.
//
// Demonstrates:
//   * hardware I/O trace equivalence between original and ported drivers,
//   * the vendor quirk (>1 KiB stall) disappearing after porting,
//   * the Figure 2/3 measurement flow through the perf harness.
#include <cstdio>

#include "core/session.h"
#include "drivers/drivers.h"
#include "drivers/native.h"
#include "os/recovered_host.h"
#include "os/winsim_host.h"
#include "perf/harness.h"
#include "synth/emit.h"

int main() {
  using namespace revnic;
  const drivers::DriverId id = drivers::DriverId::kRtl8139;

  printf("=== Porting rtl8139.sys (Windows) to Linux ===\n");
  core::EngineConfig cfg;
  cfg.pci = hw::Rtl8139Config();
  cfg.max_work = 250'000;
  core::Session session(drivers::DriverImage(id), cfg);
  // Target-aware emission: ask for the source-OS artifact plus the Linux
  // port; Emit() renders one driver_<target>.c per backend.
  core::EmitOptions emit;
  emit.targets = {os::TargetOs::kWindows, os::TargetOs::kLinux};
  session.set_emit_options(emit);
  session.RunAll();
  core::PipelineResult rev = session.TakeResult();
  printf("coverage %.1f%%, %zu functions recovered\n", rev.engine.CoveragePercent(),
         rev.module.NumFunctions());
  const std::string& linux_c = rev.emitted.at(os::TargetOs::kLinux);
  const synth::EmissionStats& linux_es = rev.emission_stats.at(os::TargetOs::kLinux);
  printf("emitted %s: %zu bytes (%zu template glue + %zu synthesized);\n"
         "the net_device glue wires %zu entry-point roles\n\n",
         synth::TargetFileName(os::TargetOs::kLinux).c_str(), linux_c.size(),
         linux_es.template_bytes, linux_es.core_bytes, rev.module.entry_roles.size());

  // --- functionality: original vs ported, same workload, same device. ---
  auto dev_a = drivers::MakeDevice(id);
  auto dev_b = drivers::MakeDevice(id);
  os::ConcreteWinSimHost original(drivers::DriverImage(id), dev_a.get());
  os::RecoveredDriverHost ported(&rev.module, dev_b.get(), os::TargetOs::kLinux);
  if (!original.Initialize() || !ported.Initialize()) {
    printf("bring-up failed\n");
    return 1;
  }
  std::vector<hw::Frame> wire_a, wire_b;
  dev_a->set_tx_hook([&](const hw::Frame& f) { wire_a.push_back(f); });
  dev_b->set_tx_hook([&](const hw::Frame& f) { wire_b.push_back(f); });
  for (size_t payload : {100u, 700u, 1400u}) {
    hw::Frame f = hw::BuildUdpFrame({1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2}, payload, 0x33);
    original.SendFrame(f);
    ported.SendFrame(f);
  }
  printf("I/O trace equivalence: %s (%zu frames each)\n",
         wire_a == wire_b ? "IDENTICAL" : "DIVERGED", wire_a.size());
  printf("vendor stalls: original executed %llu us of NdisStallExecution;\n"
         "               Linux template stripped %llu us (quirk removed)\n\n",
         static_cast<unsigned long long>(original.os().counters().stall_micros),
         static_cast<unsigned long long>(ported.stripped_stalls_us()));

  // --- performance: the Figure 2 trio at three packet sizes. ---
  perf::PlatformProfile pc = perf::X86Pc();
  std::vector<size_t> sizes = {256, 1024, 1472};
  auto orig = perf::RunSweep({.driver = id, .kind = perf::DriverKind::kOriginalBinary,
                              .label = "Windows Original"},
                             pc, sizes);
  auto port = perf::RunSweep({.driver = id, .kind = perf::DriverKind::kSynthesized,
                              .target = os::TargetOs::kLinux, .module = &rev.module,
                              .label = "Windows->Linux"},
                             pc, sizes);
  auto native = perf::RunSweep({.driver = id, .kind = perf::DriverKind::kNativeReference,
                                .target = os::TargetOs::kLinux, .label = "Linux Original"},
                               pc, sizes);
  printf("%-10s %18s %18s %18s\n", "payload", "Windows Original", "Windows->Linux",
         "Linux Original");
  for (size_t i = 0; i < sizes.size(); ++i) {
    printf("%-10zu %16.1f %18.1f %18.1f   (Mbps)\n", sizes[i],
           orig.points[i].throughput_mbps, port.points[i].throughput_mbps,
           native.points[i].throughput_mbps);
  }
  printf("\nNote the original's 1472 B drop (the quirk) vs the ported driver.\n");
  return wire_a == wire_b ? 0 : 1;
}
