// Extension-feature tests: recovered-module runner details, function models
// and the hot-function report (§3.2), module diffing (§6), and the perf
// harness invariants behind Figures 2-7.
#include <gtest/gtest.h>

#include "core/session.h"
#include "drivers/drivers.h"
#include "isa/assembler.h"
#include "perf/harness.h"
#include "synth/diff.h"
#include "synth/runner.h"

namespace revnic {
namespace {

using drivers::DriverId;

// Exercise once (checkpointed in the global store), synthesize per call.
core::PipelineResult CachedPipeline(DriverId id) {
  core::EngineConfig cfg;
  cfg.pci = drivers::DriverPci(id);
  auto session =
      core::CheckpointStore::Global().Resume(drivers::DriverName(id), drivers::DriverImage(id), cfg);
  session->RunAll();
  return session->TakeResult();
}

// ---- §3.2 function models + hot-function report ----

TEST(FunctionModels, HotFunctionReportListsCrc32) {
  const core::PipelineResult& r = CachedPipeline(DriverId::kRtl8029);
  // The report must exist and the multicast path's crc32 helper must be one
  // of the frequently-called functions (once per multicast address per bit).
  ASSERT_FALSE(r.engine.call_counts.empty());
  uint64_t max_calls = 0;
  for (const auto& [pc, count] : r.engine.call_counts) {
    max_calls = std::max(max_calls, count);
  }
  EXPECT_GE(max_calls, 2u);
}

TEST(FunctionModels, ModeledFunctionIsSkipped) {
  // Model the rtl8029 crc32_hash function: pick the most-called callee from a
  // first run (the paper's two-run workflow).
  const core::PipelineResult& first = CachedPipeline(DriverId::kRtl8029);
  uint32_t hot_pc = 0;
  uint64_t hot_count = 0;
  for (const auto& [pc, count] : first.engine.call_counts) {
    if (count > hot_count) {
      hot_count = count;
      hot_pc = pc;
    }
  }
  ASSERT_NE(hot_pc, 0u);

  core::EngineConfig cfg;
  cfg.pci = drivers::MakeDevice(DriverId::kRtl8029)->pci();
  cfg.function_models.push_back({.entry_pc = hot_pc, .arg_bytes = 4, .symbolic_return = true});
  core::EngineResult second =
      core::Engine(drivers::DriverImage(DriverId::kRtl8029), cfg).Run();
  EXPECT_GT(second.functions_modeled, 0u);
  // The modeled function's interior blocks are no longer executed.
  EXPECT_LT(second.CoveragePercent(), 100.0);
}

// ---- §6 module diff ----

TEST(ModuleDiff, IdenticalModulesDiffClean) {
  const core::PipelineResult& r = CachedPipeline(DriverId::kSmc91c111);
  synth::ModuleDiff diff = synth::DiffModules(r.module, r.module);
  EXPECT_TRUE(diff.Identical());
  EXPECT_EQ(diff.num_unchanged, r.module.NumFunctions());
}

TEST(ModuleDiff, RerunOnSameBinaryIsStable) {
  // Determinism end-to-end: two full pipeline runs of the same binary must
  // produce identical recovered modules (the paper's re-run workflow).
  core::EngineConfig cfg;
  cfg.pci = drivers::MakeDevice(DriverId::kRtl8029)->pci();
  core::Session a(drivers::DriverImage(DriverId::kRtl8029), cfg);
  core::Session b(drivers::DriverImage(DriverId::kRtl8029), cfg);
  ASSERT_TRUE(a.RecoverCfg());
  ASSERT_TRUE(b.RecoverCfg());
  synth::ModuleDiff diff = synth::DiffModules(a.module(), b.module());
  EXPECT_TRUE(diff.Identical()) << synth::FormatDiff(diff);
}

TEST(ModuleDiff, PatchedDriverShowsModifiedFunction) {
  // "Vendor patch": change a constant in the rtl8029 timer handler and
  // re-run; the diff must flag only a small part of the driver.
  std::string src = drivers::DriverAsmSource(DriverId::kRtl8029);
  size_t pos = src.find("inb r0, [r2, #NE_ISR]        ; benign status sample");
  ASSERT_NE(pos, std::string::npos);
  std::string patched = src;
  patched.replace(pos, 21, "inb r0, [r2, #NE_TCR]");
  auto img = isa::Assemble(patched);
  ASSERT_TRUE(img.ok) << img.error;

  core::EngineConfig cfg;
  cfg.pci = drivers::MakeDevice(DriverId::kRtl8029)->pci();
  core::Session old_run(drivers::DriverImage(DriverId::kRtl8029), cfg);
  core::Session new_run(img.image, cfg);
  ASSERT_TRUE(old_run.RecoverCfg());
  ASSERT_TRUE(new_run.RecoverCfg());
  synth::ModuleDiff diff = synth::DiffModules(old_run.module(), new_run.module());
  EXPECT_GT(diff.num_modified + diff.num_added + diff.num_removed, 0u);
  // Most of the driver is untouched.
  EXPECT_GT(diff.num_unchanged, diff.num_modified);
  std::string report = synth::FormatDiff(diff);
  EXPECT_NE(report.find("modified"), std::string::npos);
}

// ---- recovered-module runner ----

TEST(RecoveredRunner, ReportsUnexploredBlocks) {
  synth::RecoveredModule empty;
  vm::MemoryMap mm(1 << 20);
  class NullBridge : public synth::OsBridge {
   public:
    uint32_t OsCall(uint32_t, const std::vector<uint32_t>&) override { return 0; }
  } bridge;
  synth::RecoveredRunner runner(&empty, &mm, &bridge);
  runner.set_reg(isa::kRegSp, 0x8000);
  auto result = runner.Call(0x123456, {});
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(runner.first_unexplored_pc(), 0x123456u);
}

TEST(RecoveredRunner, RunsRecoveredFunctionWithOsBridge) {
  const core::PipelineResult& r = CachedPipeline(DriverId::kRtl8029);
  // Call the recovered crc32-style query entry directly through the runner.
  uint32_t query_pc = r.module.EntryPc(os::EntryRole::kQueryInformation);
  ASSERT_NE(query_pc, 0u);
  vm::MemoryMap mm(1 << 22);
  struct CountingBridge : public synth::OsBridge {
    uint32_t OsCall(uint32_t, const std::vector<uint32_t>&) override {
      ++calls;
      return 0;
    }
    int calls = 0;
  } bridge;
  synth::RecoveredRunner runner(&r.module, &mm, &bridge);
  runner.set_reg(isa::kRegSp, 0x8000);
  // ctx at 0x1000 (zeroed), unsupported OID: must return NOT_SUPPORTED.
  auto status = runner.Call(query_pc, {0x1000, 0xDEAD0001, 0x2000, 64, 0x3000});
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, os::kStatusNotSupported);
}

// ---- perf harness ----

TEST(PerfHarness, SweepShapesHold) {
  const core::PipelineResult& r = CachedPipeline(DriverId::kRtl8029);
  perf::PlatformProfile profile = perf::QemuVm();
  std::vector<size_t> sizes = {64, 512, 1472};
  auto kitos = perf::RunSweep({.driver = DriverId::kRtl8029,
                               .kind = perf::DriverKind::kSynthesized,
                               .target = os::TargetOs::kKitos,
                               .module = &r.module,
                               .label = "kitos"},
                              profile, sizes);
  auto win = perf::RunSweep({.driver = DriverId::kRtl8029,
                             .kind = perf::DriverKind::kOriginalBinary,
                             .label = "win"},
                            profile, sizes);
  auto native = perf::RunSweep({.driver = DriverId::kRtl8029,
                                .kind = perf::DriverKind::kNativeReference,
                                .target = os::TargetOs::kLinux,
                                .label = "native"},
                               profile, sizes);
  ASSERT_TRUE(kitos.ok);
  ASSERT_TRUE(win.ok);
  ASSERT_TRUE(native.ok);
  for (size_t i = 0; i < sizes.size(); ++i) {
    // Throughput grows with packet size on a virtual NIC (fixed per-packet cost).
    if (i > 0) {
      EXPECT_GT(kitos.points[i].throughput_mbps, kitos.points[i - 1].throughput_mbps);
    }
    // KitOS beats the full-stack configurations (§5.3).
    EXPECT_GT(kitos.points[i].throughput_mbps, win.points[i].throughput_mbps);
    // Virtual NIC: CPU-bound, utilization pegged.
    EXPECT_DOUBLE_EQ(win.points[i].cpu_util, 1.0);
    // PIO protocol: io accesses scale with packet size.
    if (i > 0) {
      EXPECT_GT(win.points[i].io_accesses, win.points[i - 1].io_accesses);
    }
  }
  // Ported driver tracks the native one within the paper's tolerance band.
  auto ported = perf::RunSweep({.driver = DriverId::kRtl8029,
                                .kind = perf::DriverKind::kSynthesized,
                                .target = os::TargetOs::kLinux,
                                .module = &r.module,
                                .label = "ported"},
                               profile, sizes);
  ASSERT_TRUE(ported.ok);
  for (size_t i = 0; i < sizes.size(); ++i) {
    double ratio = ported.points[i].throughput_mbps / native.points[i].throughput_mbps;
    EXPECT_GT(ratio, 0.80) << sizes[i];
    EXPECT_LT(ratio, 1.20) << sizes[i];
  }
}

TEST(PerfHarness, QuirkOnlyInOriginalWindowsDriver) {
  const core::PipelineResult& r = CachedPipeline(DriverId::kRtl8139);
  perf::PlatformProfile profile = perf::X86Pc();
  std::vector<size_t> sizes = {512, 1472};
  auto orig = perf::RunSweep({.driver = DriverId::kRtl8139,
                              .kind = perf::DriverKind::kOriginalBinary,
                              .label = "orig"},
                             profile, sizes);
  auto synth = perf::RunSweep({.driver = DriverId::kRtl8139,
                               .kind = perf::DriverKind::kSynthesized,
                               .target = os::TargetOs::kWindows,
                               .module = &r.module,
                               .label = "synth"},
                              profile, sizes);
  ASSERT_TRUE(orig.ok);
  ASSERT_TRUE(synth.ok);
  // Below the quirk threshold: no stalls anywhere.
  EXPECT_EQ(orig.points[0].stall_us, 0.0);
  // Above 1 KiB: the original stalls, the synthesized driver does not (§5.3).
  EXPECT_GT(orig.points[1].stall_us, 0.0);
  EXPECT_EQ(synth.points[1].stall_us, 0.0);
  EXPECT_GT(synth.points[1].throughput_mbps, orig.points[1].throughput_mbps * 1.1);
}

}  // namespace
}  // namespace revnic
