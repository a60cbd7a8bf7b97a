// Native-execution tier (ctest label: native).
//
// The emitted kitos driver, compiled with the host C compiler and dlopen'd,
// must reproduce the DBT-interpreted original's hardware I/O trace -- clean
// and under a seeded fault plan -- for every driver in the registry. On
// boxes with no usable host compiler or dlopen the execution tests SKIP
// (with the probe's reason) rather than fail; the ABI-surface checks on the
// emitted source run everywhere.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/session.h"
#include "drivers/drivers.h"
#include "native/abi.h"
#include "native/harness.h"
#include "native/toolchain.h"
#include "os/target.h"

namespace revnic {
namespace {

using drivers::DriverId;

// Same seed/mix the fault-injection soak tier uses for its combined plan.
constexpr const char* kParityPlan =
    "1729:irq-drop=0.2,irq-delay=0.15,frame-truncate=0.35,frame-oversize=0.25";

// Exercises (once per process, via the checkpoint store), recovers and
// emits the kitos translation unit for `id`.
core::PipelineResult SynthesizeKitos(DriverId id) {
  core::EngineConfig cfg;
  cfg.pci = drivers::DriverPci(id);
  cfg.max_work = 250'000;
  auto session = core::CheckpointStore::Global().Resume(drivers::DriverName(id),
                                                        drivers::DriverImage(id), cfg);
  core::EmitOptions emit;
  emit.targets = {os::TargetOs::kKitos};
  session->set_emit_options(emit);
  EXPECT_TRUE(session->RunAll()) << session->error();
  return session->TakeResult();
}

std::vector<DriverId> RegisteredDrivers() {
  std::vector<DriverId> ids;
  for (const drivers::TargetInfo& t : drivers::AllTargets()) {
    ids.push_back(t.id);
  }
  return ids;
}

class NativeDriverTest : public ::testing::TestWithParam<DriverId> {};

// Runs everywhere: the kitos translation unit must export the complete C
// ABI the loader binds to, with the version constant the loader checks.
TEST_P(NativeDriverTest, EmittedKitosSourceCarriesTheNativeAbi) {
  std::string src = SynthesizeKitos(GetParam()).emitted[os::TargetOs::kKitos];
  ASSERT_FALSE(src.empty());
  for (const char* sym : {native::kSymAbiVersion, native::kSymRamBase,
                          native::kSymBindHost, native::kSymCallPcAt}) {
    EXPECT_NE(src.find(sym), std::string::npos) << sym;
  }
  EXPECT_NE(src.find("#define REVNIC_NATIVE_ABI_VERSION 1u"), std::string::npos);
  EXPECT_NE(src.find("struct revnic_host_ops"), std::string::npos);
}

// The acceptance gate: compiled + dlopen'd driver reproduces the original's
// I/O trace, clean and under the seeded fault plan.
TEST_P(NativeDriverTest, NativeExecutionPreservesIoTraceCleanAndFaulted) {
  std::string why;
  if (!native::ToolchainAvailable(&why)) {
    GTEST_SKIP() << "no native toolchain: " << why;
  }
  core::PipelineResult result = SynthesizeKitos(GetParam());
  native::RaceOptions options;
  options.fault_plan = kParityPlan;
  options.measure = false;  // parity only; the race is the bench's job
  native::RaceResult race = native::RunRace(
      GetParam(), result.emitted[os::TargetOs::kKitos], result.module, options);
  ASSERT_TRUE(race.available) << race.skip_reason;
  ASSERT_TRUE(race.ok) << race.error;
  ASSERT_TRUE(race.parity_checked);
  EXPECT_TRUE(race.parity_ok) << race.parity_detail;
}

INSTANTIATE_TEST_SUITE_P(AllDrivers, NativeDriverTest,
                         ::testing::ValuesIn(RegisteredDrivers()),
                         [](const ::testing::TestParamInfo<DriverId>& info) {
                           return std::string(drivers::DriverName(info.param));
                         });

// One measured end-to-end pass, synthesis to race, with small frame counts:
// compile, load, parity, then both race sides.
TEST(NativeRace, MeasuredRaceSmoke) {
  std::string why;
  if (!native::ToolchainAvailable(&why)) {
    GTEST_SKIP() << "no native toolchain: " << why;
  }
  core::PipelineResult result = SynthesizeKitos(DriverId::kRtl8139);
  native::RaceOptions options;
  options.fault_plan = kParityPlan;
  options.native_frames = 5'000;
  options.dbt_frames = 500;
  native::RaceResult race = native::RunRace(
      DriverId::kRtl8139, result.emitted[os::TargetOs::kKitos], result.module, options);
  ASSERT_TRUE(race.ok) << race.error;
  EXPECT_TRUE(race.parity_ok) << race.parity_detail;
  EXPECT_EQ(race.native_side.frames, 5'000u);
  EXPECT_EQ(race.dbt.frames, 500u);
  EXPECT_GT(race.native_side.frames_per_sec, 0);
  EXPECT_GT(race.dbt.frames_per_sec, 0);
  EXPECT_GT(race.native_side.tx_ok, 0u);
  EXPECT_GT(race.native_side.rx_delivered, 0u);
  EXPECT_GT(race.speedup, 0);
  // Both sides moved real bytes through the same device model.
  EXPECT_GT(race.native_side.bytes_copied, 0u);
  EXPECT_GT(race.dbt.bytes_copied, 0u);
}

// The toolchain probe itself must be deterministic within a process.
TEST(NativeToolchain, ProbeIsStable) {
  std::string a, b;
  bool first = native::ToolchainAvailable(&a);
  bool second = native::ToolchainAvailable(&b);
  EXPECT_EQ(first, second);
  EXPECT_EQ(a, b);
}

// A process that compiles removes its work directory when it exits. The
// threadsafe death-test style re-executes this binary to run the statement,
// so the child is a fresh process whose TMPDIR is `dir` from its start; any
// revnic_native_* entry left under `dir` is a leak.
TEST(NativeWorkDirDeathTest, CompilingProcessLeavesNoWorkDirBehind) {
  namespace fs = std::filesystem;
  std::string why;
  if (!native::ToolchainAvailable(&why)) {
    GTEST_SKIP() << "no native toolchain: " << why;
  }
  fs::path dir = fs::temp_directory_path() / ("revnic_workdir_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const char* saved = std::getenv("TMPDIR");
  std::string saved_tmpdir = saved != nullptr ? saved : "";
  ::setenv("TMPDIR", dir.c_str(), 1);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        std::string error;
        bool ok = native::CompileSharedObject("int revnic_workdir_probe(void) { return 1; }\n",
                                              native::DefaultWorkDir() + "/probe_child.so",
                                              &error);
        std::exit(ok && fs::is_regular_file(native::DefaultWorkDir() + "/probe_child.so") ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  if (saved != nullptr) {
    ::setenv("TMPDIR", saved_tmpdir.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
  std::vector<std::string> left;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("revnic_native_", 0) == 0) {
      left.push_back(entry.path().string());
    }
  }
  EXPECT_TRUE(left.empty()) << left.size() << " left, first " << left.front();
  fs::remove_all(dir);
}

// A forked child inherits the exit handler but not the directory: its exit
// must leave the parent's work directory in place.
TEST(NativeWorkDirDeathTest, ForkedChildLeavesItsParentsWorkDir) {
  std::string dir = native::DefaultWorkDir();
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  ::testing::GTEST_FLAG(death_test_style) = "fast";
  EXPECT_EXIT(std::exit(0), ::testing::ExitedWithCode(0), "");
  EXPECT_TRUE(std::filesystem::is_directory(dir));
}

}  // namespace
}  // namespace revnic
