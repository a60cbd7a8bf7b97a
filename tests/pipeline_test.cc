// End-to-end RevNIC pipeline tests: reverse engineer each binary driver with
// symbolic hardware (no device model attached!), synthesize the driver, then
// run the synthesized code against the real device model on every target OS
// and check functional equivalence with the original (§5.2).
#include <gtest/gtest.h>

#include <vector>

#include "core/session.h"
#include "drivers/drivers.h"
#include "drivers/native.h"
#include "os/recovered_host.h"
#include "os/winsim_host.h"

namespace revnic {
namespace {

using drivers::DriverId;
using os::RecoveredDriverHost;
using os::TargetOs;

// Exercise once per driver (checkpointed in the global store); each test
// resumes from the checkpoint and re-runs only the synthesis stages.
core::PipelineResult PipelineFor(DriverId id) {
  core::EngineConfig cfg;
  cfg.pci = drivers::DriverPci(id);
  cfg.max_work = 250'000;
  auto session =
      core::CheckpointStore::Global().Resume(drivers::DriverName(id), drivers::DriverImage(id), cfg);
  session->RunAll();
  return session->TakeResult();
}

// Enumerated from the target registry instead of hard-coding the four ids.
std::vector<DriverId> RegisteredDrivers() {
  std::vector<DriverId> ids;
  for (const drivers::TargetInfo& t : drivers::AllTargets()) {
    ids.push_back(t.id);
  }
  return ids;
}

class PipelineTest : public ::testing::TestWithParam<DriverId> {};

TEST_P(PipelineTest, CoverageReachesPaperLevels) {
  const core::PipelineResult& r = PipelineFor(GetParam());
  // §5.4: "most tested drivers reach over 80% basic block coverage".
  EXPECT_GE(r.engine.CoveragePercent(), 75.0)
      << drivers::DriverName(GetParam()) << ": " << r.engine.CoveragePercent() << "%";
}

TEST_P(PipelineTest, EntryPointsDiscoveredByRegistrationMonitoring) {
  const core::PipelineResult& r = PipelineFor(GetParam());
  // All nine miniport entry points plus the timer (when registered).
  EXPECT_GE(r.engine.entries.size(), 9u);
  EXPECT_NE(r.module.EntryPc(os::EntryRole::kInitialize), 0u);
  EXPECT_NE(r.module.EntryPc(os::EntryRole::kSend), 0u);
  EXPECT_NE(r.module.EntryPc(os::EntryRole::kIsr), 0u);
  EXPECT_NE(r.module.EntryPc(os::EntryRole::kHalt), 0u);
}

TEST_P(PipelineTest, RecoveredFunctionsPlausible) {
  const core::PipelineResult& r = PipelineFor(GetParam());
  EXPECT_GE(r.module.NumFunctions(), 10u);
  // Figure 9 shape: majority fully automatic, some needing glue, a type-3
  // mixed slice.
  EXPECT_GT(r.module.NumFullyAutomatic(), r.module.NumNeedingManualGlue());
}

TEST_P(PipelineTest, CSourceLooksLikeListing1) {
  const core::PipelineResult& r = PipelineFor(GetParam());
  EXPECT_NE(r.c_source.find("goto"), std::string::npos);
  EXPECT_NE(r.c_source.find("struct revnic_cpu"), std::string::npos);
  EXPECT_NE(r.c_source.find("revnic_os_call"), std::string::npos);
  EXPECT_GT(r.c_source.size(), 10'000u);
}

TEST_P(PipelineTest, GeneratedCCompiles) {
  const core::PipelineResult& r = PipelineFor(GetParam());
  std::string dir = ::testing::TempDir() + "/revnic_" + drivers::DriverName(GetParam());
  std::string mk = "mkdir -p " + dir;
  ASSERT_EQ(system(mk.c_str()), 0);
  {
    FILE* f = fopen((dir + "/revnic_runtime.h").c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs(r.runtime_header.c_str(), f);
    fclose(f);
    f = fopen((dir + "/driver.c").c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs(r.c_source.c_str(), f);
    fclose(f);
  }
  std::string cc = "cc -std=c11 -Wall -Wno-unused-but-set-variable -Werror -c " + dir +
                   "/driver.c -o " + dir + "/driver.o -I " + dir + " 2> " + dir + "/cc.log";
  int rc = system(cc.c_str());
  if (rc != 0) {
    std::string cat = "cat " + dir + "/cc.log";
    system(cat.c_str());
  }
  EXPECT_EQ(rc, 0) << "generated C failed to compile";
}

// The decisive test: the synthesized driver, pasted into each target OS
// template, drives the real device model exactly like the original binary.
class PortedDriverTest
    : public ::testing::TestWithParam<std::tuple<DriverId, TargetOs>> {};

TEST_P(PortedDriverTest, SynthesizedDriverWorksOnTarget) {
  auto [id, target] = GetParam();
  const core::PipelineResult& r = PipelineFor(id);
  auto device = drivers::MakeDevice(id);
  RecoveredDriverHost host(&r.module, device.get(), target);
  ASSERT_TRUE(host.Initialize()) << "synthesized init failed";
  EXPECT_TRUE(device->rx_enabled());

  // MAC equivalence with the device's burned-in address.
  auto mac = host.QueryMac();
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(*mac, device->mac());

  // Transmit path: frames appear on the wire bit-identical.
  std::vector<hw::Frame> wire;
  device->set_tx_hook([&](const hw::Frame& f) { wire.push_back(f); });
  for (size_t payload : {26u, 300u, 994u, 1200u, 1472u}) {
    hw::Frame f = hw::BuildUdpFrame({1, 2, 3, 4, 5, 6}, {9, 8, 7, 6, 5, 4}, payload, 0x5C);
    auto status = host.SendFrame(f);
    ASSERT_TRUE(status.has_value()) << "payload " << payload;
    EXPECT_EQ(*status, os::kStatusSuccess) << "payload " << payload;
    ASSERT_FALSE(wire.empty());
    ASSERT_GE(wire.back().size(), f.size());
    EXPECT_TRUE(std::equal(f.begin(), f.end(), wire.back().begin())) << "payload " << payload;
  }
  EXPECT_EQ(wire.size(), 5u);

  // Receive path.
  hw::MacAddr bcast = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  hw::Frame rx = hw::BuildUdpFrame({3, 3, 3, 3, 3, 3}, bcast, 200, 0x7E);
  ASSERT_TRUE(device->InjectReceive(rx));
  host.DeliverInterrupts();
  ASSERT_GE(host.rx_delivered().size(), 1u);
  EXPECT_EQ(host.rx_delivered().back(), rx);

  // Promiscuous + multicast still function after porting.
  ASSERT_TRUE(host.SetPacketFilter(os::kFilterPromiscuous | os::kFilterDirected |
                                   os::kFilterBroadcast));
  EXPECT_TRUE(device->promiscuous());
  hw::MacAddr mc = {0x01, 0x00, 0x5E, 0x00, 0x00, 0x05};
  ASSERT_TRUE(host.SetMulticastList({mc}));
  EXPECT_TRUE(device->MulticastAccepts(mc));

  host.Halt();
  EXPECT_FALSE(device->rx_enabled());
}

TEST_P(PortedDriverTest, IoTraceEquivalenceWithOriginal) {
  // §5.2's validation method: run original and synthesized drivers through
  // the same workload and compare the resulting hardware interaction at the
  // device level (frames emitted, device end state).
  auto [id, target] = GetParam();
  const core::PipelineResult& r = PipelineFor(id);

  auto dev_orig = drivers::MakeDevice(id);
  os::ConcreteWinSimHost orig(drivers::DriverImage(id), dev_orig.get());
  ASSERT_TRUE(orig.Initialize());
  auto dev_port = drivers::MakeDevice(id);
  RecoveredDriverHost port(&r.module, dev_port.get(), target);
  ASSERT_TRUE(port.Initialize());

  std::vector<hw::Frame> wire_orig, wire_port;
  dev_orig->set_tx_hook([&](const hw::Frame& f) { wire_orig.push_back(f); });
  dev_port->set_tx_hook([&](const hw::Frame& f) { wire_port.push_back(f); });

  for (int i = 0; i < 8; ++i) {
    hw::Frame f = hw::BuildUdpFrame({1, 2, 3, 4, 5, 6}, {2, 2, 2, 2, 2, 2},
                                    64 + (i * 173) % 1300, static_cast<uint8_t>(i));
    ASSERT_TRUE(orig.SendFrame(f).has_value());
    ASSERT_TRUE(port.SendFrame(f).has_value());
  }
  EXPECT_EQ(wire_orig, wire_port) << "hardware I/O traces diverge";
  EXPECT_EQ(dev_orig->mac(), dev_port->mac());
  EXPECT_EQ(dev_orig->promiscuous(), dev_port->promiscuous());
  EXPECT_EQ(dev_orig->rx_enabled(), dev_port->rx_enabled());
}

std::string PortedName(const ::testing::TestParamInfo<std::tuple<DriverId, TargetOs>>& info) {
  return std::string(drivers::DriverName(std::get<0>(info.param))) + "_to_" +
         os::TargetOsName(std::get<1>(info.param));
}

// The paper's porting matrix (§5.1): PCNet/RTL8139/RTL8029 -> Windows, Linux,
// KitOS; 91C111 -> uC/OS-II and KitOS; post-paper el3 -> Windows, Linux,
// KitOS.
INSTANTIATE_TEST_SUITE_P(
    PaperPortingMatrix, PortedDriverTest,
    ::testing::Values(std::tuple{DriverId::kRtl8029, TargetOs::kWindows},
                      std::tuple{DriverId::kRtl8029, TargetOs::kLinux},
                      std::tuple{DriverId::kRtl8029, TargetOs::kKitos},
                      std::tuple{DriverId::kRtl8139, TargetOs::kWindows},
                      std::tuple{DriverId::kRtl8139, TargetOs::kLinux},
                      std::tuple{DriverId::kRtl8139, TargetOs::kKitos},
                      std::tuple{DriverId::kPcnet, TargetOs::kWindows},
                      std::tuple{DriverId::kPcnet, TargetOs::kLinux},
                      std::tuple{DriverId::kPcnet, TargetOs::kKitos},
                      std::tuple{DriverId::kSmc91c111, TargetOs::kUcos},
                      std::tuple{DriverId::kSmc91c111, TargetOs::kKitos},
                      std::tuple{DriverId::kEl3, TargetOs::kWindows},
                      std::tuple{DriverId::kEl3, TargetOs::kLinux},
                      std::tuple{DriverId::kEl3, TargetOs::kKitos}),
    PortedName);

INSTANTIATE_TEST_SUITE_P(AllDrivers, PipelineTest, ::testing::ValuesIn(RegisteredDrivers()),
                         [](const ::testing::TestParamInfo<DriverId>& info) {
                           return drivers::DriverName(info.param);
                         });

// Session::TakeResult is what RunBatch hands back per job: it must carry
// every requested target's TU and the full per-pass trail of the one
// synthesis path, exactly as the session's accessors reported them.
TEST(PipelineResult, TakeResultMatchesSessionAcrossTargets) {
  const DriverId id = DriverId::kRtl8029;
  core::EngineConfig cfg;
  cfg.pci = drivers::DriverPci(id);
  cfg.max_work = 60'000;
  core::EmitOptions emit;
  emit.targets.assign(std::begin(os::kAllTargetOses), std::end(os::kAllTargetOses));

  core::Session session(drivers::DriverImage(id), cfg);
  ASSERT_TRUE(session.set_emit_options(emit));
  ASSERT_TRUE(session.RunAll());
  const std::map<os::TargetOs, std::string> emitted = session.emitted();
  const std::string c_source = session.c_source();
  const synth::SynthStats stats = session.synth_stats();
  core::PipelineResult taken = session.TakeResult();

  ASSERT_EQ(taken.emitted.size(), 4u);
  EXPECT_EQ(taken.emitted, emitted);
  EXPECT_EQ(taken.c_source, c_source);
  EXPECT_EQ(taken.c_source, taken.emitted.at(os::TargetOs::kWindows));
  // The pass pipeline ran with cleanup on (the default): the whole trail.
  ASSERT_EQ(taken.synth_stats.passes.size(), 14u);
  ASSERT_EQ(taken.synth_stats.passes.size(), stats.passes.size());
  for (size_t i = 0; i < stats.passes.size(); ++i) {
    EXPECT_EQ(taken.synth_stats.passes[i].name, stats.passes[i].name);
    EXPECT_EQ(taken.synth_stats.passes[i].items, stats.passes[i].items);
  }
  // And the cleanup artifacts made it into the module.
  EXPECT_FALSE(taken.module.emit_plans.empty());
}

}  // namespace
}  // namespace revnic
