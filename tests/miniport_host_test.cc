// The shared miniport protocol (os::MiniportHost) against a recording fake
// host and a fake device, with no driver: the staging layout, the IOCTL
// buffer contract, the ISR/DPC drain bounds and the halt call are pinned
// once here for all three real hosts (original, interpreted, native).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "hw/frame.h"
#include "hw/nic.h"
#include "os/api.h"
#include "os/miniport_host.h"
#include "vm/memmap.h"

namespace revnic {
namespace {

using os::EntryRole;
using os::MiniportHost;

// A device with no registers; the test drives its IRQ line directly.
class FakeNic : public hw::NicDevice {
 public:
  const hw::PciConfig& pci() const override { return pci_; }
  const char* name() const override { return "fake"; }
  void Reset() override {}
  bool InjectReceive(const hw::Frame&) override { return false; }
  uint32_t IoRead(uint32_t, unsigned) override { return 0; }
  void IoWrite(uint32_t, unsigned, uint32_t) override {}
  hw::MacAddr mac() const override { return {}; }
  bool promiscuous() const override { return false; }
  bool rx_enabled() const override { return false; }
  bool tx_enabled() const override { return false; }

  void Raise(bool level) { SetIrq(level); }

 private:
  hw::PciConfig pci_;
};

struct Call {
  EntryRole role;
  std::vector<uint32_t> args;
};

// Records every entry call and answers from a per-role script; the query
// role also writes a reply into the IOCTL buffer it was handed.
class FakeHost : public MiniportHost {
 public:
  explicit FakeHost(FakeNic* nic) : MiniportHost(nic), mm_(os::kGuestRamSize) { Attach(&mm_); }

  std::vector<Call> calls;
  std::map<EntryRole, uint32_t> ret;  // r0 per role; kStatusSuccess if absent
  uint32_t written_at_call = 0;       // the query's written word on entry
  std::vector<uint32_t> roles_registered = {0, 1, 2, 3, 4, 5, 6, 7};
  vm::MemoryMap& mem() { return mm_; }

  size_t Count(EntryRole role) const {
    size_t n = 0;
    for (const Call& c : calls) {
      n += c.role == role ? 1 : 0;
    }
    return n;
  }

 private:
  static constexpr uint32_t kPcBase = 0x1000;

  uint32_t EntryPc(EntryRole role) const override {
    for (uint32_t r : roles_registered) {
      if (r == static_cast<uint32_t>(role)) {
        return kPcBase + 0x10 * r;
      }
    }
    return 0;
  }

  std::optional<uint32_t> CallPc(uint32_t pc, std::span<const uint32_t> args) override {
    auto role = static_cast<EntryRole>((pc - kPcBase) / 0x10);
    calls.push_back({role, std::vector<uint32_t>(args.begin(), args.end())});
    if (role == EntryRole::kQueryInformation) {
      written_at_call = mm_.ReadRam(args[4], 4);
      mm_.WriteRam(args[2], 4, 0xA1B2C3D4);  // reply data
      mm_.WriteRam(args[4], 4, 4);           // bytes written
    }
    auto it = ret.find(role);
    return it == ret.end() ? os::kStatusSuccess : it->second;
  }

  vm::MemoryMap mm_;
};

class MiniportHostTest : public ::testing::Test {
 protected:
  FakeNic nic_;
  FakeHost host_{&nic_};
};

TEST_F(MiniportHostTest, InitializePassesTheDriverHandle) {
  ASSERT_TRUE(host_.Initialize());
  ASSERT_EQ(host_.calls.size(), 1u);  // line low: no ISR after init
  EXPECT_EQ(host_.calls[0].role, EntryRole::kInitialize);
  EXPECT_EQ(host_.calls[0].args, std::vector<uint32_t>{MiniportHost::kDriverHandle});
}

TEST_F(MiniportHostTest, SendStagesThePacketAtTheScratchBase) {
  ASSERT_TRUE(host_.Initialize());
  hw::Frame frame(60);
  for (size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<uint8_t>(i * 7);
  }
  auto status = host_.SendFrame(frame);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, os::kStatusSuccess);

  const Call& send = host_.calls.back();
  ASSERT_EQ(send.role, EntryRole::kSend);
  ASSERT_EQ(send.args.size(), 3u);
  EXPECT_EQ(send.args[1], 0x00200000u);  // NDIS_PACKET
  EXPECT_EQ(send.args[2], 0u);           // flags
  vm::MemoryMap& mem = host_.mem();
  EXPECT_EQ(mem.ReadRam(0x00200000, 4), 0x00200100u);  // buffer pointer
  EXPECT_EQ(mem.ReadRam(0x00200004, 4), 60u);          // length
  hw::Frame staged(60);
  mem.ReadRamBytes(0x00200100, staged.data(), staged.size());
  EXPECT_EQ(staged, frame);
}

TEST_F(MiniportHostTest, SendBeforeInitializeOrWithoutEntryIsRefused) {
  EXPECT_FALSE(host_.SendFrame(hw::Frame(60)).has_value());
  EXPECT_TRUE(host_.calls.empty());

  host_.roles_registered = {0, 1, 2, 4, 5, 6, 7};  // no send entry
  ASSERT_TRUE(host_.Initialize());
  EXPECT_FALSE(host_.SendFrame(hw::Frame(60)).has_value());
  EXPECT_EQ(host_.Count(EntryRole::kSend), 0u);
}

TEST_F(MiniportHostTest, QueryZeroesTheWrittenWordAndCopiesBackOnSuccess) {
  host_.mem().WriteRam(0x002007F0, 4, 0xFFFFFFFF);  // stale count
  host_.written_at_call = 0xDEAD;
  uint8_t buf[4] = {};
  auto status = host_.Query(os::kOid8023CurrentAddress, buf, 4);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(host_.written_at_call, 0u);
  const Call& q = host_.calls.back();
  ASSERT_EQ(q.role, EntryRole::kQueryInformation);
  EXPECT_EQ(q.args[1], os::kOid8023CurrentAddress);
  EXPECT_EQ(q.args[2], 0x00200800u);  // data buffer
  EXPECT_EQ(q.args[3], 4u);
  EXPECT_EQ(q.args[4], 0x002007F0u);  // written word
  uint32_t got;
  std::memcpy(&got, buf, 4);
  EXPECT_EQ(got, 0xA1B2C3D4u);

  // A failing query leaves the caller's buffer untouched.
  host_.ret[EntryRole::kQueryInformation] = os::kStatusFailure;
  uint8_t untouched[4] = {9, 9, 9, 9};
  status = host_.Query(os::kOid8023CurrentAddress, untouched, 4);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, os::kStatusFailure);
  EXPECT_EQ(untouched[0], 9);
  EXPECT_EQ(untouched[3], 9);
}

TEST_F(MiniportHostTest, InterruptDrainStopsAfterEightRoundsWhileTheLineStaysRaised) {
  ASSERT_TRUE(host_.Initialize());
  host_.calls.clear();
  host_.ret[EntryRole::kIsr] = 1;  // always recognized
  nic_.Raise(true);                // and never lowered
  host_.DeliverInterrupts();
  EXPECT_EQ(host_.Count(EntryRole::kIsr), 8u);
  EXPECT_EQ(host_.Count(EntryRole::kHandleInterrupt), 8u);
  ASSERT_EQ(host_.calls.size(), 16u);
  for (size_t i = 0; i < host_.calls.size(); i += 2) {
    EXPECT_EQ(host_.calls[i].role, EntryRole::kIsr);
    EXPECT_EQ(host_.calls[i + 1].role, EntryRole::kHandleInterrupt);
  }
}

TEST_F(MiniportHostTest, DpcIsSkippedWhenTheIsrDoesNotRecognize) {
  ASSERT_TRUE(host_.Initialize());
  host_.calls.clear();
  host_.ret[EntryRole::kIsr] = 0;
  nic_.Raise(true);
  host_.DeliverInterrupts();
  ASSERT_EQ(host_.calls.size(), 1u);
  EXPECT_EQ(host_.calls[0].role, EntryRole::kIsr);

  // A low line runs no ISR at all.
  host_.calls.clear();
  nic_.Raise(false);
  host_.DeliverInterrupts();
  EXPECT_TRUE(host_.calls.empty());
}

TEST_F(MiniportHostTest, HaltCallsTheHaltRoleOnce) {
  host_.Halt();  // not initialized: nothing to halt
  EXPECT_EQ(host_.Count(EntryRole::kHalt), 0u);
  ASSERT_TRUE(host_.Initialize());
  host_.Halt();
  host_.Halt();
  EXPECT_EQ(host_.Count(EntryRole::kHalt), 1u);
  EXPECT_FALSE(host_.SendFrame(hw::Frame(60)).has_value());  // halted
}

// GuestMem's own byte loops (NdisMoveMemory, NdisZeroMemory) over a
// MemoryMap: what RamGuestMem's bulk paths must reproduce byte for byte.
class ByteLoopMem : public os::GuestMem {
 public:
  explicit ByteLoopMem(vm::MemoryMap* mm) : mm_(mm) {}
  uint32_t Read(uint32_t addr, unsigned size) override { return mm_->ReadRam(addr, size); }
  void Write(uint32_t addr, unsigned size, uint32_t value) override {
    mm_->WriteRam(addr, size, value);
  }

 private:
  vm::MemoryMap* mm_;
};

TEST(RamGuestMem, BulkCopyAndZeroGiveTheByteLoopsBytes) {
  constexpr uint32_t kRam = 4096;
  struct Case {
    uint32_t dst, src, n;
    const char* what;
  };
  const Case cases[] = {
      {0x100, 0x600, 300, "disjoint"},
      {0x110, 0x100, 700, "forward overlap: the byte loop repeats the source's first 16 bytes"},
      {0x100, 0x10A, 1000, "backward overlap across chunks"},
      {0x200, 0x200, 64, "same range"},
      {0x100, 0x100 + 600, 600, "adjacent"},
      {kRam - 40, 0x100, 100, "dst crosses RAM end: the tail is dropped"},
      {0x100, kRam - 40, 100, "src crosses RAM end: the tail reads 0"},
      {0xFFFFFFF0u, 0x100, 64, "dst wraps past 2^32 into low RAM"},
      {0x100, 0xFFFFFFF0u, 64, "src wraps past 2^32"},
      {0x100, 0x200, 0, "empty"},
  };
  for (const Case& c : cases) {
    vm::MemoryMap bulk_ram(kRam);
    vm::MemoryMap loop_ram(kRam);
    for (uint32_t i = 0; i < kRam; ++i) {
      bulk_ram.mutable_ram()[i] = loop_ram.mutable_ram()[i] = static_cast<uint8_t>(i * 37 + 11);
    }
    os::RamGuestMem<vm::MemoryMap> bulk(&bulk_ram);
    ByteLoopMem loop(&loop_ram);
    bulk.Copy(c.dst, c.src, c.n);
    loop.Copy(c.dst, c.src, c.n);
    EXPECT_EQ(std::memcmp(bulk_ram.ram(), loop_ram.ram(), kRam), 0) << "copy, " << c.what;
    bulk.Zero(c.dst, c.n);
    loop.Zero(c.dst, c.n);
    EXPECT_EQ(std::memcmp(bulk_ram.ram(), loop_ram.ram(), kRam), 0) << "zero, " << c.what;
  }
}

}  // namespace
}  // namespace revnic
