// MiniportHost: the NDIS miniport calling protocol, written once.
//
// RevNIC validates a synthesized driver by running it and the original
// through the same workload and comparing their hardware I/O traces (§5.2).
// Three hosts run a driver: the original binary on the DBT
// (ConcreteWinSimHost), the synthesized module in the template interpreter
// (RecoveredDriverHost) and the host-compiled kitos TU
// (native::NativeKitosHost). They differ only in *who executes the driver*.
// Everything else lives here: the WinSim kernel API service, the device's
// IRQ line, the scratch staging layout in guest RAM, and the entry-role
// protocol the NDIS stack drives (init, send, ISR/DPC drain, query/set,
// reset, halt). The workload is therefore one code path for all three
// hosts, which is what makes an identical I/O trace mean a faithful driver.
//
// A host supplies two primitives: the entry pc of a role (EntryPc), and
// "call this pc with stdcall args" (CallPc).
//
// Entry-point signatures (stdcall; status/r0 conventions in api.h):
//   initialize(driver_handle) -> status          isr(ctx) -> recognized
//   handle_interrupt(ctx)                        send(ctx, packet, flags) -> status
//   query_info(ctx, oid, buf, len, written_addr) -> status
//   set_info(ctx, oid, buf, len, read_addr) -> status
//   reset(ctx) -> status    halt(ctx)
// `ctx` is the adapter context the driver registered via NdisMSetAttributes
// (WinSim::adapter_context()).
#ifndef REVNIC_OS_MINIPORT_HOST_H_
#define REVNIC_OS_MINIPORT_HOST_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hw/nic.h"
#include "os/winsim.h"
#include "vm/memmap.h"

namespace revnic::os {

// WinSim's GuestMem over a RAM port: the one adapter every host uses. It is
// typed on the concrete port so that, for a final port class, its accesses
// are direct calls. Copy and Zero move whole chunks when the byte loop
// would give the same bytes: both ranges wholly in RAM (no drop at RAM
// end, no address wrap) and no forward overlap (src < dst < src + n, where
// the byte loop re-reads bytes it wrote).
template <typename Ram>
class RamGuestMem final : public GuestMem {
 public:
  explicit RamGuestMem(Ram* ram) : ram_(ram) {}
  uint32_t Read(uint32_t addr, unsigned size) override { return ram_->ReadRam(addr, size); }
  void Write(uint32_t addr, unsigned size, uint32_t value) override {
    ram_->WriteRam(addr, size, value);
  }
  void Copy(uint32_t dst, uint32_t src, uint32_t n) override {
    if (!ram_->IsRam(dst, n) || !ram_->IsRam(src, n) || (src < dst && dst - src < n)) {
      GuestMem::Copy(dst, src, n);
      return;
    }
    // Front to back, one chunk at a time: with dst < src, a chunk's writes
    // end before the next chunk's reads begin, as in the byte loop.
    uint8_t chunk[256];
    for (uint32_t done = 0; done < n; done += sizeof(chunk)) {
      uint32_t len = std::min<uint32_t>(n - done, sizeof(chunk));
      ram_->ReadRamBytes(src + done, chunk, len);
      ram_->WriteRamBytes(dst + done, chunk, len);
    }
  }
  void Zero(uint32_t dst, uint32_t n) override {
    if (!ram_->IsRam(dst, n)) {
      GuestMem::Zero(dst, n);
      return;
    }
    static constexpr uint8_t kZeros[256] = {};
    for (uint32_t done = 0; done < n; done += sizeof(kZeros)) {
      ram_->WriteRamBytes(dst + done, kZeros, std::min<uint32_t>(n - done, sizeof(kZeros)));
    }
  }

 private:
  Ram* ram_;
};

class MiniportHost {
 public:
  // Scratch staging layout in guest RAM. The NDIS_PACKET is {buffer,
  // length} at kPacketAddr with its frame bytes at kFrameAddr; an IOCTL's
  // data buffer is at kIoctlBufAddr and its bytes-written/read word at
  // kIoctlCountAddr.
  static constexpr uint32_t kScratchBase = 0x00200000;
  static constexpr uint32_t kPacketAddr = kScratchBase;
  static constexpr uint32_t kFrameAddr = kScratchBase + 0x100;
  static constexpr uint32_t kIoctlCountAddr = kScratchBase + 0x7F0;
  static constexpr uint32_t kIoctlBufAddr = kScratchBase + 0x800;
  static constexpr uint32_t kDriverHandle = 0x2000;
  // ISR/DPC rounds per drain while the line stays raised.
  static constexpr int kMaxInterruptRounds = 8;

  virtual ~MiniportHost() = default;
  MiniportHost(const MiniportHost&) = delete;
  MiniportHost& operator=(const MiniportHost&) = delete;

  // Runs Load() and the initialize role, then drains interrupts. False on
  // any failure.
  bool Initialize();

  // Stages one frame as an NDIS_PACKET, calls the send role, then drains
  // interrupts. Returns the entry's status; nullopt before Initialize, when
  // no send entry exists, or on a failed call.
  std::optional<uint32_t> SendFrame(const hw::Frame& frame);

  // ISR then DPC while the device holds its line raised, at most
  // kMaxInterruptRounds rounds; stops when the ISR does not recognize the
  // interrupt.
  void DeliverInterrupts();

  // Standard IOCTL wrappers. Query zeroes the written word first and copies
  // the data back only on success.
  std::optional<uint32_t> Query(uint32_t oid, uint8_t* buf, uint32_t len);
  bool Set(uint32_t oid, const uint8_t* buf, uint32_t len);
  bool SetPacketFilter(uint32_t filter_bits);
  bool SetMulticastList(const std::vector<hw::MacAddr>& list);
  std::optional<hw::MacAddr> QueryMac();

  bool Reset();
  void Halt();

  WinSim& api_service() { return api_; }
  // Frames the driver delivered upward (NdisMIndicateReceive).
  std::vector<hw::Frame>& rx_delivered() { return api_.rx_delivered(); }
  // Vendor stalls the template OS-call prologue dropped (§4.2).
  uint64_t stripped_stalls_us() const { return stripped_stalls_us_; }

 protected:
  // `device` must outlive the host.
  explicit MiniportHost(hw::NicDevice* device);

  // Gives the device `ram` for DMA and connects its IRQ line to this host;
  // `ram` is also where the protocol stages packets and IOCTL buffers and
  // what guest_mem() reads. Every host calls one of the two once its RAM
  // exists.
  template <typename Ram>
  void Attach(Ram* ram) {
    guest_mem_ = std::make_unique<RamGuestMem<Ram>>(ram);
    ConnectDevice(ram);
  }
  // Attach() over a MemoryMap that also maps the device's I/O windows,
  // routed to `io_override` when given.
  void Attach(vm::MemoryMap* mm, vm::IoHandler* io_override);

  GuestMem& guest_mem() { return *guest_mem_; }

  // Runs before the initialize role. The original host runs DriverEntry.
  virtual bool Load() { return true; }
  // The two primitives. CallPc returns r0, or nullopt if the call failed.
  virtual uint32_t EntryPc(EntryRole role) const = 0;
  virtual std::optional<uint32_t> CallPc(uint32_t pc, std::span<const uint32_t> args) = 0;

  // The template OS-call prologue shared by the synthesized-driver hosts:
  // source-OS stalls become no-ops (the developer's §4.2 porting step, which
  // is why synthesized drivers lose the original's stall quirk, Figure 2),
  // everything else goes to WinSim. A kCallGuestFunction outcome is left to
  // the caller, which alone knows the current stack.
  ApiOutcome TemplateOsCall(uint32_t api_id, const std::vector<uint32_t>& args);

  hw::NicDevice* device_;
  WinSim api_;

 private:
  void ConnectDevice(vm::RamPort* ram);
  std::optional<uint32_t> CallRole(EntryRole role, std::initializer_list<uint32_t> args);

  std::unique_ptr<GuestMem> guest_mem_;
  vm::RamPort* ram_ = nullptr;
  uint64_t stripped_stalls_us_ = 0;
  bool irq_pending_ = false;
  bool initialized_ = false;
};

}  // namespace revnic::os

#endif  // REVNIC_OS_MINIPORT_HOST_H_
