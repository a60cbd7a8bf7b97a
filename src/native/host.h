// NativeKitosHost: the kitos "template" run for real -- the host side of a
// dlopen'd, natively-compiled synthesized driver.
//
// It is one of the three os::MiniportHost implementations, beside
// os::RecoveredDriverHost (the same module, interpreted) and
// os::ConcreteWinSimHost (the original binary on the DBT). All three run the
// one shared entry-role protocol over the same device models, WinSim kernel
// API semantics and staging addresses; this host supplies only the two
// primitives (the role's pc from the recovered module, and a call through
// revnic_call_pc_at). That shared protocol is the trace-parity argument
// (src/native/README.md): the only thing that changes between the execution
// modes is *who executes the state machine* (host cc output vs. the IR
// interpreter vs. the DBT), so an identical hardware I/O trace means the
// emitted C is faithful.
//
// The host owns no RAM: guest memory lives inside the shared object
// (revnic_ram_base), and both the device models' DMA path and WinSim's
// GuestMem are views over that one array.
#ifndef REVNIC_NATIVE_HOST_H_
#define REVNIC_NATIVE_HOST_H_

#include <optional>
#include <vector>

#include "hw/nic.h"
#include "native/loader.h"
#include "os/miniport_host.h"
#include "synth/module.h"

namespace revnic::native {

struct NativeHostCounters {
  uint64_t io_reads = 0;  // device register reads by the compiled driver
  uint64_t io_writes = 0;
  uint64_t unexplored_hits = 0;  // coverage-hole traps (should stay 0)

  uint64_t io_total() const { return io_reads + io_writes; }
};

class NativeKitosHost : public os::MiniportHost {
 public:
  // `module`, `recovered`, and `device` must outlive the host. `recovered`
  // supplies the entry-role pc table (the host dispatches roles by guest pc
  // through revnic_call_pc_at, as RecoveredDriverHost runs them in the
  // interpreter). `io_override` interposes on register traffic (e.g. a
  // hw::CountingIoProxy), as in the other hosts.
  NativeKitosHost(const NativeModule* module, const synth::RecoveredModule* recovered,
                  hw::NicDevice* device, vm::IoHandler* io_override = nullptr);
  ~NativeKitosHost() override;

  // Binds the host hooks into the shared object and zeroes its RAM; must be
  // called (once) before Initialize. False with `error` set on ABI trouble.
  bool Bind(std::string* error);

  const NativeHostCounters& counters() const { return counters_; }

 private:
  // vm::RamPort view over the shared object's flat RAM with MemoryMap's
  // exact out-of-range semantics (reads 0, writes dropped) so DMA behaves
  // identically in both execution modes.
  class SoRam final : public vm::RamPort {
   public:
    void Attach(uint8_t* base, uint32_t size) {
      base_ = base;
      size_ = size;
    }
    uint32_t ReadRam(uint32_t addr, unsigned size) const override;
    void WriteRam(uint32_t addr, unsigned size, uint32_t value) override;
    void WriteRamBytes(uint32_t addr, const uint8_t* data, size_t len) override;
    void ReadRamBytes(uint32_t addr, uint8_t* out, size_t len) const override;

   private:
    uint8_t* base_ = nullptr;
    uint32_t size_ = 0;
  };

  // Hook trampolines installed through revnic_bind_host.
  static uint32_t IoReadThunk(void* ctx, uint32_t addr, unsigned size);
  static void IoWriteThunk(void* ctx, uint32_t addr, unsigned size, uint32_t value);
  static uint32_t OsCallThunk(void* ctx, uint32_t api_id, RevnicCpu* cpu);
  static void UnexploredThunk(void* ctx, uint32_t pc);
  static void HaltThunk(void* ctx);

  uint32_t HandleIoRead(uint32_t addr, unsigned size);
  void HandleIoWrite(uint32_t addr, unsigned size, uint32_t value);
  uint32_t HandleOsCall(uint32_t api_id, RevnicCpu* cpu);

  bool InDeviceWindow(uint32_t addr) const;
  uint32_t EntryPc(os::EntryRole role) const override { return recovered_->EntryPc(role); }
  // Entry calls start on a fresh stack at os::kStackTop; nullopt before Bind.
  std::optional<uint32_t> CallPc(uint32_t pc, std::span<const uint32_t> args) override;
  std::optional<uint32_t> CallAt(uint32_t pc, uint32_t sp, std::span<const uint32_t> args);

  const NativeModule* module_;
  const synth::RecoveredModule* recovered_;
  vm::IoHandler* io_;
  SoRam ram_;
  RevnicHostOps ops_{};
  NativeHostCounters counters_;
  bool bound_ = false;
  bool escaped_ = false;  // an unexplored/halt trap fired inside the current call
};

}  // namespace revnic::native

#endif  // REVNIC_NATIVE_HOST_H_
