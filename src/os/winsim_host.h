// ConcreteWinSimHost: runs an r32 driver binary on WinSim against a real
// device model, concretely.
//
// This is the environment an end user's machine provides: it loads the
// driver, lets it register its miniport entry points (DriverEntry), and
// then drives those entry points the way the NDIS stack would, through the
// shared protocol of os::MiniportHost. Used to validate reverse-engineered
// drivers against the originals by I/O-trace comparison (§5.2) and as the
// "Windows original" configuration of the performance experiments (§5.3).
//
//   DriverEntry(driver_object, registry_path) -> status
//   timer(ctx)            (the other entry points: os/miniport_host.h)
#ifndef REVNIC_OS_WINSIM_HOST_H_
#define REVNIC_OS_WINSIM_HOST_H_

#include <optional>

#include "hw/nic.h"
#include "isa/image.h"
#include "os/miniport_host.h"
#include "vm/machine.h"

namespace revnic::os {

class ConcreteWinSimHost : public MiniportHost {
 public:
  // `device` must outlive the host. Its I/O windows are mapped, its IRQ line
  // connected, and (for bus masters) guest RAM attached.
  // `io_override`, when given, receives the device's register traffic
  // (e.g. a CountingIoProxy for performance accounting).
  ConcreteWinSimHost(const isa::Image& image, hw::NicDevice* device,
                     vm::IoHandler* io_override = nullptr);

  // Fires any pending timers (drivers use these for link polling).
  void FireTimers();

  WinSim& os() { return api_; }
  uint64_t guest_instrs() const { return machine_.instr_count(); }

 private:
  // Runs DriverEntry; the driver registers its miniport entry points.
  bool Load() override;
  uint32_t EntryPc(EntryRole role) const override { return api_.EntryPc(role); }
  // Runs the DBT from `pc` until it returns to kStopPc, servicing the
  // driver's kernel API calls on the way.
  std::optional<uint32_t> CallPc(uint32_t pc, std::span<const uint32_t> args) override;

  static constexpr uint64_t kCallBudget = 2'000'000;  // guest instrs per entry call

  isa::Image image_;
  vm::MemoryMap mm_;
  vm::ConcreteMachine machine_;
};

}  // namespace revnic::os

#endif  // REVNIC_OS_WINSIM_HOST_H_
