// RecoveredDriverHost: a target-OS driver template instantiated with
// RevNIC-synthesized code (§4.2).
//
// One class implements the paper's template structure for all four target
// OSes; the TargetOs tag selects the boilerplate profile (what the OS charges
// per packet is the perf module's concern). The template:
//   * provides all OS boilerplate (resource allocation, timers, error
//     recovery) by servicing the synthesized code's kernel calls;
//   * wires the recovered entry points into its placeholder slots using the
//     role metadata captured at registration time (standing in for the
//     developer's paste step) and drives them through the shared miniport
//     protocol (os/miniport_host.h);
//   * strips source-OS-specific workarounds: NdisStallExecution becomes a
//     no-op, which is why the synthesized RTL8139 driver does not inherit
//     the original Windows driver's >1 KiB stall quirk (Figure 2).
// KitOS is the degenerate template: no OS services beyond memory, which is
// the paper's "driver talks to hardware directly" mode.
#ifndef REVNIC_OS_RECOVERED_HOST_H_
#define REVNIC_OS_RECOVERED_HOST_H_

#include <memory>
#include <optional>

#include "hw/nic.h"
#include "os/miniport_host.h"
#include "os/target.h"
#include "synth/module.h"
#include "synth/runner.h"

namespace revnic::os {

class RecoveredDriverHost : public MiniportHost, public synth::OsBridge {
 public:
  // `module` and `device` must outlive the host.
  RecoveredDriverHost(const synth::RecoveredModule* module, hw::NicDevice* device, TargetOs os,
                      vm::IoHandler* io_override = nullptr);

  // synth::OsBridge: kernel API service for the synthesized code.
  uint32_t OsCall(uint32_t api_id, const std::vector<uint32_t>& args) override;

  TargetOs target() const { return os_; }
  uint64_t guest_instrs() const { return runner_->instr_count(); }

 private:
  uint32_t EntryPc(EntryRole role) const override { return module_->EntryPc(role); }
  std::optional<uint32_t> CallPc(uint32_t pc, std::span<const uint32_t> args) override {
    return runner_->Call(pc, std::vector<uint32_t>(args.begin(), args.end()));
  }

  const synth::RecoveredModule* module_;
  TargetOs os_;
  vm::MemoryMap mm_;
  std::unique_ptr<synth::RecoveredRunner> runner_;
};

}  // namespace revnic::os

#endif  // REVNIC_OS_RECOVERED_HOST_H_
