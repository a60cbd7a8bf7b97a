#include "os/recovered_host.h"

namespace revnic::os {

RecoveredDriverHost::RecoveredDriverHost(const synth::RecoveredModule* module,
                                         hw::NicDevice* device, TargetOs os,
                                         vm::IoHandler* io_override)
    : MiniportHost(device), module_(module), os_(os), mm_(kGuestRamSize) {
  Attach(&mm_, io_override);
  runner_ = std::make_unique<synth::RecoveredRunner>(module_, &mm_, this);
  runner_->set_reg(isa::kRegSp, kStackTop);
}

uint32_t RecoveredDriverHost::OsCall(uint32_t api_id, const std::vector<uint32_t>& args) {
  ApiOutcome outcome = TemplateOsCall(api_id, args);
  if (outcome.effect == ApiEffect::kCallGuestFunction) {
    return runner_->Call(outcome.callback_pc, {outcome.callback_arg}).value_or(kStatusFailure);
  }
  return outcome.ret;
}

}  // namespace revnic::os
