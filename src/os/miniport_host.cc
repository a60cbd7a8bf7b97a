#include "os/miniport_host.h"

#include <cstring>

#include "util/log.h"

namespace revnic::os {

MiniportHost::MiniportHost(hw::NicDevice* device) : device_(device), api_(device->pci()) {}

void MiniportHost::ConnectDevice(vm::RamPort* ram) {
  ram_ = ram;
  device_->AttachRam(ram);
  device_->set_irq_hook([this](bool level) { irq_pending_ = level; });
}

void MiniportHost::Attach(vm::MemoryMap* mm, vm::IoHandler* io_override) {
  const hw::PciConfig& pci = device_->pci();
  vm::IoHandler* io = io_override != nullptr ? io_override : device_;
  if (pci.io_size != 0) {
    mm->AddPorts(pci.io_base, pci.io_size, io);
  }
  if (pci.mmio_size != 0) {
    mm->AddMmio(pci.mmio_base, pci.mmio_size, io);
  }
  Attach<vm::MemoryMap>(mm);
}

ApiOutcome MiniportHost::TemplateOsCall(uint32_t api_id, const std::vector<uint32_t>& args) {
  if (api_id == kNdisStallExecution || api_id == kNdisMSleep) {
    stripped_stalls_us_ += args.empty() ? 0 : args[0];
    return ApiOutcome{kStatusSuccess};
  }
  return api_.HandleApi(api_id, args, *guest_mem_);
}

std::optional<uint32_t> MiniportHost::CallRole(EntryRole role,
                                               std::initializer_list<uint32_t> args) {
  uint32_t pc = EntryPc(role);
  if (pc == 0) {
    return std::nullopt;
  }
  return CallPc(pc, std::span<const uint32_t>(args.begin(), args.size()));
}

bool MiniportHost::Initialize() {
  if (!Load()) {
    return false;
  }
  auto status = CallRole(EntryRole::kInitialize, {kDriverHandle});
  if (!status || *status != kStatusSuccess) {
    RLOG_WARN("miniport initialize failed");
    return false;
  }
  initialized_ = true;
  DeliverInterrupts();
  return true;
}

std::optional<uint32_t> MiniportHost::SendFrame(const hw::Frame& frame) {
  if (!initialized_) {
    return std::nullopt;
  }
  ram_->WriteRamBytes(kFrameAddr, frame.data(), frame.size());
  ram_->WriteRam(kPacketAddr + 0, 4, kFrameAddr);
  ram_->WriteRam(kPacketAddr + 4, 4, static_cast<uint32_t>(frame.size()));
  auto status = CallRole(EntryRole::kSend, {api_.adapter_context(), kPacketAddr, /*flags=*/0});
  DeliverInterrupts();
  return status;
}

void MiniportHost::DeliverInterrupts() {
  if (EntryPc(EntryRole::kIsr) == 0) {
    return;
  }
  for (int round = 0; irq_pending_ && round < kMaxInterruptRounds; ++round) {
    auto recognized = CallRole(EntryRole::kIsr, {api_.adapter_context()});
    if (!recognized || *recognized == 0) {
      break;
    }
    CallRole(EntryRole::kHandleInterrupt, {api_.adapter_context()});
  }
}

std::optional<uint32_t> MiniportHost::Query(uint32_t oid, uint8_t* buf, uint32_t len) {
  ram_->WriteRam(kIoctlCountAddr, 4, 0);
  auto status = CallRole(EntryRole::kQueryInformation,
                         {api_.adapter_context(), oid, kIoctlBufAddr, len, kIoctlCountAddr});
  if (status && *status == kStatusSuccess && buf != nullptr) {
    ram_->ReadRamBytes(kIoctlBufAddr, buf, len);
  }
  return status;
}

bool MiniportHost::Set(uint32_t oid, const uint8_t* buf, uint32_t len) {
  if (buf != nullptr) {
    ram_->WriteRamBytes(kIoctlBufAddr, buf, len);
  }
  ram_->WriteRam(kIoctlCountAddr, 4, 0);
  auto status = CallRole(EntryRole::kSetInformation,
                         {api_.adapter_context(), oid, kIoctlBufAddr, len, kIoctlCountAddr});
  return status && *status == kStatusSuccess;
}

bool MiniportHost::SetPacketFilter(uint32_t filter_bits) {
  uint8_t buf[4];
  std::memcpy(buf, &filter_bits, 4);
  return Set(kOidGenCurrentPacketFilter, buf, 4);
}

bool MiniportHost::SetMulticastList(const std::vector<hw::MacAddr>& list) {
  std::vector<uint8_t> buf;
  for (const hw::MacAddr& m : list) {
    buf.insert(buf.end(), m.begin(), m.end());
  }
  return Set(kOid8023MulticastList, buf.data(), static_cast<uint32_t>(buf.size()));
}

std::optional<hw::MacAddr> MiniportHost::QueryMac() {
  uint8_t buf[6] = {};
  auto status = Query(kOid8023CurrentAddress, buf, 6);
  if (!status || *status != kStatusSuccess) {
    return std::nullopt;
  }
  hw::MacAddr mac;
  std::memcpy(mac.data(), buf, 6);
  return mac;
}

bool MiniportHost::Reset() {
  auto status = CallRole(EntryRole::kReset, {api_.adapter_context()});
  return status && *status == kStatusSuccess;
}

void MiniportHost::Halt() {
  if (initialized_) {
    CallRole(EntryRole::kHalt, {api_.adapter_context()});
    initialized_ = false;
  }
}

}  // namespace revnic::os
