#include "os/winsim.h"

#include "util/log.h"
#include "util/strings.h"

namespace revnic::os {

const char* EntryRoleName(EntryRole role) {
  switch (role) {
    case EntryRole::kInitialize:
      return "initialize";
    case EntryRole::kIsr:
      return "isr";
    case EntryRole::kHandleInterrupt:
      return "handle_interrupt";
    case EntryRole::kSend:
      return "send";
    case EntryRole::kQueryInformation:
      return "query_information";
    case EntryRole::kSetInformation:
      return "set_information";
    case EntryRole::kReset:
      return "reset";
    case EntryRole::kHalt:
      return "halt";
    case EntryRole::kShutdown:
      return "shutdown";
    case EntryRole::kTimer:
      return "timer";
  }
  return "?";
}

void WinSim::LoadDriver(const isa::Image& image, vm::MemoryMap* mm) {
  mm->WriteRamBytes(image.code_begin(), image.code.data(), image.code.size());
  mm->WriteRamBytes(image.data_begin(), image.data.data(), image.data.size());
  for (uint32_t a = image.data_end(); a < image.bss_end(); a += 4) {
    mm->WriteRam(a, 4, 0);
  }
}

uint32_t WinSim::EntryPc(EntryRole role) const {
  for (const EntryPoint& e : entries_) {
    if (e.role == role) {
      return e.pc;
    }
  }
  return 0;
}

void WinSim::ResetRuntimeState() {
  registered_ = false;
  entries_.clear();
  adapter_context_ = 0;
  heap_next_ = kHeapBase;
  dma_next_ = kDmaBase;
  timers_.clear();
  counters_ = WinSimCounters{};
  rx_delivered_.clear();
  api_usage_.clear();
  dma_.Clear();
}

WinSim::Snapshot WinSim::SnapshotState() const {
  Snapshot snap;
  snap.registered = registered_;
  snap.entries = entries_;
  snap.adapter_context = adapter_context_;
  snap.heap_next = heap_next_;
  snap.dma_next = dma_next_;
  snap.timers = timers_;
  snap.config = config_;
  snap.counters = counters_;
  snap.rx_delivered = rx_delivered_;
  snap.api_usage = api_usage_;
  snap.dma_regions = dma_.Regions();
  return snap;
}

void WinSim::RestoreState(Snapshot snap) {
  registered_ = snap.registered;
  entries_ = std::move(snap.entries);
  adapter_context_ = snap.adapter_context;
  heap_next_ = snap.heap_next;
  dma_next_ = snap.dma_next;
  timers_ = std::move(snap.timers);
  config_ = std::move(snap.config);
  counters_ = snap.counters;
  rx_delivered_ = std::move(snap.rx_delivered);
  api_usage_ = std::move(snap.api_usage);
  dma_.Clear();
  for (const auto& [begin, end] : snap.dma_regions) {
    dma_.Register(begin, end - begin);
  }
}

uint32_t WinSim::AllocHeap(uint32_t size) {
  uint32_t addr = (heap_next_ + 15) & ~15u;
  heap_next_ = addr + size;
  return addr;
}

uint32_t WinSim::AllocDma(uint32_t size) {
  uint32_t addr = (dma_next_ + 63) & ~63u;
  dma_next_ = addr + size;
  return addr;
}

ApiOutcome WinSim::HandleApi(uint32_t id, const std::vector<uint32_t>& args, GuestMem& mem) {
  ApiOutcome out;
  ++api_usage_[id];
  auto arg = [&](unsigned i) -> uint32_t { return i < args.size() ? args[i] : 0; };

  switch (id) {
    case kNdisMRegisterMiniport: {
      uint32_t chars = arg(0);
      static constexpr struct {
        EntryRole role;
        unsigned offset;
      } kSlots[] = {
          {EntryRole::kInitialize, kCharsInitialize},
          {EntryRole::kIsr, kCharsIsr},
          {EntryRole::kHandleInterrupt, kCharsHandleInterrupt},
          {EntryRole::kSend, kCharsSend},
          {EntryRole::kQueryInformation, kCharsQueryInformation},
          {EntryRole::kSetInformation, kCharsSetInformation},
          {EntryRole::kReset, kCharsReset},
          {EntryRole::kHalt, kCharsHalt},
          {EntryRole::kShutdown, kCharsShutdown},
      };
      entries_.clear();
      for (const auto& slot : kSlots) {
        uint32_t pc = mem.Read(chars + slot.offset, 4);
        if (pc != 0) {
          entries_.push_back({slot.role, pc, 0});
        }
      }
      registered_ = true;
      RLOG_INFO("WinSim: miniport registered with %zu entry points", entries_.size());
      out.ret = kStatusSuccess;
      break;
    }
    case kNdisMSetAttributes:
      adapter_context_ = arg(0);
      out.ret = kStatusSuccess;
      break;
    case kNdisMRegisterInterrupt:
      out.ret = arg(0) == pci_.irq_line ? kStatusSuccess : kStatusFailure;
      break;
    case kNdisMDeregisterInterrupt:
      out.ret = kStatusSuccess;
      break;
    case kNdisMRegisterShutdownHandler:
      // The shutdown entry usually also arrives via the characteristics
      // table; accept the dynamic registration too.
      if (arg(0) != 0) {
        entries_.push_back({EntryRole::kShutdown, arg(0), 0});
      }
      out.ret = kStatusSuccess;
      break;
    case kNdisMDeregisterShutdownHandler:
      out.ret = kStatusSuccess;
      break;
    case kNdisAllocateMemory: {
      uint32_t ptr = AllocHeap(arg(1));
      mem.Write(arg(0), 4, ptr);
      out.ret = kStatusSuccess;
      break;
    }
    case kNdisFreeMemory:
      out.ret = kStatusSuccess;  // bump allocator: no-op
      break;
    case kNdisMAllocateSharedMemory: {
      uint32_t size = arg(0);
      uint32_t va = AllocDma(size);
      mem.Write(arg(1), 4, va);
      mem.Write(arg(2), 4, va);  // identity-mapped physical address
      dma_.Register(va, size);
      out.ret = kStatusSuccess;
      break;
    }
    case kNdisMFreeSharedMemory:
      out.ret = kStatusSuccess;
      break;
    case kNdisZeroMemory: {
      mem.Zero(arg(0), arg(1));
      counters_.bytes_moved += arg(1);
      out.ret = kStatusSuccess;
      break;
    }
    case kNdisMoveMemory: {
      mem.Copy(arg(0), arg(1), arg(2));
      counters_.bytes_moved += arg(2);
      out.ret = kStatusSuccess;
      break;
    }
    case kNdisMMapIoSpace:
      mem.Write(arg(0), 4, arg(1));  // identity mapping
      out.ret = kStatusSuccess;
      break;
    case kNdisMUnmapIoSpace:
      out.ret = kStatusSuccess;
      break;
    case kNdisMRegisterIoPortRange:
      mem.Write(arg(0), 4, arg(1));
      out.ret = kStatusSuccess;
      break;
    case kNdisMDeregisterIoPortRange:
      out.ret = kStatusSuccess;
      break;
    case kNdisReadPciSlotInformation: {
      uint32_t offset = arg(0);
      uint32_t buf = arg(1);
      uint32_t len = arg(2);
      for (uint32_t i = 0; i < len; ++i) {
        uint32_t cfg_off = offset + i;
        uint8_t byte = 0;
        switch (cfg_off) {
          case 0x00: byte = static_cast<uint8_t>(pci_.vendor_id); break;
          case 0x01: byte = static_cast<uint8_t>(pci_.vendor_id >> 8); break;
          case 0x02: byte = static_cast<uint8_t>(pci_.device_id); break;
          case 0x03: byte = static_cast<uint8_t>(pci_.device_id >> 8); break;
          case 0x10: byte = static_cast<uint8_t>(pci_.io_base | 1); break;
          case 0x11: byte = static_cast<uint8_t>(pci_.io_base >> 8); break;
          case 0x12: byte = static_cast<uint8_t>(pci_.io_base >> 16); break;
          case 0x13: byte = static_cast<uint8_t>(pci_.io_base >> 24); break;
          case 0x14: byte = static_cast<uint8_t>(pci_.mmio_base); break;
          case 0x15: byte = static_cast<uint8_t>(pci_.mmio_base >> 8); break;
          case 0x16: byte = static_cast<uint8_t>(pci_.mmio_base >> 16); break;
          case 0x17: byte = static_cast<uint8_t>(pci_.mmio_base >> 24); break;
          case 0x3C: byte = pci_.irq_line; break;
          default: byte = 0; break;
        }
        mem.Write(buf + i, 1, byte);
      }
      out.ret = len;
      break;
    }
    case kNdisWritePciSlotInformation:
      out.ret = arg(2);
      break;
    case kNdisOpenConfiguration:
      mem.Write(arg(0), 4, 0xC0F16000);  // opaque handle
      out.ret = kStatusSuccess;
      break;
    case kNdisReadConfiguration: {
      auto it = config_.find(arg(1));
      if (it == config_.end()) {
        out.ret = kStatusFailure;
      } else {
        mem.Write(arg(2), 4, it->second);
        out.ret = kStatusSuccess;
      }
      break;
    }
    case kNdisCloseConfiguration:
      out.ret = kStatusSuccess;
      break;
    case kNdisInitializeTimer: {
      timers_.push_back({arg(0), arg(1), false});
      entries_.push_back({EntryRole::kTimer, arg(0), arg(1)});
      out.ret = static_cast<uint32_t>(timers_.size() - 1);
      break;
    }
    case kNdisSetTimer: {
      uint32_t idx = arg(0);
      if (idx < timers_.size()) {
        timers_[idx].pending = true;
      }
      out.ret = kStatusSuccess;
      break;
    }
    case kNdisCancelTimer: {
      uint32_t idx = arg(0);
      if (idx < timers_.size()) {
        timers_[idx].pending = false;
      }
      out.ret = kStatusSuccess;
      break;
    }
    case kNdisStallExecution:
    case kNdisMSleep:
      counters_.stall_micros += arg(0);
      out.ret = kStatusSuccess;
      break;
    case kNdisMEthIndicateReceive: {
      uint32_t buf = arg(0);
      uint32_t len = arg(1);
      hw::Frame f;
      f.reserve(len);
      for (uint32_t i = 0; i < len && i < hw::kEthMaxFrame; ++i) {
        f.push_back(static_cast<uint8_t>(mem.Read(buf + i, 1)));
      }
      rx_delivered_.push_back(std::move(f));
      ++counters_.rx_indicated;
      out.ret = kStatusSuccess;
      break;
    }
    case kNdisMEthIndicateReceiveComplete:
      out.ret = kStatusSuccess;
      break;
    case kNdisMSendComplete:
      ++counters_.send_completes;
      out.ret = kStatusSuccess;
      break;
    case kNdisMSendResourcesAvailable:
      out.ret = kStatusSuccess;
      break;
    case kNdisAllocateSpinLock:
    case kNdisAcquireSpinLock:
    case kNdisReleaseSpinLock:
    case kNdisFreeSpinLock:
      // Single-CPU guest: locks are accounting-only.
      out.ret = kStatusSuccess;
      break;
    case kNdisMSynchronizeWithInterrupt:
      out.effect = ApiEffect::kCallGuestFunction;
      out.callback_pc = arg(0);
      out.callback_arg = arg(1);
      out.ret = kStatusSuccess;
      break;
    case kNdisWriteErrorLogEntry:
      ++counters_.error_logs;
      out.ret = kStatusSuccess;
      break;
    case kNdisMIndicateStatus:
    case kNdisMIndicateStatusComplete:
      ++counters_.status_indications;
      out.ret = kStatusSuccess;
      break;
    case kNdisGetCurrentSystemTime:
      mem.Write(arg(0), 4, 0x5F5E100);  // deterministic "now"
      mem.Write(arg(0) + 4, 4, 0);
      out.ret = kStatusSuccess;
      break;
    case kNdisInterlockedIncrement: {
      uint32_t v = mem.Read(arg(0), 4) + 1;
      mem.Write(arg(0), 4, v);
      out.ret = v;
      break;
    }
    case kNdisInterlockedDecrement: {
      uint32_t v = mem.Read(arg(0), 4) - 1;
      mem.Write(arg(0), 4, v);
      out.ret = v;
      break;
    }
    case kNdisMQueryAdapterResources:
      mem.Write(arg(0), 4, pci_.io_base != 0 ? pci_.io_base : pci_.mmio_base);
      mem.Write(arg(0) + 4, 4, pci_.irq_line);
      out.ret = kStatusSuccess;
      break;
    case kNdisReadNetworkAddress:
      out.ret = kStatusFailure;  // no registry override by default
      break;
    default:
      RLOG_WARN("WinSim: unknown API id %u", id);
      out.ret = kStatusNotSupported;
      break;
  }
  return out;
}

}  // namespace revnic::os
