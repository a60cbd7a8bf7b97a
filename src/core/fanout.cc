#include "core/fanout.h"

#include "core/result_codec.h"
#include "trace/serialize.h"

namespace revnic::core {
namespace {

// Payload magics so a swapped work/result payload fails loudly instead of
// misparsing (the RDP1 frame already carries type + checksum; this guards
// against coordinator-side mixups). FWK2 extends FWK1 with the batch job
// index and the context-key spelling of the snapshot handoff. FWR2 slots
// are RCP1 v3 bodies (core/result_codec.h), so an older FWR1 reply fails on
// its magic instead of misparsing.
constexpr uint32_t kWorkMagic = 0x324B5746;    // "FWK2"
constexpr uint32_t kResultMagic = 0x32525746;  // "FWR2"

}  // namespace

void SerializeFanoutWorkInto(uint32_t job, const FanoutTask& task,
                             const std::string& context_key,
                             const std::vector<uint8_t>& snapshot,
                             std::vector<uint8_t>* out) {
  trace::ByteWriter w(std::move(*out));
  w.U32(kWorkMagic);
  w.U32(job);
  w.U64(task.step);
  w.U32(task.sub_shard);
  w.U32(task.sub_shards);
  w.Str(context_key);
  w.U32(static_cast<uint32_t>(snapshot.size()));
  w.Raw(snapshot.data(), snapshot.size());
  *out = w.Take();
}

bool DeserializeFanoutWork(const std::vector<uint8_t>& bytes, uint32_t* job, FanoutTask* task,
                           std::string* context_key, std::vector<uint8_t>* snapshot,
                           std::string* error) {
  trace::ByteReader r(bytes);
  auto fail = [&](const char* what) {
    *error = what;
    return false;
  };
  uint32_t magic;
  if (!r.U32(&magic) || magic != kWorkMagic) {
    return fail("fanout work: bad magic");
  }
  uint32_t snapshot_len;
  if (!r.U32(job) || !r.U64(&task->step) || !r.U32(&task->sub_shard) ||
      !r.U32(&task->sub_shards) || !r.Str(context_key) || !r.U32(&snapshot_len)) {
    return fail("fanout work: truncated header");
  }
  if (snapshot_len != r.remaining()) {
    return fail("fanout work: bad snapshot length");
  }
  snapshot->resize(snapshot_len);
  if (!r.Raw(snapshot->data(), snapshot_len)) {
    return fail("fanout work: truncated snapshot");
  }
  return true;
}

std::vector<uint8_t> SerializeFanoutResult(const FanoutTaskResult& result) {
  trace::ByteWriter w;
  w.U32(kResultMagic);
  w.U64(result.root_count);
  w.U64(result.task_work);
  w.U64(result.replayed_work);
  w.U64(result.enum_work);
  w.U64(result.restore_failures);
  w.U32(static_cast<uint32_t>(result.slots.size()));
  for (const FanoutSlot& slot : result.slots) {
    w.U32(slot.ordinal);
    w.U8(slot.begun ? 1 : 0);
    if (slot.begun) {
      EncodeEngineResult(slot.result, kResultCodecVersion, &w);
    }
  }
  return w.Take();
}

bool DeserializeFanoutResult(const std::vector<uint8_t>& bytes, FanoutTaskResult* out,
                             std::string* error) {
  trace::ByteReader r(bytes);
  auto fail = [&](const char* what) {
    *error = what;
    return false;
  };
  uint32_t magic;
  if (!r.U32(&magic) || magic != kResultMagic) {
    return fail("fanout result: bad magic");
  }
  uint32_t slot_count;
  if (!r.U64(&out->root_count) || !r.U64(&out->task_work) || !r.U64(&out->replayed_work) ||
      !r.U64(&out->enum_work) || !r.U64(&out->restore_failures) || !r.U32(&slot_count)) {
    return fail("fanout result: truncated header");
  }
  if (slot_count > r.remaining()) {  // >= 1 byte per slot
    return fail("fanout result: implausible slot count");
  }
  out->slots.resize(slot_count);
  for (FanoutSlot& slot : out->slots) {
    uint8_t begun;
    if (!r.U32(&slot.ordinal) || !r.U8(&begun)) {
      return fail("fanout result: truncated slot");
    }
    slot.begun = begun != 0;
    if (slot.begun && !DecodeEngineResult(&r, kResultCodecVersion, &slot.result, error)) {
      return false;
    }
  }
  if (r.remaining() != 0) {
    return fail("fanout result: trailing bytes");
  }
  return true;
}

}  // namespace revnic::core
