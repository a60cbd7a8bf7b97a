#include "core/fanout.h"

#include "trace/serialize.h"
#include "util/bits.h"

namespace revnic::core {
namespace {

// Payload magics so a swapped work/result payload fails loudly instead of
// misparsing (the RDP1 frame already carries type + checksum; this guards
// against coordinator-side mixups). FWK2 extends FWK1 with the batch job
// index and the context-key spelling of the snapshot handoff (PR 10).
constexpr uint32_t kWorkMagic = 0x324B5746;    // "FWK2"
constexpr uint32_t kResultMagic = 0x31525746;  // "FWR1"

void PutU32Set(trace::ByteWriter& w, const std::set<uint32_t>& s) {
  w.U32(static_cast<uint32_t>(s.size()));
  for (uint32_t v : s) {
    w.U32(v);
  }
}

bool GetU32Set(trace::ByteReader& r, std::set<uint32_t>* out) {
  uint32_t n;
  if (!r.U32(&n) || n > r.remaining() / 4) {
    return false;
  }
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t v;
    if (!r.U32(&v)) {
      return false;
    }
    out->insert(v);
  }
  return true;
}

// Serializes the merge-relevant fields of one segment in RCP1 field order
// (core/session.cc SaveCheckpoint is the reference layout).
void PutSegment(trace::ByteWriter& w, const EngineResult& e) {
  trace::SerializeTo(e.bundle, &w);

  w.U32(static_cast<uint32_t>(e.entries.size()));
  for (const os::EntryPoint& ep : e.entries) {
    w.U8(static_cast<uint8_t>(ep.role));
    w.U32(ep.pc);
    w.U32(ep.timer_context);
  }

  PutU32Set(w, e.covered_blocks);

  w.U32(static_cast<uint32_t>(e.timeline.size()));
  for (const CoverageSample& s : e.timeline) {
    w.U64(s.work);
    w.U64(s.covered_blocks);
    w.U64(s.faults);
  }

  const EngineStats& es = e.stats;
  for (uint64_t v : {es.work, es.states_created, es.states_killed_polling,
                     es.states_killed_error, es.entry_completions, es.irqs_injected,
                     es.api_calls, es.api_skipped}) {
    w.U64(v);
  }
  const symex::SolverStats& ss = e.solver_stats;
  for (uint64_t v : {ss.queries, ss.sat, ss.unsat, ss.unknown, ss.cache_hits, ss.cache_misses,
                     ss.components, ss.shelf_hits, ss.evals}) {
    w.U64(v);
  }
  const symex::ExecutorStats& xs = e.executor_stats;
  for (uint64_t v : {xs.blocks, xs.instrs, xs.forks, xs.concretizations}) {
    w.U64(v);
  }
  const perf::SubstrateCounters& sc = e.substrate;
  for (uint64_t v : {sc.solver_queries, sc.solver_cache_hits, sc.solver_cache_misses,
                     sc.solver_shelf_hits, sc.intern_hits, sc.intern_misses, sc.intern_size,
                     sc.dbt_cache_hits, sc.dbt_cache_misses}) {
    w.U64(v);
  }
  const hw::FaultStats& fs = e.fault_stats;
  for (uint64_t v : {fs.decisions, fs.irq_dropped, fs.irq_duplicated, fs.irq_delayed,
                     fs.dma_read_stalls, fs.dma_write_drops, fs.bus_errors, fs.reg_corruptions,
                     fs.frames_truncated, fs.frames_oversized}) {
    w.U64(v);
  }

  w.U32(static_cast<uint32_t>(e.call_counts.size()));
  for (const auto& [pc, count] : e.call_counts) {
    w.U32(pc);
    w.U64(count);
  }
  w.U64(e.functions_modeled);
  PutU32Set(w, e.apis_used);
  w.U8(e.cancelled ? 1 : 0);
}

bool GetSegment(trace::ByteReader& r, EngineResult* e, std::string* error) {
  auto fail = [&](const char* what) {
    *error = what;
    return false;
  };
  if (!trace::DeserializeFrom(&r, &e->bundle, error)) {
    return false;
  }

  uint32_t n;
  if (!r.U32(&n) || n > r.remaining() / 9) {
    return fail("fanout segment: bad entry table");
  }
  e->entries.resize(n);
  for (os::EntryPoint& ep : e->entries) {
    uint8_t role;
    if (!r.U8(&role) || !r.U32(&ep.pc) || !r.U32(&ep.timer_context)) {
      return fail("fanout segment: truncated entry point");
    }
    ep.role = static_cast<os::EntryRole>(role);
  }

  if (!GetU32Set(r, &e->covered_blocks)) {
    return fail("fanout segment: truncated coverage");
  }

  if (!r.U32(&n) || n > r.remaining() / 24) {
    return fail("fanout segment: bad timeline count");
  }
  e->timeline.resize(n);
  for (CoverageSample& s : e->timeline) {
    uint64_t covered;
    if (!r.U64(&s.work) || !r.U64(&covered) || !r.U64(&s.faults)) {
      return fail("fanout segment: truncated coverage sample");
    }
    s.covered_blocks = static_cast<size_t>(covered);
  }

  EngineStats& es = e->stats;
  symex::SolverStats& ss = e->solver_stats;
  symex::ExecutorStats& xs = e->executor_stats;
  perf::SubstrateCounters& sc = e->substrate;
  hw::FaultStats& fs = e->fault_stats;
  uint64_t* counters[] = {
      &es.work,          &es.states_created,     &es.states_killed_polling,
      &es.states_killed_error, &es.entry_completions, &es.irqs_injected,
      &es.api_calls,     &es.api_skipped,
      &ss.queries,       &ss.sat,                &ss.unsat,
      &ss.unknown,       &ss.cache_hits,         &ss.cache_misses,
      &ss.components,    &ss.shelf_hits,         &ss.evals,
      &xs.blocks,        &xs.instrs,             &xs.forks,
      &xs.concretizations,
      &sc.solver_queries, &sc.solver_cache_hits, &sc.solver_cache_misses,
      &sc.solver_shelf_hits, &sc.intern_hits,    &sc.intern_misses,
      &sc.intern_size,   &sc.dbt_cache_hits,     &sc.dbt_cache_misses,
      &fs.decisions,     &fs.irq_dropped,        &fs.irq_duplicated,
      &fs.irq_delayed,   &fs.dma_read_stalls,    &fs.dma_write_drops,
      &fs.bus_errors,    &fs.reg_corruptions,    &fs.frames_truncated,
      &fs.frames_oversized};
  for (uint64_t* v : counters) {
    if (!r.U64(v)) {
      return fail("fanout segment: truncated counters");
    }
  }
  // Same invariant as RCP1 load: the substrate's fault fields are
  // projections of FaultStats, derived rather than stored.
  sc.fault_decisions = fs.decisions;
  sc.faults_injected = fs.TotalInjected();

  if (!r.U32(&n)) {
    return fail("fanout segment: truncated call counts");
  }
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t pc;
    uint64_t count;
    if (!r.U32(&pc) || !r.U64(&count)) {
      return fail("fanout segment: truncated call count");
    }
    e->call_counts[pc] = count;
  }
  uint8_t cancelled;
  if (!r.U64(&e->functions_modeled) || !GetU32Set(r, &e->apis_used) || !r.U8(&cancelled)) {
    return fail("fanout segment: truncated tail");
  }
  e->cancelled = cancelled != 0;
  return true;
}

}  // namespace

void SerializeFanoutWorkInto(uint32_t job, const FanoutTask& task,
                             const std::string& context_key,
                             const std::vector<uint8_t>& snapshot,
                             std::vector<uint8_t>* out) {
  out->clear();
  auto u32 = [out](uint32_t v) {
    const size_t n = out->size();
    out->resize(n + 4);
    StoreLE(out->data() + n, v, 4);
  };
  auto u64 = [&u32](uint64_t v) {
    u32(static_cast<uint32_t>(v));
    u32(static_cast<uint32_t>(v >> 32));
  };
  u32(kWorkMagic);
  u32(job);
  u64(task.step);
  u32(task.sub_shard);
  u32(task.sub_shards);
  u32(static_cast<uint32_t>(context_key.size()));
  out->insert(out->end(), context_key.begin(), context_key.end());
  u32(static_cast<uint32_t>(snapshot.size()));
  out->insert(out->end(), snapshot.begin(), snapshot.end());
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
      PutSegment(w, slot.result);
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
    if (slot.begun && !GetSegment(r, &slot.result, error)) {
      return false;
    }
  }
  if (r.remaining() != 0) {
    return fail("fanout result: trailing bytes");
  }
  return true;
}

}  // namespace revnic::core
