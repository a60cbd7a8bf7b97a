#include "core/result_codec.h"

#include <array>

namespace revnic::core {
namespace {

// The substrate counters on the wire. fault_decisions / faults_injected are
// projections of FaultStats, derived at decode instead of stored twice.
constexpr std::array<uint64_t perf::SubstrateCounters::*, 9> kSubstrateWireFields = {
    &perf::SubstrateCounters::solver_queries,    &perf::SubstrateCounters::solver_cache_hits,
    &perf::SubstrateCounters::solver_cache_misses, &perf::SubstrateCounters::solver_shelf_hits,
    &perf::SubstrateCounters::intern_hits,       &perf::SubstrateCounters::intern_misses,
    &perf::SubstrateCounters::intern_size,       &perf::SubstrateCounters::dbt_cache_hits,
    &perf::SubstrateCounters::dbt_cache_misses};

constexpr size_t kEntryBytes = 9;
constexpr size_t kCallCountBytes = 12;

}  // namespace

void EncodeEntries(const std::vector<os::EntryPoint>& entries, trace::ByteWriter* w) {
  w->U32(static_cast<uint32_t>(entries.size()));
  for (const os::EntryPoint& ep : entries) {
    w->U8(static_cast<uint8_t>(ep.role));
    w->U32(ep.pc);
    w->U32(ep.timer_context);
  }
}

bool DecodeEntries(trace::ByteReader* r, std::vector<os::EntryPoint>* entries) {
  uint32_t n;
  if (!r->U32(&n) || n > r->remaining() / kEntryBytes) {
    return false;
  }
  entries->resize(n);
  for (os::EntryPoint& ep : *entries) {
    uint8_t role;
    if (!r->U8(&role) || role > static_cast<uint8_t>(os::EntryRole::kTimer) ||
        !r->U32(&ep.pc) || !r->U32(&ep.timer_context)) {
      return false;
    }
    ep.role = static_cast<os::EntryRole>(role);
  }
  return true;
}

void EncodeEngineResult(const EngineResult& e, uint32_t version, trace::ByteWriter* w) {
  const bool v3 = version >= kResultCodecVersion;
  trace::SerializeTo(e.bundle, w);
  EncodeEntries(e.entries, w);
  w->U32Set(e.covered_blocks);
  w->U64(e.static_blocks);

  w->U32(static_cast<uint32_t>(e.timeline.size()));
  for (const CoverageSample& s : e.timeline) {
    w->U64(s.work);
    w->U64(s.covered_blocks);
    if (v3) {
      w->U64(s.faults);
    }
  }

  w->U64Fields(e.stats);
  w->U64Fields(e.solver_stats);
  w->U64Fields(e.executor_stats);
  for (auto field : kSubstrateWireFields) {
    w->U64(e.substrate.*field);
  }
  if (v3) {
    w->U64Fields(e.fault_stats);
  }

  w->U32(static_cast<uint32_t>(e.call_counts.size()));
  for (const auto& [pc, count] : e.call_counts) {
    w->U32(pc);
    w->U64(count);
  }
  w->U64(e.functions_modeled);
  w->U32Set(e.apis_used);
  w->U8(e.cancelled ? 1 : 0);
  if (version >= kResultCodecV2) {
    w->U8(e.final_snapshot.empty() ? 0 : 1);
    if (!e.final_snapshot.empty()) {
      w->U32(static_cast<uint32_t>(e.final_snapshot.size()));
      w->Raw(e.final_snapshot.data(), e.final_snapshot.size());
    }
  }
}

bool DecodeEngineResult(trace::ByteReader* r, uint32_t version, EngineResult* e,
                        std::string* error) {
  auto fail = [error](const char* what) {
    *error = what;
    return false;
  };
  const bool v3 = version >= kResultCodecVersion;
  if (!trace::DeserializeFrom(r, &e->bundle, error)) {
    return false;
  }
  if (!DecodeEntries(r, &e->entries)) {
    return fail("bad entry table");
  }
  uint64_t static_blocks;
  if (!r->U32Set(&e->covered_blocks) || !r->U64(&static_blocks)) {
    return fail("truncated coverage");
  }
  e->static_blocks = static_cast<size_t>(static_blocks);

  uint32_t n;
  const size_t sample_bytes = v3 ? 24 : 16;
  if (!r->U32(&n) || n > r->remaining() / sample_bytes) {
    return fail("bad timeline count");
  }
  e->timeline.resize(n);
  for (CoverageSample& s : e->timeline) {
    uint64_t covered;
    if (!r->U64(&s.work) || !r->U64(&covered) || (v3 && !r->U64(&s.faults))) {
      return fail("truncated coverage sample");
    }
    s.covered_blocks = static_cast<size_t>(covered);
  }

  perf::SubstrateCounters& sc = e->substrate;
  if (!r->U64Fields(&e->stats) || !r->U64Fields(&e->solver_stats) ||
      !r->U64Fields(&e->executor_stats)) {
    return fail("truncated counters");
  }
  for (auto field : kSubstrateWireFields) {
    if (!r->U64(&(sc.*field))) {
      return fail("truncated counters");
    }
  }
  if (v3 && !r->U64Fields(&e->fault_stats)) {
    return fail("truncated fault stats");
  }
  sc.fault_decisions = e->fault_stats.decisions;
  sc.faults_injected = e->fault_stats.TotalInjected();

  if (!r->U32(&n) || n > r->remaining() / kCallCountBytes) {
    return fail("bad call-count table");
  }
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t pc;
    uint64_t count;
    if (!r->U32(&pc) || !r->U64(&count)) {
      return fail("truncated call count");
    }
    e->call_counts[pc] = count;
  }
  uint8_t cancelled;
  if (!r->U64(&e->functions_modeled) || !r->U32Set(&e->apis_used) || !r->U8(&cancelled)) {
    return fail("truncated result tail");
  }
  e->cancelled = cancelled != 0;
  if (version >= kResultCodecV2) {
    uint8_t has_snapshot;
    if (!r->U8(&has_snapshot)) {
      return fail("truncated snapshot flag");
    }
    if (has_snapshot != 0) {
      uint32_t size;
      if (!r->U32(&size) || size > r->remaining()) {
        return fail("bad snapshot section size");
      }
      e->final_snapshot.resize(size);
      if (!r->Raw(e->final_snapshot.data(), size)) {
        return fail("truncated snapshot section");
      }
    }
  }
  return true;
}

}  // namespace revnic::core
