#include "core/session.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "synth/emit.h"
#include "synth/passes.h"
#include "trace/serialize.h"

namespace revnic::core {

namespace {

constexpr uint32_t kCheckpointMagic = 0x31504352;  // "RCP1"
// Version history: 1 = PR 2 layout; 2 = v1 + optional final-state snapshot
// section; 3 = v2 + per-sample fault counts in the timeline and a FaultStats
// block after the substrate counters. The loader accepts all three (the
// ROADMAP's version-lock note asked for a backward-compat shim on format
// changes); pre-v3 blobs load with zeroed fault counters.
constexpr uint32_t kCheckpointVersionV1 = 1;
constexpr uint32_t kCheckpointVersionV2 = 2;
constexpr uint32_t kCheckpointVersion = 3;

void PutU32Set(trace::ByteWriter& w, const std::set<uint32_t>& s) {
  w.U32(static_cast<uint32_t>(s.size()));
  for (uint32_t v : s) {
    w.U32(v);
  }
}

bool GetU32Set(trace::ByteReader& r, std::set<uint32_t>* s) {
  uint32_t n;
  if (!r.U32(&n)) {
    return false;
  }
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t v;
    if (!r.U32(&v)) {
      return false;
    }
    s->insert(v);
  }
  return true;
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kCreated:
      return "created";
    case Stage::kExercised:
      return "exercised";
    case Stage::kCfgRecovered:
      return "cfg-recovered";
    case Stage::kSynthesized:
      return "synthesized";
    case Stage::kEmitted:
      return "emitted";
  }
  return "?";
}

Session::Session(const isa::Image& image, EngineConfig config)
    : image_(image), config_(std::move(config)) {}

Session::~Session() = default;

bool Session::Fail(std::string message) {
  error_ = std::move(message);
  return false;
}

bool Session::set_emit_options(EmitOptions options) {
  if (stage_ >= Stage::kCfgRecovered) {
    return false;  // the pass pipeline already ran with the old options
  }
  if (options.targets.empty()) {
    options.targets = {os::TargetOs::kWindows};
  }
  emit_options_ = std::move(options);
  return true;
}

void Session::NotifyStage(Stage completed) {
  if (observer_.on_stage) {
    observer_.on_stage(completed);
  }
}

bool Session::Exercise() {
  if (stage_ >= Stage::kExercised) {
    return true;
  }
  if (!image_.has_value()) {
    return Fail("Exercise(): session has no image (resumed from a checkpoint)");
  }
  // Thread the observer through the engine config, chaining with any
  // callbacks the caller already installed there.
  EngineConfig cfg = config_;
  if (observer_.on_coverage) {
    auto chained = cfg.on_coverage;
    auto mine = observer_.on_coverage;
    cfg.on_coverage = [chained, mine](const CoverageSample& s) {
      if (chained) {
        chained(s);
      }
      mine(s);
    };
  }
  if (observer_.cancel) {
    auto chained = cfg.cancel;
    auto mine = observer_.cancel;
    cfg.cancel = [chained, mine] { return (chained && chained()) || mine(); };
  }
  Engine engine(*image_, cfg);
  engine_ = engine.Run();
  stage_ = Stage::kExercised;
  NotifyStage(stage_);
  return true;
}

bool Session::RecoverCfg() {
  if (stage_ >= Stage::kCfgRecovered) {
    return true;
  }
  if (!Exercise()) {
    return false;
  }
  synth::PipelineOptions options;
  options.cleanup = emit_options_.cleanup_passes;
  options.verify_between = true;
  std::string pass_error;
  module_ = synth::RunSynthesisPipeline(engine_.bundle, engine_.entries, options,
                                        &synth_stats_, &pass_error);
  if (!pass_error.empty()) {
    return Fail("synthesis pass pipeline: " + pass_error);
  }
  stage_ = Stage::kCfgRecovered;
  NotifyStage(stage_);
  return true;
}

bool Session::Synthesize() {
  if (stage_ >= Stage::kSynthesized) {
    return true;
  }
  if (!RecoverCfg()) {
    return false;
  }
  emitted_.clear();
  emission_stats_.clear();
  // One core render shared by every requested backend.
  for (auto& [target, te] :
       synth::EmitForTargets(module_, emit_options_.targets, emit_options_.render)) {
    emission_stats_[target] = te.stats;
    emitted_[target] = std::move(te.source);
  }
  c_source_ = emitted_.at(emit_options_.targets.front());
  stage_ = Stage::kSynthesized;
  NotifyStage(stage_);
  return true;
}

bool Session::Emit() {
  if (stage_ >= Stage::kEmitted) {
    return true;
  }
  if (!Synthesize()) {
    return false;
  }
  runtime_header_ = synth::RuntimeHeader();
  stage_ = Stage::kEmitted;
  NotifyStage(stage_);
  return true;
}

PipelineResult Session::TakeResult() {
  PipelineResult result;
  result.engine = std::move(engine_);
  result.module = std::move(module_);
  result.synth_stats = std::move(synth_stats_);
  result.c_source = std::move(c_source_);
  result.runtime_header = std::move(runtime_header_);
  result.emitted = std::move(emitted_);
  result.emission_stats = std::move(emission_stats_);
  return result;
}

bool Session::WriteOutputs(const std::string& dir, std::string* error) {
  if (!Emit()) {
    *error = error_;
    return false;
  }
  struct Out {
    std::string name;
    const std::string* text;
  };
  std::vector<Out> outs = {{"driver.c", &c_source_}, {"revnic_runtime.h", &runtime_header_}};
  for (const auto& [target, source] : emitted_) {
    outs.push_back({synth::TargetFileName(target), &source});
  }
  for (const Out& o : outs) {
    std::string path = dir + "/" + o.name;
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) {
      *error = "cannot open " + path;
      return false;
    }
    size_t written = fwrite(o.text->data(), 1, o.text->size(), f);
    bool closed = fclose(f) == 0;
    if (written != o.text->size() || !closed) {
      *error = "short write to " + path;
      return false;
    }
  }
  return true;
}

// ---- checkpoint format ----
//
// "RCP1" | version | label | TraceBundle | entries | coverage | timeline |
// engine/solver/executor/substrate counters | (v3) fault counters | call
// counts | apis | flags | (v2+) optional final-state "RSS1" snapshot.
// v3 timeline samples are 24 bytes (work, covered, faults); earlier are 16.
// Everything the downstream stages and run reports consume; downstream
// output depends only on the bundle + entry table, so resume reproduces
// straight-through results byte-for-byte.

std::vector<uint8_t> Session::SaveCheckpoint(bool legacy_v1) const {
  if (stage_ < Stage::kExercised) {
    return {};  // nothing to checkpoint; LoadCheckpoint rejects the empty blob
  }
  trace::ByteWriter w;
  w.U32(kCheckpointMagic);
  w.U32(legacy_v1 ? kCheckpointVersionV1 : kCheckpointVersion);
  w.Str(label_);
  trace::SerializeTo(engine_.bundle, &w);

  w.U32(static_cast<uint32_t>(engine_.entries.size()));
  for (const os::EntryPoint& e : engine_.entries) {
    w.U8(static_cast<uint8_t>(e.role));
    w.U32(e.pc);
    w.U32(e.timer_context);
  }

  PutU32Set(w, engine_.covered_blocks);
  w.U64(engine_.static_blocks);

  w.U32(static_cast<uint32_t>(engine_.timeline.size()));
  for (const CoverageSample& s : engine_.timeline) {
    w.U64(s.work);
    w.U64(s.covered_blocks);
    if (!legacy_v1) {
      w.U64(s.faults);
    }
  }

  const EngineStats& es = engine_.stats;
  for (uint64_t v : {es.work, es.states_created, es.states_killed_polling,
                     es.states_killed_error, es.entry_completions, es.irqs_injected,
                     es.api_calls, es.api_skipped}) {
    w.U64(v);
  }
  const symex::SolverStats& ss = engine_.solver_stats;
  for (uint64_t v : {ss.queries, ss.sat, ss.unsat, ss.unknown, ss.cache_hits, ss.cache_misses,
                     ss.components, ss.shelf_hits, ss.evals}) {
    w.U64(v);
  }
  const symex::ExecutorStats& xs = engine_.executor_stats;
  for (uint64_t v : {xs.blocks, xs.instrs, xs.forks, xs.concretizations}) {
    w.U64(v);
  }
  const perf::SubstrateCounters& sc = engine_.substrate;
  for (uint64_t v : {sc.solver_queries, sc.solver_cache_hits, sc.solver_cache_misses,
                     sc.solver_shelf_hits, sc.intern_hits, sc.intern_misses, sc.intern_size,
                     sc.dbt_cache_hits, sc.dbt_cache_misses}) {
    w.U64(v);
  }
  if (!legacy_v1) {
    // v3: fault-injection counters (the substrate's fault_decisions /
    // faults_injected are derived from these at load, not stored twice).
    const hw::FaultStats& fs = engine_.fault_stats;
    for (uint64_t v : {fs.decisions, fs.irq_dropped, fs.irq_duplicated, fs.irq_delayed,
                       fs.dma_read_stalls, fs.dma_write_drops, fs.bus_errors,
                       fs.reg_corruptions, fs.frames_truncated, fs.frames_oversized}) {
      w.U64(v);
    }
  }

  w.U32(static_cast<uint32_t>(engine_.call_counts.size()));
  for (const auto& [pc, count] : engine_.call_counts) {
    w.U32(pc);
    w.U64(count);
  }
  w.U64(engine_.functions_modeled);
  PutU32Set(w, engine_.apis_used);
  w.U8(engine_.cancelled ? 1 : 0);
  if (!legacy_v1) {
    w.U8(engine_.final_snapshot.empty() ? 0 : 1);
    if (!engine_.final_snapshot.empty()) {
      w.U32(static_cast<uint32_t>(engine_.final_snapshot.size()));
      w.Raw(engine_.final_snapshot.data(), engine_.final_snapshot.size());
    }
  }
  return w.Take();
}

std::unique_ptr<Session> Session::LoadCheckpoint(const std::vector<uint8_t>& bytes,
                                                 std::string* error) {
  trace::ByteReader r(bytes);
  auto fail = [&](const char* what) {
    *error = what;
    return nullptr;
  };
  uint32_t magic, version;
  if (!r.U32(&magic) || magic != kCheckpointMagic) {
    return fail("bad checkpoint magic");
  }
  if (!r.U32(&version) || (version != kCheckpointVersionV1 &&
                           version != kCheckpointVersionV2 && version != kCheckpointVersion)) {
    return fail("unsupported checkpoint version");
  }
  std::unique_ptr<Session> s(new Session());
  if (!r.Str(&s->label_)) {
    return fail("truncated label");
  }
  EngineResult& e = s->engine_;
  if (!trace::DeserializeFrom(&r, &e.bundle, error)) {
    return nullptr;
  }

  uint32_t n;
  if (!r.U32(&n)) {
    return fail("truncated entry table");
  }
  if (n > r.remaining() / 9) {  // 9 bytes per serialized entry point
    return fail("implausible entry count");
  }
  e.entries.resize(n);
  for (os::EntryPoint& ep : e.entries) {
    uint8_t role;
    if (!r.U8(&role) || !r.U32(&ep.pc) || !r.U32(&ep.timer_context)) {
      return fail("truncated entry point");
    }
    ep.role = static_cast<os::EntryRole>(role);
  }

  uint64_t static_blocks;
  if (!GetU32Set(r, &e.covered_blocks) || !r.U64(&static_blocks)) {
    return fail("truncated coverage");
  }
  e.static_blocks = static_cast<size_t>(static_blocks);

  if (!r.U32(&n)) {
    return fail("truncated timeline");
  }
  // 16 bytes per sample through v2; v3 appends the per-sample fault count.
  size_t sample_bytes = version >= kCheckpointVersion ? 24 : 16;
  if (n > r.remaining() / sample_bytes) {
    return fail("implausible timeline count");
  }
  e.timeline.resize(n);
  for (CoverageSample& sample : e.timeline) {
    uint64_t covered;
    if (!r.U64(&sample.work) || !r.U64(&covered)) {
      return fail("truncated coverage sample");
    }
    if (version >= kCheckpointVersion && !r.U64(&sample.faults)) {
      return fail("truncated coverage sample");
    }
    sample.covered_blocks = static_cast<size_t>(covered);
  }

  EngineStats& es = e.stats;
  symex::SolverStats& ss = e.solver_stats;
  symex::ExecutorStats& xs = e.executor_stats;
  perf::SubstrateCounters& sc = e.substrate;
  uint64_t* counters[] = {
      &es.work,         &es.states_created,      &es.states_killed_polling,
      &es.states_killed_error, &es.entry_completions, &es.irqs_injected,
      &es.api_calls,    &es.api_skipped,
      &ss.queries,      &ss.sat,                 &ss.unsat,
      &ss.unknown,      &ss.cache_hits,          &ss.cache_misses,
      &ss.components,   &ss.shelf_hits,          &ss.evals,
      &xs.blocks,       &xs.instrs,              &xs.forks,
      &xs.concretizations,
      &sc.solver_queries, &sc.solver_cache_hits, &sc.solver_cache_misses,
      &sc.solver_shelf_hits, &sc.intern_hits,    &sc.intern_misses,
      &sc.intern_size,  &sc.dbt_cache_hits,      &sc.dbt_cache_misses};
  for (uint64_t* v : counters) {
    if (!r.U64(v)) {
      return fail("truncated counters");
    }
  }
  if (version >= kCheckpointVersion) {
    hw::FaultStats& fs = e.fault_stats;
    for (uint64_t* v : {&fs.decisions, &fs.irq_dropped, &fs.irq_duplicated, &fs.irq_delayed,
                        &fs.dma_read_stalls, &fs.dma_write_drops, &fs.bus_errors,
                        &fs.reg_corruptions, &fs.frames_truncated, &fs.frames_oversized}) {
      if (!r.U64(v)) {
        return fail("truncated fault stats");
      }
    }
    // Invariant maintained by the engine: the substrate's fault fields are
    // projections of FaultStats, so they are derived here instead of stored.
    sc.fault_decisions = fs.decisions;
    sc.faults_injected = fs.TotalInjected();
  }

  if (!r.U32(&n)) {
    return fail("truncated call counts");
  }
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t pc;
    uint64_t count;
    if (!r.U32(&pc) || !r.U64(&count)) {
      return fail("truncated call count");
    }
    e.call_counts[pc] = count;
  }
  uint8_t cancelled;
  if (!r.U64(&e.functions_modeled) || !GetU32Set(r, &e.apis_used) || !r.U8(&cancelled)) {
    return fail("truncated checkpoint tail");
  }
  e.cancelled = cancelled != 0;
  if (version >= kCheckpointVersionV2) {
    uint8_t has_snapshot;
    if (!r.U8(&has_snapshot)) {
      return fail("truncated snapshot flag");
    }
    if (has_snapshot != 0) {
      uint32_t size;
      if (!r.U32(&size) || size != r.remaining()) {
        return fail("bad snapshot section size");
      }
      e.final_snapshot.resize(size);
      if (!r.Raw(e.final_snapshot.data(), size)) {
        return fail("truncated snapshot section");
      }
    }
  }
  if (r.remaining() != 0) {
    return fail("trailing bytes after checkpoint");
  }

  s->stage_ = Stage::kExercised;
  return s;
}

bool Session::SaveCheckpointFile(const std::string& path, std::string* error) const {
  if (stage_ < Stage::kExercised) {
    *error = "nothing to checkpoint: Exercise() has not run";
    return false;
  }
  std::vector<uint8_t> bytes = SaveCheckpoint();
  FILE* f = fopen(path.c_str(), "wb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  size_t written = fwrite(bytes.data(), 1, bytes.size(), f);
  bool closed = fclose(f) == 0;
  if (written != bytes.size() || !closed) {
    *error = "short write to " + path;
    return false;
  }
  return true;
}

std::unique_ptr<Session> Session::LoadCheckpointFile(const std::string& path,
                                                     std::string* error) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return nullptr;
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  fclose(f);
  return LoadCheckpoint(bytes, error);
}

// ---- batch ----

namespace {

// One aggregated REVNIC_PARALLEL_STATS block for the whole batch (the
// engine's per-job print is suppressed by quiet_parallel_stats): per-driver
// rows in input order, then the fleet totals with the deterministic virtual
// makespans (core/fleet.h).
void PrintBatchParallelStats(const BatchResult& batch) {
  for (const BatchJobResult& j : batch.jobs) {
    const ParallelExerciseStats& p = j.result.engine.parallel;
    fprintf(stderr,
            "[batch-parallel] job=%s spine=%llu tasks=%u critical=%llu "
            "steals=%u failovers=%u handoff=%lluB reused=%lluB\n",
            j.name.c_str(), (unsigned long long)p.spine_work, p.tasks,
            (unsigned long long)p.critical_path, p.fleet_steals, p.failovers,
            (unsigned long long)p.handoff_bytes,
            (unsigned long long)p.snapshot_bytes_reused);
  }
  if (batch.fleet_used) {
    const FleetBatchStats& f = batch.fleet;
    fprintf(stderr,
            "[batch-parallel] fleet workers=%u tasks=%u steals=%u (virtual=%u) "
            "failovers=%u makespan=%llu (static=%llu spine-floor=%llu)\n",
            f.workers, f.tasks, f.real_steals, f.virtual_steals, f.failovers,
            (unsigned long long)f.makespan, (unsigned long long)f.static_makespan,
            (unsigned long long)f.max_spine_work);
  }
}

}  // namespace

BatchResult RunBatch(const std::vector<BatchJob>& jobs, const BatchOptions& options) {
  BatchResult batch;
  batch.jobs.resize(jobs.size());
  if (jobs.empty()) {
    return batch;
  }
  // Effective per-job configs, resolved up front: the shared fleet forks its
  // worker pool before any batch thread starts, and the forked handler
  // needs the final job table (image + config per job). A job that left
  // plan.threads at 0 defers to the template: it inherits the template's
  // plan but keeps its own fault plan, because faults are a semantic
  // choice, not a sizing one. Its output class is then IsSequentialPlan of
  // the inherited plan -- a pure function of the template, never of the
  // core count or of the batch's size.
  std::vector<EngineConfig> eff(jobs.size());
  std::vector<FleetJob> fleet_jobs(jobs.size());
  bool any_on_fleet = false;
  for (size_t i = 0; i < jobs.size(); ++i) {
    eff[i] = jobs[i].config;
    EngineConfig& cfg = eff[i];
    if (!options.plan || cfg.plan.threads != 0) {
      continue;
    }
    hw::FaultPlan job_faults = cfg.plan.faults;
    cfg.plan = *options.plan;
    if (job_faults.Enabled()) {
      cfg.plan.faults = job_faults;
    }
    if (!IsSequentialPlan(cfg.plan) && jobs[i].image != nullptr) {
      // Deferring parallel-class jobs share the batch's fleet.
      fleet_jobs[i] = {jobs[i].image, cfg};
      any_on_fleet = true;
    }
  }

  // One fleet (and one RDP1 worker pool, forked here while this process is
  // still single-threaded) for every deferring parallel job. Jobs with an
  // explicit plan run as standalone sessions, each on its own private
  // fleet.
  std::unique_ptr<FleetScheduler> fleet;
  if (any_on_fleet) {
    fleet = StartFleet(*options.plan, fleet_jobs);
  }
  unsigned concurrency = options.concurrency;
  if (fleet != nullptr) {
    // Job threads mostly sleep inside RunJobTasks while the fleet executes;
    // one thread per job keeps every spine overlapped with the fan-out.
    concurrency = static_cast<unsigned>(jobs.size());
  } else if (concurrency == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    concurrency = hw == 0 ? 2 : hw;
  }
  // An explicit request is honored even beyond the core count (workers just
  // timeslice); there is never a point in more workers than jobs.
  concurrency = std::min(concurrency, static_cast<unsigned>(jobs.size()));
  batch.concurrency = concurrency;

  std::atomic<size_t> next{0};
  std::mutex done_mu;
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < jobs.size(); i = next.fetch_add(1)) {
      const BatchJob& job = jobs[i];
      BatchJobResult& out = batch.jobs[i];
      out.name = job.name;
      if (job.image == nullptr) {
        out.error = "job has no image";
      } else {
        EngineConfig cfg = eff[i];
        // RunBatch reports one aggregated stats block after the join.
        cfg.quiet_parallel_stats = true;
        if (fleet_jobs[i].image != nullptr) {
          cfg.fleet = fleet.get();
          cfg.fleet_job = static_cast<uint32_t>(i);
        }
        Session session(*job.image, cfg);
        session.set_label(job.name);
        if (session.RunAll()) {
          out.result = session.TakeResult();
          out.ok = true;
        } else {
          out.error = session.error();
        }
      }
      if (options.on_job_done) {
        std::lock_guard<std::mutex> lock(done_mu);
        options.on_job_done(out);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(concurrency);
  for (unsigned t = 0; t < concurrency; ++t) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const BatchJobResult& j : batch.jobs) {
    if (j.ok) {
      batch.aggregate.Accumulate(j.result.engine.substrate);
    }
  }
  if (fleet != nullptr) {
    batch.fleet_used = true;
    batch.fleet = fleet->ComputeStats();
    for (const BatchJobResult& j : batch.jobs) {
      batch.fleet.failovers += j.result.engine.parallel.failovers;
    }
    fleet.reset();  // join the lanes, then shut the worker pool down
  }
  if (getenv("REVNIC_PARALLEL_STATS") != nullptr) {
    PrintBatchParallelStats(batch);
  }
  return batch;
}

std::function<void(const CoverageSample&)> MakeCoverageJsonlLogger(JsonlWriter* sink,
                                                                   std::string label) {
  return [sink, label = std::move(label)](const CoverageSample& s) {
    sink->Write({{"driver", label},
                 {"work", static_cast<uint64_t>(s.work)},
                 {"covered", static_cast<uint64_t>(s.covered_blocks)},
                 {"faults", static_cast<uint64_t>(s.faults)}});
  };
}

// ---- checkpoint store ----

struct CheckpointBlob {
  std::once_flag once;
  std::vector<uint8_t> bytes;
};

namespace {

// Folds the config fields that change exercise output into the store key,
// so reusing a caller key with a different budget/seed/heuristic setup gets
// a distinct checkpoint instead of silently sharing the first one's.
// Callback identity (cancel/on_coverage closures) cannot be hashed -- only
// their presence is mixed in; callers pairing the store with distinct cancel
// policies differentiate entries via Resume()'s salt parameter.
std::string ConfigFingerprint(const EngineConfig& c) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(c.pci.vendor_id);
  mix(c.pci.device_id);
  mix(c.pci.io_base);
  mix(c.pci.io_size);
  mix(c.pci.mmio_base);
  mix(c.pci.mmio_size);
  mix(c.pci.irq_line);
  mix(c.max_work);
  mix(c.max_work_per_step);
  mix(c.entry_success_cap);
  mix(c.no_progress_window);
  mix(c.polling_visit_threshold);
  mix(c.inject_irqs ? 1 : 0);
  mix(c.seed);
  mix(c.sample_every);
  mix(c.cancel ? 1 : 0);
  // Presence of the final-state snapshot changes the checkpoint bytes.
  mix(c.capture_final_snapshot ? 1 : 0);
  // The fault plan reshapes the explored tree; rates are mixed as raw
  // IEEE-754 bits -- any representational change is a schedule change.
  // sub_shards changes the merged slot layout, so its exact value is
  // output-relevant. The output class (IsSequentialPlan) is mixed as one
  // bit: every parallel-class placement -- lane count, worker processes --
  // produces byte-identical results (tests/dist_test.cc), so plan.threads,
  // plan.fleet and plan.worker_processes enter only through it.
  mix(c.plan.faults.seed);
  for (double rate : c.plan.faults.rates) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(rate));
    std::memcpy(&bits, &rate, sizeof(bits));
    mix(bits);
  }
  mix(c.plan.sub_shards);
  mix(IsSequentialPlan(c.plan) ? 1 : 2);
  // Container sizes are mixed before their elements so adjacent
  // variable-length fields cannot alias each other's streams.
  mix(c.skip_apis.size());
  for (uint32_t api : c.skip_apis) {
    mix(api);
  }
  mix(c.registry.size());
  for (const auto& [key, value] : c.registry) {
    mix(key);
    mix(value);
  }
  mix(c.function_models.size());
  for (const EngineConfig::FunctionModel& m : c.function_models) {
    mix(m.entry_pc);
    mix(m.arg_bytes);
    mix(m.symbolic_return ? 1 : 0);
  }
  mix(static_cast<uint64_t>(c.pool.strategy));
  mix(c.pool.max_states);
  mix(c.solver.repair_iters);
  mix(c.solver.candidates_per_step);
  char buf[20];
  snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

CheckpointStore& CheckpointStore::Global() {
  static CheckpointStore& store = *new CheckpointStore();
  return store;
}

CheckpointStore::CheckpointStore() {
  if (const char* env = std::getenv("REVNIC_CHECKPOINT_CACHE_BYTES")) {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 0);
    if (end != env && v > 0) {
      budget_ = static_cast<size_t>(v);
    }
  }
}

size_t CheckpointStore::CachedBytes() {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

size_t CheckpointStore::SetBudgetBytes(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t old = budget_;
  budget_ = bytes;
  EvictOverBudgetLocked();
  return old;
}

void CheckpointStore::EvictOverBudgetLocked() {
  // Walk from the cold end; the front (most recently resumed) entry is never
  // evicted even when it alone exceeds the budget. Dropping an entry just
  // forgets the serialized bytes -- a later Resume re-exercises
  // deterministically, so callers cannot observe eviction in the resumed
  // session's content.
  while (total_ > budget_ && lru_.size() > 1) {
    const std::string& victim = lru_.back();
    auto it = blobs_.find(victim);
    if (it != blobs_.end()) {
      total_ -= it->second.bytes;
      blobs_.erase(it);
    }
    lru_.pop_back();
  }
}

std::unique_ptr<Session> CheckpointStore::Resume(const std::string& key,
                                                 const isa::Image& image,
                                                 const EngineConfig& config,
                                                 const std::string& salt) {
  const std::string store_key = key + "#" + ConfigFingerprint(config) + "#" + salt;
  std::shared_ptr<CheckpointBlob> blob;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The salt keeps callers with distinct cancel policies (identical
    // fingerprints -- closures only contribute a presence bit) on distinct
    // entries.
    auto it = blobs_.find(store_key);
    if (it == blobs_.end()) {
      lru_.push_front(store_key);
      it = blobs_.emplace(store_key, Entry{std::make_shared<CheckpointBlob>(),
                                           lru_.begin()}).first;
    } else {
      lru_.splice(lru_.begin(), lru_, it->second.pos);  // touch: move to MRU
    }
    blob = it->second.blob;
  }
  // First requester exercises outside the map lock; same-entry requesters
  // wait here, unrelated entries proceed concurrently.
  std::call_once(blob->once, [&] {
    Session session(image, config);
    session.set_label(key);
    session.Exercise();
    blob->bytes = session.SaveCheckpoint();
  });
  {
    // Account the blob's size once it exists (the entry may have been
    // evicted while we exercised; an evicted entry is simply not re-counted,
    // its bytes die with the local shared_ptr).
    std::lock_guard<std::mutex> lock(mu_);
    auto it = blobs_.find(store_key);
    if (it != blobs_.end() && it->second.blob == blob && it->second.bytes == 0) {
      it->second.bytes = blob->bytes.size();
      total_ += it->second.bytes;
      EvictOverBudgetLocked();
    }
  }
  std::string error;
  std::unique_ptr<Session> resumed = Session::LoadCheckpoint(blob->bytes, &error);
  if (resumed == nullptr) {
    fprintf(stderr, "FATAL: checkpoint store blob for '%s' corrupt: %s\n", key.c_str(),
            error.c_str());
    abort();
  }
  return resumed;
}

}  // namespace revnic::core
