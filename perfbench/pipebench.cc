// pipebench: one process of the pipeline benchmark. perfbench/run.py starts
// it once per repetition, so every repetition begins with an empty
// process-wide estimate registry, checkpoint store and image cache.
//
//   pipebench batch  --workload corpus_fleet|light_dist --seed N
//   pipebench probe  --workload corpus_fleet|light_dist|native_race --seed N
//   pipebench native --seed N [--seconds S] [--setup-only] [--trace]
//
// `batch` is one timed RunBatch from driver images to all four emitted
// translation units. `probe` drives each driver's Session stage by stage and
// times the synth, snapshot and wire calls on the real outputs. `native`
// exercises, synthesizes, compiles and loads the five kitos drivers (set-up),
// checks I/O-trace parity, then races native against DBT for S seconds.
//
// All timing wraps calls into the modules' public functions; nothing inside
// src/ is instrumented. Each mode prints one JSON object as its last stdout
// line: metric values by name (units live in BENCHMARK.json), the names of
// metrics whose layer did no work in this workload ("idle"), output digests,
// and the ops attempted and failed.
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "dist/wire.h"
#include "drivers/drivers.h"
#include "hw/counting.h"
#include "hw/faults.h"
#include "hw/frame.h"
#include "native/harness.h"
#include "native/host.h"
#include "native/loader.h"
#include "native/toolchain.h"
#include "os/api.h"
#include "os/winsim_host.h"
#include "symex/expr.h"
#include "symex/snapshot.h"
#include "synth/cfg.h"
#include "synth/emit.h"
#include "util/bits.h"

namespace {

using namespace revnic;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- workloads ----

struct Workload {
  std::string name;
  std::vector<drivers::DriverId> drivers;
  unsigned lanes = 4;             // fleet lanes
  unsigned sub_shards = 0;        // K
  unsigned worker_processes = 0;  // forked RDP1 workers
  std::string fault_rates;        // hw::ParseFaultPlan rates; empty = clean
};

// Rates of the parity fault plan native_race checks under (the plan
// bench/native_race.cc uses).
constexpr const char* kParityRates =
    "irq-drop=0.2,irq-delay=0.15,frame-truncate=0.35,frame-oversize=0.25";

std::vector<drivers::DriverId> AllDrivers() {
  std::vector<drivers::DriverId> ids;
  for (const drivers::TargetInfo& t : drivers::AllTargets()) {
    ids.push_back(t.id);
  }
  return ids;
}

const Workload* FindWorkload(const std::string& name) {
  using drivers::DriverId;
  static const std::vector<Workload> kWorkloads = {
      {"corpus_fleet", AllDrivers(), 4, 0, 0, ""},
      {"light_dist", {DriverId::kPcnet, DriverId::kSmc91c111, DriverId::kEl3}, 2, 4, 2,
       "all=0.05"},
      // Set-up exercises exactly like corpus_fleet; the timed part is the race.
      {"native_race", AllDrivers(), 4, 0, 0, ""},
  };
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

// Fault-plan seed for a workload seed: the default seed 1 gives 1729, the
// seed of the plans the repository's own benches use.
std::string FaultSpec(uint64_t seed, const std::string& rates) {
  return std::to_string(1728 + seed) + ":" + rates;
}

// The one place that turns a workload's lanes, sub-shards, worker processes
// and faults into an ExercisePlan. threads = 0 means "leave the sizing to
// the fleet" under RunBatch and "size for the machine" on a standalone
// Session; no other line of the benchmark names a threads, fan-out or steal
// knob.
core::ExercisePlan FleetPlan(const Workload& w, uint64_t seed) {
  core::ExercisePlan plan;
  plan.threads = 0;
  plan.fleet = w.lanes;
  plan.sub_shards = w.sub_shards;
  plan.worker_processes = w.worker_processes;
  if (!w.fault_rates.empty()) {
    std::string error;
    if (!hw::ParseFaultPlan(FaultSpec(seed, w.fault_rates), &plan.faults, &error)) {
      fprintf(stderr, "pipebench: bad fault plan: %s\n", error.c_str());
      exit(2);
    }
  }
  return plan;
}

core::EngineConfig JobConfig(const Workload& w, drivers::DriverId id, uint64_t seed) {
  core::EngineConfig cfg;
  cfg.pci = drivers::DriverPci(id);
  cfg.seed = seed;
  cfg.plan = FleetPlan(w, seed);
  return cfg;
}

std::vector<os::TargetOs> AllTargetOses() {
  return {std::begin(os::kAllTargetOses), std::end(os::kAllTargetOses)};
}

// ---- measurement helpers ----

struct Cpu {
  double self = 0;      // this process, all threads
  double children = 0;  // reaped children (forked RDP1 workers)
  double peak_rss_mb = 0;
};

Cpu CpuNow() {
  auto secs = [](const rusage& r) {
    return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec);
  };
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return {secs(self), secs(kids), static_cast<double>(self.ru_maxrss) / 1024.0};
}

double CpuSpent(const Cpu& a, const Cpu& b) {
  return (b.self - a.self) + (b.children - a.children);
}

std::string Hex(uint64_t v) {
  char buf[17];
  snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ull;

uint64_t Digest(const std::string& s, uint64_t seed = kFnvBasis) {
  return Fnv1a(s.data(), s.size(), seed);
}
uint64_t Digest(const std::vector<uint8_t>& v) { return Fnv1a(v.data(), v.size()); }

// ---- output ----

// One process's result: metric values by name, idle metric names, digests
// per driver, failures, and per-round series (native mode).
class Result {
 public:
  void Set(const std::string& name, double v) { metrics_[name] = v; }
  void Add(const std::string& name, double v) { metrics_[name] += v; }
  void Max(const std::string& name, double v) {
    metrics_[name] = std::max(metrics_[name], v);
  }
  void Idle(const std::string& name) {
    idle_.insert(name);
    metrics_[name] = 0;
  }
  void Digest(const std::string& driver, const std::string& what, uint64_t v) {
    digests_[driver][what] = Hex(v);
  }
  void Series(const std::string& name, double v) { series_[name].push_back(v); }
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
      fprintf(stderr, "pipebench: FAILED %s\n", what.c_str());
    }
  }
  bool all_ok() const { return failed_ == 0; }

  void Print(const std::string& mode, const Workload& w, uint64_t seed) const {
    std::string out = "{\"mode\": " + Quote(mode) + ", \"workload\": " + Quote(w.name) +
                      ", \"seed\": " + std::to_string(seed) + ", \"build_type\": " +
                      Quote(PIPEBENCH_BUILD_TYPE) + ", \"compiler\": " +
                      Quote(PIPEBENCH_COMPILER) +
                      ", \"attempted\": " + std::to_string(attempted_) +
                      ", \"failed\": " + std::to_string(failed_) + ", \"failures\": [";
    for (size_t i = 0; i < failures_.size(); ++i) {
      out += (i ? ", " : "") + Quote(failures_[i]);
    }
    out += "], \"metrics\": {";
    bool first = true;
    for (const auto& [k, v] : metrics_) {
      out += (first ? "" : ", ") + Quote(k) + ": " + Number(v);
      first = false;
    }
    out += "}, \"idle\": [";
    first = true;
    for (const std::string& k : idle_) {
      out += (first ? "" : ", ") + Quote(k);
      first = false;
    }
    out += "], \"series\": {";
    first = true;
    for (const auto& [k, vs] : series_) {
      out += (first ? "" : ", ") + Quote(k) + ": [";
      for (size_t i = 0; i < vs.size(); ++i) {
        out += (i ? ", " : "") + Number(vs[i]);
      }
      out += "]";
      first = false;
    }
    out += "}, \"digests\": {";
    first = true;
    for (const auto& [driver, ds] : digests_) {
      out += (first ? "" : ", ") + Quote(driver) + ": {";
      bool inner = true;
      for (const auto& [what, hex] : ds) {
        out += (inner ? "" : ", ") + Quote(what) + ": " + Quote(hex);
        inner = false;
      }
      out += "}";
      first = false;
    }
    out += "}}";
    printf("%s\n", out.c_str());
    fflush(stdout);
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        q += '\\';
        q += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        q += ' ';
      } else {
        q += c;
      }
    }
    return q + "\"";
  }
  // Non-finite values become a string, which the validator rejects.
  static std::string Number(double v) {
    if (!std::isfinite(v)) {
      return "\"non-finite\"";
    }
    char buf[32];
    snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  std::map<std::string, double> metrics_;
  std::set<std::string> idle_;
  std::map<std::string, std::map<std::string, std::string>> digests_;
  std::map<std::string, std::vector<double>> series_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Marks `prefix<driver>` idle for every driver outside the workload.
void IdleOtherDrivers(const Workload& w, const std::string& prefix, Result* r) {
  for (drivers::DriverId id : AllDrivers()) {
    if (std::find(w.drivers.begin(), w.drivers.end(), id) == w.drivers.end()) {
      r->Idle(prefix + drivers::DriverName(id));
    }
  }
}

// Deterministic summary of one exercise result: the counters and coverage
// an RCP1 checkpoint carries besides the trace and the RSS1 snapshot.
uint64_t RunDigest(const core::EngineResult& e) {
  std::string s;
  for (uint64_t v : {e.stats.work, e.stats.states_created, e.stats.states_killed_polling,
                     e.stats.states_killed_error, e.stats.entry_completions,
                     e.solver_stats.queries, e.solver_stats.components, e.solver_stats.evals,
                     e.solver_stats.unknown, e.executor_stats.instrs,
                     e.fault_stats.decisions, e.fault_stats.TotalInjected(),
                     static_cast<uint64_t>(e.static_blocks)}) {
    s += std::to_string(v) + ",";
  }
  for (uint32_t b : e.covered_blocks) {
    s += std::to_string(b) + ";";
  }
  return Digest(s);
}

uint64_t TuDigest(const std::map<os::TargetOs, std::string>& tus) {
  uint64_t h = kFnvBasis;
  for (const auto& [target, src] : tus) {
    h = Digest(os::TargetOsName(target), h);
    h = Digest(src, h);
  }
  return h;
}

// Checks one batch job's outputs; records the op and the digests.
void CheckJob(const core::BatchJobResult& job,
              const std::map<os::TargetOs, std::string>& tus, Result* r) {
  const std::string& name = job.name;
  if (!job.ok) {
    r->Op(false, name + ": job failed: " + job.error);
    return;
  }
  const core::PipelineResult& pr = job.result;
  const core::EngineResult& e = pr.engine;
  std::string why;
  std::string verify = synth::VerifyModule(pr.module);
  if (!verify.empty()) {
    why = "module verify: " + verify;
  } else if (e.cancelled || e.snapshot_restore_failures != 0) {
    why = "exercise cancelled or snapshot restore failed";
  } else if (e.covered_blocks.empty() || e.covered_blocks.size() > e.static_blocks) {
    why = "coverage out of range";
  } else if (e.final_snapshot.empty()) {
    why = "no final RSS1 snapshot";
  } else if (tus.size() != std::size(os::kAllTargetOses)) {
    why = "not every target emitted";
  } else {
    for (const auto& [target, src] : tus) {
      if (src.empty()) {
        why = std::string("empty TU for ") + os::TargetOsName(target);
      }
    }
    auto batch_tu = pr.emitted.find(os::TargetOs::kWindows);
    if (batch_tu == pr.emitted.end() || batch_tu->second != tus.at(os::TargetOs::kWindows)) {
      why = "re-emitted windows TU differs from the session's";
    }
  }
  r->Op(why.empty(), name + (why.empty() ? "" : ": " + why));
  r->Digest(name, "tu", TuDigest(tus));
  r->Digest(name, "rss1", Digest(e.final_snapshot));
  r->Digest(name, "run", RunDigest(e));
}

// Counts every layer reports for one exercised batch (the timed run's
// counts; they are deterministic except fleet.real_steals).
void BatchCounts(const Workload& w, const core::BatchResult& batch, double wall_s,
                 const std::vector<std::map<os::TargetOs, std::string>>& tus, Result* r) {
  uint64_t solver_hits = 0, solver_misses = 0, intern_hits = 0, intern_misses = 0;
  uint64_t dbt_hits = 0, dbt_misses = 0, intern_live = 0, covered = 0;
  for (size_t i = 0; i < batch.jobs.size(); ++i) {
    const core::BatchJobResult& job = batch.jobs[i];
    if (!job.ok) {
      continue;
    }
    const core::EngineResult& e = job.result.engine;
    covered += e.covered_blocks.size();
    r->Add("engine.work_units", static_cast<double>(e.stats.work));
    r->Add("engine.states_created", static_cast<double>(e.stats.states_created));
    r->Add("engine.polling_kills", static_cast<double>(e.stats.states_killed_polling));
    r->Add("solver.queries", static_cast<double>(e.solver_stats.queries));
    r->Add("solver.components", static_cast<double>(e.solver_stats.components));
    r->Add("solver.evals", static_cast<double>(e.solver_stats.evals));
    r->Add("solver.unknown", static_cast<double>(e.solver_stats.unknown));
    solver_hits += e.substrate.solver_cache_hits;
    solver_misses += e.substrate.solver_cache_misses;
    intern_hits += e.substrate.intern_hits;
    intern_misses += e.substrate.intern_misses;
    intern_live = std::max<uint64_t>(intern_live, e.substrate.intern_size);
    dbt_hits += e.substrate.dbt_cache_hits;
    dbt_misses += e.substrate.dbt_cache_misses;
    r->Add("snapshot.final_kb", static_cast<double>(e.final_snapshot.size()) / 1024.0);
    const core::ParallelExerciseStats& p = e.parallel;
    r->Add("fanout.spine_units", static_cast<double>(p.spine_work));
    r->Max("fanout.critical_path_units", static_cast<double>(p.critical_path));
    r->Add("fanout.enum_units", static_cast<double>(p.enum_work));
    r->Add("dist.handoff_kb", static_cast<double>(p.handoff_bytes) / 1024.0);
    r->Add("dist.snapshot_shipped_kb", static_cast<double>(p.snapshot_bytes_shipped) / 1024.0);
    r->Add("dist.snapshot_reused_kb", static_cast<double>(p.snapshot_bytes_reused) / 1024.0);
    r->Add("faults.decisions", static_cast<double>(e.fault_stats.decisions));
    r->Add("faults.injected", static_cast<double>(e.fault_stats.TotalInjected()));
    r->Add("synth.blocks", static_cast<double>(job.result.module.blocks.size()));
    for (const auto& [target, src] : tus[i]) {
      r->Add("synth.emitted_kb", static_cast<double>(src.size()) / 1024.0);
    }
  }
  auto ratio = [](uint64_t hits, uint64_t misses) {
    return hits + misses == 0 ? 0.0 : static_cast<double>(hits) / (hits + misses);
  };
  r->Set("covered_blocks", static_cast<double>(covered));
  r->Set("solver.cache_hit_ratio", ratio(solver_hits, solver_misses));
  r->Set("expr.intern_hit_ratio", ratio(intern_hits, intern_misses));
  r->Set("expr.intern_live", static_cast<double>(intern_live));
  r->Set("dbt.cache_hit_ratio", ratio(dbt_hits, dbt_misses));
  r->Set("dbt.translations", static_cast<double>(dbt_misses));
  r->Set("fleet.tasks", batch.fleet.tasks);
  r->Set("fleet.real_steals", batch.fleet.real_steals);
  r->Set("fleet.makespan_units", static_cast<double>(batch.fleet.makespan));
  r->Set("fleet.steal_makespan_units", static_cast<double>(batch.fleet.steal_makespan));
  r->Set("fleet.ms_per_kunit",
         batch.fleet.makespan == 0 ? 0.0 : wall_s * 1e6 / batch.fleet.makespan);
  r->Set("dist.failovers", batch.fleet.failovers);
  if (w.sub_shards == 0) {
    r->Idle("fanout.enum_units");
  }
  if (w.worker_processes == 0) {
    for (const char* m : {"dist.handoff_kb", "dist.snapshot_shipped_kb",
                          "dist.snapshot_reused_kb", "dist.failovers"}) {
      r->Idle(m);
    }
  }
  if (w.fault_rates.empty()) {
    r->Idle("faults.decisions");
    r->Idle("faults.injected");
  }
  if (!batch.fleet_used) {
    r->Op(false, "batch did not run on the fleet");
  }
}

struct TimedBatch {
  core::BatchResult batch;
  std::vector<std::map<os::TargetOs, std::string>> tus;  // per job, all targets
  std::vector<double> job_done_s;
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

// Set-up (images assembled, configs built) and one RunBatch from images to
// every job's four emitted TUs, the latter timed.
TimedBatch RunTimedBatch(const Workload& w, uint64_t seed,
                         const std::vector<os::TargetOs>& targets) {
  TimedBatch out;
  Clock::time_point setup0 = Clock::now();
  std::vector<core::BatchJob> jobs;
  for (drivers::DriverId id : w.drivers) {
    core::BatchJob job;
    job.name = drivers::DriverName(id);
    job.image = &drivers::DriverImage(id);
    job.config = JobConfig(w, id, seed);
    jobs.push_back(std::move(job));
  }
  core::BatchOptions options;
  options.plan = FleetPlan(w, seed);
  out.tus.resize(jobs.size());
  out.job_done_s.assign(jobs.size(), 0);
  Clock::time_point t0 = Clock::now();
  out.setup_s = Seconds(setup0, t0);
  // Runs on the finishing job's thread (serialized by RunBatch), so each
  // driver's emission overlaps with the jobs still exercising.
  options.on_job_done = [&](const core::BatchJobResult& job) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].name == job.name) {
        out.job_done_s[i] = Seconds(t0, Clock::now());
        if (job.ok) {
          for (auto& [target, emission] : synth::EmitForTargets(job.result.module, targets)) {
            out.tus[i][target] = std::move(emission.source);
          }
        }
      }
    }
  };
  Cpu c0 = CpuNow();
  out.batch = core::RunBatch(jobs, options);
  out.wall_s = Seconds(t0, Clock::now());
  out.cpu_s = CpuSpent(c0, CpuNow());
  return out;
}

int BatchMode(const Workload& w, uint64_t seed) {
  Result r;
  TimedBatch tb = RunTimedBatch(w, seed, AllTargetOses());
  Cpu end = CpuNow();
  r.Set("setup_s", tb.setup_s);
  r.Set("wall_s", tb.wall_s);
  r.Set("cpu_s", tb.cpu_s);
  r.Set("peak_rss_mb", end.peak_rss_mb);
  for (size_t i = 0; i < tb.batch.jobs.size(); ++i) {
    CheckJob(tb.batch.jobs[i], tb.tus[i], &r);
    r.Set("core.job_done_s." + tb.batch.jobs[i].name, tb.job_done_s[i]);
  }
  IdleOtherDrivers(w, "core.job_done_s.", &r);
  BatchCounts(w, tb.batch, tb.wall_s, tb.tus, &r);
  // Only native_race runs generated code.
  for (const char* m : {"native_fps", "dbt_fps", "dbt.ns_per_guest_instr", "hw.io_per_frame",
                        "hw.bytes_per_frame", "native.cc_s", "native.load_ms",
                        "native.parity_s", "native.unexplored_hits"}) {
    r.Idle(m);
  }
  r.Print("batch", w, seed);
  return r.all_ok() ? 0 : 1;
}

// ---- probe: stage-by-stage sessions and direct layer calls ----

// Mean seconds of `fn` over enough calls to span at least `min_s`.
template <typename Fn>
double MeanSeconds(Fn&& fn, double min_s = 0.02) {
  int calls = 0;
  Clock::time_point t0 = Clock::now();
  double spent = 0;
  do {
    fn();
    ++calls;
    spent = Seconds(t0, Clock::now());
  } while (spent < min_s);
  return spent / calls;
}

// WriteFrame on one end of a socketpair (writer thread), ReadFrame on the
// other; true when the payload arrives intact.
bool FrameRoundTrip(const std::vector<uint8_t>& blob) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return false;
  }
  bool wrote = false;
  std::thread writer([&] {
    std::string err;
    wrote = dist::WriteFrame(fds[0], dist::FrameType::kWork, blob, &err);
  });
  dist::Frame frame;
  std::string err;
  bool read = dist::ReadFrame(fds[1], &frame, 30'000, &err);
  writer.join();
  close(fds[0]);
  close(fds[1]);
  return wrote && read && frame.type == dist::FrameType::kWork && frame.payload == blob;
}

int ProbeMode(const Workload& w, uint64_t seed) {
  Result r;
  Clock::time_point probe0 = Clock::now();
  double evals = 0, exercise_s = 0, frame_s = 0, frame_bytes = 0;
  for (drivers::DriverId id : w.drivers) {
    const std::string name = drivers::DriverName(id);
    core::Session s(drivers::DriverImage(id), JobConfig(w, id, seed));
    s.set_label(name);
    core::EmitOptions emit;
    emit.targets = AllTargetOses();
    s.set_emit_options(emit);
    Clock::time_point t0 = Clock::now();
    bool ok = s.Exercise();
    Clock::time_point t1 = Clock::now();
    ok = ok && s.RecoverCfg();
    Clock::time_point t2 = Clock::now();
    ok = ok && s.Synthesize();
    Clock::time_point t3 = Clock::now();
    ok = ok && s.Emit();
    Clock::time_point t4 = Clock::now();
    if (!ok) {
      r.Op(false, name + ": session failed: " + s.error());
      continue;
    }
    r.Set("core.exercise_s." + name, Seconds(t0, t1));
    r.Add("core.recover_ms", 1e3 * Seconds(t1, t2));
    r.Add("core.synthesize_ms", 1e3 * Seconds(t2, t3));
    r.Add("core.emit_ms", 1e3 * Seconds(t3, t4));
    const core::EngineResult& e = s.engine();
    evals += static_cast<double>(e.solver_stats.evals);
    exercise_s += Seconds(t0, t1);
    const std::vector<uint8_t> rcp1 = s.SaveCheckpoint();
    r.Digest(name, "rcp1", Digest(rcp1));
    r.Digest(name, "tu", TuDigest(s.emitted()));
    r.Digest(name, "rss1", Digest(e.final_snapshot));
    r.Digest(name, "run", RunDigest(e));

    // synth, called directly on the session's trace.
    std::string why;
    synth::SynthStats stats;
    std::string error;
    synth::RecoveredModule module;
    r.Add("synth.pipeline_ms", 1e3 * MeanSeconds([&] {
            module = synth::RunSynthesisPipeline(e.bundle, e.entries, synth::PipelineOptions(),
                                                 &stats, &error);
          }));
    if (!error.empty()) {
      why = "synthesis pipeline: " + error;
    }
    std::map<os::TargetOs, std::string> direct;
    r.Add("synth.emit_ms", 1e3 * MeanSeconds([&] {
            for (os::TargetOs t : os::kAllTargetOses) {
              direct[t] = synth::EmitForTarget(module, t).source;
            }
          }));
    if (direct != s.emitted()) {
      why = "direct synth+emit differs from the session's TUs";
    }

    // symex: decode the real final RSS1 blob.
    bool decoded = true;
    r.Add("snapshot.decode_ms", 1e3 * MeanSeconds([&] {
            symex::ExprContext ctx;
            symex::SnapshotReader reader;
            std::string err;
            decoded = decoded && reader.Init(e.final_snapshot, &ctx, &err);
          }));
    if (!decoded) {
      why = "final RSS1 snapshot does not decode";
    }

    // dist: the real blobs through the RDP1 wire.
    if (w.worker_processes > 0) {
      for (const std::vector<uint8_t>* blob : {&e.final_snapshot, &rcp1}) {
        bool wired = true;
        frame_s += MeanSeconds([&] { wired = wired && FrameRoundTrip(*blob); });
        frame_bytes += static_cast<double>(blob->size());
        if (!wired) {
          why = "RDP1 frame round trip failed";
        }
      }
    }
    r.Op(why.empty(), name + (why.empty() ? "" : ": " + why));
  }
  IdleOtherDrivers(w, "core.exercise_s.", &r);
  r.Set("solver.evals_per_s", exercise_s > 0 ? evals / exercise_s : 0.0);
  if (w.worker_processes > 0) {
    r.Set("dist.frame_ms_per_mb", frame_bytes > 0 ? 1e3 * frame_s / (frame_bytes / 1048576.0)
                                                  : 0.0);
  } else {
    r.Idle("dist.frame_ms_per_mb");
  }
  r.Set("trace.probe_s", Seconds(probe0, Clock::now()));
  r.Print("probe", w, seed);
  return r.all_ok() ? 0 : 1;
}

// ---- native race ----

hw::Frame TxFrame(size_t payload, uint8_t fill) {
  return hw::BuildUdpFrame({1, 2, 3, 4, 5, 6}, {2, 2, 2, 2, 2, 2}, payload, fill);
}
hw::Frame RxFrame(size_t payload, uint8_t fill) {
  return hw::BuildUdpFrame({3, 3, 3, 3, 3, 3}, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, payload,
                           fill);
}

constexpr size_t kPayload = 256;
// Frames per driver per round: both sides take on the order of 0.1 s.
constexpr uint64_t kNativeFrames = 20'000;
constexpr uint64_t kDbtFrames = 4'000;

// One driver's two sides, bound and initialized once in set-up.
struct RaceDriver {
  drivers::DriverId id;
  std::string name;
  std::string kitos;
  synth::RecoveredModule module;
  native::NativeModule so;
  std::unique_ptr<hw::NicDevice> native_dev;
  std::unique_ptr<native::NativeKitosHost> native_host;
  std::unique_ptr<hw::NicDevice> dbt_dev;
  std::unique_ptr<hw::CountingIoProxy> dbt_io;
  std::unique_ptr<os::ConcreteWinSimHost> dbt_host;
};

struct SideRun {
  double seconds = 0;
  uint64_t tx_ok = 0;
  uint64_t rx = 0;
};

// The send/receive mix of native::RunRace's measurement: every frame sent,
// one broadcast received every fourth frame.
template <typename Host>
SideRun PushFrames(Host& host, hw::NicDevice* dev, std::vector<hw::Frame>& delivered,
                   uint64_t frames, uint8_t fill) {
  SideRun run;
  hw::Frame tx = TxFrame(kPayload, fill);
  hw::Frame rx = RxFrame(kPayload, static_cast<uint8_t>(fill ^ 0x22));
  Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < frames; ++i) {
    auto st = host.SendFrame(tx);
    if (st.has_value() && *st == os::kStatusSuccess) {
      ++run.tx_ok;
    }
    if ((i & 3u) == 3u) {
      dev->InjectReceive(rx);
      host.DeliverInterrupts();
      run.rx += delivered.size();
      delivered.clear();
    }
  }
  run.seconds = Seconds(t0, Clock::now());
  return run;
}

uint64_t NativeBytes(RaceDriver& d) {
  return d.native_host->api_service().counters().bytes_moved + d.native_dev->stats().tx_bytes +
         d.native_dev->stats().rx_bytes;
}

// Race rounds of kNativeFrames native and kDbtFrames DBT frames per driver
// until `seconds` have passed, each round one series sample.
void RaceRounds(std::vector<std::unique_ptr<RaceDriver>>& race, double seconds, uint8_t fill,
                Result* r) {
  std::vector<uint64_t> io0, bytes0, instrs0;
  for (auto& d : race) {
    io0.push_back(d->native_host->counters().io_total());
    bytes0.push_back(NativeBytes(*d));
    instrs0.push_back(d->dbt_host->guest_instrs());
  }
  double dbt_s = 0;
  uint64_t native_frames = 0;
  Clock::time_point race0 = Clock::now();
  do {
    Cpu c0 = CpuNow();
    Clock::time_point t0 = Clock::now();
    double log_native = 0, log_dbt = 0;
    for (auto& d : race) {
      SideRun n = PushFrames(*d->native_host, d->native_dev.get(),
                             d->native_host->rx_delivered(), kNativeFrames, fill);
      SideRun b = PushFrames(*d->dbt_host, d->dbt_dev.get(), d->dbt_host->os().rx_delivered(),
                             kDbtFrames, fill);
      // A compiled driver that reached a coverage hole traps instead of
      // running unobserved code (src/native/README.md), and may deliver
      // fewer receives from then on; any other shortfall is a failure.
      bool trapped = d->native_host->counters().unexplored_hits > 0;
      r->Op(n.tx_ok == kNativeFrames && (n.rx == kNativeFrames / 4 || trapped),
            d->name + ": native round sent " + std::to_string(n.tx_ok) + " received " +
                std::to_string(n.rx));
      r->Op(b.tx_ok == kDbtFrames && b.rx == kDbtFrames / 4,
            d->name + ": dbt round sent " + std::to_string(b.tx_ok) + " received " +
                std::to_string(b.rx));
      dbt_s += b.seconds;
      native_frames += kNativeFrames;
      log_native += std::log(kNativeFrames / n.seconds);
      log_dbt += std::log(kDbtFrames / b.seconds);
    }
    r->Series("wall_s", Seconds(t0, Clock::now()));
    r->Series("cpu_s", CpuSpent(c0, CpuNow()));
    r->Series("native_fps", std::exp(log_native / race.size()));
    r->Series("dbt_fps", std::exp(log_dbt / race.size()));
  } while (Seconds(race0, Clock::now()) < seconds);

  uint64_t io = 0, bytes = 0, instrs = 0, traps = 0;
  for (size_t i = 0; i < race.size(); ++i) {
    traps += race[i]->native_host->counters().unexplored_hits;
    io += race[i]->native_host->counters().io_total() - io0[i];
    bytes += NativeBytes(*race[i]) - bytes0[i];
    instrs += race[i]->dbt_host->guest_instrs() - instrs0[i];
  }
  r->Set("native.unexplored_hits", static_cast<double>(traps));
  r->Set("hw.io_per_frame", static_cast<double>(io) / native_frames);
  r->Set("hw.bytes_per_frame", static_cast<double>(bytes) / native_frames);
  r->Set("dbt.ns_per_guest_instr", instrs == 0 ? 0.0 : 1e9 * dbt_s / instrs);
}

int NativeMode(uint64_t seed, double seconds, bool setup_only, bool trace) {
  const Workload& w = *FindWorkload("native_race");
  Result r;
  std::string why;
  if (!native::ToolchainAvailable(&why)) {
    fprintf(stderr, "pipebench: native toolchain unavailable: %s\n", why.c_str());
    return 3;
  }
  std::string workdir = native::DefaultWorkDir();

  // ---- set-up: exercise + synthesize + emit kitos, compile + load, parity ----
  Clock::time_point setup0 = Clock::now();
  TimedBatch tb = RunTimedBatch(w, seed, {os::TargetOs::kKitos});
  std::vector<std::unique_ptr<RaceDriver>> race;
  for (size_t i = 0; i < tb.batch.jobs.size(); ++i) {
    const core::BatchJobResult& job = tb.batch.jobs[i];
    if (!job.ok) {
      r.Op(false, job.name + ": job failed: " + job.error);
      continue;
    }
    auto d = std::make_unique<RaceDriver>();
    d->id = w.drivers[i];
    d->name = job.name;
    d->module = job.result.module;
    d->kitos = tb.tus[i].at(os::TargetOs::kKitos);
    r.Digest(d->name, "kitos", Digest(d->kitos));
    r.Digest(d->name, "rss1", Digest(job.result.engine.final_snapshot));
    r.Digest(d->name, "run", RunDigest(job.result.engine));

    native::RaceOptions opts;
    opts.measure = false;
    opts.fault_plan = FaultSpec(seed, kParityRates);
    opts.workdir = workdir + "/parity";
    Clock::time_point p0 = Clock::now();
    native::RaceResult parity = native::RunRace(d->id, d->kitos, d->module, opts);
    r.Add("native.parity_s", Seconds(p0, Clock::now()));
    if (!parity.ok || !parity.parity_ok) {
      r.Op(false, d->name + ": compile/parity: " + parity.error + parity.parity_detail);
      continue;
    }
    std::string err;
    Clock::time_point l0 = Clock::now();
    bool loaded = d->so.Load(parity.so_path, &err);
    r.Add("native.load_ms", 1e3 * Seconds(l0, Clock::now()));
    d->native_dev = drivers::MakeDevice(d->id);
    d->native_host =
        std::make_unique<native::NativeKitosHost>(&d->so, &d->module, d->native_dev.get());
    d->dbt_dev = drivers::MakeDevice(d->id);
    d->dbt_io = std::make_unique<hw::CountingIoProxy>(d->dbt_dev.get());
    d->dbt_host = std::make_unique<os::ConcreteWinSimHost>(drivers::DriverImage(d->id),
                                                           d->dbt_dev.get(), d->dbt_io.get());
    if (!loaded || !d->native_host->Bind(&err) || !d->native_host->Initialize() ||
        !d->dbt_host->Initialize()) {
      r.Op(false, d->name + ": load/bind/initialize: " + err);
      continue;
    }
    r.Op(true, d->name + " set-up");
    race.push_back(std::move(d));
  }
  r.Set("setup_s", Seconds(setup0, Clock::now()));
  BatchCounts(w, tb.batch, tb.wall_s, tb.tus, &r);
  for (size_t i = 0; i < tb.batch.jobs.size(); ++i) {
    r.Set("core.job_done_s." + tb.batch.jobs[i].name, tb.job_done_s[i]);
  }
  if (setup_only || race.size() != w.drivers.size()) {
    r.Print("native-setup", w, seed);
    return r.all_ok() && race.size() == w.drivers.size() ? 0 : 1;
  }

  // ---- timed part: race rounds ----
  RaceRounds(race, seconds, static_cast<uint8_t>(0x40 + seed % 0x40), &r);
  r.Set("peak_rss_mb", CpuNow().peak_rss_mb);

  // ---- traced extra, after the timed part: the host-cc share of set-up ----
  if (trace) {
    for (auto& d : race) {
      std::string err;
      Clock::time_point c0 = Clock::now();
      bool compiled = native::CompileSharedObject(
          d->kitos, workdir + "/cc/driver_kitos_" + d->name + ".so", &err);
      r.Add("native.cc_s", Seconds(c0, Clock::now()));
      r.Op(compiled, d->name + ": recompile: " + err);
    }
  }
  r.Print("native", w, seed);
  return r.all_ok() ? 0 : 1;
}

[[noreturn]] void Usage() {
  fprintf(stderr,
          "usage: pipebench batch --workload corpus_fleet|light_dist --seed N\n"
          "       pipebench probe --workload NAME --seed N\n"
          "       pipebench native --seed N [--seconds S] [--setup-only] [--trace]\n");
  exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
  }
  std::string mode = argv[1];
  std::string workload = mode == "native" ? "native_race" : "";
  uint64_t seed = 1;
  double seconds = 1;
  bool setup_only = false;
  bool trace = false;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
      }
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = atof(value().c_str());
    } else if (a == "--setup-only") {
      setup_only = true;
    } else if (a == "--trace") {
      trace = true;
    } else {
      Usage();
    }
  }
  const Workload* w = FindWorkload(workload);
  if (w == nullptr) {
    Usage();
  }
  if (mode == "batch" && w->name != "native_race") {
    return BatchMode(*w, seed);
  }
  if (mode == "probe") {
    return ProbeMode(*w, seed);
  }
  if (mode == "native") {
    return NativeMode(seed, seconds, setup_only, trace);
  }
  Usage();
}
