// Figure 8: basic block coverage vs RevNIC running time.
// Expected shape: steep initial rise, >80% within "20 minutes" for most
// drivers. Wall-clock is mapped from symbolic-execution work units
// (translation blocks executed) at a fixed rate, since absolute speed is a
// property of the host machine, not of the algorithm.
//
// All registered drivers run concurrently through core::RunBatch (each
// job owns its symbolic substrate, so the curves are identical to sequential
// runs); the timeline comes back per job.
//
// Flags (assembled into one core::ExercisePlan per job):
//   --fleet=N              parallel exercising on one batch-global N-lane
//                          fleet scheduler: all drivers' (step, shard)
//                          fan-out tasks share the lanes, longest-estimated
//                          chain first, with work stealing. Byte-identical
//                          for every N. Without it (and without the two
//                          flags below) every driver runs the sequential
//                          engine.
//   --sub-shards=K         split each step's exploration into K deterministic
//                          sub-partitions of the enumerated pending pool --
//                          shorter critical path, byte-identical for every
//                          K >= 1. 0 (default) = whole-step fan-out.
//   --dist-workers=N       run fan-out tasks on N forked worker processes
//                          (RDP1 over socketpairs); byte-identical to the
//                          in-process modes, with in-process failover on any
//                          worker failure. 0 (default) = in-process.
//   --coverage-log=PATH    stream every coverage sample as JSONL (one object
//                          per sample, tagged with the driver name); CI
//                          archives this as an artifact.
//   --faults=SPEC          deterministic fault injection during exercising:
//                          SPEC is "seed:kind=rate,..." (hw::ParseFaultPlan;
//                          e.g. 42:irq-drop=0.2,reg-corrupt=0.05 or
//                          7:all=0.1). Fault counts ride in the JSONL stream
//                          and the printed summary; the soak CI tier sweeps
//                          this under sanitizers.
#include <chrono>
#include <cstring>
#include <memory>

#include "bench/bench_common.h"
#include "hw/faults.h"
#include "util/jsonl.h"

int main(int argc, char** argv) {
  using namespace revnic;
  core::ExercisePlan plan;
  const char* coverage_log = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], "--faults=", 9) == 0) {
      std::string error;
      if (!hw::ParseFaultPlan(argv[i] + 9, &plan.faults, &error)) {
        fprintf(stderr, "--faults: %s\n", error.c_str());
        return 2;
      }
    } else if (strncmp(argv[i], "--sub-shards=", 13) == 0) {
      plan.sub_shards = static_cast<unsigned>(atoi(argv[i] + 13));
    } else if (strncmp(argv[i], "--dist-workers=", 15) == 0) {
      plan.worker_processes = static_cast<unsigned>(atoi(argv[i] + 15));
    } else if (strncmp(argv[i], "--fleet=", 8) == 0) {
      plan.fleet = static_cast<unsigned>(atoi(argv[i] + 8));
      if (plan.fleet < 1) {
        // The bench makes machine-independent parity claims, so "auto" (0)
        // is rejected: the lane count must be explicit.
        fprintf(stderr, "--fleet wants an explicit count >= 1, got '%s'\n", argv[i] + 8);
        return 2;
      }
    } else if (strncmp(argv[i], "--coverage-log=", 15) == 0) {
      coverage_log = argv[i] + 15;
    } else {
      fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  if (plan.fleet >= 1) {
    // Every job defers to the batch template and so joins its shared fleet.
    plan.threads = 0;
  }

  bench::PrintHeader("Figure 8: basic block coverage vs running time", "Figure 8");

  // Work-to-minutes mapping: 800 executed translation blocks ~ 1 "minute",
  // calibrated so complete runs land in the paper's 15-20 minute window
  // (absolute speed is a host property; the curve shape is the claim).
  constexpr double kWorkPerMinute = 800;

  std::unique_ptr<JsonlWriter> log_sink;
  if (coverage_log != nullptr) {
    log_sink = std::make_unique<JsonlWriter>(coverage_log);
    if (!log_sink->ok()) {
      fprintf(stderr, "cannot open %s\n", coverage_log);
      return 2;
    }
  }

  std::vector<core::BatchJob> jobs;
  for (const drivers::TargetInfo& t : drivers::AllTargets()) {
    core::BatchJob job;
    job.name = t.name;
    job.image = &drivers::DriverImage(t.id);
    job.config.pci = drivers::DriverPci(t.id);
    job.config.sample_every = 100;  // fine-grained timeline
    job.config.plan = plan;
    if (log_sink != nullptr) {
      job.config.on_coverage = core::MakeCoverageJsonlLogger(log_sink.get(), t.name);
    }
    jobs.push_back(std::move(job));
  }
  core::BatchOptions options;
  if (plan.fleet >= 1) {
    options.plan = plan;
  }
  auto wall_start = std::chrono::steady_clock::now();
  core::BatchResult batch = core::RunBatch(jobs, options);
  double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  printf("(batch: %zu drivers on %u worker threads, fleet=%u, sub-shards=%u, "
         "dist-workers=%u, wall %.1fs)\n",
         batch.jobs.size(), batch.concurrency, plan.fleet, plan.sub_shards,
         plan.worker_processes, wall_s);
  if (batch.fleet_used) {
    printf("(fleet: workers=%u tasks=%u real-steals=%u makespan=%llu "
           "static-split=%llu)\n",
           batch.fleet.workers, batch.fleet.tasks, batch.fleet.real_steals,
           (unsigned long long)batch.fleet.makespan,
           (unsigned long long)batch.fleet.static_makespan);
  }
  if (plan.faults.Enabled()) {
    printf("(fault plan: %s)\n", hw::FormatFaultPlan(plan.faults).c_str());
  }
  printf("\n");

  printf("%-8s", "minute");
  std::vector<std::vector<double>> curves;
  std::vector<std::string> names;
  std::vector<perf::SubstrateCounters> substrates;
  size_t max_minutes = 0;
  for (const core::BatchJobResult& job : batch.jobs) {
    if (!job.ok) {
      printf("\n%s FAILED: %s\n", job.name.c_str(), job.error.c_str());
      return 1;
    }
    const core::EngineResult& engine = job.result.engine;
    substrates.push_back(engine.substrate);
    std::vector<double> curve;
    double denom = static_cast<double>(engine.static_blocks);
    size_t sample = 0;
    const auto& tl = engine.timeline;
    uint64_t final_work = tl.empty() ? 0 : tl.back().work;
    size_t minutes = static_cast<size_t>(final_work / kWorkPerMinute) + 1;
    for (size_t m = 0; m <= minutes; ++m) {
      uint64_t target = static_cast<uint64_t>(m * kWorkPerMinute);
      while (sample + 1 < tl.size() && tl[sample + 1].work <= target) {
        ++sample;
      }
      double cov = tl.empty() ? 0 : 100.0 * tl[sample].covered_blocks / denom;
      curve.push_back(cov);
    }
    max_minutes = std::max(max_minutes, curve.size());
    curves.push_back(std::move(curve));
    names.push_back(job.name);
    printf("%14s", job.name.c_str());
  }
  printf("\n");
  for (size_t m = 0; m < max_minutes; ++m) {
    printf("%-8zu", m);
    for (const auto& c : curves) {
      if (m < c.size()) {
        printf("%13.1f%%", c[m]);
      } else {
        printf("%13.1f%%", c.back());  // plateau after the run finished
      }
    }
    printf("\n");
  }
  printf("\nFinal coverage:");
  for (size_t i = 0; i < curves.size(); ++i) {
    printf("  %s=%.1f%%", names[i].c_str(), curves[i].back());
  }
  printf("\n(paper: most drivers reach over 80%% in under twenty minutes)\n");
  if (plan.faults.Enabled()) {
    printf("\nFault injection (per driver):\n");
    for (const core::BatchJobResult& job : batch.jobs) {
      printf("  %-10s %s\n", job.name.c_str(),
             hw::FormatFaultStats(job.result.engine.fault_stats).c_str());
    }
  }
  printf("\nSubstrate caches (per driver):\n");
  for (size_t i = 0; i < substrates.size(); ++i) {
    printf("  %-10s %s\n", names[i].c_str(),
           perf::FormatSubstrateCounters(substrates[i]).c_str());
  }
  printf("  %-10s %s\n", "aggregate", perf::FormatSubstrateCounters(batch.aggregate).c_str());
  if (log_sink != nullptr) {
    printf("\n(coverage log: %llu JSONL samples -> %s)\n",
           static_cast<unsigned long long>(log_sink->lines_written()), coverage_log);
  }
  return 0;
}
