// Batch sweep: the fleet scheduler across the full driver batch, whole-step
// fan-out (K=0) against four sub-shards per step (K=4).
//
// Runs all registered drivers through core::RunBatch on one shared fleet,
// once per K, and reports each batch's makespan two ways, both computed
// from that run's records: the LPT placement the stealing fleet converges
// to, and the best static outer x inner split of the same per-task work as
// a comparison column. Makespans are deterministic virtual placements over
// the RECORDED per-task work units (executed translation blocks,
// machine-independent; see core/fleet.h), so they reproduce bit for bit on
// any host. Each row also carries the batch's measured wall time on this
// host, and the summary names the better K by both. The merged checkpoints
// do not depend on placement (pinned by tests/dist_test.cc).
//
// Flags:
//   --json=PATH    machine-readable results (BENCH_pr10.json in CI)
//   --max-work=N   per-driver exercise budget (default 60000: big enough for
//                  per-step skew to show, small enough for the smoke tier)
//   --fleet=N      fleet lane count (default 4)
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/session.h"
#include "drivers/drivers.h"

namespace {

using namespace revnic;

constexpr unsigned kSubShards[] = {0, 4};

struct DriverRow {
  std::string name;
  core::ParallelExerciseStats stats;
  bench::WorkHistogram hist;
};

struct ConfigRow {
  unsigned sub_shards = 0;
  bool ok = false;
  double wall_s = 0;
  core::FleetBatchStats fleet;
  std::vector<DriverRow> drivers;
};

ConfigRow RunConfig(unsigned sub_shards, uint64_t max_work, unsigned fleet_lanes) {
  core::ExercisePlan plan;
  plan.sub_shards = sub_shards;
  plan.fleet = fleet_lanes;
  plan.threads = 0;  // jobs defer to the batch template and share its fleet
  std::vector<core::BatchJob> jobs;
  for (const drivers::TargetInfo& t : drivers::AllTargets()) {
    core::BatchJob job;
    job.name = t.name;
    job.image = &drivers::DriverImage(t.id);
    job.config.pci = drivers::DriverPci(t.id);
    job.config.max_work = max_work;
    job.config.plan = plan;
    jobs.push_back(std::move(job));
  }
  core::BatchOptions options;
  options.plan = plan;
  auto start = std::chrono::steady_clock::now();
  core::BatchResult batch = core::RunBatch(jobs, options);
  ConfigRow row;
  row.sub_shards = sub_shards;
  row.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (const core::BatchJobResult& job : batch.jobs) {
    if (!job.ok) {
      fprintf(stderr, "K=%u %s failed: %s\n", sub_shards, job.name.c_str(), job.error.c_str());
      continue;
    }
    DriverRow d;
    d.name = job.name;
    d.stats = job.result.engine.parallel;
    d.hist = bench::SummarizeTaskWorks(d.stats.task_works);
    row.drivers.push_back(std::move(d));
  }
  row.fleet = batch.fleet;
  // A run that recorded no fan-out work has nothing to report.
  row.ok = batch.AllOk() && batch.fleet_used && row.fleet.tasks > 0 && row.fleet.makespan > 0;
  if (!row.ok) {
    printf("K=%u FAILED: %s\n", sub_shards,
           batch.fleet_used ? "no fan-out work recorded" : "no fleet ran");
  }
  return row;
}

void PrintConfig(const ConfigRow& c) {
  const core::FleetBatchStats& fs = c.fleet;
  printf("\nK=%u: total fan-out work %llu; LPT vs static split of the same records: "
         "%llu vs %llu (%.1f%% shorter)\n",
         c.sub_shards, (unsigned long long)fs.total_task_work, (unsigned long long)fs.makespan,
         (unsigned long long)fs.static_makespan,
         100.0 * (1.0 - (double)fs.makespan / (double)fs.static_makespan));
  printf("  %-12s %8s %12s   %s\n", "driver", "tasks", "handoff-B",
         "task-work min/med/p95/max");
  for (const DriverRow& d : c.drivers) {
    printf("  %-12s %8u %12llu   %llu/%llu/%llu/%llu\n", d.name.c_str(), d.stats.tasks,
           (unsigned long long)d.stats.handoff_bytes, (unsigned long long)d.hist.min,
           (unsigned long long)d.hist.median, (unsigned long long)d.hist.p95,
           (unsigned long long)d.hist.max);
  }
}

void WriteConfigJson(FILE* f, const ConfigRow& c) {
  const core::FleetBatchStats& fs = c.fleet;
  fprintf(f,
          "    {\"sub_shards\": %u, \"ok\": %s, \"wall_s\": %.3f, \"makespan\": %llu, "
          "\"static_makespan\": %llu,\n"
          "     \"steal_makespan\": %llu, \"tasks\": %u, \"virtual_steals\": %u, "
          "\"real_steals\": %u,\n"
          "     \"max_spine_work\": %llu, \"total_task_work\": %llu,\n"
          "     \"drivers\": [",
          c.sub_shards, c.ok ? "true" : "false", c.wall_s, (unsigned long long)fs.makespan,
          (unsigned long long)fs.static_makespan, (unsigned long long)fs.steal_makespan, fs.tasks,
          fs.virtual_steals, fs.real_steals, (unsigned long long)fs.max_spine_work,
          (unsigned long long)fs.total_task_work);
  for (size_t i = 0; i < c.drivers.size(); ++i) {
    const DriverRow& d = c.drivers[i];
    fprintf(f,
            "%s\n      {\"name\": \"%s\", \"tasks\": %u, \"critical_path\": %llu,\n"
            "       \"handoff_bytes\": %llu, \"snapshot_bytes_shipped\": %llu, "
            "\"snapshot_bytes_reused\": %llu,\n"
            "       \"task_work_min\": %llu, \"task_work_median\": %llu, "
            "\"task_work_p95\": %llu, \"task_work_max\": %llu}",
            i == 0 ? "" : ",", d.name.c_str(), d.stats.tasks,
            (unsigned long long)d.stats.critical_path, (unsigned long long)d.stats.handoff_bytes,
            (unsigned long long)d.stats.snapshot_bytes_shipped,
            (unsigned long long)d.stats.snapshot_bytes_reused, (unsigned long long)d.hist.min,
            (unsigned long long)d.hist.median, (unsigned long long)d.hist.p95,
            (unsigned long long)d.hist.max);
  }
  fprintf(f, "\n     ]}");
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  uint64_t max_work = 60'000;
  unsigned fleet_lanes = 4;
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (strncmp(argv[i], "--max-work=", 11) == 0) {
      max_work = strtoull(argv[i] + 11, nullptr, 10);
    } else if (strncmp(argv[i], "--fleet=", 8) == 0) {
      fleet_lanes = static_cast<unsigned>(atoi(argv[i] + 8));
    } else {
      fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  bench::PrintHeader("Batch sweep: the shared fleet scheduler", "the perf ledger");
  printf("drivers: all registered, max-work=%llu, fleet=%u "
         "(makespans are deterministic virtual placements over recorded work "
         "units; wall is this host)\n\n",
         (unsigned long long)max_work, fleet_lanes);

  std::vector<ConfigRow> configs;
  for (unsigned k : kSubShards) {
    configs.push_back(RunConfig(k, max_work, fleet_lanes));
  }
  bool ok = true;
  const ConfigRow* best_units = nullptr;
  const ConfigRow* best_wall = nullptr;
  printf("%4s %10s %10s %10s %8s %8s %8s %8s\n", "K", "makespan", "static", "spine", "tasks",
         "v-steals", "steals", "wall-s");
  for (const ConfigRow& c : configs) {
    ok = ok && c.ok;
    if (!c.ok) {
      continue;
    }
    const core::FleetBatchStats& fs = c.fleet;
    printf("%4u %10llu %10llu %10llu %8u %8u %8u %8.2f\n", c.sub_shards,
           (unsigned long long)fs.makespan, (unsigned long long)fs.static_makespan,
           (unsigned long long)fs.max_spine_work, fs.tasks, fs.virtual_steals, fs.real_steals,
           c.wall_s);
    if (best_units == nullptr || fs.makespan < best_units->fleet.makespan) {
      best_units = &c;
    }
    if (best_wall == nullptr || c.wall_s < best_wall->wall_s) {
      best_wall = &c;
    }
  }
  if (ok) {
    printf("\nbest: K=%u by virtual makespan, K=%u by measured wall\n", best_units->sub_shards,
           best_wall->sub_shards);
    for (const ConfigRow& c : configs) {
      PrintConfig(c);
    }
  }
  printf("\n(checkpoints do not depend on placement -- pinned by "
         "tests/dist_test.cc.)\n");

  if (!json_path.empty()) {
    FILE* f = fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    fprintf(f, "{\n  \"bench\": \"batch_sweep\",\n  \"pr\": 10,\n");
    fprintf(f, "  \"max_work\": %llu,\n  \"fleet\": %u,\n  \"ok\": %s,\n",
            (unsigned long long)max_work, fleet_lanes, ok ? "true" : "false");
    if (ok) {
      fprintf(f, "  \"best_sub_shards_by_makespan\": %u, \"best_sub_shards_by_wall\": %u,\n",
              best_units->sub_shards, best_wall->sub_shards);
    }
    fprintf(f, "  \"configs\": [\n");
    for (size_t i = 0; i < configs.size(); ++i) {
      WriteConfigJson(f, configs[i]);
      fprintf(f, "%s\n", i + 1 < configs.size() ? "," : "");
    }
    fprintf(f, "  ]\n}\n");
    fclose(f);
    printf("(json -> %s)\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
