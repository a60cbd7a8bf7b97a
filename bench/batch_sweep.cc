// Batch sweep: the fleet scheduler across the full driver batch.
//
// Runs all registered drivers through core::RunBatch on one shared fleet
// and reports the batch makespan two ways, both computed from that one
// run's records: the LPT placement the stealing fleet converges to, and the
// best static outer x inner split of the same per-task work as a
// comparison column. Makespans are deterministic virtual placements over
// the RECORDED per-task work units (executed translation blocks,
// machine-independent; see core/fleet.h), so the numbers reproduce bit for
// bit on any host. The merged checkpoints do not depend on placement
// (pinned by tests/dist_test.cc).
//
// Flags:
//   --json=PATH    machine-readable results (BENCH_pr10.json in CI)
//   --max-work=N   per-driver exercise budget (default 60000: big enough for
//                  per-step skew to show, small enough for the smoke tier)
//   --fleet=N      fleet lane count (default 4)
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/session.h"
#include "drivers/drivers.h"

namespace {

struct DriverRow {
  std::string name;
  revnic::core::ParallelExerciseStats stats;
  revnic::bench::WorkHistogram hist;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace revnic;
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
         "units)\n\n",
         (unsigned long long)max_work, fleet_lanes);

  core::ExercisePlan plan;
  plan.sub_shards = 4;
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
  core::BatchResult batch = core::RunBatch(jobs, options);

  std::vector<DriverRow> rows;
  for (const core::BatchJobResult& job : batch.jobs) {
    if (!job.ok) {
      fprintf(stderr, "%s failed: %s\n", job.name.c_str(), job.error.c_str());
      continue;
    }
    DriverRow row;
    row.name = job.name;
    row.stats = job.result.engine.parallel;
    row.hist = bench::SummarizeTaskWorks(row.stats.task_works);
    rows.push_back(std::move(row));
  }
  const core::FleetBatchStats& fs = batch.fleet;
  // A run that recorded no fan-out work has nothing to report.
  const bool ok = batch.AllOk() && batch.fleet_used && fs.tasks > 0 && fs.makespan > 0;
  if (!ok) {
    printf("FAILED: %s\n", batch.fleet_used ? "no fan-out work recorded" : "no fleet ran");
  } else {
    printf("%10s %10s %10s %8s %8s %8s\n", "makespan", "static", "spine", "tasks",
           "v-steals", "steals");
    printf("%10llu %10llu %10llu %8u %8u %8u\n", (unsigned long long)fs.makespan,
           (unsigned long long)fs.static_makespan, (unsigned long long)fs.max_spine_work,
           fs.tasks, fs.virtual_steals, fs.real_steals);
    printf("\nfleet=%u, total fan-out work %llu; LPT vs static split of the same "
           "records: %llu vs %llu (%.1f%% shorter)\n",
           fs.workers, (unsigned long long)fs.total_task_work, (unsigned long long)fs.makespan,
           (unsigned long long)fs.static_makespan,
           100.0 * (1.0 - (double)fs.makespan / (double)fs.static_makespan));
    printf("\nper-driver fan-out:\n");
    printf("  %-12s %8s %12s   %s\n", "driver", "tasks", "handoff-B",
           "task-work min/med/p95/max");
    for (const DriverRow& d : rows) {
      printf("  %-12s %8u %12llu   %llu/%llu/%llu/%llu\n", d.name.c_str(), d.stats.tasks,
             (unsigned long long)d.stats.handoff_bytes, (unsigned long long)d.hist.min,
             (unsigned long long)d.hist.median, (unsigned long long)d.hist.p95,
             (unsigned long long)d.hist.max);
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
    fprintf(f, "  \"max_work\": %llu,\n  \"fleet\": %u,\n",
            (unsigned long long)max_work, fleet_lanes);
    fprintf(f,
            "  \"ok\": %s, \"makespan\": %llu, \"static_makespan\": %llu, "
            "\"steal_makespan\": %llu,\n"
            "  \"tasks\": %u, \"virtual_steals\": %u, \"real_steals\": %u, "
            "\"max_spine_work\": %llu, \"total_task_work\": %llu,\n",
            ok ? "true" : "false", (unsigned long long)fs.makespan,
            (unsigned long long)fs.static_makespan, (unsigned long long)fs.steal_makespan,
            fs.tasks, fs.virtual_steals, fs.real_steals,
            (unsigned long long)fs.max_spine_work, (unsigned long long)fs.total_task_work);
    fprintf(f, "  \"drivers\": [");
    for (size_t i = 0; i < rows.size(); ++i) {
      const DriverRow& d = rows[i];
      fprintf(f,
              "%s\n    {\"name\": \"%s\", \"tasks\": %u, \"critical_path\": %llu,\n"
              "     \"handoff_bytes\": %llu, \"snapshot_bytes_shipped\": %llu, "
              "\"snapshot_bytes_reused\": %llu,\n"
              "     \"task_work_min\": %llu, \"task_work_median\": %llu, "
              "\"task_work_p95\": %llu, \"task_work_max\": %llu}",
              i == 0 ? "" : ",", d.name.c_str(), d.stats.tasks,
              (unsigned long long)d.stats.critical_path,
              (unsigned long long)d.stats.handoff_bytes,
              (unsigned long long)d.stats.snapshot_bytes_shipped,
              (unsigned long long)d.stats.snapshot_bytes_reused,
              (unsigned long long)d.hist.min, (unsigned long long)d.hist.median,
              (unsigned long long)d.hist.p95, (unsigned long long)d.hist.max);
    }
    fprintf(f, "\n  ]\n}\n");
    fclose(f);
    printf("(json -> %s)\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
