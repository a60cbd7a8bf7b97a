// FleetScheduler: the one executor of parallel exercising's fan-out tasks.
//
// Every (step, shard) fan-out task runs through FleetScheduler::RunJobTasks.
// A RunBatch shares one fleet across all its deferring jobs; a standalone
// Engine run builds a private fleet, which is a batch of one. Tasks queue
// per lane in longest-estimated-chain-first order, and a lane that drains
// its own queue steals the best queued task of ANY job, so a driver that
// finishes early lends its lanes to the heavy-tailed ones.
//
// Determinism. Scheduling changes placement and timing, never results:
// every fan-out task is a pure function of its RSS1 snapshot, and the
// engine's canonical merge walks fixed (step, slot-ordinal) positions, so
// merged checkpoints are byte-identical for every lane count, in-process
// and multi-process (tests/dist_test.cc pins the grid). The reported batch
// makespans are deterministic virtual placements computed after the run
// from the RECORDED per-task work units (executed translation blocks,
// machine-independent): LPT over actual work (the placement stealing
// converges to) and, for comparison, the best static outer x inner split
// of the same records. Live dispatch follows the same policy dynamically;
// its actual interleaving is monitoring-only (FleetBatchStats::real_steals).
//
// Estimates are the engine's per-step spine work split across the step's
// shards. They are queue priorities only, and they depend on nothing but
// the job itself: no state survives from one fleet to the next.
#ifndef REVNIC_CORE_FLEET_H_
#define REVNIC_CORE_FLEET_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/engine.h"

namespace revnic::dist {
class WorkerPool;
}

namespace revnic::core {

// One completed task, the deterministic input of the virtual placement.
struct FleetTaskRecord {
  uint32_t job = 0;
  uint64_t step = 0;
  uint32_t shard = 0;
  uint64_t estimate = 0;  // queue priority the task was submitted with
  uint64_t work = 0;      // executed work units (deterministic)
};

// Fleet-level scheduling stats. Every makespan is a deterministic virtual
// placement over the recorded per-task work units -- max over lanes of
// summed task work, floored by the largest spine (job spines run on their
// own threads, overlapped with the fan-out). real_steals is the only
// wall-schedule-dependent figure; everything else is reproducible bit for
// bit for a fixed seed and plan, also across fleets in one process.
struct FleetBatchStats {
  unsigned workers = 0;           // fleet lanes
  uint32_t tasks = 0;             // recorded fan-out tasks, all jobs
  uint64_t total_task_work = 0;   // summed fan-out work units
  uint64_t max_spine_work = 0;    // heaviest job spine
  uint64_t makespan = 0;          // the fleet's model: steal_makespan
  uint64_t static_makespan = 0;   // best static outer x inner split, same records
  uint64_t steal_makespan = 0;    // LPT over actual per-task work
  uint32_t virtual_steals = 0;    // tasks LPT places off their estimate-greedy home
  uint32_t real_steals = 0;       // live off-home executions (monitoring only)
  uint32_t failovers = 0;         // dist tasks that fell back in-process
  std::vector<uint64_t> lane_work;  // LPT virtual lane loads
};

// Deterministic LPT list schedule: works sorted descending (ties by input
// index), each to the least-loaded of `lanes` lanes (ties lowest index).
// Returns the resulting makespan. The scheduling-theory bound the fleet's
// stealing approaches on real cores.
uint64_t LptMakespan(const std::vector<uint64_t>& works, unsigned lanes);

class FleetScheduler {
 public:

  // Per-worker state handed to every task closure the worker runs. The
  // scratch buffer is the one serialization buffer per worker for RSS1
  // work-item handoff: closures serialize into it in place, so steady-state
  // fan-out does no per-task payload reallocation.
  struct WorkerContext {
    std::vector<uint8_t> scratch;
  };

  // One fan-out unit. `run` executes on a fleet worker and returns the work
  // units the task actually executed (recorded for the virtual placement).
  struct Task {
    uint32_t job = 0;
    uint64_t step = 0;
    uint32_t shard = 0;
    uint64_t estimate = 1;
    std::function<uint64_t(WorkerContext&)> run;
  };

  // Starts `workers` lanes. `pool` (null = fully in-process) is the RDP1
  // worker pool task closures reach via dist(); the fleet owns it and shuts
  // it down after its lanes have joined. Build fleets through StartFleet,
  // which forks the pool before any lane thread exists.
  FleetScheduler(unsigned workers, std::unique_ptr<dist::WorkerPool> pool);
  ~FleetScheduler();  // drains nothing: callers must have joined their jobs

  FleetScheduler(const FleetScheduler&) = delete;
  FleetScheduler& operator=(const FleetScheduler&) = delete;

  // Registers a job's spine work (the makespan floor).
  void SetJobSpineWork(uint32_t job, uint64_t spine_work);

  // Submits one job's tasks and blocks until all of them have executed.
  // Thread-safe: every batch job calls this concurrently from its own
  // thread; the fleet interleaves all jobs' tasks across its workers.
  void RunJobTasks(uint32_t job, std::vector<Task> tasks);

  // Live off-home executions charged to this job so far (monitoring only).
  uint32_t JobRealSteals(uint32_t job) const;

  dist::WorkerPool* dist() const { return pool_.get(); }
  unsigned workers() const { return workers_; }

  // Deterministic virtual placement over everything recorded so far; call
  // after all jobs finished. failovers is left 0 (the engine counts those
  // per job; RunBatch folds them in).
  FleetBatchStats ComputeStats() const;

 private:
  // Priority order within a lane: longest estimated chain first, ties in
  // canonical (job, step, shard) order.
  struct PKey {
    uint64_t estimate = 0;
    uint32_t job = 0;
    uint64_t step = 0;
    uint32_t shard = 0;
    bool operator<(const PKey& o) const {
      if (estimate != o.estimate) {
        return estimate > o.estimate;
      }
      if (job != o.job) {
        return job < o.job;
      }
      if (step != o.step) {
        return step < o.step;
      }
      return shard < o.shard;
    }
  };

  void WorkerLoop(unsigned lane);

  unsigned workers_;
  std::unique_ptr<dist::WorkerPool> pool_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::vector<std::map<PKey, Task>> lanes_;  // queued tasks, homed per lane
  std::vector<uint64_t> committed_;          // estimate sum placed on each lane
  std::map<uint32_t, uint32_t> outstanding_; // job -> queued + running tasks
  std::map<uint32_t, uint64_t> spine_work_;
  std::map<uint32_t, uint32_t> real_steals_;
  std::vector<FleetTaskRecord> records_;
  std::vector<std::thread> threads_;
};

// One row of a fleet's job table: fleet job i is jobs[i].
struct FleetJob {
  const isa::Image* image = nullptr;  // null: the job never runs on the fleet
  EngineConfig config;
};

// The one way to build a fleet, shared by RunBatch (one fleet per batch)
// and Engine::Run (a private fleet per standalone parallel run). With
// worker_processes >= 1 it first forks the RDP1 worker pool -- before the
// fleet's lane threads start; forking a threaded process is fragile --
// and the children inherit the job table through fork, so only snapshots
// and task descriptors ever cross the wire. Each child runs
// Engine::ExecuteFanoutTask on its job's image and config (hooks
// stripped). A pool whose every fork or handshake failed is dropped, and
// the fleet runs in-process.
//
// The fleet gets PlanLanes(plan) lanes, but never fewer than
// plan.worker_processes: a lane blocks while its task runs on a worker, so
// with fewer lanes than workers some workers would sit idle.
std::unique_ptr<FleetScheduler> StartFleet(const ExercisePlan& plan,
                                           const std::vector<FleetJob>& jobs);

}  // namespace revnic::core

#endif  // REVNIC_CORE_FLEET_H_
