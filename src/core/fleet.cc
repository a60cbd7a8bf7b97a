#include "core/fleet.h"

#include <algorithm>
#include <numeric>

#include "core/fanout.h"
#include "dist/coordinator.h"

namespace revnic::core {
namespace {

unsigned ArgminLane(const std::vector<uint64_t>& loads) {
  unsigned best = 0;
  for (unsigned l = 1; l < loads.size(); ++l) {
    if (loads[l] < loads[best]) {
      best = l;
    }
  }
  return best;
}

}  // namespace

uint64_t LptMakespan(const std::vector<uint64_t>& works, unsigned lanes) {
  if (works.empty()) {
    return 0;
  }
  lanes = std::max(1u, lanes);
  std::vector<size_t> order(works.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&works](size_t a, size_t b) { return works[a] > works[b]; });
  std::vector<uint64_t> loads(lanes, 0);
  for (size_t idx : order) {
    loads[ArgminLane(loads)] += works[idx];
  }
  return *std::max_element(loads.begin(), loads.end());
}

FleetScheduler::FleetScheduler(unsigned workers, std::unique_ptr<dist::WorkerPool> pool)
    : workers_(std::max(1u, workers)), pool_(std::move(pool)) {
  lanes_.resize(workers_);
  committed_.assign(workers_, 0);
  threads_.reserve(workers_);
  for (unsigned lane = 0; lane < workers_; ++lane) {
    threads_.emplace_back([this, lane] { WorkerLoop(lane); });
  }
}

FleetScheduler::~FleetScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void FleetScheduler::SetJobSpineWork(uint32_t job, uint64_t spine_work) {
  std::lock_guard<std::mutex> lock(mu_);
  spine_work_[job] = spine_work;
}

void FleetScheduler::RunJobTasks(uint32_t job, std::vector<Task> tasks) {
  std::unique_lock<std::mutex> lock(mu_);
  for (Task& t : tasks) {
    t.job = job;
    t.estimate = std::max<uint64_t>(1, t.estimate);
    // Home placement: least-committed lane by estimate, tie lowest index --
    // the same greedy ComputeStats replays to count virtual steals.
    const unsigned home = ArgminLane(committed_);
    committed_[home] += t.estimate;
    PKey key{t.estimate, job, t.step, t.shard};
    ++outstanding_[job];
    lanes_[home].emplace(key, std::move(t));
  }
  work_cv_.notify_all();
  done_cv_.wait(lock, [this, job] {
    auto it = outstanding_.find(job);
    return it == outstanding_.end() || it->second == 0;
  });
}

uint32_t FleetScheduler::JobRealSteals(uint32_t job) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = real_steals_.find(job);
  return it == real_steals_.end() ? 0 : it->second;
}

void FleetScheduler::WorkerLoop(unsigned lane) {
  WorkerContext ctx;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Own lane first; an idle worker takes the globally best queued task
    // (highest estimate, canonical tie-break) from any other lane.
    unsigned src = static_cast<unsigned>(lanes_.size());
    if (!lanes_[lane].empty()) {
      src = lane;
    } else {
      const PKey* best = nullptr;
      for (unsigned l = 0; l < lanes_.size(); ++l) {
        if (lanes_[l].empty()) {
          continue;
        }
        const PKey& k = lanes_[l].begin()->first;
        if (best == nullptr || k < *best) {
          best = &lanes_[l].begin()->first;
          src = l;
        }
      }
    }
    if (src == lanes_.size()) {
      if (stop_) {
        return;
      }
      work_cv_.wait(lock);
      continue;
    }
    auto it = lanes_[src].begin();
    Task task = std::move(it->second);
    lanes_[src].erase(it);
    if (src != lane) {
      ++real_steals_[task.job];
    }
    lock.unlock();
    const uint64_t work = task.run ? task.run(ctx) : 0;
    lock.lock();
    records_.push_back({task.job, task.step, task.shard, task.estimate, work});
    if (--outstanding_[task.job] == 0) {
      done_cv_.notify_all();
    }
  }
}

FleetBatchStats FleetScheduler::ComputeStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetBatchStats st;
  st.workers = workers_;
  st.tasks = static_cast<uint32_t>(records_.size());
  for (const auto& [job, steals] : real_steals_) {
    st.real_steals += steals;
  }
  for (const auto& [job, spine] : spine_work_) {
    st.max_spine_work = std::max(st.max_spine_work, spine);
  }

  // Canonical record order: all scheduling models walk (job, step, shard),
  // never completion order, so the makespans are pure functions of the
  // recorded work -- reproducible on any machine.
  std::vector<FleetTaskRecord> recs = records_;
  std::sort(recs.begin(), recs.end(), [](const FleetTaskRecord& a, const FleetTaskRecord& b) {
    if (a.job != b.job) {
      return a.job < b.job;
    }
    if (a.step != b.step) {
      return a.step < b.step;
    }
    return a.shard < b.shard;
  });
  for (const FleetTaskRecord& r : recs) {
    st.total_task_work += r.work;
  }
  const unsigned W = workers_;

  // Home lanes: the estimate-greedy placement RunJobTasks makes, replayed
  // in canonical order.
  std::vector<uint64_t> committed(W, 0);
  std::vector<unsigned> vhome(recs.size(), 0);
  for (size_t i = 0; i < recs.size(); ++i) {
    const unsigned lane = ArgminLane(committed);
    vhome[i] = lane;
    committed[lane] += std::max<uint64_t>(1, recs[i].estimate);
  }

  // Steal model: LPT over the actual per-task work -- the placement a fleet
  // with stealing converges to (an idle lane always takes the heaviest
  // queued chain). A task landing off its home lane is one virtual steal,
  // so virtual_steals measures how far the estimates were off.
  std::vector<size_t> order(recs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&recs](size_t a, size_t b) { return recs[a].work > recs[b].work; });
  std::vector<uint64_t> steal_load(W, 0);
  for (size_t idx : order) {
    const unsigned lane = ArgminLane(steal_load);
    steal_load[lane] += recs[idx].work;
    if (lane != vhome[idx]) {
      ++st.virtual_steals;
    }
  }
  st.steal_makespan =
      recs.empty() ? 0 : *std::max_element(steal_load.begin(), steal_load.end());

  // Static-split model, same records: for every outer x inner split of
  // the same W workers, each job costs spine + LPT(its tasks over inner
  // lanes), jobs list-schedule onto the outer lanes in input order, and the
  // baseline takes the BEST split -- a generous static opponent.
  std::map<uint32_t, std::vector<uint64_t>> by_job;
  for (const FleetTaskRecord& r : recs) {
    by_job[r.job].push_back(r.work);
  }
  for (const auto& [job, spine] : spine_work_) {
    by_job[job];  // spine-only jobs still occupy an outer lane
  }
  uint64_t best_static = 0;
  bool have_static = false;
  for (unsigned outer = 1; outer <= W; ++outer) {
    if (W % outer != 0) {
      continue;
    }
    const unsigned inner = W / outer;
    std::vector<uint64_t> outer_load(outer, 0);
    for (const auto& [job, works] : by_job) {
      auto sit = spine_work_.find(job);
      const uint64_t spine = sit == spine_work_.end() ? 0 : sit->second;
      outer_load[ArgminLane(outer_load)] += spine + LptMakespan(works, inner);
    }
    const uint64_t candidate = *std::max_element(outer_load.begin(), outer_load.end());
    if (!have_static || candidate < best_static) {
      best_static = candidate;
      have_static = true;
    }
  }
  st.static_makespan = best_static;

  // Spines run on their own job threads, overlapped with the fan-out; the
  // heaviest spine floors the batch.
  st.steal_makespan = std::max(st.steal_makespan, st.max_spine_work);
  st.makespan = st.steal_makespan;
  st.lane_work = std::move(steal_load);
  return st;
}

std::unique_ptr<FleetScheduler> StartFleet(const ExercisePlan& plan,
                                           const std::vector<FleetJob>& jobs) {
  const unsigned worker_processes = plan.worker_processes;
  const unsigned lanes = std::max(PlanLanes(plan), worker_processes);
  std::unique_ptr<dist::WorkerPool> pool;
  if (worker_processes >= 1) {
    auto table = std::make_shared<std::vector<FleetJob>>(jobs);
    for (FleetJob& job : *table) {
      // Hooks and the scheduler must not cross the fork: children never
      // observe a cancel, and monitoring is coordinator-side.
      job.config.cancel = nullptr;
      job.config.on_coverage = nullptr;
      job.config.fleet = nullptr;
    }
    dist::WorkerPool::Options wopts;
    wopts.workers = worker_processes;
    pool = std::make_unique<dist::WorkerPool>(
        wopts, [table](const dist::ContextCache& contexts, const std::vector<uint8_t>& work,
                       std::vector<uint8_t>* reply, std::string* err) {
          FanoutTask task;
          uint32_t job = 0;
          std::string key;
          std::vector<uint8_t> inline_snapshot;
          if (!DeserializeFanoutWork(work, &job, &task, &key, &inline_snapshot, err)) {
            return false;
          }
          if (job >= table->size() || (*table)[job].image == nullptr) {
            *err = "fanout work names an unknown fleet job";
            return false;
          }
          const std::vector<uint8_t>* snapshot = &inline_snapshot;
          if (inline_snapshot.empty() && !key.empty()) {
            // Snapshot handoff rides the context cache: shipped at most
            // once per worker per (job, step), referenced by key here.
            snapshot = contexts.Find(key);
            if (snapshot == nullptr) {
              *err = "fanout work references uncached context: " + key;
              return false;
            }
          }
          const FleetJob& fj = (*table)[job];
          *reply = SerializeFanoutResult(
              Engine::ExecuteFanoutTask(*fj.image, fj.config, task, *snapshot));
          return true;
        });
    if (pool->alive() == 0) {
      pool.reset();  // every fork/handshake failed; run fully in-process
    }
  }
  return std::make_unique<FleetScheduler>(lanes, std::move(pool));
}

}  // namespace revnic::core
