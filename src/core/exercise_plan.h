// ExercisePlan: the one way to configure how a driver's exercise stage is
// parallelized and perturbed.
//
//   core::ExercisePlan plan;
//   plan.fleet = 4;              // fan-out lanes (placement only)
//   plan.sub_shards = 4;         // split heavy steps into K pool partitions
//   plan.worker_processes = 2;   // hand shard tasks to forked workers (RDP1)
//   plan.faults = my_fault_plan;
//   config.plan = plan;
//
// Five fields, two roles:
//
//   * Output class. A plan runs either the sequential exerciser or the
//     staged parallel one (spine + (step, shard) fan-out + canonical
//     merge); the two explore different trees and so produce different
//     bytes. The class is a pure function of the plan -- never of the host's
//     core count or of a batch's size -- and IsSequentialPlan() below is the
//     one definition: sequential iff threads == 1 && sub_shards == 0 &&
//     worker_processes == 0. Within the parallel class, sub_shards (K = 0
//     vs K >= 1 are distinct slot layouts) and faults shape the bytes.
//   * Placement. PlanLanes() is the number of core::FleetScheduler lanes the
//     fan-out tasks run on: `fleet` if it is >= 1, else `threads`, with 0
//     meaning "one per hardware thread". worker_processes also only places
//     tasks (on forked workers instead of lanes), and a fleet never has
//     fewer lanes than worker processes (a lane blocks while its task runs
//     on a worker; see core::StartFleet). Placement never changes a
//     byte: for a fixed seed the merged result is identical for every lane
//     count and worker-process count, clean and under faults
//     (tests/dist_test.cc pins the grid).
//
// `fleet` alone never selects the parallel class: a plan with only
// `fleet = N` set keeps threads == 1 and so runs the sequential exerciser,
// with no fleet at all. Ask for N parallel lanes with
// `{.threads = 0, .fleet = N}` (or `threads = N`).
//
// `threads` and `fleet` both still exist because they are two spellings of
// lanes that callers already use: `threads == 1` is the sequential
// selector, and the benchmark's plan builder (perfbench/pipebench.cc
// FleetPlan()) sets both `threads = 0` and `fleet = N`. The removed knobs
// (the fan-out handoff strategy and the switch that pinned tasks to their
// home lanes) are listed in the migration table in src/core/README.md.
// The determinism argument lives in src/symex/README.md; src/dist/README.md
// covers the wire protocol and the failover semantics of the multi-process
// mode.
#ifndef REVNIC_CORE_EXERCISE_PLAN_H_
#define REVNIC_CORE_EXERCISE_PLAN_H_

#include <thread>

#include "hw/faults.h"

namespace revnic::core {

struct ExercisePlan {
  // Fan-out lanes when `fleet` is 0. 1 (default) with sub_shards and
  // worker_processes at 0 selects the sequential exerciser; any other value
  // selects the parallel class, and 0 sizes the lanes for the hardware.
  // Under RunBatch, 0 also means "defer to the batch's plan template".
  unsigned threads = 1;
  // Intra-step sub-sharding: 0 (default) fans out whole steps (one task per
  // script step). K >= 1 splits each step's exploration into K
  // deterministic sub-partitions of the enumerated pending pool -- a stable
  // hash of state identity assigns each enumerated root to one of the K
  // sub-shards -- lifting the per-driver parallelism ceiling past the
  // script length. Merged bytes are identical for every K >= 1 (K only
  // routes root ownership; each root explores in an isolated replica), but
  // K = 0 and K >= 1 are distinct exploration shapes with distinct bytes.
  unsigned sub_shards = 0;
  // Multi-process exercising: 0 (default) runs every fan-out task in
  // process. N >= 1 forks N worker processes before the fan-out and hands
  // (snapshot, sub-shard) work items to them over the "RDP1" framed
  // protocol (src/dist/). A worker crash, timeout, or malformed reply fails
  // the shard over to in-process execution -- never the run -- and the
  // merged bytes are identical either way (the workers run the exact
  // in-process task code on serialized inputs).
  unsigned worker_processes = 0;
  // Deterministic fault injection at the shell-device boundary (register
  // read-back corruption, DMA stall/bus-error poisoning, perturbed scripted
  // IRQs). Disabled by default. See src/hw/README.md.
  hw::FaultPlan faults;
  // Fan-out lanes; overrides `threads` for placement when >= 1, but does
  // not select the parallel class by itself (leave `threads` at 1 and the
  // plan stays sequential). On a
  // RunBatch template the lanes are one core::FleetScheduler shared by
  // every deferring job's tasks (cross-driver work stealing); on a
  // standalone run they are a private fleet, a batch of one. Never changes
  // the output class and never enters the checkpoint config fingerprint.
  unsigned fleet = 0;
};

// The output class: true selects the sequential exerciser, false the staged
// parallel one. Engine::Run, RunBatch and the checkpoint config fingerprint
// all key off this one function.
inline bool IsSequentialPlan(const ExercisePlan& plan) {
  return plan.threads == 1 && plan.sub_shards == 0 && plan.worker_processes == 0;
}

// Fan-out lanes of a parallel-class plan: `fleet` if >= 1, else `threads`,
// 0 = one per hardware thread. Placement only.
inline unsigned PlanLanes(const ExercisePlan& plan) {
  const unsigned lanes = plan.fleet >= 1 ? plan.fleet : plan.threads;
  if (lanes >= 1) {
    return lanes;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : hw;
}

}  // namespace revnic::core

#endif  // REVNIC_CORE_EXERCISE_PLAN_H_
