// Fan-out task descriptors + their RDP1 payload encodings (PR 8).
//
// Under the staged parallel exerciser a fan-out task is one (script step,
// sub-shard) pair. Fleet lanes and the forked dist workers run the exact
// same task entry point (core::Engine's RunFanoutTask) on the same
// inputs; this header defines the task/result structs and the byte encodings
// that carry them across the RDP1 socket (src/dist/wire.h). The result
// encoding round-trips every EngineResult field the canonical merge and the
// diagnostics consume, so a segment computed in a worker process merges to
// the same bytes as one computed in-process.
#ifndef REVNIC_CORE_FANOUT_H_
#define REVNIC_CORE_FANOUT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"

namespace revnic::core {

// One unit of fan-out work. sub_shards == 0 is the whole-step architecture
// (one task per step, sub_shard always 0); K >= 1 splits the step across K
// tasks that each own the enumerated roots hashing to their shard.
struct FanoutTask {
  uint64_t step = 0;
  uint32_t sub_shard = 0;
  uint32_t sub_shards = 0;
};

// One merged-checkpoint slot produced by a task: ordinal 0 is the whole-step
// segment (sub_shards == 0) or the enumeration segment (sub_shards >= 1,
// owned by sub-shard 0); ordinal 1+i is enumerated root i's segment.
struct FanoutSlot {
  uint32_t ordinal = 0;
  bool begun = false;  // false = budget gate closed before the segment began
  EngineResult result;
};

struct FanoutTaskResult {
  std::vector<FanoutSlot> slots;
  // Roots this task's enumeration probe discovered (identical across the
  // step's K tasks by construction; the merge uses it to size the step's
  // slot layout). 0 when sub_shards == 0.
  uint64_t root_count = 0;
  // Executed work on this task's chain, across all its replicas -- the
  // critical-path unit REVNIC_PARALLEL_STATS reports.
  uint64_t task_work = 0;
  // Portions of task_work that are handoff overhead rather than segment
  // exploration: spine-prefix re-execution (the restore fallback) and
  // sub-shard enumeration re-runs.
  uint64_t replayed_work = 0;
  uint64_t enum_work = 0;
  uint64_t restore_failures = 0;
};

// Work-item payload ("FWK2"): batch job index + task descriptor + RSS1
// start-snapshot handoff. The snapshot travels one of two ways: inline
// bytes, or by reference via `context_key` -- a key into the worker's
// per-process context cache (src/dist/coordinator.h ships the blob at most
// once per worker with a kContext frame, so the step's K sub-shard tasks
// and stolen tasks don't re-ship state). Both key and inline bytes empty =
// no snapshot; the worker re-executes the spine prefix instead.
//
// SerializeFanoutWorkInto writes into *out in place (cleared, capacity
// kept): the fan-out path keeps ONE such buffer per fleet lane, so
// steady-state handoff does no per-task reallocation.
void SerializeFanoutWorkInto(uint32_t job, const FanoutTask& task,
                             const std::string& context_key,
                             const std::vector<uint8_t>& snapshot,
                             std::vector<uint8_t>* out);
bool DeserializeFanoutWork(const std::vector<uint8_t>& bytes, uint32_t* job, FanoutTask* task,
                           std::string* context_key, std::vector<uint8_t>* snapshot,
                           std::string* error);

// Result payload: every slot's merge-relevant EngineResult fields (bundle,
// coverage, timeline, counter blocks, entries, call counts, apis, fault
// stats) in the RCP1 field order -- final_snapshot and the runtime-only
// diagnostics are deliberately not carried.
std::vector<uint8_t> SerializeFanoutResult(const FanoutTaskResult& result);
bool DeserializeFanoutResult(const std::vector<uint8_t>& bytes, FanoutTaskResult* out,
                             std::string* error);

}  // namespace revnic::core

#endif  // REVNIC_CORE_FANOUT_H_
