// Distributed exercising: the ExercisePlan placement guarantee -- fixed
// seed => byte-identical merged checkpoints across {fleet lanes 1/2/4} x
// {in-process, 2 worker processes}, clean and faulted, on every driver, for
// whole-step fan-out (K = 0) and across sub-shard counts K >= 1 -- plus the
// RDP1 wire protocol units,
// worker-crash failover, the fleet's batch statistics, and the pcnet
// critical-path ledger bound.
#include <gtest/gtest.h>

#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <thread>

#include "core/fanout.h"
#include "core/session.h"
#include "dist/wire.h"
#include "drivers/drivers.h"
#include "hw/faults.h"

namespace revnic {
namespace {

using drivers::DriverId;

core::EngineConfig SmallConfig(DriverId id, uint64_t max_work = 60'000) {
  core::EngineConfig cfg;
  cfg.pci = drivers::DriverPci(id);
  cfg.max_work = max_work;
  cfg.max_work_per_step = max_work / 6;
  return cfg;
}

struct PlanSpec {
  unsigned lanes = 2;
  unsigned sub_shards = 2;
  unsigned workers = 0;
  const char* faults = nullptr;
};

// Always the parallel class (threads = 0), with `lanes` fleet lanes.
core::EngineConfig PlanConfig(DriverId id, const PlanSpec& spec, uint64_t max_work = 60'000) {
  core::EngineConfig cfg = SmallConfig(id, max_work);
  cfg.plan.threads = 0;
  cfg.plan.fleet = spec.lanes;
  cfg.plan.sub_shards = spec.sub_shards;
  cfg.plan.worker_processes = spec.workers;
  if (spec.faults != nullptr) {
    std::string error;
    EXPECT_TRUE(hw::ParseFaultPlan(spec.faults, &cfg.plan.faults, &error)) << error;
  }
  return cfg;
}

// Exercises `id` under `spec` and returns the full checkpoint blob (bundle +
// coverage + every counter): byte-comparing two blobs compares two runs'
// complete observable exercise output.
std::vector<uint8_t> PlanBlob(DriverId id, const PlanSpec& spec, uint64_t max_work = 60'000,
                              core::ParallelExerciseStats* stats = nullptr) {
  core::Session s(drivers::DriverImage(id), PlanConfig(id, spec, max_work));
  EXPECT_TRUE(s.Exercise());
  if (stats != nullptr) {
    *stats = s.engine().parallel;
  }
  return s.SaveCheckpoint();
}

// ---- RDP1 wire protocol units ----

TEST(Rdp1Wire, EncodeDecodeRoundTrip) {
  std::vector<uint8_t> payload = {1, 2, 3, 0xFF, 0, 42};
  std::vector<uint8_t> bytes = dist::EncodeFrame(dist::FrameType::kWork, payload);
  EXPECT_EQ(bytes.size(),
            dist::kFrameHeaderBytes + payload.size() + dist::kFrameChecksumBytes);
  dist::Frame frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(dist::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, &error),
            dist::DecodeStatus::kOk)
      << error;
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.type, dist::FrameType::kWork);
  EXPECT_EQ(frame.payload, payload);
}

TEST(Rdp1Wire, EmptyPayloadAndAllTypes) {
  for (dist::FrameType type :
       {dist::FrameType::kHello, dist::FrameType::kWork, dist::FrameType::kResult,
        dist::FrameType::kError, dist::FrameType::kShutdown}) {
    std::vector<uint8_t> bytes = dist::EncodeFrame(type, {});
    dist::Frame frame;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(dist::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, &error),
              dist::DecodeStatus::kOk)
        << error;
    EXPECT_EQ(frame.type, type);
    EXPECT_TRUE(frame.payload.empty());
  }
}

TEST(Rdp1Wire, SocketpairWriteReadRoundTrip) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::vector<uint8_t> payload(100'000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131);
  }
  // Large frame: the writer fills the socket buffer, so it must run
  // concurrently with the reader.
  std::string write_err;
  bool write_ok = false;
  std::thread writer([&] {
    write_ok = dist::WriteFrame(sv[0], dist::FrameType::kResult, payload, &write_err);
  });
  dist::Frame frame;
  std::string read_err;
  ASSERT_TRUE(dist::ReadFrame(sv[1], &frame, /*timeout_ms=*/10'000, &read_err)) << read_err;
  writer.join();
  EXPECT_TRUE(write_ok) << write_err;
  EXPECT_EQ(frame.type, dist::FrameType::kResult);
  EXPECT_EQ(frame.payload, payload);
  close(sv[0]);
  close(sv[1]);
}

TEST(Rdp1Wire, ReadTimesOutOnSilence) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  dist::Frame frame;
  std::string error;
  EXPECT_FALSE(dist::ReadFrame(sv[1], &frame, /*timeout_ms=*/50, &error));
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
  close(sv[0]);
  close(sv[1]);
}

TEST(FanoutPayloads, WorkRoundTripWithInlineSnapshot) {
  core::FanoutTask task{7, 3, 4};
  std::vector<uint8_t> snapshot = {9, 8, 7, 6, 5};
  std::vector<uint8_t> bytes;
  core::SerializeFanoutWorkInto(0, task, "", snapshot, &bytes);
  uint32_t job = 99;
  core::FanoutTask out_task;
  std::string key = "stale";
  std::vector<uint8_t> out_snapshot;
  std::string error;
  ASSERT_TRUE(
      core::DeserializeFanoutWork(bytes, &job, &out_task, &key, &out_snapshot, &error))
      << error;
  EXPECT_EQ(job, 0u);
  EXPECT_TRUE(key.empty());
  EXPECT_EQ(out_task.step, 7u);
  EXPECT_EQ(out_task.sub_shard, 3u);
  EXPECT_EQ(out_task.sub_shards, 4u);
  EXPECT_EQ(out_snapshot, snapshot);
  // A truncated work payload must fail cleanly.
  bytes.pop_back();
  EXPECT_FALSE(
      core::DeserializeFanoutWork(bytes, &job, &out_task, &key, &out_snapshot, &error));
}

TEST(FanoutPayloads, ResultRoundTripCarriesCountersAndSlots) {
  core::FanoutTaskResult r;
  r.root_count = 5;
  r.task_work = 1234;
  r.replayed_work = 100;
  r.enum_work = 44;
  r.restore_failures = 1;
  core::FanoutSlot empty_slot;
  empty_slot.ordinal = 2;
  empty_slot.begun = false;
  r.slots.push_back(std::move(empty_slot));
  std::vector<uint8_t> bytes = core::SerializeFanoutResult(r);
  core::FanoutTaskResult out;
  std::string error;
  ASSERT_TRUE(core::DeserializeFanoutResult(bytes, &out, &error)) << error;
  EXPECT_EQ(out.root_count, 5u);
  EXPECT_EQ(out.task_work, 1234u);
  EXPECT_EQ(out.replayed_work, 100u);
  EXPECT_EQ(out.enum_work, 44u);
  EXPECT_EQ(out.restore_failures, 1u);
  ASSERT_EQ(out.slots.size(), 1u);
  EXPECT_EQ(out.slots[0].ordinal, 2u);
  EXPECT_FALSE(out.slots[0].begun);
  bytes.push_back(0);  // trailing garbage must be rejected
  EXPECT_FALSE(core::DeserializeFanoutResult(bytes, &out, &error));
}

TEST(FanoutPayloads, WorkV2CarriesJobAndContextKeyAndReusesBuffer) {
  core::FanoutTask task{9, 1, 2};
  std::vector<uint8_t> buf;
  core::SerializeFanoutWorkInto(3, task, "j3/s9", {}, &buf);
  uint32_t job = 0;
  core::FanoutTask out_task;
  std::string key;
  std::vector<uint8_t> out_snapshot;
  std::string error;
  ASSERT_TRUE(core::DeserializeFanoutWork(buf, &job, &out_task, &key, &out_snapshot, &error))
      << error;
  EXPECT_EQ(job, 3u);
  EXPECT_EQ(out_task.step, 9u);
  EXPECT_EQ(out_task.sub_shard, 1u);
  EXPECT_EQ(key, "j3/s9");
  EXPECT_TRUE(out_snapshot.empty());
  // Re-serializing into the same buffer reuses its storage (one
  // serialization buffer per fleet lane, no per-task churn).
  const uint8_t* storage = buf.data();
  const size_t capacity = buf.capacity();
  core::SerializeFanoutWorkInto(3, task, "j3/s9", {}, &buf);
  EXPECT_EQ(buf.data(), storage);
  EXPECT_EQ(buf.capacity(), capacity);
}

// ---- the placement grid ----

TEST(DistExercise, PlacementGridByteIdenticalOnAllDrivers) {
  // Placement never changes a byte: every {lanes} x {in-process, 2-worker}
  // cell matches the 1-lane in-process run, clean and faulted, on every
  // registered driver. Two extra cells run at K = 4 against the K = 2
  // baseline: every K >= 1 merges to the same bytes, under faults too.
  struct Cell {
    unsigned lanes, sub_shards, workers;
  };
  const Cell cells[] = {{2, 2, 0}, {4, 2, 0}, {1, 2, 2}, {2, 2, 2},
                        {4, 2, 2}, {2, 4, 0}, {4, 4, 2}};
  for (DriverId id : drivers::kAllDrivers) {
    for (const char* faults : {(const char*)nullptr, "1729:all=0.05"}) {
      const std::string what =
          std::string(drivers::DriverName(id)) + (faults != nullptr ? " faulted" : " clean");
      std::vector<uint8_t> baseline = PlanBlob(id, {1, 2, 0, faults}, 30'000);
      ASSERT_FALSE(baseline.empty()) << what;
      for (const Cell& c : cells) {
        const std::string cell = what + " lanes=" + std::to_string(c.lanes) +
                                 " K=" + std::to_string(c.sub_shards) +
                                 " workers=" + std::to_string(c.workers);
        core::ParallelExerciseStats stats;
        EXPECT_EQ(baseline, PlanBlob(id, {c.lanes, c.sub_shards, c.workers, faults}, 30'000,
                                     &stats))
            << cell;
        // A fleet never has fewer lanes than workers: at lanes=1 with two
        // workers it runs two lanes, so both workers get tasks.
        EXPECT_EQ(stats.fleet_workers, std::max(c.lanes, c.workers)) << cell;
        EXPECT_EQ(stats.worker_processes, c.workers) << cell;
        EXPECT_EQ(stats.failovers, 0u) << cell;
        if (c.workers > 0) {
          // The snapshot handoff rides the workers' context cache.
          EXPECT_GT(stats.snapshot_bytes_shipped + stats.snapshot_bytes_reused, 0u) << cell;
        }
      }
    }
  }
}

TEST(DistExercise, WholeStepPlacementGridByteIdenticalOnAllDrivers) {
  // K = 0 is a distinct slot layout from K >= 1; its merged bytes are just
  // as placement-independent: 2 lanes, 4 lanes and 4 lanes over 2 workers
  // agree on every driver, clean and faulted.
  for (DriverId id : drivers::kAllDrivers) {
    for (const char* faults : {(const char*)nullptr, "1729:all=0.05"}) {
      const std::string what =
          std::string(drivers::DriverName(id)) + (faults != nullptr ? " faulted" : " clean");
      std::vector<uint8_t> two = PlanBlob(id, {2, 0, 0, faults}, 30'000);
      ASSERT_FALSE(two.empty()) << what;
      EXPECT_EQ(two, PlanBlob(id, {4, 0, 0, faults}, 30'000)) << what << " lanes=4";
      core::ParallelExerciseStats stats;
      EXPECT_EQ(two, PlanBlob(id, {4, 0, 2, faults}, 30'000, &stats)) << what << " workers=2";
      EXPECT_EQ(stats.worker_processes, 2u) << what;
      EXPECT_EQ(stats.failovers, 0u) << what;
    }
  }
}

TEST(DistExercise, SubShardCountsAgree) {
  // K >= 1 only routes root ownership, so every K >= 1 merges to the same
  // bytes (K = 2 against K = 4 is also pinned per driver in the grid
  // above).
  std::vector<uint8_t> k1 = PlanBlob(DriverId::kRtl8029, {2, 1});
  ASSERT_FALSE(k1.empty());
  EXPECT_EQ(k1, PlanBlob(DriverId::kRtl8029, {2, 2}));
  EXPECT_EQ(k1, PlanBlob(DriverId::kRtl8029, {4, 4}));
}

TEST(DistExercise, SubShardCheckpointLoadsAndResumesDownstream) {
  core::Session s(drivers::DriverImage(DriverId::kRtl8029),
                  PlanConfig(DriverId::kRtl8029, {2, 4}));
  ASSERT_TRUE(s.Exercise());
  // Merged timeline stays monotone under the sub-shard slot layout.
  const auto& tl = s.engine().timeline;
  ASSERT_GE(tl.size(), 2u);
  for (size_t i = 1; i < tl.size(); ++i) {
    EXPECT_GE(tl[i].work, tl[i - 1].work);
    EXPECT_GE(tl[i].covered_blocks, tl[i - 1].covered_blocks);
  }
  EXPECT_EQ(tl.back().work, s.engine().stats.work);
  std::vector<uint8_t> blob = s.SaveCheckpoint();
  ASSERT_TRUE(s.Emit());
  std::string error;
  std::unique_ptr<core::Session> resumed = core::Session::LoadCheckpoint(blob, &error);
  ASSERT_NE(resumed, nullptr) << error;
  ASSERT_TRUE(resumed->Emit());
  EXPECT_EQ(resumed->c_source(), s.c_source());
}

// ---- failover ----

TEST(DistExercise, WorkerKilledMidRunFailsOverToIdenticalBytes) {
  // The first worker dies on its first work item (deterministic crash hook,
  // after its kContext ship); its lane fails the task over in-process and
  // the merged bytes are unchanged.
  std::vector<uint8_t> healthy = PlanBlob(DriverId::kRtl8029, {2, 2}, 30'000);
  setenv("REVNIC_DIST_KILL_FIRST_WORKER", "1", 1);
  core::ParallelExerciseStats stats;
  std::vector<uint8_t> crashed = PlanBlob(DriverId::kRtl8029, {2, 2, 2}, 30'000, &stats);
  unsetenv("REVNIC_DIST_KILL_FIRST_WORKER");
  ASSERT_FALSE(healthy.empty());
  EXPECT_EQ(healthy, crashed);
  EXPECT_GE(stats.failovers, 1u);
}

// ---- the batch's shared fleet ----

TEST(DistExercise, FleetBatchStatsDeterministicAcrossRuns) {
  // RunBatch under one shared fleet: same seed + same plan => every
  // deterministic FleetBatchStats field -- the virtual makespans, the
  // virtual lane loads and the estimate-vs-LPT steal count -- agrees bit
  // for bit across two batches in ONE process (no state carries from one
  // fleet to the next), and every job's emitted source matches.
  auto run_batch = [] {
    core::ExercisePlan plan;
    plan.sub_shards = 2;
    plan.fleet = 4;
    plan.threads = 0;  // defer to the batch template
    std::vector<core::BatchJob> jobs;
    for (const drivers::TargetInfo& t : drivers::AllTargets()) {
      core::BatchJob job;
      job.name = t.name;
      job.image = &drivers::DriverImage(t.id);
      job.config = SmallConfig(t.id, 20'000);
      job.config.plan = plan;
      jobs.push_back(std::move(job));
    }
    core::BatchOptions options;
    options.plan = plan;
    return core::RunBatch(jobs, options);
  };
  core::BatchResult a = run_batch();
  core::BatchResult b = run_batch();
  ASSERT_TRUE(a.AllOk());
  ASSERT_TRUE(b.AllOk());
  ASSERT_TRUE(a.fleet_used);
  ASSERT_TRUE(b.fleet_used);
  const core::FleetBatchStats& fa = a.fleet;
  const core::FleetBatchStats& fb = b.fleet;
  EXPECT_GT(fa.tasks, 0u);
  EXPECT_EQ(fa.workers, 4u);
  EXPECT_EQ(fa.lane_work.size(), 4u);
  // Every field but real_steals (the live interleaving, monitoring only).
  EXPECT_EQ(fa.workers, fb.workers);
  EXPECT_EQ(fa.tasks, fb.tasks);
  EXPECT_EQ(fa.total_task_work, fb.total_task_work);
  EXPECT_EQ(fa.max_spine_work, fb.max_spine_work);
  EXPECT_EQ(fa.makespan, fb.makespan);
  EXPECT_EQ(fa.static_makespan, fb.static_makespan);
  EXPECT_EQ(fa.steal_makespan, fb.steal_makespan);
  EXPECT_EQ(fa.virtual_steals, fb.virtual_steals);
  EXPECT_EQ(fa.failovers, fb.failovers);
  EXPECT_EQ(fa.lane_work, fb.lane_work);
  // The fleet reports the LPT model, which never loses to the best static
  // outer x inner split of the same records.
  EXPECT_EQ(fa.makespan, fa.steal_makespan);
  EXPECT_LE(fa.steal_makespan, fa.static_makespan);
  EXPECT_GE(fa.makespan, fa.max_spine_work);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].result.c_source, b.jobs[i].result.c_source) << a.jobs[i].name;
  }
}

// ---- the perf contract ----

TEST(DistExercise, PcnetCriticalPathDropsBelowWholeStepFanout) {
  // The tentpole's perf bar: sub-sharding must beat the whole-step fan-out's
  // critical path on pcnet under the default (fig8) budgets, where the PR 4
  // ledger pins the whole-step figure at 5525 work units.
  auto run = [](unsigned sub_shards, core::ParallelExerciseStats* stats) {
    core::EngineConfig cfg;  // default budgets: the ledger's configuration
    cfg.pci = drivers::DriverPci(DriverId::kPcnet);
    cfg.plan.fleet = 4;
    cfg.plan.threads = 0;
    cfg.plan.sub_shards = sub_shards;
    core::Session s(drivers::DriverImage(DriverId::kPcnet), cfg);
    ASSERT_TRUE(s.Exercise());
    *stats = s.engine().parallel;
  };
  core::ParallelExerciseStats whole, sharded;
  run(0, &whole);
  run(4, &sharded);
  EXPECT_GT(whole.critical_path, 0u);
  EXPECT_GT(sharded.critical_path, 0u);
  EXPECT_LT(sharded.critical_path, whole.critical_path);
  EXPECT_LT(sharded.critical_path, 5525u);
}

}  // namespace
}  // namespace revnic
