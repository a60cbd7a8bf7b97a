// Parallel exercising (the parallel output class, !IsSequentialPlan):
// determinism across lane counts, exact legacy equivalence at 1 thread,
// coverage parity and downstream-output parity vs the sequential exerciser,
// cooperative cancel draining the fleet, checkpoint interop between
// parallel and sequential sessions, RunBatch template inheritance, and the
// JSONL coverage sink.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/session.h"
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

// Exercises `id` with `threads` workers and returns the full checkpoint blob
// (bundle + coverage + every counter): byte-comparing two blobs compares two
// runs' complete observable exercise output.
std::vector<uint8_t> ExerciseBlob(DriverId id, unsigned threads, uint64_t max_work = 60'000) {
  core::EngineConfig cfg = SmallConfig(id, max_work);
  cfg.plan.threads = threads;
  core::Session s(drivers::DriverImage(id), cfg);
  EXPECT_TRUE(s.Exercise());
  return s.SaveCheckpoint();
}

// ---- determinism: the headline guarantee ----

TEST(ParallelExercise, ByteIdenticalAcrossThreadCounts) {
  std::vector<uint8_t> t2 = ExerciseBlob(DriverId::kRtl8029, 2);
  std::vector<uint8_t> t3 = ExerciseBlob(DriverId::kRtl8029, 3);
  std::vector<uint8_t> t4 = ExerciseBlob(DriverId::kRtl8029, 4);
  ASSERT_FALSE(t2.empty());
  EXPECT_EQ(t2, t3);
  EXPECT_EQ(t2, t4);
}

TEST(ParallelExercise, ByteIdenticalAcrossRepeatedRuns) {
  EXPECT_EQ(ExerciseBlob(DriverId::kSmc91c111, 4), ExerciseBlob(DriverId::kSmc91c111, 4));
}

TEST(ParallelExercise, OneThreadIsExactlyTheLegacyPath) {
  // plan.threads' default (1) and an explicit 1 must both take the
  // sequential code path and agree byte-for-byte.
  core::EngineConfig legacy_cfg = SmallConfig(DriverId::kRtl8029);
  core::Session legacy(drivers::DriverImage(DriverId::kRtl8029), legacy_cfg);
  ASSERT_TRUE(legacy.Exercise());
  EXPECT_EQ(legacy.SaveCheckpoint(), ExerciseBlob(DriverId::kRtl8029, 1));
}

TEST(ParallelExercise, FaultedExerciseByteIdenticalAcrossThreadCounts) {
  // The seeded fault schedule must not break the headline guarantee: with a
  // plan enabled, thread counts still agree to the checkpoint byte, and the
  // sequential engine is repeatable run to run.
  auto faulted = [](unsigned threads) {
    core::EngineConfig cfg = SmallConfig(DriverId::kRtl8029);
    std::string error;
    EXPECT_TRUE(hw::ParseFaultPlan("99:all=0.08", &cfg.plan.faults, &error)) << error;
    cfg.plan.threads = threads;
    core::Session s(drivers::DriverImage(DriverId::kRtl8029), cfg);
    EXPECT_TRUE(s.Exercise());
    EXPECT_GT(s.engine().fault_stats.TotalInjected(), 0u);
    return s.SaveCheckpoint();
  };
  std::vector<uint8_t> t2 = faulted(2);
  ASSERT_FALSE(t2.empty());
  EXPECT_EQ(t2, faulted(4));
  // threads=1 takes the distinct legacy engine: pin its run-to-run
  // determinism separately (it need not match the parallel merge).
  EXPECT_EQ(faulted(1), faulted(1));
}

// ---- parity vs the sequential exerciser ----

TEST(ParallelExercise, CoverageAndSynthesisParityWithSequential) {
  for (DriverId id : {DriverId::kRtl8029, DriverId::kSmc91c111}) {
    core::EngineConfig seq_cfg = SmallConfig(id);
    core::Session seq(drivers::DriverImage(id), seq_cfg);
    ASSERT_TRUE(seq.Synthesize());

    core::EngineConfig par_cfg = SmallConfig(id);
    par_cfg.plan.threads = 4;
    core::Session par(drivers::DriverImage(id), par_cfg);
    ASSERT_TRUE(par.Synthesize());

    // Acceptance criterion: coverage parity within +/-0.5% of sequential,
    // byte-identical synthesized output.
    EXPECT_NEAR(par.engine().CoveragePercent(), seq.engine().CoveragePercent(), 0.5)
        << drivers::DriverName(id);
    EXPECT_EQ(par.c_source(), seq.c_source()) << drivers::DriverName(id);
    // The entry table records one row per registration call, so raw counts
    // depend on how many paths re-registered; the deduplicated sets must
    // agree (the parallel merge already dedups).
    auto dedup = [](const std::vector<os::EntryPoint>& entries) {
      std::set<std::tuple<uint32_t, uint32_t, uint32_t>> keys;
      for (const os::EntryPoint& e : entries) {
        keys.insert({static_cast<uint32_t>(e.role), e.pc, e.timer_context});
      }
      return keys;
    };
    EXPECT_EQ(dedup(par.engine().entries), dedup(seq.engine().entries))
        << drivers::DriverName(id);
  }
}

TEST(ParallelExercise, MergedTimelineIsMonotone) {
  core::EngineConfig cfg = SmallConfig(DriverId::kPcnet);
  cfg.plan.threads = 3;
  core::Session s(drivers::DriverImage(DriverId::kPcnet), cfg);
  ASSERT_TRUE(s.Exercise());
  const auto& tl = s.engine().timeline;
  ASSERT_GE(tl.size(), 2u);
  for (size_t i = 1; i < tl.size(); ++i) {
    EXPECT_GE(tl[i].work, tl[i - 1].work);
    EXPECT_GE(tl[i].covered_blocks, tl[i - 1].covered_blocks);
  }
  EXPECT_EQ(tl.back().covered_blocks, s.engine().covered_blocks.size());
  EXPECT_EQ(tl.back().work, s.engine().stats.work);
}

// ---- concurrency edges ----

TEST(ParallelExercise, CancelMidRunDrainsWorkersCleanly) {
  core::EngineConfig cfg = SmallConfig(DriverId::kRtl8139, 200'000);
  cfg.plan.threads = 4;
  core::Session s(drivers::DriverImage(DriverId::kRtl8139), cfg);
  std::atomic<uint64_t> polls{0};
  core::SessionObserver obs;
  // Let the spine finish (it polls too) and the fan-out start, then cancel.
  // Threshold calibration: the spine pass for this config is ~1.7k work
  // units and the whole snapshot-handoff run ~13k, so 4k lands mid-fan-out.
  // (The old 20k threshold relied on the replay strategy's O(S^2) prefix
  // work; snapshot restore removed exactly that work.)
  obs.cancel = [&polls] { return polls.fetch_add(1) > 4'000; };
  s.set_observer(obs);
  ASSERT_TRUE(s.Exercise());
  EXPECT_TRUE(s.cancelled());
  // The drained result is still a usable wiretap: downstream stages run.
  EXPECT_TRUE(s.Synthesize());
  EXPECT_FALSE(s.c_source().empty());
}

TEST(ParallelExercise, CancelFromTheStartStillCompletes) {
  core::EngineConfig cfg = SmallConfig(DriverId::kRtl8029);
  cfg.plan.threads = 4;
  cfg.cancel = [] { return true; };
  core::Session s(drivers::DriverImage(DriverId::kRtl8029), cfg);
  ASSERT_TRUE(s.Exercise());
  EXPECT_TRUE(s.cancelled());
}

// ---- checkpoint interop ----

TEST(ParallelExercise, ParallelCheckpointResumesToIdenticalDownstreamOutput) {
  core::EngineConfig cfg = SmallConfig(DriverId::kRtl8029);
  cfg.plan.threads = 4;
  core::Session par(drivers::DriverImage(DriverId::kRtl8029), cfg);
  ASSERT_TRUE(par.Exercise());
  std::vector<uint8_t> blob = par.SaveCheckpoint();
  ASSERT_TRUE(par.Emit());

  // A checkpoint written by a parallel run loads into a plain (sequential)
  // session; downstream output is byte-identical to the originating run.
  std::string error;
  std::unique_ptr<core::Session> resumed = core::Session::LoadCheckpoint(blob, &error);
  ASSERT_NE(resumed, nullptr) << error;
  ASSERT_TRUE(resumed->Emit());
  EXPECT_EQ(resumed->c_source(), par.c_source());
  EXPECT_EQ(resumed->runtime_header(), par.runtime_header());
}

TEST(ParallelExercise, SequentialCheckpointResumesUnderParallelConfigTimes) {
  // The reverse direction: a sequential checkpoint resumed in a process that
  // otherwise runs parallel sessions behaves identically (checkpoints carry
  // no thread settings; downstream stages are single-threaded and pure).
  core::Session seq(drivers::DriverImage(DriverId::kRtl8029), SmallConfig(DriverId::kRtl8029));
  ASSERT_TRUE(seq.Exercise());
  std::vector<uint8_t> blob = seq.SaveCheckpoint();
  ASSERT_TRUE(seq.Emit());
  std::string error;
  std::unique_ptr<core::Session> resumed = core::Session::LoadCheckpoint(blob, &error);
  ASSERT_NE(resumed, nullptr) << error;
  ASSERT_TRUE(resumed->Emit());
  EXPECT_EQ(resumed->c_source(), seq.c_source());
}

// ---- RunBatch composition ----

TEST(ParallelExercise, DeferringBatchJobsKeepTheTemplateOutputClass) {
  // The output class is a pure function of the plan: a job that defers to
  // a parallel-class template stays in the parallel class however small the
  // template's lane count is next to the batch's concurrency. (Splitting a
  // 2-thread budget over 2 job threads once demoted both jobs to the
  // sequential engine, so their bytes depended on the batch's shape.)
  std::vector<core::BatchJob> jobs;
  for (DriverId id : {DriverId::kRtl8029, DriverId::kSmc91c111}) {
    core::BatchJob job;
    job.name = drivers::DriverName(id);
    job.image = &drivers::DriverImage(id);
    job.config = SmallConfig(id);
    job.config.plan.threads = 0;  // defer to the batch's template
    jobs.push_back(std::move(job));
  }
  core::BatchOptions options;
  options.concurrency = 2;
  core::ExercisePlan tmpl;
  tmpl.threads = 2;
  options.plan = tmpl;
  core::BatchResult batch = core::RunBatch(jobs, options);
  ASSERT_TRUE(batch.AllOk());

  for (size_t i = 0; i < jobs.size(); ++i) {
    DriverId id = i == 0 ? DriverId::kRtl8029 : DriverId::kSmc91c111;
    core::EngineConfig cfg = SmallConfig(id);
    cfg.plan.threads = 2;
    core::Session standalone(drivers::DriverImage(id), cfg);
    ASSERT_TRUE(standalone.Synthesize());
    EXPECT_EQ(batch.jobs[i].result.c_source, standalone.c_source()) << batch.jobs[i].name;
    EXPECT_EQ(batch.jobs[i].result.engine.covered_blocks,
              standalone.engine().covered_blocks)
        << batch.jobs[i].name;
    EXPECT_EQ(batch.jobs[i].result.engine.stats.work, standalone.engine().stats.work)
        << batch.jobs[i].name;
  }

  // An explicit per-job setting wins over the template.
  jobs[0].config.plan.threads = 1;
  core::BatchResult explicit_batch = core::RunBatch(jobs, options);
  ASSERT_TRUE(explicit_batch.AllOk());
  core::Session seq(drivers::DriverImage(DriverId::kRtl8029), SmallConfig(DriverId::kRtl8029));
  ASSERT_TRUE(seq.Synthesize());
  EXPECT_EQ(explicit_batch.jobs[0].result.c_source, seq.c_source());
  EXPECT_EQ(explicit_batch.jobs[0].result.engine.stats.work, seq.engine().stats.work);
}

TEST(ParallelExercise, BatchTemplateInheritancePreservesJobFaultPlan) {
  // A job that defers to the template (plan.threads == 0) but carries its
  // own enabled fault plan must keep those faults when it inherits the
  // template's plan: faults are a semantic choice, not a sizing one.
  auto make_job = []() {
    core::BatchJob job;
    job.name = drivers::DriverName(DriverId::kRtl8029);
    job.image = &drivers::DriverImage(DriverId::kRtl8029);
    job.config = SmallConfig(DriverId::kRtl8029);
    job.config.plan.threads = 0;  // defer to the batch's template
    std::string error;
    EXPECT_TRUE(hw::ParseFaultPlan("99:all=0.08", &job.config.plan.faults, &error)) << error;
    return job;
  };
  core::BatchOptions options;
  options.concurrency = 1;
  core::ExercisePlan tmpl;
  tmpl.threads = 2;  // template has no fault plan of its own
  options.plan = tmpl;
  std::vector<core::BatchJob> jobs;
  jobs.push_back(make_job());
  core::BatchResult batch = core::RunBatch(jobs, options);
  ASSERT_TRUE(batch.AllOk());
  EXPECT_GT(batch.jobs[0].result.engine.fault_stats.TotalInjected(), 0u);

  // And the bytes match the standalone spelling of the inherited plan:
  // the job's faults with the template's lanes.
  core::EngineConfig cfg = SmallConfig(DriverId::kRtl8029);
  cfg.plan.threads = 2;
  std::string error;
  ASSERT_TRUE(hw::ParseFaultPlan("99:all=0.08", &cfg.plan.faults, &error)) << error;
  core::Session standalone(drivers::DriverImage(DriverId::kRtl8029), cfg);
  ASSERT_TRUE(standalone.Synthesize());
  EXPECT_EQ(batch.jobs[0].result.c_source, standalone.c_source());
  EXPECT_EQ(batch.jobs[0].result.engine.covered_blocks,
            standalone.engine().covered_blocks);
}

// ---- structured coverage log ----

TEST(ParallelExercise, CoverageStreamsIntoJsonlSink) {
  std::string path = testing::TempDir() + "/coverage_stream.jsonl";
  {
    JsonlWriter sink(path);
    ASSERT_TRUE(sink.ok());
    core::EngineConfig cfg = SmallConfig(DriverId::kRtl8029);
    cfg.plan.threads = 4;
    cfg.sample_every = 500;
    std::string error;
    ASSERT_TRUE(hw::ParseFaultPlan("5:reg-corrupt=0.05", &cfg.plan.faults, &error)) << error;
    core::Session s(drivers::DriverImage(DriverId::kRtl8029), cfg);
    core::SessionObserver obs;
    obs.on_coverage = core::MakeCoverageJsonlLogger(&sink, "rtl8029");
    s.set_observer(obs);
    ASSERT_TRUE(s.Exercise());
    EXPECT_GT(sink.lines_written(), 0u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"driver\":\"rtl8029\""), std::string::npos);
    EXPECT_NE(line.find("\"work\":"), std::string::npos);
    EXPECT_NE(line.find("\"covered\":"), std::string::npos);
    EXPECT_NE(line.find("\"faults\":"), std::string::npos);
  }
  EXPECT_GT(lines, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace revnic
