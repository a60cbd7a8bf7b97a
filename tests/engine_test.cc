// Engine tests on a tiny purpose-built driver: entry-point discovery,
// symbolic-hardware forking, interrupt injection, DMA tracking, polling-loop
// handling, and API skip lists.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "isa/assembler.h"

namespace revnic::core {
namespace {

// A minimal driver: registers entry points; init reads a status port and
// takes different paths per bit; the ISR handles three interrupt causes;
// send has a length check; a polling loop waits on a ready bit.
const char* kTinyDriver = R"(
.entry DriverEntry
.equ IO, 0xC100

DriverEntry:
    push fp
    mov fp, sp
    push #chars
    sys 1                        ; NdisMRegisterMiniport
    mov r0, #0
    mov sp, fp
    pop fp
    ret #8

mp_init:
    push fp
    mov fp, sp
    sub sp, sp, #8
    ; DMA allocation (tracked by the shell device)
    mov r0, fp
    sub r0, r0, #4
    push r0
    mov r0, fp
    sub r0, r0, #8
    push r0
    push #256
    sys 9                        ; NdisMAllocateSharedMemory
    ; polling loop on a ready bit
    mov r2, #100
init_poll:
    inb r0, [IO]
    test r0, #0x80
    bne init_ready
    sub r2, r2, #1
    cmp r2, #0
    bne init_poll
init_ready:
    ; status bits drive different configuration paths
    inb r1, [IO + 1]
    test r1, #1
    beq no_feat_a
    mov r0, #0xA
    outb [IO + 2], r0
no_feat_a:
    test r1, #2
    beq no_feat_b
    mov r0, #0xB
    outb [IO + 3], r0
no_feat_b:
    push #0x2222
    sys 2                        ; NdisMSetAttributes
    mov r0, #0
    mov sp, fp
    pop fp
    ret #4

mp_isr:
    push fp
    mov fp, sp
    inb r0, [IO + 4]
    cmp r0, #0
    beq isr_no
    mov r0, #1
    jmp isr_out
isr_no:
    mov r0, #0
isr_out:
    mov sp, fp
    pop fp
    ret #4

mp_dpc:
    push fp
    mov fp, sp
    inb r1, [IO + 4]
    test r1, #1
    beq dpc_no_rx
    mov r0, #1
    outb [IO + 4], r0
dpc_no_rx:
    test r1, #2
    beq dpc_no_tx
    mov r0, #2
    outb [IO + 4], r0
dpc_no_tx:
    test r1, #4
    beq dpc_no_err
    push #0
    push #0xE0
    sys 36                       ; NdisWriteErrorLogEntry (skip-listed)
dpc_no_err:
    mov sp, fp
    pop fp
    ret #4

mp_send:
    push fp
    mov fp, sp
    ldw r2, [fp, #12]
    ldw r3, [r2, #4]             ; length
    cmp r3, #1514
    bugt send_fail
    and r0, r3, #0xFF
    outb [IO + 5], r0
    mov r0, #0
    jmp send_out
send_fail:
    mov r0, #0xC0000001
send_out:
    mov sp, fp
    pop fp
    ret #12

mp_halt:
    push fp
    mov fp, sp
    mov r0, #0
    outb [IO], r0
    mov sp, fp
    pop fp
    ret #4

.data
chars:
    .word mp_init, mp_isr, mp_dpc, mp_send, 0, 0, 0, mp_halt, 0
)";

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() {
    auto r = isa::Assemble(kTinyDriver);
    EXPECT_TRUE(r.ok) << r.error;
    image_ = r.image;
    config_.pci = {.vendor_id = 1, .device_id = 2, .io_base = 0xC100, .io_size = 0x20,
                   .irq_line = 5};
    config_.max_work = 30'000;
  }

  isa::Image image_;
  EngineConfig config_;
};

TEST_F(EngineTest, DiscoversRegisteredEntryPoints) {
  EngineResult r = Engine(image_, config_).Run();
  EXPECT_GE(r.entries.size(), 5u);  // init, isr, dpc, send, halt
  bool has_send = false;
  for (const os::EntryPoint& e : r.entries) {
    has_send |= e.role == os::EntryRole::kSend;
  }
  EXPECT_TRUE(has_send);
}

TEST_F(EngineTest, SymbolicHardwareForksStatusPaths) {
  EngineResult r = Engine(image_, config_).Run();
  // Both feature branches in init and all three ISR causes must be covered:
  // near-total coverage on this tiny driver.
  EXPECT_GE(r.CoveragePercent(), 95.0);
  EXPECT_GT(r.executor_stats.forks, 10u);
}

TEST_F(EngineTest, SubstrateCachesCarryTheRun) {
  // A coverage-style run must lean on every cache layer: solver query cache
  // (incremental path growth), expression interning, and the DBT block cache.
  EngineResult r = Engine(image_, config_).Run();
  EXPECT_GT(r.solver_stats.queries, 0u);
  EXPECT_GT(r.solver_stats.cache_hits, 0u);
  EXPECT_GT(r.substrate.intern_hits, 0u);
  EXPECT_GT(r.substrate.dbt_cache_hits, 0u);
  EXPECT_EQ(r.substrate.solver_cache_hits, r.solver_stats.cache_hits);
}

TEST_F(EngineTest, DmaRegionTracked) {
  EngineResult r = Engine(image_, config_).Run();
  bool saw_dma_alloc = false;
  for (const trace::ApiRecord& a : r.bundle.api_records) {
    saw_dma_alloc |= a.api_id == os::kNdisMAllocateSharedMemory;
  }
  EXPECT_TRUE(saw_dma_alloc);
}

TEST_F(EngineTest, SkipListedApiIsSkipped) {
  EngineResult r = Engine(image_, config_).Run();
  bool skipped = false;
  for (const trace::ApiRecord& a : r.bundle.api_records) {
    if (a.api_id == os::kNdisWriteErrorLogEntry) {
      skipped |= a.skipped;
    }
  }
  EXPECT_TRUE(skipped);
  EXPECT_GT(r.stats.api_skipped, 0u);
}

TEST_F(EngineTest, IrqInjectionEventsRecorded) {
  EngineResult r = Engine(image_, config_).Run();
  EXPECT_GT(r.stats.irqs_injected, 0u);
  bool saw_inject = false;
  for (const trace::EventRecord& e : r.bundle.events) {
    saw_inject |= e.kind == trace::EventKind::kIrqInject;
  }
  EXPECT_TRUE(saw_inject);
}

TEST_F(EngineTest, PollingLoopStatesKilled) {
  // Force the loop-killer to trigger before the entry-success collapse ends
  // the step: low visit threshold, high success cap.
  config_.polling_visit_threshold = 8;
  config_.entry_success_cap = 1000;
  EngineResult r = Engine(image_, config_).Run();
  // The init_poll loop reads symbolic hardware each iteration: the stay-in-
  // loop state must be culled, not run forever.
  EXPECT_GT(r.stats.states_killed_polling, 0u);
}

TEST_F(EngineTest, IrqInjectionCanBeDisabled) {
  config_.inject_irqs = false;
  EngineResult r = Engine(image_, config_).Run();
  EXPECT_EQ(r.stats.irqs_injected, 0u);
}

TEST_F(EngineTest, WorkBudgetRespected) {
  config_.max_work = 500;
  EngineResult r = Engine(image_, config_).Run();
  EXPECT_LE(r.stats.work, 520u);  // budget plus one block of slack
}

TEST_F(EngineTest, CoverageTimelineMonotone) {
  EngineResult r = Engine(image_, config_).Run();
  ASSERT_FALSE(r.timeline.empty());
  for (size_t i = 1; i < r.timeline.size(); ++i) {
    EXPECT_GE(r.timeline[i].covered_blocks, r.timeline[i - 1].covered_blocks);
    EXPECT_GE(r.timeline[i].work, r.timeline[i - 1].work);
  }
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  EngineResult a = Engine(image_, config_).Run();
  EngineResult b = Engine(image_, config_).Run();
  EXPECT_EQ(a.covered_blocks, b.covered_blocks);
  EXPECT_EQ(a.stats.work, b.stats.work);
  EXPECT_EQ(a.bundle.block_records.size(), b.bundle.block_records.size());
}

TEST_F(EngineTest, SchedulerStrategyAffectsExploration) {
  config_.max_work = 2'000;
  EngineResult paper = Engine(image_, config_).Run();
  config_.pool.strategy = symex::SelectionStrategy::kDfs;
  EngineResult dfs = Engine(image_, config_).Run();
  // Both run; the paper heuristic must not be worse on this tiny driver.
  EXPECT_GE(paper.CoveragePercent() + 1e-9, dfs.CoveragePercent() * 0.8);
}

}  // namespace
}  // namespace revnic::core
