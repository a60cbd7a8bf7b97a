// Trace serialization round-trips, scheduler heuristics, and synthesizer CFG
// reconstruction on hand-built traces.
#include <gtest/gtest.h>

#include "symex/scheduler.h"
#include "synth/cemit.h"
#include "synth/cfg.h"
#include "trace/serialize.h"

namespace revnic {
namespace {

trace::TraceBundle TinyBundle() {
  // Two blocks: entry block calls a helper; helper returns.
  trace::TraceBundle b;
  b.code_begin = 0x400000;
  b.code_end = 0x400100;
  b.entry = 0x400000;

  ir::Block entry;
  entry.guest_pc = 0x400000;
  entry.guest_size = 16;
  entry.num_temps = 1;
  entry.instrs.push_back({.op = ir::Op::kConst, .dst = 0, .imm = 5});
  entry.instrs.push_back({.op = ir::Op::kSetReg, .a = 0, .imm = 1});
  entry.term = ir::Term::kCall;
  entry.target = 0x400040;
  entry.fallthrough = 0x400010;
  b.blocks.emplace(entry.guest_pc, entry);

  ir::Block after;
  after.guest_pc = 0x400010;
  after.guest_size = 8;
  after.num_temps = 1;
  after.instrs.push_back({.op = ir::Op::kGetReg, .dst = 0, .imm = 0});  // uses r0: ret value
  after.term = ir::Term::kRet;
  after.cond_tmp = 0;
  b.blocks.emplace(after.guest_pc, after);

  ir::Block helper;
  helper.guest_pc = 0x400040;
  helper.guest_size = 8;
  helper.num_temps = 1;
  helper.instrs.push_back({.op = ir::Op::kConst, .dst = 0, .imm = 7});
  helper.instrs.push_back({.op = ir::Op::kSetReg, .a = 0, .imm = 0});
  helper.term = ir::Term::kRet;
  helper.cond_tmp = 0;
  b.blocks.emplace(helper.guest_pc, helper);

  trace::BlockRecord r1{.state_id = 1, .seq = 1, .pc = 0x400000, .term = ir::Term::kCall,
                        .next_pc = 0x400040};
  trace::BlockRecord r2{.state_id = 1, .seq = 2, .pc = 0x400040, .term = ir::Term::kRet,
                        .next_pc = 0x400010};
  trace::BlockRecord r3{.state_id = 1, .seq = 3, .pc = 0x400010, .term = ir::Term::kRet,
                        .next_pc = 0};
  b.block_records = {r1, r2, r3};
  return b;
}

TEST(TraceSerialize, RoundTripPreservesEverything) {
  trace::TraceBundle b = TinyBundle();
  trace::MemRecord mr;
  mr.state_id = 1;
  mr.seq = 9;
  mr.pc = 0x400000;
  mr.kind = trace::MemKind::kPort;
  mr.size = 2;
  mr.is_write = true;
  mr.addr = 0xC010;
  mr.value = 0x55AA;
  b.mem_records.push_back(mr);
  trace::ApiRecord ar;
  ar.api_id = 7;
  ar.args = {1, 2, 3};
  ar.ret = 0;
  b.api_records.push_back(ar);
  trace::EventRecord ev;
  ev.kind = trace::EventKind::kIrqInject;
  ev.detail = "isr";
  b.events.push_back(ev);

  std::vector<uint8_t> bytes = trace::Serialize(b);
  trace::TraceBundle out;
  std::string err;
  ASSERT_TRUE(trace::Deserialize(bytes, &out, &err)) << err;
  EXPECT_EQ(out.blocks.size(), b.blocks.size());
  EXPECT_EQ(out.blocks.at(0x400000), b.blocks.at(0x400000));
  EXPECT_EQ(out.block_records.size(), 3u);
  EXPECT_EQ(out.block_records[0].next_pc, 0x400040u);
  ASSERT_EQ(out.mem_records.size(), 1u);
  EXPECT_EQ(out.mem_records[0].kind, trace::MemKind::kPort);
  EXPECT_EQ(out.mem_records[0].value, 0x55AAu);
  ASSERT_EQ(out.api_records.size(), 1u);
  EXPECT_EQ(out.api_records[0].args, (std::vector<uint32_t>{1, 2, 3}));
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].detail, "isr");
}

TEST(TraceSerialize, RejectsTruncation) {
  std::vector<uint8_t> bytes = trace::Serialize(TinyBundle());
  bytes.resize(bytes.size() / 2);
  trace::TraceBundle out;
  std::string err;
  EXPECT_FALSE(trace::Deserialize(bytes, &out, &err));
  EXPECT_FALSE(err.empty());
}

// The recovery passes alone -- no cleanup, no verifier interposition -- so
// these tests see the module exactly as recovery builds it.
synth::RecoveredModule Recover(const trace::TraceBundle& b,
                               synth::SynthStats* stats = nullptr) {
  synth::PipelineOptions options;
  options.cleanup = false;
  options.verify_between = false;
  return synth::RunSynthesisPipeline(b, {}, options, stats, nullptr);
}

TEST(SynthCfg, FunctionBoundariesFromCallReturn) {
  trace::TraceBundle b = TinyBundle();
  synth::SynthStats stats;
  synth::RecoveredModule m = Recover(b, &stats);
  // Entry (0x400000) and helper (0x400040) are separate functions.
  EXPECT_EQ(m.functions.size(), 2u);
  ASSERT_NE(m.FunctionAt(0x400000), nullptr);
  ASSERT_NE(m.FunctionAt(0x400040), nullptr);
  // The entry function spans its two blocks; the helper only its own.
  EXPECT_EQ(m.FunctionAt(0x400000)->block_pcs.size(), 2u);
  EXPECT_EQ(m.FunctionAt(0x400040)->block_pcs.size(), 1u);
  // r0 def-use: the post-call block reads r0 => the helper has a return value.
  EXPECT_TRUE(m.FunctionAt(0x400040)->has_return);
  EXPECT_EQ(stats.functions, 2u);
}

TEST(SynthCfg, SplitsTranslationBlocksAtObservedTargets) {
  // One 3-instruction translation block; a jump targets its middle.
  trace::TraceBundle b;
  b.code_begin = 0x400000;
  b.code_end = 0x400100;
  b.entry = 0x400000;
  ir::Block tb;
  tb.guest_pc = 0x400000;
  tb.guest_size = 24;  // 3 guest instrs
  tb.num_temps = 3;
  tb.instrs.push_back({.op = ir::Op::kConst, .guest_idx = 0, .dst = 0, .imm = 1});
  tb.instrs.push_back({.op = ir::Op::kConst, .guest_idx = 1, .dst = 1, .imm = 2});
  tb.instrs.push_back({.op = ir::Op::kConst, .guest_idx = 2, .dst = 2, .imm = 3});
  tb.term = ir::Term::kRet;
  tb.cond_tmp = 2;
  b.blocks.emplace(tb.guest_pc, tb);
  // A second block jumps into the middle of tb (0x400008).
  ir::Block jumper;
  jumper.guest_pc = 0x400080;
  jumper.guest_size = 8;
  jumper.num_temps = 0;
  jumper.term = ir::Term::kJump;
  jumper.target = 0x400008;
  b.blocks.emplace(jumper.guest_pc, jumper);

  synth::RecoveredModule m = Recover(b);
  // tb must be split at 0x400008.
  ASSERT_TRUE(m.blocks.count(0x400000));
  ASSERT_TRUE(m.blocks.count(0x400008));
  const ir::Block& head = m.blocks.at(0x400000);
  EXPECT_EQ(head.term, ir::Term::kFallthrough);
  EXPECT_EQ(head.target, 0x400008u);
  EXPECT_EQ(head.instrs.size(), 1u);
  const ir::Block& tail = m.blocks.at(0x400008);
  EXPECT_EQ(tail.term, ir::Term::kRet);
  EXPECT_EQ(tail.instrs.size(), 2u);
}

TEST(SynthCfg, FlagsUnexploredBranchTargets) {
  trace::TraceBundle b;
  b.code_begin = 0x400000;
  b.code_end = 0x400100;
  b.entry = 0x400000;
  ir::Block blk;
  blk.guest_pc = 0x400000;
  blk.guest_size = 8;
  blk.num_temps = 1;
  blk.instrs.push_back({.op = ir::Op::kConst, .dst = 0, .imm = 0});
  blk.term = ir::Term::kBranch;
  blk.cond_tmp = 0;
  blk.target = 0x400050;       // never traced
  blk.fallthrough = 0x400008;  // never traced either
  b.blocks.emplace(blk.guest_pc, blk);
  synth::SynthStats stats;
  synth::RecoveredModule m = Recover(b, &stats);
  ASSERT_NE(m.FunctionAt(0x400000), nullptr);
  EXPECT_EQ(m.FunctionAt(0x400000)->unexplored_targets.size(), 2u);
  EXPECT_EQ(stats.coverage_holes, 2u);
}

TEST(SynthCEmit, EmitsCompilableLookingC) {
  trace::TraceBundle b = TinyBundle();
  synth::RecoveredModule m = Recover(b);
  std::string c = synth::EmitC(m);
  EXPECT_NE(c.find("void function_400000"), std::string::npos) << c;
  EXPECT_NE(c.find("function_400040(cpu);"), std::string::npos);  // preserved call
  EXPECT_NE(c.find("goto L_400010;"), std::string::npos);
  EXPECT_NE(c.find("return;"), std::string::npos);
  EXPECT_NE(synth::RuntimeHeader().find("revnic_os_call"), std::string::npos);
}

TEST(Scheduler, MinBlockCountPrefersUnexecuted) {
  symex::StatePool pool;
  symex::ExprContext ctx;
  vm::MemoryMap mm(1 << 16);
  auto s1 = std::make_unique<symex::ExecutionState>(1, &ctx, &mm);
  s1->set_pc(0x100);
  auto s2 = std::make_unique<symex::ExecutionState>(2, &ctx, &mm);
  s2->set_pc(0x200);
  pool.Add(std::move(s1));
  pool.Add(std::move(s2));
  pool.NotifyExecuted(0x100);
  pool.NotifyExecuted(0x100);
  pool.NotifyExecuted(0x200);
  // 0x200 has the lower count... pick the state at the *least* executed pc.
  auto next = pool.SelectNext();
  EXPECT_EQ(next->pc(), 0x200u);
}

TEST(Scheduler, DfsAndBfsOrder) {
  symex::ExprContext ctx;
  vm::MemoryMap mm(1 << 16);
  symex::StatePool::Options dfs_opts;
  dfs_opts.strategy = symex::SelectionStrategy::kDfs;
  symex::StatePool dfs(dfs_opts);
  for (int i = 0; i < 3; ++i) {
    auto s = std::make_unique<symex::ExecutionState>(i, &ctx, &mm);
    s->set_pc(0x100 * (i + 1));
    dfs.Add(std::move(s));
  }
  EXPECT_EQ(dfs.SelectNext()->pc(), 0x300u);  // LIFO
  symex::StatePool::Options bfs_opts;
  bfs_opts.strategy = symex::SelectionStrategy::kBfs;
  symex::StatePool bfs(bfs_opts);
  for (int i = 0; i < 3; ++i) {
    auto s = std::make_unique<symex::ExecutionState>(i, &ctx, &mm);
    s->set_pc(0x100 * (i + 1));
    bfs.Add(std::move(s));
  }
  EXPECT_EQ(bfs.SelectNext()->pc(), 0x100u);  // FIFO
}

TEST(Scheduler, CollapseToOneRandom) {
  symex::ExprContext ctx;
  vm::MemoryMap mm(1 << 16);
  symex::StatePool pool;
  for (int i = 0; i < 5; ++i) {
    pool.Add(std::make_unique<symex::ExecutionState>(i, &ctx, &mm));
  }
  EXPECT_EQ(pool.CollapseToOneRandom(), 4u);
  EXPECT_EQ(pool.NumRunnable(), 1u);
}

TEST(Scheduler, MaxStatesCulls) {
  symex::ExprContext ctx;
  vm::MemoryMap mm(1 << 16);
  symex::StatePool::Options opts;
  opts.max_states = 4;
  symex::StatePool pool(opts);
  for (int i = 0; i < 10; ++i) {
    pool.Add(std::make_unique<symex::ExecutionState>(i, &ctx, &mm));
  }
  EXPECT_LE(pool.NumRunnable(), 4u);
  EXPECT_GT(pool.total_culled(), 0u);
}

}  // namespace
}  // namespace revnic
