// Pass-pipeline test suite (ctest label: synth).
//
// Covers the ir pass framework (manager ordering, verifier interposition,
// analyses), each cleanup pass against hand-built modules, and the
// load-bearing pipeline invariants on the real drivers: the verifier stays
// clean after every pass, cleanup shrinks the emitted generic-target C, the
// synthesized driver's hardware I/O trace is identical with cleanup on vs.
// off for every driver x target pair, and every backend's emitted C
// compiles with the host compiler.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/session.h"
#include "drivers/drivers.h"
#include "ir/analysis.h"
#include "ir/passes.h"
#include "isa/isa.h"
#include "os/recovered_host.h"
#include "synth/diff.h"
#include "synth/emit.h"
#include "synth/passes.h"

namespace revnic {
namespace {

using drivers::DriverId;
using ir::Block;
using ir::Instr;
using ir::Op;
using ir::PassStats;
using ir::Term;
using os::TargetOs;

// ---- pass framework ----

struct ToyModule {
  std::vector<int> values;
};

class AppendPass : public ir::ModulePass<ToyModule> {
 public:
  AppendPass(const char* name, int value) : name_(name), value_(value) {}
  const char* name() const override { return name_; }
  void Run(ToyModule& m, PassStats* ps) override {
    m.values.push_back(value_);
    ps->items = 1;
    ps->changed = true;
  }

 private:
  const char* name_;
  int value_;
};

TEST(PassManager, RunsPassesInOrderAndRecordsStats) {
  ir::PassManager<ToyModule> pm;
  pm.Emplace<AppendPass>("one", 1).Emplace<AppendPass>("two", 2);
  ToyModule m;
  ASSERT_TRUE(pm.Run(m));
  EXPECT_EQ(m.values, (std::vector<int>{1, 2}));
  ASSERT_EQ(pm.stats().size(), 2u);
  EXPECT_EQ(pm.stats()[0].name, "one");
  EXPECT_EQ(pm.stats()[1].name, "two");
  EXPECT_TRUE(pm.stats()[0].changed);
  EXPECT_TRUE(pm.error().empty());
}

TEST(PassManager, VerifierInterposedBetweenPassesStopsPipeline) {
  // The hook rejects modules containing 1, so the pipeline must stop right
  // after the first pass -- the second never runs.
  ir::PassManager<ToyModule> pm([](const ToyModule& m) -> std::string {
    for (int v : m.values) {
      if (v == 1) {
        return "saw the poison value";
      }
    }
    return "";
  });
  pm.Emplace<AppendPass>("poison", 1).Emplace<AppendPass>("never", 2);
  ToyModule m;
  ASSERT_FALSE(pm.Run(m));
  EXPECT_EQ(m.values, (std::vector<int>{1}));
  EXPECT_EQ(pm.error(), "poison: saw the poison value");
  ASSERT_EQ(pm.stats().size(), 1u);  // stats of the offending pass retained
}

// ---- analyses ----

Block SimpleBlock(Term term, uint32_t target, uint32_t fallthrough = 0) {
  Block b;
  b.num_temps = 1;
  b.instrs.push_back({.op = Op::kConst, .dst = 0, .imm = 0});
  b.term = term;
  b.target = target;
  b.fallthrough = fallthrough;
  if (term == Term::kBranch || term == Term::kJumpInd || term == Term::kCallInd ||
      term == Term::kRet) {
    b.cond_tmp = 0;
  }
  return b;
}

TEST(Analysis, SuccessorsAndReferencedPcs) {
  ir::IndirectTargets indirect;
  indirect[0x100].insert(0x300);

  Block branch = SimpleBlock(Term::kBranch, 0x200, 0x210);
  EXPECT_EQ(ir::Successors(0x100, branch, indirect), (std::vector<uint32_t>{0x200, 0x210}));

  Block call = SimpleBlock(Term::kCall, 0x400, 0x110);
  EXPECT_EQ(ir::Successors(0x100, call, indirect), (std::vector<uint32_t>{0x110}));
  // ReferencedPcs adds the callee.
  EXPECT_EQ(ir::ReferencedPcs(0x100, call, indirect), (std::vector<uint32_t>{0x110, 0x400}));

  Block jind = SimpleBlock(Term::kJumpInd, 0);
  EXPECT_EQ(ir::Successors(0x100, jind, indirect), (std::vector<uint32_t>{0x300}));
}

TEST(Analysis, CfgMapsAndReachability) {
  ir::BlockMap blocks;
  blocks[0x100] = SimpleBlock(Term::kBranch, 0x200, 0x300);
  blocks[0x200] = SimpleBlock(Term::kJump, 0x300);
  blocks[0x300] = SimpleBlock(Term::kRet, 0);
  blocks[0x900] = SimpleBlock(Term::kRet, 0);  // orphan

  ir::CfgMaps maps = ir::BuildCfgMaps(blocks, {});
  EXPECT_EQ(maps.succ.at(0x100), (std::vector<uint32_t>{0x200, 0x300}));
  ASSERT_EQ(maps.pred.at(0x300).size(), 2u);
  EXPECT_EQ(maps.pred.at(0x200), (std::vector<uint32_t>{0x100}));
  EXPECT_EQ(maps.pred.count(0x900), 0u);

  std::set<uint32_t> live = ir::ReachableFrom(blocks, {}, {0x100}, /*follow_calls=*/true);
  EXPECT_EQ(live, (std::set<uint32_t>{0x100, 0x200, 0x300}));
}

TEST(Analysis, LivenessFindsDeadPureInstrs) {
  Block b;
  b.num_temps = 3;
  b.instrs.push_back({.op = Op::kConst, .dst = 0, .imm = 7});   // dead: redefined below
  b.instrs.push_back({.op = Op::kConst, .dst = 0, .imm = 9});   // live (used by out)
  b.instrs.push_back({.op = Op::kConst, .dst = 1, .imm = 1});   // dead: never used
  b.instrs.push_back({.op = Op::kIn, .dst = 2, .a = 0});        // impure: always needed
  b.instrs.push_back({.op = Op::kOut, .a = 0, .b = 0});
  b.term = Term::kHalt;
  ir::Liveness lv = ir::AnalyzeLiveness(b);
  EXPECT_EQ(lv.needed, (std::vector<bool>{false, true, false, true, true}));
}

TEST(Analysis, LivenessKeepsTerminatorCondTemp) {
  Block b;
  b.num_temps = 1;
  b.instrs.push_back({.op = Op::kConst, .dst = 0, .imm = 1});
  b.term = Term::kBranch;
  b.cond_tmp = 0;
  b.target = 0x10;
  b.fallthrough = 0x20;
  EXPECT_EQ(ir::AnalyzeLiveness(b).needed, (std::vector<bool>{true}));
}

// ---- cleanup passes on hand-built modules ----

// A context over a hand-built bundle: entry block at 0x400000. The caller
// populates the bundle's blocks; recovery runs as RunSynthesisPipeline
// without cleanup.
struct Fixture {
  trace::TraceBundle bundle;
  std::vector<os::EntryPoint> entries;
  synth::SynthContext ctx;

  explicit Fixture(std::map<uint32_t, Block> blocks, uint32_t code_end = 0x400100) {
    bundle.code_begin = 0x400000;
    bundle.code_end = code_end;
    bundle.entry = 0x400000;
    for (auto& [pc, b] : blocks) {
      b.guest_pc = pc;
      if (b.guest_size == 0) {
        b.guest_size = 8;
      }
      bundle.blocks.emplace(pc, b);
    }
    ctx.bundle = &bundle;
    ctx.entries = &entries;
    synth::SynthPassManager pm(synth::VerifyContext);
    synth::AddRecoveryPasses(&pm);
    EXPECT_TRUE(pm.Run(ctx)) << pm.error();
  }

  PassStats Apply(std::unique_ptr<synth::SynthPass> pass) {
    PassStats ps;
    ps.name = pass->name();
    pass->Run(ctx, &ps);
    EXPECT_EQ(synth::VerifyContext(ctx), "") << "after " << ps.name;
    return ps;
  }
};

TEST(CleanupPasses, ThreadJumpsRetargetsPastEmptyHops) {
  // entry --branch--> hop(empty jump) --> ret;  fallthrough--> ret2
  Block entry = SimpleBlock(Term::kBranch, 0x400020, 0x400030);
  Block hop;
  hop.term = Term::kJump;
  hop.target = 0x400040;
  Block ret = SimpleBlock(Term::kRet, 0);
  Block ret2 = SimpleBlock(Term::kRet, 0);
  Fixture f({{0x400000, entry}, {0x400020, hop}, {0x400030, ret2}, {0x400040, ret}});

  PassStats ps = f.Apply(synth::MakeThreadJumpsPass());
  EXPECT_TRUE(ps.changed);
  EXPECT_EQ(ps.rewritten, 1u);
  EXPECT_EQ(f.ctx.module.blocks.at(0x400000).target, 0x400040u);
  // The hop is now bypassed; prune removes it.
  PassStats prune = f.Apply(synth::MakePruneUnreachablePass());
  EXPECT_GE(prune.removed, 1u);
  EXPECT_EQ(f.ctx.module.blocks.count(0x400020), 0u);
}

TEST(CleanupPasses, MergeFallthroughAbsorbsSinglePredBlocks) {
  // entry(jump) -> tail(ret reading its own temp): mergeable (single pred,
  // not addressable).
  Block entry;
  entry.num_temps = 1;
  entry.instrs.push_back({.op = Op::kConst, .dst = 0, .imm = 5});
  entry.instrs.push_back({.op = Op::kSetReg, .a = 0, .imm = 1});
  entry.term = Term::kJump;
  entry.target = 0x400020;
  Block tail;
  tail.num_temps = 2;
  tail.instrs.push_back({.op = Op::kGetReg, .dst = 0, .imm = 1});
  tail.instrs.push_back({.op = Op::kMov, .dst = 1, .a = 0});
  tail.term = Term::kRet;
  tail.cond_tmp = 1;
  Fixture f({{0x400000, entry}, {0x400020, tail}});

  PassStats ps = f.Apply(synth::MakeMergeFallthroughPass());
  EXPECT_EQ(ps.rewritten, 1u);
  EXPECT_EQ(f.ctx.module.blocks.count(0x400020), 0u);
  const Block& merged = f.ctx.module.blocks.at(0x400000);
  EXPECT_EQ(merged.term, Term::kRet);
  EXPECT_EQ(merged.num_temps, 3);
  ASSERT_EQ(merged.instrs.size(), 4u);
  // The absorbed block's temps are renumbered after the predecessor's.
  EXPECT_EQ(merged.instrs[2].dst, 1);   // GetReg dst 0 -> 1
  EXPECT_EQ(merged.instrs[3].dst, 2);   // Mov dst 1 -> 2, a 0 -> 1
  EXPECT_EQ(merged.instrs[3].a, 1);
  EXPECT_EQ(merged.cond_tmp, 2);
  // Guest-instruction accounting is preserved across the merge.
  EXPECT_EQ(merged.guest_size, 16u);
  // The function's block list no longer names the absorbed block.
  const synth::RecoveredFunction* fn = f.ctx.module.FunctionAt(0x400000);
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn->block_pcs, (std::vector<uint32_t>{0x400000}));
}

TEST(CleanupPasses, MergeFallthroughIsLinearOnLongChains) {
  // A ~2k-block straight-line jump chain: every interior block has exactly
  // one predecessor and is not addressable, so the whole chain collapses
  // into the entry block. The old implementation rebuilt the full cfg maps
  // after every merge -- O(blocks) work per merge, quadratic on exactly this
  // shape. The incremental rewrite builds the pred counts once (ps.items)
  // no matter how many merges happen.
  constexpr uint32_t kChain = 2048;
  std::map<uint32_t, Block> blocks;
  for (uint32_t i = 0; i < kChain; ++i) {
    uint32_t pc = 0x400000 + i * 8;
    Block b = i + 1 < kChain ? SimpleBlock(Term::kJump, pc + 8) : SimpleBlock(Term::kRet, 0);
    b.instrs[0].imm = i;  // make each block's payload distinct
    blocks.emplace(pc, b);
  }
  Fixture f(std::move(blocks), /*code_end=*/0x400000 + kChain * 8);

  PassStats ps = f.Apply(synth::MakeMergeFallthroughPass());
  EXPECT_EQ(ps.rewritten, kChain - 1);
  EXPECT_EQ(ps.items, 1u) << "pred maps must be built once, not once per merge";
  ASSERT_EQ(f.ctx.module.blocks.size(), 1u);
  const Block& merged = f.ctx.module.blocks.at(0x400000);
  EXPECT_EQ(merged.term, Term::kRet);
  EXPECT_EQ(merged.instrs.size(), kChain);
  // The function's block list collapsed with the chain.
  const synth::RecoveredFunction* fn = f.ctx.module.FunctionAt(0x400000);
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn->block_pcs, (std::vector<uint32_t>{0x400000}));
}

TEST(CleanupPasses, MergeKeepsCallContinuationsAddressable) {
  // entry(call helper, returns to 0x400010) ... the continuation block has a
  // single predecessor edge but must stay at its own pc (the guest pushed
  // its address as data).
  Block entry;
  entry.num_temps = 1;
  entry.instrs.push_back({.op = Op::kConst, .dst = 0, .imm = 0x400010});
  entry.term = Term::kCall;
  entry.target = 0x400040;
  entry.fallthrough = 0x400010;
  Block cont = SimpleBlock(Term::kRet, 0);
  Block helper = SimpleBlock(Term::kRet, 0);
  Fixture f({{0x400000, entry}, {0x400010, cont}, {0x400040, helper}});

  PassStats ps = f.Apply(synth::MakeMergeFallthroughPass());
  EXPECT_EQ(ps.rewritten, 0u);
  EXPECT_EQ(f.ctx.module.blocks.count(0x400010), 1u);
}

TEST(CleanupPasses, DeadCodeRemovesOnlyDeadPureInstrs) {
  Block entry;
  entry.num_temps = 3;
  entry.instrs.push_back({.op = Op::kConst, .dst = 0, .imm = 0xC000});
  entry.instrs.push_back({.op = Op::kConst, .dst = 1, .imm = 0xAB});   // dead
  entry.instrs.push_back({.op = Op::kIn, .dst = 2, .a = 0});           // kept (I/O)
  entry.term = Term::kRet;
  entry.cond_tmp = 0;
  Fixture f({{0x400000, entry}});

  PassStats ps = f.Apply(synth::MakeDeadCodePass());
  EXPECT_EQ(ps.removed, 1u);
  const Block& b = f.ctx.module.blocks.at(0x400000);
  ASSERT_EQ(b.instrs.size(), 2u);
  EXPECT_EQ(b.instrs[0].op, Op::kConst);
  EXPECT_EQ(b.instrs[1].op, Op::kIn);
}

TEST(CleanupPasses, PeepholeFoldsConstantsWithMachineSemantics) {
  Block entry;
  entry.num_temps = 8;
  entry.instrs.push_back({.op = Op::kConst, .dst = 0, .imm = 6});
  entry.instrs.push_back({.op = Op::kConst, .dst = 1, .imm = 7});
  entry.instrs.push_back({.op = Op::kMul, .dst = 2, .a = 0, .b = 1});    // 42
  entry.instrs.push_back({.op = Op::kConst, .dst = 3, .imm = 0});
  entry.instrs.push_back({.op = Op::kUDiv, .dst = 4, .a = 2, .b = 3});   // /0 -> all-ones
  entry.instrs.push_back({.op = Op::kAShr, .dst = 5, .a = 4, .b = 2});   // >>42 -> sign-fill
  entry.instrs.push_back({.op = Op::kIn, .dst = 6, .a = 0});             // runtime value
  entry.instrs.push_back({.op = Op::kAdd, .dst = 7, .a = 6, .b = 2});    // must stay
  entry.term = Term::kRet;
  entry.cond_tmp = 7;
  Fixture f({{0x400000, entry}});

  PassStats ps = f.Apply(synth::MakePeepholePass());
  const Block& b = f.ctx.module.blocks.at(0x400000);
  // The folds use the concrete machine's exact edge semantics.
  EXPECT_EQ(b.instrs[2].op, Op::kConst);
  EXPECT_EQ(b.instrs[2].imm, 42u);
  EXPECT_EQ(b.instrs[4].op, Op::kConst);
  EXPECT_EQ(b.instrs[4].imm, 0xFFFFFFFFu);
  EXPECT_EQ(b.instrs[5].op, Op::kConst);
  EXPECT_EQ(b.instrs[5].imm, 0xFFFFFFFFu);
  // A value born from I/O poisons everything downstream of it.
  EXPECT_EQ(b.instrs[6].op, Op::kIn);
  EXPECT_EQ(b.instrs[7].op, Op::kAdd);
  EXPECT_EQ(ps.rewritten, 3u);
  EXPECT_EQ(ps.items, 0u);
  EXPECT_TRUE(ps.changed);
}

TEST(CleanupPasses, PeepholeTracksRegistersAndFoldsConstantBranches) {
  // Constants flow through the guest register file: kConst parks a value in
  // a register, kGetReg reads it back. With both comparison operands known
  // the branch condition folds and the terminator becomes a plain jump.
  Block entry;
  entry.num_temps = 4;
  entry.instrs.push_back({.op = Op::kConst, .dst = 0, .imm = 0x1F});
  entry.instrs.push_back({.op = Op::kSetReg, .a = 0, .imm = 3});
  entry.instrs.push_back({.op = Op::kGetReg, .dst = 1, .imm = 3});
  entry.instrs.push_back({.op = Op::kGetReg, .dst = 2, .imm = isa::kRegZero});
  entry.instrs.push_back({.op = Op::kCmpUlt, .dst = 3, .a = 2, .b = 1});  // 0 < 0x1F
  entry.term = Term::kBranch;
  entry.target = 0x400020;
  entry.fallthrough = 0x400010;
  entry.cond_tmp = 3;
  Block fall = SimpleBlock(Term::kRet, 0);
  Block taken = SimpleBlock(Term::kRet, 0);
  Fixture f({{0x400000, entry}, {0x400010, fall}, {0x400020, taken}});

  PassStats ps = f.Apply(synth::MakePeepholePass());
  const Block& b = f.ctx.module.blocks.at(0x400000);
  EXPECT_EQ(b.instrs[2].op, Op::kConst);
  EXPECT_EQ(b.instrs[2].imm, 0x1Fu);
  EXPECT_EQ(b.instrs[3].op, Op::kConst);
  EXPECT_EQ(b.instrs[3].imm, 0u);
  EXPECT_EQ(b.instrs[4].op, Op::kConst);
  EXPECT_EQ(b.instrs[4].imm, 1u);
  EXPECT_EQ(b.term, Term::kJump);
  EXPECT_EQ(b.target, 0x400020u);
  EXPECT_EQ(b.cond_tmp, -1);
  EXPECT_EQ(ps.rewritten, 3u);
  EXPECT_EQ(ps.items, 1u);
}

TEST(CleanupPasses, RecoverSwitchesBuildsPlans) {
  Block entry;
  entry.num_temps = 1;
  entry.instrs.push_back({.op = Op::kConst, .dst = 0, .imm = 0x400020});
  entry.term = Term::kJumpInd;
  entry.cond_tmp = 0;
  Block a = SimpleBlock(Term::kRet, 0);
  Block c = SimpleBlock(Term::kRet, 0);
  Fixture f({{0x400000, entry}, {0x400020, a}, {0x400040, c}});
  // Observed targets come from the wiretap; inject them directly.
  f.ctx.module.indirect_targets[0x400000] = {0x400020, 0x400040};

  PassStats ps = f.Apply(synth::MakeRecoverSwitchesPass());
  EXPECT_EQ(ps.items, 1u);
  ASSERT_EQ(f.ctx.module.switch_plans.count(0x400000), 1u);
  const synth::SwitchPlan& plan = f.ctx.module.switch_plans.at(0x400000);
  EXPECT_EQ(plan.cases, (std::vector<uint32_t>{0x400020, 0x400040}));
  EXPECT_FALSE(plan.single_target());

  // Single observed target -> guard form in the emitted C.
  f.ctx.module.switch_plans.clear();
  f.ctx.module.indirect_targets[0x400000] = {0x400020};
  PassStats single = f.Apply(synth::MakeRecoverSwitchesPass());
  EXPECT_EQ(single.rewritten, 1u);
  EXPECT_TRUE(f.ctx.module.switch_plans.at(0x400000).single_target());
  std::string c_src = synth::EmitC(f.ctx.module);
  EXPECT_NE(c_src.find("if (t0 != 0x400020u) { revnic_unexplored(t0); return; }"),
            std::string::npos)
      << c_src;
}

TEST(CleanupPasses, PruneLabelsElidesFallthroughGotos) {
  // entry(branch) -> taken 0x400020 / fall 0x400010; both ret. In ascending
  // order the branch's fallthrough goto (to 0x400010) is elidable; the taken
  // target keeps its label.
  Block entry = SimpleBlock(Term::kBranch, 0x400020, 0x400010);
  Block fall = SimpleBlock(Term::kRet, 0);
  Block taken = SimpleBlock(Term::kRet, 0);
  Fixture f({{0x400000, entry}, {0x400010, fall}, {0x400020, taken}});

  PassStats ps = f.Apply(synth::MakePruneLabelsPass());
  EXPECT_TRUE(ps.changed);
  ASSERT_EQ(f.ctx.module.emit_plans.count(0x400000), 1u);
  const synth::EmitPlan& plan = f.ctx.module.emit_plans.at(0x400000);
  EXPECT_EQ(plan.order, (std::vector<uint32_t>{0x400000, 0x400010, 0x400020}));
  // Labeled: only the branch-taken target. Entry is first (prologue goto
  // elided), the fallthrough is next in source order.
  EXPECT_EQ(plan.labeled, (std::set<uint32_t>{0x400020}));
  std::string c_src = synth::EmitC(f.ctx.module);
  EXPECT_EQ(c_src.find("L_400010:"), std::string::npos) << c_src;
  EXPECT_NE(c_src.find("L_400020:"), std::string::npos);
  EXPECT_EQ(c_src.find("goto L_400010;"), std::string::npos);
}

// ---- real drivers: pipeline invariants ----

core::PipelineResult PipelineFor(DriverId id, bool cleanup) {
  core::EngineConfig cfg;
  cfg.pci = drivers::DriverPci(id);
  cfg.max_work = 250'000;
  auto session = core::CheckpointStore::Global().Resume(drivers::DriverName(id),
                                                        drivers::DriverImage(id), cfg);
  core::EmitOptions emit;
  emit.cleanup_passes = cleanup;
  session->set_emit_options(emit);
  EXPECT_TRUE(session->RunAll()) << session->error();
  return session->TakeResult();
}

std::vector<DriverId> RegisteredDrivers() {
  std::vector<DriverId> ids;
  for (const drivers::TargetInfo& t : drivers::AllTargets()) {
    ids.push_back(t.id);
  }
  return ids;
}

class SynthPipelineTest : public ::testing::TestWithParam<DriverId> {};

TEST_P(SynthPipelineTest, VerifierCleanAfterEveryPassWithPerPassStats) {
  const core::PipelineResult& r = PipelineFor(GetParam(), /*cleanup=*/true);
  // 7 recovery + 7 cleanup passes ran, each with a stats row, and the
  // interposed verifier accepted every intermediate module (RunAll would
  // have failed otherwise).
  ASSERT_EQ(r.synth_stats.passes.size(), 14u);
  EXPECT_EQ(r.synth_stats.passes.front().name, "trace-async");
  EXPECT_EQ(r.synth_stats.passes.back().name, "prune-labels");
  EXPECT_EQ(synth::VerifyModule(r.module), "");
  EXPECT_GT(r.synth_stats.basic_blocks, 0u);
  EXPECT_GT(r.synth_stats.labels_pruned, 0u);
}

TEST_P(SynthPipelineTest, CleanupNeverGrowsEmittedC) {
  core::PipelineResult on = PipelineFor(GetParam(), true);
  core::PipelineResult off = PipelineFor(GetParam(), false);
  synth::CEmitStats s_on, s_off;
  std::string c_on = synth::EmitC(on.module, {}, &s_on);
  std::string c_off = synth::EmitC(off.module, {}, &s_off);
  EXPECT_LE(s_on.blocks, s_off.blocks);
  EXPECT_LE(s_on.labels, s_off.labels);
  EXPECT_LE(s_on.gotos, s_off.gotos);
  EXPECT_LT(c_on.size(), c_off.size());
  // Cleanup is structural only: no function appears or disappears.
  synth::ModuleDiff diff = synth::DiffModules(off.module, on.module);
  EXPECT_EQ(diff.num_added, 0u);
  EXPECT_EQ(diff.num_removed, 0u);
}

TEST(SynthPipeline, CleanupShrinksGotosOnAtLeastTwoDrivers) {
  // The ISSUE's acceptance bar: a strict goto/label reduction on >= 2
  // drivers (in practice: all four).
  size_t strictly_smaller = 0;
  for (DriverId id : RegisteredDrivers()) {
    synth::CEmitStats s_on, s_off;
    synth::EmitC(PipelineFor(id, true).module, {}, &s_on);
    synth::EmitC(PipelineFor(id, false).module, {}, &s_off);
    if (s_on.gotos < s_off.gotos && s_on.labels < s_off.labels) {
      ++strictly_smaller;
    }
  }
  EXPECT_GE(strictly_smaller, 2u);
}

// ---- golden I/O-trace parity: cleanup on vs. off, all drivers x targets ----

class PassParityTest : public ::testing::TestWithParam<std::tuple<DriverId, TargetOs>> {};

struct HostRun {
  std::vector<hw::Frame> wire;
  std::vector<hw::Frame> rx;
  std::optional<hw::MacAddr> mac;
  bool promiscuous = false;
  bool rx_enabled_after_halt = true;
  std::vector<std::optional<uint32_t>> send_status;
};

HostRun RunWorkload(const synth::RecoveredModule& module, DriverId id, TargetOs target) {
  HostRun run;
  auto device = drivers::MakeDevice(id);
  os::RecoveredDriverHost host(&module, device.get(), target);
  EXPECT_TRUE(host.Initialize());
  device->set_tx_hook([&](const hw::Frame& f) { run.wire.push_back(f); });
  for (size_t payload : {64u, 700u, 1472u}) {
    hw::Frame f = hw::BuildUdpFrame({1, 2, 3, 4, 5, 6}, {9, 8, 7, 6, 5, 4}, payload, 0x42);
    run.send_status.push_back(host.SendFrame(f));
  }
  hw::MacAddr bcast = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  if (device->InjectReceive(hw::BuildUdpFrame({3, 3, 3, 3, 3, 3}, bcast, 200, 0x7E))) {
    host.DeliverInterrupts();
  }
  run.rx = host.rx_delivered();
  host.SetPacketFilter(os::kFilterPromiscuous | os::kFilterDirected);
  run.promiscuous = device->promiscuous();
  run.mac = host.QueryMac();
  host.Halt();
  run.rx_enabled_after_halt = device->rx_enabled();
  return run;
}

TEST_P(PassParityTest, IoTraceIdenticalWithCleanupOnVsOff) {
  auto [id, target] = GetParam();
  core::PipelineResult on = PipelineFor(id, true);
  core::PipelineResult off = PipelineFor(id, false);

  HostRun run_on = RunWorkload(on.module, id, target);
  HostRun run_off = RunWorkload(off.module, id, target);

  EXPECT_EQ(run_on.wire, run_off.wire) << "hardware I/O traces diverge";
  EXPECT_EQ(run_on.rx, run_off.rx);
  EXPECT_EQ(run_on.send_status, run_off.send_status);
  EXPECT_EQ(run_on.mac, run_off.mac);
  EXPECT_EQ(run_on.promiscuous, run_off.promiscuous);
  EXPECT_EQ(run_on.rx_enabled_after_halt, run_off.rx_enabled_after_halt);
  EXPECT_FALSE(run_on.wire.empty());
}

std::string ParityName(const ::testing::TestParamInfo<std::tuple<DriverId, TargetOs>>& info) {
  return std::string(drivers::DriverName(std::get<0>(info.param))) + "_" +
         os::TargetOsName(std::get<1>(info.param));
}

std::vector<std::tuple<DriverId, TargetOs>> AllDriverTargetPairs() {
  std::vector<std::tuple<DriverId, TargetOs>> pairs;
  for (DriverId id : RegisteredDrivers()) {
    for (TargetOs target : os::kAllTargetOses) {
      pairs.emplace_back(id, target);
    }
  }
  return pairs;
}

INSTANTIATE_TEST_SUITE_P(AllDriversAllTargets, PassParityTest,
                         ::testing::ValuesIn(AllDriverTargetPairs()), ParityName);

// ---- compile-the-emitted-C smoke: every backend x every driver ----
//
// Template glue varies with each driver's recovered role set (the Linux
// ops table and the uC/OS ISR shell are conditional), so each pair
// exercises a potentially different glue shape.

class BackendCompileTest : public ::testing::TestWithParam<std::tuple<DriverId, TargetOs>> {};

TEST_P(BackendCompileTest, EmittedCCompilesWithHostCompiler) {
  auto [id, target] = GetParam();
  const core::PipelineResult& r = PipelineFor(id, /*cleanup=*/true);
  synth::TargetEmission te = synth::EmitForTarget(r.module, target);
  EXPECT_GT(te.stats.core_bytes, 10'000u);
  EXPECT_GT(te.stats.template_bytes, 0u);

  std::string dir = ::testing::TempDir() + "/revnic_backend_" +
                    drivers::DriverName(id) + "_" + os::TargetOsName(target);
  ASSERT_EQ(system(("mkdir -p " + dir).c_str()), 0);
  std::string file = dir + "/" + synth::TargetFileName(target);
  {
    FILE* f = fopen((dir + "/revnic_runtime.h").c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs(synth::RuntimeHeader().c_str(), f);
    fclose(f);
    f = fopen(file.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs(te.source.c_str(), f);
    fclose(f);
  }
  std::string cc = "cc -std=c11 -Wall -Wno-unused-but-set-variable -Werror -c " + file +
                   " -o " + file + ".o -I " + dir + " 2> " + dir + "/cc.log";
  int rc = system(cc.c_str());
  if (rc != 0) {
    system(("cat " + dir + "/cc.log").c_str());
  }
  EXPECT_EQ(rc, 0) << drivers::DriverName(id) << " x " << os::TargetOsName(target)
                   << " backend output failed to compile";
}

INSTANTIATE_TEST_SUITE_P(AllDriversAllBackends, BackendCompileTest,
                         ::testing::ValuesIn(AllDriverTargetPairs()), ParityName);

INSTANTIATE_TEST_SUITE_P(AllDrivers, SynthPipelineTest,
                         ::testing::ValuesIn(RegisteredDrivers()),
                         [](const ::testing::TestParamInfo<DriverId>& info) {
                           return drivers::DriverName(info.param);
                         });

}  // namespace
}  // namespace revnic
