// Property-based tests over randomly generated r32 programs.
//
// The central invariant of the whole system: the symbolic executor run with
// fully concrete inputs must behave EXACTLY like the concrete machine --
// same registers, same memory, same halt point. (Concrete execution is "the
// all-constants fast path of the same code", and trace-based synthesis
// depends on it.) A second invariant checks assembler/disassembler and
// encode/decode round trips on random instruction streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "isa/assembler.h"
#include "isa/disasm.h"
#include "symex/executor.h"
#include "symex/snapshot.h"
#include "util/rng.h"
#include "util/strings.h"
#include "vm/machine.h"

namespace revnic {
namespace {

// Generates a random straight-line-with-branches program that always
// terminates: forward branches only, ending in hlt.
std::string RandomProgram(Rng* rng, int num_instrs) {
  std::string src = ".base 0x1000\n.entry main\nmain:\n";
  src += "    mov sp, #0x9000\n";
  // Seed registers with data.
  for (int r = 0; r <= 6; ++r) {
    src += StrFormat("    mov r%d, #0x%x\n", r, rng->Next32());
  }
  static const char* kAlu[] = {"add", "sub", "mul", "and", "or", "xor", "shl", "shr",
                               "sar", "udiv", "urem"};
  static const char* kBr[] = {"beq", "bne", "bult", "buge", "bslt", "bsge"};
  for (int i = 0; i < num_instrs; ++i) {
    uint32_t kind = rng->Below(10);
    int rd = static_cast<int>(rng->Below(7));
    int ra = static_cast<int>(rng->Below(7));
    int rb = static_cast<int>(rng->Below(7));
    if (kind < 5) {
      const char* op = kAlu[rng->Below(11)];
      if (rng->Below(2) == 0) {
        src += StrFormat("    %s r%d, r%d, r%d\n", op, rd, ra, rb);
      } else {
        src += StrFormat("    %s r%d, r%d, #0x%x\n", op, rd, ra, rng->Next32() & 0x3F);
      }
    } else if (kind < 7) {
      // Memory round trip within a scratch window.
      uint32_t off = rng->Below(64) * 4;
      src += StrFormat("    stw [0x%x], r%d\n", 0x4000 + off, ra);
      src += StrFormat("    ldw r%d, [0x%x]\n", rd, 0x4000 + off);
    } else if (kind < 9) {
      // Forward branch over a landing pad.
      src += StrFormat("    cmp r%d, r%d\n", ra, rb);
      src += StrFormat("    %s fwd_%d\n", kBr[rng->Below(6)], i);
      src += StrFormat("    xor r%d, r%d, #0x5A\n", rd, rd);
      src += StrFormat("fwd_%d:\n", i);
    } else {
      src += StrFormat("    push r%d\n    pop r%d\n", ra, rd);
    }
  }
  src += "    hlt\n";
  return src;
}

class NullBridge : public symex::HardwareBridge {
 public:
  explicit NullBridge(symex::ExprContext* ctx) : ctx_(ctx) {}
  bool IsMmio(uint32_t) const override { return false; }
  bool IsDma(uint32_t) const override { return false; }
  symex::ExprRef MmioRead(symex::ExecutionState&, uint32_t, unsigned) override {
    return ctx_->Const(0);
  }
  void MmioWrite(symex::ExecutionState&, uint32_t, unsigned, const symex::ExprRef&) override {}
  symex::ExprRef PortRead(symex::ExecutionState&, uint32_t, unsigned) override {
    return ctx_->Const(0);
  }
  void PortWrite(symex::ExecutionState&, uint32_t, unsigned, const symex::ExprRef&) override {}
  symex::ExprRef DmaRead(symex::ExecutionState&, uint32_t, unsigned) override {
    return ctx_->Const(0);
  }

 private:
  symex::ExprContext* ctx_;
};

class ConcreteSymbolicEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConcreteSymbolicEquivalence, RandomProgramsAgree) {
  Rng rng(GetParam());
  std::string src = RandomProgram(&rng, 30);
  auto assembled = isa::Assemble(src);
  ASSERT_TRUE(assembled.ok) << assembled.error << "\n" << src;

  // Concrete machine run.
  vm::MemoryMap mm_a(1 << 20);
  mm_a.WriteRamBytes(0x1000, assembled.image.code.data(), assembled.image.code.size());
  vm::ConcreteMachine machine(&mm_a);
  machine.set_pc(0x1000);
  auto result = machine.Run(100000);
  ASSERT_EQ(result.reason, vm::ConcreteMachine::StopReason::kHalt) << src;

  // Symbolic executor run with all-concrete inputs.
  symex::ExprContext ctx;
  symex::Solver solver;
  NullBridge bridge(&ctx);
  symex::Executor executor(&ctx, &solver, &bridge);
  uint64_t ids = 1;
  executor.set_next_state_id(&ids);
  vm::MemoryMap mm_b(1 << 20);
  mm_b.WriteRamBytes(0x1000, assembled.image.code.data(), assembled.image.code.size());
  vm::RamFetcher fetcher(&mm_b);
  vm::Dbt dbt(&fetcher);
  symex::ExecutionState st(0, &ctx, &mm_b);
  st.set_pc(0x1000);
  bool halted = false;
  for (int steps = 0; steps < 100000 && !halted; ++steps) {
    auto block = dbt.Translate(st.pc());
    ASSERT_TRUE(block) << StrFormat("pc=0x%x", st.pc());
    auto step = executor.Step(&st, *block, nullptr);
    ASSERT_TRUE(step.forks.empty()) << "concrete program must not fork";
    halted = step.kind == symex::StepKind::kHalt;
  }
  ASSERT_TRUE(halted);

  // Registers agree.
  for (unsigned r = 0; r < 13; ++r) {
    ASSERT_TRUE(st.reg(r)->IsConst()) << "r" << r << " became symbolic";
    EXPECT_EQ(st.reg(r)->value, machine.reg(r)) << "r" << r << "\n" << src;
  }
  // Scratch memory window agrees.
  for (uint32_t a = 0x4000; a < 0x4100; a += 4) {
    EXPECT_EQ(st.mem().ReadConcrete(a, 4), mm_a.ReadRam(a, 4)) << StrFormat("addr 0x%x", a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcreteSymbolicEquivalence,
                         ::testing::Range<uint64_t>(1, 21));

class EncodeDecodeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncodeDecodeProperty, RandomInstructionsRoundTrip) {
  Rng rng(GetParam() * 7919);
  for (int i = 0; i < 500; ++i) {
    isa::Instruction instr;
    instr.opcode =
        static_cast<isa::Opcode>(rng.Below(static_cast<uint32_t>(isa::Opcode::kOpcodeCount)));
    instr.rd = static_cast<uint8_t>(rng.Below(16));
    instr.ra = static_cast<uint8_t>(rng.Below(16));
    instr.rb = static_cast<uint8_t>(rng.Below(16));
    instr.b_is_imm = rng.Below(2) != 0;
    instr.no_base = rng.Below(2) != 0;
    instr.imm = rng.Next32();
    uint8_t buf[isa::kInstrBytes];
    isa::Encode(instr, buf);
    auto out = isa::Decode(buf);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, instr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodeDecodeProperty, ::testing::Range<uint64_t>(1, 6));

// ---- "RSS1" snapshot round-trip properties (src/symex/snapshot.*) ----
//
// Serializing a randomly built chain state and deserializing it into a
// fresh ExprContext must preserve structure (Expr::Equal everywhere), the
// cached symbol sets (parity with the ground-truth DAG walk), interning
// (rebuilding an interned shape in the restored context is a pointer hit),
// and determinism (re-serializing the restored state reproduces the
// original bytes bit-for-bit).

// Random expression DAG builder with deliberate sharing: later nodes reuse
// earlier ones, so hash-consing and DAG-aware serialization are exercised.
struct RandomDag {
  std::vector<symex::ExprRef> values;       // width-32 pool
  std::vector<symex::ExprRef> comparisons;  // width-1 pool (constraints)

  RandomDag(symex::ExprContext* ctx, Rng* rng, int num_syms, int num_nodes) {
    for (int v = 0; v < num_syms; ++v) {
      values.push_back(ctx->Sym(StrFormat("snap_v%d", v)));
    }
    values.push_back(ctx->Const(rng->Next32()));
    values.push_back(ctx->Const(rng->Below(256)));  // small-const cache path
    auto pick = [&](std::vector<symex::ExprRef>& pool) {
      return pool[rng->Below(static_cast<uint32_t>(pool.size()))];
    };
    for (int i = 0; i < num_nodes; ++i) {
      switch (rng->Below(5)) {
        case 0:
          values.push_back(ctx->Bin(static_cast<symex::BinOp>(rng->Below(11)), pick(values),
                                    pick(values)));
          break;
        case 1:
          values.push_back(ctx->Bin(static_cast<symex::BinOp>(rng->Below(11)), pick(values),
                                    ctx->Const(rng->Next32())));
          break;
        case 2:
          values.push_back(ctx->ZExt(ctx->ExtractByte(pick(values), rng->Below(4)), 32));
          break;
        case 3: {
          symex::ExprRef cmp = ctx->Bin(
              static_cast<symex::BinOp>(11 + rng->Below(6)), pick(values), pick(values));
          if (cmp->width == 1 && !cmp->IsConst()) {
            comparisons.push_back(cmp);
            values.push_back(ctx->Select(cmp, pick(values), pick(values)));
          }
          break;
        }
        default:
          comparisons.push_back(ctx->Bin(symex::BinOp::kUle, pick(values),
                                         ctx->Const(0x1000 + rng->Below(0x10000))));
          break;
      }
    }
  }
};

class SnapshotRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotRoundTrip, ExprDagAndMemorySurviveSerialization) {
  Rng rng(GetParam() * 2654435761u);
  symex::ExprContext ctx;
  RandomDag dag(&ctx, &rng, 5, 60);

  // A chain state over the random DAG: registers, constraints, model,
  // visits, and a symbolic-memory mix of private concrete and symbolic
  // bytes over a concrete base RAM.
  vm::MemoryMap base(1 << 20);
  for (uint32_t a = 0; a < 0x2000; ++a) {
    base.WriteRam(a, 1, (a * 7 + 13) & 0xFF);
  }
  symex::ExecutionState st(42 + GetParam(), &ctx, &base);
  auto pick_value = [&] {
    return dag.values[rng.Below(static_cast<uint32_t>(dag.values.size()))];
  };
  for (unsigned i = 0; i < symex::kNumGuestRegs; ++i) {
    st.set_reg(i, pick_value());
  }
  st.set_pc(0x1000 + rng.Below(0x1000));
  for (const symex::ExprRef& c : dag.comparisons) {
    st.RestoreConstraint(c);
  }
  for (int k = 0; k < 6; ++k) {
    st.model()[rng.Below(5)] = rng.Next32();
    st.IncVisit(0x1000 + rng.Below(64) * 4);
  }
  st.set_entry_index(3);
  st.set_blocks_executed(rng.Below(10'000));
  for (int k = 0; k < 40; ++k) {
    uint32_t addr = rng.Below(0x8000);
    if (rng.Below(2) == 0) {
      st.mem().Write(&ctx, addr, 4, pick_value());
    } else {
      st.mem().WriteConcrete(addr, 1 + rng.Below(4), rng.Next32());
    }
  }

  // Scheduler bookkeeping + a warm solver (cache, shelf, rng stream).
  symex::StatePool pool;
  for (int k = 0; k < 30; ++k) {
    pool.NotifyExecuted(0x1000 + rng.Below(128) * 4);
  }
  symex::Solver solver(symex::Solver::Options(), GetParam());
  std::vector<symex::ExprRef> query(st.constraints().begin(), st.constraints().end());
  symex::Model warm_model;
  symex::Verdict warm_verdict = solver.CheckSat(query, &warm_model);

  symex::SnapshotWriter writer;
  symex::WriteStateSections(&writer, st);
  symex::WriteSchedulerSection(&writer, pool);
  symex::WriteSolverSection(&writer, solver);
  std::vector<uint8_t> bytes = writer.Finish(ctx);

  // ---- restore into a fresh context ----
  symex::ExprContext ctx2;
  symex::SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Init(bytes, &ctx2, &error)) << error;
  std::unique_ptr<symex::ExecutionState> st2;
  ASSERT_TRUE(symex::ReadStateSections(reader, &ctx2, &base, &st2, &error)) << error;
  symex::StatePool pool2;
  ASSERT_TRUE(symex::ReadSchedulerSection(reader, &pool2, &error)) << error;
  symex::Solver solver2;
  ASSERT_TRUE(symex::ReadSolverSection(reader, &solver2, &error)) << error;

  // Structural equality + symbol-set parity (cached set == ground truth).
  EXPECT_EQ(st2->id(), st.id());
  EXPECT_EQ(st2->pc(), st.pc());
  EXPECT_EQ(st2->blocks_executed(), st.blocks_executed());
  EXPECT_EQ(st2->entry_index(), st.entry_index());
  EXPECT_EQ(st2->visits(), st.visits());
  EXPECT_EQ(st2->model(), st.model());
  for (unsigned i = 0; i < symex::kNumGuestRegs; ++i) {
    ASSERT_TRUE(symex::Expr::Equal(st.reg(i), st2->reg(i))) << "reg " << i;
    std::set<uint32_t> cached, walked;
    CollectSyms(st2->reg(i), &cached);
    CollectSymsWalk(st2->reg(i), &walked);
    EXPECT_EQ(cached, walked) << "restored symbol set diverges from DAG walk, reg " << i;
    EXPECT_EQ(ExprSize(st.reg(i)), ExprSize(st2->reg(i))) << "DAG sharing lost, reg " << i;
  }
  ASSERT_EQ(st2->constraints().size(), st.constraints().size());
  for (size_t k = 0; k < st.constraints().size(); ++k) {
    EXPECT_TRUE(symex::Expr::Equal(st.constraints()[k], st2->constraints()[k]));
  }

  // Symbol-table parity: ids, names, and the minting cursor all survive.
  ASSERT_EQ(ctx2.NumSyms(), ctx.NumSyms());
  for (uint32_t sym = 0; sym < ctx.NumSyms(); ++sym) {
    EXPECT_EQ(ctx2.SymName(sym), ctx.SymName(sym));
  }

  // Memory parity: concrete reads, symbolic classification, and the
  // symbolic bytes themselves.
  for (int k = 0; k < 200; ++k) {
    uint32_t addr = rng.Below(0x9000);
    EXPECT_EQ(st.mem().ReadConcrete(addr, 4), st2->mem().ReadConcrete(addr, 4));
    EXPECT_EQ(st.mem().IsSymbolic(addr, 4), st2->mem().IsSymbolic(addr, 4));
    if (st.mem().IsSymbolic(addr, 1)) {
      EXPECT_TRUE(symex::Expr::Equal(st.mem().ReadByte(&ctx, addr),
                                     st2->mem().ReadByte(&ctx2, addr)));
    }
  }

  // Intern-hit parity: every restored interned composite is re-pinned, so
  // rebuilding its exact shape through the factory is a pointer hit.
  size_t bin_checked = 0;
  for (const symex::ExprRef& v : dag.values) {
    if (v->kind != symex::ExprKind::kBin) {
      continue;
    }
    // Locate the restored twin via a register/constraint slot when present;
    // rebuilding from restored operands must return the interned node
    // itself, not a fresh allocation.
    for (unsigned i = 0; i < symex::kNumGuestRegs; ++i) {
      const symex::ExprRef& r = st2->reg(i);
      if (r->kind == symex::ExprKind::kBin && symex::Expr::Equal(r, v)) {
        symex::ExprRef rebuilt = ctx2.Bin(r->bin_op, r->a, r->b);
        EXPECT_EQ(rebuilt.get(), r.get()) << "interning not intact after restore";
        ++bin_checked;
        break;
      }
    }
  }
  EXPECT_GT(bin_checked, 0u) << "seed produced no shared kBin register; widen the generator";

  // Scheduler parity.
  EXPECT_EQ(pool2.rng_state(), pool.rng_state());
  EXPECT_EQ(pool2.block_counts(), pool.block_counts());
  EXPECT_EQ(pool2.total_culled(), pool.total_culled());

  // Solver parity: stream position, cache population, and answers.
  EXPECT_EQ(solver2.rng_state(), solver.rng_state());
  EXPECT_EQ(solver2.cache_size(), solver.cache_size());
  std::vector<symex::ExprRef> query2(st2->constraints().begin(), st2->constraints().end());
  symex::Model model2;
  EXPECT_EQ(solver2.CheckSat(query2, &model2), warm_verdict);
  if (warm_verdict == symex::Verdict::kSat) {
    EXPECT_EQ(model2, warm_model);
  }

  // Determinism: serializing the restored chain reproduces the exact bytes.
  symex::SnapshotWriter writer2;
  symex::WriteStateSections(&writer2, *st2);
  symex::WriteSchedulerSection(&writer2, pool2);
  symex::WriteSolverSection(&writer2, solver2);
  EXPECT_EQ(writer2.Finish(ctx2), bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotRoundTrip, ::testing::Range<uint64_t>(1, 13));

// ---- compiled evaluator (symex::EvalTape) against tree Eval ----
//
// The solver's local search evaluates every candidate on an EvalTape, so the
// tape must agree with Eval on every expression shape: each BinOp at widths
// 1/8/16/32, selects, zext/sext/extract, shifts by at least the width,
// division and remainder by zero, and subtrees shared between and inside
// roots. Models leave some symbols unmapped; those read 0.

// Every constant literal of `e`, ascending and deduplicated (ground truth
// for EvalTape::root_constants).
void WalkConstants(const symex::ExprRef& e, std::set<uint32_t>* out) {
  if (!e) {
    return;
  }
  if (e->kind == symex::ExprKind::kConst) {
    out->insert(e->value);
  }
  WalkConstants(e->a, out);
  WalkConstants(e->b, out);
  WalkConstants(e->c, out);
}

class EvalTapeDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvalTapeDifferential, TapeMatchesTreeEval) {
  Rng rng(GetParam() * 0x9E3779B1u + 7);
  symex::ExprContext ctx;
  const uint8_t kWidths[] = {1, 8, 16, 32};
  // pools[w]: live values of width kWidths[w]; every pool starts with fresh
  // symbols so no node folds to a constant.
  std::vector<symex::ExprRef> pools[4];
  std::vector<uint32_t> sym_ids;
  for (int w = 0; w < 4; ++w) {
    for (int k = 0; k < 3; ++k) {
      symex::ExprRef v = ctx.Sym(StrFormat("t%d_%d", w, k), kWidths[w]);
      sym_ids.push_back(v->sym_id);
      pools[w].push_back(v);
    }
  }
  auto pick = [&](int w) { return pools[w][rng.Below(static_cast<uint32_t>(pools[w].size()))]; };
  auto width_index = [](uint8_t width) { return width == 1 ? 0 : width == 8 ? 1 : width == 16 ? 2 : 3; };
  auto add = [&](const symex::ExprRef& e) {
    if (!e->IsConst()) {
      pools[width_index(e->width)].push_back(e);
    }
  };
  // Operand b: another pool value, a random constant, or a shift amount at
  // or past the width.
  auto operand = [&](int w) {
    switch (rng.Below(4)) {
      case 0:
        return ctx.Const(rng.Next32(), kWidths[w]);
      case 1:
        return ctx.Const(kWidths[w] + rng.Below(8), kWidths[w]);
      default:
        return pick(w);
    }
  };
  // Every BinOp at every width, twice, then random structure on top.
  for (int round = 0; round < 2; ++round) {
    for (int w = 0; w < 4; ++w) {
      for (int op = 0; op <= static_cast<int>(symex::BinOp::kSle); ++op) {
        add(ctx.Bin(static_cast<symex::BinOp>(op), pick(w), operand(w)));
      }
    }
  }
  for (int i = 0; i < 120; ++i) {
    int w = static_cast<int>(rng.Below(4));
    switch (rng.Below(6)) {
      case 0:
        add(ctx.Bin(static_cast<symex::BinOp>(rng.Below(17)), pick(w), operand(w)));
        break;
      case 1:
        add(ctx.Select(pick(0), pick(w), pick(w)));
        break;
      case 2:
        add(ctx.ZExt(pick(w), kWidths[w + static_cast<int>(rng.Below(4 - w))]));
        break;
      case 3:
        add(ctx.SExt(pick(w), kWidths[w + static_cast<int>(rng.Below(4 - w))]));
        break;
      case 4:
        add(ctx.ExtractByte(pick(3), rng.Below(4)));
        break;
      default:
        // Division and remainder by a symbol that is often 0 or unmapped.
        add(ctx.Bin(rng.Below(2) == 0 ? symex::BinOp::kUDiv : symex::BinOp::kURem, pick(w),
                    pools[w][rng.Below(3)]));
        break;
    }
  }

  std::vector<symex::ExprRef> roots;
  for (const auto& pool : pools) {
    roots.insert(roots.end(), pool.begin(), pool.end());
  }
  symex::EvalTape tape(roots);
  ASSERT_EQ(tape.num_roots(), roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    std::set<uint32_t> syms, consts;
    CollectSymsWalk(roots[i], &syms);
    WalkConstants(roots[i], &consts);
    std::vector<uint32_t> slot_syms;
    for (uint32_t slot : tape.root_slots(i)) {
      slot_syms.push_back(tape.syms()[slot]);
    }
    EXPECT_EQ(slot_syms, std::vector<uint32_t>(syms.begin(), syms.end())) << "root " << i;
    EXPECT_EQ(std::vector<uint32_t>(tape.root_constants(i).begin(), tape.root_constants(i).end()),
              std::vector<uint32_t>(consts.begin(), consts.end()))
        << "root " << i;
  }

  for (int trial = 0; trial < 24; ++trial) {
    symex::Model model;
    for (uint32_t sym : sym_ids) {
      switch (rng.Below(5)) {
        case 0:
          break;  // unmapped: reads 0
        case 1:
          model[sym] = 0;
          break;
        case 2:
          model[sym] = rng.Below(40);  // small: shifts past the width, tiny divisors
          break;
        default:
          model[sym] = rng.Next32();  // wider than the symbol: Eval masks it
          break;
      }
    }
    std::vector<uint32_t> slots = tape.Slots(model);
    bool all_true = true;
    // Odd trials run the roots last to first: the search re-runs single
    // tapes in any order, so no root may lean on values another root's run
    // left behind.
    for (size_t k = 0; k < roots.size(); ++k) {
      size_t i = trial % 2 == 0 ? k : roots.size() - 1 - k;
      uint32_t want = symex::Eval(roots[i], model);
      all_true = all_true && want != 0;
      ASSERT_EQ(tape.Run(i, slots.data()), want)
          << "root " << i << " " << symex::ToString(roots[i]) << " trial " << trial;
    }
    EXPECT_EQ(tape.AllTrue(slots.data()), all_true);
    // Round trip through the model: unmapped symbols come back as explicit 0.
    symex::Model back = tape.ToModel(slots);
    for (size_t s = 0; s < tape.syms().size(); ++s) {
      auto it = model.find(tape.syms()[s]);
      EXPECT_EQ(back.at(tape.syms()[s]), it == model.end() ? 0u : it->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalTapeDifferential, ::testing::Range<uint64_t>(1, 17));

// Property: the assembler's output disassembles back to text that
// re-assembles to the identical image (for label-free programs).
TEST(AssemblerProperty, DriversDisassembleCleanly) {
  // Every instruction in every driver image must decode and render.
  for (const char* name : {"rtl8029", "rtl8139", "pcnet", "smc91c111"}) {
    (void)name;
  }
  Rng rng(99);
  std::string src = RandomProgram(&rng, 50);
  auto assembled = isa::Assemble(src);
  ASSERT_TRUE(assembled.ok);
  std::string listing = isa::DisasmImage(assembled.image);
  EXPECT_EQ(std::count(listing.begin(), listing.end(), '\n'),
            static_cast<long>(assembled.image.code.size() / isa::kInstrBytes));
  EXPECT_EQ(listing.find("<invalid>"), std::string::npos);
}

}  // namespace
}  // namespace revnic
