#include <gtest/gtest.h>

#include "symex/solver.h"

namespace revnic::symex {
namespace {

class SolverTest : public ::testing::Test {
 protected:
  ExprContext ctx_;
  Solver solver_;
};

TEST_F(SolverTest, EmptyConstraintsAreSat) {
  Model m;
  EXPECT_EQ(solver_.CheckSat({}, &m), Verdict::kSat);
}

TEST_F(SolverTest, ConstantFalseIsUnsat) {
  EXPECT_EQ(solver_.CheckSat({ctx_.False()}, nullptr), Verdict::kUnsat);
}

TEST_F(SolverTest, SimpleEquality) {
  ExprRef v = ctx_.Sym("v");
  Model m;
  ASSERT_EQ(solver_.CheckSat({ctx_.Eq(v, ctx_.Const(0x1234))}, &m), Verdict::kSat);
  EXPECT_EQ(m[v->sym_id], 0x1234u);
}

TEST_F(SolverTest, ContradictoryEqualitiesUnsat) {
  ExprRef v = ctx_.Sym("v");
  auto verdict = solver_.CheckSat(
      {ctx_.Eq(v, ctx_.Const(1)), ctx_.Eq(v, ctx_.Const(2))}, nullptr);
  EXPECT_EQ(verdict, Verdict::kUnsat);
}

TEST_F(SolverTest, StructuralNegationUnsat) {
  ExprRef v = ctx_.Sym("v");
  ExprRef cond = ctx_.Bin(BinOp::kUlt, v, ctx_.Const(10));
  auto verdict = solver_.CheckSat({cond, ctx_.Not(cond)}, nullptr);
  EXPECT_EQ(verdict, Verdict::kUnsat);
}

TEST_F(SolverTest, RangeConstraints) {
  ExprRef v = ctx_.Sym("v");
  Model m;
  std::vector<ExprRef> cs = {ctx_.Bin(BinOp::kUlt, v, ctx_.Const(100)),
                             ctx_.Bin(BinOp::kUle, ctx_.Const(90), v)};
  ASSERT_EQ(solver_.CheckSat(cs, &m), Verdict::kSat);
  EXPECT_LT(m[v->sym_id], 100u);
  EXPECT_GE(m[v->sym_id], 90u);
}

TEST_F(SolverTest, MaskedBitConstraints) {
  // (v & 0x40) == 0x40 and (v & 0x0F) == 5 simultaneously.
  ExprRef v = ctx_.Sym("v");
  Model m;
  std::vector<ExprRef> cs = {
      ctx_.Eq(ctx_.And(v, ctx_.Const(0x40)), ctx_.Const(0x40)),
      ctx_.Eq(ctx_.And(v, ctx_.Const(0x0F)), ctx_.Const(5)),
  };
  ASSERT_EQ(solver_.CheckSat(cs, &m), Verdict::kSat);
  EXPECT_EQ(m[v->sym_id] & 0x40u, 0x40u);
  EXPECT_EQ(m[v->sym_id] & 0x0Fu, 5u);
}

TEST_F(SolverTest, OidComparisonChain) {
  // The driver IOCTL pattern: a chain of Ne's then one Eq.
  ExprRef oid = ctx_.Sym("oid");
  std::vector<ExprRef> cs;
  const uint32_t kOids[] = {0x01010101, 0x01010102, 0x0001010E, 0x00010107};
  for (uint32_t k : kOids) {
    cs.push_back(ctx_.Bin(BinOp::kNe, oid, ctx_.Const(k)));
  }
  Model m;
  ASSERT_EQ(solver_.MayBeTrue(cs, ctx_.Eq(oid, ctx_.Const(0x01010103)), &m), Verdict::kSat);
  EXPECT_EQ(m[oid->sym_id], 0x01010103u);
  // And the impossible one: oid equals an excluded constant.
  EXPECT_EQ(solver_.MayBeTrue(cs, ctx_.Eq(oid, ctx_.Const(0x01010101)), &m), Verdict::kUnsat);
}

TEST_F(SolverTest, ArithmeticChain) {
  // ((v + 3) & 0xFF) == 0x10
  ExprRef v = ctx_.Sym("v");
  ExprRef expr = ctx_.And(ctx_.Add(v, ctx_.Const(3)), ctx_.Const(0xFF));
  Model m;
  ASSERT_EQ(solver_.CheckSat({ctx_.Eq(expr, ctx_.Const(0x10))}, &m), Verdict::kSat);
  EXPECT_EQ((m[v->sym_id] + 3) & 0xFF, 0x10u);
}

TEST_F(SolverTest, MultiVariableSystem) {
  ExprRef a = ctx_.Sym("a");
  ExprRef b = ctx_.Sym("b");
  std::vector<ExprRef> cs = {
      ctx_.Eq(ctx_.And(a, ctx_.Const(0xFF)), ctx_.Const(0x7F)),
      ctx_.Eq(b, ctx_.Const(0x1000)),
      ctx_.Bin(BinOp::kNe, a, b),
  };
  Model m;
  ASSERT_EQ(solver_.CheckSat(cs, &m), Verdict::kSat);
  EXPECT_EQ(m[a->sym_id] & 0xFFu, 0x7Fu);
  EXPECT_EQ(m[b->sym_id], 0x1000u);
}

TEST_F(SolverTest, HintAcceleratesIncrementalQueries) {
  ExprRef v = ctx_.Sym("v");
  std::vector<ExprRef> cs = {ctx_.Eq(v, ctx_.Const(42))};
  Model hint{{v->sym_id, 42}};
  Model m;
  ASSERT_EQ(solver_.CheckSat(cs, &m, &hint), Verdict::kSat);
  EXPECT_EQ(m[v->sym_id], 42u);
  // The hint path should resolve without entering search (few evals).
  uint64_t evals_before = solver_.stats().evals;
  solver_.CheckSat(cs, &m, &hint);
  EXPECT_LE(solver_.stats().evals - evals_before, 4u);
}

TEST_F(SolverTest, MustBeTrue) {
  ExprRef v = ctx_.Sym("v");
  std::vector<ExprRef> cs = {ctx_.Eq(v, ctx_.Const(7))};
  EXPECT_TRUE(solver_.MustBeTrue(cs, ctx_.Bin(BinOp::kUlt, v, ctx_.Const(8)), &ctx_));
  EXPECT_FALSE(solver_.MustBeTrue(cs, ctx_.Bin(BinOp::kUlt, v, ctx_.Const(7)), &ctx_));
}

TEST_F(SolverTest, ConstCondFastPath) {
  Model m;
  EXPECT_EQ(solver_.MayBeTrue({}, ctx_.True(), &m), Verdict::kSat);
  EXPECT_EQ(solver_.MayBeTrue({}, ctx_.False(), &m), Verdict::kUnsat);
}

// ---- golden pins for the local search ----
//
// Components that structural checks, propagation and the (empty) model
// shelf cannot decide, so the verdict comes out of Solver::Search. Each case
// pins the verdict, the model, the evaluation count and the rng stream
// position. The values were recorded with the tree-walking evaluator; any
// change to how the search evaluates constraints must reproduce them
// exactly, because exploration (and with it every checkpoint byte) follows
// the solver's models and rng draws.
struct SearchPin {
  Verdict verdict;
  Model model;
  uint64_t evals;
  uint64_t rng_state;
};

void ExpectPin(Solver* solver, const std::vector<ExprRef>& cs, const SearchPin& pin,
               const Model* hint = nullptr) {
  Model m;
  EXPECT_EQ(solver->CheckSat(cs, &m, hint), pin.verdict);
  EXPECT_EQ(m, pin.model);
  EXPECT_EQ(solver->stats().evals, pin.evals);
  EXPECT_EQ(solver->rng_state(), pin.rng_state);
  EXPECT_EQ(solver->stats().shelf_hits, 0u);
}

TEST_F(SolverTest, SearchPinMulXorAddChain) {
  ExprRef a = ctx_.Sym("a");
  ExprRef b = ctx_.Sym("b");
  ExprRef c = ctx_.Sym("c");
  std::vector<ExprRef> cs = {
      ctx_.Eq(ctx_.And(ctx_.Bin(BinOp::kXor, a, b), ctx_.Const(0xFF)), ctx_.Const(0x36)),
      ctx_.Eq(ctx_.And(ctx_.Add(b, c), ctx_.Const(0xF0)), ctx_.Const(0x50)),
      ctx_.Eq(ctx_.And(ctx_.Bin(BinOp::kMul, a, ctx_.Const(5)), ctx_.Const(0xF)),
              ctx_.Const(0x3)),
  };
  ExpectPin(&solver_, cs,
            {Verdict::kSat, {{0, 55}, {1, 1}, {2, 80}}, 1078, 1998715050314828417ull});
}

TEST_F(SolverTest, SearchPinNarrowWidthsAndSelect) {
  // Byte-wide symbols widened into 32-bit arithmetic, a sign-extended
  // compare and a select, with a shared subterm used by three constraints.
  ExprRef x = ctx_.Sym("x", 8);
  ExprRef y = ctx_.Sym("y", 16);
  ExprRef z = ctx_.Sym("z");
  ExprRef sum = ctx_.Add(ctx_.ZExt(x, 32), ctx_.ZExt(y, 32));
  ExprRef pick = ctx_.Select(ctx_.Bin(BinOp::kUlt, z, ctx_.Const(0x100)), sum,
                             ctx_.Bin(BinOp::kShl, sum, ctx_.Const(1)));
  std::vector<ExprRef> cs = {
      ctx_.Eq(ctx_.And(ctx_.Bin(BinOp::kXor, sum, z), ctx_.Const(0x3C)), ctx_.Const(0x24)),
      ctx_.Bin(BinOp::kSlt, ctx_.SExt(y, 32), ctx_.Const(0)),
      ctx_.Eq(ctx_.And(pick, ctx_.Const(0x7)), ctx_.Const(0x6)),
      ctx_.Bin(BinOp::kNe, ctx_.ExtractByte(ctx_.Bin(BinOp::kMul, sum, z), 1), ctx_.Const(0, 8)),
  };
  ExpectPin(&solver_, cs,
            {Verdict::kSat, {{0, 0}, {1, 0xFFFFFFFFu}, {2, 3501904090u}}, 168,
             2298681937012504955ull});
}

TEST_F(SolverTest, SearchPinHintSeededRepair) {
  // The incremental pattern: a hint that satisfies the old conditions but
  // not the new one, so the search starts from the hint.
  ExprRef a = ctx_.Sym("a");
  ExprRef b = ctx_.Sym("b");
  std::vector<ExprRef> cs = {
      ctx_.Bin(BinOp::kUlt, ctx_.And(ctx_.Add(a, b), ctx_.Const(0xFFF)), ctx_.Const(0x300)),
      ctx_.Bin(BinOp::kUlt, a, ctx_.Bin(BinOp::kLShr, b, ctx_.Const(4))),
      ctx_.Bin(BinOp::kNe, ctx_.Bin(BinOp::kURem, b, a), ctx_.Const(0x40)),
  };
  Model hint{{a->sym_id, 0x34}, {b->sym_id, 0x200}};
  ExpectPin(&solver_, cs, {Verdict::kSat, {{0, 52}, {1, 0xFFFFFFFBu}}, 41, 8709371129873690709ull},
            &hint);
}

TEST_F(SolverTest, SearchPinUnsatEndsUnknown) {
  // Unsatisfiable ((a ^ b) & 0xFF cannot be both 0x12 and 0x13), but no
  // structural check sees it: the search exhausts its budget.
  ExprRef a = ctx_.Sym("a");
  ExprRef b = ctx_.Sym("b");
  ExprRef low = ctx_.And(ctx_.Bin(BinOp::kXor, a, b), ctx_.Const(0xFF));
  std::vector<ExprRef> cs = {
      ctx_.Eq(low, ctx_.Const(0x12)),
      ctx_.Eq(low, ctx_.Const(0x13)),
      ctx_.Bin(BinOp::kUlt, ctx_.Bin(BinOp::kUDiv, a, b), ctx_.Const(3)),
  };
  ExpectPin(&solver_, cs, {Verdict::kUnknown, {}, 2399, 2726749977579322079ull});
}

class SolverSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SolverSweepTest, EqualityAlwaysSolvable) {
  // Property: for any constant k, Eq(v, k) is sat with model v == k.
  ExprContext ctx;
  Solver solver;
  ExprRef v = ctx.Sym("v");
  Model m;
  ASSERT_EQ(solver.CheckSat({ctx.Eq(v, ctx.Const(GetParam()))}, &m), Verdict::kSat);
  EXPECT_EQ(m[v->sym_id], GetParam());
}

INSTANTIATE_TEST_SUITE_P(Constants, SolverSweepTest,
                         ::testing::Values(0u, 1u, 0x7Fu, 0x80u, 0xFFu, 0x8000u, 0xFFFFu,
                                           0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu));

}  // namespace
}  // namespace revnic::symex
