#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "symex/expr.h"
#include "util/rng.h"
#include "util/strings.h"

namespace revnic::symex {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprContext ctx_;
};

TEST_F(ExprTest, ConstFolding) {
  ExprRef e = ctx_.Bin(BinOp::kAdd, ctx_.Const(2), ctx_.Const(3));
  ASSERT_TRUE(e->IsConst());
  EXPECT_EQ(e->value, 5u);
  e = ctx_.Bin(BinOp::kMul, ctx_.Const(0x10000), ctx_.Const(0x10000));
  EXPECT_EQ(e->value, 0u);  // wraps
  e = ctx_.Bin(BinOp::kUDiv, ctx_.Const(7), ctx_.Const(0));
  EXPECT_EQ(e->value, 0xFFFFFFFFu);  // div-by-zero saturates
}

TEST_F(ExprTest, IdentitySimplifications) {
  ExprRef v = ctx_.Sym("v");
  EXPECT_EQ(ctx_.Bin(BinOp::kAdd, v, ctx_.Const(0)).get(), v.get());
  EXPECT_EQ(ctx_.Bin(BinOp::kOr, v, ctx_.Const(0)).get(), v.get());
  EXPECT_EQ(ctx_.Bin(BinOp::kAnd, v, ctx_.Const(0xFFFFFFFF)).get(), v.get());
  EXPECT_TRUE(ctx_.Bin(BinOp::kAnd, v, ctx_.Const(0))->IsConstValue(0));
  EXPECT_TRUE(ctx_.Bin(BinOp::kMul, v, ctx_.Const(0))->IsConstValue(0));
  EXPECT_EQ(ctx_.Bin(BinOp::kMul, v, ctx_.Const(1)).get(), v.get());
}

TEST_F(ExprTest, SameOperandSimplifications) {
  ExprRef v = ctx_.Sym("v");
  EXPECT_TRUE(ctx_.Bin(BinOp::kSub, v, v)->IsConstValue(0));
  EXPECT_TRUE(ctx_.Bin(BinOp::kXor, v, v)->IsConstValue(0));
  EXPECT_TRUE(ctx_.Bin(BinOp::kEq, v, v)->IsConstValue(1));
  EXPECT_TRUE(ctx_.Bin(BinOp::kUlt, v, v)->IsConstValue(0));
}

TEST_F(ExprTest, MaskChainCollapse) {
  // (v & 0xFF) & 0x40 -> v & 0x40.
  ExprRef v = ctx_.Sym("v");
  ExprRef masked = ctx_.Bin(BinOp::kAnd, ctx_.Bin(BinOp::kAnd, v, ctx_.Const(0xFF)),
                            ctx_.Const(0x40));
  ASSERT_EQ(masked->kind, ExprKind::kBin);
  EXPECT_EQ(masked->bin_op, BinOp::kAnd);
  EXPECT_EQ(masked->a.get(), v.get());
  EXPECT_EQ(masked->b->value, 0x40u);
}

TEST_F(ExprTest, EvalRespectsModel) {
  ExprRef v = ctx_.Sym("v");
  ExprRef w = ctx_.Sym("w");
  ExprRef e = ctx_.Bin(BinOp::kXor, ctx_.Bin(BinOp::kShl, v, ctx_.Const(4)), w);
  Model m{{v->sym_id, 0x12}, {w->sym_id, 0xFF}};
  EXPECT_EQ(Eval(e, m), (0x12u << 4) ^ 0xFFu);
  EXPECT_EQ(Eval(e, Model{}), 0u);  // unmapped symbols are 0
}

TEST_F(ExprTest, SignedComparisonSemantics) {
  ExprRef a = ctx_.Const(0xFFFFFFFF);  // -1
  ExprRef b = ctx_.Const(1);
  EXPECT_TRUE(ctx_.Bin(BinOp::kSlt, a, b)->IsConstValue(1));
  EXPECT_TRUE(ctx_.Bin(BinOp::kUlt, a, b)->IsConstValue(0));
}

TEST_F(ExprTest, NotInvertsComparisons) {
  ExprRef v = ctx_.Sym("v");
  ExprRef lt = ctx_.Bin(BinOp::kUlt, v, ctx_.Const(10));
  ExprRef not_lt = ctx_.Not(lt);
  ASSERT_EQ(not_lt->kind, ExprKind::kBin);
  EXPECT_EQ(not_lt->bin_op, BinOp::kUle);  // !(v < 10) == (10 <= v)
  Model m{{v->sym_id, 10}};
  EXPECT_EQ(Eval(not_lt, m), 1u);
  m[v->sym_id] = 9;
  EXPECT_EQ(Eval(not_lt, m), 0u);
}

TEST_F(ExprTest, ExtractAndZExt) {
  ExprRef c = ctx_.Const(0xAABBCCDD);
  EXPECT_EQ(ctx_.ExtractByte(c, 0)->value, 0xDDu);
  EXPECT_EQ(ctx_.ExtractByte(c, 3)->value, 0xAAu);
  ExprRef v = ctx_.Sym("v", 8);
  ExprRef wide = ctx_.ZExt(v, 32);
  EXPECT_EQ(wide->width, 32);
  EXPECT_EQ(ctx_.ExtractByte(wide, 0).get(), v.get());
  EXPECT_TRUE(ctx_.ExtractByte(wide, 2)->IsConstValue(0));
}

TEST_F(ExprTest, SExtSemantics) {
  EXPECT_EQ(ctx_.SExt(ctx_.Const(0x80, 8), 32)->value, 0xFFFFFF80u);
  EXPECT_EQ(ctx_.SExt(ctx_.Const(0x7F, 8), 32)->value, 0x7Fu);
}

TEST_F(ExprTest, SelectSimplification) {
  ExprRef v = ctx_.Sym("v");
  EXPECT_EQ(ctx_.Select(ctx_.True(), v, ctx_.Const(0)).get(), v.get());
  EXPECT_TRUE(ctx_.Select(ctx_.False(), v, ctx_.Const(7))->IsConstValue(7));
  EXPECT_EQ(ctx_.Select(ctx_.Sym("c", 1), v, v).get(), v.get());
}

TEST_F(ExprTest, CollectSymsAndConstants) {
  ExprRef v = ctx_.Sym("v");
  ExprRef w = ctx_.Sym("w");
  ExprRef e = ctx_.Bin(BinOp::kAdd, ctx_.Bin(BinOp::kAnd, v, ctx_.Const(0xF0)), w);
  std::set<uint32_t> syms;
  CollectSyms(e, &syms);
  EXPECT_EQ(syms.size(), 2u);
  // The compiled evaluator harvests the same sets (solver candidate seeding).
  EvalTape tape({&e, 1});
  EXPECT_EQ(tape.syms(), (std::vector<uint32_t>{v->sym_id, w->sym_id}));
  EXPECT_EQ(std::vector<uint32_t>(tape.root_slots(0).begin(), tape.root_slots(0).end()),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(std::vector<uint32_t>(tape.root_constants(0).begin(), tape.root_constants(0).end()),
            (std::vector<uint32_t>{0xF0}));
}

TEST_F(ExprTest, StructuralEquality) {
  ExprRef v = ctx_.Sym("v");
  ExprRef a = ctx_.Bin(BinOp::kAdd, v, ctx_.Const(4));
  ExprRef b = ctx_.Bin(BinOp::kAdd, v, ctx_.Const(4));
  EXPECT_TRUE(Expr::Equal(a, b));
  ExprRef c = ctx_.Bin(BinOp::kAdd, v, ctx_.Const(5));
  EXPECT_FALSE(Expr::Equal(a, c));
}

TEST_F(ExprTest, ApproxNodesGrows) {
  ExprRef v = ctx_.Sym("v");
  ExprRef e = v;
  for (int i = 0; i < 10; ++i) {
    e = ctx_.Bin(BinOp::kAdd, e, v);
  }
  EXPECT_GE(e->approx_nodes, 10u);
}

TEST_F(ExprTest, InterningReturnsSamePointer) {
  // Structurally equal composite builds are hash-consed to one node.
  ExprRef v = ctx_.Sym("v");
  ExprRef w = ctx_.Sym("w");
  ExprRef a = ctx_.Bin(BinOp::kAdd, v, w);
  ExprRef b = ctx_.Bin(BinOp::kAdd, v, w);
  EXPECT_EQ(a.get(), b.get());
  ExprRef c1 = ctx_.Eq(ctx_.And(a, ctx_.Const(0xFF)), ctx_.Const(0x40));
  ExprRef c2 = ctx_.Eq(ctx_.And(b, ctx_.Const(0xFF)), ctx_.Const(0x40));
  EXPECT_EQ(c1.get(), c2.get());
  // Different shapes stay distinct.
  EXPECT_NE(a.get(), ctx_.Bin(BinOp::kAdd, w, v).get());
  uint64_t hits = ctx_.intern_stats().hits;
  EXPECT_GT(hits, 0u);
  EXPECT_GT(ctx_.intern_stats().size, 0u);
}

TEST_F(ExprTest, SmallConstantsAreShared) {
  EXPECT_EQ(ctx_.Const(0).get(), ctx_.Const(0).get());
  EXPECT_EQ(ctx_.Const(0xFF).get(), ctx_.Const(0xFF).get());
  EXPECT_EQ(ctx_.True().get(), ctx_.True().get());
  // Large constants are plain allocations, but still compare equal.
  ExprRef big1 = ctx_.Const(0xDEADBEEF);
  ExprRef big2 = ctx_.Const(0xDEADBEEF);
  EXPECT_TRUE(Expr::Equal(big1, big2));
}

TEST_F(ExprTest, CompositesOverLargeConstantsStillIntern) {
  // Large constant leaves are duplicated, but composites built over them
  // must hash-cons by value: (v & 0xFFFF) rebuilt is the same node.
  ExprRef v = ctx_.Sym("v");
  ExprRef a = ctx_.And(v, ctx_.Const(0xFFFF));
  ExprRef b = ctx_.And(v, ctx_.Const(0xFFFF));
  EXPECT_EQ(a.get(), b.get());
  ExprRef c = ctx_.Eq(ctx_.And(v, ctx_.Const(0xDEAD0000u)), ctx_.Const(0x12340000u));
  ExprRef d = ctx_.Eq(ctx_.And(v, ctx_.Const(0xDEAD0000u)), ctx_.Const(0x12340000u));
  EXPECT_EQ(c.get(), d.get());
}

TEST_F(ExprTest, CachedSymSetsMatchGroundTruth) {
  // Randomized expression builds: the symbol set cached on each node must
  // equal what a fresh DAG walk collects.
  Rng rng(1234);
  std::vector<ExprRef> pool;
  for (int i = 0; i < 6; ++i) {
    pool.push_back(ctx_.Sym(StrFormat("s%d", i), 32));
  }
  for (int i = 0; i < 4; ++i) {
    pool.push_back(ctx_.Const(rng.Next32()));
  }
  for (int iter = 0; iter < 500; ++iter) {
    ExprRef a = pool[rng.Below(static_cast<uint32_t>(pool.size()))];
    ExprRef b = pool[rng.Below(static_cast<uint32_t>(pool.size()))];
    ExprRef e;
    switch (rng.Below(4)) {
      case 0:
        e = ctx_.Bin(static_cast<BinOp>(rng.Below(17)), a, b);
        break;
      case 1:
        e = ctx_.ExtractByte(a, rng.Below(4));
        break;
      case 2:
        e = ctx_.Select(ctx_.Eq(a, b), a, b);
        break;
      default:
        e = ctx_.ZExt(ctx_.ExtractByte(a, 0), 32);
        break;
    }
    pool.push_back(e);
    std::set<uint32_t> cached;
    CollectSyms(e, &cached);
    std::set<uint32_t> walked;
    CollectSymsWalk(e, &walked);
    EXPECT_EQ(cached, walked) << ToString(e);
  }
}

TEST_F(ExprTest, SymNameBoundsChecked) {
  ExprRef v = ctx_.Sym("hw_in");
  EXPECT_EQ(ctx_.SymName(v->sym_id), "hw_in");
  EXPECT_EQ(ctx_.SymName(0xFFFFFFFFu), "<sym?>");
}

}  // namespace
}  // namespace revnic::symex
