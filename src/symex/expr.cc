#include "symex/expr.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "util/bits.h"
#include "util/strings.h"

namespace revnic::symex {
namespace {

uint64_t HashExpr(const Expr& e) {
  uint64_t h = HashCombine(static_cast<uint64_t>(e.kind) * 0x9E37u + e.width,
                           (static_cast<uint64_t>(e.bin_op) << 32) ^ e.value ^
                               (static_cast<uint64_t>(e.sym_id) << 16));
  if (e.a) {
    h = HashCombine(h, e.a->hash);
  }
  if (e.b) {
    h = HashCombine(h, e.b->hash);
  }
  if (e.c) {
    h = HashCombine(h, e.c->hash);
  }
  return h;
}

// The empty set is a sentinel without a control block (aliasing
// constructor over an empty owner): every constant node copies it, and a
// copy then touches no refcount, so lanes building constants in parallel do
// not contend on one shared atomic.
const SymSetRef& EmptySymSet() {
  static const SymSet kEmpty;
  static const SymSetRef kEmptyRef(SymSetRef(), &kEmpty);
  return kEmptyRef;
}

// Union of the operands' symbol sets, aliasing an operand's set whenever it
// already covers the result (the common case: constants contribute nothing).
SymSetRef UnionSyms(const Expr& e) {
  if (e.kind == ExprKind::kSym) {
    return std::make_shared<const SymSet>(SymSet{e.sym_id});
  }
  const SymSetRef* parts[3];
  size_t num_parts = 0;
  for (const ExprRef* op : {&e.a, &e.b, &e.c}) {
    if (*op && !(*op)->syms->empty()) {
      parts[num_parts++] = &(*op)->syms;
    }
  }
  if (num_parts == 0) {
    return EmptySymSet();
  }
  if (num_parts == 1) {
    return *parts[0];
  }
  // Alias when one operand's set contains every other (cheap subset check on
  // sorted vectors); otherwise merge.
  const SymSetRef* widest = parts[0];
  for (size_t i = 1; i < num_parts; ++i) {
    if ((*parts[i])->size() > (*widest)->size()) {
      widest = parts[i];
    }
  }
  bool covered = true;
  for (size_t i = 0; i < num_parts && covered; ++i) {
    if (parts[i] == widest) {
      continue;
    }
    covered = std::includes((*widest)->begin(), (*widest)->end(), (*parts[i])->begin(),
                            (*parts[i])->end());
  }
  if (covered) {
    return *widest;
  }
  SymSet merged;
  for (size_t i = 0; i < num_parts; ++i) {
    SymSet next;
    next.reserve(merged.size() + (*parts[i])->size());
    std::set_union(merged.begin(), merged.end(), (*parts[i])->begin(), (*parts[i])->end(),
                   std::back_inserter(next));
    merged = std::move(next);
  }
  return std::make_shared<const SymSet>(std::move(merged));
}

// Always inlined: it is the body of EvalTape::Run's inner loop.
[[gnu::always_inline]] inline uint32_t FoldBin(BinOp op, uint32_t a, uint32_t b,
                                               uint8_t width) {
  uint32_t mask = revnic::LowMask(width);
  a &= mask;
  b &= mask;
  auto sext = [&](uint32_t v) { return static_cast<int32_t>(revnic::SignExtend(v, width)); };
  switch (op) {
    case BinOp::kAdd:
      return (a + b) & mask;
    case BinOp::kSub:
      return (a - b) & mask;
    case BinOp::kMul:
      return (a * b) & mask;
    case BinOp::kUDiv:
      return b == 0 ? mask : (a / b) & mask;  // div-by-zero saturates
    case BinOp::kURem:
      return b == 0 ? a : (a % b) & mask;
    case BinOp::kAnd:
      return a & b;
    case BinOp::kOr:
      return a | b;
    case BinOp::kXor:
      return a ^ b;
    case BinOp::kShl:
      return b >= width ? 0 : (a << b) & mask;
    case BinOp::kLShr:
      return b >= width ? 0 : (a >> b) & mask;
    case BinOp::kAShr: {
      if (b >= width) {
        return (sext(a) < 0 ? mask : 0);
      }
      return static_cast<uint32_t>(sext(a) >> b) & mask;
    }
    case BinOp::kEq:
      return a == b ? 1 : 0;
    case BinOp::kNe:
      return a != b ? 1 : 0;
    case BinOp::kUlt:
      return a < b ? 1 : 0;
    case BinOp::kUle:
      return a <= b ? 1 : 0;
    case BinOp::kSlt:
      return sext(a) < sext(b) ? 1 : 0;
    case BinOp::kSle:
      return sext(a) <= sext(b) ? 1 : 0;
  }
  return 0;
}

}  // namespace

bool IsComparison(BinOp op) { return op >= BinOp::kEq; }

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "add";
    case BinOp::kSub:
      return "sub";
    case BinOp::kMul:
      return "mul";
    case BinOp::kUDiv:
      return "udiv";
    case BinOp::kURem:
      return "urem";
    case BinOp::kAnd:
      return "and";
    case BinOp::kOr:
      return "or";
    case BinOp::kXor:
      return "xor";
    case BinOp::kShl:
      return "shl";
    case BinOp::kLShr:
      return "lshr";
    case BinOp::kAShr:
      return "ashr";
    case BinOp::kEq:
      return "eq";
    case BinOp::kNe:
      return "ne";
    case BinOp::kUlt:
      return "ult";
    case BinOp::kUle:
      return "ule";
    case BinOp::kSlt:
      return "slt";
    case BinOp::kSle:
      return "sle";
  }
  return "?";
}

bool Expr::Equal(const ExprRef& x, const ExprRef& y) {
  if (x.get() == y.get()) {
    return true;
  }
  if (!x || !y || x->hash != y->hash || x->kind != y->kind || x->width != y->width ||
      x->bin_op != y->bin_op || x->value != y->value || x->sym_id != y->sym_id) {
    return false;
  }
  return Equal(x->a, y->a) && Equal(x->b, y->b) && Equal(x->c, y->c);
}

ExprRef ExprContext::Make(Expr e) {
  e.hash = HashExpr(e);
  // Allocation-free probe first: the simplifier and executor rebuild the
  // same shapes constantly, and a hit costs one hash + shallow compare.
  auto it = intern_.find(InternKey{&e});
  if (it != intern_.end()) {
    ++intern_stats_.hits;
    return *it;
  }
  ++intern_stats_.misses;
  uint64_t nodes = 1;
  if (e.a) {
    nodes += e.a->approx_nodes;
  }
  if (e.b) {
    nodes += e.b->approx_nodes;
  }
  if (e.c) {
    nodes += e.c->approx_nodes;
  }
  e.approx_nodes = static_cast<uint32_t>(std::min<uint64_t>(nodes, 0x7FFFFFFF));
  e.syms = UnionSyms(e);
  ExprRef node = std::make_shared<Expr>(std::move(e));
  intern_.insert(node);
  if (intern_.size() > kMaxInternEntries) {
    // Overflow reset: drop the pins, keep correctness (Equal is structural).
    intern_.clear();
    ++intern_stats_.resets;
  }
  return node;
}

ExprRef ExprContext::RebuildNode(ExprKind kind, uint8_t width, BinOp bin_op, uint32_t value,
                                 uint32_t sym_id, ExprRef a, ExprRef b, ExprRef c,
                                 bool interned) {
  if (kind == ExprKind::kConst) {
    // Small constants must alias the direct-mapped cache (one serialized id
    // per shared node); large ones allocate fresh per id, matching how the
    // source context built them. Const() does both. Stats: Const() counts a
    // hit/miss -- undo it so rebuilds are stat-neutral like the rest.
    InternStats before = intern_stats_;
    ExprRef node = Const(value, width);
    intern_stats_ = before;
    return node;
  }
  Expr e;
  e.kind = kind;
  e.width = width;
  e.bin_op = bin_op;
  e.value = value;
  e.sym_id = sym_id;
  e.a = std::move(a);
  e.b = std::move(b);
  e.c = std::move(c);
  e.hash = HashExpr(e);
  uint64_t nodes = 1;
  for (const ExprRef* op : {&e.a, &e.b, &e.c}) {
    if (*op) {
      nodes += (*op)->approx_nodes;
    }
  }
  e.approx_nodes = static_cast<uint32_t>(std::min<uint64_t>(nodes, 0x7FFFFFFF));
  e.syms = UnionSyms(e);
  ExprRef node = std::make_shared<Expr>(std::move(e));
  if (interned) {
    intern_.insert(node);
  }
  return node;
}

ExprRef ExprContext::Const(uint32_t value, uint8_t width) {
  uint32_t v = value & LowMask(width);
  int wi = WidthIndex(width);
  ExprRef* slot = nullptr;
  if (wi >= 0 && v < kSmallConstCacheSize) {
    slot = &small_consts_[wi][v];
    if (*slot) {
      ++intern_stats_.hits;
      return *slot;
    }
  }
  ++intern_stats_.misses;
  Expr e;
  e.kind = ExprKind::kConst;
  e.width = width;
  e.value = v;
  e.hash = HashExpr(e);
  e.syms = EmptySymSet();
  ExprRef node = std::make_shared<Expr>(std::move(e));
  if (slot != nullptr) {
    *slot = node;
  }
  return node;
}

ExprRef ExprContext::Sym(const std::string& name, uint8_t width) {
  Expr e;
  e.kind = ExprKind::kSym;
  e.width = width;
  e.sym_id = static_cast<uint32_t>(sym_names_.size());
  sym_names_.push_back(name);
  e.hash = HashExpr(e);
  e.syms = std::make_shared<const SymSet>(SymSet{e.sym_id});
  ++intern_stats_.misses;
  return std::make_shared<Expr>(std::move(e));
}

const std::string& ExprContext::SymName(uint32_t sym_id) const {
  static const std::string kUnknown = "<sym?>";
  return sym_id < sym_names_.size() ? sym_names_[sym_id] : kUnknown;
}

ExprRef ExprContext::Bin(BinOp op, ExprRef a, ExprRef b) {
  assert(a && b);
  uint8_t width = IsComparison(op) ? 1 : a->width;
  if (a->IsConst() && b->IsConst()) {
    return Const(FoldBin(op, a->value, b->value, a->width), width);
  }
  // Canonicalize constants to the right for commutative ops.
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kMul:
    case BinOp::kAnd:
    case BinOp::kOr:
    case BinOp::kXor:
    case BinOp::kEq:
    case BinOp::kNe:
      if (a->IsConst()) {
        std::swap(a, b);
      }
      break;
    default:
      break;
  }
  uint32_t mask = LowMask(a->width);
  if (b->IsConst()) {
    uint32_t c = b->value;
    switch (op) {
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kOr:
      case BinOp::kXor:
      case BinOp::kShl:
      case BinOp::kLShr:
      case BinOp::kAShr:
        if (c == 0) {
          return a;
        }
        break;
      case BinOp::kAnd:
        if (c == 0) {
          return Const(0, a->width);
        }
        if (c == mask) {
          return a;
        }
        break;
      case BinOp::kMul:
        if (c == 0) {
          return Const(0, a->width);
        }
        if (c == 1) {
          return a;
        }
        break;
      case BinOp::kUDiv:
        if (c == 1) {
          return a;
        }
        break;
      default:
        break;
    }
    // (x & m1) & m2 -> x & (m1 & m2); ditto for or/xor/add chains.
    if (a->kind == ExprKind::kBin && a->bin_op == op && a->b && a->b->IsConst()) {
      if (op == BinOp::kAnd || op == BinOp::kOr || op == BinOp::kXor || op == BinOp::kAdd) {
        uint32_t folded = FoldBin(op, a->b->value, c, a->width);
        return Bin(op, a->a, Const(folded, a->width));
      }
    }
  }
  if (Expr::Equal(a, b)) {
    switch (op) {
      case BinOp::kSub:
      case BinOp::kXor:
        return Const(0, a->width);
      case BinOp::kAnd:
      case BinOp::kOr:
        return a;
      case BinOp::kEq:
      case BinOp::kUle:
      case BinOp::kSle:
        return True();
      case BinOp::kNe:
      case BinOp::kUlt:
      case BinOp::kSlt:
        return False();
      default:
        break;
    }
  }
  Expr e;
  e.kind = ExprKind::kBin;
  e.width = width;
  e.bin_op = op;
  e.a = std::move(a);
  e.b = std::move(b);
  return Make(std::move(e));
}

ExprRef ExprContext::ExtractByte(ExprRef a, unsigned byte_index) {
  assert(a);
  assert(byte_index < 4);
  if (a->IsConst()) {
    return Const((a->value >> (8 * byte_index)) & 0xFF, 8);
  }
  if (a->width == 8 && byte_index == 0) {
    return a;
  }
  // Extract of ZExt: byte 0 of zext8->32 is the source; higher bytes are 0.
  if (a->kind == ExprKind::kZExt && a->a) {
    unsigned src_bytes = a->a->width / 8;
    if (byte_index >= src_bytes) {
      return Const(0, 8);
    }
    return ExtractByte(a->a, byte_index);
  }
  if (a->kind == ExprKind::kExtract) {
    // Extract of extract collapses only for byte 0 (widths are 8 here).
    if (byte_index == 0) {
      return a;
    }
    return Const(0, 8);
  }
  Expr e;
  e.kind = ExprKind::kExtract;
  e.width = 8;
  e.value = byte_index;
  e.a = std::move(a);
  return Make(std::move(e));
}

ExprRef ExprContext::ZExt(ExprRef a, uint8_t to_width) {
  assert(a);
  if (a->width == to_width) {
    return a;
  }
  if (a->width > to_width) {
    return Trunc(std::move(a), to_width);
  }
  if (a->IsConst()) {
    return Const(a->value, to_width);
  }
  Expr e;
  e.kind = ExprKind::kZExt;
  e.width = to_width;
  e.a = std::move(a);
  return Make(std::move(e));
}

ExprRef ExprContext::SExt(ExprRef a, uint8_t to_width) {
  assert(a);
  if (a->width == to_width) {
    return a;
  }
  if (a->width > to_width) {
    return Trunc(std::move(a), to_width);
  }
  if (a->IsConst()) {
    return Const(SignExtend(a->value, a->width), to_width);
  }
  Expr e;
  e.kind = ExprKind::kSExt;
  e.width = to_width;
  e.a = std::move(a);
  return Make(std::move(e));
}

ExprRef ExprContext::Trunc(ExprRef a, uint8_t to_width) {
  assert(a);
  if (a->width == to_width) {
    return a;
  }
  assert(a->width > to_width);
  if (a->IsConst()) {
    return Const(a->value & LowMask(to_width), to_width);
  }
  if (to_width == 8) {
    return ExtractByte(std::move(a), 0);
  }
  // Model narrow truncation as And with the low mask, keeping width 32 for
  // 16-bit values (the executor normalizes everything 16-bit through masks).
  Expr e;
  e.kind = ExprKind::kZExt;  // reuse: trunc-to-16 == (a & 0xFFFF) with width 16
  e.width = to_width;
  e.a = Bin(BinOp::kAnd, a, Const(LowMask(to_width), a->width));
  if (e.a->IsConst()) {
    return Const(e.a->value, to_width);
  }
  // Wrap as a width-changing view of the masked value.
  return Make(std::move(e));
}

ExprRef ExprContext::Select(ExprRef cond, ExprRef a, ExprRef b) {
  assert(cond && a && b);
  if (cond->IsConst()) {
    return cond->value != 0 ? a : b;
  }
  if (Expr::Equal(a, b)) {
    return a;
  }
  Expr e;
  e.kind = ExprKind::kSelect;
  e.width = a->width;
  e.a = std::move(a);
  e.b = std::move(b);
  e.c = std::move(cond);
  return Make(std::move(e));
}

ExprRef ExprContext::Not(ExprRef a) {
  assert(a && a->width == 1);
  if (a->IsConst()) {
    return Const(a->value ^ 1u, 1);
  }
  // Invert comparisons structurally.
  if (a->kind == ExprKind::kBin) {
    switch (a->bin_op) {
      case BinOp::kEq:
        return Bin(BinOp::kNe, a->a, a->b);
      case BinOp::kNe:
        return Bin(BinOp::kEq, a->a, a->b);
      case BinOp::kUlt:
        return Bin(BinOp::kUle, a->b, a->a);
      case BinOp::kUle:
        return Bin(BinOp::kUlt, a->b, a->a);
      case BinOp::kSlt:
        return Bin(BinOp::kSle, a->b, a->a);
      case BinOp::kSle:
        return Bin(BinOp::kSlt, a->b, a->a);
      default:
        break;
    }
  }
  return Bin(BinOp::kXor, a, Const(1, 1));
}

uint32_t Eval(const ExprRef& e, const Model& model) {
  switch (e->kind) {
    case ExprKind::kConst:
      return e->value;
    case ExprKind::kSym: {
      auto it = model.find(e->sym_id);
      uint32_t v = it == model.end() ? 0 : it->second;
      return v & LowMask(e->width);
    }
    case ExprKind::kBin:
      return FoldBin(e->bin_op, Eval(e->a, model), Eval(e->b, model), e->a->width);
    case ExprKind::kExtract:
      return (Eval(e->a, model) >> (8 * e->value)) & 0xFF;
    case ExprKind::kZExt:
      return Eval(e->a, model) & LowMask(e->width);
    case ExprKind::kSExt:
      return SignExtend(Eval(e->a, model), e->a->width) & LowMask(e->width);
    case ExprKind::kSelect:
      return Eval(e->c, model) != 0 ? Eval(e->a, model) : Eval(e->b, model);
  }
  return 0;
}

namespace {
// EvalTape step codes past the BinOps (which use their own values).
constexpr uint8_t kStepSym = static_cast<uint8_t>(BinOp::kSle) + 1;
constexpr uint8_t kStepExtract = kStepSym + 1;
constexpr uint8_t kStepZExt = kStepSym + 2;
constexpr uint8_t kStepSExt = kStepSym + 3;
constexpr uint8_t kStepSelect = kStepSym + 4;

// Open-addressing map from a node to the value index it got while the
// root numbered `stamp` was compiled: one flat array and no allocation per
// node, since a component is compiled on every solver cache miss.
class NodeIndexTable {
 public:
  bool Find(const Expr* e, uint32_t stamp, uint32_t* index) const {
    const Entry& entry = entries_[Probe(e)];
    if (entry.node != e || entry.stamp != stamp) {
      return false;
    }
    *index = entry.index;
    return true;
  }

  void Set(const Expr* e, uint32_t stamp, uint32_t index) {
    size_t i = Probe(e);
    if (entries_[i].node == nullptr) {
      if (2 * (used_ + 1) > entries_.size()) {  // keep the load at most 1/2
        std::vector<Entry> old = std::move(entries_);
        entries_.assign(old.size() * 2, Entry{});
        for (const Entry& entry : old) {
          if (entry.node != nullptr) {
            entries_[Probe(entry.node)] = entry;
          }
        }
        i = Probe(e);
      }
      ++used_;
    }
    entries_[i] = {e, stamp, index};
  }

 private:
  struct Entry {
    const Expr* node = nullptr;
    uint32_t stamp = 0;
    uint32_t index = 0;
  };

  // The slot holding `e`, or the empty slot where it would go.
  size_t Probe(const Expr* e) const {
    const size_t mask = entries_.size() - 1;
    size_t i = static_cast<size_t>(
                   (static_cast<uint64_t>(reinterpret_cast<uintptr_t>(e)) >> 4) *
                       0x9E3779B97F4A7C15ull >>
                   32) &
               mask;
    while (entries_[i].node != nullptr && entries_[i].node != e) {
      i = (i + 1) & mask;
    }
    return i;
  }

  std::vector<Entry> entries_ = std::vector<Entry>(64);
  size_t used_ = 0;
};

// Sorts and deduplicates v[begin, end) in place; returns the new end.
uint32_t SortUniqueTail(std::vector<uint32_t>* v, uint32_t begin) {
  if (v->size() - begin > 1) {
    std::sort(v->begin() + begin, v->end());
    v->erase(std::unique(v->begin() + begin, v->end()), v->end());
  }
  return static_cast<uint32_t>(v->size());
}
}  // namespace

EvalTape::EvalTape(std::span<const ExprRef> roots) {
  // Dense slots in ascending symbol-id order, from the symbol sets cached on
  // the roots, so each root's sorted ids map to sorted slots.
  for (const ExprRef& root : roots) {
    syms_.insert(syms_.end(), root->syms->begin(), root->syms->end());
  }
  SortUniqueTail(&syms_, 0);
  auto slot_of = [this](uint32_t sym_id) {
    return static_cast<uint32_t>(std::lower_bound(syms_.begin(), syms_.end(), sym_id) -
                                 syms_.begin());
  };

  // Node -> value index for the root being compiled (stamp = root index + 1),
  // so a node shared inside one root is emitted once and each root's tape
  // still holds every step it needs. Symbols are looked up by slot.
  // Constants skip both: a repeated one only costs another preloaded value,
  // never a step.
  struct Emitted {
    uint32_t stamp = 0;
    uint32_t index = 0;
  };
  std::vector<Emitted> sym_values(syms_.size());
  NodeIndexTable seen;
  uint32_t stamp = 0;
  auto emit = [&](auto& self, const Expr& e) -> uint32_t {
    uint32_t index = static_cast<uint32_t>(values_.size());
    if (e.kind == ExprKind::kConst) {
      root_consts_.push_back(e.value);
      values_.push_back(e.value);
      return index;
    }
    if (e.kind == ExprKind::kSym) {
      uint32_t slot = slot_of(e.sym_id);
      Emitted& done = sym_values[slot];
      if (done.stamp != stamp) {
        ops_.push_back(Op{kStepSym, e.width, index, slot, 0, 0});
        values_.push_back(0);
        done = {stamp, index};
      }
      return done.index;
    }
    if (seen.Find(&e, stamp, &index)) {
      return index;
    }
    Op op{};
    op.width = e.width;
    switch (e.kind) {
      case ExprKind::kConst:  // returned above
      case ExprKind::kSym:
        break;
      case ExprKind::kBin:
        op.code = static_cast<uint8_t>(e.bin_op);
        op.width = e.a->width;
        op.a = self(self, *e.a);
        op.b = self(self, *e.b);
        break;
      case ExprKind::kExtract:
        op.code = kStepExtract;
        op.a = self(self, *e.a);
        op.b = 8 * e.value;
        break;
      case ExprKind::kZExt:
        op.code = kStepZExt;
        op.a = self(self, *e.a);
        break;
      case ExprKind::kSExt:
        op.code = kStepSExt;
        op.a = self(self, *e.a);
        op.b = e.a->width;
        break;
      case ExprKind::kSelect:
        op.code = kStepSelect;
        op.a = self(self, *e.a);
        op.b = self(self, *e.b);
        op.c = self(self, *e.c);
        break;
    }
    index = static_cast<uint32_t>(values_.size());
    values_.push_back(0);
    op.dst = index;
    ops_.push_back(op);
    seen.Set(&e, stamp, index);
    return index;
  };

  roots_.reserve(roots.size());
  for (const ExprRef& root : roots) {
    ++stamp;
    Root r;
    r.op_begin = static_cast<uint32_t>(ops_.size());
    r.const_begin = static_cast<uint32_t>(root_consts_.size());
    r.result = emit(emit, *root);
    r.op_end = static_cast<uint32_t>(ops_.size());
    r.const_end = SortUniqueTail(&root_consts_, r.const_begin);
    r.slot_begin = static_cast<uint32_t>(root_slots_.size());
    for (uint32_t sym : *root->syms) {
      root_slots_.push_back(slot_of(sym));
    }
    r.slot_end = static_cast<uint32_t>(root_slots_.size());
    roots_.push_back(r);
  }
}

std::vector<uint32_t> EvalTape::Slots(const Model& model) const {
  std::vector<uint32_t> slots(syms_.size());
  for (size_t s = 0; s < syms_.size(); ++s) {
    auto it = model.find(syms_[s]);
    slots[s] = it == model.end() ? 0 : it->second;
  }
  return slots;
}

Model EvalTape::ToModel(std::span<const uint32_t> slots) const {
  Model model;
  for (size_t s = 0; s < syms_.size(); ++s) {
    model.emplace_hint(model.end(), syms_[s], slots[s]);
  }
  return model;
}

void EvalTape::RunOps(const Op* op, const Op* end, uint32_t* v, const uint32_t* slots) {
  for (; op != end; ++op) {
    uint32_t x;
    switch (op->code) {
      case kStepSym:
        x = slots[op->a] & LowMask(op->width);
        break;
      case kStepExtract:
        x = (v[op->a] >> op->b) & 0xFF;
        break;
      case kStepZExt:
        x = v[op->a] & LowMask(op->width);
        break;
      case kStepSExt:
        x = SignExtend(v[op->a], op->b) & LowMask(op->width);
        break;
      case kStepSelect:
        x = v[op->c] != 0 ? v[op->a] : v[op->b];
        break;
      default:
        x = FoldBin(static_cast<BinOp>(op->code), v[op->a], v[op->b], op->width);
        break;
    }
    v[op->dst] = x;
  }
}

uint32_t EvalTape::Run(size_t i, const uint32_t* slots) {
  const Root& r = roots_[i];
  RunOps(ops_.data() + r.op_begin, ops_.data() + r.op_end, values_.data(), slots);
  return values_[r.result];
}

bool EvalTape::AllTrue(const uint32_t* slots) {
  for (size_t i = 0; i < roots_.size(); ++i) {
    if (Run(i, slots) == 0) {
      return false;
    }
  }
  return true;
}

uint32_t EvalTape::Cone(size_t i, uint32_t slot) {
  const Root& r = roots_[i];
  if (cone_of_.empty()) {
    cone_of_.assign(root_slots_.size(), 0);
    in_cone_.assign(values_.size(), 0);
  }
  const uint32_t* base = root_slots_.data();
  const uint32_t* pos = std::lower_bound(base + r.slot_begin, base + r.slot_end, slot);
  assert(pos != base + r.slot_end && *pos == slot);
  uint32_t& handle = cone_of_[pos - base];
  if (handle != 0) {
    return handle - 1;
  }
  // One forward pass: an op is in the cone iff it is `slot`'s symbol step
  // or reads a value in the cone. Every operand is a constant (never
  // flagged) or an earlier op of the same root (flagged in this pass), so
  // flags left by other cones are never read.
  ConeRange cone{static_cast<uint32_t>(cone_ops_.size()), 0, r.result};
  uint8_t* in_cone = in_cone_.data();
  for (const Op* op = ops_.data() + r.op_begin; op != ops_.data() + r.op_end; ++op) {
    uint8_t reads;
    switch (op->code) {
      case kStepSym:
        reads = op->a == slot;
        break;
      case kStepExtract:
      case kStepZExt:
      case kStepSExt:  // b is a shift or a width, not a value
        reads = in_cone[op->a];
        break;
      case kStepSelect:
        reads = in_cone[op->a] | in_cone[op->b] | in_cone[op->c];
        break;
      default:
        reads = in_cone[op->a] | in_cone[op->b];
        break;
    }
    in_cone[op->dst] = reads;
    if (reads != 0) {
      cone_ops_.push_back(*op);
    }
  }
  cone.op_end = static_cast<uint32_t>(cone_ops_.size());
  handle = static_cast<uint32_t>(cones_.size()) + 1;
  cones_.push_back(cone);
  return handle - 1;
}

uint32_t EvalTape::RunCone(uint32_t cone, const uint32_t* slots) {
  const ConeRange& c = cones_[cone];
  RunOps(cone_ops_.data() + c.op_begin, cone_ops_.data() + c.op_end, values_.data(), slots);
  return values_[c.result];
}

namespace {
template <typename Fn>
void Visit(const ExprRef& e, std::unordered_set<const Expr*>* seen, Fn&& fn) {
  if (!e || !seen->insert(e.get()).second) {
    return;
  }
  fn(e);
  Visit(e->a, seen, fn);
  Visit(e->b, seen, fn);
  Visit(e->c, seen, fn);
}
}  // namespace

void CollectSyms(const ExprRef& e, std::set<uint32_t>* out) {
  if (!e) {
    return;
  }
  out->insert(e->syms->begin(), e->syms->end());
}

void CollectSymsWalk(const ExprRef& e, std::set<uint32_t>* out) {
  std::unordered_set<const Expr*> seen;
  Visit(e, &seen, [out](const ExprRef& n) {
    if (n->kind == ExprKind::kSym) {
      out->insert(n->sym_id);
    }
  });
}

size_t ExprSize(const ExprRef& e) {
  std::unordered_set<const Expr*> seen;
  size_t count = 0;
  Visit(e, &seen, [&count](const ExprRef&) { ++count; });
  return count;
}

std::string ToString(const ExprRef& e) {
  if (!e) {
    return "<null>";
  }
  switch (e->kind) {
    case ExprKind::kConst:
      return StrFormat("0x%x", e->value);
    case ExprKind::kSym:
      return StrFormat("v%u", e->sym_id);
    case ExprKind::kBin:
      return StrFormat("(%s %s %s)", BinOpName(e->bin_op), ToString(e->a).c_str(),
                       ToString(e->b).c_str());
    case ExprKind::kExtract:
      return StrFormat("(byte%u %s)", e->value, ToString(e->a).c_str());
    case ExprKind::kZExt:
      return StrFormat("(zext%u %s)", e->width, ToString(e->a).c_str());
    case ExprKind::kSExt:
      return StrFormat("(sext%u %s)", e->width, ToString(e->a).c_str());
    case ExprKind::kSelect:
      return StrFormat("(select %s %s %s)", ToString(e->c).c_str(), ToString(e->a).c_str(),
                       ToString(e->b).c_str());
  }
  return "?";
}

}  // namespace revnic::symex
