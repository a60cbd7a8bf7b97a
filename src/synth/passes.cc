#include "synth/passes.h"

#include <algorithm>
#include <deque>

#include "ir/analysis.h"
#include "ir/verifier.h"
#include "isa/isa.h"
#include "synth/cemit.h"
#include "util/bits.h"
#include "util/strings.h"

namespace revnic::synth {

using ir::Block;
using ir::Instr;
using ir::Op;
using ir::Term;

namespace {

// ---- shared helpers (formerly cfg.cc internals) ----

// Splits one translation block at interior leaders, appending the resulting
// basic blocks to `out` (first-wins on duplicate pcs).
void SplitBlock(const Block& tb, const std::set<uint32_t>& leaders,
                std::map<uint32_t, Block>* out) {
  std::vector<uint32_t> cuts;  // leader offsets (guest-instruction indices)
  auto it = leaders.upper_bound(tb.guest_pc);
  while (it != leaders.end() && *it < tb.guest_pc + tb.guest_size) {
    cuts.push_back((*it - tb.guest_pc) / isa::kInstrBytes);
    ++it;
  }
  if (cuts.empty()) {
    out->emplace(tb.guest_pc, tb);
    return;
  }
  cuts.push_back(tb.guest_size / isa::kInstrBytes);  // sentinel end
  uint32_t seg_start_idx = 0;
  for (size_t seg = 0; seg < cuts.size(); ++seg) {
    uint32_t seg_end_idx = cuts[seg];
    Block piece;
    piece.guest_pc = tb.guest_pc + seg_start_idx * isa::kInstrBytes;
    piece.guest_size = (seg_end_idx - seg_start_idx) * isa::kInstrBytes;
    piece.num_temps = tb.num_temps;
    for (const Instr& i : tb.instrs) {
      if (i.guest_idx >= seg_start_idx && i.guest_idx < seg_end_idx) {
        piece.instrs.push_back(i);
      }
    }
    if (seg + 1 == cuts.size()) {
      piece.term = tb.term;
      piece.target = tb.target;
      piece.fallthrough = tb.fallthrough;
      piece.cond_tmp = tb.cond_tmp;
    } else {
      piece.term = Term::kFallthrough;
      piece.target = tb.guest_pc + seg_end_idx * isa::kInstrBytes;
    }
    out->emplace(piece.guest_pc, std::move(piece));
    seg_start_idx = seg_end_idx;
  }
}

// Pattern-matches "temp = fp + constant" chains within a block, returning a
// map temp -> offset for temps derived from the frame pointer.
std::map<int32_t, uint32_t> FpOffsets(const Block& block) {
  std::map<int32_t, uint32_t> fp_off;
  std::map<int32_t, uint32_t> const_val;
  for (const Instr& i : block.instrs) {
    switch (i.op) {
      case Op::kConst:
        const_val[i.dst] = i.imm;
        break;
      case Op::kGetReg:
        if (i.imm == isa::kRegFp) {
          fp_off[i.dst] = 0;
        }
        break;
      case Op::kMov:
        if (fp_off.count(i.a) != 0) {
          fp_off[i.dst] = fp_off[i.a];
        }
        if (const_val.count(i.a) != 0) {
          const_val[i.dst] = const_val[i.a];
        }
        break;
      case Op::kAdd:
        if (fp_off.count(i.a) != 0 && const_val.count(i.b) != 0) {
          fp_off[i.dst] = fp_off[i.a] + const_val[i.b];
        } else if (fp_off.count(i.b) != 0 && const_val.count(i.a) != 0) {
          fp_off[i.dst] = fp_off[i.b] + const_val[i.a];
        }
        break;
      default:
        break;
    }
  }
  return fp_off;
}

// Does `block` read guest r0 before writing it? (Return-value def-use.)
bool ReadsR0BeforeDef(const Block& block) {
  for (const Instr& i : block.instrs) {
    if (i.op == Op::kGetReg && i.imm == isa::kRegR0) {
      return true;
    }
    if (i.op == Op::kSetReg && i.imm == isa::kRegR0) {
      return false;
    }
  }
  return false;
}

// ---- recovery passes (the §4.1 steps of the old monolithic builder) ----

// Orders the wiretap's block records by state/seq and counts asynchronous
// boundaries: a record whose resolved successor or register file does not
// match the next record marks an injected event, not a CFG edge. Also
// initializes the module's code window and the trace-size stats.
// items = async boundaries.
class TraceAsyncPass : public SynthPass {
 public:
  const char* name() const override { return "trace-async"; }
  void Run(SynthContext& ctx, ir::PassStats* ps) override {
    ctx.module.code_begin = ctx.bundle->code_begin;
    ctx.module.code_end = ctx.bundle->code_end;
    ctx.stats.translation_blocks = ctx.bundle->blocks.size();
    ctx.stats.trace_bytes = ctx.bundle->ApproxBytes();
    std::map<uint64_t, std::vector<const trace::BlockRecord*>> by_state;
    for (const trace::BlockRecord& r : ctx.bundle->block_records) {
      by_state[r.state_id].push_back(&r);
    }
    for (auto& [state_id, records] : by_state) {
      std::sort(records.begin(), records.end(),
                [](const trace::BlockRecord* a, const trace::BlockRecord* b) {
                  return a->seq < b->seq;
                });
      for (size_t i = 0; i + 1 < records.size(); ++i) {
        const trace::BlockRecord* cur = records[i];
        const trace::BlockRecord* next = records[i + 1];
        bool contiguous = cur->next_pc == next->pc && cur->after == next->before;
        if (!contiguous) {
          ++ctx.stats.async_boundaries;
        }
      }
    }
    ps->items = ctx.stats.async_boundaries;
    ps->changed = true;
  }
};

// Collects the observed targets of indirect jumps/calls from the wiretap
// (jump tables, §3.4). items = distinct (block, target) pairs.
class TraceIndirectPass : public SynthPass {
 public:
  const char* name() const override { return "trace-indirect"; }
  void Run(SynthContext& ctx, ir::PassStats* ps) override {
    for (const trace::BlockRecord& r : ctx.bundle->block_records) {
      auto bit = ctx.bundle->blocks.find(r.pc);
      if (bit == ctx.bundle->blocks.end()) {
        continue;
      }
      Term term = bit->second.term;
      if ((term == Term::kJumpInd || term == Term::kCallInd) && ctx.InCode(r.next_pc)) {
        if (ctx.module.indirect_targets[r.pc].insert(r.next_pc).second) {
          ++ps->items;
        }
      }
    }
    ps->changed = ps->items != 0;
  }
};

// Computes leaders (every translated pc plus every static/observed target)
// and splits translation blocks into basic blocks. items = basic blocks.
class SplitBlocksPass : public SynthPass {
 public:
  const char* name() const override { return "split-blocks"; }
  void Run(SynthContext& ctx, ir::PassStats* ps) override {
    RecoveredModule& m = ctx.module;
    std::set<uint32_t> leaders;
    for (const auto& [pc, block] : ctx.bundle->blocks) {
      leaders.insert(pc);
      switch (block.term) {
        case Term::kBranch:
          leaders.insert(block.target);
          leaders.insert(block.fallthrough);
          break;
        case Term::kJump:
        case Term::kFallthrough:
          leaders.insert(block.target);
          break;
        case Term::kCall:
          leaders.insert(block.target);
          leaders.insert(block.fallthrough);
          break;
        case Term::kCallInd:
        case Term::kSyscall:
          leaders.insert(block.fallthrough);
          break;
        default:
          break;
      }
    }
    for (const auto& [pc, targets] : m.indirect_targets) {
      leaders.insert(targets.begin(), targets.end());
    }
    for (const auto& [pc, block] : ctx.bundle->blocks) {
      SplitBlock(block, leaders, &m.blocks);
    }
    ctx.stats.basic_blocks = m.blocks.size();
    ps->items = m.blocks.size();
    ps->changed = true;
  }
};

// Function boundaries from call-return pairs (§4.1): entry points + call
// targets become function entries; blocks are assigned by intraprocedural
// reachability, collecting callees, API uses, and coverage holes.
// items = functions; removed = coverage holes flagged.
class DiscoverFunctionsPass : public SynthPass {
 public:
  const char* name() const override { return "discover-functions"; }
  void Run(SynthContext& ctx, ir::PassStats* ps) override {
    RecoveredModule& m = ctx.module;
    std::set<uint32_t> function_entries;
    if (ctx.InCode(ctx.bundle->entry)) {
      function_entries.insert(ctx.bundle->entry);
    }
    for (const os::EntryPoint& e : *ctx.entries) {
      if (ctx.InCode(e.pc)) {
        function_entries.insert(e.pc);
      }
    }
    for (const auto& [pc, block] : m.blocks) {
      if (block.term == Term::kCall && ctx.InCode(block.target)) {
        function_entries.insert(block.target);
      }
      if (block.term == Term::kCallInd) {
        auto it = m.indirect_targets.find(pc);
        if (it != m.indirect_targets.end()) {
          function_entries.insert(it->second.begin(), it->second.end());
        }
      }
    }

    for (uint32_t entry : function_entries) {
      RecoveredFunction fn;
      fn.entry_pc = entry;
      fn.name = StrFormat("function_%x", entry);
      std::set<uint32_t> visited;
      std::deque<uint32_t> work{entry};
      while (!work.empty()) {
        uint32_t pc = work.front();
        work.pop_front();
        if (visited.count(pc) != 0) {
          continue;
        }
        auto it = m.blocks.find(pc);
        if (it == m.blocks.end()) {
          if (ctx.InCode(pc)) {
            fn.unexplored_targets.insert(pc);  // coverage hole: flag it
          }
          continue;
        }
        visited.insert(pc);
        const Block& b = it->second;
        switch (b.term) {
          case Term::kBranch:
            work.push_back(b.target);
            work.push_back(b.fallthrough);
            break;
          case Term::kJump:
          case Term::kFallthrough:
            work.push_back(b.target);
            break;
          case Term::kJumpInd: {
            auto tit = m.indirect_targets.find(pc);
            if (tit != m.indirect_targets.end()) {
              for (uint32_t t : tit->second) {
                work.push_back(t);
              }
            }
            break;
          }
          case Term::kCall:
            fn.callees.insert(b.target);
            work.push_back(b.fallthrough);
            break;
          case Term::kCallInd: {
            auto tit = m.indirect_targets.find(pc);
            if (tit != m.indirect_targets.end()) {
              fn.callees.insert(tit->second.begin(), tit->second.end());
            }
            work.push_back(b.fallthrough);
            break;
          }
          case Term::kSyscall:
            fn.api_ids.insert(b.target);
            fn.has_os_calls = true;
            work.push_back(b.fallthrough);
            break;
          case Term::kRet:
          case Term::kHalt:
            break;
        }
      }
      fn.block_pcs.assign(visited.begin(), visited.end());
      ctx.stats.coverage_holes += fn.unexplored_targets.size();
      ps->removed += fn.unexplored_targets.size();
      m.functions.emplace(entry, std::move(fn));
    }
    ps->items = m.functions.size();
    ps->changed = true;
  }
};

// Hardware-access classification (§4.2 taxonomy): direct I/O, wiretap
// device-access records, and a transitive fixpoint over callees decide each
// function's type. items = functions classified.
class ClassifyFunctionsPass : public SynthPass {
 public:
  const char* name() const override { return "classify-functions"; }
  void Run(SynthContext& ctx, ir::PassStats* ps) override {
    RecoveredModule& m = ctx.module;
    std::set<uint32_t> hw_record_pcs;
    for (const trace::MemRecord& r : ctx.bundle->mem_records) {
      if (r.kind != trace::MemKind::kRam) {
        hw_record_pcs.insert(r.pc);
      }
    }
    for (auto& [entry, fn] : m.functions) {
      for (uint32_t pc : fn.block_pcs) {
        const Block& b = m.blocks.at(pc);
        for (const Instr& i : b.instrs) {
          if (i.op == Op::kIn || i.op == Op::kOut) {
            fn.has_hw_io = true;
          }
        }
        if (hw_record_pcs.count(pc) != 0) {
          fn.has_hw_io = true;
        }
      }
    }
    // Transitive hardware use through callees (fixpoint).
    bool changed = true;
    std::map<uint32_t, bool> hw_closure;
    for (auto& [entry, fn] : m.functions) {
      hw_closure[entry] = fn.has_hw_io;
    }
    while (changed) {
      changed = false;
      for (auto& [entry, fn] : m.functions) {
        if (hw_closure[entry]) {
          continue;
        }
        for (uint32_t callee : fn.callees) {
          auto it = hw_closure.find(callee);
          if (it != hw_closure.end() && it->second) {
            hw_closure[entry] = true;
            changed = true;
            break;
          }
        }
      }
    }
    for (auto& [entry, fn] : m.functions) {
      bool hw = fn.has_hw_io;
      bool hw_transitive = hw_closure[entry];
      if (fn.has_os_calls) {
        fn.type = hw ? FunctionType::kMixed : FunctionType::kOsGlue;
      } else if (hw) {
        fn.type = FunctionType::kHardwareOnly;
      } else if (hw_transitive) {
        fn.type = FunctionType::kHardwareOnly;  // pure dispatcher over hw helpers
      } else {
        fn.type = FunctionType::kPureCompute;
      }
    }
    ps->items = m.functions.size();
    ps->changed = true;
  }
};

// Parameters and return values by def-use (§4.1): frame-pointer offset
// loads in the plausible stack-arg window give the parameter count; a
// call-site successor reading r0 before redefining it marks the callee as
// value-returning. items = parameters inferred; rewritten = returns found.
class InferParamsPass : public SynthPass {
 public:
  const char* name() const override { return "infer-params"; }
  void Run(SynthContext& ctx, ir::PassStats* ps) override {
    RecoveredModule& m = ctx.module;
    for (auto& [entry, fn] : m.functions) {
      unsigned max_param = 0;
      for (uint32_t pc : fn.block_pcs) {
        const Block& b = m.blocks.at(pc);
        std::map<int32_t, uint32_t> fp_off = FpOffsets(b);
        for (const Instr& i : b.instrs) {
          if ((i.op == Op::kLoad || i.op == Op::kStore) && fp_off.count(i.a) != 0) {
            uint32_t off = fp_off[i.a];
            if (off >= 8 && off < 8 + 16 * 4) {  // plausible stack-arg window
              max_param = std::max(max_param, (off - 8) / 4 + 1);
            }
          }
        }
      }
      fn.num_params = max_param;
      ps->items += max_param;
    }
    // Return values: a call-site successor reading r0 before redefining it.
    for (auto& [entry, fn] : m.functions) {
      for (uint32_t pc : fn.block_pcs) {
        const Block& b = m.blocks.at(pc);
        if (b.term != Term::kCall) {
          continue;
        }
        auto callee = m.functions.find(b.target);
        auto succ = m.blocks.find(b.fallthrough);
        if (callee != m.functions.end() && succ != m.blocks.end() &&
            ReadsR0BeforeDef(succ->second)) {
          if (!callee->second.has_return) {
            callee->second.has_return = true;
            ++ps->rewritten;
          }
        }
      }
    }
    ps->changed = true;
  }
};

// Entry-role mapping + friendly names: the roles recorded at registration
// time name their functions, which return status and take their documented
// parameters. items = roles mapped.
class MapEntryRolesPass : public SynthPass {
 public:
  const char* name() const override { return "map-entry-roles"; }
  void Run(SynthContext& ctx, ir::PassStats* ps) override {
    RecoveredModule& m = ctx.module;
    for (const os::EntryPoint& e : *ctx.entries) {
      if (!ctx.InCode(e.pc)) {
        continue;
      }
      if (m.entry_roles.count(e.role) == 0) {
        m.entry_roles[e.role] = e.pc;
        ++ps->items;
      }
      auto it = m.functions.find(e.pc);
      if (it != m.functions.end()) {
        it->second.name = StrFormat("%s_%x", os::EntryRoleName(e.role), e.pc);
        // Entry points return status to the OS.
        it->second.has_return = true;
        // Entry points take their documented parameter counts even when the
        // body did not touch every argument.
        it->second.num_params = std::max(it->second.num_params, 1u);
      }
    }
    ctx.stats.functions = m.functions.size();
    ps->changed = ps->items != 0;
  }
};

// ---- cleanup passes (shrink the emitted C; I/O behavior preserved) ----

// Resolves a chain of "empty hops" -- blocks with no instructions ending in
// an unconditional jump -- to its final destination. Cycles terminate the
// walk (jumping anywhere inside an empty cycle is the same infinite loop).
uint32_t ResolveHops(const std::map<uint32_t, Block>& blocks, uint32_t pc) {
  std::set<uint32_t> seen;
  uint32_t cur = pc;
  while (seen.insert(cur).second) {
    auto it = blocks.find(cur);
    if (it == blocks.end()) {
      break;
    }
    const Block& b = it->second;
    if (!b.instrs.empty() || (b.term != Term::kJump && b.term != Term::kFallthrough)) {
      break;
    }
    cur = b.target;
  }
  return cur;
}

// Retargets jump/branch edges past empty hop blocks. Call continuations are
// left alone: a call's fallthrough is a return address the guest pushed as
// data, so the landing block must stay addressable at its original pc.
// rewritten = edges retargeted.
class ThreadJumpsPass : public SynthPass {
 public:
  const char* name() const override { return "thread-jumps"; }
  void Run(SynthContext& ctx, ir::PassStats* ps) override {
    RecoveredModule& m = ctx.module;
    for (auto& [pc, b] : m.blocks) {
      auto retarget = [&](uint32_t* edge) {
        uint32_t resolved = ResolveHops(m.blocks, *edge);
        if (resolved != *edge) {
          *edge = resolved;
          ++ps->rewritten;
        }
      };
      switch (b.term) {
        case Term::kJump:
        case Term::kFallthrough:
          retarget(&b.target);
          break;
        case Term::kBranch:
          retarget(&b.target);
          retarget(&b.fallthrough);
          break;
        default:
          break;
      }
    }
    ctx.stats.jumps_threaded += ps->rewritten;
    ps->changed = ps->rewritten != 0;
  }
};

// Pcs that must remain fetchable by address at run time: function entries
// (call targets), call/syscall continuations (pushed return addresses),
// observed indirect targets, registered entry points, and the image entry.
std::set<uint32_t> AddressablePcs(const SynthContext& ctx) {
  const RecoveredModule& m = ctx.module;
  std::set<uint32_t> keep;
  keep.insert(ctx.bundle->entry);
  for (const auto& [entry, fn] : m.functions) {
    keep.insert(entry);
  }
  for (const os::EntryPoint& e : *ctx.entries) {
    keep.insert(e.pc);
  }
  for (const auto& [pc, targets] : m.indirect_targets) {
    keep.insert(targets.begin(), targets.end());
  }
  for (const auto& [pc, b] : m.blocks) {
    if (b.term == Term::kCall || b.term == Term::kCallInd || b.term == Term::kSyscall) {
      keep.insert(b.fallthrough);
    }
  }
  return keep;
}

// Merges a block into its unique jump/fallthrough predecessor when nothing
// else can reach it by address: the successor's temps are renumbered after
// the predecessor's, instruction order and guest-size accounting are
// preserved, so execution and hardware I/O are unchanged -- the emitted C
// just loses one label and one goto per merge.
//
// The predecessor counts are built once and maintained incrementally: a
// merge moves the absorbed block's out-edges to the absorbing pc without
// changing any edge's *target*, so no pc's in-edge count ever changes except
// the absorbed block's own entry (erased with it). That makes a single
// forward scan with chain-merging a fixpoint -- the old implementation
// rebuilt the full cfg maps after every merge, which was O(blocks) work per
// merge and quadratic on long fallthrough chains. rewritten = merges;
// items = full pred-map builds (asserted O(1) by synth_passes_test).
class MergeFallthroughPass : public SynthPass {
 public:
  const char* name() const override { return "merge-fallthrough"; }
  void Run(SynthContext& ctx, ir::PassStats* ps) override {
    RecoveredModule& m = ctx.module;
    std::set<uint32_t> keep = AddressablePcs(ctx);
    std::map<uint32_t, size_t> pred_count;
    for (const auto& [pc, b] : m.blocks) {
      for (uint32_t s : ir::Successors(pc, b, m.indirect_targets)) {
        ++pred_count[s];
      }
    }
    ++ps->items;
    std::set<uint32_t> merged_pcs;
    for (auto& [pc, a] : m.blocks) {
      // Chain-merge: after absorbing its target the block may end in another
      // mergeable jump/fallthrough, so keep going until a condition breaks.
      while (a.term == Term::kJump || a.term == Term::kFallthrough) {
        uint32_t target = a.target;
        if (target == pc || keep.count(target) != 0) {
          break;
        }
        auto bit = m.blocks.find(target);
        if (bit == m.blocks.end()) {
          break;
        }
        auto pit = pred_count.find(target);
        if (pit == pred_count.end() || pit->second != 1) {
          break;
        }
        const Block& b = bit->second;
        int32_t offset = a.num_temps;
        for (Instr i : b.instrs) {
          if (i.dst >= 0) i.dst += offset;
          if (i.a >= 0) i.a += offset;
          if (i.b >= 0) i.b += offset;
          if (i.c >= 0) i.c += offset;
          a.instrs.push_back(i);
        }
        a.num_temps += b.num_temps;
        a.guest_size += b.guest_size;  // preserves guest-instruction accounting
        a.term = b.term;
        a.target = b.target;
        a.fallthrough = b.fallthrough;
        a.cond_tmp = b.cond_tmp >= 0 ? b.cond_tmp + offset : -1;
        // The absorbed block's observed indirect targets now belong to the
        // merged block's pc.
        auto iit = m.indirect_targets.find(target);
        if (iit != m.indirect_targets.end()) {
          m.indirect_targets[pc].insert(iit->second.begin(), iit->second.end());
          m.indirect_targets.erase(iit);
        }
        pred_count.erase(pit);  // its one in-edge (from `a`) died with the merge
        m.blocks.erase(bit);
        merged_pcs.insert(target);
        ++ps->rewritten;
      }
    }
    if (!merged_pcs.empty()) {
      for (auto& [entry, fn] : m.functions) {
        fn.block_pcs.erase(std::remove_if(fn.block_pcs.begin(), fn.block_pcs.end(),
                                          [&](uint32_t bpc) {
                                            return merged_pcs.count(bpc) != 0;
                                          }),
                           fn.block_pcs.end());
      }
    }
    ctx.stats.blocks_merged += ps->rewritten;
    ps->changed = ps->rewritten != 0;
  }
};

// Block-local peephole constant folding. Tracks temps holding compile-time
// constants through each block and collapses pure computations over them
// into kConst (Mov copies propagate, Select with a known condition becomes a
// Mov), using the concrete machine's exact 32-bit semantics (vm/machine.cc)
// so folding can never change execution. A branch whose condition folds
// becomes an unconditional jump. Runs after merge-fallthrough on purpose:
// merges concatenate instruction streams across old block boundaries, which
// is where constants meet their uses -- and the folds in turn feed
// prune-unreachable (dead branch arms) and dce (dead operand chains).
// rewritten = instructions folded; items = branches folded to jumps.
class PeepholePass : public SynthPass {
 public:
  const char* name() const override { return "peephole"; }

  void Run(SynthContext& ctx, ir::PassStats* ps) override {
    for (auto& [pc, b] : ctx.module.blocks) {
      std::map<int32_t, uint32_t> known;
      // Guest registers holding known constants. Only kSetReg writes the
      // register file and terminators sit at block end, so a register set
      // from a known temp stays known for the rest of the block. This is
      // the channel constants actually flow through: the lifter materializes
      // an immediate, parks it in a register, and reads it back one or two
      // guest instructions later.
      std::map<uint32_t, uint32_t> regs;
      auto get = [&](int32_t t, uint32_t* out) {
        auto it = known.find(t);
        if (it == known.end()) {
          return false;
        }
        *out = it->second;
        return true;
      };
      for (Instr& i : b.instrs) {
        uint32_t va = 0, vb = 0, vc = 0;
        bool ka = get(i.a, &va), kb = get(i.b, &vb), kc = get(i.c, &vc);
        uint32_t folded = 0;
        bool fold = false;
        switch (i.op) {
          case Op::kConst:
            known[i.dst] = i.imm;
            continue;
          case Op::kMov:
            fold = ka;
            folded = va;
            break;
          case Op::kAdd:    fold = ka && kb; folded = va + vb; break;
          case Op::kSub:    fold = ka && kb; folded = va - vb; break;
          case Op::kMul:    fold = ka && kb; folded = va * vb; break;
          case Op::kUDiv:   fold = ka && kb; folded = vb == 0 ? 0xFFFFFFFFu : va / vb; break;
          case Op::kURem:   fold = ka && kb; folded = vb == 0 ? va : va % vb; break;
          case Op::kAnd:    fold = ka && kb; folded = va & vb; break;
          case Op::kOr:     fold = ka && kb; folded = va | vb; break;
          case Op::kXor:    fold = ka && kb; folded = va ^ vb; break;
          case Op::kShl:    fold = ka && kb; folded = vb >= 32 ? 0 : va << vb; break;
          case Op::kLShr:   fold = ka && kb; folded = vb >= 32 ? 0 : va >> vb; break;
          case Op::kAShr:
            fold = ka && kb;
            folded = vb >= 32 ? (static_cast<int32_t>(va) < 0 ? 0xFFFFFFFFu : 0)
                              : static_cast<uint32_t>(static_cast<int32_t>(va) >>
                                                      static_cast<int32_t>(vb));
            break;
          case Op::kCmpEq:  fold = ka && kb; folded = va == vb ? 1 : 0; break;
          case Op::kCmpNe:  fold = ka && kb; folded = va != vb ? 1 : 0; break;
          case Op::kCmpUlt: fold = ka && kb; folded = va < vb ? 1 : 0; break;
          case Op::kCmpUle: fold = ka && kb; folded = va <= vb ? 1 : 0; break;
          case Op::kCmpSlt:
            fold = ka && kb;
            folded = static_cast<int32_t>(va) < static_cast<int32_t>(vb) ? 1 : 0;
            break;
          case Op::kCmpSle:
            fold = ka && kb;
            folded = static_cast<int32_t>(va) <= static_cast<int32_t>(vb) ? 1 : 0;
            break;
          case Op::kSelect:
            if (kc) {
              int32_t chosen = vc != 0 ? i.a : i.b;
              bool kchosen = vc != 0 ? ka : kb;
              uint32_t vchosen = vc != 0 ? va : vb;
              if (kchosen) {
                fold = true;
                folded = vchosen;
              } else {
                // Known condition, unknown value: Select decays to a copy.
                i.op = Op::kMov;
                i.a = chosen;
                i.b = i.c = -1;
                known.erase(i.dst);
                ++ps->rewritten;
                continue;
              }
            }
            break;
          case Op::kZExt:   fold = ka; folded = va & LowMask(i.size * 8); break;
          case Op::kSExt:   fold = ka; folded = SignExtend(va, i.size * 8); break;
          case Op::kGetReg:
            if (i.imm == isa::kRegZero) {
              fold = true;
              folded = 0;
            } else if (auto rit = regs.find(i.imm); rit != regs.end()) {
              fold = true;
              folded = rit->second;
            }
            break;
          case Op::kSetReg:
            if (i.imm != isa::kRegZero) {
              if (ka) {
                regs[i.imm] = va;
              } else {
                regs.erase(i.imm);
              }
            }
            continue;
          default:
            // Loads, I/O, register/memory writes: never folded; a defined
            // dst (kLoad/kIn) is simply not a constant.
            break;
        }
        if (!ir::OpDefinesDst(i.op)) {
          continue;
        }
        if (fold) {
          if (i.op != Op::kConst) {
            i.op = Op::kConst;
            i.imm = folded;
            i.size = 4;
            i.a = i.b = i.c = -1;
            ++ps->rewritten;
          }
          known[i.dst] = folded;
        } else {
          known.erase(i.dst);
        }
      }
      // The condition feeding the terminator is read after every
      // instruction ran, so the final constant map decides it.
      uint32_t cond = 0;
      if (b.term == Term::kBranch && get(b.cond_tmp, &cond)) {
        b.term = Term::kJump;
        b.target = cond != 0 ? b.target : b.fallthrough;
        b.fallthrough = 0;
        b.cond_tmp = -1;
        ++ps->items;
      }
    }
    ctx.stats.instrs_folded += ps->rewritten;
    ctx.stats.branches_folded += ps->items;
    ps->changed = ps->rewritten != 0 || ps->items != 0;
  }
};

// Drops blocks unreachable from every function entry (module-level
// reachability, call edges included) and recomputes each function's block
// list intraprocedurally. removed = blocks dropped from the module;
// items = function block-list entries dropped.
class PruneUnreachablePass : public SynthPass {
 public:
  const char* name() const override { return "prune-unreachable"; }
  void Run(SynthContext& ctx, ir::PassStats* ps) override {
    RecoveredModule& m = ctx.module;
    std::vector<uint32_t> roots;
    roots.push_back(ctx.bundle->entry);
    for (const auto& [entry, fn] : m.functions) {
      roots.push_back(entry);
    }
    std::set<uint32_t> live =
        ir::ReachableFrom(m.blocks, m.indirect_targets, roots, /*follow_calls=*/true);
    for (auto it = m.blocks.begin(); it != m.blocks.end();) {
      if (live.count(it->first) == 0) {
        it = m.blocks.erase(it);
        ++ps->removed;
      } else {
        ++it;
      }
    }
    for (auto& [entry, fn] : m.functions) {
      std::set<uint32_t> mine =
          ir::ReachableFrom(m.blocks, m.indirect_targets, {entry}, /*follow_calls=*/false);
      if (mine.size() != fn.block_pcs.size()) {
        ps->items += fn.block_pcs.size() - mine.size();
      }
      fn.block_pcs.assign(mine.begin(), mine.end());
    }
    ctx.stats.blocks_pruned += ps->removed;
    ps->changed = ps->removed != 0 || ps->items != 0;
  }
};

// Removes dead pure computations (block-local liveness; loads and all I/O
// are kept -- guest loads can hit MMIO). removed = instructions dropped.
class DeadCodePass : public SynthPass {
 public:
  const char* name() const override { return "dce"; }
  void Run(SynthContext& ctx, ir::PassStats* ps) override {
    for (auto& [pc, b] : ctx.module.blocks) {
      ir::Liveness lv = ir::AnalyzeLiveness(b);
      std::vector<Instr> kept;
      kept.reserve(b.instrs.size());
      for (size_t i = 0; i < b.instrs.size(); ++i) {
        if (lv.needed[i]) {
          kept.push_back(b.instrs[i]);
        } else {
          ++ps->removed;
        }
      }
      b.instrs = std::move(kept);
    }
    ctx.stats.instrs_removed += ps->removed;
    ps->changed = ps->removed != 0;
  }
};

// Materializes switch dispatch from the observed indirect targets: every
// indirect jump/call gets a SwitchPlan (sorted case table; single-target
// dispatches render as a guarded direct jump instead of a one-case
// switch). items = switches recovered; rewritten = single-target guards.
class RecoverSwitchesPass : public SynthPass {
 public:
  const char* name() const override { return "recover-switches"; }
  void Run(SynthContext& ctx, ir::PassStats* ps) override {
    RecoveredModule& m = ctx.module;
    for (const auto& [pc, b] : m.blocks) {
      if (b.term != Term::kJumpInd && b.term != Term::kCallInd) {
        continue;
      }
      auto it = m.indirect_targets.find(pc);
      if (it == m.indirect_targets.end() || it->second.empty()) {
        continue;
      }
      SwitchPlan plan;
      plan.cases.assign(it->second.begin(), it->second.end());
      if (plan.single_target()) {
        ++ps->rewritten;
      }
      m.switch_plans.emplace(pc, std::move(plan));
      ++ps->items;
    }
    ctx.stats.switches_recovered += ps->items;
    ps->changed = ps->items != 0;
  }
};

// Computes the per-function emission layout: block order plus the labels
// that survive once gotos to the next emitted block are elided. The plan is
// consumed by the C renderer (cemit.cc); computing it here makes the saving
// a reported pass stat. removed = labels pruned; rewritten = gotos elided.
class PruneLabelsPass : public SynthPass {
 public:
  const char* name() const override { return "prune-labels"; }
  void Run(SynthContext& ctx, ir::PassStats* ps) override {
    RecoveredModule& m = ctx.module;
    for (const auto& [entry, fn] : m.functions) {
      size_t gotos_elided = 0;
      EmitPlan plan = ComputeEmitPlan(m, fn, &gotos_elided);
      size_t blocks = plan.order.size();
      ps->removed += blocks - plan.labeled.size();
      ps->rewritten += gotos_elided;
      m.emit_plans.emplace(entry, std::move(plan));
    }
    ctx.stats.labels_pruned += ps->removed;
    ctx.stats.gotos_elided += ps->rewritten;
    ps->items = m.emit_plans.size();
    ps->changed = ps->removed != 0 || ps->rewritten != 0;
  }
};

}  // namespace

void AddRecoveryPasses(SynthPassManager* pm) {
  pm->Emplace<TraceAsyncPass>();
  pm->Emplace<TraceIndirectPass>();
  pm->Emplace<SplitBlocksPass>();
  pm->Emplace<DiscoverFunctionsPass>();
  pm->Emplace<ClassifyFunctionsPass>();
  pm->Emplace<InferParamsPass>();
  pm->Emplace<MapEntryRolesPass>();
}

void AddCleanupPasses(SynthPassManager* pm) {
  pm->Emplace<ThreadJumpsPass>();
  pm->Emplace<MergeFallthroughPass>();
  pm->Emplace<PeepholePass>();
  pm->Emplace<PruneUnreachablePass>();
  pm->Emplace<DeadCodePass>();
  pm->Emplace<RecoverSwitchesPass>();
  pm->Emplace<PruneLabelsPass>();
}

std::unique_ptr<SynthPass> MakeThreadJumpsPass() { return std::make_unique<ThreadJumpsPass>(); }
std::unique_ptr<SynthPass> MakeMergeFallthroughPass() {
  return std::make_unique<MergeFallthroughPass>();
}
std::unique_ptr<SynthPass> MakePeepholePass() { return std::make_unique<PeepholePass>(); }
std::unique_ptr<SynthPass> MakePruneUnreachablePass() {
  return std::make_unique<PruneUnreachablePass>();
}
std::unique_ptr<SynthPass> MakeDeadCodePass() { return std::make_unique<DeadCodePass>(); }
std::unique_ptr<SynthPass> MakeRecoverSwitchesPass() {
  return std::make_unique<RecoverSwitchesPass>();
}
std::unique_ptr<SynthPass> MakePruneLabelsPass() { return std::make_unique<PruneLabelsPass>(); }

std::string VerifyModule(const RecoveredModule& m) {
  for (const auto& [pc, b] : m.blocks) {
    std::string err = ir::Verify(b);
    if (!err.empty()) {
      return StrFormat("block 0x%x: %s", pc, err.c_str());
    }
  }
  for (const auto& [entry, fn] : m.functions) {
    for (uint32_t pc : fn.block_pcs) {
      if (m.blocks.count(pc) == 0) {
        return StrFormat("function 0x%x lists missing block 0x%x", entry, pc);
      }
    }
  }
  for (const auto& [role, pc] : m.entry_roles) {
    if (m.functions.count(pc) == 0) {
      return StrFormat("entry role %s maps to missing function 0x%x",
                       os::EntryRoleName(role), pc);
    }
  }
  for (const auto& [entry, plan] : m.emit_plans) {
    for (uint32_t pc : plan.order) {
      if (m.blocks.count(pc) == 0) {
        return StrFormat("emit plan for 0x%x lists missing block 0x%x", entry, pc);
      }
    }
  }
  return "";
}

std::string VerifyContext(const SynthContext& ctx) { return VerifyModule(ctx.module); }

RecoveredModule RunSynthesisPipeline(const trace::TraceBundle& bundle,
                                     const std::vector<os::EntryPoint>& entries,
                                     const PipelineOptions& options, SynthStats* stats,
                                     std::string* error) {
  SynthContext ctx;
  ctx.bundle = &bundle;
  ctx.entries = &entries;
  SynthPassManager pm(options.verify_between ? SynthPassManager::VerifyHook(VerifyContext)
                                             : SynthPassManager::VerifyHook());
  AddRecoveryPasses(&pm);
  if (options.cleanup) {
    AddCleanupPasses(&pm);
  }
  bool ok = pm.Run(ctx);
  if (stats != nullptr) {
    *stats = ctx.stats;
    stats->passes = pm.stats();
  }
  if (error != nullptr) {
    *error = ok ? "" : pm.error();
  }
  return std::move(ctx.module);
}

}  // namespace revnic::synth
