#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <tuple>

#include "core/fanout.h"
#include "core/fleet.h"
#include "dist/coordinator.h"
#include "isa/isa.h"
#include "symex/coverage.h"
#include "symex/executor.h"
#include "symex/snapshot.h"
#include "util/log.h"
#include "util/rng.h"

namespace revnic::core {

using os::EntryRole;
using symex::ExecutionState;
using symex::ExprRef;

namespace {

// GuestMem over a symbolic state: OS reads concretize (§3.4), writes are
// concrete values from the OS.
class SymGuestMem : public os::GuestMem {
 public:
  SymGuestMem(symex::Executor* executor, ExecutionState* state)
      : executor_(executor), state_(state) {}

  uint32_t Read(uint32_t addr, unsigned size) override {
    return executor_->ConcretizeMem(state_, addr, size);
  }

  void Write(uint32_t addr, unsigned size, uint32_t value) override {
    state_->mem().WriteConcrete(addr, size, value);
  }

 private:
  symex::Executor* executor_;
  ExecutionState* state_;
};

struct StepArg {
  bool symbolic = false;
  uint32_t value = 0;
  const char* name = "";
};

struct Step {
  std::string name;
  bool is_driver_entry = false;
  EntryRole role = EntryRole::kInitialize;
  bool is_irq = false;  // marks the §3.2 interrupt-injection steps
  // Plan-level fault applied to this scripted IRQ step (BuildPlan shapes the
  // step list from FaultSchedule::PlanIrqDecision; kNone for non-IRQ steps).
  hw::IrqFault irq_fault = hw::IrqFault::kNone;
  std::vector<StepArg> args;
  // Optional extra state preparation (packet buffers etc.).
  std::function<void(symex::ExprContext*, ExecutionState*)> setup;
};

constexpr uint32_t kScratch = 0x00200000;     // packet struct + buffers
constexpr uint32_t kPacketStruct = kScratch;
constexpr uint32_t kPacketData = kScratch + 0x100;
constexpr uint32_t kIoctlBuf = kScratch + 0x800;
constexpr uint32_t kIoctlOut = kScratch + 0x7F0;

// The per-step exploration limits RunStep honors. The sequential engine uses
// the config's values for every step; the parallel engine drives prefix
// steps with the cheap "spine" knobs and exactly one step per worker with
// the full ones.
struct StepKnobs {
  uint64_t max_work_per_step;
  unsigned entry_success_cap;
  uint64_t no_progress_window;

  static StepKnobs Of(const EngineConfig& c) {
    return {c.max_work_per_step, c.entry_success_cap, c.no_progress_window};
  }
};

// The spine pass wants one completing path per step as fast as possible: it
// is the survivor chain every fan-out worker replays, so its cost is paid
// once per worker. Cap per-step work hard and stop as soon as a single
// success has gone a short window without new coverage.
StepKnobs SpineStepKnobs(const EngineConfig& c) {
  StepKnobs k = StepKnobs::Of(c);
  k.max_work_per_step =
      std::min<uint64_t>(k.max_work_per_step, std::max<uint64_t>(4096, c.max_work_per_step / 8));
  k.entry_success_cap = 1;
  k.no_progress_window = std::min<uint64_t>(k.no_progress_window, 192);
  return k;
}

// Full-exploration knobs for one fan-out task. Whole-step tasks
// (sub_shards == 0, the PR 3/4 architecture) double the completion cap and
// no-progress window: one task owns the entire step, so it can afford to push
// past the sequential heuristics and recover the paths the sequential run
// reaches via its survivor chain. Sub-shard tasks keep the config's knobs:
// each enumerated root gets the full per-step gating to itself, so the
// doubling would multiply, not recover, work. Computed from the config alone
// so in-process dispatchers and forked dist workers derive identical knobs.
StepKnobs FanoutFullKnobs(const EngineConfig& c, uint32_t sub_shards) {
  StepKnobs k = StepKnobs::Of(c);
  if (sub_shards == 0) {
    k.entry_success_cap *= 2;
    k.no_progress_window *= 2;
  }
  return k;
}

// Sub-shard exploration stops enumerating and starts partitioning once the
// pool holds this many runnable roots (or the enumeration work budget below
// runs out). Small on purpose: roots fork early at an entry point's first
// status/branch decisions, so a handful already splits the step's heavy
// exploration into comparable chunks, and every task re-runs the (cheap,
// deterministic) enumeration.
constexpr size_t kSubShardRootTarget = 6;
constexpr uint64_t kSubShardEnumBudget = 512;

// SplitMix64: the stable state-identity hash that assigns an enumerated root
// to a sub-shard. Root ids are minted deterministically (the id counter rides
// in RSS1 snapshots), so every replica of a step computes the same ownership
// map for any shard count.
uint64_t ShardMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

struct Engine::Impl {
  Impl(const isa::Image& image, const EngineConfig& config)
      : image(image),
        config(config),
        mm(os::kGuestRamSize),
        winsim(config.pci),
        shell(&ctx, config.pci),
        solver(config.solver, config.seed),
        executor(&ctx, &solver, &shell),
        fetcher(&mm),
        dbt(&fetcher),
        pool(config.pool, config.seed ^ 0x5EED),
        rng(config.seed ^ 0xC0FFEE),
        faults(config.plan.faults),
        sink(&bundle) {
    executor.set_next_state_id(&next_state_id);
    shell.set_fault_schedule(faults.enabled() ? &faults : nullptr);
    winsim.LoadDriver(image, &mm);
    for (const auto& [key, value] : config.registry) {
      winsim.SetConfig(key, value);
    }
    isa::StaticAnalysis analysis = isa::Analyze(image);
    static_bbs = analysis.basic_block_starts;
    bundle.code_begin = image.code_begin();
    bundle.code_end = image.code_end();
    bundle.entry = image.entry;
  }

  // ---- small helpers ----

  uint32_t ConcretizeReg(ExecutionState* st, unsigned reg, const char* why) {
    return executor.Concretize(st, st->reg(reg), why);
  }

  void PushExpr(ExecutionState* st, ExprRef value) {
    uint32_t sp = ConcretizeReg(st, isa::kRegSp, "push-sp") - 4;
    st->set_reg(isa::kRegSp, ctx.Const(sp));
    st->mem().Write(&ctx, sp, 4, value);
  }

  void EmitEvent(ExecutionState* st, trace::EventKind kind, uint32_t value,
                 const std::string& detail) {
    trace::EventRecord ev;
    ev.state_id = st->id();
    ev.seq = event_seq++;
    ev.kind = kind;
    ev.value = value;
    ev.detail = detail;
    sink.OnEvent(ev);
  }

  // Returns true when the block contributed new coverage. Fresh blocks are
  // also published to the shared map when a parallel exercise is running, so
  // live progress streams the merged picture across every worker.
  bool UpdateCoverage(const ir::Block& block) {
    bool fresh = false;
    auto it = static_bbs.lower_bound(block.guest_pc);
    while (it != static_bbs.end() && *it < block.guest_pc + block.guest_size) {
      bool inserted = covered.insert(*it).second;
      fresh |= inserted;
      if (inserted && live_coverage != nullptr) {
        live_coverage->Mark(*it);
      }
      ++it;
    }
    return fresh;
  }

  void SampleTimeline() {
    if (stats.work % config.sample_every == 0) {
      timeline.push_back({stats.work, covered.size(), faults.stats().TotalInjected()});
      if (global_faults != nullptr) {
        // Publish the delta since the last sample into the run-wide counter
        // (monitoring-only, like the shared coverage map).
        uint64_t total = faults.stats().TotalInjected();
        global_faults->fetch_add(total - faults_published, std::memory_order_relaxed);
        faults_published = total;
      }
      if (config.on_coverage) {
        config.on_coverage(timeline.back());
      }
    }
  }

  // Polls the cooperative-cancellation hook (sticky once it fires).
  bool CancelRequested() {
    if (!cancel_requested && config.cancel && config.cancel()) {
      cancel_requested = true;
    }
    return cancel_requested;
  }

  // Services one `sys` trap on `st`. Returns false if the state died.
  bool HandleSyscall(ExecutionState* st, uint32_t api_id) {
    ++stats.api_calls;
    apis_used.insert(api_id);
    const os::ApiSignature& sig = os::SignatureOf(api_id);
    uint32_t sp = ConcretizeReg(st, isa::kRegSp, "sys-sp");

    trace::ApiRecord record;
    record.state_id = st->id();
    record.seq = event_seq++;
    record.pc = st->pc();
    record.api_id = api_id;

    if (config.skip_apis.count(api_id) != 0) {
      ++stats.api_skipped;
      st->set_reg(isa::kRegSp, ctx.Const(sp + 4 * sig.argc));
      st->set_reg(isa::kRegR0, ctx.Const(os::kStatusSuccess));
      record.skipped = true;
      sink.OnApi(record);
      return true;
    }

    std::vector<uint32_t> args(sig.argc);
    for (unsigned i = 0; i < sig.argc; ++i) {
      args[i] = executor.ConcretizeMem(st, sp + 4 * i, 4);
    }
    record.args = args;

    // §3.2 heuristic 4, "replaced with models": bulk-copy APIs are modeled
    // as no-ops during exercising -- the copied bytes are symbolic anyway
    // (packet payloads, DMA contents), and copying them byte-by-byte through
    // the concretizer would cost a solver query per byte. The rx-indication
    // body is skipped for the same reason.
    if (api_id == os::kNdisMEthIndicateReceive || api_id == os::kNdisMoveMemory ||
        api_id == os::kNdisZeroMemory) {
      st->set_reg(isa::kRegSp, ctx.Const(sp + 4 * sig.argc));
      st->set_reg(isa::kRegR0, ctx.Const(os::kStatusSuccess));
      record.ret = os::kStatusSuccess;
      sink.OnApi(record);
      return true;
    }

    // Registry reads return symbolic status and value so both the
    // "configured" and "not configured" paths are explored (§3.1's symbolic
    // OS-side injections).
    if (api_id == os::kNdisReadConfiguration) {
      uint32_t out_addr = args.size() >= 3 ? args[2] : 0;
      if (out_addr != 0) {
        st->mem().Write(&ctx, out_addr, 4, ctx.Sym("cfg_value", 32));
      }
      st->set_reg(isa::kRegSp, ctx.Const(sp + 4 * sig.argc));
      ExprRef status = ctx.Sym("cfg_status", 32);
      // Constrain to the two meaningful values: success or failure.
      st->AddConstraint(ctx.Bin(
          symex::BinOp::kOr,
          ctx.ZExt(ctx.Eq(status, ctx.Const(os::kStatusSuccess)), 32),
          ctx.ZExt(ctx.Eq(status, ctx.Const(os::kStatusFailure)), 32)));
      st->set_reg(isa::kRegR0, status);
      record.ret = 0;
      sink.OnApi(record);
      return true;
    }

    SymGuestMem mem(&executor, st);
    os::ApiOutcome outcome = winsim.HandleApi(api_id, args, mem);
    st->set_reg(isa::kRegSp, ctx.Const(sp + 4 * sig.argc));

    if (outcome.effect == os::ApiEffect::kCallGuestFunction) {
      // NdisMSynchronizeWithInterrupt: run the callback inline. Push its
      // argument and a return address pointing back to the post-sys pc; the
      // callback's `ret #4` resumes execution exactly there.
      uint32_t resume = st->pc();
      PushExpr(st, ctx.Const(outcome.callback_arg));
      PushExpr(st, ctx.Const(resume));
      st->set_pc(outcome.callback_pc);
      st->PushCall();
      record.ret = 0;
      sink.OnApi(record);
      return true;
    }

    st->set_reg(isa::kRegR0, ctx.Const(outcome.ret));
    record.ret = outcome.ret;
    sink.OnApi(record);

    // DMA allocations feed the shell device (§3.4).
    if (api_id == os::kNdisMAllocateSharedMemory && args.size() == 3) {
      uint32_t va = st->mem().ReadConcrete(args[1], 4);
      shell.dma().Register(va, args[0]);
    }
    return true;
  }

  // If the state just entered a modeled function, simulates its immediate
  // return (§3.2 heuristic 4).
  void ApplyFunctionModel(ExecutionState* st) {
    for (const EngineConfig::FunctionModel& model : config.function_models) {
      if (st->pc() != model.entry_pc) {
        continue;
      }
      ++stats_functions_modeled;
      uint32_t sp = ConcretizeReg(st, isa::kRegSp, "model-sp");
      uint32_t ret_addr = executor.ConcretizeMem(st, sp, 4);
      st->set_reg(isa::kRegSp, ctx.Const(sp + 4 + model.arg_bytes));
      st->set_reg(isa::kRegR0, model.symbolic_return
                                   ? ctx.Sym(StrFormat("model_%x", model.entry_pc), 32)
                                   : ctx.Const(0));
      st->set_pc(ret_addr);
      st->PopCall();
      return;
    }
  }

  // Sub-shard fan-out state for one RunStep invocation (resolved
  // plan.sub_shards >= 1). Every replica of a step runs the same bounded
  // deterministic enumeration phase first; the pool's runnable states at its
  // end, ordered by (deterministically minted) state id, are the step's
  // canonical roots. root == -1 is the enumeration probe: its segment IS the
  // enumeration (kept only by sub-shard 0's task, so the step preamble --
  // entry-invoke event, IRQ fault counters, fallback fork -- lands in the
  // merge exactly once). root == i re-runs the identical enumeration, then
  // begins its segment and explores root i alone -- so the segment's bytes
  // depend only on (step, i), never on the shard count, thread count, or
  // process mode.
  struct SubShardMode {
    int root = -1;
    std::vector<uint64_t> root_ids;  // out: canonical enumerated root ids
  };

  // Runs one script step starting from `seed_state`; returns the surviving
  // state that carries over to the next step. `knobs` bounds this step's
  // exploration (the per-step subset of the config the parallel engine
  // varies between spine and full passes). `sub` engages sub-shard mode (the
  // step becomes this task's partition of the exploration; no survivor is
  // selected and nullptr is returned).
  std::unique_ptr<ExecutionState> RunStep(const Step& step,
                                          std::unique_ptr<ExecutionState> seed_state,
                                          const StepKnobs& knobs,
                                          SubShardMode* sub = nullptr) {
    if (sub != nullptr && sub->root < 0) {
      // The probe's segment must carry everything the step records exactly
      // once -- including the preamble and the early-exit fault counters
      // below -- so it begins here; root re-runs begin theirs after the
      // enumeration instead.
      BeginSegment();
    }
    uint32_t entry_pc =
        step.is_driver_entry ? image.entry : winsim.EntryPc(step.role);
    if (entry_pc == 0) {
      // Entry point not provided by this driver. (Sub-shard tasks enumerate
      // zero roots here in every replica, consistently.)
      return sub == nullptr ? std::move(seed_state) : nullptr;
    }
    // Plan-level IRQ faults (shaped once by BuildPlan, so every replica sees
    // the same shape): a dropped edge never reaches the driver -- skip the
    // whole step. Duplicated/delayed steps run normally; the plan already
    // repositioned/copied them, we only count the injection here.
    if (step.irq_fault == hw::IrqFault::kDrop) {
      ++faults.stats().irq_dropped;
      return sub == nullptr ? std::move(seed_state) : nullptr;
    }
    if (step.irq_fault == hw::IrqFault::kDup) {
      ++faults.stats().irq_duplicated;
    } else if (step.irq_fault == hw::IrqFault::kDelay) {
      ++faults.stats().irq_delayed;
    }
    // Pre-step snapshot: the fallback if every path errors out.
    std::unique_ptr<ExecutionState> fallback = seed_state->Fork(next_state_id++);

    EmitEvent(seed_state.get(), step.is_irq ? trace::EventKind::kIrqInject
                                            : trace::EventKind::kEntryInvoke,
              entry_pc, step.name);
    if (step.is_irq) {
      ++stats.irqs_injected;
    }

    // Prepare the call frame.
    ExecutionState* st = seed_state.get();
    st->set_reg(isa::kRegSp, ctx.Const(os::kStackTop));
    if (step.setup) {
      step.setup(&ctx, st);
    }
    for (auto it = step.args.rbegin(); it != step.args.rend(); ++it) {
      if (it->symbolic) {
        PushExpr(st, ctx.Sym(StrFormat("%s_%s", step.name.c_str(), it->name), 32));
      } else {
        uint32_t v = it->value;
        if (v == kAdapterCtxPlaceholder) {
          v = winsim.adapter_context();
        }
        PushExpr(st, ctx.Const(v));
      }
    }
    PushExpr(st, ctx.Const(os::kStopPc));
    st->set_pc(entry_pc);
    st->ResetCallDepth();
    st->ResetVisits();

    pool.Clear();
    pool.Add(std::move(seed_state));

    std::vector<std::unique_ptr<ExecutionState>> successes;
    std::vector<std::unique_ptr<ExecutionState>> completions;
    uint64_t step_work = 0;
    uint64_t last_progress = 0;  // step_work at the last new-coverage block

    // The exploration loop, shared by every mode. stop_at_roots != 0 is the
    // sub-shard enumeration phase: stop (before selecting) once the pool
    // holds that many runnable roots or step_work reaches stop_at_work --
    // both conditions are functions of deterministic replica state, so every
    // replica of this step stops at the identical frontier.
    auto explore = [&](size_t stop_at_roots, uint64_t stop_at_work) {
    while (!pool.Empty() && stats.work < config.max_work &&
           step_work < knobs.max_work_per_step && !CancelRequested()) {
      if (stop_at_roots != 0 &&
          (pool.NumRunnable() >= stop_at_roots || step_work >= stop_at_work)) {
        break;
      }
      std::unique_ptr<ExecutionState> cur = pool.SelectNext();
      // Operator diagnostics: REVNIC_HEARTBEAT=1 streams exerciser progress.
      if (getenv("REVNIC_HEARTBEAT") != nullptr && stats.work % 50 == 0) {
        fprintf(stderr,
                "[hb] step=%s work=%llu pool=%zu pc=0x%x constraints=%zu solver-hits=%llu\n",
                step.name.c_str(), (unsigned long long)stats.work, pool.NumRunnable(),
                cur->pc(), cur->constraints().size(),
                (unsigned long long)solver.stats().cache_hits);
      }
      std::shared_ptr<const ir::Block> block = dbt.Translate(cur->pc());
      if (!block) {
        ++stats.states_killed_error;
        EmitEvent(cur.get(), trace::EventKind::kStateKill, cur->pc(), "untranslatable pc");
        continue;
      }
      symex::StepResult result = executor.Step(cur.get(), *block, &sink);
      ++stats.work;
      ++step_work;
      if (global_work != nullptr) {
        global_work->fetch_add(1, std::memory_order_relaxed);
      }
      if (block->term == ir::Term::kCall) {
        ++call_counts[block->target];
        // §3.2 function models: skip the modeled callee entirely -- pop the
        // return address the call just pushed, clean its stdcall arguments,
        // and hand back a (symbolic) return value.
        if (result.kind == symex::StepKind::kContinue) {
          ApplyFunctionModel(cur.get());
        }
      }
      pool.NotifyExecuted(block->guest_pc);
      if (UpdateCoverage(*block)) {
        last_progress = step_work;
      }
      SampleTimeline();
      // §3.2 polling-loop heuristic: polling loops fork a near-identical
      // state on every iteration. Count *forking* visits per block (the
      // count is inherited through the fork, so the stay-in-loop lineage
      // accumulates it); past the threshold the looping lineage is killed
      // while the forked exits survive. Concrete bounded loops never fork
      // and are left alone.
      bool kill_cur = false;
      if (!result.forks.empty()) {
        kill_cur = cur->IncVisit(block->guest_pc) > config.polling_visit_threshold;
      }
      for (auto& fork : result.forks) {
        ++stats.states_created;
        if (fork->IncVisit(block->guest_pc) > config.polling_visit_threshold) {
          ++stats.states_killed_polling;
          EmitEvent(fork.get(), trace::EventKind::kStateKill, block->guest_pc, "polling loop");
          continue;
        }
        pool.Add(std::move(fork));
      }
      if (kill_cur && result.kind == symex::StepKind::kContinue) {
        ++stats.states_killed_polling;
        EmitEvent(cur.get(), trace::EventKind::kStateKill, block->guest_pc, "polling loop");
        continue;
      }
      switch (result.kind) {
        case symex::StepKind::kContinue:
          pool.Add(std::move(cur));
          break;
        case symex::StepKind::kSyscall:
          if (HandleSyscall(cur.get(), result.api_id)) {
            pool.Add(std::move(cur));
          }
          break;
        case symex::StepKind::kEntryReturn: {
          ++stats.entry_completions;
          uint32_t status = executor.Concretize(cur.get(), cur->reg(isa::kRegR0), "entry-status");
          EmitEvent(cur.get(), trace::EventKind::kStateComplete, status, step.name);
          if (status == os::kStatusSuccess || status == 1) {
            successes.push_back(std::move(cur));
          } else {
            completions.push_back(std::move(cur));
          }
          break;
        }
        case symex::StepKind::kHalt:
        case symex::StepKind::kError:
          ++stats.states_killed_error;
          EmitEvent(cur.get(), trace::EventKind::kStateKill, cur->pc(), "halt/error");
          break;
      }
      // §3.2: the entry point is explored "until no more new code blocks are
      // discovered within some predefined amount of time", and once enough
      // paths completed, all but one are discarded. Void entry points
      // (HandleInterrupt, Halt, ...) have no status code, so any completed
      // path counts toward the cap.
      bool enough_completions =
          successes.size() >= knobs.entry_success_cap ||
          successes.size() + completions.size() >= 2 * knobs.entry_success_cap;
      if (enough_completions && step_work - last_progress > knobs.no_progress_window) {
        break;
      }
    }
    };  // explore

    if (sub == nullptr) {
      explore(0, 0);
      pool.Clear();

      // §3.2: keep one successful path chosen at random.
      std::unique_ptr<ExecutionState> survivor;
      if (!successes.empty()) {
        survivor = std::move(successes[rng.Below(static_cast<uint32_t>(successes.size()))]);
      } else if (!completions.empty()) {
        survivor = std::move(completions[rng.Below(static_cast<uint32_t>(completions.size()))]);
      } else {
        RLOG_INFO("step '%s': no completed path; restoring pre-step snapshot", step.name.c_str());
        survivor = std::move(fallback);
      }
      return survivor;
    }

    // ---- sub-shard mode ----
    // Enumerate the canonical roots, then either stop (probe: the
    // enumeration itself -- including any paths that completed during it --
    // is the ordinal-0 segment) or explore exactly one owned root in
    // isolation. step_work, the completion lists, and the progress cursor
    // carry from the enumeration into the root phase, so the root's gating
    // sees the same baseline in every replica.
    explore(kSubShardRootTarget,
            std::min<uint64_t>(kSubShardEnumBudget, knobs.max_work_per_step));
    std::vector<std::unique_ptr<ExecutionState>> roots = pool.TakeAllSortedById();
    for (const std::unique_ptr<ExecutionState>& r : roots) {
      sub->root_ids.push_back(r->id());
    }
    if (sub->root < 0) {
      return nullptr;
    }
    BeginSegment();
    if (static_cast<size_t>(sub->root) < roots.size()) {
      pool.Add(std::move(roots[static_cast<size_t>(sub->root)]));
      explore(0, 0);
      pool.Clear();
    }
    return nullptr;
  }

  std::vector<Step> BuildScript() {
    // The §3.2 user-mode script: load, standard IOCTLs, send, reception,
    // unload, with interrupt injection after entry points.
    std::vector<Step> script;
    Step drv{.name = "driver_entry", .is_driver_entry = true};
    drv.args = {{false, 0x1000, "drvobj"}, {false, 0x1100, "regpath"}};
    script.push_back(drv);

    Step init{.name = "initialize", .role = EntryRole::kInitialize};
    init.args = {{false, 0x2000, "handle"}};
    script.push_back(init);

    script.push_back(MakeIrqStep("irq_after_init_isr", EntryRole::kIsr));
    script.push_back(MakeIrqStep("irq_after_init_dpc", EntryRole::kHandleInterrupt));

    Step query{.name = "query_info", .role = EntryRole::kQueryInformation};
    query.args = {{false, kAdapterCtxPlaceholder, "ctx"},
                  {true, 0, "oid"},
                  {false, kIoctlBuf, "buf"},
                  {false, 64, "len"},
                  {false, kIoctlOut, "written"}};
    script.push_back(query);

    Step set{.name = "set_info", .role = EntryRole::kSetInformation};
    set.args = {{false, kAdapterCtxPlaceholder, "ctx"},
                {true, 0, "oid"},
                {false, kIoctlBuf, "buf"},
                {false, 12, "len"},
                {false, kIoctlOut, "read"}};
    set.setup = [](symex::ExprContext* ectx, ExecutionState* st) {
      // IOCTL input buffer: symbolic payload (filter bits, duplex value,
      // multicast addresses...).
      for (unsigned i = 0; i < 12; i += 4) {
        st->mem().Write(ectx, kIoctlBuf + i, 4, ectx->Sym(StrFormat("ioctl_in_%u", i), 32));
      }
    };
    script.push_back(set);

    Step send{.name = "send", .role = EntryRole::kSend};
    send.args = {{false, kAdapterCtxPlaceholder, "ctx"},
                 {false, kPacketStruct, "packet"},
                 {false, 0, "flags"}};
    send.setup = [](symex::ExprContext* ectx, ExecutionState* st) {
      // NDIS_PACKET with symbolic length and symbolic leading payload
      // (§3.2: "replaces the concrete data within the packet and the packet
      // length with symbolic values").
      st->mem().Write(ectx, kPacketStruct, 4, ectx->Const(kPacketData));
      st->mem().Write(ectx, kPacketStruct + 4, 4, ectx->Sym("send_len", 32));
      for (unsigned i = 0; i < 64; i += 4) {
        st->mem().Write(ectx, kPacketData + i, 4, ectx->Sym(StrFormat("pkt_%u", i), 32));
      }
    };
    script.push_back(send);

    script.push_back(MakeIrqStep("irq_after_send_isr", EntryRole::kIsr));
    script.push_back(MakeIrqStep("irq_after_send_dpc", EntryRole::kHandleInterrupt));

    Step reset{.name = "reset", .role = EntryRole::kReset};
    reset.args = {{false, kAdapterCtxPlaceholder, "ctx"}};
    script.push_back(reset);

    Step timer{.name = "timer", .role = EntryRole::kTimer};
    timer.args = {{false, kAdapterCtxPlaceholder, "ctx"}};
    script.push_back(timer);

    Step shutdown{.name = "shutdown", .role = EntryRole::kShutdown};
    shutdown.args = {{false, kAdapterCtxPlaceholder, "ctx"}};
    script.push_back(shutdown);

    Step halt{.name = "halt", .role = EntryRole::kHalt};
    halt.args = {{false, kAdapterCtxPlaceholder, "ctx"}};
    script.push_back(halt);
    return script;
  }

  Step MakeIrqStep(const char* name, EntryRole role) {
    Step s{.name = name, .role = role, .is_irq = true};
    s.args = {{false, kAdapterCtxPlaceholder, "ctx"}};
    return s;
  }

  // The executed plan: the script minus disabled IRQ steps, with fault-plan
  // IRQ perturbations applied. Shaping is keyed by the IRQ step's ordinal via
  // the cursor-independent PlanIrqDecision, so every replica -- spine, a
  // task that restored its snapshot, a task that replayed the prefix --
  // builds the identical plan regardless of how far its fault cursor has
  // advanced.
  std::vector<Step> BuildPlan() {
    std::vector<Step> script = BuildScript();
    std::vector<Step> plan;
    plan.reserve(script.size());
    std::vector<Step> delayed;  // kDelay stash: lands after the next step
    uint32_t irq_ordinal = 0;
    for (Step& step : script) {
      if (step.is_irq && !config.inject_irqs) {
        continue;
      }
      if (step.is_irq) {
        switch (hw::FaultSchedule::PlanIrqDecision(config.plan.faults, irq_ordinal++)) {
          case hw::IrqFault::kDrop:
            // Keep the step so RunStep counts the drop deterministically,
            // but mark it: RunStep skips the injection entirely.
            step.irq_fault = hw::IrqFault::kDrop;
            break;
          case hw::IrqFault::kDup: {
            // Spurious interrupt: the edge fires twice back to back. Only
            // the inserted copy carries the marker so the injection is
            // counted once.
            Step dup = step;
            dup.name += "_dup";
            dup.irq_fault = hw::IrqFault::kDup;
            plan.push_back(std::move(step));
            plan.push_back(std::move(dup));
            continue;
          }
          case hw::IrqFault::kDelay:
            // Late edge: the IRQ lands after the next script step instead of
            // right where the exerciser scheduled it.
            step.irq_fault = hw::IrqFault::kDelay;
            delayed.push_back(std::move(step));
            continue;
          case hw::IrqFault::kNone:
            break;
        }
      }
      plan.push_back(std::move(step));
      for (Step& d : delayed) {
        plan.push_back(std::move(d));
      }
      delayed.clear();
    }
    for (Step& d : delayed) {
      plan.push_back(std::move(d));
    }
    return plan;
  }

  // ---- chain-state snapshots ("RSS1", symex/snapshot.h) ----
  //
  // A chain snapshot is everything a fresh substrate replica needs to resume
  // the survivor chain at a step boundary *exactly* as if it had replayed the
  // spine prefix itself: the symex sections (expr DAG, state, memory pages,
  // scheduler bookkeeping, solver rng/cache/shelf) plus an engine section
  // with the wiretap counters (state-id/seq cursors), coverage, engine rng,
  // the warm DBT pc set, and the OS-substrate (WinSim) and shell-device
  // state. Byte-determinism matters: the final-state snapshot is embedded in
  // "RCP1" checkpoints, which tests compare bit-for-bit.

  std::vector<uint8_t> SerializeChainSnapshot(const ExecutionState& state) {
    symex::SnapshotWriter w;
    symex::WriteStateSections(&w, state);
    symex::WriteSchedulerSection(&w, pool);
    symex::WriteSolverSection(&w, solver);

    trace::ByteWriter& e = w.Section(symex::kSectionEngine);
    e.U64(next_state_id);
    e.U64(event_seq);
    e.U64(executor.seq());
    e.U64(rng.state());
    const EngineStats& es = stats;
    for (uint64_t v : {es.work, es.states_created, es.states_killed_polling,
                       es.states_killed_error, es.entry_completions, es.irqs_injected,
                       es.api_calls, es.api_skipped}) {
      e.U64(v);
    }
    auto put_u32_set = [&e](const std::set<uint32_t>& s) {
      e.U32(static_cast<uint32_t>(s.size()));
      for (uint32_t v : s) {
        e.U32(v);
      }
    };
    put_u32_set(covered);
    put_u32_set(apis_used);
    std::vector<uint32_t> warm_pcs = dbt.CachedPcs();
    e.U32(static_cast<uint32_t>(warm_pcs.size()));
    for (uint32_t pc : warm_pcs) {
      e.U32(pc);
    }
    ShellBridge::Counters sc = shell.SnapshotCounters();
    e.U64(sc.serial);
    e.U64(sc.reads);
    e.U64(sc.writes);
    e.U64(sc.dma_reads);
    auto put_regions = [&e](const std::vector<std::pair<uint32_t, uint32_t>>& regions) {
      e.U32(static_cast<uint32_t>(regions.size()));
      for (const auto& [begin, end] : regions) {
        e.U32(begin);
        e.U32(end);
      }
    };
    put_regions(shell.dma().Regions());
    os::WinSim::Snapshot ws = winsim.SnapshotState();
    e.U8(ws.registered ? 1 : 0);
    e.U32(ws.adapter_context);
    e.U32(ws.heap_next);
    e.U32(ws.dma_next);
    e.U32(static_cast<uint32_t>(ws.entries.size()));
    for (const os::EntryPoint& ep : ws.entries) {
      e.U8(static_cast<uint8_t>(ep.role));
      e.U32(ep.pc);
      e.U32(ep.timer_context);
    }
    e.U32(static_cast<uint32_t>(ws.timers.size()));
    for (const os::Timer& t : ws.timers) {
      e.U32(t.handler_pc);
      e.U32(t.context);
      e.U8(t.pending ? 1 : 0);
    }
    e.U32(static_cast<uint32_t>(ws.config.size()));
    for (const auto& [key, value] : ws.config) {
      e.U32(key);
      e.U32(value);
    }
    const os::WinSimCounters& wc = ws.counters;
    for (uint64_t v : {wc.rx_indicated, wc.send_completes, wc.error_logs,
                       wc.status_indications, wc.stall_micros, wc.bytes_moved}) {
      e.U64(v);
    }
    e.U32(static_cast<uint32_t>(ws.rx_delivered.size()));
    for (const hw::Frame& f : ws.rx_delivered) {
      e.U32(static_cast<uint32_t>(f.size()));
      e.Raw(f.data(), f.size());
    }
    e.U32(static_cast<uint32_t>(ws.api_usage.size()));
    for (const auto& [id, count] : ws.api_usage) {
      e.U32(id);
      e.U64(count);
    }
    put_regions(ws.dma_regions);
    // Fault-schedule position and counters: the cursor feeds every fault
    // decision, so a restored chain resumes mid-schedule exactly where the
    // spine left it (same contract as the shell's symbol serial above).
    e.U64(faults.cursor());
    const hw::FaultStats& fs = faults.stats();
    for (uint64_t v : {fs.decisions, fs.irq_dropped, fs.irq_duplicated, fs.irq_delayed,
                       fs.dma_read_stalls, fs.dma_write_drops, fs.bus_errors,
                       fs.reg_corruptions, fs.frames_truncated, fs.frames_oversized}) {
      e.U64(v);
    }

    return w.Finish(ctx);
  }

  // Restores a chain snapshot into this (freshly constructed) Impl and
  // returns the survivor state, or nullptr with *error set. Must run before
  // anything has touched the ExprContext's symbol table.
  std::unique_ptr<ExecutionState> RestoreChainSnapshot(const std::vector<uint8_t>& bytes,
                                                       std::string* error) {
    symex::SnapshotReader reader;
    if (!reader.Init(bytes, &ctx, error)) {
      return nullptr;
    }
    std::unique_ptr<ExecutionState> state;
    if (!symex::ReadStateSections(reader, &ctx, &mm, &state, error) ||
        !symex::ReadSchedulerSection(reader, &pool, error) ||
        !symex::ReadSolverSection(reader, &solver, error)) {
      return nullptr;
    }

    const std::vector<uint8_t>* payload = reader.Section(symex::kSectionEngine);
    if (payload == nullptr) {
      *error = "snapshot missing engine section";
      return nullptr;
    }
    trace::ByteReader e(*payload);
    auto fail = [error](const char* what) {
      *error = what;
      return std::unique_ptr<ExecutionState>();
    };
    uint64_t executor_seq, rng_state;
    if (!e.U64(&next_state_id) || !e.U64(&event_seq) || !e.U64(&executor_seq) ||
        !e.U64(&rng_state)) {
      return fail("truncated engine counters");
    }
    executor.set_seq(executor_seq);
    rng.set_state(rng_state);
    for (uint64_t* v : {&stats.work, &stats.states_created, &stats.states_killed_polling,
                        &stats.states_killed_error, &stats.entry_completions,
                        &stats.irqs_injected, &stats.api_calls, &stats.api_skipped}) {
      if (!e.U64(v)) {
        return fail("truncated engine stats");
      }
    }
    auto get_u32_set = [&e](std::set<uint32_t>* s) {
      uint32_t n;
      if (!e.U32(&n) || n > e.remaining() / 4) {
        return false;
      }
      for (uint32_t k = 0; k < n; ++k) {
        uint32_t v;
        if (!e.U32(&v)) {
          return false;
        }
        s->insert(v);
      }
      return true;
    };
    if (!get_u32_set(&covered) || !get_u32_set(&apis_used)) {
      return fail("truncated coverage sets");
    }
    uint32_t n;
    if (!e.U32(&n) || n > e.remaining() / 4) {
      return fail("implausible warm-pc count");
    }
    for (uint32_t k = 0; k < n; ++k) {
      uint32_t pc;
      if (!e.U32(&pc)) {
        return fail("truncated warm-pc list");
      }
      // Pre-warm the translation cache: translation is a pure function of
      // the immutable image, so this reproduces the replay-path cache state
      // (and therefore the hit/miss counter deltas) without executing.
      dbt.Translate(pc);
    }
    ShellBridge::Counters sc;
    if (!e.U64(&sc.serial) || !e.U64(&sc.reads) || !e.U64(&sc.writes) ||
        !e.U64(&sc.dma_reads)) {
      return fail("truncated shell counters");
    }
    shell.RestoreCounters(sc);
    auto get_regions = [&e](std::vector<std::pair<uint32_t, uint32_t>>* regions) {
      uint32_t count;
      if (!e.U32(&count) || count > e.remaining() / 8) {
        return false;
      }
      for (uint32_t k = 0; k < count; ++k) {
        uint32_t begin, end;
        if (!e.U32(&begin) || !e.U32(&end)) {
          return false;
        }
        regions->emplace_back(begin, end);
      }
      return true;
    };
    std::vector<std::pair<uint32_t, uint32_t>> shell_regions;
    if (!get_regions(&shell_regions)) {
      return fail("truncated shell DMA regions");
    }
    shell.dma().Clear();
    for (const auto& [begin, end] : shell_regions) {
      shell.dma().Register(begin, end - begin);
    }
    os::WinSim::Snapshot ws;
    uint8_t registered;
    if (!e.U8(&registered) || !e.U32(&ws.adapter_context) || !e.U32(&ws.heap_next) ||
        !e.U32(&ws.dma_next)) {
      return fail("truncated winsim header");
    }
    ws.registered = registered != 0;
    if (!e.U32(&n) || n > e.remaining() / 9) {
      return fail("implausible entry count");
    }
    ws.entries.resize(n);
    for (os::EntryPoint& ep : ws.entries) {
      uint8_t role;
      if (!e.U8(&role) || role > static_cast<uint8_t>(os::EntryRole::kTimer) ||
          !e.U32(&ep.pc) || !e.U32(&ep.timer_context)) {
        return fail("bad winsim entry point");
      }
      ep.role = static_cast<os::EntryRole>(role);
    }
    if (!e.U32(&n) || n > e.remaining() / 9) {
      return fail("implausible timer count");
    }
    ws.timers.resize(n);
    for (os::Timer& t : ws.timers) {
      uint8_t pending;
      if (!e.U32(&t.handler_pc) || !e.U32(&t.context) || !e.U8(&pending)) {
        return fail("bad winsim timer");
      }
      t.pending = pending != 0;
    }
    if (!e.U32(&n) || n > e.remaining() / 8) {
      return fail("implausible config count");
    }
    for (uint32_t k = 0; k < n; ++k) {
      uint32_t key, value;
      if (!e.U32(&key) || !e.U32(&value)) {
        return fail("truncated winsim config");
      }
      ws.config[key] = value;
    }
    for (uint64_t* v : {&ws.counters.rx_indicated, &ws.counters.send_completes,
                        &ws.counters.error_logs, &ws.counters.status_indications,
                        &ws.counters.stall_micros, &ws.counters.bytes_moved}) {
      if (!e.U64(v)) {
        return fail("truncated winsim counters");
      }
    }
    if (!e.U32(&n) || n > e.remaining() / 4) {
      return fail("implausible rx frame count");
    }
    ws.rx_delivered.resize(n);
    for (hw::Frame& f : ws.rx_delivered) {
      uint32_t len;
      if (!e.U32(&len) || len > e.remaining()) {
        return fail("bad rx frame length");
      }
      f.resize(len);
      if (!e.Raw(f.data(), len)) {
        return fail("truncated rx frame");
      }
    }
    if (!e.U32(&n) || n > e.remaining() / 12) {
      return fail("implausible api-usage count");
    }
    for (uint32_t k = 0; k < n; ++k) {
      uint32_t id;
      uint64_t count;
      if (!e.U32(&id) || !e.U64(&count)) {
        return fail("truncated api usage");
      }
      ws.api_usage[id] = count;
    }
    if (!get_regions(&ws.dma_regions)) {
      return fail("truncated winsim DMA regions");
    }
    uint64_t fault_cursor;
    hw::FaultStats fs;
    if (!e.U64(&fault_cursor)) {
      return fail("truncated fault cursor");
    }
    for (uint64_t* v : {&fs.decisions, &fs.irq_dropped, &fs.irq_duplicated, &fs.irq_delayed,
                        &fs.dma_read_stalls, &fs.dma_write_drops, &fs.bus_errors,
                        &fs.reg_corruptions, &fs.frames_truncated, &fs.frames_oversized}) {
      if (!e.U64(v)) {
        return fail("truncated fault stats");
      }
    }
    faults.set_cursor(fault_cursor);
    faults.set_stats(fs);
    // The restored counters are prefix totals this replica never published;
    // start live-sample publication from here, not from zero.
    faults_published = fs.TotalInjected();
    if (e.remaining() != 0) {
      return fail("trailing bytes in engine section");
    }
    winsim.RestoreState(std::move(ws));
    return state;
  }

  EngineResult Run() {
    StepKnobs knobs = StepKnobs::Of(config);
    return RunScript(knobs, -1, knobs);
  }

  // Runs the exercise script. Every step uses `base` knobs except the one at
  // executed-step index `full_step` (-1 = none), which runs with `full`
  // knobs as a segment of its own: BeginSegment() marks every accumulator
  // right before it so BuildResult() reports only that step's contribution
  // -- the prefix replays the spine run, which the parallel merge already
  // carries (and leaves the spine's blocks in `covered`, so the no-progress
  // gating skips re-exploring covered paths, deterministically). The run
  // stops after the full step: a worker task owns exactly one step.
  EngineResult RunScript(const StepKnobs& base, int full_step, const StepKnobs& full) {
    std::vector<Step> plan = BuildPlan();
    auto state = std::make_unique<ExecutionState>(next_state_id++, &ctx, &mm);
    for (size_t idx = 0; idx < plan.size(); ++idx) {
      if (step_snapshots != nullptr) {
        // Spine pass under snapshot handoff: capture the chain state right
        // before each executed step -- exactly what a replica replaying the
        // prefix would hold at this point (the replay is deterministic).
        step_snapshots->push_back(SerializeChainSnapshot(*state));
      }
      bool is_full = full_step >= 0 && idx == static_cast<size_t>(full_step);
      if (is_full && sub_mode == nullptr) {
        // Sub-shard tasks begin their segment inside RunStep (probes before
        // the preamble, root re-runs after the enumeration).
        BeginSegment();
      }
      const uint64_t step_work_base = stats.work;
      state = RunStep(plan[idx], std::move(state), is_full ? full : base,
                      is_full ? sub_mode : nullptr);
      ++steps_run;
      if (step_work_log != nullptr) {
        // Spine pass under fleet scheduling: the per-step spine work seeds
        // each step's fan-out task estimates (queue priority only).
        step_work_log->push_back(stats.work - step_work_base);
      }
      if (is_full) {
        break;
      }
      if (stats.work >= config.max_work || cancel_requested) {
        break;
      }
    }
    if (full_step < 0 && config.capture_final_snapshot) {
      final_snapshot_bytes = SerializeChainSnapshot(*state);
    }
    timeline.push_back({stats.work, covered.size(), faults.stats().TotalInjected()});
    if (config.on_coverage) {
      config.on_coverage(timeline.back());
    }
    return BuildResult();
  }

  // Fan-out worker body under snapshot handoff: the chain state restored
  // from the spine's step-k snapshot stands in for the replayed prefix, so
  // the worker runs *only* its own step (as a segment) and merges exactly
  // like a replaying worker would -- same marks, same slicing, same final
  // timeline sample.
  EngineResult RunSegmentFromSnapshot(size_t step_index,
                                      std::unique_ptr<ExecutionState> state,
                                      const StepKnobs& full) {
    std::vector<Step> plan = BuildPlan();
    // Mirror RunScript's gating: a run that exhausted its budget (or was
    // cancelled) before reaching this step never begins the segment.
    if (step_index < plan.size() && stats.work < config.max_work && !CancelRequested()) {
      if (sub_mode == nullptr) {
        BeginSegment();
      }
      state = RunStep(plan[step_index], std::move(state), full, sub_mode);
      ++steps_run;
    }
    timeline.push_back({stats.work, covered.size(), faults.stats().TotalInjected()});
    if (config.on_coverage) {
      config.on_coverage(timeline.back());
    }
    return BuildResult();
  }

  // Marks every accumulator so BuildResult() can report the upcoming step as
  // a standalone segment.
  void BeginSegment() {
    segment_begun = true;
    mark_block_records = bundle.block_records.size();
    mark_mem_records = bundle.mem_records.size();
    mark_api_records = bundle.api_records.size();
    mark_events = bundle.events.size();
    mark_timeline = timeline.size();
    stats_mark = stats;
    solver_mark = solver.stats();
    executor_mark = executor.stats();
    intern_mark = ctx.intern_stats();
    dbt_hits_mark = dbt.cache_hits();
    dbt_misses_mark = dbt.cache_misses();
    call_counts_mark = call_counts;
    functions_modeled_mark = stats_functions_modeled;
    fault_mark = faults.stats();
  }

  EngineResult BuildResult() {
    EngineResult result;
    result.bundle = std::move(bundle);
    result.covered_blocks = std::move(covered);
    result.static_blocks = static_bbs.size();
    result.timeline = std::move(timeline);
    result.stats = stats;
    result.solver_stats = solver.stats();
    result.executor_stats = executor.stats();
    const symex::SolverStats& ss = solver.stats();
    symex::ExprContext::InternStats is = ctx.intern_stats();
    result.substrate = {.solver_queries = ss.queries,
                        .solver_cache_hits = ss.cache_hits,
                        .solver_cache_misses = ss.cache_misses,
                        .solver_shelf_hits = ss.shelf_hits,
                        .intern_hits = is.hits,
                        .intern_misses = is.misses,
                        .intern_size = is.size,
                        .dbt_cache_hits = dbt.cache_hits(),
                        .dbt_cache_misses = dbt.cache_misses(),
                        .fault_decisions = faults.stats().decisions,
                        .faults_injected = faults.stats().TotalInjected()};
    result.fault_stats = faults.stats();
    result.entries = winsim.entries();
    result.apis_used = std::move(apis_used);
    result.call_counts = call_counts;
    result.functions_modeled = stats_functions_modeled;
    result.cancelled = cancel_requested;
    result.final_snapshot = std::move(final_snapshot_bytes);
    if (segment_begun) {
      SliceSegment(&result);
    }
    return result;
  }

  // Reduces `r` to the segment past the BeginSegment() marks: record streams
  // and the timeline drop their prefix (the timeline work axis rebases to
  // the segment start) and flow counters become deltas. Coverage and the
  // API-usage set stay whole -- the merge unions them, so the duplicated
  // prefix is harmless there.
  void SliceSegment(EngineResult* r) {
    auto chop = [](auto* vec, size_t mark) { vec->erase(vec->begin(), vec->begin() + mark); };
    chop(&r->bundle.block_records, mark_block_records);
    chop(&r->bundle.mem_records, mark_mem_records);
    chop(&r->bundle.api_records, mark_api_records);
    chop(&r->bundle.events, mark_events);
    chop(&r->timeline, mark_timeline);
    for (CoverageSample& s : r->timeline) {
      s.work -= stats_mark.work;
      s.faults -= fault_mark.TotalInjected();
    }

    r->stats -= stats_mark;
    r->solver_stats -= solver_mark;
    r->executor_stats -= executor_mark;
    r->fault_stats -= fault_mark;

    perf::SubstrateCounters& sc = r->substrate;
    sc.solver_queries -= solver_mark.queries;
    sc.solver_cache_hits -= solver_mark.cache_hits;
    sc.solver_cache_misses -= solver_mark.cache_misses;
    sc.solver_shelf_hits -= solver_mark.shelf_hits;
    sc.intern_hits -= intern_mark.hits;
    sc.intern_misses -= intern_mark.misses;
    sc.dbt_cache_hits -= dbt_hits_mark;
    sc.dbt_cache_misses -= dbt_misses_mark;
    sc.fault_decisions -= fault_mark.decisions;
    sc.faults_injected -= fault_mark.TotalInjected();

    for (const auto& [pc, count] : call_counts_mark) {
      auto it = r->call_counts.find(pc);
      if (it != r->call_counts.end()) {
        it->second -= count;
        if (it->second == 0) {
          r->call_counts.erase(it);
        }
      }
    }
    r->functions_modeled -= functions_modeled_mark;
  }

  // Runs one fan-out task -- a (step, sub-shard) pair -- start to finish:
  // builds the replica substrate(s), hands off the chain state (snapshot
  // restore, or spine-prefix replay when `snapshot` is empty or the restore
  // fails), explores, and returns the sliced segment slot(s). This is the
  // ONE task body: fleet lanes call it directly and forked dist workers
  // call it on the deserialized work item, so the two modes are
  // byte-identical by construction. `live`/`gwork`/`gfaults` are the
  // coordinator's monitoring hooks (null in a worker process -- monitoring
  // there is coordinator-side, on result receipt).
  static FanoutTaskResult RunFanoutTask(const isa::Image& image, const EngineConfig& cfg,
                                        const FanoutTask& task,
                                        const std::vector<uint8_t>& snapshot,
                                        symex::SharedCoverageMap* live,
                                        std::atomic<uint64_t>* gwork,
                                        std::atomic<uint64_t>* gfaults) {
    const StepKnobs spine_knobs = SpineStepKnobs(cfg);
    const StepKnobs full_knobs = FanoutFullKnobs(cfg, task.sub_shards);
    FanoutTaskResult out;

    // One replica, one exploration unit: the whole step (sub == nullptr),
    // the enumeration probe, or one owned root. Work accounting: `executed`
    // is what this replica actually ran (restored prefix totals excluded);
    // the pre-segment share of it is handoff overhead (spine replay and/or
    // enumeration re-run), split into the result's replayed/enum buckets by
    // handoff kind.
    auto run_replica = [&](SubShardMode* sub, EngineResult* result, bool* begun) {
      bool restored = false;
      if (!snapshot.empty()) {
        Impl replica(image, cfg);
        replica.live_coverage = live;
        replica.global_work = gwork;
        replica.global_faults = gfaults;
        replica.sub_mode = sub;
        std::string snap_error;
        std::unique_ptr<ExecutionState> state =
            replica.RestoreChainSnapshot(snapshot, &snap_error);
        if (state != nullptr) {
          const uint64_t base = replica.stats.work;  // restored prefix totals
          *result = replica.RunSegmentFromSnapshot(static_cast<size_t>(task.step),
                                                   std::move(state), full_knobs);
          *begun = replica.segment_begun;
          const uint64_t executed = replica.stats.work - base;
          out.task_work += executed;
          out.enum_work +=
              replica.segment_begun ? replica.stats_mark.work - base : executed;
          restored = true;
        } else {
          // In-memory snapshots only fail on a substrate bug; fall back to
          // prefix replay (byte-identical output) on a fresh replica
          // rather than dropping the segment. The counter makes the fallback
          // assertable -- without it a restore regression would silently
          // revert the O(S) spine guarantee while every byte-parity test
          // stays green.
          ++out.restore_failures;
          RLOG_WARN("step %llu snapshot restore failed (%s); replaying prefix",
                    (unsigned long long)task.step, snap_error.c_str());
        }
      }
      if (!restored) {
        Impl replica(image, cfg);
        replica.live_coverage = live;
        replica.global_work = gwork;
        replica.global_faults = gfaults;
        replica.sub_mode = sub;
        *result = replica.RunScript(spine_knobs, static_cast<int>(task.step), full_knobs);
        *begun = replica.segment_begun;
        const uint64_t executed = replica.stats.work;
        out.task_work += executed;
        out.replayed_work += replica.segment_begun ? replica.stats_mark.work : executed;
      }
    };

    if (task.sub_shards == 0) {
      FanoutSlot slot;
      slot.ordinal = 0;
      run_replica(nullptr, &slot.result, &slot.begun);
      out.slots.push_back(std::move(slot));
      return out;
    }

    // Sub-shard task: probe first (derives the canonical root list; its
    // segment is the step's ordinal-0 slot, owned by sub-shard 0 -- the
    // other shards run the identical probe purely to learn the roots), then
    // one isolated replica per owned root.
    SubShardMode probe;
    probe.root = -1;
    FanoutSlot probe_slot;
    probe_slot.ordinal = 0;
    run_replica(&probe, &probe_slot.result, &probe_slot.begun);
    out.root_count = probe.root_ids.size();
    if (task.sub_shard == 0) {
      out.slots.push_back(std::move(probe_slot));
    } else if (probe_slot.begun) {
      // A discarded probe's segment work is pure enumeration overhead.
      out.enum_work += probe_slot.result.stats.work;
    }
    for (size_t i = 0; i < probe.root_ids.size(); ++i) {
      if (ShardMix(probe.root_ids[i]) % task.sub_shards != task.sub_shard) {
        continue;
      }
      SubShardMode owned;
      owned.root = static_cast<int>(i);
      FanoutSlot slot;
      slot.ordinal = static_cast<uint32_t>(1 + i);
      run_replica(&owned, &slot.result, &slot.begun);
      out.slots.push_back(std::move(slot));
    }
    return out;
  }

  // ---- parallel exercising (!IsSequentialPlan(plan)) ----
  //
  // Spine + fan-out: one fast sequential pass chains a completing path
  // through every step, serializing the chain state before each step; each
  // (step, shard) full-budget exploration then runs as an independent task
  // on the fleet. Every task owns a full substrate replica
  // (ExprContext/solver/DBT/WinSim), restores its step snapshot, explores
  // its one step, and returns its segment slot(s). Segments merge in (step,
  // slot-ordinal) order -- never in completion order -- with state ids and
  // sequence numbers rebased per slot, so the merged result is
  // byte-identical for every lane count and schedule.
  // `spine` is the engine's own (already constructed) Impl: it runs the
  // spine pass in place, so the driver load + static analysis its ctor paid
  // are not wasted; only the fan-out replicas build fresh substrates.
  // `replay_prefix` (test-only, Engine::RunWithPrefixReplay) skips the step
  // snapshots so every task takes the prefix-replay fallback.
  static EngineResult RunParallel(Impl& spine, bool replay_prefix) {
    struct Shared {
      std::atomic<bool> cancel{false};
      std::atomic<uint64_t> work{0};
      std::atomic<uint64_t> faults{0};
      std::mutex observer_mu;
    } shared;

    const isa::Image& image = spine.image;
    const EngineConfig config = spine.config;  // pre-wrap copy for the knobs
    EngineConfig cfg = config;
    // Every replica polls the caller's cancel hook through a sticky shared
    // flag: the first worker to observe true stops them all, and the pool
    // drains (workers finish their current task fast -- each step's inner
    // loop polls -- then join).
    std::function<bool()> user_cancel = config.cancel;
    cfg.cancel = [&shared, user_cancel]() {
      if (shared.cancel.load(std::memory_order_relaxed)) {
        return true;
      }
      if (user_cancel && user_cancel()) {
        shared.cancel.store(true, std::memory_order_relaxed);
        return true;
      }
      return false;
    };
    // Live coverage streaming reports the merged picture: total work across
    // every replica and the shared map's covered count. Mid-run samples are
    // monitoring only (their timing depends on scheduling); the final sample
    // and the result timeline are canonical and deterministic.
    symex::SharedCoverageMap live(spine.static_bbs);
    std::function<void(const CoverageSample&)> user_cov = config.on_coverage;
    if (user_cov) {
      cfg.on_coverage = [&shared, &live, user_cov](const CoverageSample&) {
        CoverageSample merged{shared.work.load(std::memory_order_relaxed), live.CoveredCount(),
                              shared.faults.load(std::memory_order_relaxed)};
        std::lock_guard<std::mutex> lock(shared.observer_mu);
        user_cov(merged);
      };
    }

    // Every replica and worker derives its knobs (FanoutFullKnobs) from the
    // same config, so the byte-identity guarantee spans process boundaries
    // too.
    const ExercisePlan plan = config.plan;
    const uint32_t sub_shards = plan.sub_shards;
    StepKnobs spine_knobs = SpineStepKnobs(config);

    spine.config = cfg;  // wrapped cancel + coverage hooks for the spine run
    spine.live_coverage = &live;
    spine.global_work = &shared.work;
    spine.global_faults = &shared.faults;
    // Snapshot handoff: the spine pass serializes the chain state before
    // each step, and each fan-out task *restores* its start snapshot instead
    // of re-executing the prefix -- total spine work is O(S) (the spine runs
    // once), not O(S^2) (every task replaying up to S-1 steps). The restored
    // substrate is bit-exact (expr DAG with interning, solver
    // rng/cache/shelf, scheduler counters, WinSim/shell, wiretap cursors,
    // warm DBT set), so the merged result is byte-identical to the replay
    // fallback's -- pinned by tests/snapshot_test.cc.
    std::vector<std::vector<uint8_t>> snapshots;
    if (!replay_prefix) {
      spine.step_snapshots = &snapshots;
    }
    std::vector<uint64_t> step_work;
    spine.step_work_log = &step_work;
    EngineResult merged = spine.RunScript(spine_knobs, -1, spine_knobs);
    spine.step_snapshots = nullptr;
    spine.step_work_log = nullptr;
    const size_t steps_total = spine.steps_run;

    // Fan-out: one task per (step, sub-shard). Each task returns its
    // slot(s); the canonical merge below lays them out by (step, ordinal),
    // independent of completion order.
    const uint32_t shards_per_step = sub_shards == 0 ? 1 : sub_shards;
    const size_t total_tasks = steps_total * shards_per_step;
    std::vector<std::vector<FanoutSlot>> step_slots(steps_total);
    std::vector<uint64_t> root_counts(steps_total, 0);
    std::mutex results_mu;
    uint64_t max_chain = 0;
    uint64_t sum_replayed = 0;
    uint64_t sum_enum = 0;
    uint64_t restore_failures = 0;
    uint32_t failovers = 0;
    uint32_t workers_forked = 0;
    uint32_t fleet_workers = 0;
    uint32_t fleet_steals = 0;
    uint64_t handoff_bytes = 0;
    uint64_t snap_shipped = 0;
    uint64_t snap_reused = 0;
    std::vector<uint64_t> task_works(total_tasks, 0);
    if (!merged.cancelled) {
      // The batch's fleet, or a private one: a standalone run is a batch of
      // one. StartFleet forks the worker pool (if the plan asks for one)
      // here, before any lane thread starts -- the spine ran on this
      // thread, so this is the quietest point of the run. Callers like
      // RunBatch may hold other threads, which is why every exchange has a
      // deadline and an in-process failover (src/dist/README.md).
      FleetScheduler* fleet = config.fleet;
      std::unique_ptr<FleetScheduler> own_fleet;
      if (fleet == nullptr) {
        own_fleet = StartFleet(plan, {{&image, config}});
        fleet = own_fleet.get();
      }
      const uint32_t job = own_fleet != nullptr ? 0 : config.fleet_job;
      dist::WorkerPool* dpool = fleet->dist();
      workers_forked = dpool != nullptr ? dpool->alive() : 0;

      static const std::vector<uint8_t> kNoSnapshot;
      // The ONE fan-out item body: snapshot selection, dist dispatch with
      // in-process failover, and canonical result recording, whichever lane
      // (or which job's steal) runs it. `scratch` is the lane's reusable
      // serialization buffer (no per-task realloc churn).
      auto run_item = [&](size_t step, uint32_t shard,
                          std::vector<uint8_t>* scratch) -> uint64_t {
        FanoutTask task{step, shard, sub_shards};
        // The task starts step k with the spine coverage of steps 0..k-1 in
        // its `covered` set, so the no-progress gating skips re-exploring
        // those paths -- the same baseline the sequential engine has at
        // step k. (Seeding the *full* spine coverage instead was measured
        // to cost tail coverage: a step stops before reaching blocks only
        // later steps touch, breaking the +/-0.5% parity bar.)
        std::vector<uint8_t> local_snapshot;
        const std::vector<uint8_t>* snapshot = &kNoSnapshot;
        if (!replay_prefix) {
          if (sub_shards == 0 && dpool == nullptr) {
            // Single consumer per step: moving the blob out frees it as
            // the fan-out progresses instead of holding all S of them
            // until the last task finishes.
            local_snapshot = std::move(snapshots[step]);
            snapshot = &local_snapshot;
          } else {
            // The step's K tasks (and the dist failover path) share one
            // snapshot; the pool stays alive until the fan-out ends.
            snapshot = &snapshots[step];
          }
        }
        FanoutTaskResult r;
        bool done = false;
        if (dpool != nullptr && !shared.cancel.load(std::memory_order_relaxed)) {
          // The snapshot travels as a context blob keyed by (job, step):
          // Execute ships it only to a worker that doesn't hold it yet, so
          // the step's other shards -- and stolen tasks on a warm worker --
          // cost just the small kWork frame.
          std::string key;
          if (!snapshot->empty()) {
            key = "j" + std::to_string(job) + "/s" + std::to_string(step);
          }
          SerializeFanoutWorkInto(job, task, key, kNoSnapshot, scratch);
          std::vector<uint8_t> reply;
          std::string err;
          bool shipped = false;
          if (dpool->Execute(*scratch, &reply, &err, key, snapshot, &shipped) &&
              DeserializeFanoutResult(reply, &r, &err)) {
            done = true;
            // Monitoring: fold the worker's executed work into the live
            // counter on receipt (workers have no shared-memory hooks).
            shared.work.fetch_add(r.task_work, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(results_mu);
            handoff_bytes += scratch->size();
            (shipped ? snap_shipped : snap_reused) += snapshot->size();
          } else {
            // Worker crash / timeout / malformed reply: the shard fails
            // over to in-process execution -- never the run -- and the
            // merged bytes are unchanged (same task body, same inputs).
            RLOG_WARN("dist task (step %zu, shard %u) failed over in-process: %s",
                      step, shard, err.c_str());
            std::lock_guard<std::mutex> lock(results_mu);
            ++failovers;
          }
        }
        if (!done) {
          r = RunFanoutTask(image, cfg, task, *snapshot, &live, &shared.work,
                            &shared.faults);
        }
        std::lock_guard<std::mutex> lock(results_mu);
        root_counts[step] = std::max(root_counts[step], r.root_count);
        for (FanoutSlot& slot : r.slots) {
          step_slots[step].push_back(std::move(slot));
        }
        max_chain = std::max(max_chain, r.task_work);
        sum_replayed += r.replayed_work;
        sum_enum += r.enum_work;
        restore_failures += r.restore_failures;
        task_works[step * shards_per_step + shard] = r.task_work;
        return r.task_work;
      };

      // Every (step, shard) task goes to the fleet, estimated at its spine
      // step's measured work split across the shards, and this thread
      // blocks until they all ran. The fleet decides placement only.
      fleet->SetJobSpineWork(job, merged.stats.work);
      std::vector<FleetScheduler::Task> ftasks;
      ftasks.reserve(total_tasks);
      for (size_t k = 0; k < steps_total; ++k) {
        const uint64_t est = k < step_work.size() ? step_work[k] / shards_per_step : 1;
        for (uint32_t s = 0; s < shards_per_step; ++s) {
          FleetScheduler::Task t;
          t.step = k;
          t.shard = s;
          t.estimate = est;
          t.run = [&run_item, k, s](FleetScheduler::WorkerContext& wc) {
            return run_item(k, s, &wc.scratch);
          };
          ftasks.push_back(std::move(t));
        }
      }
      fleet->RunJobTasks(job, std::move(ftasks));
      fleet_workers = fleet->workers();
      fleet_steals = fleet->JobRealSteals(job);
      // own_fleet (if any) joins its lanes here, then shuts its worker pool
      // down (kShutdown + reap) before the merge.
    }

    // ---- canonical merge, in step order ----
    // Rebase each segment's state ids and wiretap sequence numbers into a
    // disjoint range (the strides clear every id the replicas can mint, and
    // keep the executor/event seq spaces' relative order). Downstream
    // consumers group by state id and sort by seq within a state, both of
    // which survive the rebase.
    constexpr uint64_t kIdStride = 1ull << 32;
    constexpr uint64_t kSeqStride = 1ull << 44;
    uint64_t cum_work = merged.stats.work;
    uint64_t cum_faults = merged.fault_stats.TotalInjected();
    // The entry table records one row per registration *call*, so replicas
    // exploring different path counts record different duplication. Merge as
    // a first-appearance dedup union (spine first, then segments in step
    // order) -- deterministic, and downstream consumers key on (role, pc)
    // anyway.
    auto entry_key = [](const os::EntryPoint& e) {
      return std::make_tuple(static_cast<uint32_t>(e.role), e.pc, e.timer_context);
    };
    std::set<std::tuple<uint32_t, uint32_t, uint32_t>> entry_seen;
    std::vector<os::EntryPoint> entry_union;
    for (const os::EntryPoint& e : merged.entries) {
      if (entry_seen.insert(entry_key(e)).second) {
        entry_union.push_back(e);
      }
    }
    // Slot layout: the merged checkpoint walks steps in order and, within a
    // step, slot ordinals 0..slot_count-1 (whole-step or enumeration segment
    // first, then enumerated roots in canonical id order). `position`
    // advances for EVERY slot -- begun or not -- so the id/seq offsets are a
    // pure function of the plan, not of which shard produced a slot or which
    // budget gate closed first. With sub_shards == 0 each step has exactly
    // one slot and position at step k is k+1: the legacy offsets, hence
    // byte-identical legacy checkpoints.
    for (auto& slots : step_slots) {
      std::sort(slots.begin(), slots.end(),
                [](const FanoutSlot& a, const FanoutSlot& b) { return a.ordinal < b.ordinal; });
    }
    uint64_t position = 0;
    uint64_t sum_seg = 0;
    uint64_t max_seg = 0;
    uint32_t begun_slots = 0;
    for (size_t k = 0; k < steps_total; ++k) {
      const uint64_t slot_count = sub_shards == 0 ? 1 : 1 + root_counts[k];
      size_t next = 0;
      for (uint64_t ord = 0; ord < slot_count; ++ord) {
      ++position;
      while (next < step_slots[k].size() && step_slots[k][next].ordinal < ord) {
        ++next;
      }
      if (next >= step_slots[k].size() || step_slots[k][next].ordinal != ord ||
          !step_slots[k][next].begun) {
        continue;  // budget/cancel ended this replica before its segment
      }
      EngineResult& seg = step_slots[k][next].result;
      const uint64_t id_off = position * kIdStride;
      const uint64_t seq_off = position * kSeqStride;
      for (trace::BlockRecord& r : seg.bundle.block_records) {
        r.state_id += id_off;
        r.seq += seq_off;
        merged.bundle.block_records.push_back(std::move(r));
      }
      for (trace::MemRecord& r : seg.bundle.mem_records) {
        r.state_id += id_off;
        r.seq += seq_off;
        merged.bundle.mem_records.push_back(std::move(r));
      }
      for (trace::ApiRecord& r : seg.bundle.api_records) {
        r.state_id += id_off;
        r.seq += seq_off;
        merged.bundle.api_records.push_back(std::move(r));
      }
      for (trace::EventRecord& r : seg.bundle.events) {
        r.state_id += id_off;
        r.seq += seq_off;
        merged.bundle.events.push_back(std::move(r));
      }
      // Translations are pure functions of the immutable driver image, so
      // duplicate keys across replicas carry identical blocks.
      merged.bundle.blocks.insert(seg.bundle.blocks.begin(), seg.bundle.blocks.end());
      merged.covered_blocks.insert(seg.covered_blocks.begin(), seg.covered_blocks.end());

      size_t cov_floor = merged.timeline.empty() ? 0 : merged.timeline.back().covered_blocks;
      for (const CoverageSample& s : seg.timeline) {
        CoverageSample m{cum_work + s.work, std::max(cov_floor, s.covered_blocks),
                         cum_faults + s.faults};
        cov_floor = m.covered_blocks;
        merged.timeline.push_back(m);
      }

      merged.stats += seg.stats;
      merged.solver_stats += seg.solver_stats;
      merged.executor_stats += seg.executor_stats;
      merged.fault_stats += seg.fault_stats;
      // Interning warmth is replica-local and depends on the handoff
      // strategy: a replayed prefix interns every node of its (dead)
      // exploration, while a restored snapshot carries only the reachable
      // DAG. Excluding the segments' intern counters keeps the merged
      // substrate identical across strategies; the spine's interning
      // represents the run. Solver/DBT counters stay in -- the restore path
      // reproduces those caches exactly (cache contents / warm pc set).
      seg.substrate.intern_hits = 0;
      seg.substrate.intern_misses = 0;
      seg.substrate.intern_size = 0;
      merged.substrate.Accumulate(seg.substrate);
      for (const auto& [pc, count] : seg.call_counts) {
        merged.call_counts[pc] += count;
      }
      merged.apis_used.insert(seg.apis_used.begin(), seg.apis_used.end());
      merged.functions_modeled += seg.functions_modeled;
      merged.cancelled = merged.cancelled || seg.cancelled;
      for (const os::EntryPoint& e : seg.entries) {
        if (entry_seen.insert(entry_key(e)).second) {
          entry_union.push_back(e);
        }
      }
      cum_work += seg.stats.work;
      cum_faults += seg.fault_stats.TotalInjected();
      sum_seg += seg.stats.work;
      max_seg = std::max(max_seg, seg.stats.work);
      ++begun_slots;
      }
    }
    merged.entries = std::move(entry_union);

    // A cancel can land while workers are still replaying their prefixes, in
    // which case no segment begins and the loop above never sees a
    // seg.cancelled -- the sticky shared flag is the authoritative answer.
    if (shared.cancel.load(std::memory_order_relaxed)) {
      merged.cancelled = true;
    }
    merged.snapshot_restore_failures = restore_failures;

    // The wrapped hooks capture this frame's Shared/live map; put the
    // caller's originals back so nothing in the long-lived Impl dangles
    // once this frame unwinds.
    spine.config = config;
    spine.live_coverage = nullptr;
    spine.global_work = nullptr;
    spine.global_faults = nullptr;

    merged.timeline.push_back({cum_work, merged.covered_blocks.size(), cum_faults});
    if (user_cov) {
      std::lock_guard<std::mutex> lock(shared.observer_mu);
      user_cov(merged.timeline.back());
    }
    // Scaling diagnostics: the per-task work distribution is what bounds
    // parallel scaling (wall ~ spine + max task chain on enough cores).
    // `spine` is the O(S) shared pass; `replayed-prefix` is the extra
    // per-task spine work of the restore fallback (0 in a healthy run);
    // `enum-overhead` is the per-task re-run of the
    // bounded enumeration phase when sub-sharding. A task's chain is
    // everything it executed (handoff + enumeration + owned segments), so
    // the critical path is exact for both fan-out architectures.
    {
      uint64_t spine_work = merged.stats.work - sum_seg;
      uint64_t critical = spine_work + max_chain;
      merged.parallel.spine_work = spine_work;
      merged.parallel.max_task_chain = max_chain;
      merged.parallel.critical_path = critical;
      merged.parallel.sum_segment_work = sum_seg;
      merged.parallel.replayed_prefix_work = sum_replayed;
      merged.parallel.enum_work = sum_enum;
      merged.parallel.tasks = static_cast<uint32_t>(total_tasks);
      merged.parallel.slots = begun_slots;
      merged.parallel.sub_shards = sub_shards;
      merged.parallel.worker_processes = workers_forked;
      merged.parallel.failovers = failovers;
      merged.parallel.fleet_workers = fleet_workers;
      merged.parallel.fleet_steals = fleet_steals;
      merged.parallel.handoff_bytes = handoff_bytes;
      merged.parallel.snapshot_bytes_shipped = snap_shipped;
      merged.parallel.snapshot_bytes_reused = snap_reused;
      merged.parallel.task_works = std::move(task_works);
      if (!config.quiet_parallel_stats && getenv("REVNIC_PARALLEL_STATS") != nullptr) {
        fprintf(stderr,
                "[parallel-exercise] sub-shards=%u workers=%u "
                "fleet=%u steals=%u spine=%llu work, replayed-prefix=%llu, "
                "enum-overhead=%llu, %u segments (sum=%llu max=%llu), tasks=%zu, "
                "critical path=%llu (%.2fx vs serial merge), failovers=%u\n",
                sub_shards, workers_forked, fleet_workers, fleet_steals,
                (unsigned long long)spine_work,
                (unsigned long long)sum_replayed, (unsigned long long)sum_enum, begun_slots,
                (unsigned long long)sum_seg, (unsigned long long)max_seg, total_tasks,
                (unsigned long long)critical,
                critical == 0 ? 1.0 : (double)merged.stats.work / (double)critical,
                failovers);
        if (config.plan.faults.Enabled()) {
          fprintf(stderr, "[parallel-exercise] %s\n",
                  hw::FormatFaultStats(merged.fault_stats).c_str());
        }
      }
    }
    return merged;
  }

  static constexpr uint32_t kAdapterCtxPlaceholder = 0xADA97CBA;

  isa::Image image;
  EngineConfig config;
  vm::MemoryMap mm;
  os::WinSim winsim;
  symex::ExprContext ctx;
  ShellBridge shell;
  symex::Solver solver;
  symex::Executor executor;
  vm::RamFetcher fetcher;
  vm::Dbt dbt;
  symex::StatePool pool;
  Rng rng;
  // Seeded fault schedule (no-op when config.plan.faults is disabled); the
  // shell device consults it on register/DMA reads, RunStep on scripted IRQs.
  hw::FaultSchedule faults;
  trace::TraceBundle bundle;
  trace::BundleSink sink;
  uint64_t next_state_id = 1;
  uint64_t event_seq = 1'000'000'000ull;  // disjoint from executor seq space
  std::set<uint32_t> static_bbs;
  std::set<uint32_t> covered;
  std::vector<CoverageSample> timeline;
  EngineStats stats;
  std::set<uint32_t> apis_used;
  std::map<uint32_t, uint64_t> call_counts;
  uint64_t stats_functions_modeled = 0;
  bool cancel_requested = false;

  // ---- parallel-exercise plumbing ----
  // Shared coverage map to publish fresh blocks into (merged live progress).
  symex::SharedCoverageMap* live_coverage = nullptr;
  // Cross-replica work counter behind the live coverage stream.
  std::atomic<uint64_t>* global_work = nullptr;
  // Cross-replica injected-fault counter (monitoring-only, like the shared
  // coverage map) and this replica's already-published total.
  std::atomic<uint64_t>* global_faults = nullptr;
  uint64_t faults_published = 0;
  // Steps actually executed by RunScript (the parallel driver sizes its
  // fan-out from the spine's count).
  size_t steps_run = 0;
  // When non-null (the spine pass of a snapshot-handoff parallel run),
  // RunScript serializes the chain state before each executed step.
  std::vector<std::vector<uint8_t>>* step_snapshots = nullptr;
  // When non-null, RunScript records each executed step's work delta (fleet
  // task-estimate seeding).
  std::vector<uint64_t>* step_work_log = nullptr;
  // When non-null, this replica's full step runs in sub-shard mode (see
  // SubShardMode); RunScript/RunSegmentFromSnapshot then leave segment
  // bracketing to RunStep.
  SubShardMode* sub_mode = nullptr;
  // Final chain snapshot captured by RunScript; moved into the result.
  std::vector<uint8_t> final_snapshot_bytes;
  // BeginSegment() marks; see SliceSegment().
  bool segment_begun = false;
  size_t mark_block_records = 0;
  size_t mark_mem_records = 0;
  size_t mark_api_records = 0;
  size_t mark_events = 0;
  size_t mark_timeline = 0;
  EngineStats stats_mark;
  symex::SolverStats solver_mark;
  symex::ExecutorStats executor_mark;
  symex::ExprContext::InternStats intern_mark;
  uint64_t dbt_hits_mark = 0;
  uint64_t dbt_misses_mark = 0;
  std::map<uint32_t, uint64_t> call_counts_mark;
  uint64_t functions_modeled_mark = 0;
  hw::FaultStats fault_mark;
};

Engine::Engine(const isa::Image& image, const EngineConfig& config)
    : impl_(std::make_unique<Impl>(image, config)) {}

Engine::~Engine() = default;

EngineResult Engine::Run() {
  if (IsSequentialPlan(impl_->config.plan)) {
    return impl_->Run();
  }
  return Impl::RunParallel(*impl_, /*replay_prefix=*/false);
}

EngineResult Engine::RunWithPrefixReplay() {
  if (IsSequentialPlan(impl_->config.plan)) {
    return impl_->Run();
  }
  return Impl::RunParallel(*impl_, /*replay_prefix=*/true);
}

FanoutTaskResult Engine::ExecuteFanoutTask(const isa::Image& image, const EngineConfig& config,
                                           const FanoutTask& task,
                                           const std::vector<uint8_t>& snapshot) {
  return Impl::RunFanoutTask(image, config, task, snapshot, nullptr, nullptr, nullptr);
}

}  // namespace revnic::core
