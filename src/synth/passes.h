// The synthesis pass pipeline (trace -> RecoveredModule), built on
// ir::PassManager.
//
// Recovery passes decompose the old monolithic module builder into the §4.1
// steps the paper names -- async-boundary detection, indirect-target
// collection, block splitting, function discovery, classification,
// param/return inference, entry-role mapping. Cleanup passes then shrink
// the C the backends emit without changing the driver's hardware I/O
// behavior: jump threading, single-predecessor block merging, unreachable-
// block elimination, dead pure-computation removal, switch recovery from
// the observed indirect targets, and redundant-goto label pruning.
//
// The load-bearing invariant (pinned by tests/synth_passes_test.cc): for
// every driver x target OS, the synthesized driver's hardware I/O trace is
// identical with cleanup on vs. off, and the ir verifier stays clean after
// every pass.
#ifndef REVNIC_SYNTH_PASSES_H_
#define REVNIC_SYNTH_PASSES_H_

#include <memory>
#include <string>
#include <vector>

#include "ir/passes.h"
#include "synth/cfg.h"
#include "synth/module.h"
#include "trace/trace.h"

namespace revnic::synth {

// The module type the synthesis passes transform: the recovered module
// being built plus the read-only trace inputs and the aggregate stats.
struct SynthContext {
  const trace::TraceBundle* bundle = nullptr;
  const std::vector<os::EntryPoint>* entries = nullptr;
  RecoveredModule module;
  SynthStats stats;

  bool InCode(uint32_t pc) const {
    return pc >= bundle->code_begin && pc < bundle->code_end;
  }
};

using SynthPass = ir::ModulePass<SynthContext>;
using SynthPassManager = ir::PassManager<SynthContext>;

// Pipeline builders. Recovery must run before cleanup.
void AddRecoveryPasses(SynthPassManager* pm);
void AddCleanupPasses(SynthPassManager* pm);

// Individual cleanup passes, exposed so tests can exercise one
// transformation against a hand-built module.
std::unique_ptr<SynthPass> MakeThreadJumpsPass();
std::unique_ptr<SynthPass> MakeMergeFallthroughPass();
std::unique_ptr<SynthPass> MakePeepholePass();
std::unique_ptr<SynthPass> MakePruneUnreachablePass();
std::unique_ptr<SynthPass> MakeDeadCodePass();
std::unique_ptr<SynthPass> MakeRecoverSwitchesPass();
std::unique_ptr<SynthPass> MakePruneLabelsPass();

// PassManager verify hook over a SynthContext (wraps VerifyModule).
std::string VerifyContext(const SynthContext& ctx);

}  // namespace revnic::synth

#endif  // REVNIC_SYNTH_PASSES_H_
