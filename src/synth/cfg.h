// Trace -> CFG reconstruction (§4.1).
//
// "RevNIC merges the execution paths from traces in order to rebuild the
// state machine (i.e., control flow graph) of the original driver. ...
// First, RevNIC identifies function boundaries by looking for call-return
// instruction pairs. Second, the translation blocks between call-return
// pairs are chained together to reproduce the original CFG of the function.
// RevNIC splits translation blocks into basic blocks in the process."
//
// Asynchronous events (injected interrupts, timer handlers) are detected via
// register-state discontinuities between consecutively executed blocks of
// the same path, exactly as §4.1 describes; their handlers become ordinary
// functions.
#ifndef REVNIC_SYNTH_CFG_H_
#define REVNIC_SYNTH_CFG_H_

#include <string>
#include <vector>

#include "ir/passes.h"
#include "synth/module.h"
#include "trace/trace.h"

namespace revnic::synth {

struct SynthStats {
  size_t translation_blocks = 0;
  size_t basic_blocks = 0;     // after splitting (before any cleanup pruning)
  size_t functions = 0;
  size_t async_boundaries = 0; // register-discontinuity detections
  size_t coverage_holes = 0;   // flagged unexplored branch targets
  uint64_t trace_bytes = 0;    // input size (for the §5.4 throughput metric)
  // Cleanup-pipeline effect totals (all zero when cleanup is off).
  size_t jumps_threaded = 0;   // edges retargeted past empty jump blocks
  size_t blocks_merged = 0;    // single-predecessor fallthrough merges
  size_t blocks_pruned = 0;    // unreachable blocks removed
  size_t instrs_removed = 0;   // dead pure computations eliminated
  size_t switches_recovered = 0;
  size_t labels_pruned = 0;    // C labels the emitter no longer needs
  size_t gotos_elided = 0;     // gotos replaced by source-order fallthrough
  size_t instrs_folded = 0;    // peephole: computations collapsed to constants
  size_t branches_folded = 0;  // peephole: branches with constant conditions
  // Per-pass breakdown in pipeline order (Figure 9's per-pass report).
  std::vector<ir::PassStats> passes;
};

// ---- pass-pipeline entry point (synth/passes.cc) ----

struct PipelineOptions {
  // Run the C-shrinking cleanup passes (thread-jumps, merge-fallthrough,
  // prune-unreachable, dce, recover-switches, prune-labels) after recovery.
  bool cleanup = true;
  // Interpose the ir verifier (plus module structural checks) between
  // passes; a failure aborts the pipeline with `error` set.
  bool verify_between = true;
};

// Runs the full trace->module pipeline under an ir::PassManager. On
// verifier failure returns the module as of the offending pass and sets
// `*error`; otherwise `*error` is cleared. `stats->passes` records the
// per-pass breakdown either way.
RecoveredModule RunSynthesisPipeline(const trace::TraceBundle& bundle,
                                     const std::vector<os::EntryPoint>& entries,
                                     const PipelineOptions& options, SynthStats* stats,
                                     std::string* error);

// Structural invariants the pass manager enforces between passes: every
// block passes ir::Verify, every function block_pc resolves, every entry
// role maps to a function. Empty string when clean.
std::string VerifyModule(const RecoveredModule& module);

}  // namespace revnic::synth

#endif  // REVNIC_SYNTH_CFG_H_
