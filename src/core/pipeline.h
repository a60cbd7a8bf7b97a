// End-to-end RevNIC pipeline types: exercise + wiretap (engine) ->
// pass-based CFG recovery + cleanup (synth passes) -> per-target C emission
// (synth backends). core::Session (session.h) runs the stages; this header
// holds what configures its downstream stages (EmitOptions) and what a
// finished session hands back (PipelineResult).
#ifndef REVNIC_CORE_PIPELINE_H_
#define REVNIC_CORE_PIPELINE_H_

#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "os/target.h"
#include "synth/cemit.h"
#include "synth/cfg.h"
#include "synth/emit.h"

namespace revnic::core {

// What the Synthesize/Emit stages produce: which target OSes get a
// driver_<target>.c, and whether the cleanup passes run between recovery
// and emission. Defaults reproduce the paper's primary artifact (the
// generic/Windows rendering) with cleanup on.
struct EmitOptions {
  std::vector<os::TargetOs> targets = {os::TargetOs::kWindows};
  // Run the C-shrinking cleanup passes (synth::AddCleanupPasses) after
  // recovery. Hardware I/O behavior is pass-invariant (pinned by
  // tests/synth_passes_test.cc); turning this off reproduces the legacy
  // goto-everywhere output.
  bool cleanup_passes = true;
  synth::CEmitOptions render;
};

struct PipelineResult {
  EngineResult engine;
  synth::RecoveredModule module;
  synth::SynthStats synth_stats;  // includes the per-pass breakdown
  std::string c_source;           // first requested target (Listing 1 style)
  std::string runtime_header;     // revnic_runtime.h it compiles against
  // One full translation unit per requested target OS, plus its renderer/
  // template size split (same rendering -- no need to re-emit to report).
  std::map<os::TargetOs, std::string> emitted;
  std::map<os::TargetOs, synth::EmissionStats> emission_stats;
};

}  // namespace revnic::core

#endif  // REVNIC_CORE_PIPELINE_H_
