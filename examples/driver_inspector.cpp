// Driver inspector: the "understand a closed binary" use case. Dumps what
// RevNIC can tell a developer about an opaque driver without running it on
// real hardware: static stats, the recovered state machine, per-function
// classification, kernel API usage, and coverage holes.
//
// Staged operation via core::Session:
//
//   driver_inspector --driver rtl8139                 # full report
//   driver_inspector --driver rtl8139 --stage exercise --checkpoint t.rcp
//   driver_inspector --stage emit --checkpoint t.rcp  # resume, no re-exercise
//
// Usage:
//   driver_inspector [--driver <name>] [--stage exercise|recover|synthesize|emit]
//                    [--checkpoint <file>] [--out <dir>] [--emit-target <os>]
//                    [--list]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "drivers/drivers.h"
#include "hw/faults.h"
#include "isa/disasm.h"
#include "native/harness.h"
#include "native/toolchain.h"
#include "synth/emit.h"

namespace {

void PrintUsage(const char* argv0) {
  printf("usage: %s [options] [<driver>]\n"
         "  --driver <name>      target from the registry (default: pcnet)\n"
         "  --stage <stage>      stop after: exercise | recover | synthesize | emit\n"
         "  --checkpoint <file>  save the exercise stage there (or resume from it\n"
         "                       when the file already exists)\n"
         "  --out <dir>          write driver.c, revnic_runtime.h, and one\n"
         "                       driver_<target>.c per backend (stage emit)\n"
         "  --emit-target <os>   emission backend: windows | linux | ucos2 |\n"
         "                       kitos | all (repeatable; default: windows)\n"
         "  --sub-shards <k>     split each exercise step across k deterministic\n"
         "                       sub-partitions (0 = whole-step fan-out;\n"
         "                       byte-identical for every k >= 1)\n"
         "  --dist-workers <n>   run fan-out tasks on n forked worker processes\n"
         "                       (0 = in-process; byte-identical either way,\n"
         "                       worker failures fail over in-process)\n"
         "  --fleet <n>          parallel exercising on an n-lane fleet scheduler\n"
         "                       (0 = one lane per hardware thread; byte-identical\n"
         "                       for every n). Without it the sequential engine\n"
         "                       runs unless --sub-shards/--dist-workers are set\n"
         "  --faults <spec>      deterministic fault injection while exercising:\n"
         "                       seed:kind=rate,... (e.g. 42:irq-drop=0.2 or\n"
         "                       7:all=0.05; kinds: irq-drop irq-dup irq-delay\n"
         "                       dma-read-stall dma-write-drop bus-error\n"
         "                       reg-corrupt frame-truncate frame-oversize)\n"
         "  --native-run         after emit: compile the kitos output with the\n"
         "                       host cc, dlopen it, check I/O-trace parity\n"
         "                       against the DBT original, and race both sides\n"
         "                       (skipped when the box has no cc/dlopen)\n"
         "  --native-frames <n>  native-side frame count for --native-run\n"
         "                       (default 50000; DBT side runs n/20)\n"
         "  --list               list registered targets and exit\n",
         argv0);
}

bool FileExists(const char* path) {
  FILE* f = fopen(path, "rb");
  if (f != nullptr) {
    fclose(f);
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace revnic;

  const char* driver_name = nullptr;
  const char* stage_name = "emit";
  const char* checkpoint = nullptr;
  const char* out_dir = nullptr;
  core::ExercisePlan plan;
  bool native_run = false;
  uint64_t native_frames = 50'000;
  std::vector<os::TargetOs> emit_targets;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "%s needs a value\n", flag);
        exit(2);
      }
      return argv[++i];
    };
    if (strcmp(argv[i], "--driver") == 0) {
      driver_name = value("--driver");
    } else if (strcmp(argv[i], "--stage") == 0) {
      stage_name = value("--stage");
    } else if (strcmp(argv[i], "--checkpoint") == 0) {
      checkpoint = value("--checkpoint");
    } else if (strcmp(argv[i], "--out") == 0) {
      out_dir = value("--out");
    } else if (strcmp(argv[i], "--sub-shards") == 0) {
      plan.sub_shards = static_cast<unsigned>(atoi(value("--sub-shards")));
    } else if (strcmp(argv[i], "--dist-workers") == 0) {
      plan.worker_processes = static_cast<unsigned>(atoi(value("--dist-workers")));
    } else if (strcmp(argv[i], "--fleet") == 0) {
      // Lanes only; threads = 0 selects the parallel class, and with
      // fleet = 0 sizes the lanes for the hardware.
      plan.fleet = static_cast<unsigned>(atoi(value("--fleet")));
      plan.threads = 0;
    } else if (strcmp(argv[i], "--faults") == 0) {
      std::string fault_err;
      if (!hw::ParseFaultPlan(value("--faults"), &plan.faults, &fault_err)) {
        fprintf(stderr, "--faults: %s\n", fault_err.c_str());
        return 2;
      }
    } else if (strcmp(argv[i], "--emit-target") == 0) {
      const char* name = value("--emit-target");
      if (strcmp(name, "all") == 0) {
        emit_targets.assign(std::begin(os::kAllTargetOses), std::end(os::kAllTargetOses));
      } else {
        os::TargetOs target;
        if (!os::FindTargetOs(name, &target)) {
          fprintf(stderr, "unknown --emit-target '%s' (windows|linux|ucos2|kitos|all)\n",
                  name);
          return 2;
        }
        emit_targets.push_back(target);
      }
    } else if (strcmp(argv[i], "--native-run") == 0) {
      native_run = true;
    } else if (strcmp(argv[i], "--native-frames") == 0) {
      native_frames = strtoull(value("--native-frames"), nullptr, 10);
    } else if (strcmp(argv[i], "--list") == 0) {
      printf("registered targets:\n");
      for (const drivers::TargetInfo& t : drivers::AllTargets()) {
        printf("  %-12s (%s)\n", t.name, t.file);
      }
      return 0;
    } else if (strcmp(argv[i], "--help") == 0 || strcmp(argv[i], "-h") == 0) {
      PrintUsage(argv[0]);
      return 0;
    } else if (argv[i][0] != '-') {
      driver_name = argv[i];  // positional form: driver_inspector rtl8139
    } else {
      fprintf(stderr, "unknown flag %s\n", argv[i]);
      PrintUsage(argv[0]);
      return 2;
    }
  }

  enum { kExercise, kRecover, kSynthesize, kEmit } stop;
  if (strcmp(stage_name, "exercise") == 0) {
    stop = kExercise;
  } else if (strcmp(stage_name, "recover") == 0) {
    stop = kRecover;
  } else if (strcmp(stage_name, "synthesize") == 0) {
    stop = kSynthesize;
  } else if (strcmp(stage_name, "emit") == 0) {
    stop = kEmit;
  } else {
    fprintf(stderr, "unknown --stage '%s'\n", stage_name);
    return 2;
  }

  // Resolve the session: resume from a checkpoint when one is given and
  // exists, otherwise exercise a registry target.
  std::unique_ptr<core::Session> session;
  std::string err;
  const bool resumed = checkpoint != nullptr && FileExists(checkpoint);
  if (resumed) {
    session = core::Session::LoadCheckpointFile(checkpoint, &err);
    if (session == nullptr) {
      fprintf(stderr, "cannot resume from %s: %s\n", checkpoint, err.c_str());
      return 1;
    }
    if (driver_name != nullptr && session->label() != driver_name) {
      fprintf(stderr, "checkpoint %s holds '%s', not the requested '%s'; delete it or drop"
              " --driver\n", checkpoint, session->label().c_str(), driver_name);
      return 2;
    }
    printf("=== resumed from checkpoint %s (label '%s') ===\n", checkpoint,
           session->label().c_str());
    if (plan.faults.Enabled()) {
      fprintf(stderr, "note: --faults ignored when resuming (the checkpoint already"
              " fixes the exercised trace)\n");
    }
  } else {
    const drivers::TargetInfo* target =
        drivers::FindTarget(driver_name != nullptr ? driver_name : "pcnet");
    if (target == nullptr) {
      fprintf(stderr, "unknown driver '%s'; --list shows the registry\n", driver_name);
      return 2;
    }
    const isa::Image& img = drivers::DriverImage(target->id);
    isa::StaticAnalysis sa = isa::Analyze(img);
    printf("=== %s ===\n", target->file);
    printf("file %u bytes | code %zu bytes | %zu static functions | %zu basic blocks | "
           "%zu imports\n\n",
           img.file_size(), img.code.size(), sa.NumFunctions(), sa.NumBasicBlocks(),
           sa.NumImports());

    core::EngineConfig cfg;
    cfg.pci = drivers::DriverPci(target->id);
    cfg.max_work = 200'000;
    cfg.plan = plan;
    if (plan.faults.Enabled()) {
      printf("fault plan: %s\n", hw::FormatFaultPlan(plan.faults).c_str());
    }
    session = std::make_unique<core::Session>(img, cfg);
    session->set_label(target->name);
  }

  core::SessionObserver obs;
  obs.on_stage = [](core::Stage s) { printf("[stage] %s\n", core::StageName(s)); };
  session->set_observer(obs);
  if (native_run &&
      std::find(emit_targets.begin(), emit_targets.end(), os::TargetOs::kKitos) ==
          emit_targets.end()) {
    // The native run executes the kitos translation unit; make sure it exists.
    if (emit_targets.empty()) {
      emit_targets.push_back(os::TargetOs::kWindows);
    }
    emit_targets.push_back(os::TargetOs::kKitos);
  }
  if (!emit_targets.empty()) {
    core::EmitOptions emit;
    emit.targets = emit_targets;
    session->set_emit_options(emit);
  }

  if (!session->Exercise()) {
    fprintf(stderr, "exercise failed: %s\n", session->error().c_str());
    return 1;
  }
  const core::EngineResult& engine = session->engine();
  printf("dynamic exercise: %.1f%% coverage, %llu paths forked, %llu API calls\n",
         engine.CoveragePercent(), static_cast<unsigned long long>(engine.executor_stats.forks),
         static_cast<unsigned long long>(engine.stats.api_calls));
  printf("substrate caches: %s\n", perf::FormatSubstrateCounters(engine.substrate).c_str());
  if (engine.fault_stats.decisions > 0) {
    printf("%s\n", hw::FormatFaultStats(engine.fault_stats).c_str());
  }

  if (checkpoint != nullptr && !resumed) {
    if (!session->SaveCheckpointFile(checkpoint, &err)) {
      fprintf(stderr, "cannot save checkpoint: %s\n", err.c_str());
      return 1;
    }
    printf("checkpoint saved to %s\n", checkpoint);
  }
  if (stop == kExercise) {
    return 0;
  }

  if (!session->RecoverCfg()) {
    fprintf(stderr, "cfg recovery failed: %s\n", session->error().c_str());
    return 1;
  }
  printf("\nentry points (from registration monitoring):\n");
  for (const os::EntryPoint& e : engine.entries) {
    printf("  %-18s 0x%x\n", os::EntryRoleName(e.role), e.pc);
  }
  printf("\nkernel APIs imported (observed dynamically):\n  ");
  int col = 0;
  for (uint32_t api : engine.apis_used) {
    printf("%s%s", os::SignatureOf(api).name, ++col % 4 == 0 ? "\n  " : ", ");
  }
  printf("\n\nrecovered functions (paper Section 4.2 taxonomy):\n");
  const synth::RecoveredModule& module = session->module();
  for (const auto& [pc, fn] : module.functions) {
    printf("  0x%-8x %-28s %-14s blocks=%-3zu params=%u%s%s\n", pc, fn.name.c_str(),
           synth::FunctionTypeName(fn.type), fn.block_pcs.size(), fn.num_params,
           fn.has_return ? " ret" : "",
           fn.unexplored_targets.empty() ? "" : " [UNEXPLORED BRANCHES]");
  }
  size_t holes = 0;
  for (const auto& [pc, fn] : module.functions) {
    holes += fn.unexplored_targets.size();
  }
  printf("\ncoverage holes flagged for the developer: %zu\n", holes);
  printf("\nsynthesis pass pipeline:\n");
  for (const ir::PassStats& ps : session->synth_stats().passes) {
    printf("  %s\n", ir::FormatPassStats(ps).c_str());
  }
  if (stop == kRecover) {
    return 0;
  }

  if (!session->Synthesize()) {
    fprintf(stderr, "synthesis failed: %s\n", session->error().c_str());
    return 1;
  }
  printf("generated C: %zu lines\n",
         static_cast<size_t>(
             std::count(session->c_source().begin(), session->c_source().end(), '\n')));
  if (stop == kSynthesize) {
    return 0;
  }

  if (!session->Emit()) {
    fprintf(stderr, "emit failed: %s\n", session->error().c_str());
    return 1;
  }
  printf("emission backends:\n");
  for (const auto& [target, source] : session->emitted()) {
    const synth::EmissionStats& es = session->emission_stats().at(target);
    printf("  %-8s %-18s %6zu bytes (template %zu + synthesized %zu)\n",
           os::TargetOsName(target), synth::TargetFileName(target).c_str(), source.size(),
           es.template_bytes, es.core_bytes);
  }
  if (out_dir != nullptr) {
    if (!session->WriteOutputs(out_dir, &err)) {
      fprintf(stderr, "cannot write outputs: %s\n", err.c_str());
      return 1;
    }
    printf("wrote driver.c, revnic_runtime.h, and driver_<target>.c to %s/\n", out_dir);
  }

  if (native_run) {
    std::string why;
    if (!native::ToolchainAvailable(&why)) {
      printf("\nnative run skipped: %s\n", why.c_str());
      return 0;
    }
    const drivers::TargetInfo* t = drivers::FindTarget(session->label().c_str());
    if (t == nullptr) {
      fprintf(stderr, "native run: session label '%s' is not a registry target\n",
              session->label().c_str());
      return 1;
    }
    native::RaceOptions ropts;
    ropts.native_frames = native_frames;
    ropts.dbt_frames = std::max<uint64_t>(native_frames / 20, 200);
    printf("\nnative run: compiling kitos output, racing against the DBT original...\n");
    native::RaceResult race = native::RunRace(t->id, session->emitted().at(os::TargetOs::kKitos),
                                              session->module(), ropts);
    if (!race.ok) {
      fprintf(stderr, "native run failed: %s\n", race.error.c_str());
      return 1;
    }
    printf("  compiled .so:        %s\n", race.so_path.c_str());
    printf("  I/O-trace parity:    %s%s%s\n", race.parity_ok ? "ok" : "DIVERGED",
           race.parity_ok ? "" : " -- ", race.parity_ok ? "" : race.parity_detail.c_str());
    printf("  native:  %9.0f frames/s  (%.0f ns/frame, %.0f cycles/frame)\n",
           race.native_side.frames_per_sec, race.native_side.ns_per_frame,
           race.native_side.host_cycles_per_frame);
    printf("  dbt:     %9.0f frames/s  (%.0f ns/frame, %.0f cycles/frame, "
           "%llu guest instrs)\n",
           race.dbt.frames_per_sec, race.dbt.ns_per_frame, race.dbt.host_cycles_per_frame,
           static_cast<unsigned long long>(race.dbt.guest_instrs));
    printf("  speedup: %.1fx\n", race.speedup);
    return race.parity_ok ? 0 : 1;
  }
  return 0;
}
