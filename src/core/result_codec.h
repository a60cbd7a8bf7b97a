// The one binary encoding of an exercise result. An "RCP1" checkpoint is
// magic + version + label + this body (core/session.cc), and every begun
// slot of an "FWR2" fan-out result carries exactly the version-3 body
// (core/fanout.cc), so a segment computed in a worker process decodes to
// the same EngineResult an in-process one would hold.
//
// Body layout: TraceBundle | entries | coverage | static_blocks | timeline |
// engine/solver/executor/substrate counters | (v3) fault counters | call
// counts | functions_modeled | apis | cancelled | (v2+) optional
// final-state "RSS1" snapshot. v3 timeline samples are 24 bytes (work,
// covered, faults); earlier ones are 16. The runtime-only diagnostics
// (snapshot_restore_failures, parallel) are not carried.
#ifndef REVNIC_CORE_RESULT_CODEC_H_
#define REVNIC_CORE_RESULT_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "trace/serialize.h"

namespace revnic::core {

// Version history: 1 = the original layout; 2 = v1 + optional final-state
// snapshot section; 3 = v2 + per-sample fault counts in the timeline and a
// FaultStats block after the substrate counters. The decoder accepts all
// three (v1/v2 checkpoints are still supported input; they load with zeroed
// fault counters); the encoder writes v3, or v1 for legacy checkpoints.
constexpr uint32_t kResultCodecV1 = 1;
constexpr uint32_t kResultCodecV2 = 2;
constexpr uint32_t kResultCodecVersion = 3;

void EncodeEngineResult(const EngineResult& e, uint32_t version, trace::ByteWriter* w);
// Fills *e (expected default-constructed) or returns false with *error set.
// Trailing bytes are the container's business.
bool DecodeEngineResult(trace::ByteReader* r, uint32_t version, EngineResult* e,
                        std::string* error);

// Entry-point table: count, then (role u8, pc u32, timer_context u32) each.
// The decoder rejects a role past os::EntryRole::kTimer. Shared with the
// RSS1 engine section's WinSim state.
void EncodeEntries(const std::vector<os::EntryPoint>& entries, trace::ByteWriter* w);
bool DecodeEntries(trace::ByteReader* r, std::vector<os::EntryPoint>* entries);

}  // namespace revnic::core

#endif  // REVNIC_CORE_RESULT_CODEC_H_
