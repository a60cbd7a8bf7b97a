// Robustness: malformed inputs must fail cleanly, and the solver must find
// every satisfiable system we can construct by design. Includes the "RSS1"
// snapshot and "RCP1" checkpoint corruption sweeps (truncation, bit flips,
// wrong magic/version): parsers must reject or parse garbage cleanly, never
// crash or invoke UB. In sanitizer builds every test here carries the
// `sanitize` ctest label (CMakeLists.txt), so ASan/UBSan CI runs the sweeps.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/fanout.h"
#include "core/session.h"
#include "dist/wire.h"
#include "drivers/drivers.h"
#include "hw/faults.h"
#include "isa/image.h"
#include "symex/snapshot.h"
#include "symex/solver.h"
#include "util/rng.h"

namespace revnic {
namespace {

// ---- DRV1 parser fuzzing: random mutations never crash, and either parse
// to a well-formed image or fail with a diagnostic. ----

class ImageFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ImageFuzzTest, MutatedImagesParseOrFailCleanly) {
  Rng rng(GetParam() * 1337);
  std::vector<uint8_t> bytes =
      isa::Serialize(drivers::DriverImage(drivers::DriverId::kRtl8029));
  // Mutate a handful of random bytes (header and body).
  for (int m = 0; m < 16; ++m) {
    bytes[rng.Below(static_cast<uint32_t>(bytes.size()))] ^=
        static_cast<uint8_t>(1 + rng.Below(255));
  }
  isa::Image out;
  std::string error;
  bool ok = isa::Parse(bytes, &out, &error);
  if (ok) {
    // If it parsed, the invariants must hold.
    EXPECT_GE(out.entry, out.code_begin());
    EXPECT_LT(out.entry, out.code_end());
    EXPECT_EQ(out.file_size(), bytes.size());
  } else {
    EXPECT_FALSE(error.empty());
  }
}

TEST_P(ImageFuzzTest, TruncatedImagesRejected) {
  Rng rng(GetParam());
  std::vector<uint8_t> bytes =
      isa::Serialize(drivers::DriverImage(drivers::DriverId::kSmc91c111));
  bytes.resize(rng.Below(static_cast<uint32_t>(bytes.size())));
  isa::Image out;
  std::string error;
  EXPECT_FALSE(isa::Parse(bytes, &out, &error));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImageFuzzTest, ::testing::Range<uint64_t>(1, 13));

// ---- Solver completeness: systems satisfiable by construction. ----

class SolverCompleteness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverCompleteness, FindsPlantedSolutions) {
  Rng rng(GetParam() * 104729);
  symex::ExprContext ctx;
  symex::Solver solver(symex::Solver::Options(), GetParam());
  // Plant an assignment, then generate constraints that are true under it.
  const int kVars = 1 + static_cast<int>(rng.Below(4));
  std::vector<symex::ExprRef> vars;
  symex::Model planted;
  for (int v = 0; v < kVars; ++v) {
    vars.push_back(ctx.Sym(StrFormat("v%d", v)));
    planted[vars.back()->sym_id] = rng.Next32();
  }
  std::vector<symex::ExprRef> constraints;
  for (int c = 0; c < 12; ++c) {
    const symex::ExprRef& var = vars[rng.Below(static_cast<uint32_t>(vars.size()))];
    uint32_t value = planted[var->sym_id];
    switch (rng.Below(5)) {
      case 0:
        constraints.push_back(ctx.Eq(var, ctx.Const(value)));
        break;
      case 1: {
        uint32_t mask = rng.Next32();
        constraints.push_back(
            ctx.Eq(ctx.And(var, ctx.Const(mask)), ctx.Const(value & mask)));
        break;
      }
      case 2:
        if (value != 0xFFFFFFFFu) {
          constraints.push_back(
              ctx.Bin(symex::BinOp::kUle, var, ctx.Const(value + rng.Below(1000))));
        }
        break;
      case 3:
        constraints.push_back(ctx.Bin(symex::BinOp::kNe, var,
                                      ctx.Const(value ^ (1u + rng.Below(0xFFFF)))));
        break;
      default: {
        uint32_t delta = rng.Below(1000);
        constraints.push_back(ctx.Eq(ctx.Add(var, ctx.Const(delta)),
                                     ctx.Const(value + delta)));
        break;
      }
    }
  }
  symex::Model model;
  ASSERT_EQ(solver.CheckSat(constraints, &model), symex::Verdict::kSat)
      << "seed " << GetParam();
  for (const symex::ExprRef& c : constraints) {
    EXPECT_EQ(Eval(c, model), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverCompleteness, ::testing::Range<uint64_t>(1, 31));

// ---- "RSS1" / "RCP1" malformed-blob sweeps ----

// One small exercised session, shared by the sweeps (exercising is the
// expensive part; corruption is cheap).
const core::Session& TinySession() {
  static core::Session* session = [] {
    core::EngineConfig cfg;
    cfg.pci = drivers::DriverPci(drivers::DriverId::kRtl8029);
    cfg.max_work = 6'000;
    cfg.max_work_per_step = 1'500;
    auto* s = new core::Session(drivers::DriverImage(drivers::DriverId::kRtl8029), cfg);
    EXPECT_TRUE(s->Exercise());
    return s;
  }();
  return *session;
}

// Attempts a full symex-level parse of an (possibly corrupt) "RSS1" blob.
// Returns false when any stage rejected it. Must never crash.
bool TryParseSnapshot(const std::vector<uint8_t>& bytes) {
  symex::ExprContext ctx;
  symex::SnapshotReader reader;
  std::string error;
  if (!reader.Init(bytes, &ctx, &error)) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  vm::MemoryMap blank(1 << 20);
  std::unique_ptr<symex::ExecutionState> state;
  symex::StatePool pool;
  symex::Solver solver;
  return symex::ReadStateSections(reader, &ctx, &blank, &state, &error) &&
         symex::ReadSchedulerSection(reader, &pool, &error) &&
         symex::ReadSolverSection(reader, &solver, &error);
}

TEST(SnapshotRobustness, TruncatedSnapshotsRejected) {
  const std::vector<uint8_t>& blob = TinySession().engine().final_snapshot;
  ASSERT_FALSE(blob.empty());
  ASSERT_TRUE(TryParseSnapshot(blob));
  // Every strict prefix must be rejected (the format ends with an exact
  // trailing-bytes check, so a cut can never look complete).
  for (size_t denom = 1; denom <= 257; denom += 8) {
    size_t len = blob.size() * denom / 258;
    EXPECT_FALSE(TryParseSnapshot({blob.begin(), blob.begin() + len})) << "len " << len;
  }
  EXPECT_FALSE(TryParseSnapshot({}));
}

class SnapshotFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotFuzzTest, BitFlippedSnapshotsParseOrFailCleanly) {
  std::vector<uint8_t> blob = TinySession().engine().final_snapshot;
  ASSERT_FALSE(blob.empty());
  Rng rng(GetParam() * 7907);
  // A flipped bit may still parse (e.g. inside a page payload or a counter);
  // the contract is "clean verdict, no UB", which ASan/UBSan enforce here.
  for (int m = 0; m < 64; ++m) {
    std::vector<uint8_t> corrupt = blob;
    corrupt[rng.Below(static_cast<uint32_t>(corrupt.size()))] ^=
        static_cast<uint8_t>(1u << rng.Below(8));
    (void)TryParseSnapshot(corrupt);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzzTest, ::testing::Range<uint64_t>(1, 9));

TEST(SnapshotRobustness, ZeroLengthSectionsParseCleanly) {
  // A zero-length section payload materializes as (nullptr, 0) from
  // vector::data(); the byte readers must not hand that to memcpy (UB).
  // Hand-build a minimal header-only blob with one empty section.
  trace::ByteWriter w;
  w.U32(symex::kSnapshotMagic);
  w.U32(symex::kSnapshotVersion);
  w.U32(0);  // no syms
  w.U32(0);  // no nodes
  w.U32(1);  // one section
  w.U32(symex::kSectionScheduler);
  w.U32(0);  // zero-length payload
  std::vector<uint8_t> blob = w.Take();
  symex::ExprContext ctx;
  symex::SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Init(blob, &ctx, &error)) << error;
  // The truncated (empty) scheduler payload is then rejected cleanly.
  symex::StatePool pool;
  EXPECT_FALSE(symex::ReadSchedulerSection(reader, &pool, &error));
  EXPECT_FALSE(error.empty());
}

TEST(SnapshotRobustness, WrongMagicAndVersionRejected) {
  std::vector<uint8_t> blob = TinySession().engine().final_snapshot;
  ASSERT_GE(blob.size(), 8u);
  std::vector<uint8_t> bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(TryParseSnapshot(bad_magic));
  std::vector<uint8_t> bad_version = blob;
  bad_version[4] += 1;
  EXPECT_FALSE(TryParseSnapshot(bad_version));
}

TEST(CheckpointRobustness, TruncatedCheckpointsRejected) {
  std::vector<uint8_t> blob = TinySession().SaveCheckpoint();
  ASSERT_FALSE(blob.empty());
  std::string error;
  for (size_t denom = 1; denom <= 257; denom += 8) {
    size_t len = blob.size() * denom / 258;
    std::vector<uint8_t> cut(blob.begin(), blob.begin() + len);
    EXPECT_EQ(core::Session::LoadCheckpoint(cut, &error), nullptr) << "len " << len;
    EXPECT_FALSE(error.empty());
  }
}

class CheckpointFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CheckpointFuzzTest, BitFlippedCheckpointsLoadOrFailCleanly) {
  std::vector<uint8_t> blob = TinySession().SaveCheckpoint();
  Rng rng(GetParam() * 104723);
  for (int m = 0; m < 64; ++m) {
    std::vector<uint8_t> corrupt = blob;
    corrupt[rng.Below(static_cast<uint32_t>(corrupt.size()))] ^=
        static_cast<uint8_t>(1u << rng.Below(8));
    std::string error;
    std::unique_ptr<core::Session> s = core::Session::LoadCheckpoint(corrupt, &error);
    if (s == nullptr) {
      EXPECT_FALSE(error.empty());
    } else {
      // A surviving blob must still round-trip through the writer.
      EXPECT_FALSE(s->SaveCheckpoint().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointFuzzTest, ::testing::Range<uint64_t>(1, 9));

TEST(CheckpointRobustness, WrongVersionRejected) {
  std::vector<uint8_t> blob = TinySession().SaveCheckpoint();
  ASSERT_GE(blob.size(), 8u);
  blob[4] = 99;  // unknown version (readers accept 1 through 3)
  std::string error;
  EXPECT_EQ(core::Session::LoadCheckpoint(blob, &error), nullptr);
  EXPECT_EQ(error, "unsupported checkpoint version");
}

// ---- "RDP1" wire-frame corruption sweeps ----

std::vector<uint8_t> Rdp1Frame() {
  std::vector<uint8_t> payload(300);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 37);
  }
  return dist::EncodeFrame(dist::FrameType::kWork, payload);
}

dist::DecodeStatus TryDecodeFrame(const std::vector<uint8_t>& bytes) {
  dist::Frame frame;
  size_t consumed = 0;
  std::string error;
  dist::DecodeStatus status =
      dist::DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, &error);
  if (status == dist::DecodeStatus::kBad) {
    EXPECT_FALSE(error.empty());
  }
  return status;
}

TEST(Rdp1Robustness, TruncatedFramesNeverDecode) {
  std::vector<uint8_t> frame = Rdp1Frame();
  ASSERT_EQ(TryDecodeFrame(frame), dist::DecodeStatus::kOk);
  // Every strict prefix is incomplete (kNeedMore: the coordinator keeps
  // reading) or detectably corrupt (kBad) -- never kOk, never a crash.
  for (size_t denom = 1; denom <= 257; denom += 4) {
    size_t len = frame.size() * denom / 258;
    EXPECT_NE(TryDecodeFrame({frame.begin(), frame.begin() + len}),
              dist::DecodeStatus::kOk)
        << "len " << len;
  }
  EXPECT_EQ(TryDecodeFrame({}), dist::DecodeStatus::kNeedMore);
}

class Rdp1FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Rdp1FuzzTest, BitFlippedFramesNeverDecode) {
  std::vector<uint8_t> frame = Rdp1Frame();
  Rng rng(GetParam() * 48611);
  // The trailing FNV-1a checksum covers header + payload, so ANY single-bit
  // flip must be caught: a payload/checksum flip mismatches the checksum, a
  // header flip fails the magic/version/type check or (for a longer length)
  // leaves the frame incomplete. Never kOk.
  for (int m = 0; m < 64; ++m) {
    std::vector<uint8_t> corrupt = frame;
    corrupt[rng.Below(static_cast<uint32_t>(corrupt.size()))] ^=
        static_cast<uint8_t>(1u << rng.Below(8));
    EXPECT_NE(TryDecodeFrame(corrupt), dist::DecodeStatus::kOk);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Rdp1FuzzTest, ::testing::Range<uint64_t>(1, 9));

TEST(Rdp1Robustness, WrongMagicVersionTypeAndOversizedLengthRejected) {
  // Frame layout: u32 magic, u16 version, u16 type, u64 payload length.
  std::vector<uint8_t> bad_magic = Rdp1Frame();
  bad_magic[0] ^= 0xFF;
  // A bad magic is rejected even from a short prefix (a desynced stream
  // fails fast instead of waiting forever for "more" bytes).
  EXPECT_EQ(TryDecodeFrame({bad_magic.begin(), bad_magic.begin() + 5}),
            dist::DecodeStatus::kBad);
  EXPECT_EQ(TryDecodeFrame(bad_magic), dist::DecodeStatus::kBad);

  std::vector<uint8_t> bad_version = Rdp1Frame();
  bad_version[4] += 1;
  EXPECT_EQ(TryDecodeFrame(bad_version), dist::DecodeStatus::kBad);

  std::vector<uint8_t> bad_type = Rdp1Frame();
  bad_type[6] = 0x77;
  EXPECT_EQ(TryDecodeFrame(bad_type), dist::DecodeStatus::kBad);

  // An oversized length prefix must be rejected up front (kBad), not
  // treated as kNeedMore -- a malicious or corrupt peer must not make the
  // coordinator buffer gigabytes.
  std::vector<uint8_t> oversized = Rdp1Frame();
  oversized[8] = 0xFF;
  oversized[9] = 0xFF;
  oversized[10] = 0xFF;
  oversized[11] = 0xFF;
  oversized[12] = 0xFF;
  EXPECT_EQ(TryDecodeFrame(oversized), dist::DecodeStatus::kBad);
}

TEST(Rdp1Robustness, FanoutPayloadsTruncateCleanly) {
  // The fanout work/result payload decoders sit behind the frame checksum
  // but must still reject truncation on their own (a handler bug or a
  // mixed-up payload must not read out of bounds).
  std::vector<uint8_t> work;
  core::SerializeFanoutWorkInto(0, {3, 1, 4}, "", std::vector<uint8_t>(64, 0xAB), &work);
  for (size_t len = 0; len < work.size(); len += 3) {
    uint32_t job;
    core::FanoutTask task;
    std::string key;
    std::vector<uint8_t> snapshot;
    std::string error;
    EXPECT_FALSE(core::DeserializeFanoutWork({work.begin(), work.begin() + len}, &job, &task,
                                             &key, &snapshot, &error))
        << "len " << len;
    EXPECT_FALSE(error.empty());
  }
  core::FanoutTaskResult result;
  result.root_count = 2;
  result.slots.resize(2);
  result.slots[1].ordinal = 1;
  std::vector<uint8_t> reply = core::SerializeFanoutResult(result);
  for (size_t len = 0; len < reply.size(); len += 3) {
    core::FanoutTaskResult out;
    std::string error;
    EXPECT_FALSE(
        core::DeserializeFanoutResult({reply.begin(), reply.begin() + len}, &out, &error))
        << "len " << len;
    EXPECT_FALSE(error.empty());
  }
}

// ---- Fault-plan spec parsing: hostile input fails cleanly ----

TEST(FaultSpecRobustness, GarbageSpecsRejectedWithoutSideEffects) {
  const char* kGarbage[] = {
      "",                    // empty
      ":",                   // no seed, no entries
      "abc",                 // no colon
      "12",                  // no colon
      "12:",                 // no entries
      ":irq-drop=0.1",       // empty seed
      "zz:irq-drop=0.1",     // non-numeric seed
      "12z:irq-drop=0.1",    // trailing junk on the seed
      "12:foo=0.1",          // unknown kind
      "12:irq-drop",         // no '='
      "12:irq-drop=",        // empty rate
      "12:irq-drop=x",       // non-numeric rate
      "12:irq-drop=0.1x",    // trailing junk on the rate
      "12:irq-drop=-1",      // below [0, 1]
      "12:irq-drop=2.0",     // above [0, 1]
      "12:irq-drop=nan",     // NaN is not a rate
      "12:irq-drop=0.1,,",   // empty entry
      "12:,irq-drop=0.1",    // leading empty entry
      "12:=0.5",             // empty kind
  };
  for (const char* spec : kGarbage) {
    // Pre-seed the plan with a sentinel: a failed parse must leave it alone.
    hw::FaultPlan plan;
    plan.seed = 555;
    plan.set_rate(hw::FaultKind::kBusError, 0.5);
    std::string error;
    EXPECT_FALSE(hw::ParseFaultPlan(spec, &plan, &error)) << "'" << spec << "'";
    EXPECT_FALSE(error.empty()) << "'" << spec << "'";
    EXPECT_EQ(plan.seed, 555u) << "'" << spec << "'";
    EXPECT_DOUBLE_EQ(plan.rate(hw::FaultKind::kBusError), 0.5) << "'" << spec << "'";
    // A null error sink must also be safe (CLI callers always pass one, the
    // engine's internal callers may not).
    EXPECT_FALSE(hw::ParseFaultPlan(spec, &plan, nullptr)) << "'" << spec << "'";
  }
  // Hex seeds ride on strtoull base-0 and are legal, not garbage.
  hw::FaultPlan plan;
  std::string error;
  EXPECT_TRUE(hw::ParseFaultPlan("0x10:irq-drop=0.5", &plan, &error)) << error;
  EXPECT_EQ(plan.seed, 0x10u);
}

// ---- Engine resilience ----

TEST(EngineRobustness, DriverForWrongDeviceFailsGracefully) {
  // Present the rtl8029 driver with the rtl8139's PCI identity: its id check
  // must take the failure path; the engine completes without crashing.
  core::EngineConfig cfg;
  cfg.pci = hw::Rtl8139Config();  // wrong device for this driver
  cfg.max_work = 20'000;
  core::EngineResult r =
      core::Engine(drivers::DriverImage(drivers::DriverId::kRtl8029), cfg).Run();
  // DriverEntry + the failing init path still produce coverage.
  EXPECT_GT(r.covered_blocks.size(), 0u);
  // The vendor-check failure path logs an error (unless skipped, it is the
  // default skip-listed API -- so check the path itself was covered).
  EXPECT_GE(r.stats.entry_completions, 1u);
}

TEST(EngineRobustness, GarbageImageDoesNotCrashEngine) {
  isa::Image garbage;
  garbage.link_base = 0x400000;
  garbage.entry = 0x400000;
  garbage.code.assign(64 * isa::kInstrBytes, 0xEE);  // invalid opcodes
  core::EngineConfig cfg;
  cfg.pci = hw::Rtl8029Config();
  cfg.max_work = 1'000;
  core::EngineResult r = core::Engine(garbage, cfg).Run();
  EXPECT_EQ(r.covered_blocks.size(), 0u);
}

TEST(EngineRobustness, ZeroWorkBudget) {
  core::EngineConfig cfg;
  cfg.pci = hw::Rtl8029Config();
  cfg.max_work = 0;
  core::EngineResult r =
      core::Engine(drivers::DriverImage(drivers::DriverId::kRtl8029), cfg).Run();
  EXPECT_EQ(r.stats.work, 0u);
}

}  // namespace
}  // namespace revnic
