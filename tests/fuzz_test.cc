// Tests for the differential fuzzer: seed-stream decoding, program-decoder
// totality and write policy, coverage accounting, harness oracles on known
// seeds, minimizer rounds against the one-at-a-time loop, engine
// determinism across thread counts, and seed-file round-trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/digest.h"
#include "src/base/rng.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/harness.h"
#include "src/fuzz/program.h"
#include "src/fuzz/seed_stream.h"
#include "src/obs/coverage.h"

namespace neve::fuzz {
namespace {

// --- SeedStream --------------------------------------------------------------

TEST(SeedStreamTest, ReadsBytesThenZeroFills) {
  std::vector<uint8_t> bytes = {0x11, 0x22};
  SeedStream s(bytes);
  EXPECT_EQ(s.U8(), 0x11);
  EXPECT_EQ(s.U8(), 0x22);
  EXPECT_TRUE(s.exhausted());
  EXPECT_EQ(s.U8(), 0);  // dry stream reads as zero, stays exhausted
  EXPECT_TRUE(s.exhausted());
  EXPECT_EQ(s.consumed(), 2u);
}

TEST(SeedStreamTest, MultiByteDrawsAreLittleEndian) {
  std::vector<uint8_t> bytes = {0x01, 0x02, 0x03, 0x04, 0x05,
                                0x06, 0x07, 0x08, 0x09, 0x0a};
  SeedStream s(bytes);
  EXPECT_EQ(s.U16(), 0x0201u);
  EXPECT_EQ(s.U64(), 0x0a09080706050403ull);
}

TEST(SeedStreamTest, U64AcrossExhaustionZeroFillsHighBytes) {
  std::vector<uint8_t> bytes = {0xff, 0xee};
  SeedStream s(bytes);
  EXPECT_EQ(s.U64(), 0xeeffull);
}

// --- program decoding --------------------------------------------------------

TEST(ProgramTest, EmptyInputDecodesToEmptyProgram) {
  Program p = DecodeProgram({});
  EXPECT_TRUE(p.ops.empty());
  EXPECT_FALSE(p.cfg.fault);
}

TEST(ProgramTest, DecoderIsTotalAndBounded) {
  // Any byte string must decode to a valid program: every op carries a
  // real encoding where one is required, writes respect the deny-list, and
  // the op count stays within kMaxOps.
  Rng rng(0x70741);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes(rng.NextBelow(300));
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(rng.Next());
    }
    Program p = DecodeProgram(bytes);
    EXPECT_LE(p.ops.size(), static_cast<size_t>(kMaxOps));
    for (const FuzzOp& op : p.ops) {
      if (op.kind == OpKind::kSysRead || op.kind == OpKind::kSysWrite) {
        EXPECT_LT(static_cast<int>(op.enc),
                  static_cast<int>(SysReg::kNumSysRegs));
      }
      if (op.kind == OpKind::kSysWrite) {
        EXPECT_TRUE(WriteAllowed(op.enc))
            << "decoder emitted a denied write: "
            << SysRegName(op.enc);
      }
    }
  }
}

TEST(ProgramTest, DecodingIsDeterministic) {
  Rng rng(0xdec0de);
  std::vector<uint8_t> bytes(64);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  Program a = DecodeProgram(bytes);
  Program b = DecodeProgram(bytes);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
    EXPECT_EQ(a.ops[i].enc, b.ops[i].enc);
    EXPECT_EQ(a.ops[i].value, b.ops[i].value);
    EXPECT_EQ(a.ops[i].addr, b.ops[i].addr);
    EXPECT_EQ(a.ops[i].imm, b.ops[i].imm);
  }
}

TEST(ProgramTest, HeaderBitsSelectTheCaseConfig) {
  // Header bit 4 arms SMP mode: a second vCPU rides along as a parked
  // receiver and kSgi fans out cross-vCPU. Orthogonal to nested/vhe bits.
  EXPECT_FALSE(DecodeProgram({0x00}).cfg.smp);
  EXPECT_TRUE(DecodeProgram({0x10}).cfg.smp);
  Program p = DecodeProgram({0x13});
  EXPECT_TRUE(p.cfg.smp);
  EXPECT_TRUE(p.cfg.nested);
  EXPECT_TRUE(p.cfg.guest_vhe);
  EXPECT_FALSE(p.cfg.fault);
}

TEST(ProgramTest, SnapRestoreBitDecodesOnlyForNestedNonSmpNonFault) {
  // Header bit 5 arms the checkpoint/restore dimension, but only where the
  // snapshot layer can target the stack: mode B, single vCPU, no fault
  // injection. Elsewhere the bit is inert (and consumes no split byte).
  Program armed = DecodeProgram({0x21, 0x07, 14, 2, 5});
  EXPECT_TRUE(armed.cfg.snap_restore);
  EXPECT_EQ(armed.cfg.snap_at, 0x07);
  EXPECT_FALSE(DecodeProgram({0x20}).cfg.snap_restore);  // not nested
  EXPECT_FALSE(DecodeProgram({0x31}).cfg.snap_restore);  // SMP
  EXPECT_FALSE(DecodeProgram({0x25}).cfg.snap_restore);  // fault armed
  // When inert, the byte after the header is an op selector, not a cursor.
  Program inert = DecodeProgram({0x20, 0x07});
  ASSERT_EQ(inert.ops.size(), 1u);
  EXPECT_EQ(inert.cfg.snap_at, 0);
}

TEST(ProgramTest, BatchBitDecodesForNonFaultCases) {
  // Header bit 6 arms the batched-execution dimension: the case runs each
  // architecture once more with the superblock engine enabled, under the
  // full-identity oracle. Inert when fault injection is armed (the engine
  // falls back per-op wholesale there, so the pair would compare the
  // interpreter against itself).
  EXPECT_TRUE(DecodeProgram({0x40}).cfg.batch);
  EXPECT_TRUE(DecodeProgram({0x41}).cfg.batch);   // nested too
  EXPECT_TRUE(DecodeProgram({0x50}).cfg.batch);   // SMP too
  EXPECT_FALSE(DecodeProgram({0x00}).cfg.batch);  // bit clear
  EXPECT_FALSE(DecodeProgram({0x44}).cfg.batch);  // fault armed
}

TEST(ProgramTest, WritePolicyKeepsTheStackRunnable) {
  // Stage-1 must stay off (guests premap their address spaces), VNCR must
  // not move out from under the host, HCR only flips through the masked op,
  // and timer CTL writes must not arm async interrupts mid-oracle.
  EXPECT_FALSE(WriteAllowed(SysReg::kSCTLR_EL1));
  EXPECT_FALSE(WriteAllowed(SysReg::kVNCR_EL2));
  EXPECT_FALSE(WriteAllowed(SysReg::kHCR_EL2));
  EXPECT_FALSE(WriteAllowed(SysReg::kCNTV_CTL_EL0));
  // Plain state registers stay writable -- the fuzzer's value round-trip
  // oracle depends on them.
  EXPECT_TRUE(WriteAllowed(SysReg::kTPIDR_EL1));
  EXPECT_TRUE(WriteAllowed(SysReg::kVBAR_EL2));
}

TEST(ProgramTest, EncodingPoolsPartitionTheSpace) {
  EXPECT_FALSE(El2EncodingPool().empty());
  EXPECT_FALSE(El1EncodingPool().empty());
  EXPECT_FALSE(AliasEncodingPool().empty());
  EXPECT_EQ(AllEncodingPool().size(), static_cast<size_t>(SysReg::kNumSysRegs));
  EXPECT_EQ(El2EncodingPool().size() + El1EncodingPool().size() +
                AliasEncodingPool().size(),
            AllEncodingPool().size());
}

// --- coverage bitmap ---------------------------------------------------------

TEST(CoverageTest, SetReportsNewBitsOnce) {
  CoverageBitmap map;
  EXPECT_TRUE(map.Set(42));
  EXPECT_FALSE(map.Set(42));
  EXPECT_TRUE(map.Test(42));
  EXPECT_EQ(map.bits_set(), 1u);
}

TEST(CoverageTest, CountNewDoesNotMutate) {
  CoverageBitmap map;
  std::vector<uint64_t> features = {1, 2, 3, 3};
  size_t fresh = map.CountNew(features);
  EXPECT_GE(fresh, 1u);
  EXPECT_LE(fresh, 3u);  // duplicate feature counts once
  EXPECT_EQ(map.bits_set(), 0u);
  EXPECT_EQ(map.Merge(features), fresh);
  EXPECT_EQ(map.CountNew(features), 0u);
}

TEST(CoverageTest, CountBucketsSeparateOrdersOfMagnitude) {
  EXPECT_EQ(CoverageCountBucket(0), 0u);
  EXPECT_EQ(CoverageCountBucket(1), 1u);
  EXPECT_NE(CoverageCountBucket(1), CoverageCountBucket(2));
  EXPECT_EQ(CoverageCountBucket(1000), CoverageCountBucket(1023));
  EXPECT_NE(CoverageCountBucket(1000), CoverageCountBucket(1024));
}

// --- harness on known seeds --------------------------------------------------

TEST(HarnessTest, EmptyProgramPassesAllOracles) {
  CaseResult r = RunCase({});
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.execs, 4u);  // {v8.3, NEVE} x {cache on, off}
  EXPECT_FALSE(r.features.empty());
}

TEST(HarnessTest, SmpCaseFansOutToTheParkedReceiver) {
  // Mode A SMP (header 0x10), three SGI ops (selector 14, sub-selector >= 2,
  // SGI id): each fans out to vCPU 0 (self) and the parked receiver on
  // vCPU 1. Every oracle must hold, and the receiver must have seen the
  // cross-vCPU deliveries in both architectures (the arch digest would
  // diverge otherwise -- checked here directly for a readable failure).
  std::vector<uint8_t> bytes = {0x10, 14, 2, 5, 14, 3, 7, 14, 2, 1};
  CaseResult r = RunCase(bytes);
  EXPECT_TRUE(r.ok) << r.failure;
  Program p = DecodeProgram(bytes);
  ASSERT_TRUE(p.cfg.smp);
  RunResult v83 = RunProgramVariant(p, VariantSpec{.neve = false});
  RunResult nv = RunProgramVariant(p, VariantSpec{.neve = true});
  EXPECT_EQ(v83.receiver_irqs, 3u);
  EXPECT_EQ(nv.receiver_irqs, 3u);
}

TEST(HarnessTest, NestedSmpCasePassesAllOracles) {
  // Mode B SMP (header 0x11): the fan-out SGI multiplies through the guest
  // hypervisor's trapped injection path on both vCPUs.
  CaseResult r = RunCase({0x11, 14, 2, 4, 14, 3, 2});
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.execs, 4u);
}

TEST(HarnessTest, RunResultsAreReproducible) {
  std::vector<uint8_t> bytes = {0xca, 0x49, 0xd3, 0x40, 0x71};
  Program p = DecodeProgram(bytes);
  RunResult a = RunProgramVariant(p, VariantSpec{.neve = true});
  RunResult b = RunProgramVariant(p, VariantSpec{.neve = true});
  EXPECT_EQ(a.full_digest, b.full_digest);
  EXPECT_EQ(a.arch_digest, b.arch_digest);
  EXPECT_EQ(a.end_cycles, b.end_cycles);
  EXPECT_EQ(a.traps, b.traps);
}

TEST(HarnessTest, CacheSettingNeverChangesTheFullDigest) {
  Rng rng(0x5eed);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<uint8_t> bytes(16 + rng.NextBelow(48));
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(rng.Next());
    }
    CaseResult r = RunCase(bytes);
    EXPECT_TRUE(r.ok) << "trial " << trial << ": " << r.failure;
  }
}

TEST(HarnessTest, BatchedRunReproducesTheInterpretedRun) {
  // The payload of tests/corpus/cov-batch00.seed: a mode-A virtual-EL2
  // program whose CurrentEL/barrier/compute bursts the superblock engine
  // batches, with El2-pool sysreg accesses and an HCR flip mid-stream (a
  // formed block must be invalidated by the generation bump). The batched
  // pair must be byte-identical to the interpreted run.
  std::vector<uint8_t> bytes = {0x40, 0x0f, 0x00, 0x0f, 0x02, 0x0f, 0x04,
                                0x07, 0x0f, 0x01, 0x0f, 0x03, 0x0f, 0x00,
                                0x0f, 0x04, 0x0f, 0x0f, 0x02, 0x00, 0x00,
                                0x05, 0x00, 0x00, 0x00, 0x09, 0x00, 0x05,
                                0x00, 0x0c, 0x00, 0x03, 0x0a, 0x09, 0x0f,
                                0x00, 0x0f, 0x02, 0x0f, 0x04, 0x07, 0x0f,
                                0x01};
  Program p = DecodeProgram(bytes);
  ASSERT_TRUE(p.cfg.batch);
  ASSERT_FALSE(p.cfg.nested);
  ASSERT_EQ(p.ops.size(), 16u);

  CaseResult r = RunCase(bytes);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.execs, 6u);  // 4-variant matrix + one batched run per arch

  RunResult interp = RunProgramVariant(p, VariantSpec{.neve = true});
  RunResult batched =
      RunProgramVariant(p, VariantSpec{.neve = true, .batch = true});
  EXPECT_EQ(interp.full_digest, batched.full_digest);
  EXPECT_EQ(interp.arch_digest, batched.arch_digest);
  EXPECT_EQ(interp.end_cycles, batched.end_cycles);
  EXPECT_EQ(interp.traps, batched.traps);
  EXPECT_EQ(interp.ops_executed, batched.ops_executed);
}

TEST(HarnessTest, BatchedNestedRunReproducesTheInterpretedRun) {
  // The payload of tests/corpus/cov-batch01.seed: mode B, batchable bursts
  // plus El1-pool reads under the full nested stack.
  std::vector<uint8_t> bytes = {0x41, 0x0f, 0x00, 0x0f, 0x02, 0x0f, 0x04,
                                0x07, 0x00, 0x70, 0x03, 0x00, 0x00, 0x70,
                                0x07, 0x00, 0x0f, 0x00, 0x0f, 0x04, 0x0f,
                                0x0f, 0x02, 0x0f, 0x01, 0x0f, 0x00, 0x0f,
                                0x02, 0x0f, 0x04, 0x07};
  Program p = DecodeProgram(bytes);
  ASSERT_TRUE(p.cfg.batch);
  ASSERT_TRUE(p.cfg.nested);

  CaseResult r = RunCase(bytes);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.execs, 6u);
}

TEST(HarnessTest, SnapRestoreSplitReproducesTheUninterruptedRun) {
  // Header 0x21 arms nested + checkpoint/restore, split cursor 2: store
  // 0x5A..5A to guest RAM, hvc, -- checkpoint / fresh stack / restore --
  // load it back, read CurrentEl. The load after the restore boundary can
  // only produce the right digest if the snapshot carried the dirtied RAM
  // page (and cycles, trap counts, vGIC state) bit-exactly.
  std::vector<uint8_t> bytes = {0x21, 0x02, 13,   1, 0x10, 0x00, 0x00,
                                0x40, 3,    11,   0x10, 13,  0,   0x10,
                                0x00, 0x00, 0x40, 3,    15,  0};
  Program p = DecodeProgram(bytes);
  ASSERT_TRUE(p.cfg.snap_restore);
  ASSERT_EQ(p.ops.size(), 4u);
  ASSERT_EQ(p.ops[0].kind, OpKind::kMemStore);
  ASSERT_EQ(p.ops[2].kind, OpKind::kMemLoad);
  ASSERT_EQ(p.ops[0].addr, p.ops[2].addr);

  CaseResult r = RunCase(bytes);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.execs, 6u);  // 4-variant matrix + one split pair per arch

  RunResult base = RunProgramVariant(p, VariantSpec{.neve = true});
  RunResult split =
      RunProgramVariant(p, VariantSpec{.neve = true, .snap_restore = true});
  EXPECT_EQ(base.full_digest, split.full_digest);
  EXPECT_EQ(base.arch_digest, split.arch_digest);
  EXPECT_EQ(base.end_cycles, split.end_cycles);
  EXPECT_EQ(base.traps, split.traps);
  EXPECT_EQ(base.ops_executed, split.ops_executed);
}

TEST(HarnessTest, SnapRestoreSurvivesEverySplitPoint) {
  // The split cursor maps onto every op boundary, 0 (restore-at-entry)
  // through N (checkpoint-after-last-op) included; identity must hold at
  // all of them, SGIs and device MMIO in flight.
  std::vector<uint8_t> base_bytes = {0x21, 0x00, 14, 2, 5,    11, 0x10,
                                     13,   1,    9,  0, 0x00, 0x40, 3,
                                     14,   0,    8,  0, 15,   0};
  for (uint8_t cursor = 0; cursor <= 5; ++cursor) {
    std::vector<uint8_t> bytes = base_bytes;
    bytes[1] = cursor;
    Program p = DecodeProgram(bytes);
    ASSERT_TRUE(p.cfg.snap_restore);
    RunResult base = RunProgramVariant(p, VariantSpec{.neve = true});
    RunResult split =
        RunProgramVariant(p, VariantSpec{.neve = true, .snap_restore = true});
    EXPECT_EQ(base.full_digest, split.full_digest)
        << "split cursor " << static_cast<int>(cursor);
    EXPECT_EQ(base.end_cycles, split.end_cycles)
        << "split cursor " << static_cast<int>(cursor);
  }
}

// The vel2-golden aliasing regression (found by the fuzzer): at virtual EL2
// with virtual E2H set, CPACR_EL12 targets the *VM's* EL1 context while
// CPACR_EL1 targets the guest hypervisor's own live register. Both share the
// backing storage RegId, so a shadow model keyed by raw storage conflates
// them; the oracle must key by resolved destination. See tests/corpus/.
TEST(HarnessTest, Vel2GoldenDistinguishesEl12AliasFromEl1Direct) {
  std::vector<uint8_t> bytes = {0xca, 0x49, 0xd3, 0x40, 0x71, 0x3f, 0x24,
                                0x5d, 0xe3, 0xe7, 0xb2, 0xa8, 0xae, 0xb5};
  CaseResult r = RunCase(bytes);
  EXPECT_TRUE(r.ok) << r.failure;
}

TEST(HarnessTest, RunCaseIsIdenticalAcrossThreadCounts) {
  // Fanning a case's stack variants out across threads must not change its
  // verdict, exec count or features. The checked-in corpus spans every case
  // shape: fault pairs, batch and snapshot-split pairs, and SMP receivers.
  std::vector<std::filesystem::path> seeds;
  for (const auto& e : std::filesystem::directory_iterator(
           std::string(NEVE_SOURCE_DIR) + "/tests/corpus")) {
    if (e.path().extension() == ".seed") {
      seeds.push_back(e.path());
    }
  }
  std::sort(seeds.begin(), seeds.end());
  bool fault = false, batch = false, snap = false, smp = false;
  for (const std::filesystem::path& path : seeds) {
    std::optional<std::vector<uint8_t>> bytes = LoadSeedFile(path.string());
    ASSERT_TRUE(bytes.has_value()) << path;
    CaseConfig cfg = DecodeProgram(*bytes).cfg;
    fault |= cfg.fault;
    batch |= cfg.batch;
    snap |= cfg.snap_restore;
    smp |= cfg.smp;
    CaseResult serial = RunCase(*bytes, 1);
    CaseResult fanned = RunCase(*bytes, 4);
    EXPECT_EQ(serial.ok, fanned.ok) << path;
    EXPECT_EQ(serial.failure, fanned.failure) << path;
    EXPECT_EQ(serial.execs, fanned.execs) << path;
    EXPECT_EQ(serial.features, fanned.features) << path;
  }
  EXPECT_TRUE(fault && batch && snap && smp)
      << "tests/corpus no longer covers every case shape";
}

// --- minimizer rounds --------------------------------------------------------

using Bytes = std::vector<uint8_t>;

// A stand-in for RunCases. A candidate passes when `pred` accepts its bytes,
// costs 2 + (size mod 5) execs, so a miscounted run shows in the total, and
// reports its bytes as features, so the last kept result is recognisable.
// Every round it is handed is logged.
struct FakeRunner {
  std::function<bool(const Bytes&)> pred;
  std::vector<std::vector<Bytes>> rounds;

  std::vector<CaseResult> operator()(const std::vector<Bytes>& cands) {
    rounds.push_back(cands);
    std::vector<CaseResult> out;
    for (const Bytes& c : cands) {
      CaseResult& r = out.emplace_back();
      r.ok = pred(c);
      r.execs = 2 + c.size() % 5;
      r.features.assign(c.begin(), c.end());
    }
    return out;
  }
};

struct ShrinkOutcome {
  Bytes bytes;
  uint64_t execs = 0;
  uint64_t budget_used = 0;
  CaseResult last_kept;
  std::vector<std::vector<Bytes>> rounds;  // what the fake ran
};

ShrinkOutcome ShrinkWithFake(const Bytes& input,
                             const std::function<bool(const Bytes&)>& pred,
                             uint64_t budget, size_t per_round) {
  FakeRunner fake{pred, {}};
  ShrinkOutcome o;
  uint64_t left = budget;
  o.bytes = Shrink(
      input, [](const CaseResult& r) { return r.ok; }, per_round,
      [&](const std::vector<Bytes>& cands) { return fake(cands); }, &left,
      &o.execs, &o.last_kept);
  o.budget_used = budget - left;
  o.rounds = std::move(fake.rounds);
  return o;
}

Bytes Iota(size_t n) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>(i);
  }
  return b;
}

bool Has(const Bytes& b, uint8_t v) {
  return std::find(b.begin(), b.end(), v) != b.end();
}

TEST(ShrinkTest, TwoCandidateRoundsMatchTheOneAtATimeLoop) {
  struct Scenario {
    const char* name;
    Bytes input;
    std::function<bool(const Bytes&)> pred;
  };
  const std::vector<Scenario> scenarios = {
      {"one marker", Iota(16), [](const Bytes& b) { return Has(b, 5); }},
      {"two markers", Iota(16),
       [](const Bytes& b) { return Has(b, 3) && Has(b, 12); }},
      {"odd length, three markers", Iota(23),
       [](const Bytes& b) { return Has(b, 0) && Has(b, 9) && Has(b, 22); }},
      {"long enough", Iota(13), [](const Bytes& b) { return b.size() >= 5; }},
      {"nothing kept", Iota(10), [](const Bytes&) { return false; }},
  };
  bool kept_first = false, kept_second = false, chunk_change = false;
  bool budget_mid_round = false, one_byte = false, discarded = false;
  for (const Scenario& sc : scenarios) {
    for (uint64_t budget = 0; budget <= 40; ++budget) {
      SCOPED_TRACE(std::string(sc.name) + ", budget " +
                   std::to_string(budget));
      ShrinkOutcome one = ShrinkWithFake(sc.input, sc.pred, budget, 1);
      ShrinkOutcome two = ShrinkWithFake(sc.input, sc.pred, budget, 2);
      EXPECT_EQ(two.bytes, one.bytes);
      EXPECT_EQ(two.execs, one.execs);
      EXPECT_EQ(two.budget_used, one.budget_used);
      EXPECT_EQ(two.last_kept.ok, one.last_kept.ok);
      EXPECT_EQ(two.last_kept.execs, one.last_kept.execs);
      EXPECT_EQ(two.last_kept.features, one.last_kept.features);

      // The one-at-a-time loop counts every run; a round reads its runs up
      // to the first kept one, and the fake saw the rest run too.
      uint64_t logged = 0, counted = 0, counted_execs = 0;
      for (const std::vector<Bytes>& round : two.rounds) {
        ASSERT_LE(round.size(), 2u);
        logged += round.size();
        for (const Bytes& cand : round) {
          ++counted;
          counted_execs += 2 + cand.size() % 5;
          if (sc.pred(cand)) {
            break;
          }
        }
        if (round.size() == 2) {
          kept_first |= sc.pred(round[0]);
          kept_second |= !sc.pred(round[0]) && sc.pred(round[1]);
          // Both delete from the same bytes: other sizes, other chunks.
          chunk_change |= round[0].size() != round[1].size();
        }
      }
      EXPECT_EQ(one.rounds.size(), one.budget_used);
      EXPECT_EQ(counted, two.budget_used);
      EXPECT_EQ(counted_execs, two.execs);
      discarded |= logged > counted;
      one_byte |= two.bytes.size() == 1;
      budget_mid_round |=
          !two.rounds.empty() && two.rounds.back().size() == 1 &&
          two.budget_used == budget &&
          ShrinkWithFake(sc.input, sc.pred, budget + 1, 1).budget_used > budget;
    }
  }
  EXPECT_TRUE(kept_first);
  EXPECT_TRUE(kept_second);
  EXPECT_TRUE(chunk_change);
  EXPECT_TRUE(budget_mid_round);
  EXPECT_TRUE(one_byte);
  EXPECT_TRUE(discarded);
}

// --- engine determinism ------------------------------------------------------

TEST(FuzzerTest, ReportIsIdenticalAcrossThreadCounts) {
  FuzzOptions opts;
  opts.seed = 5;
  opts.runs = 16;
  std::ostringstream one;
  std::ostringstream many;
  opts.threads = 1;
  Fuzzer a(opts);
  int fa = a.Run(one);
  opts.threads = 3;
  Fuzzer b(opts);
  int fb = b.Run(many);
  EXPECT_EQ(fa, fb);
  EXPECT_EQ(one.str(), many.str());
  EXPECT_EQ(a.coverage_bits(), b.coverage_bits());
  EXPECT_EQ(a.corpus_size(), b.corpus_size());
  EXPECT_EQ(a.execs(), b.execs());
  // The campaign's exec count (the unit of fuzzing work) as it was before
  // RunCase fanned its variants out: fanning out must not change what is
  // run or counted.
  EXPECT_EQ(a.execs(), 1154u);
}

// --- seed files --------------------------------------------------------------

TEST(SeedFileTest, RoundTripsBytesAndSurvivesComments) {
  std::string path =
      (std::filesystem::temp_directory_path() / "fuzz_test_roundtrip.seed")
          .string();
  std::vector<uint8_t> bytes(100);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  WriteSeedFile(path, bytes, "round-trip test\nsecond comment line");
  std::optional<std::vector<uint8_t>> back = LoadSeedFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);
}

TEST(SeedFileTest, MissingFileLoadsAsNullopt) {
  EXPECT_FALSE(LoadSeedFile("/nonexistent/missing.seed").has_value());
}

}  // namespace
}  // namespace neve::fuzz
