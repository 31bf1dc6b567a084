// Checkpoint/restore and live-migration tests: the bit-identity contract
// (restore + continue == uninterrupted control, across every stack shape
// including 4-vCPU SMP NEVE), byte-determinism of the wire format and its
// golden encoding (tests/golden/snapshot_encoding.json), decode rejection of
// damaged streams, structural-mismatch rejection on apply, and
// the failure-atomic migration invariant (committed -> destination matches
// control; any failure -> the VM stays on the source, which matches control).

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/digest.h"
#include "src/fault/fault.h"
#include "src/snap/migrate.h"
#include "src/snap/snap_stack.h"
#include "src/snap/snapshot.h"
#include "src/snap/wire.h"
#include "src/workload/microbench.h"

namespace neve {
namespace snap {
namespace {

using testing::HasSubstr;

std::vector<StackConfig> AllStackConfigs() {
  return {StackConfig::Vm(), StackConfig::NestedV83(false),
          StackConfig::NestedV83(true), StackConfig::NestedNeve(false),
          StackConfig::NestedNeve(true)};
}

std::string CfgName(const StackConfig& cfg) {
  if (!cfg.nested) {
    return "vm";
  }
  std::string name = cfg.neve ? "neve" : "v83";
  name += cfg.guest_vhe ? "-vhe" : "-nvhe";
  return name;
}

// --- The bit-identity contract ----------------------------------------------

TEST(SnapTest, CheckpointRestoreContinueIsBitIdentical) {
  for (const StackConfig& cfg : AllStackConfigs()) {
    SCOPED_TRACE(CfgName(cfg));
    SnapSpec spec;
    spec.cfg = cfg;
    spec.steps = 24;

    SnapRunner control(spec);
    ASSERT_TRUE(control.Run().ok());
    const EndState want = control.End();

    // Capture mid-run; the source keeps going, so capturing must be
    // invisible to the continued run.
    Image img;
    SnapHooks cap;
    cap.checkpoint_step = 10;
    cap.checkpoint_out = &img;
    SnapRunner source(spec);
    ASSERT_TRUE(source.Run(cap).ok());
    EXPECT_EQ(source.End(), want)
        << "capture perturbed the source\n  got  " << ToString(source.End())
        << "\n  want " << ToString(want);

    // Fresh stack, apply, continue from the checkpoint step.
    SnapHooks res;
    res.resume_image = &img;
    res.resume_step = 10;
    SnapRunner resumed(spec);
    ASSERT_TRUE(resumed.Run(res).ok());
    EXPECT_EQ(resumed.End(), want)
        << "restored run diverged\n  got  " << ToString(resumed.End())
        << "\n  want " << ToString(want);
  }
}

TEST(SnapTest, SmpNeveCheckpointRestoreIsBitIdentical) {
  SnapSpec spec;
  spec.cfg = StackConfig::NestedNeve(true);
  spec.num_cpus = 4;
  spec.threads = 1;  // Pa allocation order must match across runs
  spec.steps = 4;    // rendezvous rounds per phase

  SnapRunner control(spec);
  ASSERT_TRUE(control.Run().ok());
  const EndState want = control.End();

  Image img;
  SnapHooks cap;
  cap.checkpoint_out = &img;
  SnapRunner source(spec);
  ASSERT_TRUE(source.Run(cap).ok());
  EXPECT_EQ(source.End(), want)
      << "SMP capture perturbed the source\n  got  "
      << ToString(source.End()) << "\n  want " << ToString(want);

  SnapHooks res;
  res.resume_image = &img;
  SnapRunner resumed(spec);
  ASSERT_TRUE(resumed.Run(res).ok());
  EXPECT_EQ(resumed.End(), want)
      << "SMP restored run diverged\n  got  " << ToString(resumed.End())
      << "\n  want " << ToString(want);
}

// --- Wire format -------------------------------------------------------------

TEST(SnapTest, EncodeIsByteDeterministic) {
  SnapSpec spec;
  spec.cfg = StackConfig::NestedNeve(true);
  std::vector<uint8_t> streams[2];
  for (auto& stream : streams) {
    Image img;
    SnapHooks cap;
    cap.checkpoint_step = 10;
    cap.checkpoint_out = &img;
    SnapRunner runner(spec);
    ASSERT_TRUE(runner.Run(cap).ok());
    stream = Serializer::Encode(img);
  }
  ASSERT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]);
}

// Pins the wire encoding: byte count and digest of the stream each stack
// configuration captures, plus Encode(Decode(bytes)) == bytes and
// Decode(Encode(img)) == img. To update after
// an intentional format change, copy the "actual" JSON from the failure
// message into tests/golden/snapshot_encoding.json.
std::string ActualEncodingJson() {
  struct Case {
    std::string name;
    SnapSpec spec;
    SnapHooks hooks;
  };
  std::vector<Case> cases;
  for (const StackConfig& cfg : AllStackConfigs()) {
    Case c{CfgName(cfg), {}, {}};
    c.spec.cfg = cfg;
    c.hooks.checkpoint_step = 10;
    cases.push_back(c);
  }
  // The 4-vCPU spec of SmpNeveCheckpointRestoreIsBitIdentical.
  Case smp{"neve-vhe-smp4", {}, {}};
  smp.spec.cfg = StackConfig::NestedNeve(true);
  smp.spec.num_cpus = 4;
  smp.spec.threads = 1;
  smp.spec.steps = 4;
  cases.push_back(smp);

  std::ostringstream out;
  out << "{\n  \"schema\": \"neve-snapshot-encoding-v1\",\n"
      << "  \"entries\": [\n";
  for (size_t i = 0; i < cases.size(); ++i) {
    Case& c = cases[i];
    Image img;
    c.hooks.checkpoint_out = &img;
    SnapRunner runner(c.spec);
    EXPECT_TRUE(runner.Run(c.hooks).ok()) << c.name;
    const std::vector<uint8_t> bytes = Serializer::Encode(img);
    Image decoded;
    Status st = Serializer::Decode(bytes, &decoded);
    EXPECT_TRUE(st.ok()) << c.name << ": " << st.ToString();
    EXPECT_TRUE(Serializer::Encode(decoded) == bytes)
        << c.name << ": Encode(Decode(bytes)) != bytes";
    // The image holds whole simulator structs: a field missing from a
    // struct's field list would survive an in-process restore but not the
    // wire.
    EXPECT_TRUE(decoded == img) << c.name << ": Decode(Encode(img)) != img";
    Digest d;
    d.Mix(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                           bytes.size()));
    char digest[32];
    std::snprintf(digest, sizeof(digest), "0x%016" PRIx64, d.value());
    out << "    {\"config\": \"" << c.name << "\", \"bytes\": "
        << bytes.size() << ", \"digest\": \"" << digest << "\"}"
        << (i + 1 < cases.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out.str();
}

TEST(SnapTest, EncodingMatchesGolden) {
  const std::string path =
      std::string(NEVE_SOURCE_DIR) + "/tests/golden/snapshot_encoding.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  const std::string actual = ActualEncodingJson();
  EXPECT_EQ(golden.str(), actual)
      << "snapshot encoding diverged from "
         "tests/golden/snapshot_encoding.json.\n"
      << "If the change is intentional, replace the golden file with:\n"
      << actual;
}

TEST(SnapTest, DecodeRejectsDamagedStreams) {
  SnapSpec spec;
  spec.cfg = StackConfig::NestedV83(true);
  Image img;
  SnapHooks cap;
  cap.checkpoint_step = 5;
  cap.checkpoint_out = &img;
  SnapRunner runner(spec);
  ASSERT_TRUE(runner.Run(cap).ok());
  const std::vector<uint8_t> good = Serializer::Encode(img);

  Image out;
  ASSERT_TRUE(Serializer::Decode(good, &out).ok());

  // Truncation anywhere -> OutOfRange. Cut at every section boundary (the
  // section header, payload start and digest of each of the nine sections)
  // and every 4 KiB.
  std::vector<size_t> cuts;
  size_t at = 16;  // magic, version, section count
  while (at < good.size()) {
    uint64_t len = 0;
    for (size_t i = 0; i < 8; ++i) {
      len |= uint64_t{good[at + 8 + i]} << (8 * i);
    }
    cuts.insert(cuts.end(), {at, at + 16, at + 16 + len});
    at += 16 + len + 8;
  }
  ASSERT_EQ(at, good.size());
  ASSERT_EQ(cuts.size(), 27u);
  for (size_t cut = 0; cut < good.size(); cut += 4096) {
    cuts.push_back(cut);
  }
  Status st;
  for (size_t cut : cuts) {
    std::vector<uint8_t> truncated(good.begin(),
                                   good.begin() + static_cast<long>(cut));
    st = Serializer::Decode(truncated, &out);
    EXPECT_EQ(st.code(), ErrorCode::kOutOfRange)
        << "cut at " << cut << ": " << st.ToString();
  }

  // A section length near 2^64 must not wrap the payload bounds check.
  std::vector<uint8_t> huge_len = good;
  std::fill(huge_len.begin() + 24, huge_len.begin() + 32, uint8_t{0xff});
  st = Serializer::Decode(huge_len, &out);
  EXPECT_EQ(st.code(), ErrorCode::kOutOfRange) << st.ToString();

  // A flipped payload byte -> section digest mismatch.
  std::vector<uint8_t> corrupt = good;
  corrupt[corrupt.size() / 2] ^= 0x40;
  st = Serializer::Decode(corrupt, &out);
  EXPECT_FALSE(st.ok());

  // A damaged magic -> invalid.
  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xff;
  st = Serializer::Decode(bad_magic, &out);
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << st.ToString();

  // Trailing garbage after the last section -> invalid.
  std::vector<uint8_t> trailing = good;
  trailing.push_back(0xab);
  st = Serializer::Decode(trailing, &out);
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << st.ToString();
  EXPECT_THAT(st.message(), HasSubstr("trailing"));
}

// A fixed-size field (register files, GIC ack rows, fault counters) decodes
// only at its exact count, so no image of the wrong size reaches Apply.
TEST(SnapTest, DecodeRejectsFixedSizeFieldOfWrongCount) {
  for (size_t count : {3u, 4u, 5u}) {
    Writer w;
    std::vector<uint64_t> v(count, 7);
    w.Section(kSecMeta, [&] { w.Vec(v, 8, [&w](uint64_t x) { w.U64(x); }); });
    const std::vector<uint8_t> bytes = w.Finish();
    Reader r(bytes);
    r.Header();
    std::array<uint64_t, 4> a{};
    r.Section(kSecMeta,
              [&] { r.Vec(a, 8, [&r](uint64_t& x) { r.U64(x); }); });
    if (count == a.size()) {
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(a[3], 7u);
    } else {
      EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument) << count;
    }
  }
}

TEST(SnapTest, ApplyRejectsStructuralMismatchWithoutPanicking) {
  // A NEVE nested snapshot must not apply to a plain-VM stack: phase-1
  // structural verification fails with an error Status before any mutation.
  SnapSpec nested;
  nested.cfg = StackConfig::NestedNeve(true);
  Image img;
  SnapHooks cap;
  cap.checkpoint_step = 5;
  cap.checkpoint_out = &img;
  SnapRunner source(nested);
  ASSERT_TRUE(source.Run(cap).ok());

  SnapSpec plain;
  plain.cfg = StackConfig::Vm();
  SnapHooks res;
  res.resume_image = &img;
  res.resume_step = 5;
  SnapRunner wrong(plain);
  Status st = wrong.Run(res);
  EXPECT_EQ(st.code(), ErrorCode::kFailedPrecondition) << st.ToString();
  EXPECT_THAT(st.message(), HasSubstr("structural mismatch"));
}

TEST(SnapTest, ApplyRejectsBadPageIndicesWithoutPanicking) {
  SnapSpec spec;
  spec.cfg = StackConfig::NestedNeve(false);
  Image img;
  SnapHooks cap;
  cap.checkpoint_step = 5;
  cap.checkpoint_out = &img;
  SnapRunner source(spec);
  ASSERT_TRUE(source.Run(cap).ok());
  ASSERT_GE(img.mem.pages.size(), 2u);
  auto resume = [&](const Image& bad) {
    SnapHooks res;
    res.resume_image = &bad;
    res.resume_step = 5;
    SnapRunner target(spec);
    return target.Run(res);
  };

  Image swapped = img;
  std::swap(swapped.mem.pages[0], swapped.mem.pages[1]);
  Status st = resume(swapped);
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << st.ToString();
  EXPECT_THAT(st.message(), HasSubstr("ascending"));

  // 1 << 52 pages shifts to PA 0: only an index comparison rejects it.
  Image wrapped = img;
  wrapped.mem.pages.back().page_index = 1ull << 52;
  st = resume(wrapped);
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << st.ToString();
  EXPECT_THAT(st.message(), HasSubstr("beyond physical memory"));
}

// Restored indices the target later uses without checking must be rejected up
// front: each of these used to pass Apply and then panic or read out of
// bounds on the resumed run.
TEST(SnapTest, ApplyRejectsOutOfRangeIndicesWithoutPanicking) {
  SnapSpec spec;
  spec.cfg = StackConfig::NestedNeve(false);
  Image img;
  SnapHooks cap;
  cap.checkpoint_step = 5;
  cap.checkpoint_out = &img;
  SnapRunner source(spec);
  ASSERT_TRUE(source.Run(cap).ok());
  ASSERT_FALSE(img.host.vms.empty());
  ASSERT_FALSE(img.guest->vms.empty());
  ASSERT_FALSE(img.attr.percpu[0].buckets.empty());
  ASSERT_FALSE(img.cpus[0].tlb.empty());
  ASSERT_FALSE(img.host.vms[0].vcpus[0].shadows.empty());

  struct Bad {
    std::string what;  // expected in the error message
    Image image;
  };
  std::vector<Bad> bad;
  auto add = [&](const std::string& what, auto mutate) {
    bad.push_back({what, img});
    mutate(bad.back().image);
  };
  add("list-register",
      [](Image& b) { b.host.slots[0].ctx.lrs_loaded = 1000; });
  add("list-register", [](Image& b) { b.host.slots[0].ctx.lrs_loaded = -1; });
  add("host vcpu",
      [](Image& b) { b.host.vms[0].vcpus[0].run.loaded_on_pcpu = 7; });
  add("guest vcpu",
      [](Image& b) { b.guest->vms[0].vcpus[0].run.loaded_on_pcpu = 7; });
  // A TLB page past the end of memory panicked the resumed run; 1 << 52
  // wrapped when shifted and diverged silently.
  add("TLB entry",
      [](Image& b) { b.cpus[0].tlb[0].second.pa_page = 1ull << 40; });
  add("TLB entry",
      [](Image& b) { b.cpus[0].tlb[0].second.pa_page = 1ull << 52; });
  add("shadow stage-2 root", [](Image& b) {
    b.host.vms[0].vcpus[0].shadows[0].root = 1ull << 45;
  });
  add("flight-recorder", [](Image& b) {
    b.attr.flight_next = CycleAttribution::kFlightCapacity;
  });
  add("layer or category", [](Image& b) {
    CycleAttribution::FlightRecord f;
    f.buckets.push_back({.layer = static_cast<AttrLayer>(kNumAttrLayers)});
    b.attr.flights.push_back(f);
  });
  add("layer or category", [](Image& b) {
    CycleAttribution::FlightRecord f;
    f.buckets.push_back({.cat = static_cast<AttrCat>(kNumAttrCats)});
    b.attr.flights.push_back(f);
  });
  add("layer or category",
      [](Image& b) { b.attr.percpu[0].buckets[0].first |= 0xFF00; });

  for (const Bad& b : bad) {
    SCOPED_TRACE(b.what);
    SnapHooks res;
    res.resume_image = &b.image;
    res.resume_step = 5;
    SnapRunner target(spec);
    Status st = target.Run(res);
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << st.ToString();
    EXPECT_THAT(st.message(), HasSubstr(b.what));
  }
}

// --- Live migration ----------------------------------------------------------

TEST(SnapTest, FaultFreeMigrationCommitsAndMatchesControl) {
  for (const StackConfig& cfg : AllStackConfigs()) {
    SCOPED_TRACE(CfgName(cfg));
    SnapSpec spec;
    spec.cfg = cfg;
    spec.steps = 24;

    SnapRunner control(spec);
    ASSERT_TRUE(control.Run().ok());
    const EndState want = control.End();

    MigrateConfig mig;  // fault injection off
    MigrationOutcome out;
    ASSERT_TRUE(RunMigration(spec, mig, &out).ok());
    ASSERT_TRUE(out.stats.committed);
    ASSERT_TRUE(out.vm_on_dest);
    EXPECT_GT(out.stats.pages_sent, 0u);
    EXPECT_GT(out.stats.downtime_cycles, 0.0);
    EXPECT_EQ(out.dest_end, want)
        << "migrated run diverged\n  got  " << ToString(out.dest_end)
        << "\n  want " << ToString(want);
  }
}

// One MigrateConfig with exactly one always-firing fault point.
MigrateConfig AlwaysFault(FaultPoint point) {
  MigrateConfig mig;
  mig.fault.enabled = true;
  mig.fault.seed = 7;
  mig.fault.rate = 1.0;
  mig.fault.points = 1u << static_cast<uint32_t>(point);
  return mig;
}

TEST(SnapTest, PersistentStreamDamageDegradesToVmStaysOnSource) {
  const SnapSpec spec = [] {
    SnapSpec s;
    s.cfg = StackConfig::NestedNeve(true);
    s.steps = 40;  // room for every retry to play out
    return s;
  }();
  SnapRunner control(spec);
  ASSERT_TRUE(control.Run().ok());
  const EndState want = control.End();

  for (FaultPoint point :
       {FaultPoint::kMigrateStreamTruncation, FaultPoint::kMigratePageCorruption,
        FaultPoint::kMigrateDestOom, FaultPoint::kMigrateSourceCrash,
        FaultPoint::kMigrateCommitRace}) {
    SCOPED_TRACE(FaultPointName(point));
    MigrationOutcome out;
    ASSERT_TRUE(RunMigration(spec, AlwaysFault(point), &out).ok());
    EXPECT_FALSE(out.stats.committed);
    EXPECT_TRUE(out.stats.gave_up);
    EXPECT_EQ(out.stats.attempts, 4);
    EXPECT_FALSE(out.vm_on_dest);
    // Failure atomicity: the source never stopped, never forked, and its
    // continued run is bit-identical to the unmigrated control.
    EXPECT_EQ(out.source_end, want)
        << "source diverged after rollback\n  got  "
        << ToString(out.source_end) << "\n  want " << ToString(want);
  }
}

TEST(SnapTest, DroppedLinkDefersPagesToStopCopy) {
  SnapSpec spec;
  spec.cfg = StackConfig::NestedNeve(true);
  spec.steps = 24;
  SnapRunner control(spec);
  ASSERT_TRUE(control.Run().ok());

  MigrationOutcome out;
  ASSERT_TRUE(RunMigration(spec, AlwaysFault(FaultPoint::kMigrateLinkDrop),
                           &out)
                  .ok());
  // Every pre-copy round drops, so nothing crosses early and the whole
  // image rides the stop-copy -- a commit, just with maximal downtime.
  ASSERT_TRUE(out.stats.committed);
  EXPECT_EQ(out.stats.pages_sent, 0u);
  EXPECT_EQ(out.dest_end, control.End());

  MigrationOutcome clean;
  ASSERT_TRUE(RunMigration(spec, MigrateConfig{}, &clean).ok());
  EXPECT_GT(out.stats.downtime_cycles, clean.stats.downtime_cycles);
}

TEST(SnapTest, MigrationChaosDoesNotPerturbGuestExecution) {
  // The engine's injector is private to the migration layer: even a fully
  // faulted campaign leaves the guest's own fault log empty.
  SnapSpec spec;
  spec.cfg = StackConfig::NestedV83(false);
  spec.steps = 40;
  MigrationOutcome out;
  ASSERT_TRUE(
      RunMigration(spec, AlwaysFault(FaultPoint::kMigratePageCorruption), &out)
          .ok());
  EXPECT_FALSE(out.stats.committed);
  EXPECT_THAT(out.stats.events, testing::Not(testing::IsEmpty()));
}

}  // namespace
}  // namespace snap
}  // namespace neve
