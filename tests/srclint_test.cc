// Tests for srclint: each repo-convention rule must pass on conforming
// sources and fire on seeded violations, with correct file:line locations.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/analysis/srclint.h"

namespace neve::analysis {
namespace {

std::vector<Diagnostic> Lint(const std::string& path,
                             const std::string& content) {
  return LintSources({{path, content}});
}

const Diagnostic* Find(const std::vector<Diagnostic>& diags,
                       const std::string& check) {
  auto it = std::find_if(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.check == check;
  });
  return it == diags.end() ? nullptr : &*it;
}

// --- raw register-file access ------------------------------------------------

TEST(SrcLintTest, PokeRegOutsideWhitelistIsFlagged) {
  std::vector<Diagnostic> d = Lint("src/sim/machine.cc",
                                   "void F(Cpu& cpu) {\n"
                                   "  cpu.PokeReg(RegId::kHCR_EL2, 0);\n"
                                   "}\n");
  const Diagnostic* diag = Find(d, "raw-register-access");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->file, "src/sim/machine.cc");
  EXPECT_EQ(diag->line, 2);
}

TEST(SrcLintTest, PeekRegInWhitelistedDeviceModelIsAllowed) {
  EXPECT_TRUE(
      Lint("src/gic/gic.cc", "uint64_t v = cpu.PeekReg(reg);\n").empty());
}

TEST(SrcLintTest, CommentedPatternsAreIgnored) {
  EXPECT_TRUE(Lint("src/hyp/nested.cc",
                   "// never touch regs_[...] directly; use PokeReg(...)\n")
                  .empty());
}

// --- guest-reachable aborts --------------------------------------------------

TEST(SrcLintTest, UnjustifiedCheckInHypIsFlagged) {
  std::vector<Diagnostic> d = Lint("src/hyp/host_kvm.cc",
                                   "void F(Vcpu& v) {\n"
                                   "  NEVE_CHECK(v.parked);\n"
                                   "}\n");
  const Diagnostic* diag = Find(d, "guest-reachable-abort");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->file, "src/hyp/host_kvm.cc");
  EXPECT_EQ(diag->line, 2);
}

TEST(SrcLintTest, UnjustifiedCheckMsgAndAbortAreFlagged) {
  std::vector<Diagnostic> d = Lint("src/gic/gic.cc",
                                   "void F() {\n"
                                   "  NEVE_CHECK_MSG(x, \"boom\");\n"
                                   "  std::abort();\n"
                                   "}\n");
  size_t hits = 0;
  for (const Diagnostic& diag : d) {
    hits += diag.check == "guest-reachable-abort" ? 1 : 0;
  }
  EXPECT_EQ(hits, 2u);
}

TEST(SrcLintTest, HostInvariantCommentJustifiesACheck) {
  EXPECT_TRUE(Lint("src/hyp/vm.cc",
                   "void F(Vm* vm) {\n"
                   "  // host-invariant: wiring supplied by the embedder.\n"
                   "  NEVE_CHECK(vm != nullptr);\n"
                   "}\n")
                  .empty());
}

TEST(SrcLintTest, HostInvariantWithinTwoLinesAboveJustifies) {
  EXPECT_TRUE(Lint("src/x86/kvm_x86.cc",
                   "void F(Vm* vm) {\n"
                   "  // host-invariant: the x86 model runs only scripted\n"
                   "  // workloads fixed at build time.\n"
                   "  NEVE_CHECK(vm != nullptr);\n"
                   "}\n")
                  .empty());
}

TEST(SrcLintTest, HostInvariantThreeLinesAboveDoesNotJustify) {
  std::vector<Diagnostic> d = Lint("src/hyp/guest_kvm.cc",
                                   "void F(Vm* vm) {\n"
                                   "  // host-invariant: too far away.\n"
                                   "  // filler\n"
                                   "  // filler\n"
                                   "  NEVE_CHECK(vm != nullptr);\n"
                                   "}\n");
  EXPECT_NE(Find(d, "guest-reachable-abort"), nullptr);
}

TEST(SrcLintTest, GuestCheckIsNotAGuestReachableAbort) {
  EXPECT_TRUE(Lint("src/hyp/virtio.cc",
                   "void F(bool ok) {\n"
                   "  NEVE_GUEST_CHECK(ok, \"virtio_ring\", \"torn ring\");\n"
                   "}\n")
                  .empty());
}

TEST(SrcLintTest, ChecksOutsideConfinedDirsAreNotFlagged) {
  EXPECT_TRUE(Lint("src/sim/machine.cc", "NEVE_CHECK(cpu != nullptr);\n")
                  .empty());
}

// --- unseeded randomness in the fuzzer ---------------------------------------

TEST(SrcLintTest, AmbientEntropyInFuzzDirIsFlagged) {
  std::vector<Diagnostic> d = Lint("src/fuzz/fuzzer.cc",
                                   "uint8_t Byte() {\n"
                                   "  std::random_device rd;\n"
                                   "  return static_cast<uint8_t>(rd());\n"
                                   "}\n");
  const Diagnostic* diag = Find(d, "fuzz-unseeded-randomness");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->file, "src/fuzz/fuzzer.cc");
  EXPECT_EQ(diag->line, 2);
}

TEST(SrcLintTest, LibcRandInFuzzDirIsFlagged) {
  std::vector<Diagnostic> d = Lint("src/fuzz/program.cc",
                                   "int F() { return rand() % 7; }\n");
  EXPECT_NE(Find(d, "fuzz-unseeded-randomness"), nullptr);
}

TEST(SrcLintTest, Mt19937InFuzzDirIsFlagged) {
  std::vector<Diagnostic> d =
      Lint("src/fuzz/harness.cc", "std::mt19937_64 gen(123);\n");
  EXPECT_NE(Find(d, "fuzz-unseeded-randomness"), nullptr);
}

TEST(SrcLintTest, SeededRngInFuzzDirIsAllowed) {
  EXPECT_TRUE(Lint("src/fuzz/fuzzer.cc",
                   "Rng rng(DigestOf(opts_.seed, case_index));\n"
                   "uint64_t v = rng.Next();\n")
                  .empty());
}

TEST(SrcLintTest, SrandOutsideFuzzDirIsNotThisRulesBusiness) {
  // Other dirs have their own conventions; this rule only guards src/fuzz.
  EXPECT_TRUE(Lint("src/workload/appbench.cc", "srand(42);\n").empty());
}

TEST(SrcLintTest, CommentedEntropyMentionInFuzzDirIsIgnored) {
  EXPECT_TRUE(Lint("src/fuzz/seed_stream.h",
                   "// never use std::random_device here; see the contract\n")
                  .empty());
}

// --- batch-bypass ------------------------------------------------------------

TEST(SrcLintTest, UnjustifiedChargeInBatchLayerIsFlagged) {
  std::vector<Diagnostic> d = Lint("src/sim/batch/batch.cc",
                                   "void Execute(Cpu& cpu) {\n"
                                   "  cpu.Charge(kOpCost);\n"
                                   "}\n");
  const Diagnostic* diag = Find(d, "batch-bypass");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->file, "src/sim/batch/batch.cc");
  EXPECT_EQ(diag->line, 2);
}

TEST(SrcLintTest, UnjustifiedCounterAndInstantAreFlagged) {
  std::vector<Diagnostic> d =
      Lint("src/sim/batch/batch.cc",
           "obs->metrics().Counter(\"cpu.vncr_redirects\").Add(1);\n"
           "obs->tracer().Instant(0, \"vncr\", name, cycles);\n");
  size_t findings = 0;
  for (const Diagnostic& diag : d) {
    findings += diag.check == "batch-bypass" ? 1 : 0;
  }
  EXPECT_EQ(findings, 2u);
}

TEST(SrcLintTest, BlockDeltaMarkerJustifiesABatchCharge) {
  std::vector<Diagnostic> d =
      Lint("src/sim/batch/batch.cc",
           "cpu.Charge(chunk);  // block-delta: aggregated apply site\n");
  EXPECT_EQ(Find(d, "batch-bypass"), nullptr);
}

TEST(SrcLintTest, UnbatchedMarkerWithinTwoLinesAboveJustifies) {
  std::vector<Diagnostic> d =
      Lint("src/sim/batch/batch.cc",
           "// unbatched: the per-op fallback is the interpreter,\n"
           "// charge-per-op by definition\n"
           "obs->metrics().Counter(\"cpu.traps\").Add(1);\n");
  EXPECT_EQ(Find(d, "batch-bypass"), nullptr);
}

TEST(SrcLintTest, BatchMarkerThreeLinesAboveDoesNotJustify) {
  std::vector<Diagnostic> d =
      Lint("src/sim/batch/batch.cc",
           "// block-delta: too far away to cover the call below\n"
           "//\n"
           "//\n"
           "cpu.Charge(chunk);\n");
  const Diagnostic* diag = Find(d, "batch-bypass");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->line, 4);
}

TEST(SrcLintTest, ChargeOutsideBatchLayerIsNotThisRulesBusiness) {
  // Other layers charge per-op by design; only src/sim/batch carries the
  // aggregated-charge contract.
  std::vector<Diagnostic> d = Lint("src/cpu/cpu.cc", "Charge(kOpCost);\n");
  EXPECT_EQ(Find(d, "batch-bypass"), nullptr);
}

// --- comment / string-literal stripping --------------------------------------

TEST(SrcLintTest, StripCommentsBlanksLineAndBlockComments) {
  std::string in =
      "int x;  // regs_[0]\n"
      "/* PeekReg(\n"
      "   spans lines */ int y;\n";
  std::string out = StripCommentsAndLiterals(in);
  ASSERT_EQ(out.size(), in.size());  // length-preserving
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_EQ(out.find("regs_["), std::string::npos);
  EXPECT_EQ(out.find("PeekReg"), std::string::npos);
  EXPECT_NE(out.find("int x;"), std::string::npos);
  EXPECT_NE(out.find("int y;"), std::string::npos);
}

TEST(SrcLintTest, StripLiteralsBlanksContentsButKeepsQuotes) {
  std::string in = "f(\"PeekReg( // not a comment\", ');');\n";
  std::string out = StripCommentsAndLiterals(in);
  ASSERT_EQ(out.size(), in.size());
  EXPECT_EQ(out.find("PeekReg"), std::string::npos);
  // The quotes survive (token boundaries), the payload does not, and the
  // comment-looking and paren-looking bytes inside literals are gone.
  EXPECT_NE(out.find('"'), std::string::npos);
  EXPECT_EQ(out.find("//"), std::string::npos);
}

TEST(SrcLintTest, StripLiteralsHandlesEscapes) {
  // The escaped quote must not close the literal early.
  std::string out =
      StripCommentsAndLiterals("a(\"say \\\"regs_[\\\" here\"); regs_x();\n");
  EXPECT_EQ(out.find("regs_["), std::string::npos);
  EXPECT_NE(out.find("regs_x"), std::string::npos);
}

TEST(SrcLintTest, DigitSeparatorsAreNotCharLiterals) {
  std::string in = "uint64_t big = 1'000'000; PeekCall();\n";
  EXPECT_EQ(StripCommentsAndLiterals(in), in);
}

TEST(SrcLintTest, BlockCommentedPatternIsIgnored) {
  // Regression: before stripping, only line comments were skipped, so a
  // block comment around a pattern produced a false positive.
  EXPECT_TRUE(Lint("src/hyp/nested.cc", "/* PokeReg(r, v); */\nint x;\n")
                  .empty());
}

TEST(SrcLintTest, PatternInsideStringLiteralIsIgnored) {
  // Regression: a quoted mention of a forbidden pattern used to require
  // whitelisting the mentioning file (srclint.cc itself was whitelisted for
  // exactly this reason).
  EXPECT_TRUE(Lint("src/hyp/nested.cc",
                   "const char* kMsg = \"use PokeReg(...) here\";\n")
                  .empty());
  EXPECT_TRUE(Lint("src/fuzz/gen.cc",
                   "Log(\"mt19937 and rand( are banned here\");\n")
                  .empty());
}

TEST(SrcLintTest, TrailingCommentDoesNotHideRealViolation) {
  std::vector<Diagnostic> d =
      Lint("src/hyp/nested.cc", "c.PokeReg(r, 1);  // tidy later\n");
  EXPECT_NE(Find(d, "raw-register-access"), nullptr);
}

// --- shared-mutation lockset audit -------------------------------------------

TEST(SrcLintTest, ForeignTuMutationIsFlagged) {
  // Through a reference and through a pointer: `w->hits_ = 1;` is a write,
  // not a declaration.
  for (const char* other : {"void F(Widget& w) {\n  w.hits_ += 1;\n}\n",
                            "void F(Widget* w) {\n  w->hits_ = 1;\n}\n"}) {
    SCOPED_TRACE(other);
    std::vector<Diagnostic> d = LintSources(
        {{"src/hyp/widget.h",
          "class Widget {\n public:\n  uint64_t hits_ = 0;\n};\n"},
         {"src/hyp/other.cc", other}});
    const Diagnostic* diag = Find(d, "lockset-multi-tu-mutation");
    ASSERT_NE(diag, nullptr);
    EXPECT_EQ(diag->file, "src/hyp/other.cc");
    EXPECT_EQ(diag->line, 2);
    EXPECT_NE(diag->message.find("hits_"), std::string::npos);
    EXPECT_NE(diag->message.find("src/hyp/widget.h:3"), std::string::npos);
  }
}

TEST(SrcLintTest, HomeTuMutationIsAllowed) {
  // foo.h and foo.cc are one TU: header-inline and .cc writes are home.
  EXPECT_TRUE(LintSources({{"src/hyp/widget.h",
                            "class Widget {\n  uint64_t hits_ = 0;\n"
                            "  void Bump() { hits_ += 1; }\n};\n"},
                           {"src/hyp/widget.cc",
                            "void Widget::Reset() {\n  hits_ = 0;\n}\n"}})
                  .empty());
}

TEST(SrcLintTest, GuardedByExemptsForeignMutation) {
  EXPECT_TRUE(
      LintSources(
          {{"src/hyp/widget.h",
            "class Widget {\n  mutable Mutex mu_;\n"
            "  uint64_t hits_ GUARDED_BY(mu_) = 0;\n};\n"},
           {"src/hyp/other.cc", "void F(Widget& w) {\n  w.hits_ += 1;\n}\n"}})
          .empty());
}

TEST(SrcLintTest, GuardedByOnContinuationLineExempts) {
  EXPECT_TRUE(
      LintSources(
          {{"src/hyp/widget.h",
            "class Widget {\n  mutable Mutex mu_;\n"
            "  std::map<int, int> table_\n      GUARDED_BY(mu_);\n};\n"},
           {"src/hyp/other.cc",
            "void F(Widget& w) {\n  w.table_[1] = 2;\n}\n"}})
          .empty());
}

TEST(SrcLintTest, SingleMutatorJustificationExempts) {
  EXPECT_TRUE(
      LintSources(
          {{"src/hyp/widget.h",
            "class Widget {\n"
            "  // single-mutator: only the owning Machine's thread calls\n"
            "  // F(), enforced by the harness.\n"
            "  uint64_t hits_ = 0;\n};\n"},
           {"src/hyp/other.cc", "void F(Widget& w) {\n  w.hits_ += 1;\n}\n"}})
          .empty());
}

TEST(SrcLintTest, IncrementAndDecrementCountAsMutations) {
  std::vector<Diagnostic> d = LintSources(
      {{"src/gic/widget.h", "class W {\n public:\n  int pending_ = 0;\n};\n"},
       {"src/gic/other.cc", "void F(W& w) {\n  ++w.pending_;\n}\n"}});
  EXPECT_NE(Find(d, "lockset-multi-tu-mutation"), nullptr);
  d = LintSources(
      {{"src/gic/widget.h", "class W {\n public:\n  int pending_ = 0;\n};\n"},
       {"src/gic/other.cc", "void F(W& w) {\n  w.pending_--;\n}\n"}});
  EXPECT_NE(Find(d, "lockset-multi-tu-mutation"), nullptr);
}

TEST(SrcLintTest, ReadsAndComparisonsAreNotMutations) {
  EXPECT_TRUE(LintSources({{"src/mem/widget.h",
                            "class W {\n public:\n  uint64_t size_ = 0;\n};\n"},
                           {"src/mem/other.cc",
                            "bool F(W& w) {\n  return w.size_ == 0;\n}\n"
                            "uint64_t G(W& w) {\n  return w.size_;\n}\n"}})
                  .empty());
}

TEST(SrcLintTest, SubscriptAssignmentIsAMutation) {
  std::vector<Diagnostic> d = LintSources(
      {{"src/cpu/widget.h",
        "class W {\n public:\n  std::array<int, 4> slots_;\n};\n"},
       {"src/cpu/other.cc", "void F(W& w) {\n  w.slots_[2] = 7;\n}\n"}});
  EXPECT_NE(Find(d, "lockset-multi-tu-mutation"), nullptr);
}

TEST(SrcLintTest, UnauditedDirsAreOutsideTheLockset) {
  // src/obs members are owner-serialized by design; the audit covers the
  // guest-state-bearing layers only.
  EXPECT_TRUE(LintSources({{"src/obs/widget.h",
                            "class W {\n public:\n  uint64_t n_ = 0;\n};\n"},
                           {"src/obs/other.cc",
                            "void F(W& w) {\n  w.n_ = 1;\n}\n"}})
                  .empty());
}

TEST(SrcLintTest, SameNameInTwoHeadersMergesHomes) {
  // Both TUs declare a `count_`; each writing its own is not foreign.
  EXPECT_TRUE(LintSources({{"src/hyp/a.h", "class A {\n  int count_ = 0;\n};\n"},
                           {"src/hyp/b.h", "class B {\n  int count_ = 0;\n};\n"},
                           {"src/hyp/a.cc", "void A::F() {\n  count_ = 1;\n}\n"},
                           {"src/hyp/b.cc", "void B::F() {\n  count_ = 2;\n}\n"}})
                  .empty());
}

TEST(SrcLintTest, LocksetInventoryReportsWritersAndGuards) {
  std::vector<LocksetMember> inv = LocksetInventory(
      {{"src/hyp/widget.h",
        "class Widget {\n  mutable Mutex mu_;\n"
        "  uint64_t hits_ GUARDED_BY(mu_) = 0;\n  uint64_t cold_ = 0;\n};\n"},
       {"src/hyp/other.cc", "void F(Widget& w) {\n  w.hits_ += 1;\n}\n"}});
  const LocksetMember* hits = nullptr;
  const LocksetMember* cold = nullptr;
  for (const LocksetMember& m : inv) {
    if (m.name == "hits_") {
      hits = &m;
    }
    if (m.name == "cold_") {
      cold = &m;
    }
  }
  ASSERT_NE(hits, nullptr);
  EXPECT_TRUE(hits->audited);
  EXPECT_TRUE(hits->guarded);
  ASSERT_EQ(hits->writer_tus.size(), 1u);
  EXPECT_EQ(hits->writer_tus[0], "other");
  EXPECT_EQ(hits->foreign_writes.size(), 1u);
  ASSERT_NE(cold, nullptr);
  EXPECT_FALSE(cold->guarded);
}

TEST(SrcLintTest, PreSmpGicCounterShapeIsCaught) {
  // Seeded regression for the shape the SMP work fixed: scalar GIC ack/EOI
  // statistics bumped from the hypervisor TU. With one vCPU that was a
  // single-mutator pattern nobody had to justify; with SMP lanes it is a
  // cross-thread data race. The audit must flag it so the fix (per-CPU
  // shards summed on read, mutated only from the GIC's own per-CPU ack/EOI
  // path) can't silently regress.
  std::vector<Diagnostic> d = LintSources(
      {{"src/gic/gic_like.h",
        "class GicLike {\n public:\n"
        "  uint64_t virtual_acks_ = 0;\n  uint64_t virtual_eois_ = 0;\n};\n"},
       {"src/hyp/host_like.cc",
        "void OnAck(GicLike& g) {\n  ++g.virtual_acks_;\n}\n"
        "void OnEoi(GicLike& g) {\n  g.virtual_eois_ += 1;\n}\n"}});
  const Diagnostic* acks = nullptr;
  const Diagnostic* eois = nullptr;
  for (const Diagnostic& diag : d) {
    if (diag.check != "lockset-multi-tu-mutation") {
      continue;
    }
    if (diag.message.find("virtual_acks_") != std::string::npos) {
      acks = &diag;
    }
    if (diag.message.find("virtual_eois_") != std::string::npos) {
      eois = &diag;
    }
  }
  ASSERT_NE(acks, nullptr);
  EXPECT_EQ(acks->file, "src/hyp/host_like.cc");
  ASSERT_NE(eois, nullptr);

  // The shipped shape: the shard vector is mutated only from its home TU
  // (per-CPU slot, one writer lane per slot) -- clean without any guard.
  EXPECT_TRUE(
      LintSources(
          {{"src/gic/gic_like.h",
            "class GicLike {\n public:\n"
            "  std::vector<uint64_t> virtual_acks_;\n};\n"},
           {"src/gic/gic_like.cc",
            "void GicLike::Ack(int cpu) {\n  ++virtual_acks_[cpu];\n}\n"}})
          .empty());
}

// --- the real tree -----------------------------------------------------------

TEST(SrcLintTest, LoadRepoSourcesOnMissingRootIsEmpty) {
  EXPECT_TRUE(LoadRepoSources("/nonexistent/path").empty());
}

// --- snapshot coverage -------------------------------------------------------

namespace snapcov {

const char kSnapSource[] =
    "void Capture(const Cpu& c) {\n"
    "  img.cycles = c.cycles_;\n"
    "}\n";

}  // namespace snapcov

TEST(SrcLintTest, UnserializedStateFieldIsFlagged) {
  std::vector<Diagnostic> d = LintSources(
      {{"src/snap/snapshot.cc", snapcov::kSnapSource},
       {"src/cpu/cpu.h",
        "class Cpu {\n"
        "  uint64_t cycles_ = 0;\n"
        "  uint64_t secret_state_ = 0;\n"
        "};\n"}});
  const Diagnostic* diag = Find(d, "snapshot-coverage");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->file, "src/cpu/cpu.h");
  EXPECT_EQ(diag->line, 3);
  EXPECT_NE(diag->message.find("secret_state_"), std::string::npos);
}

TEST(SrcLintTest, SerializedFieldPassesSnapshotCoverage) {
  std::vector<Diagnostic> d =
      LintSources({{"src/snap/snapshot.cc", snapcov::kSnapSource},
                   {"src/cpu/cpu.h",
                    "class Cpu {\n"
                    "  uint64_t cycles_ = 0;\n"
                    "};\n"}});
  EXPECT_EQ(Find(d, "snapshot-coverage"), nullptr);
}

// A class whose private fields the serializer encodes through the class's
// own hook, as CpuTrace does.
const char kListedHeader[] =
    "class Trace {\n"
    " public:\n"
    "  template <class Ar>\n"
    "  void SnapFields(Ar& ar) {\n"
    "    ar.U64(hits_);\n"
    "  }\n"
    " private:\n"
    "  uint64_t hits_ = 0;\n";

TEST(SrcLintTest, FieldInItsSnapFieldsListPassesSnapshotCoverage) {
  std::vector<Diagnostic> d =
      LintSources({{"src/snap/snapshot.cc", snapcov::kSnapSource},
                   {"src/cpu/trace.h", std::string(kListedHeader) + "};\n"}});
  EXPECT_EQ(Find(d, "snapshot-coverage"), nullptr);
}

TEST(SrcLintTest, FieldLeftOutOfSnapFieldsListIsFlagged) {
  std::vector<Diagnostic> d = LintSources(
      {{"src/snap/snapshot.cc", snapcov::kSnapSource},
       {"src/cpu/trace.h",
        std::string(kListedHeader) + "  uint64_t misses_ = 0;\n};\n"}});
  const Diagnostic* diag = Find(d, "snapshot-coverage");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->line, 9);
  EXPECT_NE(diag->message.find("misses_"), std::string::npos);
}

TEST(SrcLintTest, SnapFieldsCallIsNotAFieldList) {
  // The call's argument list is followed by a block that names spare_; only
  // a definition's body is a list.
  std::vector<Diagnostic> d = LintSources(
      {{"src/snap/snapshot.cc", snapcov::kSnapSource},
       {"src/cpu/cpu.h",
        "class C {\n"
        "  uint64_t spare_ = 0;\n"
        "  void Save(Ar& ar) {\n"
        "    trace_.SnapFields(ar);\n"
        "    if (ar.ok()) { ar.U64(spare_); }\n"
        "  }\n"
        "};\n"}});
  const Diagnostic* diag = Find(d, "snapshot-coverage");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->line, 2);
  EXPECT_NE(diag->message.find("spare_"), std::string::npos);
}

TEST(SrcLintTest, NotSnapshottedAnnotationJustifiesAField) {
  std::vector<Diagnostic> d = LintSources(
      {{"src/snap/snapshot.cc", snapcov::kSnapSource},
       {"src/timer/timer.h",
        "class T {\n"
        "  GicV3* gic_ = nullptr;  // not-snapshotted: host wiring\n"
        "  // not-snapshotted: derived from config\n"
        "  uint64_t period_ = 0;\n"
        "};\n"}});
  EXPECT_EQ(Find(d, "snapshot-coverage"), nullptr);
}

TEST(SrcLintTest, MutexFieldsAreExemptFromSnapshotCoverage) {
  std::vector<Diagnostic> d =
      LintSources({{"src/snap/snapshot.cc", snapcov::kSnapSource},
                   {"src/mem/phys_mem.h",
                    "class P {\n"
                    "  mutable Mutex pages_mu_{\"mem.pages\"};\n"
                    "};\n"}});
  EXPECT_EQ(Find(d, "snapshot-coverage"), nullptr);
}

TEST(SrcLintTest, WithoutSnapLayerCoverageRuleStaysSilent) {
  // Synthetic source sets with no src/snap files (every other lint test)
  // must not drown in coverage findings.
  std::vector<Diagnostic> d = Lint("src/cpu/cpu.h",
                                   "class Cpu {\n"
                                   "  uint64_t mystery_ = 0;\n"
                                   "};\n");
  EXPECT_EQ(Find(d, "snapshot-coverage"), nullptr);
}

TEST(SrcLintTest, DereferenceIsNotADeclarationSite) {
  // `return *ptr_;` must not register ptr_ as a declared member (it would
  // poison both the lockset and the snapshot-coverage catalogs).
  std::vector<Diagnostic> d = LintSources(
      {{"src/snap/snapshot.cc", snapcov::kSnapSource},
       {"src/hyp/host_kvm.h",
        "class H {\n"
        " public:\n"
        "  Machine& machine() { return *wiring_; }\n"
        " private:\n"
        "  Machine* wiring_;  // not-snapshotted: host wiring\n"
        "};\n"}});
  EXPECT_EQ(Find(d, "snapshot-coverage"), nullptr);
}

}  // namespace
}  // namespace neve::analysis
