// Source lint: repo-convention checks that no type can express.
//
// Rules:
//   raw-register-access   non-resolving register-file accessors (PeekReg,
//                         PokeReg) outside the whitelisted CPU/hypervisor/
//                         device files; everything else must go through the
//                         resolving SysRegRead/SysRegWrite accessors
//   guest-reachable-abort NEVE_CHECK / NEVE_CHECK_MSG / abort() in the
//                         guest-drivable layers (src/hyp, src/gic, src/x86)
//                         without a `// host-invariant:` justification on
//                         the same line or the two lines above; such checks
//                         must be confined (NEVE_GUEST_CHECK or
//                         RaiseGuestFault) so a guest bug kills only its VM
//   batch-bypass          charging/metric calls (Charge, ChargeAttributed,
//                         ChargeTo, Counter, Instant) under src/sim/batch
//                         without a contract marker; the batch engine's
//                         aggregated-charge contract requires every such
//                         site to be annotated `// block-delta: <why>`
//                         (per-block apply site) or `// unbatched: <why>`
//                         (deliberate per-op fallback) on the call's line or
//                         the two lines above
//   fuzz-unseeded-randomness
//                         ambient entropy sources (rand, std::random_device,
//                         mt19937, drand48, ...) anywhere under src/fuzz;
//                         the fuzzer's byte-identical-replay contract
//                         requires every random bit to come from the seeded
//                         neve::Rng
//   lockset-multi-tu-mutation
//                         the shared-mutation audit (DESIGN.md 6i): a
//                         `member_`-style field declared in src/cpu, src/hyp,
//                         src/gic, src/mem or src/sim that is assigned or
//                         incremented from a translation unit other than its
//                         declaring one must either be GUARDED_BY(mu) on its
//                         declaration or carry a `// single-mutator: <why>`
//                         justification on the declaration line or the two
//                         lines above
//   snapshot-coverage     the checkpoint completeness audit (DESIGN.md 6k):
//                         a `member_`-style field declared in a header under
//                         src/cpu, src/hyp, src/gic, src/mem or src/timer
//                         must either be mentioned in src/snap (serialized,
//                         reconstructed or structurally verified), be named
//                         in the body of a `SnapFields(...) { ... }` field
//                         list (a class whose object the serializer copies
//                         whole and encodes through that list; a call
//                         `x.SnapFields(ar);` lists nothing), or carry a
//                         `// not-snapshotted: <why>` annotation on the
//                         declaration line or the two lines above; Mutex
//                         members are exempt (host-side synchronization).
//                         Silent when the source set has no src/snap files.
//
// What a type can hold is left to the compiler (DESIGN.md 6d): .inc row
// form, trap detect costs, attribution categories, balanced trace spans,
// and the private register array (Cpu::regs_, reached only by its friends).
//
// False-positive hardening: every pattern rule matches against a
// preprocessed view of the file with comments and string/char-literal
// contents blanked out -- a `PokeReg(` inside a comment or a "PeekReg("
// inside a string literal is not a finding. The view is length- and
// newline-preserving, so offsets and line numbers computed on it hold on the
// original text. Justification comments (`// host-invariant:`,
// `// single-mutator:`) are read from the ORIGINAL text.
//
// The linter operates on (path, content) pairs so tests can feed it seeded
// bad sources; LoadRepoSources gathers the real tree for the CLI.

#ifndef NEVE_SRC_ANALYSIS_SRCLINT_H_
#define NEVE_SRC_ANALYSIS_SRCLINT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/model.h"

namespace neve::analysis {

struct SourceFile {
  std::string path;  // repo-relative, forward slashes
  std::string content;
};

// Comment text (// and /* */) and the *contents* of string and character
// literals replaced by spaces (the delimiting quotes stay, so tokenization
// boundaries survive). Length- and newline-preserving: offsets and line
// numbers computed on the result hold on the input. Raw string literals are
// not understood; the repo style avoids them.
std::string StripCommentsAndLiterals(std::string_view content);

// One mutation site of a lockset-audited member outside its home TU.
struct LocksetWrite {
  std::string path;
  int line = 0;
};

// The shared-mutation catalog entry for one `member_`-style field name.
// Declarations of the same name in different classes are merged: the home
// set is the union of their TU stems, which errs toward accepting (a write
// in any declaring TU is home) rather than misattributing.
struct LocksetMember {
  std::string name;
  std::string declared_in;           // first declaring file
  int declared_line = 0;             // line of that declaration
  bool audited = false;              // some declaration is in an audited dir
  bool guarded = false;              // a declaration carries GUARDED_BY(...)
  bool justified = false;            // a declaration carries single-mutator:
  std::vector<std::string> home_tus;     // TU stems that may mutate freely
  std::vector<std::string> writer_tus;   // TU stems that actually mutate
  std::vector<LocksetWrite> foreign_writes;  // mutations outside home_tus
};

// Scans every file for member declarations and mutation sites; the basis of
// the lockset-multi-tu-mutation rule and of `srclint --lockset`. Sorted by
// member name.
std::vector<LocksetMember> LocksetInventory(
    const std::vector<SourceFile>& files);

std::vector<Diagnostic> LintSources(const std::vector<SourceFile>& files);

// Reads every .h/.cc under <repo_root>/src, paths repo-relative, sorted.
// Missing root yields an empty list.
std::vector<SourceFile> LoadRepoSources(const std::string& repo_root);

}  // namespace neve::analysis

#endif  // NEVE_SRC_ANALYSIS_SRCLINT_H_
