#include "src/analysis/srclint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

namespace neve::analysis {
namespace {

// Files allowed to use the non-resolving PeekReg/PokeReg accessors: the CPU
// itself, the host hypervisor's world switch and KVM emulation, and the
// device models that share hardware register state with the CPU.
constexpr const char* kPeekPokeWhitelist[] = {
    "src/cpu/cpu.h",           "src/cpu/cpu.cc",
    "src/hyp/world_switch.cc", "src/hyp/host_kvm.cc",
    "src/gic/gic.cc",          "src/timer/timer.cc",
    "src/workload/microbench.cc",
};

bool PathMatches(std::string_view path, std::string_view repo_relative) {
  if (path == repo_relative) {
    return true;
  }
  return path.size() > repo_relative.size() &&
         path.compare(path.size() - repo_relative.size(),
                      repo_relative.size(), repo_relative) == 0 &&
         path[path.size() - repo_relative.size() - 1] == '/';
}

template <size_t N>
bool Whitelisted(std::string_view path, const char* const (&list)[N]) {
  for (const char* entry : list) {
    if (PathMatches(path, entry)) {
      return true;
    }
  }
  return false;
}

bool IdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// A source file plus the view the rules match against: `stripped` has
// comments and literal contents blanked. Justification comments are read
// from the original `f.content`.
struct LintedFile {
  const SourceFile& f;
  std::string stripped;
};

int LineOfOffset(std::string_view content, size_t offset) {
  return 1 + static_cast<int>(
                 std::count(content.begin(), content.begin() + offset, '\n'));
}

// Every occurrence of `pattern` in a stripped view as a whole token prefix
// (previous char is not part of an identifier).
std::vector<size_t> FindCalls(std::string_view stripped,
                              std::string_view pattern) {
  std::vector<size_t> out;
  for (size_t pos = stripped.find(pattern); pos != std::string_view::npos;
       pos = stripped.find(pattern, pos + 1)) {
    if (pos == 0 || !IdentChar(stripped[pos - 1])) {
      out.push_back(pos);
    }
  }
  return out;
}

// --- rule: raw register-file access ------------------------------------------

void LintRawRegisterAccess(const LintedFile& lf, std::vector<Diagnostic>& d) {
  if (Whitelisted(lf.f.path, kPeekPokeWhitelist)) {
    return;
  }
  for (const char* pattern : {"PeekReg(", "PokeReg("}) {
    for (size_t pos : FindCalls(lf.stripped, pattern)) {
      d.push_back({lf.f.path, LineOfOffset(lf.stripped, pos),
                   "raw-register-access",
                   std::string(pattern) +
                       "... bypasses access resolution; use the Cpu "
                       "SysRegRead/SysRegWrite accessors or whitelist this "
                       "file in srclint.cc"});
    }
  }
}

// --- rule: guest-reachable aborts --------------------------------------------

// Layers a guest can drive trap paths through: a failed NEVE_CHECK there
// takes the whole machine down with the guest's bug. Checks in these
// directories must either be confined (NEVE_GUEST_CHECK / RaiseGuestFault)
// or justified as unreachable-by-guest with a `// host-invariant:` comment.
constexpr const char* kConfinedDirs[] = {"src/hyp/", "src/gic/", "src/x86/"};

bool InConfinedDir(std::string_view path) {
  for (const char* dir : kConfinedDirs) {
    if (path.rfind(dir, 0) == 0) {
      return true;
    }
  }
  return false;
}

// True when `needle` (a justification marker like "host-invariant:" or
// "single-mutator:") appears on the match's own line or within the two
// preceding lines. Always evaluated on ORIGINAL text: justifications live
// in comments.
bool JustifiedNear(std::string_view content, size_t pos,
                   std::string_view needle) {
  size_t bol = content.rfind('\n', pos);
  bol = (bol == std::string_view::npos) ? 0 : bol + 1;
  for (int i = 0; i < 2 && bol >= 2; ++i) {
    size_t prev = content.rfind('\n', bol - 2);
    bol = (prev == std::string_view::npos) ? 0 : prev + 1;
  }
  size_t eol = content.find('\n', pos);
  if (eol == std::string_view::npos) {
    eol = content.size();
  }
  return content.substr(bol, eol - bol).find(needle) !=
         std::string_view::npos;
}

void LintGuestReachableAborts(const LintedFile& lf,
                              std::vector<Diagnostic>& d) {
  const SourceFile& f = lf.f;
  if (!InConfinedDir(f.path)) {
    return;
  }
  static constexpr const char* kPatterns[] = {"NEVE_CHECK(", "NEVE_CHECK_MSG(",
                                              "abort("};
  for (const char* pattern : kPatterns) {
    for (size_t pos : FindCalls(lf.stripped, pattern)) {
      if (JustifiedNear(f.content, pos, "host-invariant:")) {
        continue;
      }
      d.push_back({f.path, LineOfOffset(f.content, pos),
                   "guest-reachable-abort",
                   std::string(pattern) +
                       "...) in a guest-drivable layer takes the machine "
                       "down with the guest; confine it (NEVE_GUEST_CHECK / "
                       "RaiseGuestFault) or justify it with a "
                       "'// host-invariant:' comment within the two "
                       "preceding lines"});
    }
  }
}

// --- rule: batch-bypass ------------------------------------------------------

// The batch engine's contract is ONE aggregated charge (and one counter
// delta) per executed block. A per-op Charge/metric call sneaking into a
// batch-eligible path keeps byte-identity -- the cycles still add up -- so
// no differential test catches it; what it silently destroys is the
// aggregation itself, i.e. the engine's entire perf win. Every charging or
// metric call under src/sim/batch must therefore say which side of the
// contract it is on: `// block-delta:` (an aggregated per-block apply site)
// or `// unbatched:` (a deliberate per-op fallback path), on the call's line
// or the two lines above.
void LintBatchBypass(const LintedFile& lf, std::vector<Diagnostic>& d) {
  const SourceFile& f = lf.f;
  if (f.path.rfind("src/sim/batch/", 0) != 0) {
    return;
  }
  static constexpr const char* kPatterns[] = {
      "Charge(", "ChargeAttributed(", "ChargeTo(", "Counter(", "Instant("};
  for (const char* pattern : kPatterns) {
    for (size_t pos : FindCalls(lf.stripped, pattern)) {
      if (JustifiedNear(f.content, pos, "block-delta:") ||
          JustifiedNear(f.content, pos, "unbatched:")) {
        continue;
      }
      d.push_back({f.path, LineOfOffset(f.content, pos), "batch-bypass",
                   std::string(pattern) +
                       "...) in the batch layer without a contract marker; "
                       "annotate it '// block-delta: <why>' (aggregated "
                       "per-block apply site) or '// unbatched: <why>' "
                       "(deliberate per-op fallback) within the two "
                       "preceding lines"});
    }
  }
}

// --- rule: unseeded randomness in the fuzzer ---------------------------------

// The fuzzer's determinism contract (stackfuzz output is a pure function of
// --seed/--runs) dies the moment any ambient entropy source sneaks in. All
// randomness in src/fuzz must flow from the seeded neve::Rng.
void LintFuzzUnseededRandomness(const LintedFile& lf,
                                std::vector<Diagnostic>& d) {
  const SourceFile& f = lf.f;
  if (f.path.rfind("src/fuzz/", 0) != 0) {
    return;
  }
  static constexpr const char* kForbidden[] = {
      "rand(",        "srand(",       "random_device",
      "mt19937",      "minstd_rand",  "default_random_engine",
      "drand48(",     "lrand48(",     "ranlux",
  };
  for (const char* pattern : kForbidden) {
    for (size_t pos : FindCalls(lf.stripped, pattern)) {
      d.push_back({f.path, LineOfOffset(f.content, pos),
                   "fuzz-unseeded-randomness",
                   std::string(pattern) +
                       "... is ambient entropy; src/fuzz must derive all "
                       "randomness from the seeded neve::Rng so campaigns "
                       "replay byte-identically"});
    }
  }
}

bool HasSuffix(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// --- rule: shared-mutation lockset audit -------------------------------------

// Directories whose classes the lockset audit enforces (the simulator's
// guest-state-bearing layers). Declarations elsewhere still enter the
// catalog -- so a name declared in several classes resolves toward the union
// of its home TUs -- but only audited members produce diagnostics.
constexpr const char* kLocksetDirs[] = {"src/cpu/", "src/hyp/", "src/gic/",
                                        "src/mem/", "src/sim/"};

bool InLocksetDir(std::string_view path) {
  for (const char* dir : kLocksetDirs) {
    if (path.rfind(dir, 0) == 0) {
      return true;
    }
  }
  return false;
}

// src/hyp/virtio.cc -> "virtio": the TU stem. foo.h and foo.cc share a stem
// and therefore a TU (the header is textually part of the .cc that includes
// it), so header-inline mutations are home.
std::string TuStem(std::string_view path) {
  size_t slash = path.rfind('/');
  std::string_view base =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  size_t dot = base.rfind('.');
  return std::string(dot == std::string_view::npos ? base
                                                   : base.substr(0, dot));
}

struct Token {
  size_t pos = 0;
  size_t len = 0;
};

// Identifier tokens that follow the repo's member-naming convention:
// lowercase start, trailing underscore, at least one more character.
std::vector<Token> MemberTokens(std::string_view s) {
  std::vector<Token> out;
  size_t i = 0;
  while (i < s.size()) {
    if (!IdentChar(s[i]) || (i > 0 && IdentChar(s[i - 1]))) {
      ++i;
      continue;
    }
    size_t e = i;
    while (e < s.size() && IdentChar(s[e])) {
      ++e;
    }
    if (e - i >= 2 && s[e - 1] == '_' &&
        std::islower(static_cast<unsigned char>(s[i])) != 0) {
      out.push_back({i, e - i});
    }
    i = e;
  }
  return out;
}

// True when the token at [pos, pos+len) reads as a member *declaration*: a
// type-ish token (identifier, '*', '&', a template's '>') precedes it on its
// own line -- an assignment statement starts with the member itself or its
// `obj.`/`ptr->` path -- and one of ';', '=', '{', '[' or a GUARDED_BY
// annotation follows. Heuristic by design: srclint is flow-light string
// matching, and the naming convention plus these shape checks pin down the
// cases that occur in practice.
bool IsDeclSite(std::string_view s, size_t pos, size_t len) {
  size_t bol = s.rfind('\n', pos);
  bol = (bol == std::string_view::npos) ? 0 : bol + 1;
  size_t p = pos;
  while (p > bol && (s[p - 1] == ' ' || s[p - 1] == '\t')) {
    --p;
  }
  if (p == bol) {
    return false;  // starts the line: an assignment or a wrapped expression
  }
  char prev = s[p - 1];
  if (!IdentChar(prev) && prev != '*' && prev != '&' && prev != '>') {
    return false;
  }
  if (prev == '&' && p >= 2 && s[p - 2] == '&') {
    return false;  // `a && b_` is an expression, not `T& b_`
  }
  if (prev == '>' && p >= 2 && s[p - 2] == '-') {
    return false;  // `ptr->b_` is a member access, not `T<U> b_`
  }
  // Walk back over pointer/reference decoration to the type-ish token, so
  // `return *ptr_;` is recognized as a dereference, not a `T* ptr_;` decl.
  size_t te = p;
  while (te > bol && (s[te - 1] == '*' || s[te - 1] == '&' ||
                      s[te - 1] == ' ' || s[te - 1] == '\t')) {
    --te;
  }
  if (te > bol && IdentChar(s[te - 1])) {
    size_t tb = te;
    while (tb > bol && IdentChar(s[tb - 1])) {
      --tb;
    }
    std::string_view tok = s.substr(tb, te - tb);
    if (tok == "return" || tok == "co_return" || tok == "delete" ||
        tok == "new" || tok == "case" || tok == "goto" || tok == "throw") {
      return false;
    }
  }
  size_t q = pos + len;
  while (q < s.size() && (s[q] == ' ' || s[q] == '\t' || s[q] == '\n')) {
    ++q;
  }
  if (q >= s.size()) {
    return false;
  }
  if (s[q] == '=') {
    return q + 1 >= s.size() || s[q + 1] != '=';  // `==` compares
  }
  if (s[q] == ';' || s[q] == '{' || s[q] == '[') {
    return true;
  }
  return s.compare(q, 11, "GUARDED_BY(") == 0;
}

// True when the token at [pos, pos+len) is *mutated*: assigned (compound
// assignments included), incremented or decremented, directly or through
// one [subscript].
bool IsWriteSite(std::string_view s, size_t pos, size_t len) {
  // Prefix ++/-- applies to the whole access path: walk back over
  // `obj.`/`ptr->` chains (`++w.pending_` mutates pending_).
  size_t p = pos;
  while (true) {
    while (p > 0 && (s[p - 1] == ' ' || s[p - 1] == '\t')) {
      --p;
    }
    if (p >= 1 && s[p - 1] == '.') {
      --p;
    } else if (p >= 2 && s[p - 1] == '>' && s[p - 2] == '-') {
      p -= 2;
    } else {
      break;
    }
    while (p > 0 && IdentChar(s[p - 1])) {
      --p;
    }
  }
  if (p >= 2 && ((s[p - 1] == '+' && s[p - 2] == '+') ||
                 (s[p - 1] == '-' && s[p - 2] == '-'))) {
    return true;  // prefix ++/--
  }
  size_t q = pos + len;
  while (q < s.size() && (s[q] == ' ' || s[q] == '\t')) {
    ++q;
  }
  if (q < s.size() && s[q] == '[') {
    int depth = 0;
    for (; q < s.size(); ++q) {
      if (s[q] == '[') {
        ++depth;
      } else if (s[q] == ']' && --depth == 0) {
        ++q;
        break;
      }
    }
  }
  while (q < s.size() && (s[q] == ' ' || s[q] == '\t' || s[q] == '\n')) {
    ++q;
  }
  if (q >= s.size()) {
    return false;
  }
  if (q + 1 < s.size() && ((s[q] == '+' && s[q + 1] == '+') ||
                           (s[q] == '-' && s[q + 1] == '-'))) {
    return true;  // postfix ++/--
  }
  static constexpr std::string_view kOps[] = {
      "<<=", ">>=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="};
  for (std::string_view op : kOps) {
    if (s.compare(q, op.size(), op) == 0) {
      return true;
    }
  }
  return s[q] == '=' && (q + 1 >= s.size() || s[q + 1] != '=');
}

// --- rule: snapshot coverage -------------------------------------------------

// Directories whose headers declare checkpointable guest/host state. Every
// `member_`-style field there must either appear in src/snap (serialized,
// reconstructed, or structurally verified by the serializer) or carry a
// `// not-snapshotted: <why>` annotation.
constexpr const char* kSnapshotDirs[] = {"src/cpu/", "src/hyp/", "src/gic/",
                                         "src/mem/", "src/timer/"};

bool InSnapshotDir(std::string_view path) {
  for (const char* dir : kSnapshotDirs) {
    if (path.rfind(dir, 0) == 0) {
      return true;
    }
  }
  return false;
}

// The identifier token immediately before `pos` (skipping blanks), or "".
std::string_view PrecedingIdentifier(std::string_view s, size_t pos) {
  size_t p = pos;
  while (p > 0 && (s[p - 1] == ' ' || s[p - 1] == '\t')) {
    --p;
  }
  size_t e = p;
  while (p > 0 && IdentChar(s[p - 1])) {
    --p;
  }
  return s.substr(p, e - p);
}

// The end of the bracketed run that opens at s[pos] (one past its closing
// bracket), or s.size() when it never closes.
size_t SkipBracketed(std::string_view s, size_t pos, char open, char close) {
  int depth = 0;
  for (size_t p = pos; p < s.size(); ++p) {
    if (s[p] == open) {
      ++depth;
    } else if (s[p] == close && --depth == 0) {
      return p + 1;
    }
  }
  return s.size();
}

// The bodies of `SnapFields(...) { ... }` definitions: the field lists of
// classes whose private fields a snapshot encodes through the class's own
// hook. A call `x.SnapFields(ar);` has no body and lists nothing.
std::vector<std::string_view> SnapFieldsBodies(std::string_view s) {
  std::vector<std::string_view> out;
  for (size_t pos : FindCalls(s, "SnapFields(")) {
    size_t p = SkipBracketed(s, s.find('(', pos), '(', ')');
    while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) {
      ++p;
    }
    if (p < s.size() && s[p] == '{') {
      out.push_back(s.substr(p, SkipBracketed(s, p, '{', '}') - p));
    }
  }
  return out;
}

void LintSnapshotCoverage(const std::vector<SourceFile>& files,
                          std::vector<Diagnostic>& d) {
  // Pass 1: every member-style token mentioned anywhere in src/snap counts
  // as covered -- the serializer reads fields to capture them and writes
  // them to restore, so a mere mention is the right (conservative) signal
  // -- and so does every one named in a SnapFields list, which the
  // serializer encodes and restores with its class's whole object.
  std::set<std::string> covered;
  bool snap_layer_present = false;
  for (const SourceFile& f : files) {
    std::string s = StripCommentsAndLiterals(f.content);
    const bool in_snap = f.path.rfind("src/snap/", 0) == 0;
    snap_layer_present = snap_layer_present || in_snap;
    std::vector<std::string_view> lists = SnapFieldsBodies(s);
    if (in_snap) {
      lists.push_back(s);
    }
    for (std::string_view list : lists) {
      for (Token t : MemberTokens(list)) {
        covered.insert(std::string(list.substr(t.pos, t.len)));
      }
    }
  }
  if (!snap_layer_present) {
    return;  // nothing to audit against (e.g. a synthetic test source set)
  }
  // Pass 2: audit declarations in the state-bearing headers.
  for (const SourceFile& f : files) {
    if (!InSnapshotDir(f.path) || !HasSuffix(f.path, ".h")) {
      continue;
    }
    std::string s = StripCommentsAndLiterals(f.content);
    for (Token t : MemberTokens(s)) {
      if (!IsDeclSite(s, t.pos, t.len)) {
        continue;
      }
      // Host-side synchronization primitives hold no guest state.
      if (PrecedingIdentifier(s, t.pos) == "Mutex") {
        continue;
      }
      std::string name(s.substr(t.pos, t.len));
      if (covered.count(name) != 0) {
        continue;
      }
      if (JustifiedNear(f.content, t.pos, "not-snapshotted:")) {
        continue;
      }
      d.push_back({f.path, LineOfOffset(s, t.pos), "snapshot-coverage",
                   "'" + name +
                       "' is neither serialized in src/snap nor annotated "
                       "'// not-snapshotted: <why>' on the declaration or "
                       "the two lines above; checkpoint/restore would "
                       "silently drop it"});
    }
  }
}

void LintLockset(const std::vector<SourceFile>& files,
                 std::vector<Diagnostic>& d) {
  for (const LocksetMember& m : LocksetInventory(files)) {
    if (!m.audited || m.guarded || m.justified) {
      continue;
    }
    for (const LocksetWrite& w : m.foreign_writes) {
      d.push_back({w.path, w.line, "lockset-multi-tu-mutation",
                   "'" + m.name + "' (declared at " + m.declared_in + ":" +
                       std::to_string(m.declared_line) +
                       ") is mutated outside its declaring translation unit; "
                       "guard it with GUARDED_BY(mu) on the declaration or "
                       "justify it with a '// single-mutator: <why>' comment "
                       "there"});
    }
  }
}

}  // namespace

// A small state machine over the text, replacing comments and literal
// contents with spaces. Newlines are always kept so line numbers survive;
// the delimiting quotes of a literal are kept so token boundaries survive.
std::string StripCommentsAndLiterals(std::string_view content) {
  std::string out(content);
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < content.size(); ++i) {
    char c = content[i];
    char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = State::kLineComment;
        } else if (c == '/' && next == '*') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = State::kBlockComment;
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'' && (i == 0 || !IdentChar(content[i - 1]))) {
          // An apostrophe after an identifier char is a digit separator
          // (1'000'000) or a literal suffix, not a character literal.
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        char delim = state == State::kString ? '"' : '\'';
        if (c == '\\' && i + 1 < content.size()) {
          out[i] = out[i + 1] = ' ';
          ++i;  // the escaped char cannot close the literal
        } else if (c == delim) {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::vector<LocksetMember> LocksetInventory(
    const std::vector<SourceFile>& files) {
  std::vector<std::string> stripped;
  stripped.reserve(files.size());
  for (const SourceFile& f : files) {
    stripped.push_back(StripCommentsAndLiterals(f.content));
  }
  // Pass 1: declarations build the catalog and each name's home-TU union.
  std::map<std::string, LocksetMember> members;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const SourceFile& f = files[fi];
    const std::string& s = stripped[fi];
    for (Token t : MemberTokens(s)) {
      if (!IsDeclSite(s, t.pos, t.len)) {
        continue;
      }
      std::string name(s.substr(t.pos, t.len));
      LocksetMember& m = members[name];
      if (m.name.empty()) {
        m.name = name;
        m.declared_in = f.path;
        m.declared_line = LineOfOffset(s, t.pos);
      }
      m.audited = m.audited || InLocksetDir(f.path);
      // GUARDED_BY may sit on a continuation line, so scan to the
      // declaration's terminating semicolon (literal semicolons are blanked
      // in the stripped view and cannot cut the statement short).
      size_t semi = s.find(';', t.pos);
      size_t stmt_end = semi == std::string::npos ? s.size() : semi;
      if (s.substr(t.pos, stmt_end - t.pos).find("GUARDED_BY(") !=
          std::string::npos) {
        m.guarded = true;
      }
      if (JustifiedNear(f.content, t.pos, "single-mutator:")) {
        m.justified = true;
      }
      std::string stem = TuStem(f.path);
      if (std::find(m.home_tus.begin(), m.home_tus.end(), stem) ==
          m.home_tus.end()) {
        m.home_tus.push_back(stem);
      }
    }
  }
  // Pass 2: mutation sites, classified home/foreign against the catalog.
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const SourceFile& f = files[fi];
    const std::string& s = stripped[fi];
    std::string stem = TuStem(f.path);
    for (Token t : MemberTokens(s)) {
      auto it = members.find(std::string(s.substr(t.pos, t.len)));
      if (it == members.end() || !IsWriteSite(s, t.pos, t.len)) {
        continue;
      }
      LocksetMember& m = it->second;
      if (std::find(m.writer_tus.begin(), m.writer_tus.end(), stem) ==
          m.writer_tus.end()) {
        m.writer_tus.push_back(stem);
      }
      if (std::find(m.home_tus.begin(), m.home_tus.end(), stem) ==
          m.home_tus.end()) {
        m.foreign_writes.push_back({f.path, LineOfOffset(s, t.pos)});
      }
    }
  }
  std::vector<LocksetMember> out;
  out.reserve(members.size());
  for (auto& [name, m] : members) {
    std::sort(m.home_tus.begin(), m.home_tus.end());
    std::sort(m.writer_tus.begin(), m.writer_tus.end());
    out.push_back(std::move(m));
  }
  return out;
}

std::vector<Diagnostic> LintSources(const std::vector<SourceFile>& files) {
  std::vector<Diagnostic> d;
  for (const SourceFile& f : files) {
    LintedFile lf{f, StripCommentsAndLiterals(f.content)};
    LintRawRegisterAccess(lf, d);
    LintGuestReachableAborts(lf, d);
    LintBatchBypass(lf, d);
    LintFuzzUnseededRandomness(lf, d);
  }
  LintLockset(files, d);
  LintSnapshotCoverage(files, d);
  return d;
}

std::vector<SourceFile> LoadRepoSources(const std::string& repo_root) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> files;
  fs::path src = fs::path(repo_root) / "src";
  std::error_code ec;
  if (!fs::is_directory(src, ec)) {
    return files;
  }
  for (fs::recursive_directory_iterator it(src, ec), end; it != end;
       it.increment(ec)) {
    if (ec || !it->is_regular_file()) {
      continue;
    }
    std::string ext = it->path().extension().string();
    if (ext != ".h" && ext != ".cc") {
      continue;
    }
    std::ifstream in(it->path(), std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    std::string rel =
        fs::relative(it->path(), fs::path(repo_root), ec).generic_string();
    if (ec) {
      rel = it->path().generic_string();
    }
    files.push_back({std::move(rel), content.str()});
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return files;
}

}  // namespace neve::analysis
