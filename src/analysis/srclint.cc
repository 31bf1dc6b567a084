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

// Files allowed to index the raw register file directly. (The linter's own
// pattern strings no longer need whitelisting: rules match against views
// with string-literal contents blanked.)
constexpr const char* kRawRegsWhitelist[] = {
    "src/cpu/cpu.h",
    "src/cpu/cpu.cc",
};

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

// Shared engine of StripComments / StripCommentsAndLiterals: a small state
// machine over the text, replacing what the caller wants hidden with spaces.
// Newlines are always kept so line numbers survive; the delimiting quotes of
// a literal are kept so token boundaries survive.
std::string StripImpl(std::string_view content, bool strip_literals) {
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
          if (strip_literals) {
            out[i] = out[i + 1] = ' ';
          }
          ++i;  // the escaped char cannot close the literal
        } else if (c == delim) {
          state = State::kCode;
        } else if (strip_literals && c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

// A source file plus the preprocessed views the rules match against.
// `uncommented` keeps string literals (for required-needle searches like
// traps_to_el2_{"cpu.traps_to_el2"} and for .inc quoted NAMEs); `stripped`
// blanks them too (for call-site pattern matching). Justification comments
// and call-argument text are read from the original `f.content`.
struct LintedFile {
  const SourceFile& f;
  std::string uncommented;
  std::string stripped;
};

int LineOfOffset(std::string_view content, size_t offset) {
  return 1 + static_cast<int>(
                 std::count(content.begin(), content.begin() + offset, '\n'));
}

bool IsCommentLine(std::string_view content, size_t offset) {
  size_t bol = content.rfind('\n', offset);
  bol = (bol == std::string_view::npos) ? 0 : bol + 1;
  while (bol < offset && (content[bol] == ' ' || content[bol] == '\t')) {
    ++bol;
  }
  return content.compare(bol, 2, "//") == 0;
}

// Every occurrence of `pattern` as a whole token prefix (previous char is not
// part of an identifier), skipping comment lines.
std::vector<size_t> FindCalls(std::string_view content,
                              std::string_view pattern) {
  std::vector<size_t> out;
  for (size_t pos = content.find(pattern); pos != std::string_view::npos;
       pos = content.find(pattern, pos + 1)) {
    if (pos > 0 && IdentChar(content[pos - 1])) {
      continue;  // e.g. vregs_[ is not regs_[
    }
    if (!IsCommentLine(content, pos)) {
      out.push_back(pos);
    }
  }
  return out;
}

// --- rule: raw register-file access ------------------------------------------

void LintRawRegisterAccess(const LintedFile& lf, std::vector<Diagnostic>& d) {
  struct Rule {
    const char* pattern;
    bool raw_array;  // uses the tighter regs_[ whitelist
  };
  static constexpr Rule kRules[] = {
      {"regs_[", true}, {"PeekReg(", false}, {"PokeReg(", false}};
  for (const Rule& rule : kRules) {
    bool ok = rule.raw_array ? Whitelisted(lf.f.path, kRawRegsWhitelist)
                             : Whitelisted(lf.f.path, kPeekPokeWhitelist);
    if (ok) {
      continue;
    }
    for (size_t pos : FindCalls(lf.stripped, rule.pattern)) {
      d.push_back({lf.f.path, LineOfOffset(lf.stripped, pos),
                   "raw-register-access",
                   std::string(rule.pattern) +
                       "... bypasses access resolution; use the Cpu "
                       "SysRegRead/SysRegWrite accessors or whitelist this "
                       "file in srclint.cc"});
    }
  }
}

// --- rule: .inc table hygiene ------------------------------------------------

struct IncRow {
  int line = 0;
  std::string id;                     // first macro argument
  std::string name;                   // quoted NAME argument
  std::vector<std::string> args;      // all arguments, trimmed
};

std::string Trim(std::string s) {
  size_t b = s.find_first_not_of(" \t");
  size_t e = s.find_last_not_of(" \t");
  return (b == std::string::npos) ? std::string() : s.substr(b, e - b + 1);
}

std::vector<IncRow> ParseIncRows(std::string_view content,
                                 std::string_view macro) {
  std::vector<IncRow> rows;
  std::string open = std::string(macro) + "(";
  for (size_t pos : FindCalls(content, open)) {
    size_t args_begin = pos + open.size();
    size_t close = content.find(')', args_begin);
    if (close == std::string_view::npos) {
      continue;
    }
    IncRow row;
    row.line = LineOfOffset(content, pos);
    std::string args(content.substr(args_begin, close - args_begin));
    std::istringstream iss(args);
    std::string field;
    while (std::getline(iss, field, ',')) {
      row.args.push_back(Trim(field));
    }
    if (row.args.size() < 2) {
      continue;
    }
    row.id = row.args[0];
    std::string& quoted = row.args[1];
    if (quoted.size() >= 2 && quoted.front() == '"' && quoted.back() == '"') {
      row.name = quoted.substr(1, quoted.size() - 2);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

int EncKindRank(const std::string& kind_arg) {
  if (kind_arg.find("kDirect") != std::string::npos) {
    return 0;
  }
  if (kind_arg.find("kEl12") != std::string::npos) {
    return 1;
  }
  if (kind_arg.find("kEl02") != std::string::npos) {
    return 2;
  }
  return -1;
}

// ICH_LR<n> suffix of a row name, or -1.
int IchLrIndex(const std::string& name) {
  constexpr std::string_view prefix = "ICH_LR";
  if (name.rfind(prefix, 0) != 0) {
    return -1;
  }
  size_t i = prefix.size();
  int n = 0;
  bool any = false;
  while (i < name.size() &&
         std::isdigit(static_cast<unsigned char>(name[i])) != 0) {
    n = n * 10 + (name[i] - '0');
    any = true;
    ++i;
  }
  return (any && name.compare(i, std::string::npos, "_EL2") == 0) ? n : -1;
}

void LintIncRows(const LintedFile& lf, std::string_view macro,
                 std::vector<Diagnostic>& d) {
  // Parsed from the uncommented view: quoted NAME arguments must stay
  // intact, but commented-out rows must not parse.
  const SourceFile& f = lf.f;
  std::vector<IncRow> rows = ParseIncRows(lf.uncommented, macro);
  std::map<std::string, int> ids;
  int prev_kind = 0;
  int prev_lr = -1;
  for (const IncRow& row : rows) {
    if (row.id != "k" + row.name) {
      d.push_back({f.path, row.line, "inc-identifier-name",
                   row.id + ": identifier must be 'k' + NAME (k" + row.name +
                       ")"});
    }
    auto [it, inserted] = ids.emplace(row.id, row.line);
    if (!inserted) {
      d.push_back({f.path, row.line, "inc-duplicate-id",
                   row.id + " already defined at line " +
                       std::to_string(it->second)});
    }
    if (macro == "NEVE_SYSREG" && row.args.size() >= 5) {
      int kind = EncKindRank(row.args[4]);
      if (kind >= 0) {
        if (kind < prev_kind) {
          d.push_back({f.path, row.line, "inc-kind-order",
                       row.id + ": encoding kinds must be grouped kDirect, "
                                "then kEl12, then kEl02"});
        }
        prev_kind = std::max(prev_kind, kind);
      }
    }
    int lr = IchLrIndex(row.name);
    if (lr >= 0) {
      if (prev_lr >= 0 && lr != prev_lr + 1) {
        d.push_back({f.path, row.line, "ich-lr-order",
                     row.name + ": ICH_LR rows must be consecutive and "
                                "ascending (previous was ICH_LR" +
                         std::to_string(prev_lr) + "_EL2)"});
      }
      prev_lr = lr;
    }
  }
}

// --- rule: trap-path instrumentation -----------------------------------------

void LintTrapInstrumentation(const LintedFile& lf,
                             std::vector<Diagnostic>& d) {
  const SourceFile& f = lf.f;
  // The trap counter is a metric handle: cpu.h names it, cpu.cc bumps it.
  // The needles hold the metric name, so search the uncommented view
  // (literals intact, but a commented-out line does not satisfy).
  if (PathMatches(f.path, "src/cpu/cpu.h")) {
    if (lf.uncommented.find("traps_to_el2_{\"cpu.traps_to_el2\"}") ==
        std::string::npos) {
      d.push_back({f.path, 0, "trap-missing-counter",
                   "Cpu declares no traps_to_el2_ handle on the "
                   "cpu.traps_to_el2 counter"});
    }
    return;
  }
  if (!PathMatches(f.path, "src/cpu/cpu.cc")) {
    return;
  }
  for (size_t pos : FindCalls(lf.stripped, "TakeTrapToEl2(")) {
    // The argument list may span lines; scan to the matching close paren on
    // the stripped view (parens inside literals cannot confuse the match),
    // then read the argument text from the ORIGINAL: the detect charge may
    // be an explicit /*detect_cost=*/ comment.
    size_t open = lf.stripped.find('(', pos);
    int depth = 0;
    size_t end = open;
    for (; end < lf.stripped.size(); ++end) {
      if (lf.stripped[end] == '(') {
        ++depth;
      } else if (lf.stripped[end] == ')' && --depth == 0) {
        break;
      }
    }
    std::string call = f.content.substr(open, end - open);
    if (call.find("detect") == std::string::npos) {
      d.push_back({f.path, LineOfOffset(f.content, pos),
                   "trap-missing-detect",
                   "TakeTrapToEl2 call does not charge a detect cost "
                   "(pass cost_.detect_* or an explicit /*detect_cost=*/)"});
    }
  }
  struct Required {
    const char* needle;
    const char* check;
    const char* message;
  };
  static constexpr Required kRequired[] = {
      {"cost_.trap_entry", "trap-missing-entry-charge",
       "trap path never charges cost_.trap_entry"},
      {"cost_.trap_return", "trap-missing-return-charge",
       "trap path never charges cost_.trap_return"},
      {"traps_to_el2_.In(", "trap-missing-counter",
       "trap path never bumps the cpu.traps_to_el2 counter (traps_to_el2_)"},
  };
  for (const Required& req : kRequired) {
    // A commented-out charge or bump does not satisfy.
    if (lf.uncommented.find(req.needle) == std::string::npos) {
      d.push_back({f.path, 0, req.check, req.message});
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

// --- rule: attribution category annotation -----------------------------------

// Files defining the attribution primitives themselves.
constexpr const char* kAttrWhitelist[] = {
    "src/obs/attr.h",
    "src/obs/attr.cc",
    "src/cpu/cpu.h",
};

// The parenthesized argument text of the call starting at `pos`, or "" when
// no '(' opens before the statement ends (a declaration, not a call).
// Boundaries come from the stripped view (parens and semicolons inside
// literals cannot confuse the scan); the text returned is the ORIGINAL,
// comments included, so /*category=*/-style markers survive.
std::string CallArgText(std::string_view stripped, std::string_view original,
                        size_t pos) {
  size_t open = stripped.find('(', pos);
  size_t semi = stripped.find(';', pos);
  if (open == std::string_view::npos ||
      (semi != std::string_view::npos && semi < open)) {
    return "";
  }
  int depth = 0;
  size_t end = open;
  for (; end < stripped.size(); ++end) {
    if (stripped[end] == '(') {
      ++depth;
    } else if (stripped[end] == ')' && --depth == 0) {
      break;
    }
  }
  return std::string(original.substr(open, end - open));
}

// The arguments name a category: a literal AttrCat:: enumerator or an
// expression that computes one (emul_cat, TrapCatForEc(...)).
bool MentionsAttrCategory(const std::string& args) {
  if (args.find("AttrCat::") != std::string::npos) {
    return true;
  }
  std::string lower = args;
  std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  return lower.find("cat") != std::string::npos;
}

// Every cycle-charging attribution site must say *which* category it charges:
// an uncategorized charge silently lands cycles in whatever frame happens to
// be on top, which corrupts the per-category breakdown without tripping the
// conservation invariant. src/cpu/cpu.cc must additionally keep its two
// non-scope charge sites (AdvanceTo's idle rendezvous and the VNCR redirect)
// on their dedicated categories.
void LintAttrCategories(const LintedFile& lf, std::vector<Diagnostic>& d) {
  const SourceFile& f = lf.f;
  if (Whitelisted(f.path, kAttrWhitelist)) {
    return;
  }
  static constexpr const char* kChargePatterns[] = {"ChargeAttributed(",
                                                    "ChargeTo("};
  for (const char* pattern : kChargePatterns) {
    for (size_t pos : FindCalls(lf.stripped, pattern)) {
      if (!MentionsAttrCategory(CallArgText(lf.stripped, f.content, pos))) {
        d.push_back({f.path, LineOfOffset(f.content, pos),
                     "attr-missing-category",
                     std::string(pattern) +
                         "...) charges cycles without an attribution "
                         "category; pass an AttrCat:: enumerator (or an "
                         "expression computing one)"});
      }
    }
  }
  for (size_t pos : FindCalls(lf.stripped, "AttrScope")) {
    std::string args = CallArgText(lf.stripped, f.content, pos);
    if (args.empty()) {
      continue;  // a mention, not a construction
    }
    if (!MentionsAttrCategory(args)) {
      d.push_back({f.path, LineOfOffset(f.content, pos),
                   "attr-missing-category",
                   "AttrScope constructed without an attribution category; "
                   "every frame must name the AttrCat it charges"});
    }
  }
  if (PathMatches(f.path, "src/cpu/cpu.cc")) {
    struct Required {
      const char* needle;
      const char* check;
      const char* message;
    };
    static constexpr Required kRequired[] = {
        {"AttrCat::kIdleWait", "attr-missing-idle-category",
         "AdvanceTo's rendezvous charge must stay on AttrCat::kIdleWait"},
        {"AttrCat::kVncrRedirect", "attr-missing-vncr-category",
         "the VNCR redirect charge must stay on AttrCat::kVncrRedirect"},
    };
    for (const Required& req : kRequired) {
      if (lf.uncommented.find(req.needle) == std::string::npos) {
        d.push_back({f.path, 0, req.check, req.message});
      }
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

// --- rule: obs span balance --------------------------------------------------

void LintSpanBalance(const LintedFile& lf, std::vector<Diagnostic>& d) {
  size_t begins = FindCalls(lf.stripped, "tracer().Begin(").size();
  size_t ends = FindCalls(lf.stripped, "tracer().End(").size();
  if (begins != ends) {
    d.push_back({lf.f.path, 0, "span-balance",
                 "tracer().Begin/End mismatch: " + std::to_string(begins) +
                     " Begin vs " + std::to_string(ends) +
                     " End -- a span leaks or double-closes"});
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
// type-ish token (identifier, '*', '&', '>') precedes it on its own line --
// an assignment statement starts with the member itself -- and one of ';',
// '=', '{', '[' or a GUARDED_BY annotation follows. Heuristic by design:
// srclint is flow-light string matching, and the naming convention plus
// these shape checks pin down the cases that occur in practice.
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

void LintSnapshotCoverage(const std::vector<SourceFile>& files,
                          std::vector<Diagnostic>& d) {
  // Pass 1: every member-style token mentioned anywhere in src/snap counts
  // as covered -- the serializer reads fields to capture them and writes
  // them to restore, so a mere mention is the right (conservative) signal.
  std::set<std::string> covered;
  bool snap_layer_present = false;
  for (const SourceFile& f : files) {
    if (f.path.rfind("src/snap/", 0) != 0) {
      continue;
    }
    snap_layer_present = true;
    std::string s = StripCommentsAndLiterals(f.content);
    for (Token t : MemberTokens(s)) {
      covered.insert(std::string(s.substr(t.pos, t.len)));
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

std::string StripComments(std::string_view content) {
  return StripImpl(content, /*strip_literals=*/false);
}

std::string StripCommentsAndLiterals(std::string_view content) {
  return StripImpl(content, /*strip_literals=*/true);
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
    LintedFile lf{f, StripComments(f.content),
                  StripCommentsAndLiterals(f.content)};
    if (HasSuffix(f.path, ".inc")) {
      LintIncRows(lf, "NEVE_REGID", d);
      LintIncRows(lf, "NEVE_SYSREG", d);
      continue;
    }
    LintRawRegisterAccess(lf, d);
    LintTrapInstrumentation(lf, d);
    LintGuestReachableAborts(lf, d);
    LintAttrCategories(lf, d);
    LintBatchBypass(lf, d);
    LintFuzzUnseededRandomness(lf, d);
    LintSpanBalance(lf, d);
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
    if (ext != ".h" && ext != ".cc" && ext != ".inc") {
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
