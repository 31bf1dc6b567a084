// Enforces the perf floors in tools/perf_ratchet.txt against one or more
// google-benchmark JSON files (simcore_gbench --json=<path>).
//
//   $ ./build/tools/perf_ratchet tools/perf_ratchet.txt BENCH_simcore.json
//         [more.json ...]
//
// Passing several JSON files makes the check best-of-N: each benchmark's
// items_per_second is the maximum across every file that carries it, so a
// single noisy run on a loaded CI host can't fail a floor that a retry
// clears (the same min-of-reps discipline as tests/attr_test.cc's
// AttrOverheadGuard). ci.sh's smoke stage feeds the full BENCH_simcore.json
// run plus two extra GuestOpsBurst-only runs.
//
// Ratchet file format (tools/perf_ratchet.txt), '#' comments allowed:
//
//   min_ratio <numerator-bench> <denominator-bench> <floor>
//       best(numerator).items_per_second / best(denominator) >= floor.
//       Host-independent: both sides ran on the same machine, so the ratio
//       survives slow CI hardware. This is the lock on the batch engine's
//       speedup over the interpreter.
//
//   min_items_per_second <bench> <floor>
//       best(bench).items_per_second >= floor. Host-dependent; floors are
//       set far below healthy numbers and exist to catch order-of-magnitude
//       collapses (an accidental O(n^2), a Debug-built CI binary), not to
//       police small regressions.
//
// A benchmark named by any directive that appears in NO input file is a
// failure: deleting or renaming a ratcheted benchmark must be a conscious
// edit of the ratchet file, never a silent skip. Floors ratchet like
// tools/coverage_ratchet.txt: when the measured numbers rise, raise the
// floor to just below the new value.
//
// The JSON fields are extracted with a purpose-built scanner rather than a
// full parser: bench_json_check validates the documents structurally first
// in CI, and this tool only needs the ("name", items_per_second) pairs,
// which google-benchmark emits in that order inside each benchmark object.
// --selftest exercises the scanner and every directive verdict.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

// --- google-benchmark JSON scanning -----------------------------------------

// Reads the JSON string literal starting at text[pos] == '"'. Escapes other
// than \" are passed through verbatim: benchmark names are C++ identifiers
// and never need them.
std::string ReadString(const std::string& text, size_t* pos) {
  std::string out;
  size_t i = *pos + 1;
  while (i < text.size() && text[i] != '"') {
    if (text[i] == '\\' && i + 1 < text.size()) {
      out.push_back(text[i + 1]);
      i += 2;
      continue;
    }
    out.push_back(text[i++]);
  }
  *pos = i < text.size() ? i + 1 : i;
  return out;
}

// Merges the ("name", items_per_second) pairs of one google-benchmark JSON
// document into `best`, keeping the maximum per name. Returns false when the
// text carries no benchmark entries at all (wrong file, empty filter).
bool ScanBenchJson(const std::string& text,
                   std::map<std::string, double>* best) {
  bool any = false;
  std::string current;  // last "name" value seen
  size_t pos = 0;
  while (pos < text.size()) {
    if (text[pos] != '"') {
      ++pos;
      continue;
    }
    std::string key = ReadString(text, &pos);
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    if (pos >= text.size() || text[pos] != ':') {
      continue;  // a string value, not a key
    }
    ++pos;
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    if (key == "name" && pos < text.size() && text[pos] == '"') {
      current = ReadString(text, &pos);
      continue;
    }
    if (key == "items_per_second" && !current.empty()) {
      double v = std::strtod(text.c_str() + pos, nullptr);
      auto it = best->find(current);
      if (it == best->end() || v > it->second) {
        (*best)[current] = v;
      }
      any = true;
    }
  }
  return any;
}

// --- ratchet directives ------------------------------------------------------

struct Directive {
  enum class Kind { kMinRatio, kMinItemsPerSecond };
  Kind kind;
  std::string bench;    // numerator for kMinRatio
  std::string divisor;  // denominator, kMinRatio only
  double floor = 0;
  int line = 0;
};

bool ParseRatchet(const std::string& text, std::vector<Directive>* out,
                  std::string* error) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string verb;
    if (!(fields >> verb)) {
      continue;  // blank or comment-only
    }
    Directive d;
    d.line = lineno;
    if (verb == "min_ratio") {
      d.kind = Directive::Kind::kMinRatio;
      if (!(fields >> d.bench >> d.divisor >> d.floor)) {
        *error = "line " + std::to_string(lineno) +
                 ": want: min_ratio <bench> <bench> <floor>";
        return false;
      }
    } else if (verb == "min_items_per_second") {
      d.kind = Directive::Kind::kMinItemsPerSecond;
      if (!(fields >> d.bench >> d.floor)) {
        *error = "line " + std::to_string(lineno) +
                 ": want: min_items_per_second <bench> <floor>";
        return false;
      }
    } else {
      *error = "line " + std::to_string(lineno) + ": unknown directive '" +
               verb + "'";
      return false;
    }
    if (d.floor <= 0) {
      *error = "line " + std::to_string(lineno) + ": floor must be positive";
      return false;
    }
    out->push_back(d);
  }
  if (out->empty()) {
    *error = "no directives";
    return false;
  }
  return true;
}

// --- enforcement -------------------------------------------------------------

// Returns the number of failed directives, printing each verdict.
int Enforce(const std::vector<Directive>& directives,
            const std::map<std::string, double>& best) {
  int failures = 0;
  auto lookup = [&](const std::string& name, double* v) {
    auto it = best.find(name);
    if (it == best.end()) {
      std::fprintf(stderr,
                   "FAIL: benchmark '%s' missing from every input file "
                   "(renamed or deleted? edit tools/perf_ratchet.txt)\n",
                   name.c_str());
      return false;
    }
    *v = it->second;
    return true;
  };
  for (const Directive& d : directives) {
    switch (d.kind) {
      case Directive::Kind::kMinRatio: {
        double num = 0, den = 0;
        if (!lookup(d.bench, &num) || !lookup(d.divisor, &den)) {
          ++failures;
          break;
        }
        double ratio = den > 0 ? num / den : 0;
        bool ok = ratio >= d.floor;
        std::printf("%s: %s / %s = %.2fx (floor %.2fx)\n",
                    ok ? "ok" : "FAIL", d.bench.c_str(), d.divisor.c_str(),
                    ratio, d.floor);
        failures += ok ? 0 : 1;
        break;
      }
      case Directive::Kind::kMinItemsPerSecond: {
        double v = 0;
        if (!lookup(d.bench, &v)) {
          ++failures;
          break;
        }
        bool ok = v >= d.floor;
        std::printf("%s: %s = %.3g items/s (floor %.3g)\n",
                    ok ? "ok" : "FAIL", d.bench.c_str(), v, d.floor);
        failures += ok ? 0 : 1;
        break;
      }
    }
  }
  return failures;
}

// --- selftest ----------------------------------------------------------------

int Selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAIL: %s\n", what);
      ++failures;
    }
  };

  // Scanner: names pair with their own items_per_second; entries without
  // the field (e.g. BM_StackConstruction) are skipped; string values that
  // merely contain a colon in prose don't desync the key detection.
  const std::string json1 = R"({
    "context": {"executable": "simcore_gbench", "note": "key: value prose"},
    "benchmarks": [
      {"name": "BM_A_interp", "real_time": 9.0, "items_per_second": 100.0},
      {"name": "BM_NoItems", "real_time": 2.0},
      {"name": "BM_A_batched", "real_time": 3.0, "items_per_second": 400.0}
    ]
  })";
  const std::string json2 = R"({
    "benchmarks": [
      {"name": "BM_A_interp", "items_per_second": 90.0},
      {"name": "BM_A_batched", "items_per_second": 440.0}
    ]
  })";
  std::map<std::string, double> best;
  expect(ScanBenchJson(json1, &best), "json1 scans");
  expect(ScanBenchJson(json2, &best), "json2 scans");
  expect(best.size() == 2, "exactly two benchmarks carry items_per_second");
  expect(best["BM_A_interp"] == 100.0, "best-of-N keeps the max numerator");
  expect(best["BM_A_batched"] == 440.0, "best-of-N keeps the max across files");
  expect(!ScanBenchJson("{\"context\": {}}", &best),
         "a document without entries reports empty");

  // Directives: parse errors, passing floors, failing floors, and the
  // missing-benchmark rule must each produce their verdict.
  std::vector<Directive> dirs;
  std::string error;
  expect(!ParseRatchet("bogus_verb x 1\n", &dirs, &error) && !error.empty(),
         "unknown directive rejected");
  dirs.clear();
  expect(!ParseRatchet("min_ratio a b 0\n", &dirs, &error),
         "non-positive floor rejected");
  dirs.clear();
  expect(!ParseRatchet("# only comments\n\n", &dirs, &error),
         "all-comment file rejected");
  dirs.clear();
  const std::string ratchet =
      "# comment\n"
      "min_ratio BM_A_batched BM_A_interp 4.0\n"
      "min_items_per_second BM_A_batched 400  # trailing comment\n";
  expect(ParseRatchet(ratchet, &dirs, &error), "well-formed ratchet parses");
  expect(dirs.size() == 2, "two directives parsed");
  expect(Enforce(dirs, best) == 0, "4.4x clears a 4.0x floor");

  std::vector<Directive> tight;
  expect(ParseRatchet("min_ratio BM_A_batched BM_A_interp 5.0\n"
                      "min_items_per_second BM_A_interp 1000\n"
                      "min_items_per_second BM_Gone 1\n",
                      &tight, &error),
         "tight ratchet parses");
  expect(Enforce(tight, best) == 3,
         "ratio below floor + absolute below floor + missing bench all fail");

  if (failures == 0) {
    std::printf("perf_ratchet --selftest: OK\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    return Selftest();
  }
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <ratchet.txt> <bench.json> [more.json ...]\n"
                 "       %s --selftest\n",
                 argv[0], argv[0]);
    return 2;
  }

  std::ifstream rf(argv[1]);
  if (!rf) {
    std::fprintf(stderr, "%s: cannot open\n", argv[1]);
    return 1;
  }
  std::ostringstream rbuf;
  rbuf << rf.rdbuf();
  std::vector<Directive> directives;
  std::string error;
  if (!ParseRatchet(rbuf.str(), &directives, &error)) {
    std::fprintf(stderr, "%s: %s\n", argv[1], error.c_str());
    return 1;
  }

  std::map<std::string, double> best;
  for (int i = 2; i < argc; ++i) {
    std::ifstream jf(argv[i]);
    if (!jf) {
      std::fprintf(stderr, "%s: cannot open\n", argv[i]);
      return 1;
    }
    std::ostringstream jbuf;
    jbuf << jf.rdbuf();
    if (!ScanBenchJson(jbuf.str(), &best)) {
      std::fprintf(stderr, "%s: no benchmark entries with items_per_second\n",
                   argv[i]);
      return 1;
    }
  }

  int failures = Enforce(directives, best);
  if (failures == 0) {
    std::printf("perf_ratchet: OK (%zu directives, %d input file%s)\n",
                directives.size(), argc - 2, argc - 2 == 1 ? "" : "s");
  }
  return failures == 0 ? 0 : 1;
}
