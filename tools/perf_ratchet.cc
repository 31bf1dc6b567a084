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
// run plus two extra runs of the GuestOpsBurst, StackConstruction and
// NestedHypercallV83(Uncached) benchmarks.
//
// Ratchet file format (tools/perf_ratchet.txt), '#' comments allowed:
//
//   min_ratio <numerator-bench> <denominator-bench> <floor>
//       best(numerator).items_per_second / best(denominator) >= floor.
//       Host-independent: both sides ran on the same machine, so the ratio
//       survives slow CI hardware. This is the lock on the batch engine's
//       speedup over the interpreter and on the nested hypercall's
//       cached/uncached gap.
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
// Parsing uses src/obs/json, the strict reader bench_json_check and
// obsreport use: a file that does not parse is an error, not a document
// with no benchmarks. --selftest exercises the reader and every directive
// verdict.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.h"

namespace {

using neve::JsonValue;

// --- google-benchmark JSON ----------------------------------------------------

// Merges the (name, items_per_second) pairs of one google-benchmark JSON
// document into `best`, keeping the maximum per name. Entries without
// items_per_second (e.g. a benchmark that never calls SetItemsProcessed)
// are skipped. Returns false and sets *error when the text is not JSON or
// carries no entry with items_per_second at all (wrong file, empty filter).
bool ReadBenchJson(const std::string& text,
                   std::map<std::string, double>* best, std::string* error) {
  std::unique_ptr<JsonValue> doc = JsonValue::Parse(text, error);
  if (doc == nullptr) {
    *error = "not valid JSON: " + *error;
    return false;
  }
  const JsonValue* benches = doc->Find("benchmarks");
  bool any = false;
  if (benches != nullptr) {
    for (const JsonValue& b : benches->Items()) {
      const JsonValue* name = b.Find("name");
      const JsonValue* items = b.Find("items_per_second");
      if (name == nullptr || !name->is_string() || items == nullptr ||
          !items->is_number()) {
        continue;
      }
      auto [it, inserted] = best->emplace(name->AsString(), items->AsDouble());
      if (!inserted && items->AsDouble() > it->second) {
        it->second = items->AsDouble();
      }
      any = true;
    }
  }
  if (!any) {
    *error = "no benchmark entries with items_per_second";
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

  // Reader: names pair with their own items_per_second; entries without
  // the field are skipped; fields outside "benchmarks" never count.
  const std::string json1 = R"({
    "context": {"name": "BM_Context", "items_per_second": 1.0},
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
  std::string error;
  expect(ReadBenchJson(json1, &best, &error), "json1 reads");
  expect(ReadBenchJson(json2, &best, &error), "json2 reads");
  expect(best.size() == 2, "exactly two benchmarks carry items_per_second");
  expect(best["BM_A_interp"] == 100.0, "best-of-N keeps the max numerator");
  expect(best["BM_A_batched"] == 440.0, "best-of-N keeps the max across files");
  expect(!ReadBenchJson("{\"context\": {}}", &best, &error) &&
             error.find("no benchmark entries") != std::string::npos,
         "a document without entries reports empty");
  expect(!ReadBenchJson(json2.substr(0, json2.size() / 2), &best, &error) &&
             error.find("not valid JSON") != std::string::npos,
         "a truncated document is an error");
  expect(best.size() == 2, "failed reads leave the results untouched");

  // Directives: parse errors, passing floors, failing floors, and the
  // missing-benchmark rule must each produce their verdict.
  std::vector<Directive> dirs;
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
    if (!ReadBenchJson(jbuf.str(), &best, &error)) {
      std::fprintf(stderr, "%s: %s\n", argv[i], error.c_str());
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
