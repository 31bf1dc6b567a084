// Validates BENCH_*.json files emitted by the benches (--json=<path>).
//
//   $ ./build/tools/bench_json_check BENCH_table7.json [more.json ...]
//
// Two schemas are recognized, keyed by the top-level object's fields:
//
//  - The repo's BenchReport schema (src/obs/report.h): schema_version == 1,
//    non-empty "bench"/"units" strings, a non-empty "entries" array whose
//    elements each carry a string "name" and a numeric "measured", and --
//    when present -- numeric "paper"/"delta_pct"/"traps_per_op" (null
//    allowed for paper/delta_pct).
//  - google-benchmark's JSON reporter (simcore_gbench --json=...): a
//    "context" object plus a non-empty "benchmarks" array whose elements
//    each carry a string "name" and numeric "real_time"/"cpu_time".
//
// Parsing uses src/obs/json, the strict reader obsreport uses. It shares no
// code with the emitter (JsonWriter, src/obs/report.cc), so the check stays
// independent of what it checks. Registered in ctest behind the bench_json
// fixture (bench/CMakeLists.txt), so `ctest` exercises the full emit ->
// parse -> validate loop every run.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "src/obs/json.h"

namespace {

using neve::JsonValue;

// --- schema checks -----------------------------------------------------------

struct Checker {
  const char* path;
  int failures = 0;

  void Require(bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "%s: FAIL: %s\n", path, what.c_str());
      ++failures;
    }
  }
};

bool IsNumberOrNull(const JsonValue* v) {
  return v == nullptr || v->is_number() || v->is_null();
}

bool IsNonEmptyString(const JsonValue* v) {
  return v != nullptr && v->is_string() && !v->AsString().empty();
}

// google-benchmark reporter output, as produced by simcore_gbench --json=.
int CheckGoogleBenchmark(Checker& c, const JsonValue& doc) {
  const JsonValue* context = doc.Find("context");
  c.Require(context != nullptr && context->is_object(),
            "context missing or not an object");
  const JsonValue* benches = doc.Find("benchmarks");
  c.Require(benches != nullptr && benches->is_array() &&
                !benches->Items().empty(),
            "benchmarks missing or empty");
  if (benches != nullptr && benches->is_array()) {
    size_t i = 0;
    for (const JsonValue& b : benches->Items()) {
      std::string where = "benchmarks[" + std::to_string(i++) + "]";
      if (!b.is_object()) {
        c.Require(false, where + " is not an object");
        continue;
      }
      c.Require(IsNonEmptyString(b.Find("name")),
                where + ".name missing or empty");
      const JsonValue* real_time = b.Find("real_time");
      c.Require(real_time != nullptr && real_time->is_number(),
                where + ".real_time missing or not a number");
      const JsonValue* cpu_time = b.Find("cpu_time");
      c.Require(cpu_time != nullptr && cpu_time->is_number(),
                where + ".cpu_time missing or not a number");
    }
  }
  if (c.failures == 0) {
    std::printf("%s: OK (%zu benchmarks, google-benchmark schema)\n", c.path,
                benches != nullptr ? benches->Items().size() : 0);
  }
  return c.failures;
}

int CheckFile(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: FAIL: cannot open\n", path);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();

  std::string error;
  std::unique_ptr<JsonValue> doc = JsonValue::Parse(text, &error);
  if (doc == nullptr) {
    std::fprintf(stderr, "%s: FAIL: not valid JSON: %s\n", path,
                 error.c_str());
    return 1;
  }

  Checker c{path};
  c.Require(doc->is_object(), "top level is not an object");
  if (!doc->is_object()) {
    return c.failures;
  }

  if (doc->Find("benchmarks") != nullptr) {
    return CheckGoogleBenchmark(c, *doc);
  }

  const JsonValue* version = doc->Find("schema_version");
  c.Require(version != nullptr && version->is_number() &&
                version->AsDouble() == 1,
            "schema_version missing or != 1");
  c.Require(IsNonEmptyString(doc->Find("bench")), "bench missing or empty");
  c.Require(IsNonEmptyString(doc->Find("units")), "units missing or empty");

  const JsonValue* entries = doc->Find("entries");
  c.Require(entries != nullptr && entries->is_array() &&
                !entries->Items().empty(),
            "entries missing or empty");
  if (entries != nullptr && entries->is_array()) {
    size_t i = 0;
    for (const JsonValue& e : entries->Items()) {
      std::string where = "entries[" + std::to_string(i++) + "]";
      if (!e.is_object()) {
        c.Require(false, where + " is not an object");
        continue;
      }
      c.Require(IsNonEmptyString(e.Find("name")),
                where + ".name missing or empty");
      const JsonValue* measured = e.Find("measured");
      c.Require(measured != nullptr && measured->is_number(),
                where + ".measured missing or not a number");
      c.Require(IsNumberOrNull(e.Find("paper")),
                where + ".paper is neither number nor null");
      c.Require(IsNumberOrNull(e.Find("delta_pct")),
                where + ".delta_pct is neither number nor null");
      const JsonValue* traps = e.Find("traps_per_op");
      c.Require(traps == nullptr || traps->is_number(),
                where + ".traps_per_op is not a number");
    }
  }

  if (c.failures == 0) {
    std::printf("%s: OK (%zu entries)\n", path,
                entries != nullptr ? entries->Items().size() : 0);
  }
  return c.failures;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s BENCH_foo.json [more.json ...]\n", argv[0]);
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    failures += CheckFile(argv[i]);
  }
  return failures == 0 ? 0 : 1;
}
