// obsreport: cycle-attribution reporting and run-diff tooling.
//
//   obsreport run --stack=<vm|v83|v83-vhe|neve|neve-vhe>
//             [--iters=N] [--threads=N] [--out=PATH]
//       Runs the four Table-6 microbenchmarks on the named stack and emits
//       an attribution document (schema neve-attr-v1): per-workload
//       (vm, vcpu, layer, category) cycle buckets plus the machine cycle
//       totals. Workload cells fan out across --threads; output is merged
//       in fixed order, so the document is byte-identical for any thread
//       count. The cycles-conserved invariant is checked on every cell.
//
//   obsreport rollup FILE [--collapsed|--json]
//       Renders a run document as a flamegraph-style text tree (default),
//       as collapsed stacks ("vm0/vcpu0;L2;trap_sysreg N", foldable by
//       standard flamegraph tooling), or as aggregated JSON.
//
//   obsreport diff A.json B.json   (also spelled: obsreport --diff A B)
//       Per-bucket cycle deltas between two runs -- the paper's NEVE vs
//       ARMv8.3-NV comparison (Table 6) as a first-class operation.
//
// Exit status: 0 on success, 1 on usage/file/shape errors or a conservation
// violation.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/parallel.h"
#include "src/obs/attr.h"
#include "src/obs/json.h"
#include "src/obs/report.h"
#include "src/workload/microbench.h"

namespace neve {
namespace {

constexpr const char kSchema[] = "neve-attr-v1";

struct NamedStack {
  const char* name;
  StackConfig cfg;
};

const NamedStack kStacks[] = {
    {"vm", StackConfig::Vm()},
    {"v83", StackConfig::NestedV83(/*vhe=*/false)},
    {"v83-vhe", StackConfig::NestedV83(/*vhe=*/true)},
    {"neve", StackConfig::NestedNeve(/*vhe=*/false)},
    {"neve-vhe", StackConfig::NestedNeve(/*vhe=*/true)},
};

const MicrobenchKind kKinds[] = {
    MicrobenchKind::kHypercall,
    MicrobenchKind::kDeviceIo,
    MicrobenchKind::kVirtualIpi,
    MicrobenchKind::kVirtualEoi,
};
constexpr size_t kNumKinds = sizeof(kKinds) / sizeof(kKinds[0]);

int Usage() {
  std::fprintf(
      stderr,
      "usage: obsreport run --stack=<vm|v83|v83-vhe|neve|neve-vhe>\n"
      "                 [--iters=N] [--threads=N] [--out=PATH]\n"
      "       obsreport rollup FILE [--collapsed|--json]\n"
      "       obsreport diff A.json B.json\n");
  return 1;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

int RunCommand(int argc, char** argv) {
  std::string stack_name = FlagValue(argc, argv, "--stack=");
  const StackConfig* cfg = nullptr;
  for (const NamedStack& s : kStacks) {
    if (stack_name == s.name) {
      cfg = &s.cfg;
    }
  }
  if (cfg == nullptr) {
    std::fprintf(stderr, "obsreport: unknown --stack=%s\n",
                 stack_name.c_str());
    return Usage();
  }
  std::string iters_str = FlagValue(argc, argv, "--iters=");
  int iters = iters_str.empty()
                  ? 64
                  : static_cast<int>(std::strtol(iters_str.c_str(), nullptr,
                                                 10));
  if (iters <= 0) {
    std::fprintf(stderr, "obsreport: --iters must be positive\n");
    return 1;
  }
  unsigned threads = ThreadsFromArgs(argc, argv);

  // One attributed run per workload kind; each cell owns its Machine, so
  // cells are independent and the fan-out is deterministic by construction.
  std::vector<AttributedRun> runs(kNumKinds);
  ParallelFor(kNumKinds, threads, [&](size_t i) {
    runs[i] = RunArmMicrobenchAttributed(kKinds[i], *cfg, iters);
  });

  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String(kSchema);
  w.Key("stack");
  w.String(stack_name);
  w.Key("iters");
  w.Number(static_cast<int64_t>(iters));
  uint64_t grand_total = 0;
  for (const AttributedRun& r : runs) {
    grand_total += r.machine_cycles;
  }
  w.Key("total_cycles");
  w.Number(grand_total);
  w.Key("workloads");
  w.BeginArray();
  for (size_t i = 0; i < kNumKinds; ++i) {
    const AttributedRun& r = runs[i];
    uint64_t bucket_sum = 0;
    for (const AttrBucket& b : r.buckets) {
      bucket_sum += b.cycles;
    }
    if (bucket_sum != r.machine_cycles) {
      std::fprintf(stderr,
                   "obsreport: cycles-conserved violation on %s: buckets sum "
                   "to %" PRIu64 " but the machine ran %" PRIu64 " cycles\n",
                   MicrobenchName(kKinds[i]), bucket_sum, r.machine_cycles);
      return 1;
    }
    w.BeginObject();
    w.Key("name");
    w.String(MicrobenchName(kKinds[i]));
    w.Key("cycles_per_op");
    w.Number(r.result.cycles_per_op);
    w.Key("traps_per_op");
    w.Number(r.result.traps_per_op);
    w.Key("machine_cycles");
    w.Number(r.machine_cycles);
    w.Key("buckets");
    w.BeginArray();
    for (const AttrBucket& b : r.buckets) {
      w.BeginObject();
      w.Key("vm");
      w.Number(static_cast<int64_t>(b.vm));
      w.Key("vcpu");
      w.Number(static_cast<int64_t>(b.vcpu));
      w.Key("layer");
      w.String(AttrLayerName(b.layer));
      w.Key("cat");
      w.String(AttrCatName(b.cat));
      w.Key("cycles");
      w.Number(b.cycles);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  std::string out_path = FlagValue(argc, argv, "--out=");
  std::string doc = w.str() + "\n";
  if (out_path.empty()) {
    std::fputs(doc.c_str(), stdout);
    return 0;
  }
  std::ofstream f(out_path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "obsreport: cannot write %s\n", out_path.c_str());
    return 1;
  }
  f << doc;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// document loading (rollup, diff)
// ---------------------------------------------------------------------------

// A run document reduced to its aggregate: bucket cycles summed over
// workloads, keyed by the packed attribution key.
struct LoadedRun {
  std::map<uint64_t, uint64_t> buckets;  // packed key -> cycles
  uint64_t total = 0;
};

bool LoadRun(const std::string& path, LoadedRun* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "obsreport: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  std::string error;
  std::unique_ptr<JsonValue> doc = JsonValue::Parse(ss.str(), &error);
  if (doc == nullptr) {
    std::fprintf(stderr, "obsreport: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  const JsonValue* schema = doc->Find("schema");
  if (schema == nullptr || schema->AsString() != kSchema) {
    std::fprintf(stderr, "obsreport: %s: not a %s document\n", path.c_str(),
                 kSchema);
    return false;
  }
  const JsonValue* workloads = doc->Find("workloads");
  if (workloads == nullptr || !workloads->is_array()) {
    std::fprintf(stderr, "obsreport: %s: missing workloads array\n",
                 path.c_str());
    return false;
  }
  for (const JsonValue& wl : workloads->Items()) {
    const JsonValue* buckets = wl.Find("buckets");
    if (buckets == nullptr || !buckets->is_array()) {
      std::fprintf(stderr, "obsreport: %s: workload without buckets\n",
                   path.c_str());
      return false;
    }
    for (const JsonValue& b : buckets->Items()) {
      const JsonValue* vm = b.Find("vm");
      const JsonValue* vcpu = b.Find("vcpu");
      const JsonValue* layer = b.Find("layer");
      const JsonValue* cat = b.Find("cat");
      const JsonValue* cycles = b.Find("cycles");
      AttrLayer l{};
      AttrCat c{};
      if (vm == nullptr || vcpu == nullptr || layer == nullptr ||
          cat == nullptr || cycles == nullptr ||
          !AttrLayerFromName(layer->AsString(), &l) ||
          !AttrCatFromName(cat->AsString(), &c)) {
        std::fprintf(stderr, "obsreport: %s: malformed bucket\n",
                     path.c_str());
        return false;
      }
      uint64_t key = PackAttrKey(static_cast<int>(vm->AsI64()),
                                 static_cast<int>(vcpu->AsI64()), l, c);
      out->buckets[key] += cycles->AsU64();
      out->total += cycles->AsU64();
    }
  }
  return true;
}

std::vector<AttrBucket> ToRows(const LoadedRun& run) {
  std::vector<AttrBucket> rows;
  rows.reserve(run.buckets.size());
  for (const auto& [key, cycles] : run.buckets) {
    AttrBucket b = UnpackAttrKey(key);
    b.cycles = cycles;
    rows.push_back(b);
  }
  CycleAttribution::SortBuckets(&rows);
  return rows;
}

// ---------------------------------------------------------------------------
// rollup
// ---------------------------------------------------------------------------

int RollupCommand(int argc, char** argv) {
  std::string path;
  for (int i = 2; i < argc; ++i) {
    if (argv[i][0] != '-') {
      path = argv[i];
    }
  }
  if (path.empty()) {
    return Usage();
  }
  LoadedRun run;
  if (!LoadRun(path, &run)) {
    return 1;
  }
  std::vector<AttrBucket> rows = ToRows(run);
  if (HasFlag(argc, argv, "--collapsed")) {
    std::fputs(CycleAttribution::RenderCollapsed(rows).c_str(), stdout);
    return 0;
  }
  if (HasFlag(argc, argv, "--json")) {
    JsonWriter w;
    w.BeginObject();
    w.Key("total");
    w.Number(run.total);
    w.Key("buckets");
    w.BeginArray();
    for (const AttrBucket& b : rows) {
      w.BeginObject();
      w.Key("vm");
      w.Number(static_cast<int64_t>(b.vm));
      w.Key("vcpu");
      w.Number(static_cast<int64_t>(b.vcpu));
      w.Key("layer");
      w.String(AttrLayerName(b.layer));
      w.Key("cat");
      w.String(AttrCatName(b.cat));
      w.Key("cycles");
      w.Number(b.cycles);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::fputs(CycleAttribution::RenderTextTree(rows).c_str(), stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

int DiffCommand(const std::string& path_a, const std::string& path_b) {
  LoadedRun a;
  LoadedRun b;
  if (!LoadRun(path_a, &a) || !LoadRun(path_b, &b)) {
    return 1;
  }
  // Union of bucket keys, in bucket sort order.
  std::map<uint64_t, uint64_t> all;
  for (const auto& [key, cycles] : a.buckets) {
    all[key] = 0;
  }
  for (const auto& [key, cycles] : b.buckets) {
    all[key] = 0;
  }
  std::vector<AttrBucket> rows;
  rows.reserve(all.size());
  for (const auto& [key, unused] : all) {
    rows.push_back(UnpackAttrKey(key));
  }
  CycleAttribution::SortBuckets(&rows);

  std::printf("%-40s %14s %14s %16s\n", "bucket", "a_cycles", "b_cycles",
              "delta");
  for (const AttrBucket& row : rows) {
    uint64_t key = PackAttrKey(row.vm, row.vcpu, row.layer, row.cat);
    auto lookup = [key](const LoadedRun& run) -> uint64_t {
      auto it = run.buckets.find(key);
      return it == run.buckets.end() ? 0 : it->second;
    };
    uint64_t va = lookup(a);
    uint64_t vb = lookup(b);
    int64_t delta = static_cast<int64_t>(vb) - static_cast<int64_t>(va);
    char pct[32];
    if (va != 0) {
      std::snprintf(pct, sizeof(pct), "%+.1f%%",
                    100.0 * static_cast<double>(delta) /
                        static_cast<double>(va));
    } else {
      std::snprintf(pct, sizeof(pct), "n/a");
    }
    std::printf("%-40s %14" PRIu64 " %14" PRIu64 " %+10" PRId64 " (%s)\n",
                row.StackName().c_str(), va, vb, delta, pct);
  }
  int64_t total_delta =
      static_cast<int64_t>(b.total) - static_cast<int64_t>(a.total);
  char pct[32];
  if (a.total != 0) {
    std::snprintf(pct, sizeof(pct), "%+.1f%%",
                  100.0 * static_cast<double>(total_delta) /
                      static_cast<double>(a.total));
  } else {
    std::snprintf(pct, sizeof(pct), "n/a");
  }
  std::printf("%-40s %14" PRIu64 " %14" PRIu64 " %+10" PRId64 " (%s)\n",
              "total", a.total, b.total, total_delta, pct);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string cmd = argv[1];
  if (cmd == "run") {
    return RunCommand(argc, argv);
  }
  if (cmd == "rollup") {
    return RollupCommand(argc, argv);
  }
  if (cmd == "diff" || cmd == "--diff") {
    if (argc != 4) {
      return Usage();
    }
    return DiffCommand(argv[2], argv[3]);
  }
  return Usage();
}

}  // namespace
}  // namespace neve

int main(int argc, char** argv) { return neve::Main(argc, argv); }
