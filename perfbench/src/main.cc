// perfbench: host-time benchmark for the simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--root DIR] [--out DIR]
//       Runs one workload for S seconds and prints its metrics, then, as the
//       last line, {"correct", "attempted", "failed", "metrics"}. --trace 0
//       reports the end-to-end metrics; --trace 1 runs the loop half
//       untraced and half traced, runs the per-layer probes, and reports the
//       per-layer metrics plus the tracing overhead. Writes the result
//       document (and, traced, the span log) under --out. Exits 1 when any
//       correctness gate failed.
//   perfbench --selftest [--root DIR]
//       Short runs of every workload on the baseline and the held-out seed:
//       every gate passes, every metric BENCHMARK.json names is emitted with
//       its unit, and traced spans nest.
//   perfbench --compare SET [SET]
//       Median and quartiles per metric of one or two sets of result
//       documents (files or directories); refuses sets whose build or host
//       fingerprints differ.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/host_speed.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/results.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"
#include "src/obs/json.h"

namespace perfbench {
namespace {

// The seed the committed baseline uses, and the seed held out from tuning.
constexpr uint64_t kBaselineSeed = 1;
constexpr uint64_t kHeldOutSeed = 7;

constexpr int kSetupReps = 5;

// Layers (src/ modules) whose spans' self time the traced run reports.
const char* const kModules[] = {"workload", "x86", "hyp", "cpu",  "mem",
                                "obs",      "sim", "batch", "fuzz", "snap"};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Pct(double base, double traced) {
  return base == 0 ? 0 : 100.0 * (traced - base) / base;
}

// Setup time: the median of kSetupReps warm-up passes, in reference-host
// seconds (host_speed.h).
double SetupSeconds(Workload& w, SpanLog& log, Gates& gates) {
  std::vector<double> s;
  HostSpeed speed;
  for (int i = 0; i < kSetupReps; ++i) {
    s.push_back(static_cast<double>(
                    TimeNs(log, "setup", 1, [&] { w.Setup(log, gates); })) /
                1e9);
    speed.Sample(3);
  }
  return Median(s) * speed.Scale();
}

RunResult RunOnce(const std::string& name, const Context& ctx, double seconds,
                  bool trace, SpanLog& log) {
  RunResult r;
  r.workload = name;
  r.seed = ctx.seed;
  r.seconds = seconds;
  r.trace = trace;
  Gates gates;
  std::unique_ptr<Workload> w = MakeWorkload(name, ctx);
  SpanLog off(false);
  double setup_s = SetupSeconds(*w, off, gates);
  if (!trace) {
    LoopStats stats;
    w->Loop(seconds, off, gates, stats);
    r.metrics = {
        {"setup_s", "s", setup_s},
        {"ops_per_s", "1/s", stats.OpsPerSecond()},
        {"op_ms.p50", "ms", stats.MedianOpMs()},
    };
  } else {
    LoopStats plain, traced;
    w->Loop(seconds / 2, off, gates, plain);
    double traced_setup_s = SetupSeconds(*w, log, gates);
    w->Loop(seconds / 2, log, gates, traced);
    RunProbes(ctx, log, gates, &r.metrics);

    std::vector<double> ops = plain.AllOpMs();
    std::vector<double> traced_ops = traced.AllOpMs();
    ops.insert(ops.end(), traced_ops.begin(), traced_ops.end());
    r.metrics.push_back({"workload.op_ms.p95", "ms", Percentile(ops, 95)});
    r.metrics.push_back(
        {"trace.overhead_pct.setup_s", "%", Pct(setup_s, traced_setup_s)});
    r.metrics.push_back(
        {"trace.overhead_pct.ops_per_s", "%",
         -Pct(plain.OpsPerSecond(), traced.OpsPerSecond())});
    r.metrics.push_back({"trace.overhead_pct.op_ms.p50", "%",
                         Pct(plain.MedianOpMs(), traced.MedianOpMs())});
    double span_bytes = 0;
    for (const Span& s : log.spans()) {
      span_bytes += static_cast<double>(sizeof(Span) + s.name.capacity());
    }
    r.metrics.push_back({"trace.span_log_mb", "MB", span_bytes / 1048576.0});
    r.metrics.push_back({"base.peak_rss_mb", "MB", PeakRssMb()});
    r.metrics.push_back({"base.host_speed", "ratio", plain.speed.Scale()});

    std::map<std::string, double> self_s;
    std::vector<int64_t> self = log.SelfTimes();
    for (size_t i = 0; i < self.size(); ++i) {
      const std::string& n = log.spans()[i].name;
      self_s[n.substr(0, n.find('.'))] += static_cast<double>(self[i]) / 1e9;
    }
    for (const char* m : kModules) {
      r.metrics.push_back({std::string("self_s.") + m, "s", self_s[m]});
    }
  }
  r.attempted = gates.attempted;
  r.failed = gates.failed;
  r.gate_failures = gates.failures;
  return r;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  return static_cast<bool>(out);
}

int Run(const std::string& name, const Context& ctx, double seconds,
        bool trace, const std::string& out_dir) {
  SpanLog log(trace);
  RunResult r = RunOnce(name, ctx, seconds, trace, log);
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  // The run's start time keeps repeated runs of one seed apart.
  std::string stem =
      out_dir + "/" + name + ".seed" + std::to_string(ctx.seed) + ".trace" +
      (trace ? "1" : "0") + "." +
      std::to_string(std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count());
  bool wrote = WriteFile(stem + ".json", ResultDocument(r, HostFingerprint()));
  if (trace) {
    wrote = WriteFile(stem + ".spans.json", log.ToJson()) && wrote;
  }
  if (!wrote) {
    std::fprintf(stderr, "perfbench: cannot write results under %s\n",
                 out_dir.c_str());
    return 2;
  }
  for (const std::string& g : r.gate_failures) {
    std::printf("GATE FAILED: %s\n", g.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::printf("%-44s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", SummaryLine(r).c_str());
  return r.correct() ? 0 : 1;
}

// Names and units of one metric list in BENCHMARK.json.
std::map<std::string, std::string> DeclaredMetrics(const neve::JsonValue& doc,
                                                   const char* key) {
  std::map<std::string, std::string> out;
  if (const neve::JsonValue* list = doc.Find(key)) {
    for (const neve::JsonValue& m : list->Items()) {
      out[m.Find("name")->AsString()] = m.Find("unit")->AsString();
    }
  }
  return out;
}

int SelfTest(const std::string& root, unsigned threads) {
  std::ifstream in(root + "/BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  std::unique_ptr<neve::JsonValue> doc =
      neve::JsonValue::Parse(text.str(), &error);
  if (doc == nullptr) {
    std::printf("selftest: cannot read BENCHMARK.json: %s\n", error.c_str());
    return 1;
  }
  std::vector<std::string> declared;
  for (const neve::JsonValue& w : doc->Find("workloads")->Items()) {
    declared.push_back(w.Find("name")->AsString());
  }
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };
  check(declared == WorkloadNames(), "BENCHMARK.json lists the workloads");
  auto same_metrics = [&](const RunResult& r,
                          const std::map<std::string, std::string>& want) {
    std::map<std::string, std::string> got;
    bool values_ok = true;
    for (const Metric& m : r.metrics) {
      got[m.name] = m.unit;
      values_ok = values_ok && std::isfinite(m.value);
    }
    for (const auto& [name, unit] : want) {
      if (got.count(name) == 0 || got[name] != unit) {
        std::printf("     missing or wrong unit: %s [%s]\n", name.c_str(),
                    unit.c_str());
      }
    }
    for (const auto& [name, unit] : got) {
      if (want.count(name) == 0) {
        std::printf("     not declared: %s [%s]\n", name.c_str(),
                    unit.c_str());
      }
    }
    return got == want && values_ok;
  };
  std::map<std::string, std::string> e2e = DeclaredMetrics(*doc, "end_to_end");
  std::map<std::string, std::string> layers =
      DeclaredMetrics(*doc, "per_layer");
  for (const std::string& name : WorkloadNames()) {
    for (uint64_t seed : {kBaselineSeed, kHeldOutSeed}) {
      Context ctx{root, seed, threads};
      SpanLog off(false);
      RunResult r = RunOnce(name, ctx, 0.2, false, off);
      std::string tag = name + " seed " + std::to_string(seed);
      check(r.correct() && r.failed == 0 && r.attempted > 0,
            tag + ": every gate passes, ops_failed_share 0");
      for (const std::string& g : r.gate_failures) {
        std::printf("     %s\n", g.c_str());
      }
      check(same_metrics(r, e2e), tag + ": end-to-end metrics and units");
      bool positive = std::all_of(r.metrics.begin(), r.metrics.end(),
                                  [](const Metric& m) { return m.value > 0; });
      check(positive, tag + ": end-to-end metrics are nonzero");
    }
    Context ctx{root, kBaselineSeed, threads};
    SpanLog log(true);
    RunResult r = RunOnce(name, ctx, 0.2, true, log);
    std::string tag = name + " traced";
    check(r.correct(), tag + ": every gate passes");
    for (const std::string& g : r.gate_failures) {
      std::printf("     %s\n", g.c_str());
    }
    check(same_metrics(r, layers), tag + ": per-layer metrics and units");
    std::vector<std::string> nesting = log.CheckNesting();
    for (size_t i = 0; i < std::min<size_t>(nesting.size(), 5); ++i) {
      std::printf("     %s\n", nesting[i].c_str());
    }
    check(!log.spans().empty() && nesting.empty(),
          tag + ": " + std::to_string(log.spans().size()) +
              " spans nest, self time >= 0");
  }
  std::printf("selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--out DIR]\n"
               "       perfbench --selftest [--root DIR]\n"
               "       perfbench --compare SET [SET]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  std::vector<std::string> sets;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--selftest" || a == "--compare") {
      flags[a] = "1";
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[a] = argv[++i];
    } else if (flags.count("--compare") != 0) {
      sets.push_back(a);
    } else {
      return Usage();
    }
  }
  std::string root = flags.count("--root") ? flags["--root"] : ".";
  unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  if (flags.count("--compare") != 0) {
    return sets.empty() || sets.size() > 2 ? Usage()
                                           : CompareResults(sets, std::cout);
  }
  if (flags.count("--selftest") != 0) {
    return SelfTest(root, threads);
  }
  std::set<std::string> known(WorkloadNames().begin(), WorkloadNames().end());
  if (known.count(flags["--workload"]) == 0 || flags["--seed"].empty() ||
      flags["--seconds"].empty() ||
      (flags["--trace"] != "0" && flags["--trace"] != "1")) {
    return Usage();
  }
  Context ctx{root, std::strtoull(flags["--seed"].c_str(), nullptr, 10),
              threads};
  double seconds = std::strtod(flags["--seconds"].c_str(), nullptr);
  if (!(seconds > 0)) {
    return Usage();
  }
  std::string out = flags.count("--out") ? flags["--out"] : ".bench_out";
  return Run(flags["--workload"], ctx, seconds, flags["--trace"] == "1", out);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
