#include "perfbench/src/results.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "src/base/lock_order.h"
#include "src/base/mutex.h"
#include "src/obs/json.h"
#include "src/obs/report.h"

namespace perfbench {

Fingerprint HostFingerprint() {
  Fingerprint fp;
  fp.compiler = PERFBENCH_COMPILER;
  fp.build_type = PERFBENCH_BUILD_TYPE;
  fp.cxx_flags = PERFBENCH_CXX_FLAGS;
  uint64_t before = neve::lock_order::Acquisitions();
  {
    neve::Mutex mu{"perfbench.fingerprint"};
    neve::MutexLock lock(mu);
  }
  fp.lock_order = neve::lock_order::Acquisitions() != before;
  fp.nproc = std::thread::hardware_concurrency();
  return fp;
}

std::string ResultDocument(const RunResult& r, const Fingerprint& fp) {
  neve::JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("perfbench-result-v1");
  w.Key("workload");
  w.String(r.workload);
  w.Key("seed");
  w.Number(r.seed);
  w.Key("seconds");
  w.Number(r.seconds);
  w.Key("trace");
  w.Bool(r.trace);
  w.Key("fingerprint");
  w.BeginObject();
  w.Key("compiler");
  w.String(fp.compiler);
  w.Key("build_type");
  w.String(fp.build_type);
  w.Key("cxx_flags");
  w.String(fp.cxx_flags);
  w.Key("lock_order");
  w.Bool(fp.lock_order);
  w.Key("nproc");
  w.Number(static_cast<uint64_t>(fp.nproc));
  w.EndObject();
  w.Key("correct");
  w.Bool(r.correct());
  w.Key("attempted");
  w.Number(r.attempted);
  w.Key("failed");
  w.Number(r.failed);
  w.Key("gate_failures");
  w.BeginArray();
  for (const std::string& g : r.gate_failures) {
    w.String(g);
  }
  w.EndArray();
  w.Key("metrics");
  w.BeginArray();
  for (const Metric& m : r.metrics) {
    w.BeginObject();
    w.Key("name");
    w.String(m.name);
    w.Key("unit");
    w.String(m.unit);
    w.Key("value");
    w.Number(m.value);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string SummaryLine(const RunResult& r) {
  neve::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(r.correct());
  w.Key("attempted");
  w.Number(r.attempted);
  w.Key("failed");
  w.Number(r.failed);
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& m : r.metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.Key("value");
    w.Number(m.value);
    w.Key("unit");
    w.String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::vector<double> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  if (n == 0) {
    return {0, 0, 0};
  }
  if (n == 1) {
    return {values[0], values[0], values[0]};
  }
  std::vector<double> q;
  size_t m = n + 1;
  for (size_t i = 1; i < 4; ++i) {
    size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
    double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    q.push_back((values[j - 1] * (4 - delta) + values[j] * delta) / 4);
  }
  return q;
}

double Median(std::vector<double> values) {
  return Quartiles(std::move(values))[1];
}

double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  if (values.empty()) {
    return 0;
  }
  size_t rank =
      static_cast<size_t>(p / 100.0 * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

namespace {

struct Doc {
  std::string path;
  std::unique_ptr<neve::JsonValue> json;
};

std::string FingerprintKey(const neve::JsonValue& doc) {
  const neve::JsonValue* fp = doc.Find("fingerprint");
  if (fp == nullptr) {
    return "";
  }
  std::ostringstream key;
  for (const char* k : {"compiler", "build_type", "cxx_flags"}) {
    const neve::JsonValue* v = fp->Find(k);
    key << k << '=' << (v != nullptr ? v->AsString() : "?") << "; ";
  }
  const neve::JsonValue* lo = fp->Find("lock_order");
  const neve::JsonValue* np = fp->Find("nproc");
  key << "lock_order=" << (lo != nullptr && lo->AsBool() ? "on" : "off")
      << "; nproc=" << (np != nullptr ? np->AsU64() : 0);
  return key.str();
}

bool LoadSet(const std::string& arg, std::vector<Doc>* docs,
             std::ostream& out) {
  std::vector<std::string> paths;
  if (std::filesystem::is_directory(arg)) {
    for (const auto& e : std::filesystem::directory_iterator(arg)) {
      std::string p = e.path().string();
      if (p.ends_with(".json") && !p.ends_with(".spans.json")) {
        paths.push_back(p);
      }
    }
    std::sort(paths.begin(), paths.end());
  } else {
    paths.push_back(arg);
  }
  for (const std::string& p : paths) {
    std::ifstream in(p);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    std::unique_ptr<neve::JsonValue> json =
        neve::JsonValue::Parse(text.str(), &error);
    const neve::JsonValue* schema =
        json != nullptr ? json->Find("schema") : nullptr;
    if (!in || json == nullptr || schema == nullptr ||
        schema->AsString() != "perfbench-result-v1") {
      out << p << ": not a perfbench result document " << error << "\n";
      return false;
    }
    docs->push_back(Doc{p, std::move(json)});
  }
  return true;
}

}  // namespace

int CompareResults(const std::vector<std::string>& sets, std::ostream& out) {
  std::vector<std::vector<Doc>> loaded(sets.size());
  std::string fingerprint;
  for (size_t s = 0; s < sets.size(); ++s) {
    if (!LoadSet(sets[s], &loaded[s], out)) {
      return 1;
    }
    for (const Doc& d : loaded[s]) {
      std::string key = FingerprintKey(*d.json);
      if (fingerprint.empty()) {
        fingerprint = key;
      } else if (key != fingerprint) {
        out << "refusing to compare: " << d.path
            << " was measured on another build or host\n  " << key
            << "\n  vs " << fingerprint << "\n";
        return 2;
      }
    }
  }
  out << "fingerprint: " << fingerprint << "\n";
  // (workload, trace, metric) -> per-set values, in first-seen metric order.
  using Key = std::pair<std::string, std::string>;
  std::vector<Key> order;
  std::map<Key, std::string> units;
  std::map<Key, std::vector<std::vector<double>>> values;
  std::map<std::string, std::vector<uint64_t>> failed;
  for (size_t s = 0; s < loaded.size(); ++s) {
    for (const Doc& d : loaded[s]) {
      std::string group = d.json->Find("workload")->AsString() +
                          (d.json->Find("trace")->AsBool() ? " traced" : "");
      std::vector<uint64_t>& f = failed[group];
      f.resize(sets.size());
      f[s] += d.json->Find("failed")->AsU64();
      for (const neve::JsonValue& m : d.json->Find("metrics")->Items()) {
        Key key{group, m.Find("name")->AsString()};
        auto [it, fresh] = values.try_emplace(key, sets.size());
        if (fresh) {
          order.push_back(key);
          units[key] = m.Find("unit")->AsString();
        }
        it->second[s].push_back(m.Find("value")->AsDouble());
      }
    }
  }
  std::string group;
  for (const Key& key : order) {
    if (key.first != group) {
      group = key.first;
      out << "\n" << group << "  (failed ops per set:";
      for (uint64_t f : failed[group]) {
        out << ' ' << f;
      }
      out << ")\n";
    }
    char line[256];
    std::snprintf(line, sizeof(line), "  %-36s %-6s", key.second.c_str(),
                  units[key].c_str());
    out << line;
    std::vector<double> medians;
    for (const std::vector<double>& v : values[key]) {
      std::vector<double> q = Quartiles(v);
      medians.push_back(q[1]);
      std::snprintf(line, sizeof(line),
                    "  n=%-3zu median %-12.6g q1 %-12.6g q3 %-12.6g", v.size(),
                    q[1], q[0], q[2]);
      out << line;
    }
    if (medians.size() == 2 && medians[0] != 0) {
      std::snprintf(line, sizeof(line), "  delta %+.1f%%",
                    100.0 * (medians[1] - medians[0]) / medians[0]);
      out << line;
    }
    out << "\n";
  }
  return 0;
}

}  // namespace perfbench
