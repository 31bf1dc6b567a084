#include "src/obs/attr.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "src/base/status.h"
#include "src/obs/report.h"

namespace neve {

namespace {

constexpr const char* kLayerNames[kNumAttrLayers] = {"L0", "L1", "L2"};

constexpr const char* kCatNames[kNumAttrCats] = {
    "host_other",    "guest_compute", "trap_hvc",       "trap_sysreg",
    "trap_eret",     "trap_dabt",     "trap_irq",       "trap_wfx",
    "trap_other",    "ws_enter",      "ws_exit",        "sysreg_emul",
    "timer_emul",    "gic_emul",      "shadow_s2_fixup", "vel2_deliver",
    "mmio_emul",     "vncr_redirect", "idle_wait",
};

int UnpackVm(uint64_t key) {
  return static_cast<int16_t>(static_cast<uint16_t>(key >> 32));
}
int UnpackVcpu(uint64_t key) {
  return static_cast<int16_t>(static_cast<uint16_t>(key >> 16));
}
AttrLayer UnpackLayer(uint64_t key) {
  return static_cast<AttrLayer>(static_cast<uint8_t>(key >> 8));
}
AttrCat UnpackCat(uint64_t key) {
  return static_cast<AttrCat>(static_cast<uint8_t>(key));
}

AttrBucket Unpack(uint64_t key, uint64_t cycles) {
  return AttrBucket{.vm = UnpackVm(key),
                    .vcpu = UnpackVcpu(key),
                    .layer = UnpackLayer(key),
                    .cat = UnpackCat(key),
                    .cycles = cycles};
}

bool BucketOrder(const AttrBucket& a, const AttrBucket& b) {
  if (a.vm != b.vm) {
    return a.vm < b.vm;
  }
  if (a.vcpu != b.vcpu) {
    return a.vcpu < b.vcpu;
  }
  if (a.layer != b.layer) {
    return a.layer < b.layer;
  }
  return a.cat < b.cat;
}

std::string ContextName(int vm, int vcpu) {
  if (vm < 0) {
    return "host";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "vm%d/vcpu%d", vm, vcpu);
  return buf;
}

}  // namespace

const char* AttrLayerName(AttrLayer layer) {
  return kLayerNames[static_cast<size_t>(layer)];
}

const char* AttrCatName(AttrCat cat) {
  return kCatNames[static_cast<size_t>(cat)];
}

bool AttrLayerFromName(const std::string& name, AttrLayer* out) {
  for (int i = 0; i < kNumAttrLayers; ++i) {
    if (name == kLayerNames[i]) {
      *out = static_cast<AttrLayer>(i);
      return true;
    }
  }
  return false;
}

bool AttrCatFromName(const std::string& name, AttrCat* out) {
  for (int i = 0; i < kNumAttrCats; ++i) {
    if (name == kCatNames[i]) {
      *out = static_cast<AttrCat>(i);
      return true;
    }
  }
  return false;
}

AttrBucket UnpackAttrKey(uint64_t key) { return Unpack(key, 0); }

std::string AttrBucket::StackName() const {
  std::string s = ContextName(vm, vcpu);
  s += ';';
  s += AttrLayerName(layer);
  s += ';';
  s += AttrCatName(cat);
  return s;
}

void CycleAttribution::AttachCpu(int cpu) {
  // host-invariant: CPU indices come from machine construction.
  NEVE_CHECK(cpu >= 0);
  if (static_cast<size_t>(cpu) >= percpu_.size()) {
    percpu_.resize(static_cast<size_t>(cpu) + 1);
  }
  PerCpu& pc = percpu_[static_cast<size_t>(cpu)];
  // host-invariant: a CPU attaches exactly once.
  NEVE_CHECK(pc.stack.empty());
  uint64_t root = PackAttrKey(-1, -1, AttrLayer::kL0, AttrCat::kHostOther);
  pc.stack.push_back(root);
  pc.bucket = BucketFor(cpu, root);
}

void CycleAttribution::Fold(PerCpu& pc) {
  if (pc.redirect_pending != nullptr && *pc.redirect_pending != 0) {
    pc.buckets[ReplaceAttrCat(pc.stack.back(), AttrCat::kVncrRedirect)] +=
        *pc.redirect_pending;
    *pc.redirect_pending = 0;
  }
}

void CycleAttribution::BindRedirectPending(int cpu, uint64_t* pending) {
  PerCpu& pc = percpu_[static_cast<size_t>(cpu)];
  Fold(pc);
  pc.redirect_pending = pending;
}

void CycleAttribution::FoldPending() {
  for (PerCpu& pc : percpu_) {
    Fold(pc);
  }
}

void CycleAttribution::Push(int cpu, int vm, int vcpu, AttrLayer layer,
                            AttrCat cat) {
  PerCpu& pc = percpu_[static_cast<size_t>(cpu)];
  Fold(pc);
  uint64_t key = PackAttrKey(vm, vcpu, layer, cat);
  pc.stack.push_back(key);
  pc.bucket = BucketFor(cpu, key);
}

void CycleAttribution::PushInherit(int cpu, AttrCat cat) {
  PerCpu& pc = percpu_[static_cast<size_t>(cpu)];
  Fold(pc);
  uint64_t key = ReplaceAttrCat(pc.stack.back(), cat);
  pc.stack.push_back(key);
  pc.bucket = BucketFor(cpu, key);
}

void CycleAttribution::PushInheritLayer(int cpu, AttrLayer layer,
                                        AttrCat cat) {
  PerCpu& pc = percpu_[static_cast<size_t>(cpu)];
  Fold(pc);
  uint64_t top = pc.stack.back();
  uint64_t key = PackAttrKey(UnpackVm(top), UnpackVcpu(top), layer, cat);
  pc.stack.push_back(key);
  pc.bucket = BucketFor(cpu, key);
}

void CycleAttribution::Pop(int cpu) {
  PerCpu& pc = percpu_[static_cast<size_t>(cpu)];
  // host-invariant: scopes are RAII-balanced; the root frame never pops.
  NEVE_CHECK(pc.stack.size() > 1);
  Fold(pc);
  pc.stack.pop_back();
  pc.bucket = BucketFor(cpu, pc.stack.back());
}

void CycleAttribution::RecordFlight(const std::string& reason) {
  FlightRecord rec{.reason = reason,
                   .cycles = TotalCycles(),
                   .buckets = Snapshot()};
  MutexLock lock(flights_mu_);
  if (flights_.size() < kFlightCapacity) {
    flights_.push_back(std::move(rec));
  } else {
    flights_[flight_next_] = std::move(rec);
  }
  flight_next_ = (flight_next_ + 1) % kFlightCapacity;
}

std::vector<AttrBucket> CycleAttribution::Snapshot() const {
  // Merge-sum the per-CPU shards: the same (vm, vcpu, layer, cat) key exists
  // in every shard whose CPU charged it (every CPU has its own root-frame
  // slot, for one).
  std::map<uint64_t, uint64_t> merged;
  for (const PerCpu& pc : percpu_) {
    for (const auto& [key, cycles] : pc.buckets) {
      merged[key] += cycles;
    }
    if (pc.redirect_pending != nullptr && *pc.redirect_pending != 0) {
      merged[ReplaceAttrCat(pc.stack.back(), AttrCat::kVncrRedirect)] +=
          *pc.redirect_pending;
    }
  }
  std::vector<AttrBucket> out;
  out.reserve(merged.size());
  for (const auto& [key, cycles] : merged) {
    if (cycles != 0) {
      out.push_back(Unpack(key, cycles));
    }
  }
  std::sort(out.begin(), out.end(), BucketOrder);
  return out;
}

uint64_t CycleAttribution::TotalCycles() const {
  uint64_t total = 0;
  for (const PerCpu& pc : percpu_) {
    for (const auto& [key, cycles] : pc.buckets) {
      total += cycles;
    }
    if (pc.redirect_pending != nullptr) {
      total += *pc.redirect_pending;
    }
  }
  return total;
}

void CycleAttribution::SortBuckets(std::vector<AttrBucket>* rows) {
  std::sort(rows->begin(), rows->end(), BucketOrder);
}

std::string CycleAttribution::RenderTextTree(
    const std::vector<AttrBucket>& rows) {
  uint64_t total = 0;
  for (const AttrBucket& b : rows) {
    total += b.cycles;
  }
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "total %" PRIu64 " cycles\n", total);
  out += line;
  // Group rows by (vm, vcpu) then by layer; rows arrive sorted that way.
  size_t i = 0;
  while (i < rows.size()) {
    int vm = rows[i].vm;
    int vcpu = rows[i].vcpu;
    uint64_t ctx_total = 0;
    size_t j = i;
    for (; j < rows.size() && rows[j].vm == vm && rows[j].vcpu == vcpu; ++j) {
      ctx_total += rows[j].cycles;
    }
    std::snprintf(line, sizeof(line), "%s  %" PRIu64 "  (%.1f%%)\n",
                  ContextName(vm, vcpu).c_str(), ctx_total,
                  total == 0 ? 0.0 : 100.0 * ctx_total / total);
    out += line;
    size_t k = i;
    while (k < j) {
      AttrLayer layer = rows[k].layer;
      uint64_t layer_total = 0;
      size_t m = k;
      for (; m < j && rows[m].layer == layer; ++m) {
        layer_total += rows[m].cycles;
      }
      std::snprintf(line, sizeof(line), "  %s  %" PRIu64 "  (%.1f%%)\n",
                    AttrLayerName(layer), layer_total,
                    total == 0 ? 0.0 : 100.0 * layer_total / total);
      out += line;
      for (; k < m; ++k) {
        std::snprintf(line, sizeof(line), "    %-16s %12" PRIu64 "  (%.1f%%)\n",
                      AttrCatName(rows[k].cat), rows[k].cycles,
                      total == 0 ? 0.0 : 100.0 * rows[k].cycles / total);
        out += line;
      }
    }
    i = j;
  }
  return out;
}

std::string CycleAttribution::RenderCollapsed(
    const std::vector<AttrBucket>& rows) {
  std::string out;
  char line[160];
  for (const AttrBucket& b : rows) {
    std::snprintf(line, sizeof(line), "%s %" PRIu64 "\n",
                  b.StackName().c_str(), b.cycles);
    out += line;
  }
  return out;
}

void CycleAttribution::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("total");
  w.Number(TotalCycles());
  w.Key("buckets");
  w.BeginArray();
  for (const AttrBucket& b : Snapshot()) {
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

}  // namespace neve
