#include "src/obs/attr.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <numeric>

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

AttrBucket Unpack(uint64_t key, uint64_t cycles) {
  return AttrBucket{
      .vm = static_cast<int16_t>(key >> 32),
      .vcpu = static_cast<int16_t>(key >> 16),
      .layer = static_cast<AttrLayer>(static_cast<uint8_t>(key >> 8)),
      .cat = static_cast<AttrCat>(static_cast<uint8_t>(key)),
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
  while (percpu_.size() <= static_cast<size_t>(cpu)) {
    percpu_.push_back(std::make_unique<PerCpu>());
  }
  PerCpu& pc = *percpu_[static_cast<size_t>(cpu)];
  // host-invariant: a CPU attaches exactly once.
  NEVE_CHECK(pc.stack.empty());
  PushCell(pc, CellFor(pc, PackAttrKey(-1, -1, AttrLayer::kL0,
                                       AttrCat::kHostOther)));
}

void CycleAttribution::Retop(PerCpu& pc) {
  const uint32_t top = pc.stack.back();
  pc.top.cell = &pc.cells[top];
  pc.top.row = pc.top.cell - top % kNumAttrCats;
}

void CycleAttribution::PushCell(PerCpu& pc, uint32_t cell) {
  pc.stack.push_back(cell);
  Retop(pc);
}

uint32_t CycleAttribution::CellFor(PerCpu& pc, uint64_t key) {
  const uint64_t context = key & ~UINT64_C(0xFFFF);  // layer, cat bytes zero
  const size_t block = static_cast<size_t>(
      std::ranges::find(pc.contexts, context) - pc.contexts.begin());
  if (block == pc.contexts.size()) {
    pc.contexts.push_back(context);
    pc.cells.resize(pc.cells.size() + kCellsPerContext);
  }
  // PackAttrKey's layer and category bytes pick the cell in the block.
  return static_cast<uint32_t>(block * kCellsPerContext +
                               (key >> 8 & 0xFF) * kNumAttrCats + (key & 0xFF));
}

uint64_t CycleAttribution::KeyOf(const PerCpu& pc, size_t cell) {
  const size_t in_block = cell % kCellsPerContext;
  return pc.contexts[cell / kCellsPerContext] |
         (in_block / kNumAttrCats) << 8 | in_block % kNumAttrCats;
}

void CycleAttribution::Push(int cpu, int vm, int vcpu, AttrLayer layer,
                            AttrCat cat) {
  PerCpu& pc = *percpu_[static_cast<size_t>(cpu)];
  PushCell(pc, CellFor(pc, PackAttrKey(vm, vcpu, layer, cat)));
}

void CycleAttribution::PushInherit(int cpu, AttrCat cat) {
  PerCpu& pc = *percpu_[static_cast<size_t>(cpu)];
  const uint32_t top = pc.stack.back();
  PushCell(pc, top - top % kNumAttrCats + static_cast<uint32_t>(cat));
}

void CycleAttribution::PushInheritLayer(int cpu, AttrLayer layer,
                                        AttrCat cat) {
  PerCpu& pc = *percpu_[static_cast<size_t>(cpu)];
  const uint32_t top = pc.stack.back();
  PushCell(pc, top - top % kCellsPerContext +
                   static_cast<uint32_t>(layer) * kNumAttrCats +
                   static_cast<uint32_t>(cat));
}

void CycleAttribution::Pop(int cpu) {
  PerCpu& pc = *percpu_[static_cast<size_t>(cpu)];
  // host-invariant: scopes are RAII-balanced; the root frame never pops.
  NEVE_CHECK(pc.stack.size() > 1);
  pc.stack.pop_back();
  Retop(pc);
}

uint64_t CycleAttribution::CurrentKey(int cpu) const {
  const size_t i = static_cast<size_t>(cpu);
  if (cpu < 0 || i >= percpu_.size() || percpu_[i]->stack.empty()) {
    return kNoAttrKey;
  }
  return KeyOf(*percpu_[i], percpu_[i]->stack.back());
}

std::vector<uint64_t> CycleAttribution::FrameKeys(size_t cpu) const {
  const PerCpu& pc = *percpu_[cpu];
  std::vector<uint64_t> keys(pc.stack.size());
  std::ranges::transform(pc.stack, keys.begin(),
                         [&pc](uint32_t cell) { return KeyOf(pc, cell); });
  return keys;
}

CycleAttribution::ShardRows CycleAttribution::Rows(size_t cpu) const {
  const PerCpu& pc = *percpu_[cpu];
  ShardRows rows;
  for (size_t c = 0; c < pc.cells.size(); ++c) {
    if (pc.cells[c] != 0 || std::ranges::count(pc.stack, c) != 0) {
      rows.emplace_back(KeyOf(pc, c), pc.cells[c]);
    }
  }
  std::ranges::sort(rows);
  return rows;
}

void CycleAttribution::RestoreRows(size_t cpu, const ShardRows& rows) {
  PerCpu& pc = *percpu_[cpu];
  std::ranges::fill(pc.cells, 0);
  for (const auto& [key, cycles] : rows) {
    const uint32_t cell = CellFor(pc, key);
    pc.cells[cell] = cycles;
  }
  Retop(pc);
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
  // Merge-sum the per-CPU shards: the same (vm, vcpu, layer, cat) key has a
  // cell in every shard whose CPU ran that context.
  std::map<uint64_t, uint64_t> merged;
  for (const auto& pc : percpu_) {
    for (size_t c = 0; c < pc->cells.size(); ++c) {
      if (pc->cells[c] != 0) {
        merged[KeyOf(*pc, c)] += pc->cells[c];
      }
    }
  }
  std::vector<AttrBucket> out;
  out.reserve(merged.size());
  for (const auto& [key, cycles] : merged) {
    out.push_back(Unpack(key, cycles));
  }
  std::sort(out.begin(), out.end(), BucketOrder);
  return out;
}

uint64_t CycleAttribution::TotalCycles() const {
  uint64_t total = 0;
  for (const auto& pc : percpu_) {
    total = std::accumulate(pc->cells.begin(), pc->cells.end(), total);
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
