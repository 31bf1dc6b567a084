// Cross-layer cycle attribution: where do the cycles go?
//
// The paper's core measurements (Tables 6-7) are cost *breakdowns*: cycles
// split by virtualization layer and by cause (trap kind, world-switch phase,
// sysreg emulation, shadow Stage-2 fixups, GIC, VNCR redirects, guest
// compute). The flat obs counters cannot answer those questions, so every
// Machine owns a CycleAttribution: an always-on accounting layer that maps
// every cycle charged on every simulated CPU into exactly one bucket keyed by
// (vm, vcpu, layer, category).
//
// Mechanism: each CPU owns one block of cycle cells (3 layers x 19
// categories) per (vm, vcpu) context it has run, and a stack of frames, each
// a cell index. Layers push frames around meaningful regions (a trap episode,
// a world switch phase, guest execution) via the AttrScope RAII helper;
// Cpu::Charge adds to the top frame's cell through a cached pointer. Push
// finds or appends its context's block; the other frame operations and
// ChargeTo are arithmetic on the top cell's index. Scopes are exception-safe:
// a GuestFaultException unwinding through nested guest frames pops every
// frame it crossed.
//
// Conservation contract: the sum over all cells equals the sum of the
// machine's CPU cycle counters at all times (attr_test.cc asserts this on
// every stack configuration). Two rules make that hold:
//   1. every cycle mutation goes through Cpu::Charge / Cpu::AdvanceTo, both
//      of which attribute, and
//   2. Pop never discards a frame's charges -- charges land in cells, not in
//      frames.
//
// Overhead contract: with no CycleAttribution attached (attr_ == nullptr in
// Cpu) the cost is one predicted-not-taken branch per Charge; with one
// attached it is one add through a cached pointer. bench/simcore_gbench.cc's
// BM_Vel2SysRegBurstAttr vs BM_Vel2SysRegBurstCached pair and the ctest
// overhead guard keep the attached path within 3%.
//
// Thread safety: each CPU's cells live in its own heap shard, and only that
// CPU's lane of the SMP engine (one lane per CPU, see sim/smp.h) writes
// them. The read side (Snapshot/TotalCycles) merge-sums the shards; it runs
// only when no lane is executing. The flight-recorder ring is the one
// cross-CPU mutation and takes "obs.attr_flights".

#ifndef NEVE_SRC_OBS_ATTR_H_
#define NEVE_SRC_OBS_ATTR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"

namespace neve {

class JsonWriter;

namespace snap {
class Serializer;  // src/snap: serializes the shards and flight records
}  // namespace snap

// Which virtualization layer the cycles belong to. L0 is the host hypervisor
// (and the host's own runtime), L1 a VM (or the guest hypervisor inside it),
// L2 a nested VM.
enum class AttrLayer : uint8_t { kL0 = 0, kL1, kL2 };
inline constexpr int kNumAttrLayers = 3;

// Why the cycles were spent. Trap categories cover the architectural trap
// entry/return and the host's exit dispatch; the emulation categories refine
// what the handler did; kGuestCompute is time the guest itself runs;
// kIdleWait is cross-CPU rendezvous (AdvanceTo) -- cycles a CPU's clock
// skipped forward while logically idle.
enum class AttrCat : uint8_t {
  kHostOther = 0,   // host run loop, vcpu load/put, uncategorized host work
  kGuestCompute,    // the guest's own instructions
  kTrapHvc,         // hypercall trap episodes
  kTrapSysReg,      // sysreg trap episodes
  kTrapEret,        // trapped ERET episodes (v8.3-NV nested entry/exit)
  kTrapDataAbort,   // Stage-2 data abort episodes
  kTrapIrq,         // physical IRQ trap episodes + host IRQ triage
  kTrapWfx,         // WFI/WFE trap episodes
  kTrapOther,       // any other trap class
  kWorldSwitchEnter,  // host->guest world-switch phase
  kWorldSwitchExit,   // guest->host world-switch phase
  kSysRegEmul,      // sysreg emulation work inside a handler
  kTimerEmul,       // timer (and EL0/2 timer) emulation
  kGicEmul,         // GIC distributor/redistributor/vCPU-interface emulation
  kShadowS2Fixup,   // shadow Stage-2 walk + install
  kVel2Deliver,     // synthesizing an exception into virtual EL2
  kMmioEmul,        // device MMIO dispatch + device model work
  kVncrRedirect,    // NEVE deferred-sysreg memory redirects
  kIdleWait,        // AdvanceTo rendezvous: clock catch-up while idle
};
inline constexpr int kNumAttrCats = 19;

const char* AttrLayerName(AttrLayer layer);
const char* AttrCatName(AttrCat cat);
// Reverse lookups for tools/obsreport's JSON reader; return false on unknown
// names.
bool AttrLayerFromName(const std::string& name, AttrLayer* out);
bool AttrCatFromName(const std::string& name, AttrCat* out);

// Packed bucket key. vm/vcpu are sign-extended 16-bit fields so the host's
// root context (vm = vcpu = -1) packs cleanly.
inline constexpr uint64_t PackAttrKey(int vm, int vcpu, AttrLayer layer,
                                      AttrCat cat) {
  return (static_cast<uint64_t>(static_cast<uint16_t>(vm)) << 32) |
         (static_cast<uint64_t>(static_cast<uint16_t>(vcpu)) << 16) |
         (static_cast<uint64_t>(static_cast<uint8_t>(layer)) << 8) |
         static_cast<uint64_t>(static_cast<uint8_t>(cat));
}

// Sentinel for "no attribution context" (e.g. a fault injected on a CPU with
// no attribution attached). Distinct from every packable key: the layer byte
// is out of range.
inline constexpr uint64_t kNoAttrKey = ~UINT64_C(0);

// One row of a Snapshot(): an unpacked bucket key plus its cycle total.
struct AttrBucket {
  int vm = -1;     // -1: host root context (no VM)
  int vcpu = -1;   // -1: no vcpu loaded
  AttrLayer layer = AttrLayer::kL0;
  AttrCat cat = AttrCat::kHostOther;
  uint64_t cycles = 0;

  bool operator==(const AttrBucket&) const = default;

  // "vm0/vcpu1;L2;trap_sysreg" -- the collapsed-stack frame prefix.
  std::string StackName() const;
};

// Unpacks a key into a zero-cycle bucket row (for tagged external records
// like fault injections).
AttrBucket UnpackAttrKey(uint64_t key);

class CycleAttribution {
 public:
  CycleAttribution() = default;
  CycleAttribution(const CycleAttribution&) = delete;
  CycleAttribution& operator=(const CycleAttribution&) = delete;

  // Registers a CPU and pushes its root frame (vm=-1, vcpu=-1, L0,
  // kHostOther). Called once per CPU at machine construction.
  void AttachCpu(int cpu);

  // --- frame stack (AttrScope is the intended interface) -------------------
  void Push(int cpu, int vm, int vcpu, AttrLayer layer, AttrCat cat);
  // Push inheriting vm/vcpu/layer from the current top frame.
  void PushInherit(int cpu, AttrCat cat);
  // Push inheriting vm/vcpu, overriding layer.
  void PushInheritLayer(int cpu, AttrLayer layer, AttrCat cat);
  void Pop(int cpu);
  size_t Depth(int cpu) const { return percpu_[cpu]->stack.size(); }

  // The packed key of `cpu`'s current top frame, or kNoAttrKey when that CPU
  // was never attached. Used to tag externally-recorded events (fault
  // injections) with the attribution context they happened under.
  uint64_t CurrentKey(int cpu) const;

  // --- the hot path --------------------------------------------------------
  // A CPU's top frame cell and the first cell of its (context, layer) row.
  // Frame changes re-point both; the struct's address is fixed from
  // AttachCpu on, so Cpu::Charge adds through a pointer to it.
  struct TopCells {
    uint64_t* cell = nullptr;
    uint64_t* row = nullptr;
  };
  const TopCells& Top(int cpu) const { return percpu_[cpu]->top; }
  // Charge to the current top frame's cell: one add through a cached
  // pointer.
  void ChargeCurrent(int cpu, uint64_t cycles) { *Top(cpu).cell += cycles; }
  // Charge to the current frame's context and layer but a different
  // category, without pushing a frame (for single-charge sites like VNCR
  // redirects and GIC vCPU-interface accesses).
  void ChargeTo(int cpu, AttrCat cat, uint64_t cycles) {
    Top(cpu).row[static_cast<size_t>(cat)] += cycles;
  }

  // --- flight recorder -----------------------------------------------------
  // A bounded ring of attribution-tree snapshots taken at notable moments
  // (guest-fault confinement, panic). Machine wires the guest-fault and
  // panic hooks to this.
  struct FlightRecord {
    std::string reason;
    uint64_t cycles = 0;  // machine cycle total at capture
    std::vector<AttrBucket> buckets;
    bool operator==(const FlightRecord&) const = default;
  };
  static constexpr size_t kFlightCapacity = 16;
  void RecordFlight(const std::string& reason);
  // Returns a copy: the ring may be appended from another lane (a confined
  // guest fault under the SMP engine records a flight mid-run).
  std::vector<FlightRecord> flights() const {
    MutexLock lock(flights_mu_);
    return flights_;
  }

  // --- read side -----------------------------------------------------------
  // All nonzero buckets, sorted by (vm, vcpu, layer, cat) for deterministic
  // output.
  std::vector<AttrBucket> Snapshot() const;
  // Sum over all cells; the conservation invariant compares this against
  // the sum of the machine's CPU cycle counters.
  uint64_t TotalCycles() const;

  // Human-readable rollup: vm -> layer -> category tree with cycle counts
  // and percentages.
  std::string TextTree() const { return RenderTextTree(Snapshot()); }
  // One line per bucket in collapsed-stack format ("frame;frame;frame N"),
  // foldable by standard flamegraph tooling.
  std::string CollapsedStacks() const { return RenderCollapsed(Snapshot()); }
  // {"total": N, "buckets": [{vm, vcpu, layer, cat, cycles}, ...]}
  void WriteJson(JsonWriter& w) const;

  // The renderers behind TextTree/CollapsedStacks, usable on any bucket set
  // (tools/obsreport renders rows it parsed back out of JSON). `rows` must be
  // sorted the way Snapshot() sorts (SortBuckets does that).
  static std::string RenderTextTree(const std::vector<AttrBucket>& rows);
  static std::string RenderCollapsed(const std::vector<AttrBucket>& rows);
  static void SortBuckets(std::vector<AttrBucket>* rows);

 private:
  // Reads and restores the shards in key form (below) and the flight ring.
  friend class snap::Serializer;

  using ShardRows = std::vector<std::pair<uint64_t, uint64_t>>;  // key, cycles

  // A context's block holds (layer, cat) at cell layer * kNumAttrCats + cat.
  static constexpr uint32_t kCellsPerContext = kNumAttrLayers * kNumAttrCats;

  struct PerCpu {
    // Packed key of each cell block's (vm, vcpu) context, layer and category
    // bits zero; block i holds cells [i * kCellsPerContext, +kCellsPerContext).
    std::vector<uint64_t> contexts;
    std::vector<uint64_t> cells;
    std::vector<uint32_t> stack;  // frames: cell indices, bottom is the root
    // Points into cells at stack.back(). Appending a block moves the cells,
    // so every call that can append re-points it (Retop).
    TopCells top;
  };

  static void Retop(PerCpu& pc);
  static void PushCell(PerCpu& pc, uint32_t cell);
  // The cell of `key` in pc, appending a block when pc never met its context.
  static uint32_t CellFor(PerCpu& pc, uint64_t key);
  static uint64_t KeyOf(const PerCpu& pc, size_t cell);

  size_t NumCpus() const { return percpu_.size(); }
  // The packed keys of `cpu`'s frame stack, bottom first.
  std::vector<uint64_t> FrameKeys(size_t cpu) const;
  // `cpu`'s cells on the frame stack plus every nonzero cell, sorted by key.
  ShardRows Rows(size_t cpu) const;
  // Replaces `cpu`'s cycles with `rows`, found by key (never by cell index:
  // another CPU may have met its contexts in another order).
  void RestoreRows(size_t cpu, const ShardRows& rows);

  // One heap shard per CPU, so TopCells stay put as more CPUs attach.
  std::vector<std::unique_ptr<PerCpu>> percpu_;
  mutable Mutex flights_mu_{"obs.attr_flights"};
  std::vector<FlightRecord> flights_ GUARDED_BY(flights_mu_);
  size_t flight_next_ GUARDED_BY(flights_mu_) = 0;
};

// RAII attribution frame, modeled on ScopedSpan. Clocked is any type exposing
// attribution() and index() (Cpu in practice; a template keeps this header
// free of a cpu.h dependency, which includes us). With no attribution
// attached the scope is two null checks.
template <typename Clocked>
class AttrScope {
 public:
  AttrScope(Clocked& c, AttrCat cat)
      : attr_(c.attribution()), cpu_(c.index()) {
    if (attr_ != nullptr) {
      attr_->PushInherit(cpu_, cat);
    }
  }
  AttrScope(Clocked& c, AttrLayer layer, AttrCat cat)
      : attr_(c.attribution()), cpu_(c.index()) {
    if (attr_ != nullptr) {
      attr_->PushInheritLayer(cpu_, layer, cat);
    }
  }
  AttrScope(Clocked& c, int vm, int vcpu, AttrLayer layer, AttrCat cat)
      : attr_(c.attribution()), cpu_(c.index()) {
    if (attr_ != nullptr) {
      attr_->Push(cpu_, vm, vcpu, layer, cat);
    }
  }
  ~AttrScope() {
    if (attr_ != nullptr) {
      attr_->Pop(cpu_);
    }
  }

  AttrScope(const AttrScope&) = delete;
  AttrScope& operator=(const AttrScope&) = delete;

 private:
  CycleAttribution* attr_;
  int cpu_;
};

}  // namespace neve

#endif  // NEVE_SRC_OBS_ATTR_H_
