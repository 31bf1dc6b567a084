// The simulated CPU core.
//
// All simulated software -- guest workloads, guest hypervisors and the host
// hypervisor -- executes by calling the operation methods below. Each
// operation charges calibrated cycles (cost_model.h) and consults the
// E2H/NV/NEVE resolution pipeline (trap_rules.h); an operation that must trap
// performs exception entry to EL2 and invokes the installed El2Host
// synchronously, so exit multiplication (the paper's core phenomenon) arises
// from real control flow rather than bookkeeping.
//
// Control-transfer modeling: "entering a guest" is a nested call
// (RunLowerEl), mirroring how KVM's __guest_enter returns on the next exit.
// A trapped operation resumes after its handler returns, exactly like
// hardware resuming at the preferred return address. The C++ call stack
// therefore always mirrors the privilege stack, and unwinds symmetrically.

#ifndef NEVE_SRC_CPU_CPU_H_
#define NEVE_SRC_CPU_CPU_H_

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/arch/el.h"
#include "src/arch/esr.h"
#include "src/arch/features.h"
#include "src/arch/hcr.h"
#include "src/arch/sysreg.h"
#include "src/cpu/cost_model.h"
#include "src/cpu/resolution_cache.h"
#include "src/cpu/trace.h"
#include "src/cpu/trap_class.h"
#include "src/cpu/trap_rules.h"
#include "src/fault/guest_fault.h"
#include "src/mem/phys_mem.h"
#include "src/obs/attr.h"
#include "src/obs/observability.h"

namespace neve {

class FaultInjector;

namespace snap {
class Serializer;  // src/snap: serializes the register file, TLB and clock
}  // namespace snap

namespace batch {
class BatchEngine;  // src/sim/batch: batched superblock execution
}  // namespace batch

// How a trapped operation completes, decided by the host hypervisor.
struct TrapOutcome {
  enum class Kind : uint8_t {
    kCompleted,  // instruction emulated; reads receive `value`
    kRetry,      // replay the faulting operation (e.g. after S2 fixup)
  };
  Kind kind = Kind::kCompleted;
  uint64_t value = 0;

  static TrapOutcome Completed(uint64_t v = 0) {
    return {.kind = Kind::kCompleted, .value = v};
  }
  static TrapOutcome Retry() { return {.kind = Kind::kRetry}; }
};

class Cpu;

// A fixed sequence of system-register encodings that hypervisor software
// transfers as one unit: a world-switch save or restore list. Lists have
// static storage duration. Each takes a dense id at construction, which
// indexes every CPU's plan store (Cpu::ReadList/WriteList), so the plans of
// two lists can never evict each other. A list used for both reads and
// writes still works, but its two directions share plan slots; give each
// direction its own list.
class SysRegList {
 public:
  static constexpr size_t kMaxSize = 16;

  explicit SysRegList(std::span<const SysReg> encs);

  // The first `n` entries (1 <= n <= size()), sharing this list's plans: a
  // prefix of a valid plan is itself valid. For lists whose live length
  // varies per run, such as the in-use vGIC list registers.
  SysRegList First(size_t n) const;

  std::span<const SysReg> encs() const { return encs_; }
  size_t size() const { return encs_.size(); }

 private:
  friend class Cpu;
  SysRegList(std::span<const SysReg> encs, const SysRegList& whole)
      : encs_(encs),
        id_(whole.id_),
        capacity_(whole.capacity_),
        target_base_(whole.target_base_) {}

  // not-snapshotted: a list is static program data, not machine state.
  std::span<const SysReg> encs_;
  uint32_t id_;  // not-snapshotted: see encs_
  // not-snapshotted: see encs_. The whole list's size; First() shares it.
  uint32_t capacity_;
  // not-snapshotted: see encs_. This list's first plan-target entry.
  uint32_t target_base_;
};

// The save-area memory reference (one CostModel::mem_access) that goes with
// each register of a list transfer, and where it is charged.
enum class ContextSlots : uint8_t {
  kNone,      // registers only
  kPerEntry,  // one next to each access: after a read, before a write
  kBlock,     // one per entry as a block: after all reads, before all writes
};

// The EL2 exception vector: implemented by the host hypervisor. Invoked by
// the CPU after exception entry; runs at EL2 and may itself run lower-EL
// software via RunLowerEl (nested VM entry).
class El2Host {
 public:
  virtual ~El2Host() = default;
  virtual TrapOutcome OnTrapToEl2(Cpu& cpu, const Syndrome& syndrome) = 0;
};

// The GICv3 CPU interface, served by the GIC model (hardware-accelerated
// ack/EOI path; see src/gic).
class GicCpuInterface {
 public:
  virtual ~GicCpuInterface() = default;
  virtual uint64_t IccRead(int cpu, RegId reg) = 0;
  virtual void IccWrite(int cpu, RegId reg, uint64_t value) = 0;
};

class Cpu {
 public:
  Cpu(int index, ArchFeatures features, const CostModel& cost, PhysMem* mem);

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  // --- wiring -----------------------------------------------------------
  void SetEl2Host(El2Host* host) { host_ = host; }
  void SetGicCpuInterface(GicCpuInterface* gic) { gic_ = gic; }
  // Machine-wide observability layer (metrics + tracer); may stay null for
  // bare CPUs built outside a Machine. Hooks are no-ops unless the layer is
  // both present and enabled. The CPU's metric handles rebind to the new
  // layer's registry on their next use.
  void SetObservability(Observability* obs) { obs_ = obs; }
  Observability* obs() const { return obs_; }
  // Machine-wide fault injector (src/fault); may stay null. Injection sites
  // are no-ops unless the injector is both present and armed (FaultActive).
  void SetFaultInjector(FaultInjector* fault) { fault_ = fault; }
  FaultInjector* fault() const { return fault_; }
  // Machine-wide cycle attribution (src/obs/attr.h); may stay null for bare
  // CPUs built outside a Machine. When attached, every Charge lands in the
  // CPU's current attribution frame; the CPU must have been AttachCpu()d
  // first.
  void SetAttribution(CycleAttribution* attr) {
    attr_ = attr;
    attr_top_ = attr != nullptr ? &attr->Top(index_) : nullptr;
  }
  CycleAttribution* attribution() const { return attr_; }

  // --- trap-livelock watchdog -------------------------------------------
  // When nonzero, the next trap taken at or past this cycle count raises a
  // confined guest fault ("watchdog") instead of dispatching to the host.
  // Armed by HostKvm::RunVcpu from MachineConfig::fault.watchdog_budget; the
  // check only fires on guest-context traps, so it unwinds to the VM entry
  // point that armed it.
  uint64_t watchdog_deadline() const { return watchdog_deadline_; }
  void SetWatchdogDeadline(uint64_t deadline) {
    watchdog_deadline_ = deadline;
  }

  // The complementary check for livelocks that never trap: a guest spinning
  // on compute or ordinary memory accesses (e.g. waiting on a flag that a
  // dropped interrupt will never set) burns cycles without ever reaching
  // the trap-entry check above. Called from guest-context Compute/LoadVa/
  // StoreVa; inert at EL2 (host emulation work is bounded by construction)
  // and when no deadline is armed.
  void WatchdogCheckGuestSpin() {
    if (watchdog_deadline_ != 0 && el_ != El::kEl2 &&
        cycles_ >= watchdog_deadline_) {
      watchdog_deadline_ = 0;
      RaiseGuestFault("watchdog",
                      "trap-livelock watchdog: cycle budget exhausted inside "
                      "one VM entry (compute/memory spin, no trap)");
    }
  }

  int index() const { return index_; }
  const ArchFeatures& features() const { return features_; }
  const CostModel& cost() const { return cost_; }
  PhysMem& mem() { return *mem_; }

  // --- clock & trace ------------------------------------------------------
  uint64_t cycles() const { return cycles_; }
  void AdvanceTo(uint64_t cycle_count);  // cross-CPU rendezvous (sim layer)
  CpuTrace& trace() { return trace_; }

  El current_el() const { return el_; }

  // =======================================================================
  // Software-visible operations (cycle charged, may trap)
  // =======================================================================

  uint64_t SysRegRead(SysReg enc);
  void SysRegWrite(SysReg enc, uint64_t value);

  // List transfers: read every entry of `list` into out[0..size), or write
  // in[0..size) to it, with `slots` context-slot charges. Equivalent,
  // access for access, to the loop of SysRegRead/SysRegWrite and
  // Compute(mem_access) they replace: the same values, cycles, attribution,
  // traps, watchdog checks and resolution-cache counters.
  //
  // The first run under a (list, configuration generation, EL) key is that
  // loop, and it records each entry's resolution. When every entry resolved
  // to a plain register (no trap, VNCR redirect, GIC access, or HCR_EL2/
  // VNCR_EL2 write), later runs under the same key use the recorded plan:
  // direct register-file copies, one charge, and bulk-counted cache hits.
  void ReadList(const SysRegList& list, uint64_t* out,
                ContextSlots slots = ContextSlots::kNone);
  void WriteList(const SysRegList& list, const uint64_t* in,
                 ContextSlots slots = ContextSlots::kNone);

  // CurrentEL special register, with the ARMv8.3-NV disguise.
  El ReadCurrentEl();

  // hvc #imm. Only meaningful below EL2 (EL3 is not modeled).
  void Hvc(uint16_t imm);

  // eret executed by a deprivileged guest hypervisor (virtual EL2). Under
  // ARMv8.3-NV this traps to the host hypervisor, which switches contexts and
  // runs the nested VM; the call returns when control next reaches this
  // context (the host delivered a virtual exception back to virtual EL2) or
  // when the nested workload finished.
  void EretFromVirtualEl2();

  // An asynchronous interrupt arrives while this guest executes: with
  // HCR_EL2.IMO the hardware routes it to EL2 (an IRQ exit). Called by
  // device models / the app-workload driver at instruction boundaries.
  void TakeIrq(uint32_t intid);

  // wfi (may trap with HCR_EL2.TWI).
  void Wfi();

  // Barriers (isb/dsb): cost only.
  void Barrier();

  // TLB invalidate: drops the TLB and charges a barrier-ish cost. When the
  // host armed trap_tlbi (SMP guests whose shadow Stage-2 must be kept
  // coherent across vCPUs), a guest-context TLBI traps to EL2 first so the
  // host can broadcast the shadow invalidation; the local drop and charge
  // happen after the handler returns, like any other trapped instruction.
  void TlbiAll();

  // Host control over guest TLBI trapping (HCR_EL2.TTLB in spirit; kept out
  // of the HCR bits so existing guest HCR images stay valid). Armed by
  // SwitchIntoGuest for virtual-EL2 VMs, cleared on the way out.
  void SetTrapTlbi(bool trap) { trap_tlbi_ = trap; }
  bool trap_tlbi() const { return trap_tlbi_; }

  // Simulator-side TLB drop with no cycle charge: the host broadcasts a
  // sibling CPU's shootdown (the IPI + flush costs are charged by the
  // hypervisor emulation, not re-charged here).
  void DropTlb() { tlb_.clear(); }

  // Generic software work worth `cycles` cycles (straight-line code between
  // the architecturally interesting instructions).
  void Compute(uint32_t cycles);

  // Memory access through the active translation regime(s): Stage-1 when
  // SCTLR_EL1.M is set (EL0/EL1), Stage-2 when HCR_EL2.VM is set and the CPU
  // is below EL2. Stage-2 faults trap to EL2 (data abort, HPFAR set); the
  // host either fixes the mapping (retry) or emulates MMIO (complete).
  uint64_t LoadVa(Va va);
  void StoreVa(Va va, uint64_t value);

  // =======================================================================
  // Host-only operations (real EL2)
  // =======================================================================

  // Enters lower-EL software: charges the eret, switches to `target_el`,
  // runs `body`, and restores EL2 on return. `body` returning models the
  // final teardown of that software context (benchmark finished); mid-run
  // exits are handled inside trapped operations and do not unwind.
  void RunLowerEl(El target_el, const std::function<void()>& body);

  // Direct physical memory access by host hypervisor code (its VA==PA).
  uint64_t HostLoad(Pa pa);
  void HostStore(Pa pa, uint64_t value);

  // Raw register-file access for state save/restore by the *simulator* (not
  // cycle-charged; hypervisor code must use SysRegRead/Write instead).
  uint64_t PeekReg(RegId reg) const;
  void PokeReg(RegId reg, uint64_t value);

  // The access context software currently executes under (for tests and the
  // trap_explorer example).
  AccessContext CurrentAccessContext() const;

  // Order-stable digest of the architectural CPU state: the full backing
  // register file plus the current EL. Cycle counts are deliberately *not*
  // mixed in -- callers that need cycle identity (the resolution-cache
  // differential oracle) compare cycles() separately so a digest mismatch
  // always means a register/EL divergence. Simulator-side caches (TLB,
  // resolution cache) are invisible to this digest by design: they must
  // never change architectural state, which is exactly what the fuzz
  // oracles use this hook to prove.
  uint64_t ArchStateDigest() const;

  // The sysreg resolution fast-path cache (resolution_cache.h). Exposed so
  // tests and benches can read its counters or disable it (the uncached
  // variant in simcore_gbench, the differential checks in archlint).
  ResolutionCache& resolution_cache() { return rcache_; }
  const ResolutionCache& resolution_cache() const { return rcache_; }

  // A TLB entry and its key; a snapshot carries the TLB as sorted pairs.
  struct TlbEntry {
    uint64_t pa_page = 0;
    bool writable = false;
    bool operator==(const TlbEntry&) const = default;
  };
  struct TlbKey {
    uint64_t va_page;
    uint64_t s1_root;
    uint64_t s2_root;
    auto operator<=>(const TlbKey&) const = default;
  };

 private:
  struct TlbKeyHash {
    size_t operator()(const TlbKey& k) const {
      return std::hash<uint64_t>()(k.va_page * 0x9E3779B97F4A7C15ull ^
                                   k.s1_root ^ (k.s2_root << 1));
    }
  };

  Hcr hcr() const { return Hcr{regs_[static_cast<size_t>(RegId::kHCR_EL2)]}; }
  bool VncrEnabled() const;
  Pa VncrPage() const;

  // SysRegRead/Write resolution through the fast-path cache (or the full
  // tree walk when the cache is disabled).
  AccessResolution ResolveCached(SysReg enc, bool is_write);

  // The access half of SysRegRead/SysRegWrite, given the resolution.
  uint64_t ReadResolved(SysReg enc, const AccessResolution& r);
  void WriteResolved(SysReg enc, const AccessResolution& r, uint64_t value);

  // --- list plans (ReadList/WriteList) ------------------------------------
  // One plan slot per (list, configuration bank, EL1 or EL2). A bank holds
  // one configuration generation at a time, so no two live keys share a
  // slot. A header's tag is the generation and direction its plan was built
  // under; `len` counts the recorded entries, whose targets sit in
  // plan_targets_.
  static constexpr size_t kPlanEls = 2;  // EL1, EL2; EL0 never plans
  static constexpr size_t kPlanSlotsPerList =
      ResolutionCache::kNumBanks * kPlanEls;
  struct PlanHeader {
    uint64_t tag = 0;
    uint32_t len = 0;
  };
  // The plan slot for `list` under the live configuration and EL, or -1
  // when this run takes the per-access loop and builds no plan: cache
  // disabled, EL0, or a watchdog armed below EL2 (its spin check fires at
  // per-slot cycle positions).
  int64_t PlanSlot(const SysRegList& list);
  uint64_t PlanTag(bool is_write) const {
    return rcache_.config_generation() * 2 + (is_write ? 1 : 0);
  }
  RegId* PlanTargets(const SysRegList& list, int64_t slot) {
    size_t slot_in_list = static_cast<size_t>(slot) % kPlanSlotsPerList;
    return &plan_targets_[list.target_base_ * kPlanSlotsPerList +
                          slot_in_list * list.capacity_];
  }
  // The recorded targets when `slot` holds a plan for `tag` that covers
  // the list, else null.
  const RegId* FindPlan(const SysRegList& list, int64_t slot, uint64_t tag);
  void CommitPlan(const SysRegList& list, int64_t slot, uint64_t tag,
                  const RegId* targets);
  // The planned run: one charge for `n` entries, counted as cache hits.
  void ChargePlanned(size_t n, ContextSlots slots);
  void ChargeSlots(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      Compute(cost_.mem_access);
    }
  }

  // Re-keys the resolution cache when a configuration register the
  // resolution pipeline reads was written (HCR_EL2, VNCR_EL2). Call *after*
  // the store: the cache banks are tagged with the post-write values, so a
  // rewrite of identical values costs nothing and the world-switch pattern
  // of toggling between host and guest trap controls flips between two warm
  // banks instead of discarding the cache on every switch.
  void InvalidateResolutionsFor(RegId reg) {
    if (reg == RegId::kHCR_EL2 || reg == RegId::kVNCR_EL2) {
      rcache_.OnConfigChange(regs_[static_cast<size_t>(RegId::kHCR_EL2)],
                             regs_[static_cast<size_t>(RegId::kVNCR_EL2)]);
    }
  }

  // Exception entry to EL2 + host dispatch + return. Reads the class's
  // TrapClassOf row once: the episode's attribution category, and the detect
  // delta charged with the entry. Charges the return and returns the
  // outcome.
  TrapOutcome TakeTrapToEl2(const Syndrome& s);

  // Episode histograms per trap class, indexed by EcRow: one slot per
  // ec_defs.inc row plus the catch-all's ("EC?").
  static constexpr size_t kNumEpisodeSlots = kNumEcRows + 1;
  static std::array<HistogramRef, kNumEpisodeSlots> EpisodeHistogramRefs();

  // Address translation for LoadVa/StoreVa. On success fills pa; on Stage-2
  // fault fills the syndrome for the trap. Stage-1 faults are modeling
  // errors (guests premap their address spaces) and panic.
  bool TranslateVa(Va va, bool is_write, Pa* pa, Syndrome* fault);

  // The only mutation points of cycles_ are Charge and AdvanceTo; both
  // attribute, which is what makes the cycles-conserved invariant (sum of
  // attribution buckets == sum of CPU clocks) hold by construction.
  void Charge(uint32_t cycles) {
    cycles_ += cycles;
    if (attr_top_ != nullptr) {
      *attr_top_->cell += cycles;
    }
  }

  // Charge to the current frame's context but a specific category, for
  // single-charge sites that are not worth a frame push (VNCR redirects,
  // GIC vCPU-interface accesses).
  void ChargeAttributed(uint32_t cycles, AttrCat cat) {
    cycles_ += cycles;
    if (attr_top_ != nullptr) {
      attr_top_->row[static_cast<size_t>(cat)] += cycles;
    }
  }

  friend class snap::Serializer;
  // The batch engine (src/sim/batch) replays precompiled resolutions over
  // regs_ directly and applies per-block aggregated charges through
  // Charge/ChargeAttributed -- the same two mutation points, so the
  // cycles-conserved invariant is untouched by batching.
  friend class batch::BatchEngine;

  int index_;             // not-snapshotted: construction identity, verified
  ArchFeatures features_; // not-snapshotted: fixed by MachineConfig
  CostModel cost_;        // not-snapshotted: fixed by MachineConfig
  PhysMem* mem_;          // not-snapshotted: host wiring
  El2Host* host_ = nullptr;           // not-snapshotted: host wiring
  GicCpuInterface* gic_ = nullptr;    // not-snapshotted: host wiring
  Observability* obs_ = nullptr;      // not-snapshotted: host wiring
  FaultInjector* fault_ = nullptr;    // not-snapshotted: host wiring
  CycleAttribution* attr_ = nullptr;  // not-snapshotted: host wiring
  // not-snapshotted: host wiring, attr_->Top(index_)
  const CycleAttribution::TopCells* attr_top_ = nullptr;

  El el_ = El::kEl2;  // verified structurally on snapshot apply
  uint64_t cycles_ = 0;  // single-mutator: snap restore runs quiesced
  // not-snapshotted: cycle-invisible fast path; re-keyed via OnConfigChange
  // after the register file is applied.
  ResolutionCache rcache_;
  uint64_t regs_[kNumRegIds] = {};
  CpuTrace trace_;  // single-mutator: snap restore runs quiesced
  // single-mutator: snap restore rebuilds the TLB while quiesced
  std::unordered_map<TlbKey, TlbEntry, TlbKeyHash> tlb_;
  int trap_depth_ = 0;  // verified structurally on snapshot apply
  uint64_t watchdog_deadline_ = 0;  // single-mutator: snap restore
  bool trap_tlbi_ = false;  // single-mutator: snap restore
  // not-snapshotted: cycle-invisible list plans, keyed by the resolution
  // cache's generations; grown on the first list transfer.
  std::vector<PlanHeader> plan_headers_;
  std::vector<RegId> plan_targets_;  // not-snapshotted: see plan_headers_

  // Handles of the hot metrics (metrics.h), bound to obs_'s registry on
  // first use. not-snapshotted: host-side observability, like obs_
  CounterRef traps_to_el2_{"cpu.traps_to_el2"};
  CounterRef resolve_cache_hits_{"cpu.resolve_cache_hits"};
  // not-snapshotted: metric handles, as above
  CounterRef resolve_cache_misses_{"cpu.resolve_cache_misses"};
  CounterRef vncr_redirects_{"cpu.vncr_redirects"};
  // not-snapshotted: metric handles, as above
  CounterRef virtual_el2_erets_{"cpu.virtual_el2_erets"};
  HistogramRef trap_episode_cycles_{"cpu.trap_episode_cycles"};
  // not-snapshotted: metric handles, as above; indexed by EcRow(ec)
  std::array<HistogramRef, kNumEpisodeSlots> trap_episode_cycles_by_ec_ =
      EpisodeHistogramRefs();
};

}  // namespace neve

#endif  // NEVE_SRC_CPU_CPU_H_
