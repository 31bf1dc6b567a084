#include "src/cpu/cpu.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <string>
#include <utility>

#include "src/arch/vncr.h"
#include "src/base/bits.h"
#include "src/base/digest.h"
#include "src/base/log.h"
#include "src/base/status.h"
#include "src/fault/fault.h"
#include "src/fault/guest_fault.h"
#include "src/mem/mem_io.h"
#include "src/mem/page_table.h"

namespace neve {
namespace {

// Stage-1 table walks read descriptors in guest-physical space; when Stage-2
// is active those reads translate through the Stage-2 tables first, as the
// hardware nested walk does.
class S2TranslatingView : public MemIo {
 public:
  S2TranslatingView(PhysMem* mem, Pa s2_root) : mem_(mem), s2_root_(s2_root) {}

  uint64_t Read64(Pa ipa) const override {
    WalkResult w =
        PageTable::WalkFrom(*mem_, s2_root_, ipa.value, /*is_write=*/false);
    // The model does not take the hardware's "Stage-2 fault on a Stage-1
    // table walk" trap-and-retry path; the state is reachable only when the
    // controlling hypervisor yanked Stage-2 mappings under live Stage-1
    // tables (e.g. a lost-TLBI / injected stale shadow), so it is
    // guest-attributable: confine it to the VM.
    NEVE_GUEST_CHECK(w.ok, "s2_on_s1_walk",
                     "Stage-2 fault on a Stage-1 table walk");
    return mem_->Read64(w.pa);
  }
  void Write64(Pa, uint64_t) override {
    NEVE_CHECK_MSG(false, "table walker never writes");
  }
  void Write64Run(Pa, std::span<const uint64_t>) override {
    NEVE_CHECK_MSG(false, "table walker never writes");
  }
  void ZeroPage(Pa) override { NEVE_CHECK(false); }
  bool Contains(Pa, uint64_t) const override { return true; }

 private:
  PhysMem* mem_;
  Pa s2_root_;
};

// Dense ids and plan-target ranges for SysRegList, handed out as lists are
// constructed (at static initialization for namespace-scope lists).
// Constant-initialized, so lists in any translation unit may use them.
std::atomic<uint32_t> g_next_list_id{0};
std::atomic<uint32_t> g_next_list_target{0};

}  // namespace

SysRegList::SysRegList(std::span<const SysReg> encs)
    : encs_(encs),
      id_(g_next_list_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(static_cast<uint32_t>(encs.size())),
      target_base_(g_next_list_target.fetch_add(
          static_cast<uint32_t>(encs.size()), std::memory_order_relaxed)) {
  NEVE_CHECK_MSG(!encs.empty() && encs.size() <= kMaxSize,
                 "a SysRegList holds 1 to 16 encodings");
}

SysRegList SysRegList::First(size_t n) const {
  NEVE_CHECK_MSG(n >= 1 && n <= encs_.size(),
                 "a SysRegList prefix holds 1 to size() encodings");
  return SysRegList(encs_.first(n), *this);
}

Cpu::Cpu(int index, ArchFeatures features, const CostModel& cost, PhysMem* mem)
    : index_(index), features_(features), cost_(cost), mem_(mem) {
  NEVE_CHECK(mem != nullptr);
  NEVE_CHECK(features.Valid());
  // ID registers: a fixed midr, per-CPU mpidr (affinity level 0 = index).
  regs_[static_cast<size_t>(RegId::kMIDR_EL1)] = 0x410FD073;  // modeled core
  regs_[static_cast<size_t>(RegId::kMPIDR_EL1)] = static_cast<uint64_t>(index);
  regs_[static_cast<size_t>(RegId::kCNTFRQ_EL0)] = 100'000'000;
  // ICH_VTR: 4 list registers (typical GIC implementation; Table 7's IPI trap
  // counts depend on the hypervisor only touching in-use LRs, not this limit).
  regs_[static_cast<size_t>(RegId::kICH_VTR_EL2)] = 4;
}

void Cpu::AdvanceTo(uint64_t cycle_count) {
  if (cycle_count > cycles_) {
    uint64_t delta = cycle_count - cycles_;
    cycles_ = cycle_count;
    // The skipped-forward cycles are time this CPU logically sat idle while
    // another CPU ran ahead; attribute them so the conservation invariant
    // (sum of buckets == sum of clocks) covers rendezvous too.
    if (attr_ != nullptr) {
      attr_->ChargeTo(index_, AttrCat::kIdleWait, delta);
    }
    // Idle-rendezvous time must not consume the trap-livelock budget: the
    // watchdog bounds work *this* vCPU does inside one VM entry, and a vCPU
    // parked waiting on a slower sibling is doing none. Without this an
    // idle-heavy SMP rendezvous trips a false VM kill (the deadline was
    // sized for single-vCPU entries).
    if (watchdog_deadline_ != 0) {
      watchdog_deadline_ += delta;
    }
  }
}

bool Cpu::VncrEnabled() const {
  return features_.neve &&
         VncrEl2(regs_[static_cast<size_t>(RegId::kVNCR_EL2)]).enabled();
}

Pa Cpu::VncrPage() const {
  return Pa(VncrEl2(regs_[static_cast<size_t>(RegId::kVNCR_EL2)]).baddr());
}

AccessContext Cpu::CurrentAccessContext() const {
  return AccessContext{.features = features_,
                       .el = el_,
                       .hcr = hcr(),
                       .vncr_enabled = VncrEnabled()};
}

std::array<HistogramRef, Cpu::kNumEpisodeSlots> Cpu::EpisodeHistogramRefs() {
  // "cpu.trap_episode_cycles." + each row's name, the catch-all's "EC?"
  // last, built once per process; the handles keep pointers into it.
  static const auto names = [] {
    std::array<std::string, kNumEpisodeSlots> out;
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = std::string("cpu.trap_episode_cycles.") + kEcRowNames[i];
    }
    return out;
  }();
  return [&]<size_t... I>(std::index_sequence<I...>) {
    return std::array{HistogramRef(names[I].c_str())...};
  }(std::make_index_sequence<kNumEpisodeSlots>());
}

uint64_t Cpu::ArchStateDigest() const {
  Digest d;
  d.Mix(static_cast<uint64_t>(el_));
  for (uint64_t reg : regs_) {
    d.Mix(reg);
  }
  return d.value();
}

TrapOutcome Cpu::TakeTrapToEl2(const Syndrome& s) {
  NEVE_CHECK_MSG(el_ != El::kEl2, "host hypervisor code cannot trap to EL2");
  NEVE_CHECK_MSG(host_ != nullptr, "no EL2 host installed");
  NEVE_CHECK_MSG(trap_depth_ < 64, "runaway trap recursion (modeling bug)");

  // Trap-livelock watchdog: the guest burned through its cycle budget for
  // this VM entry (e.g. an injected runaway hypercall storm, or corrupt
  // state refaulting forever). Checked here because every livelock by
  // construction keeps trapping; raising a confined guest fault unwinds the
  // guest frames back to the HostKvm::RunVcpu that armed the deadline.
  if (watchdog_deadline_ != 0 && cycles_ >= watchdog_deadline_) {
    watchdog_deadline_ = 0;
    RaiseGuestFault("watchdog",
                    "trap-livelock watchdog: cycle budget exhausted inside "
                    "one VM entry (next trap: " + s.ToString() + ")");
  }

  // The whole episode -- entry, host dispatch, return -- is attributed to
  // the trap's category at layer L0 (handling happens in the host) unless a
  // handler pushes a finer-grained scope. The RAII scope survives a
  // GuestFaultException unwinding out of the host handler.
  const TrapClass& tc = TrapClassOf(s.ec);
  AttrScope attr_scope(*this, AttrLayer::kL0, tc.attribution);

  // The episode's span opens before the entry charge and closes after the
  // return charge, or when a guest fault unwinds the handler. Its begin
  // event's ID doubles as the episode's exemplar link.
  uint64_t episode_start = cycles_;
  ScopedSpan span(obs_, *this, "trap", EcName(s.ec));
  Charge((tc.detect != nullptr ? cost_.*tc.detect : 0) + cost_.trap_entry);
  trace_.OnTrapToEl2(s, cycles_);
  bool observing = span.id() != 0;
  if (observing) {
    traps_to_el2_.In(obs_->metrics()).Add(1);
  }

  // Hardware exception-entry side effects: syndrome and return state land in
  // the EL2 registers (part of the trap cost, not separately charged).
  regs_[static_cast<size_t>(RegId::kESR_EL2)] = s.ToEsrBits();
  regs_[static_cast<size_t>(RegId::kSPSR_EL2)] = static_cast<uint64_t>(el_);
  if (s.ec == Ec::kDataAbortLow) {
    regs_[static_cast<size_t>(RegId::kFAR_EL2)] = s.far;
    regs_[static_cast<size_t>(RegId::kHPFAR_EL2)] = s.hpfar >> 8;
  }

  // RAII so a GuestFaultException unwinding out of the host handler (a
  // confined VM kill) leaves the EL and trap-depth bookkeeping consistent
  // for the next VM entry on this CPU.
  struct TrapScope {
    Cpu* cpu;
    El saved_el;
    ~TrapScope() {
      --cpu->trap_depth_;
      cpu->el_ = saved_el;
    }
  };
  TrapOutcome outcome;
  {
    TrapScope scope{this, el_};
    el_ = El::kEl2;
    ++trap_depth_;
    outcome = host_->OnTrapToEl2(*this, s);
  }
  Charge(cost_.trap_return);
  if (trap_depth_ == 0) {
    trace_.AttributeCycles(s.ec, cycles_ - episode_start);
    if (observing) {
      // Episode latency histograms, overall and per trap class, each with
      // the begin event's ID as the bucket exemplar: an outlier links
      // straight back to its trace span.
      uint64_t episode = cycles_ - episode_start;
      trap_episode_cycles_.In(obs_->metrics())
          .RecordWithExemplar(episode, span.id());
      trap_episode_cycles_by_ec_[EcRow(s.ec)]
          .In(obs_->metrics())
          .RecordWithExemplar(episode, span.id());
    }
  }
  return outcome;
}

AccessResolution Cpu::ResolveCached(SysReg enc, bool is_write) {
  // Hit path first, and without building an AccessContext: constructing one
  // reads HCR_EL2/VNCR_EL2 and copies the feature set, which costs more than
  // the tree walk it feeds. Only a miss pays for the context + full resolve.
  if (rcache_.enabled()) {
    AccessResolution hit;
    if (rcache_.Lookup(enc, el_, is_write, &hit)) {
      if (ObsActive(obs_)) {
        resolve_cache_hits_.In(obs_->metrics()).Add(1);
      }
      return hit;
    }
  }
  AccessResolution r = ResolveSysRegAccess(CurrentAccessContext(), enc,
                                           is_write);
  if (rcache_.enabled()) {
    rcache_.Insert(enc, el_, is_write, r);
    if (ObsActive(obs_)) {
      resolve_cache_misses_.In(obs_->metrics()).Add(1);
    }
  }
  return r;
}

// ReadResolved and WriteResolved are forced inline: SysRegRead/SysRegWrite
// are the per-access hot path, and a call between resolving and accessing
// costs them about a tenth of their time (BM_SysRegOp).
[[gnu::always_inline]] inline uint64_t Cpu::ReadResolved(
    SysReg enc, const AccessResolution& r) {
  switch (r.kind) {
    case AccessResolution::Kind::kRegister:
      Charge(cost_.sysreg_access);
      return regs_[static_cast<size_t>(r.target)];
    case AccessResolution::Kind::kGicCpuIf:
      NEVE_CHECK_MSG(gic_ != nullptr, "no GIC CPU interface installed");
      ChargeAttributed(cost_.gic_vcpuif_access, AttrCat::kGicEmul);
      return gic_->IccRead(index_, r.target);
    case AccessResolution::Kind::kMemory: {
      // NEVE rewrote the register read into a plain load (section 6.1).
      ChargeAttributed(cost_.mem_access, AttrCat::kVncrRedirect);
      if (ObsActive(obs_)) {
        vncr_redirects_.In(obs_->metrics()).Add(1);
        obs_->tracer().Instant(index_, "vncr", SysRegName(enc), cycles_);
      }
      uint64_t value = mem_->Read64(VncrPage() + r.mem_offset);
      // Injected VNCR page corruption: the deferred-access load returns
      // flipped bits, as a DRAM error or hypervisor bug in the deferred
      // page would. The guest hypervisor consumes garbage state.
      if (FaultActive(fault_) &&
          fault_->ShouldInject(FaultPoint::kVncrCorruption, index_, cycles_,
                               static_cast<uint64_t>(enc))) {
        value ^= fault_->CorruptBits();
      }
      return value;
    }
    case AccessResolution::Kind::kTrapEl2: {
      TrapOutcome out =
          TakeTrapToEl2(Syndrome::SysRegTrap(enc, /*is_write=*/false, 0));
      NEVE_CHECK(out.kind == TrapOutcome::Kind::kCompleted);
      return out.value;
    }
    case AccessResolution::Kind::kUndefined:
      // A real guest hypervisor would take an UNDEF and crash; confinement
      // kills the offending VM instead of the simulation.
      RaiseGuestFault("undefined_sysreg",
                      std::string("UNDEFINED read of ") + SysRegName(enc) +
                          " at " + ElName(el_));
  }
  return 0;
}

[[gnu::always_inline]] inline void Cpu::WriteResolved(
    SysReg enc, const AccessResolution& r, uint64_t value) {
  switch (r.kind) {
    case AccessResolution::Kind::kRegister:
      // Note: translation-control writes do not flush the TLB model -- the
      // TLB key includes the active table roots (the moral equivalent of
      // VMID/ASID tagging), so switching contexts cannot hit stale entries.
      // Mutating table *contents* requires an explicit TlbiAll, as on real
      // hardware.
      Charge(cost_.sysreg_access);
      regs_[static_cast<size_t>(r.target)] = value;
      InvalidateResolutionsFor(r.target);
      return;
    case AccessResolution::Kind::kGicCpuIf:
      NEVE_CHECK_MSG(gic_ != nullptr, "no GIC CPU interface installed");
      ChargeAttributed(cost_.gic_vcpuif_access, AttrCat::kGicEmul);
      gic_->IccWrite(index_, r.target, value);
      return;
    case AccessResolution::Kind::kMemory:
      ChargeAttributed(cost_.mem_access, AttrCat::kVncrRedirect);
      if (ObsActive(obs_)) {
        vncr_redirects_.In(obs_->metrics()).Add(1);
        obs_->tracer().Instant(index_, "vncr", SysRegName(enc), cycles_);
      }
      // Injected stale VNCR contents: the deferred write never lands, so
      // the page keeps the previous value and the next world switch loads
      // stale guest-hypervisor state.
      if (FaultActive(fault_) &&
          fault_->ShouldInject(FaultPoint::kVncrStale, index_, cycles_,
                               static_cast<uint64_t>(enc))) {
        return;
      }
      mem_->Write64(VncrPage() + r.mem_offset, value);
      return;
    case AccessResolution::Kind::kTrapEl2: {
      TrapOutcome out =
          TakeTrapToEl2(Syndrome::SysRegTrap(enc, /*is_write=*/true, value));
      NEVE_CHECK(out.kind == TrapOutcome::Kind::kCompleted);
      return;
    }
    case AccessResolution::Kind::kUndefined:
      RaiseGuestFault("undefined_sysreg",
                      std::string("UNDEFINED write of ") + SysRegName(enc) +
                          " at " + ElName(el_));
  }
}

uint64_t Cpu::SysRegRead(SysReg enc) {
  return ReadResolved(enc, ResolveCached(enc, /*is_write=*/false));
}

void Cpu::SysRegWrite(SysReg enc, uint64_t value) {
  WriteResolved(enc, ResolveCached(enc, /*is_write=*/true), value);
}

int64_t Cpu::PlanSlot(const SysRegList& list) {
  if (!rcache_.enabled() || el_ == El::kEl0 ||
      (watchdog_deadline_ != 0 && el_ != El::kEl2)) {
    return -1;
  }
  if (plan_headers_.size() <= list.id_ * kPlanSlotsPerList) {
    // Size for every list constructed so far, so the store grows once.
    size_t lists = std::max<size_t>(
        list.id_ + 1, g_next_list_id.load(std::memory_order_relaxed));
    size_t targets = std::max<size_t>(
        list.target_base_ + list.capacity_,
        g_next_list_target.load(std::memory_order_relaxed));
    plan_headers_.resize(lists * kPlanSlotsPerList);
    plan_targets_.resize(targets * kPlanSlotsPerList);
  }
  size_t el_index = el_ == El::kEl2 ? 1 : 0;
  return static_cast<int64_t>(list.id_ * kPlanSlotsPerList +
                              rcache_.current_bank() * kPlanEls + el_index);
}

const RegId* Cpu::FindPlan(const SysRegList& list, int64_t slot,
                           uint64_t tag) {
  if (slot < 0) {
    return nullptr;
  }
  const PlanHeader& h = plan_headers_[static_cast<size_t>(slot)];
  return h.tag == tag && h.len >= list.size() ? PlanTargets(list, slot)
                                              : nullptr;
}

void Cpu::CommitPlan(const SysRegList& list, int64_t slot, uint64_t tag,
                     const RegId* targets) {
  plan_headers_[static_cast<size_t>(slot)] = {
      .tag = tag, .len = static_cast<uint32_t>(list.size())};
  std::copy_n(targets, list.size(), PlanTargets(list, slot));
}

void Cpu::ChargePlanned(size_t n, ContextSlots slots) {
  uint32_t per_entry = cost_.sysreg_access +
                       (slots == ContextSlots::kNone ? 0 : cost_.mem_access);
  Charge(static_cast<uint32_t>(n) * per_entry);
  rcache_.AddHits(n);
  if (ObsActive(obs_)) {
    resolve_cache_hits_.In(obs_->metrics()).Add(n);
  }
}

void Cpu::ReadList(const SysRegList& list, uint64_t* out, ContextSlots slots) {
  std::span<const SysReg> encs = list.encs();
  int64_t slot = PlanSlot(list);
  uint64_t tag = PlanTag(/*is_write=*/false);
  if (const RegId* planned = FindPlan(list, slot, tag)) {
    for (size_t i = 0; i < encs.size(); ++i) {
      out[i] = regs_[static_cast<size_t>(planned[i])];
    }
    ChargePlanned(encs.size(), slots);
    return;
  }
  // The per-access loop, recording the plan as it goes. The plain-register
  // case is written out ahead of ReadResolved's switch: it is the hot path
  // of every run with the cache disabled, and the tight branch measured
  // faster there (BM_NestedHypercallV83Uncached).
  RegId targets[SysRegList::kMaxSize] = {};
  bool plannable = slot >= 0;
  for (size_t i = 0; i < encs.size(); ++i) {
    AccessResolution r = ResolveCached(encs[i], /*is_write=*/false);
    if (r.kind == AccessResolution::Kind::kRegister) {
      Charge(cost_.sysreg_access);
      out[i] = regs_[static_cast<size_t>(r.target)];
      targets[i] = r.target;
    } else {
      plannable = false;
      out[i] = ReadResolved(encs[i], r);
    }
    if (slots == ContextSlots::kPerEntry) {
      ChargeSlots(1);
    }
  }
  if (slots == ContextSlots::kBlock) {
    ChargeSlots(encs.size());
  }
  if (plannable) {
    CommitPlan(list, slot, tag, targets);
  }
}

void Cpu::WriteList(const SysRegList& list, const uint64_t* in,
                    ContextSlots slots) {
  std::span<const SysReg> encs = list.encs();
  int64_t slot = PlanSlot(list);
  uint64_t tag = PlanTag(/*is_write=*/true);
  if (const RegId* planned = FindPlan(list, slot, tag)) {
    for (size_t i = 0; i < encs.size(); ++i) {
      regs_[static_cast<size_t>(planned[i])] = in[i];
    }
    ChargePlanned(encs.size(), slots);
    return;
  }
  if (slots == ContextSlots::kBlock) {
    ChargeSlots(encs.size());
  }
  // The per-access loop, recording the plan as it goes (see ReadList).
  RegId targets[SysRegList::kMaxSize] = {};
  bool plannable = slot >= 0;
  for (size_t i = 0; i < encs.size(); ++i) {
    if (slots == ContextSlots::kPerEntry) {
      ChargeSlots(1);
    }
    AccessResolution r = ResolveCached(encs[i], /*is_write=*/true);
    // A configuration write re-keys the cache mid-list, so the rest of
    // this run resolves under another generation.
    if (r.kind == AccessResolution::Kind::kRegister &&
        r.target != RegId::kHCR_EL2 && r.target != RegId::kVNCR_EL2) {
      Charge(cost_.sysreg_access);
      regs_[static_cast<size_t>(r.target)] = in[i];
      targets[i] = r.target;
    } else {
      plannable = false;
      WriteResolved(encs[i], r, in[i]);
    }
  }
  if (plannable) {
    CommitPlan(list, slot, tag, targets);
  }
}

El Cpu::ReadCurrentEl() {
  Charge(cost_.sysreg_access);
  return ResolveCurrentEl(CurrentAccessContext());
}

void Cpu::Hvc(uint16_t imm) {
  NEVE_CHECK_MSG(el_ != El::kEl2, "hvc at EL2 is not modeled (no EL3)");
  TrapOutcome out = TakeTrapToEl2(Syndrome::Hvc(imm));
  NEVE_CHECK(out.kind == TrapOutcome::Kind::kCompleted);
}

void Cpu::EretFromVirtualEl2() {
  NEVE_CHECK_MSG(el_ != El::kEl2,
                 "host hypervisor enters guests via RunLowerEl, not eret");
  if (ObsActive(obs_)) {
    virtual_el2_erets_.In(obs_->metrics()).Add(1);
    obs_->tracer().Instant(index_, "trap", "eret_virtual_el2", cycles_);
  }
  switch (ResolveEret(CurrentAccessContext())) {
    case EretResolution::kTrapEl2: {
      TrapOutcome out = TakeTrapToEl2(Syndrome::EretTrap());
      NEVE_CHECK(out.kind == TrapOutcome::Kind::kCompleted);
      return;
    }
    case EretResolution::kUndefined:
      RaiseGuestFault("undefined_eret",
                      std::string("UNDEFINED eret at ") + ElName(el_));
    case EretResolution::kLocal:
      // Plain EL1 eret (a guest OS returning to its user space): cost only.
      Charge(cost_.el1_eret);
      return;
  }
}

void Cpu::TakeIrq(uint32_t intid) {
  NEVE_CHECK_MSG(el_ != El::kEl2, "IRQ-exit injection targets guest context");
  NEVE_CHECK_MSG(hcr().imo(), "IRQ while IMO clear is not modeled");
  TrapOutcome out = TakeTrapToEl2(Syndrome::Irq(intid));
  NEVE_CHECK(out.kind == TrapOutcome::Kind::kCompleted);
}

void Cpu::Wfi() {
  if (el_ != El::kEl2 && hcr().twi()) {
    TrapOutcome out = TakeTrapToEl2(Syndrome::Wfx());
    NEVE_CHECK(out.kind == TrapOutcome::Kind::kCompleted);
    return;
  }
  Charge(cost_.wfx);
}

void Cpu::Barrier() { Charge(cost_.barrier); }

void Cpu::TlbiAll() {
  if (trap_tlbi_ && el_ != El::kEl2) {
    // Guest TLB maintenance with shadow Stage-2 state behind it: the host
    // must observe the invalidation to flush stale shadow entries (and
    // broadcast to sibling vCPUs under SMP) before the local invalidate
    // completes.
    TrapOutcome out = TakeTrapToEl2(Syndrome::Tlbi());
    NEVE_CHECK(out.kind == TrapOutcome::Kind::kCompleted);
  }
  Charge(cost_.barrier);
  tlb_.clear();
}

void Cpu::Compute(uint32_t cycles) {
  Charge(cycles);
  WatchdogCheckGuestSpin();
}

bool Cpu::TranslateVa(Va va, bool is_write, Pa* pa, Syndrome* fault) {
  bool below_el2 = el_ != El::kEl2;
  bool s1_on = below_el2 &&
               TestBit(regs_[static_cast<size_t>(RegId::kSCTLR_EL1)], 0);
  bool s2_on = below_el2 && hcr().vm();
  uint64_t s1_root =
      s1_on ? regs_[static_cast<size_t>(RegId::kTTBR0_EL1)] : 0;
  uint64_t s2_root =
      s2_on ? regs_[static_cast<size_t>(RegId::kVTTBR_EL2)] : 0;

  TlbKey key{va.PageIndex(), s1_root, s2_root};
  if (auto it = tlb_.find(key); it != tlb_.end()) {
    if (!is_write || it->second.writable) {
      *pa = Pa((it->second.pa_page << kPageShift) | va.PageOffset());
      return true;
    }
    // Write to a cached read-only translation: re-walk to classify the fault.
  }

  uint64_t addr = va.value;
  bool writable = true;

  if (s1_on) {
    Charge(PageTable::kWalkLevels * cost_.tlb_walk_per_level *
           (s2_on ? 2 : 1));  // nested walks double the descriptor loads
    WalkResult s1;
    if (s2_on) {
      S2TranslatingView view(mem_, Pa(s2_root));
      s1 = PageTable::WalkFrom(view, Pa(s1_root), addr, is_write);
    } else {
      s1 = PageTable::WalkFrom(*mem_, Pa(s1_root), addr, is_write);
    }
    NEVE_CHECK_MSG(s1.ok, "Stage-1 fault: simulated guests premap their "
                          "address spaces; this is a modeling bug");
    writable = writable && s1.perms.write;
    addr = s1.pa.value;
  }

  if (s2_on) {
    Charge(PageTable::kWalkLevels * cost_.tlb_walk_per_level);
    WalkResult s2 =
        PageTable::WalkFrom(*mem_, Pa(s2_root), addr, is_write);
    if (!s2.ok) {
      *fault = Syndrome::DataAbort(va.value, addr & ~uint64_t{0xFFF}, is_write,
                                   /*size=*/8);
      return false;
    }
    writable = writable && s2.perms.write;
    addr = s2.pa.value;
  }

  *pa = Pa(addr);
  tlb_[key] = TlbEntry{.pa_page = addr >> kPageShift, .writable = writable};
  return true;
}

uint64_t Cpu::LoadVa(Va va) {
  while (true) {
    Pa pa;
    Syndrome fault;
    if (TranslateVa(va, /*is_write=*/false, &pa, &fault)) {
      Charge(cost_.mem_access);
      WatchdogCheckGuestSpin();
      return mem_->Read64(pa);
    }
    TrapOutcome out = TakeTrapToEl2(fault);
    if (out.kind == TrapOutcome::Kind::kCompleted) {
      return out.value;  // MMIO read emulated by the hypervisor
    }
  }
}

void Cpu::StoreVa(Va va, uint64_t value) {
  while (true) {
    Pa pa;
    Syndrome fault;
    if (TranslateVa(va, /*is_write=*/true, &pa, &fault)) {
      Charge(cost_.mem_access);
      WatchdogCheckGuestSpin();
      mem_->Write64(pa, value);
      return;
    }
    fault.write_value = value;
    TrapOutcome out = TakeTrapToEl2(fault);
    if (out.kind == TrapOutcome::Kind::kCompleted) {
      return;  // MMIO write emulated
    }
  }
}

void Cpu::RunLowerEl(El target_el, const std::function<void()>& body) {
  NEVE_CHECK_MSG(el_ == El::kEl2, "only the host hypervisor enters guests");
  NEVE_CHECK(target_el != El::kEl2);
  Charge(cost_.trap_return);  // the eret into the guest
  el_ = target_el;
  // RAII: a confined guest fault unwinding out of `body` must still land the
  // CPU back at EL2 for the catch handler in HostKvm::RunVcpu.
  struct ElScope {
    Cpu* cpu;
    ~ElScope() { cpu->el_ = El::kEl2; }
  } scope{this};
  body();
  NEVE_CHECK_MSG(el_ == target_el, "unbalanced EL transitions");
}

uint64_t Cpu::HostLoad(Pa pa) {
  NEVE_CHECK(el_ == El::kEl2);
  Charge(cost_.mem_access);
  return mem_->Read64(pa);
}

void Cpu::HostStore(Pa pa, uint64_t value) {
  NEVE_CHECK(el_ == El::kEl2);
  Charge(cost_.mem_access);
  mem_->Write64(pa, value);
}

uint64_t Cpu::PeekReg(RegId reg) const {
  return regs_[static_cast<size_t>(reg)];
}

void Cpu::PokeReg(RegId reg, uint64_t value) {
  regs_[static_cast<size_t>(reg)] = value;
  InvalidateResolutionsFor(reg);
}

}  // namespace neve
