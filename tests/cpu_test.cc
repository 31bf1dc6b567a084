// Unit tests for the CPU core: cycle charging, trap dispatch, exception
// entry state, MMU behaviour, NEVE memory redirection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/arch/vncr.h"
#include "src/cpu/cpu.h"
#include "src/fault/guest_fault.h"
#include "src/cpu/trace.h"
#include "src/mem/shadow_s2.h"
#include "src/mem/page_table.h"
#include "src/obs/attr.h"
#include "src/obs/observability.h"

namespace neve {
namespace {

// A scriptable EL2 host for unit tests.
class FakeHost : public El2Host {
 public:
  TrapOutcome OnTrapToEl2(Cpu& cpu, const Syndrome& s) override {
    (void)cpu;
    syndromes.push_back(s);
    if (!outcomes.empty()) {
      TrapOutcome out = outcomes.front();
      outcomes.erase(outcomes.begin());
      return out;
    }
    return TrapOutcome::Completed(default_value);
  }

  std::vector<Syndrome> syndromes;
  std::vector<TrapOutcome> outcomes;
  uint64_t default_value = 0;
};

class CpuFixture : public testing::Test {
 protected:
  CpuFixture()
      : mem_(64ull << 20),
        cpu_(0, ArchFeatures::Armv84Neve(), CostModel::Default(), &mem_) {
    cpu_.SetEl2Host(&host_);
  }

  // Configures the CPU as if the host had entered a guest context.
  void EnterGuestContext(uint64_t hcr) {
    cpu_.PokeReg(RegId::kHCR_EL2, hcr);
  }

  uint64_t Vel2Hcr(bool vhe) {
    uint64_t h = Hcr::Make({HcrBits::kVm, HcrBits::kImo, HcrBits::kNv});
    return vhe ? h : SetBit(h, HcrBits::kNv1);
  }

  PhysMem mem_;
  Cpu cpu_;
  FakeHost host_;
};

// --- cycle accounting ------------------------------------------------------------

TEST_F(CpuFixture, ComputeChargesExactly) {
  uint64_t c0 = cpu_.cycles();
  cpu_.Compute(123);
  EXPECT_EQ(cpu_.cycles(), c0 + 123);
}

TEST_F(CpuFixture, SysRegAccessChargesAtEl2) {
  uint64_t c0 = cpu_.cycles();
  cpu_.SysRegWrite(SysReg::kVBAR_EL2, 0x1000);
  EXPECT_EQ(cpu_.cycles(), c0 + cpu_.cost().sysreg_access);
  EXPECT_EQ(cpu_.SysRegRead(SysReg::kVBAR_EL2), 0x1000u);
}

TEST_F(CpuFixture, AdvanceToNeverRewinds) {
  cpu_.Compute(1000);
  cpu_.AdvanceTo(500);
  EXPECT_EQ(cpu_.cycles(), 1000u);
  cpu_.AdvanceTo(2000);
  EXPECT_EQ(cpu_.cycles(), 2000u);
}

TEST_F(CpuFixture, PeekPokeAreFree) {
  uint64_t c0 = cpu_.cycles();
  cpu_.PokeReg(RegId::kSCTLR_EL1, 42);
  EXPECT_EQ(cpu_.PeekReg(RegId::kSCTLR_EL1), 42u);
  EXPECT_EQ(cpu_.cycles(), c0);
}

// --- trap dispatch ------------------------------------------------------------------

TEST_F(CpuFixture, HvcFromGuestTrapsWithImmediate) {
  EnterGuestContext(Hcr::Make({HcrBits::kImo}));
  cpu_.RunLowerEl(El::kEl1, [&] { cpu_.Hvc(0x4B00); });
  ASSERT_EQ(host_.syndromes.size(), 1u);
  EXPECT_EQ(host_.syndromes[0].ec, Ec::kHvc64);
  EXPECT_EQ(host_.syndromes[0].imm16, 0x4B00);
  EXPECT_EQ(cpu_.trace().traps(TraceClass::kHvc), 1u);
}

TEST_F(CpuFixture, TrapChargesEntryAndReturn) {
  // Every trap class the fixture can raise costs entry + its detect delta +
  // return, plus the operation's own charges. The deltas are distinct and
  // nonzero here (the defaults give HVC, TLBI and IRQ all 0), so a class
  // mapped to another class's delta, or to none, changes the count. The
  // episode's cycles land in the class's L0 attribution category, and the
  // trap counts toward the class's trace counter (none for kOther).
  CostModel cost = CostModel::Default();
  cost.detect_hvc = 3;
  cost.detect_sysreg = 5;
  cost.detect_eret = 7;
  cost.detect_mem_abort = 11;
  cost.detect_wfx = 13;
  const uint64_t imo = Hcr::Make({HcrBits::kImo});
  using TC = TraceClass;
  struct Row {
    const char* what;
    uint64_t hcr;
    Ec ec;
    uint32_t detect;
    uint32_t own;  // the operation's charges besides the trap
    AttrCat cat;
    TraceClass trace;
    void (*op)(Cpu&);
  };
  const Row rows[] = {
      {"hvc", imo, Ec::kHvc64, cost.detect_hvc, 0, AttrCat::kTrapHvc, TC::kHvc,
       [](Cpu& c) { c.Hvc(1); }},
      {"sysreg read", Vel2Hcr(false), Ec::kSysReg, cost.detect_sysreg, 0,
       AttrCat::kTrapSysReg, TC::kSysReg,
       [](Cpu& c) { (void)c.SysRegRead(SysReg::kHACR_EL2); }},
      {"sysreg write", Vel2Hcr(false), Ec::kSysReg, cost.detect_sysreg, 0,
       AttrCat::kTrapSysReg, TC::kSysReg,
       [](Cpu& c) { c.SysRegWrite(SysReg::kCPTR_EL2, 1); }},
      {"eret", Vel2Hcr(false), Ec::kEretTrap, cost.detect_eret, 0,
       AttrCat::kTrapEret, TC::kEret, [](Cpu& c) { c.EretFromVirtualEl2(); }},
      {"wfi under TWI", Hcr::Make({HcrBits::kImo, HcrBits::kTwi}), Ec::kWfx,
       cost.detect_wfx, 0, AttrCat::kTrapWfx, TC::kOther,
       [](Cpu& c) { c.Wfi(); }},
      {"tlbi under trap_tlbi", imo, Ec::kTlbi, cost.detect_hvc, cost.barrier,
       AttrCat::kTrapOther, TC::kOther, [](Cpu& c) { c.TlbiAll(); }},
      {"irq", imo, Ec::kIrq, 0, 0, AttrCat::kTrapIrq, TC::kIrq,
       [](Cpu& c) { c.TakeIrq(48); }},
      // VTTBR_EL2 = 0 names an empty Stage-2 table: every access faults.
      {"stage-2 data abort", Hcr::Make({HcrBits::kVm, HcrBits::kImo}),
       Ec::kDataAbortLow, cost.detect_mem_abort,
       PageTable::kWalkLevels * cost.tlb_walk_per_level,
       AttrCat::kTrapDataAbort, TC::kAbort,
       [](Cpu& c) { (void)c.LoadVa(Va(0x1000)); }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.what);
    Cpu cpu(0, ArchFeatures::Armv84Neve(), cost, &mem_);
    FakeHost host;
    CycleAttribution attr;
    attr.AttachCpu(0);
    cpu.SetAttribution(&attr);
    cpu.SetEl2Host(&host);
    cpu.SetTrapTlbi(true);
    cpu.PokeReg(RegId::kHCR_EL2, row.hcr);
    uint64_t c0 = 0, c1 = 0;
    cpu.RunLowerEl(El::kEl1, [&] {
      c0 = cpu.cycles();
      row.op(cpu);
      c1 = cpu.cycles();
    });
    ASSERT_EQ(host.syndromes.size(), 1u);
    EXPECT_EQ(host.syndromes[0].ec, row.ec);
    const uint64_t episode = cost.trap_entry + row.detect + cost.trap_return;
    EXPECT_EQ(c1 - c0, episode + row.own);
    // The fake host charges nothing, so the episode is the only charge
    // outside the root (L0, host_other) frame.
    uint64_t in_cat = 0;
    for (const AttrBucket& b : attr.Snapshot()) {
      if (b.layer == AttrLayer::kL0 && b.cat == row.cat) {
        in_cat += b.cycles;
      } else {
        EXPECT_EQ(b.cat, AttrCat::kHostOther) << b.StackName();
      }
    }
    EXPECT_EQ(in_cat, episode);
    EXPECT_EQ(cpu.trace().traps_to_el2(), 1u);
    for (TC c : {TC::kHvc, TC::kSysReg, TC::kEret, TC::kAbort, TC::kIrq}) {
      EXPECT_EQ(cpu.trace().traps(c), c == row.trace ? 1u : 0u);
    }
  }
}

TEST_F(CpuFixture, ExceptionEntryPopulatesEl2Registers) {
  EnterGuestContext(Hcr::Make({HcrBits::kImo}));
  cpu_.RunLowerEl(El::kEl1, [&] { cpu_.Hvc(0x77); });
  uint64_t esr = cpu_.PeekReg(RegId::kESR_EL2);
  EXPECT_EQ(ExtractBits(esr, 31, 26), static_cast<uint64_t>(Ec::kHvc64));
  EXPECT_EQ(ExtractBits(esr, 15, 0), 0x77u);
  EXPECT_EQ(cpu_.PeekReg(RegId::kSPSR_EL2), static_cast<uint64_t>(El::kEl1));
}

TEST_F(CpuFixture, TrappedSysRegReadReturnsHostValue) {
  EnterGuestContext(Vel2Hcr(false));
  // ARMv8.4 hardware but VNCR disabled: plain NV trapping.
  host_.default_value = 0xFEED;
  uint64_t v = 0;
  cpu_.RunLowerEl(El::kEl1, [&] { v = cpu_.SysRegRead(SysReg::kHACR_EL2); });
  EXPECT_EQ(v, 0xFEEDu);
  ASSERT_EQ(host_.syndromes.size(), 1u);
  EXPECT_EQ(host_.syndromes[0].sysreg, SysReg::kHACR_EL2);
  EXPECT_FALSE(host_.syndromes[0].is_write);
}

TEST_F(CpuFixture, TrappedSysRegWriteCarriesValue) {
  EnterGuestContext(Vel2Hcr(false));
  cpu_.RunLowerEl(El::kEl1,
                  [&] { cpu_.SysRegWrite(SysReg::kCPTR_EL2, 0xAA55); });
  ASSERT_EQ(host_.syndromes.size(), 1u);
  EXPECT_TRUE(host_.syndromes[0].is_write);
  EXPECT_EQ(host_.syndromes[0].write_value, 0xAA55u);
}

TEST_F(CpuFixture, EretFromVirtualEl2Traps) {
  EnterGuestContext(Vel2Hcr(false));
  cpu_.RunLowerEl(El::kEl1, [&] { cpu_.EretFromVirtualEl2(); });
  ASSERT_EQ(host_.syndromes.size(), 1u);
  EXPECT_EQ(host_.syndromes[0].ec, Ec::kEretTrap);
  EXPECT_EQ(cpu_.trace().traps(TraceClass::kEret), 1u);
}

TEST_F(CpuFixture, EretWithoutNvIsLocal) {
  EnterGuestContext(Hcr::Make({HcrBits::kVm, HcrBits::kImo}));
  cpu_.RunLowerEl(El::kEl1, [&] { cpu_.EretFromVirtualEl2(); });
  EXPECT_TRUE(host_.syndromes.empty());
}

TEST_F(CpuFixture, CurrentElDisguise) {
  EnterGuestContext(Vel2Hcr(false));
  El seen = El::kEl0;
  cpu_.RunLowerEl(El::kEl1, [&] { seen = cpu_.ReadCurrentEl(); });
  EXPECT_EQ(seen, El::kEl2);  // the NV lie
  EXPECT_EQ(cpu_.ReadCurrentEl(), El::kEl2);  // and the truth at EL2
}

TEST_F(CpuFixture, WfiTrapsOnlyWithTwi) {
  EnterGuestContext(Hcr::Make({HcrBits::kImo}));
  cpu_.RunLowerEl(El::kEl1, [&] { cpu_.Wfi(); });
  EXPECT_TRUE(host_.syndromes.empty());
  EnterGuestContext(Hcr::Make({HcrBits::kImo, HcrBits::kTwi}));
  cpu_.RunLowerEl(El::kEl1, [&] { cpu_.Wfi(); });
  ASSERT_EQ(host_.syndromes.size(), 1u);
  EXPECT_EQ(host_.syndromes[0].ec, Ec::kWfx);
}

TEST_F(CpuFixture, TakeIrqRoutesToHost) {
  EnterGuestContext(Hcr::Make({HcrBits::kImo}));
  cpu_.RunLowerEl(El::kEl1, [&] { cpu_.TakeIrq(48); });
  ASSERT_EQ(host_.syndromes.size(), 1u);
  EXPECT_EQ(host_.syndromes[0].ec, Ec::kIrq);
  EXPECT_EQ(host_.syndromes[0].intid, 48u);
  EXPECT_EQ(cpu_.trace().traps(TraceClass::kIrq), 1u);
}

TEST_F(CpuFixture, HostCodeCannotTrap) {
  EXPECT_DEATH(cpu_.Hvc(1), "");
  EXPECT_DEATH(cpu_.EretFromVirtualEl2(), "");
}

TEST_F(CpuFixture, UndefinedAccessRaisesGuestFault) {
  // ARMv8.0 semantics: EL2 access from EL1 is UNDEFINED. The crash is the
  // guest's, so it surfaces as a confinable guest fault, not an abort.
  PhysMem mem(16ull << 20);
  Cpu v80(0, ArchFeatures::Armv80(), CostModel::Default(), &mem);
  FakeHost host;
  v80.SetEl2Host(&host);
  v80.PokeReg(RegId::kHCR_EL2, Hcr::Make({HcrBits::kImo}));
  try {
    v80.RunLowerEl(El::kEl1, [&] { v80.SysRegWrite(SysReg::kVBAR_EL2, 1); });
    FAIL() << "expected a GuestFaultException";
  } catch (const GuestFaultException& e) {
    EXPECT_STREQ(e.kind(), "undefined_sysreg");
  }
}

TEST_F(CpuFixture, RunLowerElTracksElevation) {
  EXPECT_EQ(cpu_.current_el(), El::kEl2);
  cpu_.RunLowerEl(El::kEl1, [&] { EXPECT_EQ(cpu_.current_el(), El::kEl1); });
  EXPECT_EQ(cpu_.current_el(), El::kEl2);
}

TEST_F(CpuFixture, TraceCountsByClass) {
  EnterGuestContext(Vel2Hcr(false));
  cpu_.RunLowerEl(El::kEl1, [&] {
    cpu_.Hvc(1);
    cpu_.SysRegWrite(SysReg::kCPTR_EL2, 0);
    cpu_.EretFromVirtualEl2();
  });
  EXPECT_EQ(cpu_.trace().traps_to_el2(), 3u);
  EXPECT_EQ(cpu_.trace().traps(TraceClass::kHvc), 1u);
  EXPECT_EQ(cpu_.trace().traps(TraceClass::kSysReg), 1u);
  EXPECT_EQ(cpu_.trace().traps(TraceClass::kEret), 1u);
  cpu_.trace().Reset();
  EXPECT_EQ(cpu_.trace().traps_to_el2(), 0u);
}

TEST_F(CpuFixture, DetailedTraceRecordsSyndromes) {
  cpu_.trace().set_record_details(true);
  EnterGuestContext(Vel2Hcr(false));
  cpu_.RunLowerEl(El::kEl1, [&] { cpu_.Hvc(9); });
  ASSERT_EQ(cpu_.trace().records().size(), 1u);
  EXPECT_EQ(cpu_.trace().records()[0].syndrome.imm16, 9);
  EXPECT_NE(cpu_.trace().Dump().find("HVC"), std::string::npos);
}

// --- resolution fast-path cache -----------------------------------------------------

TEST_F(CpuFixture, ResolutionCacheCountsHitsAndMisses) {
  const ResolutionCache& rc = cpu_.resolution_cache();
  ASSERT_TRUE(rc.enabled());
  uint64_t h0 = rc.hits(), m0 = rc.misses();
  cpu_.SysRegWrite(SysReg::kVBAR_EL2, 0x40);  // miss (write slot)
  (void)cpu_.SysRegRead(SysReg::kVBAR_EL2);   // miss (read slot is distinct)
  (void)cpu_.SysRegRead(SysReg::kVBAR_EL2);   // hit
  EXPECT_EQ(rc.misses() - m0, 2u);
  EXPECT_EQ(rc.hits() - h0, 1u);
}

TEST_F(CpuFixture, HcrWriteMidStreamChangesResolution) {
  // A VHE guest hypervisor (NV, no NV1) accesses its EL1 registers
  // directly; flipping NV1 on mid-stream must make the very next access
  // trap. A stale cache would keep serving the register path.
  EnterGuestContext(Vel2Hcr(true));
  cpu_.RunLowerEl(El::kEl1, [&] {
    (void)cpu_.SysRegRead(SysReg::kSCTLR_EL1);
    EXPECT_TRUE(host_.syndromes.empty());
    EnterGuestContext(Vel2Hcr(false));
    (void)cpu_.SysRegRead(SysReg::kSCTLR_EL1);
    ASSERT_EQ(host_.syndromes.size(), 1u);
    EXPECT_EQ(host_.syndromes[0].sysreg, SysReg::kSCTLR_EL1);
  });
}

TEST_F(CpuFixture, VncrEnableMidStreamRedirectsToMemory) {
  // First access traps (plain v8.3-NV behaviour: VNCR disabled); enabling
  // the deferred page mid-stream must reroute the next access to memory
  // with no further trap -- the VNCR_EL2 write has to drop the memoized
  // kTrapEl2 resolution.
  EnterGuestContext(Vel2Hcr(false));
  cpu_.RunLowerEl(El::kEl1, [&] {
    (void)cpu_.SysRegRead(SysReg::kHCR_EL2);
    ASSERT_EQ(host_.syndromes.size(), 1u);
    cpu_.PokeReg(RegId::kVNCR_EL2, VncrEl2::Make(8ull << 20, true).bits());
    (void)cpu_.SysRegRead(SysReg::kHCR_EL2);
    EXPECT_EQ(host_.syndromes.size(), 1u) << "deferred access must not trap";
  });
}

TEST_F(CpuFixture, WorldSwitchTogglingRevalidatesWarmBanks) {
  // The host flips between guest and host trap controls around every trap;
  // returning to an already-seen configuration must land in its still-warm
  // bank (a revalidation, not an invalidation) and resolve identically.
  const ResolutionCache& rc = cpu_.resolution_cache();
  EnterGuestContext(Vel2Hcr(false));
  cpu_.RunLowerEl(El::kEl1,
                  [&] { (void)cpu_.SysRegRead(SysReg::kSCTLR_EL1); });
  EnterGuestContext(0);  // back to host controls
  (void)cpu_.SysRegRead(SysReg::kVBAR_EL2);
  uint64_t inv0 = rc.invalidations(), rev0 = rc.revalidations();
  uint64_t traps0 = host_.syndromes.size();
  EnterGuestContext(Vel2Hcr(false));  // toggle back: warm bank
  uint64_t h0 = rc.hits();
  cpu_.RunLowerEl(El::kEl1,
                  [&] { (void)cpu_.SysRegRead(SysReg::kSCTLR_EL1); });
  EXPECT_EQ(rc.hits(), h0 + 1) << "warm bank should serve the re-toggle";
  EXPECT_EQ(rc.invalidations(), inv0);
  EXPECT_GT(rc.revalidations(), rev0);
  EXPECT_EQ(host_.syndromes.size(), traps0 + 1) << "still traps under NV1";
}

TEST_F(CpuFixture, DisabledCacheStillResolvesCorrectly) {
  cpu_.resolution_cache().set_enabled(false);
  uint64_t m0 = cpu_.resolution_cache().misses();
  cpu_.SysRegWrite(SysReg::kVBAR_EL2, 0x77);
  EXPECT_EQ(cpu_.SysRegRead(SysReg::kVBAR_EL2), 0x77u);
  EXPECT_EQ(cpu_.SysRegRead(SysReg::kVBAR_EL2), 0x77u);
  EXPECT_EQ(cpu_.resolution_cache().misses(), m0)
      << "disabled cache must not be probed";
}

// Runs every slot of the current configuration through Lookup, Insert and
// Lookup again: the first lookup must miss (each phase below is a fresh
// generation), the second must hit with what the tree walk resolves.
void ExpectEverySlotMissesThenHits(ResolutionCache& cache, uint64_t hcr,
                                   uint64_t vncr, uint32_t fill) {
  const ArchFeatures features = ArchFeatures::Armv84Neve();
  for (El el : {El::kEl0, El::kEl1, El::kEl2}) {
    const AccessContext ctx{.features = features,
                            .el = el,
                            .hcr = Hcr{hcr},
                            .vncr_enabled = VncrEl2(vncr).enabled()};
    for (int e = 0; e < kNumSysRegs; ++e) {
      const auto enc = static_cast<SysReg>(e);
      for (bool w : {false, true}) {
        AccessResolution got;
        ASSERT_FALSE(cache.Lookup(enc, el, w, &got))
            << "fill " << fill << ": " << SysRegName(enc)
            << " hit before its Insert";
        const AccessResolution want = ResolveSysRegAccess(ctx, enc, w);
        cache.Insert(enc, el, w, want);
        ASSERT_TRUE(cache.Lookup(enc, el, w, &got));
        ASSERT_EQ(got.kind, want.kind) << SysRegName(enc);
        ASSERT_EQ(got.target, want.target) << SysRegName(enc);
        ASSERT_EQ(got.mem_offset, want.mem_offset) << SysRegName(enc);
      }
    }
  }
}

// The reset configuration, then ten distinct (HCR_EL2, VNCR_EL2) pairs
// twice (ten pairs thrash eight LRU banks, so every switch takes a fresh
// generation and each bank is claimed), then Invalidate().
void DriveThroughEveryBank(ResolutionCache& cache, uint32_t fill) {
  const uint64_t page = VncrEl2::Make(8ull << 20, true).bits();
  const uint64_t hcrs[] = {
      Hcr::Make({HcrBits::kVm}),
      Hcr::Make({HcrBits::kVm, HcrBits::kImo}),
      Hcr::Make({HcrBits::kVm, HcrBits::kImo, HcrBits::kNv}),
      Hcr::Make({HcrBits::kVm, HcrBits::kImo, HcrBits::kNv, HcrBits::kNv1}),
      Hcr::Make({HcrBits::kE2h, HcrBits::kTge})};
  ExpectEverySlotMissesThenHits(cache, 0, 0, fill);
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t hcr : hcrs) {
      for (uint64_t vncr : {uint64_t{0}, page}) {
        cache.OnConfigChange(hcr, vncr);
        ExpectEverySlotMissesThenHits(cache, hcr, vncr, fill);
      }
    }
  }
  cache.Invalidate();
  ExpectEverySlotMissesThenHits(cache, hcrs[4], page, fill);
}

TEST(ResolutionCacheBankTest, UnzeroedBanksAreNeverRead) {
  // A cache's banks are zeroed when first claimed, not at construction. Build
  // caches over storage whose every 32-bit word is g, so each slot not yet
  // zeroed carries stamp g and would hit under generation g, and require the
  // behaviour of a default-constructed cache for every generation the drive
  // reaches.
  ResolutionCache fresh;
  DriveThroughEveryBank(fresh, 0);
  constexpr size_t kWords = (sizeof(ResolutionCache) + 3) / 4;
  static_assert(alignof(ResolutionCache) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  for (uint32_t g = 1; g <= 16; ++g) {
    auto storage = std::make_unique<uint32_t[]>(kWords);
    std::fill_n(storage.get(), kWords, g);
    // Keeps the fill: the stores are otherwise dead once a new object's
    // lifetime starts in the storage.
    asm volatile("" : : "r"(storage.get()) : "memory");
    auto* cache = new (storage.get()) ResolutionCache;
    DriveThroughEveryBank(*cache, g);
    EXPECT_EQ(cache->hits(), fresh.hits()) << "fill " << g;
    EXPECT_EQ(cache->misses(), fresh.misses()) << "fill " << g;
    EXPECT_EQ(cache->config_generation(), fresh.config_generation());
    cache->~ResolutionCache();
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(ResolutionCacheBankTest, StampWrapLeavesNoEntryReadable) {
  // Eight new configurations from a fresh cache claim banks 0-7 in turn, so
  // bank b ends with generation b + 2. After the 32-bit stamps wrap, the
  // same eight claim the same banks with the same stamps: an entry the wrap
  // left in place would hit before its Insert.
  const uint64_t page = VncrEl2::Make(8ull << 20, true).bits();
  std::vector<std::pair<uint64_t, uint64_t>> configs;
  for (uint64_t hcr : {Hcr::Make({HcrBits::kVm}),
                       Hcr::Make({HcrBits::kVm, HcrBits::kImo}),
                       Hcr::Make({HcrBits::kVm, HcrBits::kNv}),
                       Hcr::Make({HcrBits::kE2h, HcrBits::kTge})}) {
    configs.emplace_back(hcr, 0);
    configs.emplace_back(hcr, page);
  }
  ASSERT_EQ(configs.size(), ResolutionCache::kNumBanks);
  ResolutionCache cache;
  for (auto [hcr, vncr] : configs) {
    cache.OnConfigChange(hcr, vncr);
    ExpectEverySlotMissesThenHits(cache, hcr, vncr, 0);
  }
  ASSERT_EQ(cache.config_generation(), ResolutionCache::kNumBanks + 1);
  cache.SkipToStampWrapForTest();
  cache.Invalidate();  // wraps: the current bank takes stamp 1
  EXPECT_EQ(cache.config_generation(), (uint64_t{1} << 32) + 1);
  for (auto [hcr, vncr] : configs) {
    cache.OnConfigChange(hcr, vncr);
    ExpectEverySlotMissesThenHits(cache, hcr, vncr, 0);
  }
  EXPECT_EQ(cache.config_generation(),
            (uint64_t{1} << 32) + ResolutionCache::kNumBanks + 1);
}

// --- NEVE memory redirection --------------------------------------------------------

class NeveCpuFixture : public CpuFixture {
 protected:
  NeveCpuFixture() : page_(Pa(8ull << 20)) {
    cpu_.PokeReg(RegId::kVNCR_EL2, VncrEl2::Make(page_.value, true).bits());
  }
  Pa page_;
};

TEST_F(NeveCpuFixture, DeferredWriteLandsInPage) {
  EnterGuestContext(Vel2Hcr(false));
  cpu_.RunLowerEl(El::kEl1,
                  [&] { cpu_.SysRegWrite(SysReg::kHCR_EL2, 0x1234); });
  EXPECT_TRUE(host_.syndromes.empty()) << "NEVE must not trap VM registers";
  EXPECT_EQ(mem_.Read64(Pa(page_.value + DeferredPageOffset(RegId::kHCR_EL2))),
            0x1234u);
}

TEST_F(NeveCpuFixture, DeferredReadServedFromPage) {
  EnterGuestContext(Vel2Hcr(false));
  mem_.Write64(Pa(page_.value + DeferredPageOffset(RegId::kVTTBR_EL2)),
               0xABCD);
  uint64_t v = 0;
  cpu_.RunLowerEl(El::kEl1, [&] { v = cpu_.SysRegRead(SysReg::kVTTBR_EL2); });
  EXPECT_EQ(v, 0xABCDu);
  EXPECT_TRUE(host_.syndromes.empty());
}

TEST_F(NeveCpuFixture, DeferredAccessCostsAMemoryReference) {
  EnterGuestContext(Vel2Hcr(false));
  uint64_t c0 = 0, c1 = 0;
  cpu_.RunLowerEl(El::kEl1, [&] {
    c0 = cpu_.cycles();
    cpu_.SysRegWrite(SysReg::kHSTR_EL2, 1);
    c1 = cpu_.cycles();
  });
  EXPECT_EQ(c1 - c0, cpu_.cost().mem_access);
}

TEST_F(NeveCpuFixture, RedirectClassTouchesEl1Register) {
  EnterGuestContext(Vel2Hcr(false));
  cpu_.RunLowerEl(El::kEl1,
                  [&] { cpu_.SysRegWrite(SysReg::kVBAR_EL2, 0x8000); });
  EXPECT_TRUE(host_.syndromes.empty());
  EXPECT_EQ(cpu_.PeekReg(RegId::kVBAR_EL1), 0x8000u);
  EXPECT_EQ(cpu_.PeekReg(RegId::kVBAR_EL2), 0u);
}

TEST_F(NeveCpuFixture, TrapOnWriteStillTraps) {
  EnterGuestContext(Vel2Hcr(false));
  cpu_.RunLowerEl(El::kEl1, [&] {
    (void)cpu_.SysRegRead(SysReg::kCNTHCTL_EL2);  // cached: no trap
    cpu_.SysRegWrite(SysReg::kCNTHCTL_EL2, 3);    // write: traps
  });
  ASSERT_EQ(host_.syndromes.size(), 1u);
  EXPECT_TRUE(host_.syndromes[0].is_write);
}

// --- list transfers ----------------------------------------------------------------

// One CPU with its own memory, host, observability and attribution, so two
// rigs can run the same script -- one through ReadList/WriteList, one
// through the per-access loop those replace -- and be compared.
struct ListRig {
  ListRig()
      : mem(64ull << 20),
        cpu(0, ArchFeatures::Armv84Neve(), CostModel::Default(), &mem) {
    cpu.SetEl2Host(&host);
    obs.set_enabled(true);
    cpu.SetObservability(&obs);
    attr.AttachCpu(0);
    cpu.SetAttribution(&attr);
    cpu.trace().set_record_details(true);
  }

  void Read(bool lists, const SysRegList& list, uint64_t* out,
            ContextSlots slots) {
    if (lists) {
      cpu.ReadList(list, out, slots);
      return;
    }
    for (size_t i = 0; i < list.size(); ++i) {
      out[i] = cpu.SysRegRead(list.encs()[i]);
      if (slots == ContextSlots::kPerEntry) {
        cpu.Compute(cpu.cost().mem_access);
      }
    }
    for (size_t i = 0; slots == ContextSlots::kBlock && i < list.size(); ++i) {
      cpu.Compute(cpu.cost().mem_access);
    }
  }

  void Write(bool lists, const SysRegList& list, const uint64_t* in,
             ContextSlots slots) {
    if (lists) {
      cpu.WriteList(list, in, slots);
      return;
    }
    for (size_t i = 0; slots == ContextSlots::kBlock && i < list.size(); ++i) {
      cpu.Compute(cpu.cost().mem_access);
    }
    for (size_t i = 0; i < list.size(); ++i) {
      if (slots == ContextSlots::kPerEntry) {
        cpu.Compute(cpu.cost().mem_access);
      }
      cpu.SysRegWrite(list.encs()[i], in[i]);
    }
  }

  PhysMem mem;
  Cpu cpu;
  FakeHost host;
  Observability obs;
  CycleAttribution attr;
};

// Runs `script` on a list rig and a loop rig and requires everything either
// can observe to match: values (the script returns them), architectural
// state, cycles, trap trace, attribution, cache counters and metrics.
template <typename Script>
void ExpectListsMatchLoop(Script script) {
  ListRig with_lists, with_loop;
  std::vector<uint64_t> a = script(with_lists, true);
  std::vector<uint64_t> b = script(with_loop, false);
  EXPECT_EQ(a, b);
  const Cpu& x = with_lists.cpu;
  const Cpu& y = with_loop.cpu;
  EXPECT_EQ(x.ArchStateDigest(), y.ArchStateDigest());
  EXPECT_EQ(x.cycles(), y.cycles());
  EXPECT_EQ(with_lists.cpu.trace().Dump(), with_loop.cpu.trace().Dump());
  EXPECT_EQ(with_lists.cpu.trace().AttributionReport(),
            with_loop.cpu.trace().AttributionReport());
  EXPECT_EQ(with_lists.attr.CollapsedStacks(), with_loop.attr.CollapsedStacks());
  EXPECT_EQ(x.resolution_cache().hits(), y.resolution_cache().hits());
  EXPECT_EQ(x.resolution_cache().misses(), y.resolution_cache().misses());
  std::string metrics = with_lists.obs.metrics().TextReport();
  EXPECT_EQ(metrics, with_loop.obs.metrics().TextReport());
  if (x.resolution_cache().enabled()) {
    EXPECT_NE(metrics.find("cpu.resolve_cache_hits"), std::string::npos);
  }
}

uint64_t NvHcr(bool nv1) {
  uint64_t h = Hcr::Make({HcrBits::kVm, HcrBits::kImo, HcrBits::kNv});
  return nv1 ? SetBit(h, HcrBits::kNv1) : h;
}

constexpr SysReg kEl2Encs[] = {SysReg::kVBAR_EL2, SysReg::kTPIDR_EL2,
                               SysReg::kESR_EL2, SysReg::kELR_EL2,
                               SysReg::kSPSR_EL2, SysReg::kFAR_EL2};
const SysRegList kEl2Read(kEl2Encs);
const SysRegList kEl2Write(kEl2Encs);
// At virtual EL2 under NV without NV1, the EL1 and EL0 entries are plain
// registers and ESR_EL2 traps.
constexpr SysReg kMixedEncs[] = {SysReg::kSCTLR_EL1, SysReg::kTPIDR_EL0,
                                 SysReg::kESR_EL2, SysReg::kTPIDRRO_EL0};
const SysRegList kMixedRead(kMixedEncs);
const SysRegList kMixedWrite(kMixedEncs);
// Under NEVE at virtual EL2: HCR_EL2 and VTTBR_EL2 go to the deferred page,
// VBAR_EL2 and ELR_EL2 to their EL1 registers.
constexpr SysReg kNeveEncs[] = {SysReg::kVBAR_EL2, SysReg::kHCR_EL2,
                                SysReg::kELR_EL2, SysReg::kVTTBR_EL2};
const SysRegList kNeveRead(kNeveEncs);
const SysRegList kNeveWrite(kNeveEncs);
constexpr SysReg kRedirectEncs[] = {SysReg::kVBAR_EL2, SysReg::kELR_EL2,
                                    SysReg::kESR_EL2};
const SysRegList kRedirectRead(kRedirectEncs);
// Plain registers at virtual EL2 under NV without NV1.
constexpr SysReg kEl1Encs[] = {SysReg::kSCTLR_EL1, SysReg::kTPIDR_EL0,
                               SysReg::kTPIDRRO_EL0, SysReg::kTPIDR_EL1};
const SysRegList kEl1Read(kEl1Encs);
constexpr SysReg kConfigEncs[] = {SysReg::kVTTBR_EL2, SysReg::kHCR_EL2};
const SysRegList kConfigWrite(kConfigEncs);

TEST(ListTransferTest, El2UnderTheHostConfigMatchesTheLoop) {
  ExpectListsMatchLoop([](ListRig& r, bool lists) {
    std::vector<uint64_t> seen;
    for (int round = 0; round < 3; ++round) {
      for (ContextSlots slots : {ContextSlots::kNone, ContextSlots::kPerEntry,
                                 ContextSlots::kBlock}) {
        uint64_t in[6] = {1, 2, 3, 4, 5, static_cast<uint64_t>(round)};
        uint64_t out[6] = {};
        r.Write(lists, kEl2Write, in, slots);
        r.Read(lists, kEl2Read, out, slots);
        seen.insert(seen.end(), out, out + 6);
      }
    }
    return seen;
  });
}

TEST(ListTransferTest, TrappingEntryUnderNvMatchesTheLoop) {
  ExpectListsMatchLoop([](ListRig& r, bool lists) {
    r.host.default_value = 0xE5;
    r.cpu.PokeReg(RegId::kHCR_EL2, NvHcr(/*nv1=*/false));
    std::vector<uint64_t> seen;
    r.cpu.RunLowerEl(El::kEl1, [&] {
      for (ContextSlots slots : {ContextSlots::kPerEntry, ContextSlots::kBlock,
                                 ContextSlots::kPerEntry}) {
        uint64_t in[4] = {7, 8, 9, 10};
        uint64_t out[4] = {};
        r.Write(lists, kMixedWrite, in, slots);
        r.Read(lists, kMixedRead, out, slots);
        seen.insert(seen.end(), out, out + 4);
      }
    });
    EXPECT_EQ(r.host.syndromes.size(), 6u) << "ESR_EL2 traps every time";
    return seen;
  });
}

TEST(ListTransferTest, NeveRedirectsMatchTheLoop) {
  ExpectListsMatchLoop([](ListRig& r, bool lists) {
    Pa page(8ull << 20);
    r.cpu.PokeReg(RegId::kVNCR_EL2, VncrEl2::Make(page.value, true).bits());
    r.cpu.PokeReg(RegId::kHCR_EL2, NvHcr(/*nv1=*/true));
    r.mem.Write64(Pa(page.value + DeferredPageOffset(RegId::kVTTBR_EL2)),
                  0xABCD);
    std::vector<uint64_t> seen;
    r.cpu.RunLowerEl(El::kEl1, [&] {
      for (int round = 0; round < 3; ++round) {
        uint64_t in[4] = {0x100, 0x200, 0x300, static_cast<uint64_t>(round)};
        uint64_t out[4] = {};
        uint64_t redirected[3] = {};
        r.Write(lists, kNeveWrite, in, ContextSlots::kPerEntry);
        r.Read(lists, kNeveRead, out, ContextSlots::kBlock);
        // Every entry here is an EL1 register, so this list plans at EL1.
        r.Read(lists, kRedirectRead, redirected, ContextSlots::kPerEntry);
        seen.insert(seen.end(), out, out + 4);
        seen.insert(seen.end(), redirected, redirected + 3);
      }
    });
    EXPECT_TRUE(r.host.syndromes.empty());
    seen.push_back(
        r.mem.Read64(Pa(page.value + DeferredPageOffset(RegId::kHCR_EL2))));
    return seen;
  });
}

TEST(ListTransferTest, HcrWriteBetweenCallsResolvesUnderTheNewConfig) {
  ExpectListsMatchLoop([](ListRig& r, bool lists) {
    std::vector<uint64_t> seen;
    uint64_t out[4] = {};
    // NV without NV1: SCTLR_EL1 is a plain register at virtual EL2.
    uint64_t config[2] = {0x4000, NvHcr(/*nv1=*/false)};
    r.Write(lists, kConfigWrite, config, ContextSlots::kNone);
    for (int round = 0; round < 2; ++round) {
      r.cpu.RunLowerEl(El::kEl1, [&] {
        r.Read(lists, kMixedRead, out, ContextSlots::kPerEntry);
      });
      seen.insert(seen.end(), out, out + 4);
    }
    size_t traps = r.host.syndromes.size();
    // NV1 on: SCTLR_EL1 now traps too, plan or no plan.
    uint64_t nv1 = NvHcr(/*nv1=*/true);
    r.cpu.SysRegWrite(SysReg::kHCR_EL2, nv1);
    r.cpu.RunLowerEl(El::kEl1, [&] {
      r.Read(lists, kMixedRead, out, ContextSlots::kPerEntry);
    });
    seen.insert(seen.end(), out, out + 4);
    EXPECT_EQ(r.host.syndromes.size(), traps + 2);
    EXPECT_EQ(r.host.syndromes[traps].sysreg, SysReg::kSCTLR_EL1);
    // A list that writes HCR_EL2 never plans: rerun under the reset
    // configuration it first ran under, it must still re-key the cache.
    r.cpu.PokeReg(RegId::kHCR_EL2, 0);
    config[1] = nv1;
    r.Write(lists, kConfigWrite, config, ContextSlots::kNone);
    r.cpu.RunLowerEl(El::kEl1, [&] {
      r.Read(lists, kMixedRead, out, ContextSlots::kPerEntry);
    });
    EXPECT_EQ(r.host.syndromes.size(), traps + 4);
    return seen;
  });
}

TEST(ListTransferTest, WatchdogBelowEl2FiresAtTheSameCycle) {
  ExpectListsMatchLoop([](ListRig& r, bool lists) {
    r.cpu.PokeReg(RegId::kHCR_EL2, NvHcr(/*nv1=*/false));
    uint64_t out[4] = {};
    // The EL1 list's plan exists before the watchdog is armed.
    r.cpu.RunLowerEl(El::kEl1, [&] {
      r.Read(lists, kEl1Read, out, ContextSlots::kPerEntry);
    });
    uint64_t faulted_at = 0;
    try {
      r.cpu.RunLowerEl(El::kEl1, [&] {
        uint64_t step = r.cpu.cost().sysreg_access + r.cpu.cost().mem_access;
        r.cpu.SetWatchdogDeadline(r.cpu.cycles() + step + 1);
        r.Read(lists, kEl1Read, out, ContextSlots::kPerEntry);
      });
    } catch (const GuestFaultException&) {
      faulted_at = r.cpu.cycles();
    }
    EXPECT_NE(faulted_at, 0u) << "the watchdog must fire mid-list";
    return std::vector<uint64_t>{faulted_at, out[0]};
  });
}

TEST(ListTransferTest, DisabledCacheMatchesTheLoop) {
  ExpectListsMatchLoop([](ListRig& r, bool lists) {
    r.cpu.resolution_cache().set_enabled(false);
    std::vector<uint64_t> seen;
    for (int round = 0; round < 3; ++round) {
      uint64_t in[6] = {9, 8, 7, 6, 5, 4};
      uint64_t out[6] = {};
      r.Write(lists, kEl2Write, in, ContextSlots::kBlock);
      r.Read(lists, kEl2Read, out, ContextSlots::kPerEntry);
      seen.insert(seen.end(), out, out + 6);
    }
    EXPECT_EQ(r.cpu.resolution_cache().misses(), 0u);
    return seen;
  });
}

TEST(ListTransferTest, FirstSharesTheWholeListsPlans) {
  ExpectListsMatchLoop([](ListRig& r, bool lists) {
    std::vector<uint64_t> seen;
    for (size_t n : {2, 6, 3, 6, 1}) {
      uint64_t out[6] = {};
      r.Read(lists, kEl2Read.First(n), out, ContextSlots::kPerEntry);
      seen.insert(seen.end(), out, out + n);
    }
    return seen;
  });
}

// --- MMU ------------------------------------------------------------------------------

class MmuFixture : public CpuFixture {
 protected:
  MmuFixture() : alloc_(&mem_, Pa(32ull << 20), 16ull << 20), s2_(&mem_, &alloc_) {
    // Guest IPA [0, 1MB) -> machine [1MB, 2MB).
    s2_.MapRange(Ipa(0), Pa(1ull << 20), 1ull << 20, PagePerms::Rw());
    cpu_.PokeReg(RegId::kVTTBR_EL2, s2_.root().value);
    EnterGuestContext(Hcr::Make({HcrBits::kVm, HcrBits::kImo}));
  }

  PageAllocator alloc_;
  Stage2Table s2_;
};

TEST_F(MmuFixture, Stage2TranslatesGuestAccesses) {
  cpu_.RunLowerEl(El::kEl1, [&] {
    cpu_.StoreVa(Va(0x2000), 0x99);
    EXPECT_EQ(cpu_.LoadVa(Va(0x2000)), 0x99u);
  });
  EXPECT_EQ(mem_.Read64(Pa((1ull << 20) + 0x2000)), 0x99u);
}

TEST_F(MmuFixture, TlbMissChargesWalkHitsDoNot) {
  uint64_t miss = 0, hit = 0;
  cpu_.RunLowerEl(El::kEl1, [&] {
    uint64_t c0 = cpu_.cycles();
    (void)cpu_.LoadVa(Va(0x3000));
    miss = cpu_.cycles() - c0;
    c0 = cpu_.cycles();
    (void)cpu_.LoadVa(Va(0x3008));
    hit = cpu_.cycles() - c0;
  });
  EXPECT_EQ(hit, cpu_.cost().mem_access);
  EXPECT_EQ(miss, cpu_.cost().mem_access +
                      PageTable::kWalkLevels * cpu_.cost().tlb_walk_per_level);
}

TEST_F(MmuFixture, TlbiForcesRewalk) {
  uint64_t again = 0;
  cpu_.RunLowerEl(El::kEl1, [&] {
    (void)cpu_.LoadVa(Va(0x3000));
    cpu_.TlbiAll();
    uint64_t c0 = cpu_.cycles();
    (void)cpu_.LoadVa(Va(0x3000));
    again = cpu_.cycles() - c0;
  });
  EXPECT_GT(again, cpu_.cost().mem_access);
}

TEST_F(MmuFixture, Stage2FaultTrapsWithAbortSyndrome) {
  host_.outcomes.push_back(TrapOutcome::Completed(0x1234));
  uint64_t v = 0;
  cpu_.RunLowerEl(El::kEl1, [&] { v = cpu_.LoadVa(Va(0x40000008)); });
  EXPECT_EQ(v, 0x1234u);  // MMIO value supplied by the host
  ASSERT_EQ(host_.syndromes.size(), 1u);
  EXPECT_EQ(host_.syndromes[0].ec, Ec::kDataAbortLow);
  EXPECT_EQ(host_.syndromes[0].far, 0x40000008u);
  EXPECT_EQ(host_.syndromes[0].hpfar, 0x40000000u);
}

TEST_F(MmuFixture, RetryReplaysTheAccessAfterFixup) {
  // First fault: host maps the page and asks for a retry.
  bool fixed = false;
  class FixupHost : public El2Host {
   public:
    FixupHost(Stage2Table* s2, bool* fixed) : s2_(s2), fixed_(fixed) {}
    TrapOutcome OnTrapToEl2(Cpu&, const Syndrome& s) override {
      EXPECT_EQ(s.ec, Ec::kDataAbortLow);
      s2_->MapPage(Ipa(s.hpfar), Pa(2ull << 20), PagePerms::Rw());
      *fixed_ = true;
      return TrapOutcome::Retry();
    }
    Stage2Table* s2_;
    bool* fixed_;
  };
  FixupHost fixup(&s2_, &fixed);
  cpu_.SetEl2Host(&fixup);
  cpu_.RunLowerEl(El::kEl1, [&] {
    cpu_.StoreVa(Va(0x200000), 0x55);  // beyond the premapped 1MB
  });
  EXPECT_TRUE(fixed);
  EXPECT_EQ(mem_.Read64(Pa(2ull << 20)), 0x55u);
}

TEST_F(MmuFixture, Stage1AndStage2Compose) {
  // Build a Stage-1 table *in guest memory* mapping VA 0x700000 -> IPA 0x2000.
  GuestPhysView view(&mem_, &s2_);
  PageAllocator guest_alloc(&view, Pa(0x80000), 0x40000);
  Stage1Table s1(&view, &guest_alloc);
  s1.MapPage(Va(0x700000), Ipa(0x2000), PagePerms::Rw());
  cpu_.PokeReg(RegId::kTTBR0_EL1, s1.root().value);
  cpu_.PokeReg(RegId::kSCTLR_EL1, 1);  // MMU on
  cpu_.RunLowerEl(El::kEl1, [&] {
    cpu_.StoreVa(Va(0x700000), 0x42);
    EXPECT_EQ(cpu_.LoadVa(Va(0x700000)), 0x42u);
  });
  EXPECT_EQ(mem_.Read64(Pa((1ull << 20) + 0x2000)), 0x42u);
}

TEST_F(MmuFixture, HostAccessesBypassTranslation) {
  cpu_.HostStore(Pa(0x5000), 7);
  EXPECT_EQ(cpu_.HostLoad(Pa(0x5000)), 7u);
  EXPECT_EQ(mem_.Read64(Pa(0x5000)), 7u);
}

// --- CpuTrace rendering ------------------------------------------------------

TEST(CpuTraceTest, DumpWithoutDetailsShowsCountersOnly) {
  CpuTrace trace;
  trace.OnTrapToEl2(Syndrome::Hvc(0x42), 100);
  trace.OnTrapToEl2(Syndrome::EretTrap(), 200);
  std::string out = trace.Dump();
  EXPECT_NE(out.find("total traps to EL2: 2"), std::string::npos);
  EXPECT_NE(out.find("hvc 1"), std::string::npos);
  EXPECT_NE(out.find("eret 1"), std::string::npos);
  // Details were off, so no per-trap lines (they start with "  #<seq>").
  EXPECT_EQ(out.find("#1"), std::string::npos);
}

TEST(CpuTraceTest, DumpWithDetailsListsEachTrap) {
  CpuTrace trace;
  trace.set_record_details(true);
  trace.OnTrapToEl2(Syndrome::Hvc(0x42), 123);
  trace.OnTrapToEl2(Syndrome::DataAbort(0x2000, 0x2000, true, 8), 456);
  ASSERT_EQ(trace.records().size(), 2u);
  std::string out = trace.Dump();
  EXPECT_NE(out.find("#1 @123cyc"), std::string::npos);
  EXPECT_NE(out.find("#2 @456cyc"), std::string::npos);
  EXPECT_NE(out.find(trace.records()[0].syndrome.ToString()),
            std::string::npos);
}

TEST(CpuTraceTest, CountersClassifyBySyndrome) {
  CpuTrace trace;
  trace.OnTrapToEl2(Syndrome::SysRegTrap(SysReg::kVBAR_EL2, true, 1), 1);
  trace.OnTrapToEl2(Syndrome::SysRegTrap(SysReg::kVBAR_EL2, false, 0), 2);
  trace.OnTrapToEl2(Syndrome::Irq(27), 3);
  EXPECT_EQ(trace.traps_to_el2(), 3u);
  EXPECT_EQ(trace.traps(TraceClass::kSysReg), 2u);
  EXPECT_EQ(trace.traps(TraceClass::kIrq), 1u);
  EXPECT_EQ(trace.traps(TraceClass::kHvc), 0u);
}

TEST(CpuTraceTest, AttributionReportShowsClassesWithPercent) {
  CpuTrace trace;
  trace.AttributeCycles(Ec::kHvc64, 750);
  trace.AttributeCycles(Ec::kSysReg, 250);
  EXPECT_EQ(trace.total_attributed_cycles(), 1000u);
  EXPECT_EQ(trace.cycles_for(Ec::kHvc64), 750u);
  std::string out = trace.AttributionReport();
  EXPECT_NE(out.find("hvc/smc"), std::string::npos);
  EXPECT_NE(out.find("sysreg"), std::string::npos);
  EXPECT_NE(out.find("75.0%"), std::string::npos);
  EXPECT_NE(out.find("25.0%"), std::string::npos);
  // Classes with zero cycles are elided.
  EXPECT_EQ(out.find("eret"), std::string::npos);
}

TEST(CpuTraceTest, SmcRollsUpWithHvc) {
  // kSmc64 shares the hvc/smc attribution bucket.
  CpuTrace trace;
  trace.AttributeCycles(Ec::kSmc64, 10);
  EXPECT_EQ(trace.cycles_for(Ec::kHvc64), 10u);
}

TEST(CpuTraceTest, ResetClearsEverything) {
  CpuTrace trace;
  trace.set_record_details(true);
  trace.OnTrapToEl2(Syndrome::Hvc(0x42), 1);
  trace.AttributeCycles(Ec::kHvc64, 99);
  trace.Reset();
  EXPECT_EQ(trace.traps_to_el2(), 0u);
  EXPECT_EQ(trace.traps(TraceClass::kHvc), 0u);
  EXPECT_TRUE(trace.records().empty());
  EXPECT_EQ(trace.total_attributed_cycles(), 0u);
}

}  // namespace
}  // namespace neve
