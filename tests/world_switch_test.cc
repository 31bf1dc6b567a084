// Tests for the world-switch register sequences: the *same code* must be
// trap-free at real EL2 and exhibit the paper's per-architecture trap
// profile at virtual EL2.

#include <gtest/gtest.h>

#include "src/arch/vncr.h"
#include "src/base/rng.h"
#include "src/hyp/world_switch.h"
#include "src/mem/phys_mem.h"

namespace neve {
namespace {

class CountingHost : public El2Host {
 public:
  TrapOutcome OnTrapToEl2(Cpu&, const Syndrome& s) override {
    ++traps;
    last = s;
    return TrapOutcome::Completed(0);
  }
  int traps = 0;
  Syndrome last;
};

struct WsParam {
  ArchFeatures features;
  bool guest_vhe;
  bool vncr;
  const char* name;
};

class WorldSwitchTest : public testing::TestWithParam<WsParam> {
 protected:
  WorldSwitchTest()
      : mem_(16ull << 20),
        cpu_(0, GetParam().features, CostModel::Default(), &mem_) {
    cpu_.SetEl2Host(&host_);
    uint64_t hcr = Hcr::Make({HcrBits::kVm, HcrBits::kImo, HcrBits::kNv});
    if (!GetParam().guest_vhe) {
      hcr = SetBit(hcr, HcrBits::kNv1);
    }
    cpu_.PokeReg(RegId::kHCR_EL2, hcr);
    if (GetParam().vncr) {
      cpu_.PokeReg(RegId::kVNCR_EL2, VncrEl2::Make(0x100000, true).bits());
    }
  }

  bool vhe() const { return GetParam().guest_vhe; }

  // Runs `body` at virtual EL2 and returns how many times it trapped.
  int TrapsAtVel2(const std::function<void()>& body) {
    host_.traps = 0;
    cpu_.RunLowerEl(El::kEl1, body);
    return host_.traps;
  }

  PhysMem mem_;
  Cpu cpu_;
  CountingHost host_;
};

TEST_P(WorldSwitchTest, HostSideSequencesNeverTrap) {
  // At real EL2 the identical sequences execute locally.
  El1Context ctx;
  ExtEl1Context ext;
  PmuDebugContext pmu;
  VgicContext vg;
  TimerContext timer;
  SaveEl1Context(cpu_, /*vhe=*/false, &ctx);
  RestoreEl1Context(cpu_, /*vhe=*/false, ctx);
  SaveExtEl1Context(cpu_, false, &ext);
  RestoreExtEl1Context(cpu_, false, ext);
  SavePmuDebugState(cpu_, &pmu);
  RestorePmuDebugState(cpu_, pmu);
  SaveVgic(cpu_, &vg);
  RestoreVgic(cpu_, vg);
  SaveGuestTimer(cpu_, false, &timer);
  RestoreGuestTimer(cpu_, false, timer, 0);
  WriteGuestTrapControls(cpu_, 0, 0, 0);
  WriteHostTrapControls(cpu_, 0);
  ReadExitInfo(cpu_);
  WriteReturnState(cpu_, 0, 0);
  TouchPerCpuData(cpu_);
  EXPECT_EQ(host_.traps, 0);
}

TEST_P(WorldSwitchTest, El1ContextSaveTrapProfile) {
  int traps = TrapsAtVel2([&] {
    El1Context ctx;
    SaveEl1Context(cpu_, vhe(), &ctx);
  });
  const WsParam& p = GetParam();
  if (p.features.neve && p.vncr) {
    EXPECT_EQ(traps, 0) << "NEVE defers the whole Table 3 EL1 context";
  } else if (p.guest_vhe) {
    // EL12 encodings trap under plain NV.
    EXPECT_EQ(traps, kNumVmEl1Regs);
  } else {
    // NV1 traps the EL1 VM-register accesses.
    EXPECT_EQ(traps, kNumVmEl1Regs);
  }
}

TEST_P(WorldSwitchTest, ExitInfoReadTrapProfile) {
  int traps = TrapsAtVel2([&] { ReadExitInfo(cpu_); });
  const WsParam& p = GetParam();
  if (p.features.neve && p.vncr) {
    EXPECT_EQ(traps, 0) << "redirect + deferred classes cover exit info";
  } else {
    EXPECT_EQ(traps, 5);
  }
}

TEST_P(WorldSwitchTest, TimerSwitchProfile) {
  int traps = TrapsAtVel2([&] {
    TimerContext t;
    SaveGuestTimer(cpu_, vhe(), &t);
    RestoreGuestTimer(cpu_, vhe(), t, 0);
  });
  // The timer switch profile is identical under plain NV and NEVE: CNTHCTL
  // and CNTVOFF are trap-on-write either way, the guest's own EL0 timer
  // registers never trap, and the VHE build's three *_EL02 accesses always
  // trap -- the extra traps of section 7.1.
  EXPECT_EQ(traps, vhe() ? 6 : 3);
}

TEST_P(WorldSwitchTest, VgicSwitchProfile) {
  int traps = TrapsAtVel2([&] {
    VgicContext vg;
    SaveVgic(cpu_, &vg);
    RestoreVgic(cpu_, vg);
  });
  const WsParam& p = GetParam();
  if (p.features.neve && p.vncr) {
    // Reads are cached; only the ICH_HCR/ICH_VMCR writes trap (Table 5).
    EXPECT_EQ(traps, 3);
  } else {
    EXPECT_EQ(traps, 7);  // VMCR r/w + VTR + ELRSR + EISR + HCR w x2
  }
}

TEST_P(WorldSwitchTest, PmuDebugSwitchProfile) {
  int traps = TrapsAtVel2([&] {
    PmuDebugContext pd;
    SavePmuDebugState(cpu_, &pd);
    RestorePmuDebugState(cpu_, pd);
  });
  const WsParam& p = GetParam();
  if ((p.features.neve && p.vncr) || p.guest_vhe) {
    // NEVE: deferred/cached. VHE guests: EL1/EL0 encodings stay direct.
    EXPECT_EQ(traps, 0);
  } else {
    EXPECT_EQ(traps, 5);
  }
}

TEST_P(WorldSwitchTest, TrapControlWritesProfile) {
  int traps = TrapsAtVel2([&] {
    WriteGuestTrapControls(cpu_, 0x80000005, 0x4000, 1);
    WriteHostTrapControls(cpu_, 0);
  });
  const WsParam& p = GetParam();
  if (p.features.neve && p.vncr) {
    // VMPIDR/VPIDR/HSTR/VTTBR/HCR deferred; only CPTR/MDCR writes trap.
    EXPECT_EQ(traps, 4);
  } else {
    EXPECT_EQ(traps, 13);
  }
}

TEST_P(WorldSwitchTest, RandomizedContextRoundTripIsAFixedPoint) {
  // Property: after one save/restore cycle settles the hypervisor-owned
  // controls (ICH_HCR, CNTHCTL, PMSELR), further cycles are a fixed point --
  // every context image and the full architectural state digest come back
  // bit-identical, whatever values the switched registers held. This is the
  // host-side (real EL2) twin of the fuzzer's vel2-golden oracle: it catches
  // save/restore lists that disagree on order, alias, or membership.
  if (vhe()) {
    // The *_EL12/*_EL02 alias encodings need a VHE host context.
    cpu_.PokeReg(RegId::kHCR_EL2,
                 SetBit(cpu_.PeekReg(RegId::kHCR_EL2), HcrBits::kE2h));
  }
  Rng rng(DigestOf(0x5757, vhe() ? 1 : 0, GetParam().vncr ? 1 : 0));
  for (int iter = 0; iter < 64; ++iter) {
    // Scramble every switched register through the resolving accessors.
    for (SysReg enc : VmEl1Encodings(vhe())) {
      cpu_.SysRegWrite(enc, rng.Next());
    }
    const SysReg ext[] = {
        SysReg::kTPIDR_EL0,  SysReg::kTPIDRRO_EL0,
        SysReg::kTPIDR_EL1,  SysReg::kPAR_EL1,
        vhe() ? SysReg::kCNTKCTL_EL12 : SysReg::kCNTKCTL_EL1,
        SysReg::kCSSELR_EL1};
    for (SysReg enc : ext) {
      cpu_.SysRegWrite(enc, rng.Next());
    }
    cpu_.SysRegWrite(SysReg::kMDSCR_EL1, rng.Next());
    cpu_.SysRegWrite(SysReg::kPMUSERENR_EL0, rng.Next());
    cpu_.SysRegWrite(SysReg::kICH_VMCR_EL2, rng.Next());
    int lrs = static_cast<int>(rng.NextBelow(5));
    for (int i = 0; i < lrs; ++i) {
      cpu_.SysRegWrite(IchListRegisterEncoding(i), rng.Next());
    }
    // Keep the timer armed (bit 0) so the compare value is part of the
    // context; ISTATUS is read-only and stays out of the written bits.
    cpu_.SysRegWrite(vhe() ? SysReg::kCNTV_CTL_EL02 : SysReg::kCNTV_CTL_EL0,
                     (rng.Next() & 0b10) | 0b01);
    cpu_.SysRegWrite(vhe() ? SysReg::kCNTV_CVAL_EL02 : SysReg::kCNTV_CVAL_EL0,
                     rng.Next());
    uint64_t cntvoff = rng.Next();

    auto cycle = [&](El1Context* c, ExtEl1Context* e, PmuDebugContext* p,
                     VgicContext* v, TimerContext* t) {
      v->lrs_in_use = lrs;
      SaveEl1Context(cpu_, vhe(), c);
      SaveExtEl1Context(cpu_, vhe(), e);
      SavePmuDebugState(cpu_, p);
      SaveVgic(cpu_, v);
      SaveGuestTimer(cpu_, vhe(), t);
      RestoreGuestTimer(cpu_, vhe(), *t, cntvoff);
      RestoreVgic(cpu_, *v);
      RestorePmuDebugState(cpu_, *p);
      RestoreExtEl1Context(cpu_, vhe(), *e);
      RestoreEl1Context(cpu_, vhe(), *c);
    };

    El1Context c1, c2;
    ExtEl1Context e1, e2;
    PmuDebugContext p1, p2;
    VgicContext v1, v2;
    TimerContext t1, t2;
    cycle(&c1, &e1, &p1, &v1, &t1);
    uint64_t settled = cpu_.ArchStateDigest();
    cycle(&c2, &e2, &p2, &v2, &t2);
    EXPECT_EQ(DigestOf(c2), DigestOf(c1)) << "iter " << iter;
    EXPECT_EQ(DigestOf(e2), DigestOf(e1)) << "iter " << iter;
    EXPECT_EQ(DigestOf(p2), DigestOf(p1)) << "iter " << iter;
    EXPECT_EQ(DigestOf(v2), DigestOf(v1)) << "iter " << iter;
    EXPECT_EQ(DigestOf(t2), DigestOf(t1)) << "iter " << iter;
    EXPECT_EQ(cpu_.ArchStateDigest(), settled) << "iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, WorldSwitchTest,
    testing::Values(
        WsParam{ArchFeatures::Armv83Nv(), false, false, "V83NonVhe"},
        WsParam{ArchFeatures::Armv83Nv(), true, false, "V83Vhe"},
        WsParam{ArchFeatures::Armv84Neve(), false, true, "NeveNonVhe"},
        WsParam{ArchFeatures::Armv84Neve(), true, true, "NeveVhe"}),
    [](const testing::TestParamInfo<WsParam>& info) {
      return info.param.name;
    });

TEST(WorldSwitchListTest, ContextListMatchesTable3) {
  // Register-id list and encoding lists stay in lockstep.
  std::span<const RegId> ids = VmEl1RegIds();
  std::span<const SysReg> el1 = VmEl1Encodings(false);
  ASSERT_EQ(ids.size(), static_cast<size_t>(kNumVmEl1Regs));
  ASSERT_EQ(el1.size(), ids.size());
  for (int i = 0; i < kNumVmEl1Regs; ++i) {
    EXPECT_EQ(SysRegStorage(el1[i]), ids[i]) << i;
    EXPECT_EQ(RegNeveClass(ids[i]), NeveClass::kDeferred) << RegName(ids[i]);
    EXPECT_EQ(El1ContextIndexOf(ids[i]), i);
  }
  EXPECT_EQ(El1ContextIndexOf(RegId::kHCR_EL2), -1);
}

TEST(WorldSwitchListTest, VheEncodingsShareStorageWithEl1List) {
  std::span<const SysReg> el1 = VmEl1Encodings(false);
  std::span<const SysReg> el12 = VmEl1Encodings(true);
  for (int i = 0; i < kNumVmEl1Regs; ++i) {
    EXPECT_EQ(SysRegStorage(el1[i]), SysRegStorage(el12[i])) << i;
  }
}

TEST(WorldSwitchListTest, ContextValuesRoundTrip) {
  PhysMem mem(16ull << 20);
  Cpu cpu(0, ArchFeatures::Armv83Nv(), CostModel::Default(), &mem);
  El1Context ctx;
  for (int i = 0; i < kNumVmEl1Regs; ++i) {
    ctx.regs[i] = 0x1000 + i;
  }
  RestoreEl1Context(cpu, false, ctx);
  El1Context out;
  SaveEl1Context(cpu, false, &out);
  for (int i = 0; i < kNumVmEl1Regs; ++i) {
    EXPECT_EQ(out.regs[i], 0x1000u + i);
  }
}

}  // namespace
}  // namespace neve
