// Tests for the E2H / NV / NEVE access-resolution pipeline -- the
// architectural behaviour the paper's whole argument rests on.

#include <gtest/gtest.h>

#include "src/cpu/trap_rules.h"

namespace neve {
namespace {

AccessContext MakeCtx(ArchFeatures features, El el, uint64_t hcr_bits,
                      bool vncr = false) {
  return AccessContext{.features = features,
                       .el = el,
                       .hcr = Hcr{hcr_bits},
                       .vncr_enabled = vncr};
}

// Hardware HCR values the host hypervisor programs per context.
uint64_t HcrForVel2(bool guest_vhe) {
  uint64_t h = Hcr::Make({HcrBits::kVm, HcrBits::kImo, HcrBits::kNv});
  if (!guest_vhe) {
    h = SetBit(h, HcrBits::kNv1);
  }
  return h;
}

uint64_t HcrForPlainGuest() {
  return Hcr::Make({HcrBits::kVm, HcrBits::kImo});
}

// --- Host (real EL2) behaviour ------------------------------------------------

TEST(ResolveAtEl2Test, NonVheHostAccessesEl2RegistersDirectly) {
  AccessContext ctx = MakeCtx(ArchFeatures::Armv83Nv(), El::kEl2, 0);
  AccessResolution r = ResolveSysRegAccess(ctx, SysReg::kVBAR_EL2, true);
  EXPECT_EQ(r.kind, AccessResolution::Kind::kRegister);
  EXPECT_EQ(r.target, RegId::kVBAR_EL2);
}

TEST(ResolveAtEl2Test, NonVheHostEl1EncodingsReachEl1Registers) {
  AccessContext ctx = MakeCtx(ArchFeatures::Armv83Nv(), El::kEl2, 0);
  AccessResolution r = ResolveSysRegAccess(ctx, SysReg::kSPSR_EL1, false);
  EXPECT_EQ(r.kind, AccessResolution::Kind::kRegister);
  EXPECT_EQ(r.target, RegId::kSPSR_EL1);
}

TEST(ResolveAtEl2Test, E2hRedirectsEl1EncodingsToEl2Counterparts) {
  // VHE's marquee feature: an OS kernel's EL1 accesses reach EL2 state.
  AccessContext ctx = MakeCtx(ArchFeatures::Armv81Vhe(), El::kEl2,
                              Hcr::Make({HcrBits::kE2h}));
  struct Case {
    SysReg enc;
    RegId target;
  };
  for (auto [enc, target] : {
           Case{SysReg::kSPSR_EL1, RegId::kSPSR_EL2},
           Case{SysReg::kESR_EL1, RegId::kESR_EL2},
           Case{SysReg::kVBAR_EL1, RegId::kVBAR_EL2},
           Case{SysReg::kCPACR_EL1, RegId::kCPTR_EL2},
           Case{SysReg::kCNTKCTL_EL1, RegId::kCNTHCTL_EL2},
           Case{SysReg::kCNTV_CTL_EL0, RegId::kCNTHV_CTL_EL2},
       }) {
    AccessResolution r = ResolveSysRegAccess(ctx, enc, false);
    EXPECT_EQ(r.kind, AccessResolution::Kind::kRegister);
    EXPECT_EQ(r.target, target) << SysRegName(enc);
  }
}

TEST(ResolveAtEl2Test, E2hLeavesUncounterpartedEl1RegistersAlone) {
  AccessContext ctx = MakeCtx(ArchFeatures::Armv81Vhe(), El::kEl2,
                              Hcr::Make({HcrBits::kE2h}));
  AccessResolution r = ResolveSysRegAccess(ctx, SysReg::kTPIDR_EL1, true);
  EXPECT_EQ(r.kind, AccessResolution::Kind::kRegister);
  EXPECT_EQ(r.target, RegId::kTPIDR_EL1);
}

TEST(ResolveAtEl2Test, El12AliasesRequireE2h) {
  AccessContext vhe = MakeCtx(ArchFeatures::Armv81Vhe(), El::kEl2,
                              Hcr::Make({HcrBits::kE2h}));
  AccessResolution r = ResolveSysRegAccess(vhe, SysReg::kSCTLR_EL12, true);
  EXPECT_EQ(r.kind, AccessResolution::Kind::kRegister);
  EXPECT_EQ(r.target, RegId::kSCTLR_EL1);

  AccessContext no_e2h = MakeCtx(ArchFeatures::Armv81Vhe(), El::kEl2, 0);
  EXPECT_EQ(ResolveSysRegAccess(no_e2h, SysReg::kSCTLR_EL12, true).kind,
            AccessResolution::Kind::kUndefined);

  AccessContext v80 = MakeCtx(ArchFeatures::Armv80(), El::kEl2,
                              Hcr::Make({HcrBits::kE2h}));
  EXPECT_EQ(ResolveSysRegAccess(v80, SysReg::kSCTLR_EL12, true).kind,
            AccessResolution::Kind::kUndefined);
}

// --- The ARMv8.0 crash scenario (section 2) ------------------------------------

TEST(ResolveV80Test, El2AccessFromEl1IsUndefined) {
  // "attempts to change the register would cause an unexpected exception to
  // the guest hypervisor executing in EL1, likely leading to a software
  // crash" -- the motivation for ARMv8.3-NV.
  AccessContext ctx = MakeCtx(ArchFeatures::Armv80(), El::kEl1,
                              HcrForPlainGuest());
  for (SysReg enc : {SysReg::kVBAR_EL2, SysReg::kHCR_EL2, SysReg::kVTTBR_EL2,
                     SysReg::kTTBR0_EL2, SysReg::kICH_HCR_EL2}) {
    EXPECT_EQ(ResolveSysRegAccess(ctx, enc, true).kind,
              AccessResolution::Kind::kUndefined)
        << SysRegName(enc);
  }
}

TEST(ResolveV80Test, EretAtEl1ExecutesLocally) {
  AccessContext ctx = MakeCtx(ArchFeatures::Armv80(), El::kEl1,
                              HcrForPlainGuest());
  EXPECT_EQ(ResolveEret(ctx), EretResolution::kLocal);
}

TEST(ResolveEretTest, EretAtEl0IsUndefined) {
  // ERET is UNDEFINED at EL0 on every ARMv8 implementation (C5.2.4): there
  // is no lower level to return to. In particular HCR_EL2.NV must NOT turn
  // it into a vEL2 trap -- NV's ERET trapping applies to EL1 only.
  // Regression: the resolver used to report kTrapEl2 for an NV guest's EL0.
  for (ArchFeatures f : {ArchFeatures::Armv80(), ArchFeatures::Armv83Nv(),
                         ArchFeatures::Armv84Neve()}) {
    EXPECT_EQ(ResolveEret(MakeCtx(f, El::kEl0, HcrForPlainGuest())),
              EretResolution::kUndefined);
    EXPECT_EQ(ResolveEret(MakeCtx(f, El::kEl0, HcrForVel2(false))),
              EretResolution::kUndefined);
    EXPECT_EQ(ResolveEret(MakeCtx(f, El::kEl0, HcrForVel2(true))),
              EretResolution::kUndefined);
  }
}

TEST(ResolveV80Test, CurrentElReadsTruthfully) {
  AccessContext ctx = MakeCtx(ArchFeatures::Armv80(), El::kEl1,
                              HcrForPlainGuest());
  EXPECT_EQ(ResolveCurrentEl(ctx), El::kEl1);
}

// --- ARMv8.3-NV behaviour at virtual EL2 ----------------------------------------

class ResolveNvTest : public testing::TestWithParam<bool> {
 protected:
  bool guest_vhe() const { return GetParam(); }
  AccessContext Vel2Ctx() const {
    return MakeCtx(ArchFeatures::Armv83Nv(), El::kEl1,
                   HcrForVel2(guest_vhe()));
  }
};

TEST_P(ResolveNvTest, El2EncodingsTrapToEl2) {
  for (SysReg enc : {SysReg::kVBAR_EL2, SysReg::kHCR_EL2, SysReg::kVTTBR_EL2,
                     SysReg::kICH_LR0_EL2, SysReg::kCNTHCTL_EL2,
                     SysReg::kCPTR_EL2, SysReg::kTPIDR_EL2}) {
    EXPECT_EQ(ResolveSysRegAccess(Vel2Ctx(), enc, true).kind,
              AccessResolution::Kind::kTrapEl2)
        << SysRegName(enc);
  }
}

TEST_P(ResolveNvTest, EretTrapsToEl2) {
  EXPECT_EQ(ResolveEret(Vel2Ctx()), EretResolution::kTrapEl2);
}

TEST_P(ResolveNvTest, CurrentElDisguisesAsEl2) {
  // The second NV mechanism: "disguises the deprivileged execution by
  // telling the guest hypervisor that it runs in EL2".
  EXPECT_EQ(ResolveCurrentEl(Vel2Ctx()), El::kEl2);
}

TEST_P(ResolveNvTest, El12AliasesTrapUnderNv) {
  EXPECT_EQ(ResolveSysRegAccess(Vel2Ctx(), SysReg::kSPSR_EL12, true).kind,
            AccessResolution::Kind::kTrapEl2);
  EXPECT_EQ(ResolveSysRegAccess(Vel2Ctx(), SysReg::kCNTV_CTL_EL02, true).kind,
            AccessResolution::Kind::kTrapEl2);
}

INSTANTIATE_TEST_SUITE_P(VheAndNot, ResolveNvTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "VheGuest" : "NonVheGuest";
                         });

TEST(ResolveNvTest, NonVheGuestEl1VmRegisterAccessesTrap) {
  // Section 4: a deprivileged non-VHE hypervisor writing the VM's EL1
  // context would clobber its own execution state -> must trap (NV1).
  AccessContext ctx = MakeCtx(ArchFeatures::Armv83Nv(), El::kEl1,
                              HcrForVel2(/*guest_vhe=*/false));
  for (SysReg enc : {SysReg::kSCTLR_EL1, SysReg::kSPSR_EL1, SysReg::kTCR_EL1,
                     SysReg::kVBAR_EL1}) {
    EXPECT_EQ(ResolveSysRegAccess(ctx, enc, true).kind,
              AccessResolution::Kind::kTrapEl2)
        << SysRegName(enc);
  }
}

TEST(ResolveNvTest, VheGuestEl1AccessesGoStraightToHardware) {
  // Section 5: "it simply accesses EL1 registers directly without trapping
  // to the host hypervisor" -- why VHE guests trap less (82 vs 126).
  AccessContext ctx = MakeCtx(ArchFeatures::Armv83Nv(), El::kEl1,
                              HcrForVel2(/*guest_vhe=*/true));
  for (SysReg enc : {SysReg::kSCTLR_EL1, SysReg::kSPSR_EL1, SysReg::kESR_EL1,
                     SysReg::kELR_EL1}) {
    AccessResolution r = ResolveSysRegAccess(ctx, enc, true);
    EXPECT_EQ(r.kind, AccessResolution::Kind::kRegister) << SysRegName(enc);
    EXPECT_EQ(r.target, SysRegStorage(enc));
  }
}

TEST(ResolveNvTest, PlainGuestIsUnaffectedByNvHardware) {
  // An ordinary guest OS (NV clear for its context) sees normal EL1.
  AccessContext ctx = MakeCtx(ArchFeatures::Armv83Nv(), El::kEl1,
                              HcrForPlainGuest());
  EXPECT_EQ(ResolveSysRegAccess(ctx, SysReg::kSCTLR_EL1, true).kind,
            AccessResolution::Kind::kRegister);
  EXPECT_EQ(ResolveEret(ctx), EretResolution::kLocal);
  EXPECT_EQ(ResolveCurrentEl(ctx), El::kEl1);
}

// --- NEVE behaviour at virtual EL2 (section 6.1, Tables 3-5) --------------------

class ResolveNeveTest : public testing::Test {
 protected:
  AccessContext Vel2(bool guest_vhe) const {
    return MakeCtx(ArchFeatures::Armv84Neve(), El::kEl1, HcrForVel2(guest_vhe),
                   /*vncr=*/true);
  }
};

TEST_F(ResolveNeveTest, VmSystemRegistersGoToDeferredPage) {
  AccessContext ctx = Vel2(false);
  for (SysReg enc : {SysReg::kHCR_EL2, SysReg::kVTTBR_EL2, SysReg::kHSTR_EL2,
                     SysReg::kVMPIDR_EL2, SysReg::kTPIDR_EL2}) {
    AccessResolution r = ResolveSysRegAccess(ctx, enc, true);
    EXPECT_EQ(r.kind, AccessResolution::Kind::kMemory) << SysRegName(enc);
    EXPECT_EQ(r.mem_offset, DeferredPageOffset(SysRegStorage(enc)));
  }
}

TEST_F(ResolveNeveTest, NonVheGuestEl1VmRegistersAlsoGoToDeferredPage) {
  AccessContext ctx = Vel2(false);
  for (SysReg enc : {SysReg::kSCTLR_EL1, SysReg::kSPSR_EL1,
                     SysReg::kTTBR0_EL1}) {
    AccessResolution r = ResolveSysRegAccess(ctx, enc, false);
    EXPECT_EQ(r.kind, AccessResolution::Kind::kMemory) << SysRegName(enc);
  }
}

TEST_F(ResolveNeveTest, VheGuestEl12AccessesGoToDeferredPage) {
  // Section 6.4: "VHE introduces separate EL12 system register access
  // instructions ... which are replaced with load and store instructions to
  // mimic NEVE."
  AccessContext ctx = Vel2(true);
  AccessResolution r = ResolveSysRegAccess(ctx, SysReg::kSPSR_EL12, true);
  EXPECT_EQ(r.kind, AccessResolution::Kind::kMemory);
  EXPECT_EQ(r.mem_offset, DeferredPageOffset(RegId::kSPSR_EL1));
}

TEST_F(ResolveNeveTest, RedirectClassReachesEl1Registers) {
  AccessContext ctx = Vel2(false);
  struct Case {
    SysReg enc;
    RegId target;
  };
  for (auto [enc, target] : {
           Case{SysReg::kVBAR_EL2, RegId::kVBAR_EL1},
           Case{SysReg::kESR_EL2, RegId::kESR_EL1},
           Case{SysReg::kELR_EL2, RegId::kELR_EL1},
           Case{SysReg::kSPSR_EL2, RegId::kSPSR_EL1},
           Case{SysReg::kSCTLR_EL2, RegId::kSCTLR_EL1},
           Case{SysReg::kCONTEXTIDR_EL2, RegId::kCONTEXTIDR_EL1},
       }) {
    AccessResolution r = ResolveSysRegAccess(ctx, enc, true);
    EXPECT_EQ(r.kind, AccessResolution::Kind::kRegister) << SysRegName(enc);
    EXPECT_EQ(r.target, target);
  }
}

TEST_F(ResolveNeveTest, TrapOnWriteClassReadsFromCacheWritesTrap) {
  AccessContext ctx = Vel2(false);
  for (SysReg enc : {SysReg::kCNTHCTL_EL2, SysReg::kCNTVOFF_EL2,
                     SysReg::kCPTR_EL2, SysReg::kMDCR_EL2}) {
    EXPECT_EQ(ResolveSysRegAccess(ctx, enc, false).kind,
              AccessResolution::Kind::kMemory)
        << SysRegName(enc);
    EXPECT_EQ(ResolveSysRegAccess(ctx, enc, true).kind,
              AccessResolution::Kind::kTrapEl2)
        << SysRegName(enc);
  }
}

TEST_F(ResolveNeveTest, GicRegistersReadCachedWriteTrap) {
  AccessContext ctx = Vel2(false);
  for (SysReg enc : {SysReg::kICH_HCR_EL2, SysReg::kICH_VMCR_EL2,
                     SysReg::kICH_LR0_EL2, SysReg::kICH_AP1R0_EL2}) {
    EXPECT_EQ(ResolveSysRegAccess(ctx, enc, false).kind,
              AccessResolution::Kind::kMemory)
        << SysRegName(enc);
    EXPECT_EQ(ResolveSysRegAccess(ctx, enc, true).kind,
              AccessResolution::Kind::kTrapEl2)
        << SysRegName(enc);
  }
}

TEST_F(ResolveNeveTest, RedirectOrTrapDependsOnGuestVhe) {
  // Table 4's TCR_EL2/TTBR0_EL2: VHE format matches EL1's -> redirect;
  // the non-VHE EL2 format is incompatible -> cached reads, trapped writes.
  AccessContext vhe = Vel2(true);
  AccessResolution r = ResolveSysRegAccess(vhe, SysReg::kTCR_EL2, true);
  EXPECT_EQ(r.kind, AccessResolution::Kind::kRegister);
  EXPECT_EQ(r.target, RegId::kTCR_EL1);

  AccessContext nvhe = Vel2(false);
  EXPECT_EQ(ResolveSysRegAccess(nvhe, SysReg::kTCR_EL2, false).kind,
            AccessResolution::Kind::kMemory);
  EXPECT_EQ(ResolveSysRegAccess(nvhe, SysReg::kTCR_EL2, true).kind,
            AccessResolution::Kind::kTrapEl2);
}

TEST_F(ResolveNeveTest, HypTimersAlwaysTrap) {
  AccessContext ctx = Vel2(true);
  for (SysReg enc : {SysReg::kCNTHV_CTL_EL2, SysReg::kCNTHP_CVAL_EL2}) {
    EXPECT_EQ(ResolveSysRegAccess(ctx, enc, false).kind,
              AccessResolution::Kind::kTrapEl2)
        << SysRegName(enc);
  }
}

TEST_F(ResolveNeveTest, El02TimerAccessesAlwaysTrap) {
  // Section 7.1: the VHE guest hypervisor's extra traps.
  AccessContext ctx = Vel2(true);
  for (SysReg enc : {SysReg::kCNTV_CTL_EL02, SysReg::kCNTV_CVAL_EL02,
                     SysReg::kCNTP_CTL_EL02}) {
    EXPECT_EQ(ResolveSysRegAccess(ctx, enc, true).kind,
              AccessResolution::Kind::kTrapEl2)
        << SysRegName(enc);
  }
}

TEST_F(ResolveNeveTest, EretStillTraps) {
  EXPECT_EQ(ResolveEret(Vel2(false)), EretResolution::kTrapEl2);
  EXPECT_EQ(ResolveEret(Vel2(true)), EretResolution::kTrapEl2);
}

TEST_F(ResolveNeveTest, DisabledVncrFallsBackToPlainNv) {
  // NEVE hardware with VNCR_EL2.Enable clear behaves like ARMv8.3.
  AccessContext ctx = MakeCtx(ArchFeatures::Armv84Neve(), El::kEl1,
                              HcrForVel2(false), /*vncr=*/false);
  EXPECT_EQ(ResolveSysRegAccess(ctx, SysReg::kHCR_EL2, true).kind,
            AccessResolution::Kind::kTrapEl2);
  EXPECT_EQ(ResolveSysRegAccess(ctx, SysReg::kVBAR_EL2, true).kind,
            AccessResolution::Kind::kTrapEl2);
}

// --- Paper claims over every register of a class ----------------------------
// Invariants over every encoding in every context are archlint's sweep
// (src/analysis/archlint.cc), which runs in ctest.

TEST(ResolutionSweepTest, NeveNeverTrapsForTable3Registers) {
  // The headline claim: NEVE eliminates all traps for VM system registers.
  AccessContext ctx = MakeCtx(ArchFeatures::Armv84Neve(), El::kEl1,
                              HcrForVel2(false), /*vncr=*/true);
  for (int r = 0; r < kNumRegIds; ++r) {
    auto reg = static_cast<RegId>(r);
    if (RegNeveClass(reg) != NeveClass::kDeferred) {
      continue;
    }
    SysReg enc = DirectEncodingOf(reg);
    for (bool w : {false, true}) {
      AccessResolution res = ResolveSysRegAccess(ctx, enc, w);
      EXPECT_NE(res.kind, AccessResolution::Kind::kTrapEl2) << RegName(reg);
      EXPECT_NE(res.kind, AccessResolution::Kind::kUndefined) << RegName(reg);
    }
  }
}

TEST(ResolutionSweepTest, El0SoftwareCannotTouchPrivilegedState) {
  AccessContext ctx = MakeCtx(ArchFeatures::Armv84Neve(), El::kEl0,
                              HcrForPlainGuest());
  EXPECT_EQ(ResolveSysRegAccess(ctx, SysReg::kSCTLR_EL1, true).kind,
            AccessResolution::Kind::kUndefined);
  EXPECT_EQ(ResolveSysRegAccess(ctx, SysReg::kVBAR_EL2, true).kind,
            AccessResolution::Kind::kUndefined);
  // EL0 state stays reachable.
  EXPECT_EQ(ResolveSysRegAccess(ctx, SysReg::kTPIDR_EL0, true).kind,
            AccessResolution::Kind::kRegister);
}

// --- Differential: what exactly does NEVE remove from the trap set? ----------

// The paper's Tables 3-5 predict precisely which trapping accesses NEVE
// converts into register or in-memory accesses for a guest hypervisor.
bool NeveRemovesTrap(SysReg enc, bool is_write, bool guest_vhe) {
  if (SysRegEncKind(enc) == EncKind::kEl02) {
    return false;  // EL0 timer aliases keep trapping (live hardware state)
  }
  switch (RegNeveClass(SysRegStorage(enc))) {
    case NeveClass::kDeferred:
      return true;  // Table 3: deferred access page, both directions
    case NeveClass::kRedirect:
    case NeveClass::kRedirectVhe:
      return true;  // Table 4: redirected to *_EL1, both directions
    case NeveClass::kTrapOnWrite:
      return !is_write;  // Table 4: cached reads, writes still trap
    case NeveClass::kRedirectOrTrap:
      // Table 4: redirect for VHE guests; cached reads for non-VHE guests.
      return guest_vhe || !is_write;
    case NeveClass::kGicCached:
      return !is_write;  // Table 5: cached ICH_* reads
    case NeveClass::kTimerTrap:
    case NeveClass::kNone:
      return false;
  }
  return false;
}

TEST(NeveDifferentialTest, TrapSetsDifferExactlyByPaperTables) {
  for (bool guest_vhe : {false, true}) {
    AccessContext nv =
        MakeCtx(ArchFeatures::Armv83Nv(), El::kEl1, HcrForVel2(guest_vhe));
    AccessContext neve = MakeCtx(ArchFeatures::Armv84Neve(), El::kEl1,
                                 HcrForVel2(guest_vhe), /*vncr=*/true);
    for (int e = 0; e < kNumSysRegs; ++e) {
      auto enc = static_cast<SysReg>(e);
      for (bool w : {false, true}) {
        bool nv_traps = ResolveSysRegAccess(nv, enc, w).kind ==
                        AccessResolution::Kind::kTrapEl2;
        bool neve_traps = ResolveSysRegAccess(neve, enc, w).kind ==
                          AccessResolution::Kind::kTrapEl2;
        if (!nv_traps) {
          // NEVE only ever shrinks the trap set.
          EXPECT_FALSE(neve_traps)
              << SysRegName(enc) << (w ? " write" : " read")
              << " vhe=" << guest_vhe;
          continue;
        }
        EXPECT_EQ(!neve_traps, NeveRemovesTrap(enc, w, guest_vhe))
            << SysRegName(enc) << (w ? " write" : " read")
            << " vhe=" << guest_vhe;
      }
    }
  }
}

}  // namespace
}  // namespace neve
