// Unit tests for src/arch: the register model (paper Tables 2-5), syndrome
// encodings, features, and the VNCR_EL2 layout.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/arch/esr.h"
#include "src/arch/features.h"
#include "src/arch/hcr.h"
#include "src/arch/sysreg.h"
#include "src/arch/vncr.h"

namespace neve {
namespace {

// --- Table 5: the ICH_LR<n> list registers -----------------------------------
// Each row's class is checked against the paper's tables by archlint's
// golden pass, and each row's shape by the asserts in src/arch/sysreg.cc.

TEST(RegClassTest, ListRegisterHelpers) {
  for (int i = 0; i < 16; ++i) {
    RegId lr = IchListRegister(i);
    int idx = -1;
    EXPECT_TRUE(IsIchListRegister(lr, &idx));
    EXPECT_EQ(idx, i);
    EXPECT_EQ(SysRegStorage(IchListRegisterEncoding(i)), lr);
  }
  EXPECT_FALSE(IsIchListRegister(RegId::kICH_HCR_EL2));
  EXPECT_DEATH(IchListRegister(16), "check failed");
}

// --- Name lookups ------------------------------------------------------------

TEST(SysRegTableTest, RegisterNamesRoundTrip) {
  for (int r = 0; r < kNumRegIds; ++r) {
    auto reg = static_cast<RegId>(r);
    EXPECT_EQ(RegIdFromName(RegName(reg)), reg) << RegName(reg);
  }
  EXPECT_FALSE(RegIdFromName("NOT_A_REGISTER").has_value());
  EXPECT_FALSE(RegIdFromName("").has_value());
}

TEST(SysRegTableTest, EncodingNamesRoundTrip) {
  for (int e = 0; e < kNumSysRegs; ++e) {
    auto enc = static_cast<SysReg>(e);
    EXPECT_EQ(SysRegFromName(SysRegName(enc)), enc) << SysRegName(enc);
  }
  EXPECT_FALSE(SysRegFromName("SCTLR_EL3").has_value());
}

TEST(SysRegTableTest, El12AliasesExistForTheWholeVmContextList) {
  // The VHE guest hypervisor saves the Table 3 EL1 context through EL12
  // encodings; each must resolve to the same storage as the EL1 encoding.
  struct Pair {
    SysReg el1;
    SysReg el12;
  };
  for (auto [el1, el12] : {
           Pair{SysReg::kSCTLR_EL1, SysReg::kSCTLR_EL12},
           Pair{SysReg::kTTBR0_EL1, SysReg::kTTBR0_EL12},
           Pair{SysReg::kTCR_EL1, SysReg::kTCR_EL12},
           Pair{SysReg::kESR_EL1, SysReg::kESR_EL12},
           Pair{SysReg::kELR_EL1, SysReg::kELR_EL12},
           Pair{SysReg::kSPSR_EL1, SysReg::kSPSR_EL12},
           Pair{SysReg::kCNTKCTL_EL1, SysReg::kCNTKCTL_EL12},
       }) {
    EXPECT_EQ(SysRegStorage(el1), SysRegStorage(el12));
    EXPECT_EQ(SysRegEncKind(el12), EncKind::kEl12);
  }
}

// --- Deferred access page layout (Table 2 / section 6.1) -----------------------

TEST(DeferredPageTest, OffsetsAreUniqueAlignedAndInPage) {
  std::set<uint64_t> offsets;
  for (int r = 0; r < kNumRegIds; ++r) {
    uint64_t off = DeferredPageOffset(static_cast<RegId>(r));
    EXPECT_EQ(off % 8, 0u);
    EXPECT_LT(off + 8, kDeferredPageSize + 1);
    EXPECT_TRUE(offsets.insert(off).second);
  }
}

TEST(VncrTest, FieldLayout) {
  VncrEl2 v = VncrEl2::Make(0x1234'5000, true);
  EXPECT_TRUE(v.enabled());
  EXPECT_EQ(v.baddr(), 0x1234'5000u);
  v.set_enabled(false);
  EXPECT_FALSE(v.enabled());
  EXPECT_EQ(v.baddr(), 0x1234'5000u);  // BADDR untouched
}

TEST(VncrTest, EnableIsBitZero) {
  EXPECT_EQ(VncrEl2::Make(0, true).bits(), 1u);
}

TEST(VncrTest, UnalignedBaddrAborts) {
  VncrEl2 v;
  EXPECT_DEATH(v.set_baddr(0x1234), "page-aligned");
}

TEST(VncrTest, BaddrBeyondBit52Aborts) {
  VncrEl2 v;
  EXPECT_DEATH(v.set_baddr(uint64_t{1} << 53), "out of range");
}

TEST(VncrTest, RawBitsDropReservedFields) {
  // Regression: the raw-bits constructor used to accept values the setters
  // reject (junk in RES0 bits [11:1] / [63:53], which makes baddr() come out
  // unaligned via bits [11:1]). Raw values must land masked to the defined
  // fields, like a hardware write to RES0 bits.
  uint64_t raw = (uint64_t{0x5A5} << 53) | 0x1234'5000u | 0xFFEu | 1u;
  VncrEl2 v(raw);
  EXPECT_TRUE(v.enabled());
  EXPECT_EQ(v.baddr(), 0x1234'5000u);
  EXPECT_TRUE(IsAligned(v.baddr(), 4096));
  EXPECT_EQ(v.bits(), 0x1234'5001u);
}

TEST(VncrTest, RawBitsRoundTripSetterOutput) {
  VncrEl2 made = VncrEl2::Make(0x7'F000, true);
  EXPECT_EQ(VncrEl2(made.bits()).bits(), made.bits());
}

// --- Syndromes -----------------------------------------------------------------

TEST(EsrTest, HvcSyndromeCarriesImmediate) {
  Syndrome s = Syndrome::Hvc(0x4B00);
  EXPECT_EQ(s.ec, Ec::kHvc64);
  EXPECT_EQ(s.imm16, 0x4B00);
  uint64_t esr = s.ToEsrBits();
  EXPECT_EQ(ExtractBits(esr, 31, 26), static_cast<uint64_t>(Ec::kHvc64));
  EXPECT_EQ(ExtractBits(esr, 15, 0), 0x4B00u);
}

TEST(EsrTest, SysRegSyndromeCarriesEncodingAndDirection) {
  Syndrome s = Syndrome::SysRegTrap(SysReg::kVBAR_EL2, /*is_write=*/true,
                                    0xABCD);
  EXPECT_EQ(s.ec, Ec::kSysReg);
  EXPECT_EQ(s.sysreg, SysReg::kVBAR_EL2);
  EXPECT_TRUE(s.is_write);
  EXPECT_EQ(s.write_value, 0xABCDu);
  uint64_t esr = s.ToEsrBits();
  EXPECT_EQ(ExtractBits(esr, 21, 5),
            static_cast<uint64_t>(SysReg::kVBAR_EL2));
  EXPECT_EQ(ExtractBits(esr, 0, 0), 0u);  // direction: write
}

TEST(EsrTest, DataAbortSyndrome) {
  Syndrome s = Syndrome::DataAbort(0x4000'0008, 0x4000'0000, false, 8);
  EXPECT_EQ(s.ec, Ec::kDataAbortLow);
  EXPECT_EQ(s.far, 0x4000'0008u);
  EXPECT_EQ(s.hpfar, 0x4000'0000u);
  EXPECT_FALSE(s.abort_is_write);
}

TEST(EsrTest, ToStringIsInformative) {
  EXPECT_NE(Syndrome::Hvc(7).ToString().find("HVC"), std::string::npos);
  EXPECT_NE(Syndrome::SysRegTrap(SysReg::kHCR_EL2, true, 0)
                .ToString()
                .find("HCR_EL2"),
            std::string::npos);
  EXPECT_NE(Syndrome::EretTrap().ToString().find("ERET"), std::string::npos);
}

// --- Features / HCR --------------------------------------------------------------

TEST(FeaturesTest, Presets) {
  EXPECT_FALSE(ArchFeatures::Armv80().vhe);
  EXPECT_TRUE(ArchFeatures::Armv81Vhe().vhe);
  EXPECT_FALSE(ArchFeatures::Armv81Vhe().nv);
  EXPECT_TRUE(ArchFeatures::Armv83Nv().nv);
  EXPECT_FALSE(ArchFeatures::Armv83Nv().neve);
  EXPECT_TRUE(ArchFeatures::Armv84Neve().neve);
  EXPECT_TRUE(ArchFeatures::Armv84Neve().nv);
}

TEST(FeaturesTest, NeveRequiresNv) {
  ArchFeatures f{.vhe = true, .nv = false, .neve = true};
  EXPECT_FALSE(f.Valid());
  EXPECT_TRUE(ArchFeatures::Armv84Neve().Valid());
}

TEST(HcrTest, BitAccessors) {
  Hcr h{Hcr::Make({HcrBits::kVm, HcrBits::kNv, HcrBits::kNv1,
                   HcrBits::kImo, HcrBits::kE2h})};
  EXPECT_TRUE(h.vm());
  EXPECT_TRUE(h.nv());
  EXPECT_TRUE(h.nv1());
  EXPECT_TRUE(h.imo());
  EXPECT_TRUE(h.e2h());
  EXPECT_FALSE(h.tge());
  EXPECT_FALSE(Hcr{}.nv());
}

TEST(HcrTest, ArchitecturalBitPositions) {
  EXPECT_EQ(HcrBits::kVm, 0u);
  EXPECT_EQ(HcrBits::kImo, 4u);
  EXPECT_EQ(HcrBits::kTge, 27u);
  EXPECT_EQ(HcrBits::kE2h, 34u);
  EXPECT_EQ(HcrBits::kNv, 42u);
  EXPECT_EQ(HcrBits::kNv1, 43u);
}

TEST(ElTest, Names) {
  EXPECT_STREQ(ElName(El::kEl0), "EL0");
  EXPECT_STREQ(ElName(El::kEl1), "EL1");
  EXPECT_STREQ(ElName(El::kEl2), "EL2");
}

}  // namespace
}  // namespace neve
