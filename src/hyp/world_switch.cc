#include "src/hyp/world_switch.h"

#include <array>

#include "src/base/bits.h"
#include "src/base/status.h"

namespace neve {
namespace {

constexpr std::array<SysReg, kNumVmEl1Regs> kEl1Encodings = {
    SysReg::kSCTLR_EL1, SysReg::kTTBR0_EL1, SysReg::kTTBR1_EL1,
    SysReg::kTCR_EL1,   SysReg::kESR_EL1,   SysReg::kFAR_EL1,
    SysReg::kAFSR0_EL1, SysReg::kAFSR1_EL1, SysReg::kMAIR_EL1,
    SysReg::kAMAIR_EL1, SysReg::kCONTEXTIDR_EL1, SysReg::kVBAR_EL1,
    SysReg::kCPACR_EL1, SysReg::kELR_EL1,   SysReg::kSPSR_EL1,
    SysReg::kSP_EL1,
};

constexpr std::array<SysReg, kNumVmEl1Regs> kEl12Encodings = {
    SysReg::kSCTLR_EL12, SysReg::kTTBR0_EL12, SysReg::kTTBR1_EL12,
    SysReg::kTCR_EL12,   SysReg::kESR_EL12,   SysReg::kFAR_EL12,
    SysReg::kAFSR0_EL12, SysReg::kAFSR1_EL12, SysReg::kMAIR_EL12,
    SysReg::kAMAIR_EL12, SysReg::kCONTEXTIDR_EL12, SysReg::kVBAR_EL12,
    SysReg::kCPACR_EL12, SysReg::kELR_EL12,   SysReg::kSPSR_EL12,
    SysReg::kSP_EL1,  // no *_EL12 alias exists; encoding shared
};

constexpr std::array<RegId, kNumVmEl1Regs> kEl1RegIds = {
    RegId::kSCTLR_EL1, RegId::kTTBR0_EL1, RegId::kTTBR1_EL1,
    RegId::kTCR_EL1,   RegId::kESR_EL1,   RegId::kFAR_EL1,
    RegId::kAFSR0_EL1, RegId::kAFSR1_EL1, RegId::kMAIR_EL1,
    RegId::kAMAIR_EL1, RegId::kCONTEXTIDR_EL1, RegId::kVBAR_EL1,
    RegId::kCPACR_EL1, RegId::kELR_EL1,   RegId::kSPSR_EL1,
    RegId::kSP_EL1,
};

constexpr std::array<SysReg, 5> kExitInfoEncodings = {
    SysReg::kESR_EL2, SysReg::kELR_EL2, SysReg::kSPSR_EL2, SysReg::kFAR_EL2,
    SysReg::kHPFAR_EL2,
};
constexpr std::array<SysReg, 2> kReturnStateEncodings = {SysReg::kELR_EL2,
                                                         SysReg::kSPSR_EL2};

constexpr std::array<SysReg, kNumExtEl1Regs> kExtEl1Encodings = {
    SysReg::kTPIDR_EL0, SysReg::kTPIDRRO_EL0,  SysReg::kTPIDR_EL1,
    SysReg::kPAR_EL1,   SysReg::kCNTKCTL_EL1, SysReg::kCSSELR_EL1,
};
constexpr std::array<SysReg, kNumExtEl1Regs> kExtEl12Encodings = {
    SysReg::kTPIDR_EL0, SysReg::kTPIDRRO_EL0,  SysReg::kTPIDR_EL1,
    SysReg::kPAR_EL1,   SysReg::kCNTKCTL_EL12, SysReg::kCSSELR_EL1,
};

constexpr std::array<SysReg, 2> kPmuDebugSaveEncodings = {
    SysReg::kMDSCR_EL1, SysReg::kPMUSERENR_EL0};
constexpr std::array<SysReg, 2> kPmuDebugRestoreEncodings = {
    SysReg::kPMUSERENR_EL0, SysReg::kPMSELR_EL0};

constexpr std::array<SysReg, 1> kVgicVmcrEncoding = {SysReg::kICH_VMCR_EL2};
constexpr std::array<SysReg, 3> kVgicStatusEncodings = {
    SysReg::kICH_VTR_EL2, SysReg::kICH_ELRSR_EL2, SysReg::kICH_EISR_EL2};
constexpr std::array<SysReg, 16> kIchLrEncodings = {
    SysReg::kICH_LR0_EL2,  SysReg::kICH_LR1_EL2,  SysReg::kICH_LR2_EL2,
    SysReg::kICH_LR3_EL2,  SysReg::kICH_LR4_EL2,  SysReg::kICH_LR5_EL2,
    SysReg::kICH_LR6_EL2,  SysReg::kICH_LR7_EL2,  SysReg::kICH_LR8_EL2,
    SysReg::kICH_LR9_EL2,  SysReg::kICH_LR10_EL2, SysReg::kICH_LR11_EL2,
    SysReg::kICH_LR12_EL2, SysReg::kICH_LR13_EL2, SysReg::kICH_LR14_EL2,
    SysReg::kICH_LR15_EL2,
};

constexpr std::array<SysReg, 2> kTimerControlEncodings = {
    SysReg::kCNTHCTL_EL2, SysReg::kCNTVOFF_EL2};
constexpr std::array<SysReg, 2> kTimerArmEncodings = {SysReg::kCNTV_CVAL_EL0,
                                                      SysReg::kCNTV_CTL_EL0};
constexpr std::array<SysReg, 2> kTimerArmEl02Encodings = {
    SysReg::kCNTV_CVAL_EL02, SysReg::kCNTV_CTL_EL02};

constexpr std::array<SysReg, 4> kGuestIdentityEncodings = {
    SysReg::kVMPIDR_EL2, SysReg::kVPIDR_EL2, SysReg::kHSTR_EL2,
    SysReg::kVTTBR_EL2};
constexpr std::array<SysReg, 2> kGuestTrapEncodings = {SysReg::kCPTR_EL2,
                                                       SysReg::kMDCR_EL2};
constexpr std::array<SysReg, 3> kHostTrapEncodings = {
    SysReg::kVTTBR_EL2, SysReg::kCPTR_EL2, SysReg::kMDCR_EL2};
constexpr std::array<SysReg, 2> kPerCpuEncodings = {SysReg::kTPIDR_EL2,
                                                    SysReg::kTPIDR_EL2};

// The transfer lists, one per direction (a list's plans are per direction;
// see SysRegList).
const SysRegList kEl1Save(kEl1Encodings);
const SysRegList kEl1Restore(kEl1Encodings);
const SysRegList kEl12Save(kEl12Encodings);
const SysRegList kEl12Restore(kEl12Encodings);
const SysRegList kExitInfo(kExitInfoEncodings);
const SysRegList kReturnState(kReturnStateEncodings);
const SysRegList kExtEl1Save(kExtEl1Encodings);
const SysRegList kExtEl1Restore(kExtEl1Encodings);
const SysRegList kExtEl12Save(kExtEl12Encodings);
const SysRegList kExtEl12Restore(kExtEl12Encodings);
const SysRegList kPmuDebugSave(kPmuDebugSaveEncodings);
const SysRegList kPmuDebugRestore(kPmuDebugRestoreEncodings);
const SysRegList kVgicVmcrSave(kVgicVmcrEncoding);
const SysRegList kVgicStatus(kVgicStatusEncodings);
const SysRegList kIchLrSave(kIchLrEncodings);
const SysRegList kIchLrRestore(kIchLrEncodings);
const SysRegList kTimerControl(kTimerControlEncodings);
const SysRegList kTimerArm(kTimerArmEncodings);
const SysRegList kTimerArmEl02(kTimerArmEl02Encodings);
const SysRegList kGuestIdentity(kGuestIdentityEncodings);
const SysRegList kGuestTraps(kGuestTrapEncodings);
const SysRegList kHostTraps(kHostTrapEncodings);
const SysRegList kPerCpu(kPerCpuEncodings);

// One cached memory reference for the in-memory context slot accompanying
// a register access that is not part of a list transfer.
void ChargeContextSlot(Cpu& cpu) { cpu.Compute(cpu.cost().mem_access); }

}  // namespace

std::span<const RegId> VmEl1RegIds() { return kEl1RegIds; }

int El1ContextIndexOf(RegId el1_reg) {
  for (int i = 0; i < kNumVmEl1Regs; ++i) {
    if (kEl1RegIds[i] == el1_reg) {
      return i;
    }
  }
  return -1;
}

std::span<const SysReg> VmEl1Encodings(bool vhe) {
  return vhe ? std::span<const SysReg>(kEl12Encodings)
             : std::span<const SysReg>(kEl1Encodings);
}

void SaveEl1Context(Cpu& cpu, bool vhe, El1Context* out) {
  ScopedSpan span(cpu.obs(), cpu, "world_switch", "save_el1");
  cpu.ReadList(vhe ? kEl12Save : kEl1Save, out->regs, ContextSlots::kPerEntry);
}

void RestoreEl1Context(Cpu& cpu, bool vhe, const El1Context& in) {
  ScopedSpan span(cpu.obs(), cpu, "world_switch", "restore_el1");
  cpu.WriteList(vhe ? kEl12Restore : kEl1Restore, in.regs,
                ContextSlots::kPerEntry);
}

ExitInfo ReadExitInfo(Cpu& cpu) {
  ScopedSpan span(cpu.obs(), cpu, "world_switch", "read_exit_info");
  // The syndrome registers are the hypervisor's *own* EL2 state; VHE and
  // non-VHE builds both use the EL2 encodings (E2H redirection only affects
  // EL1 encodings). At virtual EL2 these accesses trap under plain
  // ARMv8.3-NV and become EL1-register reads under NEVE (Table 4 redirect).
  uint64_t v[kExitInfoEncodings.size()] = {};
  cpu.ReadList(kExitInfo, v);
  return ExitInfo{
      .esr = v[0], .elr = v[1], .spsr = v[2], .far = v[3], .hpfar = v[4]};
}

void WriteReturnState(Cpu& cpu, uint64_t elr, uint64_t spsr) {
  uint64_t v[] = {elr, spsr};
  cpu.WriteList(kReturnState, v);
}

void SaveExtEl1Context(Cpu& cpu, bool vhe, ExtEl1Context* out) {
  ScopedSpan span(cpu.obs(), cpu, "world_switch", "save_ext_el1");
  cpu.ReadList(vhe ? kExtEl12Save : kExtEl1Save, out->regs,
               ContextSlots::kBlock);
}

void RestoreExtEl1Context(Cpu& cpu, bool vhe, const ExtEl1Context& in) {
  ScopedSpan span(cpu.obs(), cpu, "world_switch", "restore_ext_el1");
  cpu.WriteList(vhe ? kExtEl12Restore : kExtEl1Restore, in.regs,
                ContextSlots::kBlock);
}

void SavePmuDebugState(Cpu& cpu, PmuDebugContext* out) {
  ScopedSpan span(cpu.obs(), cpu, "world_switch", "save_pmu_debug");
  uint64_t v[kPmuDebugSaveEncodings.size()] = {};
  cpu.ReadList(kPmuDebugSave, v);
  out->mdscr = v[0];
  out->pmuserenr = v[1];
  cpu.SysRegWrite(SysReg::kPMUSERENR_EL0, 0);  // lock out EL0 counters
  ChargeContextSlot(cpu);
  ChargeContextSlot(cpu);
}

void RestorePmuDebugState(Cpu& cpu, const PmuDebugContext& in) {
  ScopedSpan span(cpu.obs(), cpu, "world_switch", "restore_pmu_debug");
  ChargeContextSlot(cpu);
  uint64_t v[] = {in.pmuserenr, 0};
  cpu.WriteList(kPmuDebugRestore, v);
}

void SaveVgic(Cpu& cpu, VgicContext* ctx) {
  ScopedSpan span(cpu.obs(), cpu, "world_switch", "save_vgic");
  cpu.ReadList(kVgicVmcrSave, &ctx->vmcr, ContextSlots::kPerEntry);
  // Live list registers are discovered through the status registers.
  uint64_t status[kVgicStatusEncodings.size()] = {};
  cpu.ReadList(kVgicStatus, status);
  if (ctx->lrs_in_use > 0) {
    cpu.ReadList(kIchLrSave.First(static_cast<size_t>(ctx->lrs_in_use)),
                 ctx->lr, ContextSlots::kPerEntry);
    (void)cpu.SysRegRead(SysReg::kICH_AP1R0_EL2);
  }
  cpu.SysRegWrite(SysReg::kICH_HCR_EL2, 0);  // disable maintenance interface
}

void RestoreVgic(Cpu& cpu, const VgicContext& ctx) {
  ScopedSpan span(cpu.obs(), cpu, "world_switch", "restore_vgic");
  cpu.SysRegWrite(SysReg::kICH_VMCR_EL2, ctx.vmcr);
  if (ctx.lrs_in_use > 0) {
    cpu.WriteList(kIchLrRestore.First(static_cast<size_t>(ctx.lrs_in_use)),
                  ctx.lr, ContextSlots::kPerEntry);
    cpu.SysRegWrite(SysReg::kICH_AP1R0_EL2, 0);
  }
  cpu.SysRegWrite(SysReg::kICH_HCR_EL2, 1);  // En
}

void SaveGuestTimer(Cpu& cpu, bool vhe, TimerContext* out) {
  ScopedSpan span(cpu.obs(), cpu, "world_switch", "save_guest_timer");
  if (vhe) {
    // VHE hypervisors reach the guest's EL1 virtual timer through the
    // *_EL02 encodings -- which always trap at virtual EL2, even with NEVE
    // (section 7.1's extra traps for VHE guest hypervisors).
    out->cntv_ctl = cpu.SysRegRead(SysReg::kCNTV_CTL_EL02);
    cpu.SysRegWrite(SysReg::kCNTV_CTL_EL02, 0);  // mask while in hypervisor
    if (TestBit(out->cntv_ctl, 0)) {
      out->cntv_cval = cpu.SysRegRead(SysReg::kCNTV_CVAL_EL02);
    }
  } else {
    out->cntv_ctl = cpu.SysRegRead(SysReg::kCNTV_CTL_EL0);
    cpu.SysRegWrite(SysReg::kCNTV_CTL_EL0, 0);
    if (TestBit(out->cntv_ctl, 0)) {
      out->cntv_cval = cpu.SysRegRead(SysReg::kCNTV_CVAL_EL0);
    }
  }
  // Open host access to the physical counter while in the hypervisor/host.
  cpu.SysRegWrite(SysReg::kCNTHCTL_EL2, 0b11);
}

void RestoreGuestTimer(Cpu& cpu, bool vhe, const TimerContext& in,
                       uint64_t cntvoff) {
  ScopedSpan span(cpu.obs(), cpu, "world_switch", "restore_guest_timer");
  uint64_t control[] = {0b01, cntvoff};  // restrict counter access
  cpu.WriteList(kTimerControl, control);
  // The compare value only needs reprogramming when the timer is armed.
  if (TestBit(in.cntv_ctl, 0)) {
    uint64_t v[] = {in.cntv_cval, in.cntv_ctl};
    cpu.WriteList(vhe ? kTimerArmEl02 : kTimerArm, v);
  } else {
    cpu.SysRegWrite(vhe ? SysReg::kCNTV_CTL_EL02 : SysReg::kCNTV_CTL_EL0,
                    in.cntv_ctl);
  }
}

void WriteGuestTrapControls(Cpu& cpu, uint64_t hcr, uint64_t vttbr,
                            uint64_t vmpidr) {
  ScopedSpan span(cpu.obs(), cpu, "world_switch", "write_guest_trap_controls");
  uint64_t identity[] = {vmpidr, cpu.PeekReg(RegId::kMIDR_EL1), 0, vttbr};
  cpu.WriteList(kGuestIdentity, identity);
  // HCR is read-modify-written: per-vcpu bits over the global base.
  uint64_t cur = cpu.SysRegRead(SysReg::kHCR_EL2);
  cpu.SysRegWrite(SysReg::kHCR_EL2, (cur & 0) | hcr);
  // Activate FP/debug traps for the guest.
  uint64_t traps[] = {1, 1};
  cpu.WriteList(kGuestTraps, traps);
}

void WriteHostTrapControls(Cpu& cpu, uint64_t host_hcr) {
  ScopedSpan span(cpu.obs(), cpu, "world_switch", "write_host_trap_controls");
  uint64_t cur = cpu.SysRegRead(SysReg::kHCR_EL2);
  cpu.SysRegWrite(SysReg::kHCR_EL2, (cur & 0) | host_hcr);
  uint64_t traps[] = {0, 0, 0};
  cpu.WriteList(kHostTraps, traps);
}

void TouchPerCpuData(Cpu& cpu) {
  // Per-cpu data pointer loads at vector entry and in the run loop.
  uint64_t v[kPerCpuEncodings.size()] = {};
  cpu.ReadList(kPerCpu, v, ContextSlots::kPerEntry);
}

}  // namespace neve
