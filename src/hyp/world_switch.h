// World-switch register sequences, shared by the host and guest hypervisors.
//
// This file is the crux of the reproduction. The sequences mirror KVM/ARM's
// (Linux 4.10-era) save/restore lists, restricted to the registers the paper
// classifies in Tables 3-5. When executed by the *host* hypervisor at real
// EL2 every operation completes locally; when executed by a *guest*
// hypervisor at virtual EL2, each operation resolves per the active
// architecture:
//   ARMv8.3-NV : EL2-encoded and (NV1) EL1-encoded accesses trap -> the exit
//                multiplication of Tables 1/7 (126/82 traps per hypercall),
//   NEVE       : most accesses become deferred-page or EL1-register
//                accesses; only Table 4/5 "trap on write" registers, EL02
//                timer accesses, hvc and eret still trap (15 traps).
// Nothing here counts traps explicitly -- the counts emerge from the CPU's
// resolution pipeline executing these sequences.
//
// Each run of same-direction accesses (and each access with a context-slot
// charge) is one Cpu::ReadList/WriteList transfer over a static
// SysRegList; single accesses between runs stay SysRegRead/SysRegWrite.
// At real EL2 the CPU resolves such a
// list once per configuration and then copies registers directly; where an
// entry traps or is redirected (virtual EL2), the transfer is the same
// per-access sequence, so trap counts and cycles are unchanged.
//
// Encoding choice mirrors real hypervisor builds: a non-VHE hypervisor uses
// EL1 encodings for VM state and EL2 encodings for its own state; a VHE
// hypervisor uses *_EL12/*_EL02 for VM state and EL1 encodings (E2H-
// redirected) for its own state wherever the architecture allows.

#ifndef NEVE_SRC_HYP_WORLD_SWITCH_H_
#define NEVE_SRC_HYP_WORLD_SWITCH_H_

#include <cstdint>
#include <span>

#include "src/base/digest.h"
#include "src/cpu/cpu.h"

namespace neve {

// Software path lengths (cycles of straight-line hypervisor/kernel code
// between the architecturally interesting instructions). Calibrated so the
// single-level (VM) microbenchmark costs land near Table 1's baselines; all
// nested behaviour then emerges. See DESIGN.md section 6.
struct SwCost {
  static constexpr uint32_t kRunLoop = 330;       // run-loop bookkeeping/exit
  static constexpr uint32_t kVcpuLoadPut = 260;   // vcpu_load / vcpu_put
  static constexpr uint32_t kGprSwitch = 100;     // x0-x30 save or restore
  static constexpr uint32_t kExitDispatch = 240;  // ESR demux + dispatch
  static constexpr uint32_t kHypercall = 120;     // test hypercall body
  static constexpr uint32_t kSysregEmulate = 520; // plain trapped-sysreg emul.
  // Virtual-EL2 emulation paths in the host (trap-type dependent: the traps
  // NEVE leaves behind are the heavyweight ones -- eret context switching,
  // vGIC and timer state machines -- while the VM-register stores that
  // dominate under plain ARMv8.3 are trivial):
  static constexpr uint32_t kVgicEmulate = 2200;  // ICH_* write emulation
  static constexpr uint32_t kTimerEmulate = 1500; // trapped EL2-timer access
  // *_EL02 accesses: the guest's live EL1 virtual timer must be handled
  // together with the VHE-only EL2 virtual timer the host also multiplexes
  // (section 7.1) -- the costliest surviving NEVE trap, and the reason the
  // VHE rows of Table 6 exceed the non-VHE ones.
  static constexpr uint32_t kEl02TimerEmulate = 4500;
  static constexpr uint32_t kTrapCtlEmulate = 1800;  // CPTR/MDCR/CNT* writes
  static constexpr uint32_t kEretEmulate = 5600;  // vEL2 eret: mode switch
  static constexpr uint32_t kVel1Transition = 1400;  // ctx swap bookkeeping
  static constexpr uint32_t kVel2Deliver = 4600;  // build virtual exception
  static constexpr uint32_t kMmioDispatch = 260;  // abort decode + routing
  static constexpr uint32_t kDeviceIo = 820;      // device backend (userspace)
  static constexpr uint32_t kVgicSgi = 900;       // SGI emulate: target+queue
  static constexpr uint32_t kVirqInject = 900;    // pick LR, build payload
  static constexpr uint32_t kIrqTriageHost = 400; // phys IRQ triage
  static constexpr uint32_t kShadowFixup = 520;   // shadow-S2 fault software
  static constexpr uint32_t kGuestKernelWork = 800;  // guest kernel handling
};

// Number of VM execution-control registers in the save/restore list
// (Table 3's EL1 group).
inline constexpr int kNumVmEl1Regs = 16;

// The VM EL1 context encodings in KVM save order; `vhe` selects the *_EL12
// alias encodings (SP_EL1 has no alias and is shared).
std::span<const SysReg> VmEl1Encodings(bool vhe);

// The backing registers of that list, in the same order.
std::span<const RegId> VmEl1RegIds();

// Index of `el1_reg` within the context list, or -1 when absent.
int El1ContextIndexOf(RegId el1_reg);

// A saved register context (hypervisor software memory).
struct El1Context {
  uint64_t regs[kNumVmEl1Regs] = {};
  bool operator==(const El1Context&) const = default;
};

// Save/restore the VM (or host kernel) EL1 context. Each register costs the
// access itself plus one cached memory reference for the context structure.
void SaveEl1Context(Cpu& cpu, bool vhe, El1Context* out);
void RestoreEl1Context(Cpu& cpu, bool vhe, const El1Context& in);

// Extended VM execution context: thread/kernel EL1(+EL0) state KVM also
// context switches (TPIDR*, PAR_EL1, CNTKCTL_EL1, CSSELR_EL1). The EL0
// thread registers never trap; the EL1 ones are VM registers (deferred
// under NEVE, trapped under plain NV).
inline constexpr int kNumExtEl1Regs = 6;
struct ExtEl1Context {
  uint64_t regs[kNumExtEl1Regs] = {};
  bool operator==(const ExtEl1Context&) const = default;
};
void SaveExtEl1Context(Cpu& cpu, bool vhe, ExtEl1Context* out);
void RestoreExtEl1Context(Cpu& cpu, bool vhe, const ExtEl1Context& in);

// PMU / debug state switch (section 6.1's performance-monitoring and debug
// registers): reads of MDSCR_EL1 and PMUSERENR_EL0, write-back of the
// host/guest PMUSERENR and PMSELR values.
struct PmuDebugContext {
  uint64_t mdscr = 0;
  uint64_t pmuserenr = 0;
  bool operator==(const PmuDebugContext&) const = default;
};
void SavePmuDebugState(Cpu& cpu, PmuDebugContext* out);
void RestorePmuDebugState(Cpu& cpu, const PmuDebugContext& in);

// Exit information read at vector entry: the syndrome, return-state and
// fault-address registers. VHE and non-VHE hypervisors both read them
// through the EL2 encodings; E2H redirection only affects EL1 encodings.
struct ExitInfo {
  uint64_t esr = 0;
  uint64_t elr = 0;
  uint64_t spsr = 0;
  uint64_t far = 0;
  uint64_t hpfar = 0;
};
ExitInfo ReadExitInfo(Cpu& cpu);

// Programs the exception-return state (ELR/SPSR) before entering a guest.
void WriteReturnState(Cpu& cpu, uint64_t elr, uint64_t spsr);

// --- vGIC hypervisor control interface switch (Table 5 registers) ----------
struct VgicContext {
  uint64_t vmcr = 0;
  uint64_t lr[16] = {};
  int lrs_in_use = 0;
};
// Exit side: read VMCR, read the in-use list registers, disable ICH_HCR.
void SaveVgic(Cpu& cpu, VgicContext* ctx);
// Entry side: write VMCR, the in-use list registers, enable ICH_HCR.
void RestoreVgic(Cpu& cpu, const VgicContext& ctx);

// --- generic timer switch ----------------------------------------------------
struct TimerContext {
  uint64_t cntv_ctl = 0;
  uint64_t cntv_cval = 0;
  bool operator==(const TimerContext&) const = default;
};
// Exit: save + disable the guest's EL1 virtual timer, open host timer access.
void SaveGuestTimer(Cpu& cpu, bool vhe, TimerContext* out);
// Entry: program CNTVOFF/CNTHCTL and reload the guest timer.
void RestoreGuestTimer(Cpu& cpu, bool vhe, const TimerContext& in,
                       uint64_t cntvoff);

// --- trap controls -------------------------------------------------------------
// Entry: HCR/VTTBR/VMPIDR/HSTR for the guest, plus CPTR/MDCR trap activation.
void WriteGuestTrapControls(Cpu& cpu, uint64_t hcr, uint64_t vttbr,
                            uint64_t vmpidr);
// Exit: restore host-mode values.
void WriteHostTrapControls(Cpu& cpu, uint64_t host_hcr);

// Per-CPU data pointer reads KVM performs around a switch (TPIDR_EL2).
void TouchPerCpuData(Cpu& cpu);

// --- state digests ------------------------------------------------------------
// Order-stable fingerprints of the saved context structures, for the
// world-switch round-trip property test and the fuzz oracles: a
// save/restore cycle must leave both the hardware state
// (Cpu::ArchStateDigest) and these software images unchanged.
inline uint64_t DigestOf(const El1Context& c) {
  Digest d;
  for (uint64_t r : c.regs) {
    d.Mix(r);
  }
  return d.value();
}
inline uint64_t DigestOf(const ExtEl1Context& c) {
  Digest d;
  for (uint64_t r : c.regs) {
    d.Mix(r);
  }
  return d.value();
}
inline uint64_t DigestOf(const PmuDebugContext& c) {
  return neve::DigestOf(c.mdscr, c.pmuserenr);
}
inline uint64_t DigestOf(const VgicContext& c) {
  Digest d;
  d.Mix(c.vmcr);
  d.Mix(static_cast<uint64_t>(c.lrs_in_use));
  for (uint64_t lr : c.lr) {
    d.Mix(lr);
  }
  return d.value();
}
inline uint64_t DigestOf(const TimerContext& c) {
  return neve::DigestOf(c.cntv_ctl, c.cntv_cval);
}

}  // namespace neve

#endif  // NEVE_SRC_HYP_WORLD_SWITCH_H_
