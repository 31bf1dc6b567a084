// The host (L0) hypervisor: a KVM/ARM-style hypervisor running at real EL2.
//
// Responsibilities, mirroring the paper's section 4 design:
//  - single-level virtualization: world switch, vGIC, timers, Stage-2, MMIO;
//  - nested virtualization: emulating a virtual EL2 for guest hypervisors
//    (trap-and-emulate of EL2 register accesses and eret), multiplexing the
//    guest hypervisor's virtual-EL1 contexts onto the hardware, shadow
//    Stage-2 for nested VMs, and forwarding exits to the virtual EL2 vector;
//  - NEVE host support (section 6.1): owning the hardware deferred access
//    page, enabling/disabling VNCR_EL2 per context, and copying register
//    state between the page and the physical registers on transitions.
//
// The host's own world-switch code runs at EL2 and therefore never traps;
// its cost is charged through the same CPU operations the guest hypervisor
// uses -- which is exactly why a single nested exit costs a full L0 exit
// cycle (the exit-multiplication arithmetic of section 5).

#ifndef NEVE_SRC_HYP_HOST_KVM_H_
#define NEVE_SRC_HYP_HOST_KVM_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/hyp/vm.h"
#include "src/hyp/world_switch.h"
#include "src/obs/metrics.h"
#include "src/sim/machine.h"

namespace neve {

class GuestFaultException;

namespace snap {
class Serializer;  // src/snap: serializes pcpu slots and per-vcpu contexts
}  // namespace snap

struct HostKvmConfig {
  // Host hypervisor operating mode. The paper's testbed host is ARMv8.0
  // KVM/ARM, i.e. non-VHE: a full EL1 context switch on every exit.
  bool vhe = false;
  // Program hardware VNCR_EL2 for guest hypervisors on NEVE machines.
  bool use_neve = true;

  bool operator==(const HostKvmConfig&) const = default;
};

class HostKvm : public El2Host {
 public:
  HostKvm(Machine* machine, const HostKvmConfig& config);
  ~HostKvm() override;

  HostKvm(const HostKvm&) = delete;
  HostKvm& operator=(const HostKvm&) = delete;

  const HostKvmConfig& config() const { return config_; }
  Machine& machine() { return *machine_; }

  // Creates a VM: carves guest RAM out of machine memory, builds its
  // Stage-2, and (for virtual_el2 VMs) sets up shadow tables and, on NEVE
  // machines, the deferred access page.
  Vm* CreateVm(const VmConfig& config);

  // Runs `vcpu.main_sw` on physical CPU `pcpu` until it returns or parks.
  //
  // Fault confinement boundary: a guest-attributable fault raised anywhere
  // below this frame (trapped emulation, device models, shadow walks, the
  // trap-livelock watchdog) unwinds to here, kills only `vcpu`'s VM, restores
  // the host context on the pcpu, and surfaces as an error Status. The
  // machine and every other VM keep running. Returns OkStatus on a normal
  // run, FailedPrecondition when the VM is already dead.
  Status RunVcpu(Vcpu& vcpu, int pcpu);

  // Brings a killed VM back: clears the dead flag, resets every vCPU's
  // run-time state (software slots, shadows, pending interrupts, registers)
  // and the host-side per-vcpu context, and bumps the VM's generation.
  // When a checkpoint taken with CheckpointVm exists, the VM's RAM, virtual
  // register files, VNCR pages and host-side contexts are then restored from
  // it -- a reboot from the last known-good memory image rather than from
  // scratch. The caller re-registers software images and calls RunVcpu again.
  void RestartVm(Vm& vm);

  // Captures a restart checkpoint of `vm`: its resident RAM pages, each
  // vCPU's virtual register file and VNCR page, and the host-side per-vcpu
  // contexts. Host-side and cycle-free; callable mid-run (e.g. from guest
  // software via a host service call, or between RunVcpu entries). A later
  // RestartVm of the same VM restores from it instead of booting cold.
  void CheckpointVm(Vm& vm);
  bool HasCheckpoint(const Vm& vm) const {
    return checkpoints_.count(&vm) != 0;
  }
  void DropCheckpoint(const Vm& vm) { checkpoints_.erase(&vm); }

  // Injects a virtual interrupt for `vcpu`. If the vCPU is loaded on another
  // physical CPU, kicks it (physical SGI) and the delivery runs there,
  // synchronously, with event-time propagation. `raiser` is the CPU whose
  // clock stamps the event (nullptr for external device models, which pass
  // `raiser_cycles` instead).
  void InjectVirq(Vcpu& vcpu, uint32_t virq, Cpu* raiser,
                  uint64_t raiser_cycles = 0);

  // El2Host: every exception taken to real EL2 lands here.
  TrapOutcome OnTrapToEl2(Cpu& cpu, const Syndrome& syndrome) override;

  // GIC physical-IRQ sink (wired to GicV3 in the constructor).
  void OnPhysIrq(int target_pcpu, uint32_t intid, uint64_t raiser_cycles);

  // The vCPU currently loaded on a physical CPU (nullptr when idle).
  Vcpu* LoadedVcpu(int pcpu) { return pcpu_.at(pcpu).current; }

  // The per-pcpu context a snapshot carries (src/snap); PcpuState adds the
  // loaded vCPU, which a restore verifies instead.
  struct PcpuContext {
    bool guest_loaded = false;  // guest register state on the hardware
    int lrs_loaded = 0;         // list registers programmed for this run
    El1Context host_el1;        // host kernel EL1 context (non-VHE only)
    ExtEl1Context host_ext;
    PmuDebugContext host_pmu;
    bool operator==(const PcpuContext&) const = default;
  };

  // L0-side per-vcpu nested/context state.
  struct VcpuHostState {
    El1Context cur_el1;    // EL1 context of the vCPU's *current* mode
    El1Context vel2_exec;  // stashed vEL2 execution context while in vEL1
    ExtEl1Context ext;
    PmuDebugContext pmu;
    uint64_t elr = 0;      // return state programmed on entry
    uint64_t spsr = 0;
    TimerContext timer;
    uint64_t cntvoff = 0;
    bool operator==(const VcpuHostState&) const = default;
  };

 private:
  struct PcpuState : PcpuContext {
    Vcpu* current = nullptr;
  };

  VcpuHostState& HostStateOf(Vcpu& vcpu);

  // --- world switch -----------------------------------------------------
  void SwitchOutOfGuest(Cpu& cpu, Vcpu& vcpu);
  void SwitchIntoGuest(Cpu& cpu, Vcpu& vcpu);
  uint64_t GuestHcrFor(const Vcpu& vcpu) const;
  uint64_t HostHcr() const;
  uint64_t VttbrFor(Cpu& cpu, Vcpu& vcpu);
  // The shadow Stage-2 for the guest hypervisor's current virtual VTTBR,
  // created on first use.
  ShadowS2& ShadowFor(Vcpu& vcpu, uint64_t vvttbr);

  // --- exit handling -------------------------------------------------------
  TrapOutcome HandleExit(Cpu& cpu, Vcpu& vcpu, const Syndrome& s);
  TrapOutcome HandleHvc(Cpu& cpu, Vcpu& vcpu, const Syndrome& s);
  TrapOutcome HandleSysRegTrap(Cpu& cpu, Vcpu& vcpu, const Syndrome& s);
  TrapOutcome HandleEret(Cpu& cpu, Vcpu& vcpu);
  TrapOutcome HandleDataAbort(Cpu& cpu, Vcpu& vcpu, const Syndrome& s);
  // Trapped guest TLB maintenance (multi-vCPU virtual_el2 VMs only):
  // broadcasts the shadow Stage-2 invalidation to every vCPU of the VM and
  // drops sibling hardware TLBs (deferred cross-lane under the SMP engine).
  TrapOutcome HandleTlbi(Cpu& cpu, Vcpu& vcpu);
  void EmulateSgi(Cpu& cpu, Vcpu& vcpu, uint64_t sgir);

  // --- virtual EL2 emulation ------------------------------------------------
  // Virtual EL2 register state access: deferred access page when NEVE is
  // active for the VM (charged physical memory traffic), the in-memory vcpu
  // context otherwise.
  uint64_t ReadVel2Reg(Cpu& cpu, Vcpu& vcpu, RegId reg);
  void WriteVel2Reg(Cpu& cpu, Vcpu& vcpu, RegId reg, uint64_t value);
  bool NeveActiveFor(const Vcpu& vcpu) const;

  // Moves the virtual-EL1 machine state between the hardware-bound context
  // and its storage (deferred page / vcpu context) on mode transitions --
  // the copies the paper describes in section 6.1's "typical workflow".
  void StashVel1State(Cpu& cpu, Vcpu& vcpu);
  void LoadVel1State(Cpu& cpu, Vcpu& vcpu);

  // Emulates exception delivery to the guest hypervisor's virtual EL2
  // (forwarded exits). Runs the registered Vel2Handler when one is not
  // already active; otherwise the transition is part of the guest
  // hypervisor's linear flow and only the mode switch happens.
  void DeliverToVel2(Cpu& cpu, Vcpu& vcpu, const Syndrome& s);

  // Transitions between virtual modes (shared by eret/hvc/delivery paths).
  void EnterVel2Mode(Cpu& cpu, Vcpu& vcpu);
  void EnterVel1Mode(Cpu& cpu, Vcpu& vcpu, VcpuMode vel1_mode);

  // Starts lower-EL guest software on the current pcpu.
  void StartGuestProgram(Cpu& cpu, Vcpu& vcpu, GuestSoftware& sw);

  // --- interrupts ------------------------------------------------------------
  void DeliverVirqsToLoadedVcpu(Cpu& cpu, Vcpu& vcpu);
  void DeliverLoadedLrToGuestSw(Cpu& cpu, Vcpu& vcpu);

  // --- fault confinement ----------------------------------------------------
  // Kills `vcpu`'s VM after a guest-attributable fault: records fault.*
  // metrics and a tracer episode, marks the VM dead, drops its run-time
  // state from every pcpu, and restores the host context on `cpu`.
  Status ConfineGuestFault(Cpu& cpu, Vcpu& vcpu, const GuestFaultException& e);

  // --- restart checkpoints --------------------------------------------------
  struct VmCheckpoint {
    std::vector<PageCopy> ram_pages;  // resident pages, VM RAM range
    std::vector<std::array<uint64_t, kNumRegIds>> vregs;  // per vcpu
    std::vector<VcpuHostState> host_state;                // per vcpu
    std::vector<PageCopy> vncr_pages;  // per NEVE vcpu's deferred page
  };

  friend class snap::Serializer;

  Machine* machine_;      // not-snapshotted: host wiring
  HostKvmConfig config_;  // not-snapshotted: fixed at construction, verified
  std::vector<std::unique_ptr<Vm>> vms_;
  std::vector<PcpuState> pcpu_;
  std::unordered_map<const Vcpu*, std::unique_ptr<VcpuHostState>> vcpu_state_;
  // not-snapshotted: restart checkpoints are a host-local recovery aid, not
  // machine state (a migrated VM starts with none, like a freshly booted one)
  std::unordered_map<const Vm*, VmCheckpoint> checkpoints_;

  // Handles of the hot metrics (src/obs/metrics.h), bound to the trapping
  // CPU's registry on first use. not-snapshotted: host-side observability
  CounterRef switches_into_guest_{"hyp.switches_into_guest"};
  CounterRef switches_out_of_guest_{"hyp.switches_out_of_guest"};
  // not-snapshotted: metric handles, as above
  CounterRef vel2_deliveries_{"hyp.vel2_deliveries"};
  CounterRef shadow_s2_faults_{"shadow_s2.faults"};
  // not-snapshotted: metric handles, as above
  CounterRef shadow_s2_installed_{"shadow_s2.installed"};
  CounterRef shadow_s2_virtual_faults_{"shadow_s2.virtual_faults"};
  // not-snapshotted: metric handles, as above
  CounterRef virq_injections_{"gic.virq_injections"};
};

}  // namespace neve

#endif  // NEVE_SRC_HYP_HOST_KVM_H_
