#include "src/hyp/host_kvm.h"

#include "src/arch/vncr.h"
#include "src/base/bits.h"
#include "src/base/log.h"
#include "src/base/status.h"
#include "src/fault/fault.h"
#include "src/fault/guest_fault.h"
#include "src/gic/gic.h"
#include "src/mem/shootdown.h"
#include "src/obs/attr.h"
#include "src/sim/smp.h"

namespace neve {
namespace {

// Physical SGI id used to kick a vCPU loaded on another physical CPU.
constexpr uint8_t kKickSgi = 1;

// True when the virtual-EL2 state of `reg` lives in the deferred access page
// under NEVE (the page is the authoritative storage; section 6.1).
bool UsesDeferredSlot(RegId reg, bool guest_vhe) {
  switch (RegNeveClass(reg)) {
    case NeveClass::kDeferred:
    case NeveClass::kTrapOnWrite:
    case NeveClass::kGicCached:
      return true;
    case NeveClass::kRedirectOrTrap:
      return !guest_vhe;  // VHE guests get redirection instead
    default:
      return false;
  }
}

// Which attribution layer a vCPU mode executes at: the nested VM is L2,
// everything else inside the VM (plain guest, guest hypervisor in virtual
// EL2, its kernel at virtual EL1) is L1.
AttrLayer LayerOf(VcpuMode mode) {
  return mode == VcpuMode::kVel1Nested ? AttrLayer::kL2 : AttrLayer::kL1;
}

}  // namespace

HostKvm::HostKvm(Machine* machine, const HostKvmConfig& config)
    : machine_(machine), config_(config) {
  // host-invariant: hypervisor construction parameters, no guest influence.
  NEVE_CHECK(machine != nullptr);
  // host-invariant: host configuration validated against machine features.
  NEVE_CHECK_MSG(!config.vhe || machine->config().features.vhe,
                 "VHE host requires VHE hardware");
  pcpu_.resize(machine->num_cpus());
  for (int i = 0; i < machine->num_cpus(); ++i) {
    Cpu& cpu = machine->cpu(i);
    cpu.SetEl2Host(this);
    // Boot-time hardware configuration (not part of any measurement).
    cpu.PokeReg(RegId::kHCR_EL2, HostHcr());
  }
  machine->gic().SetPhysIrqSink(
      [this](int target, uint32_t intid, uint64_t raiser_cycles) {
        OnPhysIrq(target, intid, raiser_cycles);
      });
}

HostKvm::~HostKvm() = default;

HostKvm::VcpuHostState& HostKvm::HostStateOf(Vcpu& vcpu) {
  auto it = vcpu_state_.find(&vcpu);
  // host-invariant: vcpus only reach the host through its own CreateVm.
  NEVE_CHECK_MSG(it != vcpu_state_.end(), "vcpu not owned by this hypervisor");
  return *it->second;
}

Vm* HostKvm::CreateVm(const VmConfig& config) {
  // host-invariant: VM configuration is host input, validated at creation.
  NEVE_CHECK_MSG(!config.virtual_el2 || machine_->config().features.nv,
                 "virtual EL2 requires ARMv8.3-NV hardware support");
  Pa ram = machine_->AllocGuestRam(config.ram_size);
  auto vm = std::make_unique<Vm>(config, ram, &machine_->mem(),
                                 &machine_->host_pool());
  for (int i = 0; i < vm->num_vcpus(); ++i) {
    Vcpu& vcpu = vm->vcpu(i);
    vcpu_state_[&vcpu] = std::make_unique<VcpuHostState>();
    if (config.virtual_el2 && NeveActiveFor(vcpu)) {
      vcpu.vncr_hw_page = machine_->host_pool().AllocPage();
    }
  }
  vm->set_id(static_cast<int>(vms_.size()));
  vms_.push_back(std::move(vm));
  return vms_.back().get();
}

bool HostKvm::NeveActiveFor(const Vcpu& vcpu) const {
  return config_.use_neve && machine_->config().features.neve &&
         vcpu.vm().config().expose_neve;
}

uint64_t HostKvm::HostHcr() const {
  uint64_t h = 0;
  if (config_.vhe) {
    h = SetBit(h, HcrBits::kE2h);
  }
  return h;
}

uint64_t HostKvm::GuestHcrFor(const Vcpu& vcpu) const {
  uint64_t h = Hcr::Make({HcrBits::kVm, HcrBits::kImo, HcrBits::kFmo});
  if (config_.vhe) {
    h = SetBit(h, HcrBits::kE2h);
  }
  if (vcpu.mode == VcpuMode::kVel2) {
    h = SetBit(h, HcrBits::kNv);
    if (!vcpu.vm().config().guest_vhe) {
      h = SetBit(h, HcrBits::kNv1);
    }
  } else if (vcpu.mode == VcpuMode::kVel1Nested && vcpu.nested_is_hyp) {
    // Recursive nesting (6.2): the guest hypervisor's guest is itself a
    // hypervisor; mirror the NV bits it programmed so the L2's hypervisor
    // instructions trap (and get forwarded to the L1).
    h |= vcpu.nested_hcr &
         (Hcr::Make({HcrBits::kNv}) | Hcr::Make({HcrBits::kNv1}));
  }
  return h;
}

ShadowS2& HostKvm::ShadowFor(Vcpu& vcpu, uint64_t vvttbr) {
  auto& slot = vcpu.shadows[vvttbr];
  if (slot == nullptr) {
    slot = std::make_unique<ShadowS2>(&machine_->mem(), &machine_->host_pool());
    slot->SetFaultInjector(&machine_->fault());
  }
  return *slot;
}

uint64_t HostKvm::VttbrFor(Cpu& cpu, Vcpu& vcpu) {
  if (vcpu.mode == VcpuMode::kVel1Nested) {
    uint64_t vvttbr = ReadVel2Reg(cpu, vcpu, RegId::kVTTBR_EL2);
    return ShadowFor(vcpu, vvttbr).table().root().value;
  }
  return vcpu.vm().s2().root().value;
}

// ---------------------------------------------------------------------------
// Virtual EL2 register state
// ---------------------------------------------------------------------------

uint64_t HostKvm::ReadVel2Reg(Cpu& cpu, Vcpu& vcpu, RegId reg) {
  if (NeveActiveFor(vcpu) &&
      UsesDeferredSlot(reg, vcpu.vm().config().guest_vhe)) {
    return cpu.HostLoad(Pa(vcpu.vncr_hw_page.value + DeferredPageOffset(reg)));
  }
  cpu.Compute(cpu.cost().mem_access);
  return vcpu.vreg(reg);
}

void HostKvm::WriteVel2Reg(Cpu& cpu, Vcpu& vcpu, RegId reg, uint64_t value) {
  if (NeveActiveFor(vcpu) &&
      UsesDeferredSlot(reg, vcpu.vm().config().guest_vhe)) {
    cpu.HostStore(Pa(vcpu.vncr_hw_page.value + DeferredPageOffset(reg)), value);
    return;
  }
  cpu.Compute(cpu.cost().mem_access);
  vcpu.set_vreg(reg, value);
}

void HostKvm::StashVel1State(Cpu& cpu, Vcpu& vcpu) {
  // Copy the virtual-EL1 machine state out of the hardware-bound context
  // into its virtual-EL2-visible storage (deferred page under NEVE): the
  // "copies the EL1 system register values ... into the deferred access
  // page" step of section 6.1.
  VcpuHostState& hs = HostStateOf(vcpu);
  std::span<const RegId> regs = VmEl1RegIds();
  for (int i = 0; i < kNumVmEl1Regs; ++i) {
    WriteVel2Reg(cpu, vcpu, regs[i], hs.cur_el1.regs[i]);
  }
}

void HostKvm::LoadVel1State(Cpu& cpu, Vcpu& vcpu) {
  // The converse: "copies register values from the deferred access page to
  // physical EL1 registers to run the nested VM".
  VcpuHostState& hs = HostStateOf(vcpu);
  std::span<const RegId> regs = VmEl1RegIds();
  for (int i = 0; i < kNumVmEl1Regs; ++i) {
    hs.cur_el1.regs[i] = ReadVel2Reg(cpu, vcpu, regs[i]);
  }
}

void HostKvm::EnterVel1Mode(Cpu& cpu, Vcpu& vcpu, VcpuMode vel1_mode) {
  // host-invariant: mode transitions are sequenced by the host's own
  // eret/delivery emulation, not by guest-chosen values.
  NEVE_CHECK(vcpu.mode == VcpuMode::kVel2);
  // host-invariant: callers pass one of the two literal vEL1 modes.
  NEVE_CHECK(vel1_mode == VcpuMode::kVel1Kernel ||
             vel1_mode == VcpuMode::kVel1Nested);
  VcpuHostState& hs = HostStateOf(vcpu);
  cpu.Compute(SwCost::kVel1Transition);
  hs.vel2_exec = hs.cur_el1;
  cpu.Compute(kNumVmEl1Regs * cpu.cost().mem_access);
  LoadVel1State(cpu, vcpu);
  vcpu.mode = vel1_mode;
}

void HostKvm::EnterVel2Mode(Cpu& cpu, Vcpu& vcpu) {
  // host-invariant: mode transitions are sequenced by the host's own
  // eret/delivery emulation, not by guest-chosen values.
  NEVE_CHECK(vcpu.mode == VcpuMode::kVel1Kernel ||
             vcpu.mode == VcpuMode::kVel1Nested);
  VcpuHostState& hs = HostStateOf(vcpu);
  cpu.Compute(SwCost::kVel1Transition);
  StashVel1State(cpu, vcpu);
  hs.cur_el1 = hs.vel2_exec;
  cpu.Compute(kNumVmEl1Regs * cpu.cost().mem_access);
  vcpu.mode = VcpuMode::kVel2;
}

// ---------------------------------------------------------------------------
// World switch
// ---------------------------------------------------------------------------

void HostKvm::SwitchIntoGuest(Cpu& cpu, Vcpu& vcpu) {
  PcpuState& ps = pcpu_.at(cpu.index());
  // host-invariant: load/put pairing is the host run loop's own sequencing.
  NEVE_CHECK(!ps.guest_loaded);
  VcpuHostState& hs = HostStateOf(vcpu);

  ScopedSpan span(cpu.obs(), cpu, "world_switch", "switch_into_guest");
  AttrScope attr_scope(cpu, AttrCat::kWorldSwitchEnter);
  if (ObsActive(cpu.obs())) {
    switches_into_guest_.In(cpu.obs()->metrics()).Add(1);
  }

  cpu.Compute(SwCost::kRunLoop);
  cpu.Compute(SwCost::kGprSwitch);
  TouchPerCpuData(cpu);
  if (!config_.vhe) {
    SaveEl1Context(cpu, /*vhe=*/false, &ps.host_el1);
    SaveExtEl1Context(cpu, /*vhe=*/false, &ps.host_ext);
  }
  RestoreEl1Context(cpu, config_.vhe, hs.cur_el1);
  RestoreExtEl1Context(cpu, config_.vhe, hs.ext);
  RestorePmuDebugState(cpu, hs.pmu);

  // vGIC: program the list registers for this context.
  VgicContext vg;
  if (vcpu.mode == VcpuMode::kVel1Nested) {
    // The nested VM's virtual interrupts are whatever the guest hypervisor
    // programmed into its (virtual) list registers.
    for (int i = 0; i < machine_->gic().num_list_regs(); ++i) {
      uint64_t vlr = ReadVel2Reg(cpu, vcpu, IchListRegister(i));
      if (!ListReg::Inactive(vlr)) {
        vg.lr[vg.lrs_in_use++] = vlr;
      }
    }
  } else {
    while (!vcpu.pending_virq.empty() &&
           vg.lrs_in_use < machine_->gic().num_list_regs()) {
      vg.lr[vg.lrs_in_use++] = ListReg::MakePending(vcpu.pending_virq.front());
      vcpu.pending_virq.pop_front();
    }
  }
  RestoreVgic(cpu, vg);
  machine_->gic().SyncStatusRegs(cpu);
  ps.lrs_loaded = vg.lrs_in_use;

  RestoreGuestTimer(cpu, config_.vhe, hs.timer, hs.cntvoff);
  WriteGuestTrapControls(cpu, GuestHcrFor(vcpu), VttbrFor(cpu, vcpu),
                         static_cast<uint64_t>(vcpu.id()));
  // Trap guest TLB maintenance only where the broadcast matters: a
  // multi-vCPU guest hypervisor's TLBI must reach its siblings' shadow
  // Stage-2 trees and hardware TLBs (HandleTlbi). Single-vCPU stacks keep
  // the untrapped local invalidate and its original cost.
  cpu.SetTrapTlbi(vcpu.vm().config().virtual_el2 && vcpu.vm().num_vcpus() > 1);
  if (vcpu.vm().config().virtual_el2 && machine_->config().features.neve &&
      config_.use_neve) {
    // Enable the deferred access page only while the guest hypervisor runs
    // in virtual EL2; the nested VM must see its real EL1 registers (6.1).
    // Exception (6.2): when the nested context is itself a hypervisor in
    // virtual-virtual EL2 and the guest hypervisor enabled NEVE for it, the
    // host emulates NEVE "by using the hardware features directly":
    // translate the guest's VNCR base through Stage-2 and program the real
    // register with the machine address.
    uint64_t vncr = 0;
    if (vcpu.mode == VcpuMode::kVel2 && NeveActiveFor(vcpu)) {
      vncr = VncrEl2::Make(vcpu.vncr_hw_page.value, true).bits();
    } else if (vcpu.mode == VcpuMode::kVel1Nested && vcpu.nested_is_hyp) {
      VncrEl2 guest_vncr(ReadVel2Reg(cpu, vcpu, RegId::kVNCR_EL2));
      if (guest_vncr.enabled()) {
        cpu.Compute(PageTable::kWalkLevels * cpu.cost().tlb_walk_per_level);
        WalkResult walk = vcpu.vm().s2().Walk(Ipa(guest_vncr.baddr()),
                                              /*is_write=*/true);
        // The guest hypervisor chose this VNCR base address: a bad one is
        // its bug, confined to its VM.
        NEVE_GUEST_CHECK(walk.ok, "vncr_unmapped",
                         "guest VNCR page unmapped in Stage-2");
        vncr = VncrEl2::Make(walk.pa.PageBase().value, true).bits();
      }
    }
    cpu.SysRegWrite(SysReg::kVNCR_EL2, vncr);
  }
  WriteReturnState(cpu, hs.elr, hs.spsr);
  ps.guest_loaded = true;
}

void HostKvm::SwitchOutOfGuest(Cpu& cpu, Vcpu& vcpu) {
  PcpuState& ps = pcpu_.at(cpu.index());
  // host-invariant: load/put pairing is the host run loop's own sequencing.
  NEVE_CHECK(ps.guest_loaded);
  ps.guest_loaded = false;
  VcpuHostState& hs = HostStateOf(vcpu);

  ScopedSpan span(cpu.obs(), cpu, "world_switch", "switch_out_of_guest");
  AttrScope attr_scope(cpu, AttrCat::kWorldSwitchExit);
  if (ObsActive(cpu.obs())) {
    switches_out_of_guest_.In(cpu.obs()->metrics()).Add(1);
  }

  TouchPerCpuData(cpu);
  cpu.Compute(SwCost::kGprSwitch);
  ExitInfo info = ReadExitInfo(cpu);
  hs.elr = info.elr;
  hs.spsr = info.spsr;
  SaveEl1Context(cpu, config_.vhe, &hs.cur_el1);
  SaveExtEl1Context(cpu, config_.vhe, &hs.ext);
  SavePmuDebugState(cpu, &hs.pmu);

  VgicContext vg;
  vg.lrs_in_use = ps.lrs_loaded;
  SaveVgic(cpu, &vg);
  if (vcpu.mode == VcpuMode::kVel1Nested) {
    // Reflect hardware LR state (EOIed interrupts cleared) back into the
    // guest hypervisor's virtual list registers.
    for (int i = 0; i < vg.lrs_in_use; ++i) {
      WriteVel2Reg(cpu, vcpu, IchListRegister(i), vg.lr[i]);
    }
  } else {
    for (int i = 0; i < vg.lrs_in_use; ++i) {
      if (ListReg::Pending(vg.lr[i])) {
        vcpu.pending_virq.push_front(ListReg::Intid(vg.lr[i]));
      }
    }
  }
  ps.lrs_loaded = 0;

  SaveGuestTimer(cpu, config_.vhe, &hs.timer);
  if (!config_.vhe) {
    RestoreEl1Context(cpu, /*vhe=*/false, ps.host_el1);
    RestoreExtEl1Context(cpu, /*vhe=*/false, ps.host_ext);
  }
  cpu.SetTrapTlbi(false);
  WriteHostTrapControls(cpu, HostHcr());
  cpu.Compute(SwCost::kRunLoop);
}

void HostKvm::StartGuestProgram(Cpu& cpu, Vcpu& vcpu, GuestSoftware& sw) {
  // host-invariant: callers check sw.main before starting a program.
  NEVE_CHECK(sw.main);
  // host-invariant: single-start is enforced by the host's own run loop.
  NEVE_CHECK(!sw.started);
  sw.started = true;
  GuestEnv env(&cpu, &vcpu);
  AttrScope attr_scope(cpu, LayerOf(vcpu.mode), AttrCat::kGuestCompute);
  cpu.RunLowerEl(El::kEl1, [&] { sw.main(env); });
}

Status HostKvm::RunVcpu(Vcpu& vcpu, int pcpu) {
  if (vcpu.vm().dead()) {
    return Status::FailedPrecondition(
        "vm '" + vcpu.vm().config().name +
        "' was killed by a confined guest fault; RestartVm() to run it again");
  }
  PcpuState& ps = pcpu_.at(pcpu);
  // host-invariant: pcpu scheduling is the embedding harness's sequencing.
  NEVE_CHECK_MSG(ps.current == nullptr, "pcpu already running a vcpu");
  Cpu& cpu = machine_->cpu(pcpu);
  // Everything under this entry belongs to this (vm, vcpu); host-side work
  // with no finer frame lands in L0/host_other.
  AttrScope attr_scope(cpu, vcpu.vm().id(), vcpu.id(), AttrLayer::kL0,
                       AttrCat::kHostOther);
  ps.current = &vcpu;
  vcpu.loaded_on_pcpu = pcpu;

  // Arm the trap-livelock watchdog for this entry: if the guest keeps
  // trapping past the cycle budget without ever returning, the check at
  // trap entry raises a confined guest fault instead of spinning forever.
  uint64_t saved_deadline = cpu.watchdog_deadline();
  uint64_t budget = machine_->config().fault.watchdog_budget;
  if (budget > 0) {
    cpu.SetWatchdogDeadline(cpu.cycles() + budget);
  }

  try {
    cpu.Compute(SwCost::kVcpuLoadPut);
    SwitchIntoGuest(cpu, vcpu);
    StartGuestProgram(cpu, vcpu, vcpu.SoftwareFor(vcpu.mode));
    if (vcpu.parked) {
      // The guest stays logically running (interrupt-driven); state remains
      // loaded and later IRQ deliveries execute against it.
      cpu.SetWatchdogDeadline(saved_deadline);
      return Status::Ok();
    }
    if (ps.guest_loaded) {
      SwitchOutOfGuest(cpu, vcpu);
    }
    cpu.Compute(SwCost::kVcpuLoadPut);
    ps.current = nullptr;
    vcpu.loaded_on_pcpu = -1;
  } catch (const GuestFaultException& e) {
    cpu.SetWatchdogDeadline(saved_deadline);
    if (SmpEngine* eng = SmpEngine::Current(); eng != nullptr) {
      // Tear the VM down with exclusive ownership of the machine (no sibling
      // lane executing); exiting the barrier fails every lane still parked
      // in a rendezvous the dead VM can no longer complete.
      eng->EnterConfinement(SmpEngine::CurrentLane());
      Status status = ConfineGuestFault(cpu, vcpu, e);
      eng->ExitConfinement(SmpEngine::CurrentLane());
      return status;
    }
    return ConfineGuestFault(cpu, vcpu, e);
  }
  cpu.SetWatchdogDeadline(saved_deadline);
  return Status::Ok();
}

Status HostKvm::ConfineGuestFault(Cpu& cpu, Vcpu& vcpu,
                                  const GuestFaultException& e) {
  Vm& vm = vcpu.vm();
  vm.set_dead(true);
  // Flight-record the attribution tree at the moment of confinement: the
  // charges survived the unwind (buckets outlive frames), so this snapshot
  // shows exactly where the faulting run's cycles went.
  machine_->attr().RecordFlight(std::string("guest_fault:") + e.kind());
  if (Observability& obs = machine_->obs(); ObsActive(&obs)) {
    obs.metrics().Counter("fault.vm_kills").Add(1);
    obs.metrics().Counter(std::string("fault.kill.") + e.kind()).Add(1);
    obs.tracer().Instant(cpu.index(), "fault", "vm_kill", cpu.cycles());
  }

  // Drop the dead VM's run-time state from every pcpu it may be loaded on
  // (multi-vcpu VMs park siblings on other pcpus).
  for (size_t p = 0; p < pcpu_.size(); ++p) {
    PcpuState& ps = pcpu_[p];
    if (ps.current != nullptr && &ps.current->vm() == &vm) {
      ps.current = nullptr;
      ps.guest_loaded = false;
      ps.lrs_loaded = 0;
    }
  }
  for (int i = 0; i < vm.num_vcpus(); ++i) {
    Vcpu& v = vm.vcpu(i);
    v.loaded_on_pcpu = -1;
    v.parked = false;
    v.vel2_handler_active = false;
    v.deferred_vector.reset();
    v.deferred_vector_active = false;
    v.mmio_retry = false;
    v.pending_virq.clear();
  }

  // The fault unwound out of an arbitrary point of the world-switch /
  // emulation code: put the hardware back into a clean host configuration
  // (trap controls, deferred page off, no Stage-2, empty list registers).
  // No costs are charged -- the VM is gone, there is nothing to measure.
  cpu.PokeReg(RegId::kHCR_EL2, HostHcr());
  cpu.PokeReg(RegId::kVNCR_EL2, 0);
  cpu.PokeReg(RegId::kVTTBR_EL2, 0);
  for (int i = 0; i < machine_->gic().num_list_regs(); ++i) {
    cpu.PokeReg(IchListRegister(i), 0);
  }
  machine_->gic().SyncStatusRegs(cpu);

  return Status::Internal("guest fault [" + std::string(e.kind()) + "] " +
                          e.what() + " (vm '" + vm.config().name +
                          "' killed)");
}

void HostKvm::CheckpointVm(Vm& vm) {
  // Host-side and cycle-free: reading pages and contexts is the simulator's
  // business, not the guest's, so taking a checkpoint never perturbs the run
  // (fault_test asserts byte-identity of a checkpointed vs plain run).
  VmCheckpoint cp;
  PhysMem& mem = machine_->mem();
  uint64_t ram_first = vm.ram_base().PageIndex();
  uint64_t ram_last = (vm.ram_base().value + vm.config().ram_size - 1)
                      >> kPageShift;
  for (uint64_t page : mem.ResidentPageIndices()) {
    if (page < ram_first || page > ram_last) {
      continue;
    }
    PageCopy p;
    p.page_index = page;
    mem.ReadPage(page, &p.data);
    cp.ram_pages.push_back(std::move(p));
  }
  for (int i = 0; i < vm.num_vcpus(); ++i) {
    Vcpu& vcpu = vm.vcpu(i);
    std::array<uint64_t, kNumRegIds> regs;
    for (size_t r = 0; r < kNumRegIds; ++r) {
      regs[r] = vcpu.vreg(static_cast<RegId>(r));
    }
    cp.vregs.push_back(regs);
    cp.host_state.push_back(HostStateOf(vcpu));
    if (vcpu.vncr_hw_page.value != 0) {
      PageCopy p;
      p.page_index = vcpu.vncr_hw_page.PageIndex();
      mem.ReadPage(p.page_index, &p.data);
      cp.vncr_pages.push_back(std::move(p));
    }
  }
  checkpoints_[&vm] = std::move(cp);
  if (Observability& obs = machine_->obs(); ObsActive(&obs)) {
    obs.metrics().Counter("fault.vm_checkpoints").Add(1);
  }
}

void HostKvm::RestartVm(Vm& vm) {
  vm.set_dead(false);
  vm.bump_generation();
  for (int i = 0; i < vm.num_vcpus(); ++i) {
    Vcpu& vcpu = vm.vcpu(i);
    vcpu.ResetRuntimeState();  // keeps vncr_hw_page: the host owns that page
    auto it = vcpu_state_.find(&vcpu);
    if (it != vcpu_state_.end()) {
      *it->second = VcpuHostState{};
    }
  }
  if (auto cpit = checkpoints_.find(&vm); cpit != checkpoints_.end()) {
    // Reboot from the last checkpoint instead of from scratch: put the VM's
    // RAM back exactly (resident set included -- pages the guest dirtied
    // after the checkpoint go back to implicit zero), then the register
    // files, VNCR pages and host-side contexts.
    const VmCheckpoint& cp = cpit->second;
    PhysMem& mem = machine_->mem();
    uint64_t ram_first = vm.ram_base().PageIndex();
    uint64_t ram_last = (vm.ram_base().value + vm.config().ram_size - 1)
                        >> kPageShift;
    for (uint64_t page : mem.ResidentPageIndices()) {
      if (page >= ram_first && page <= ram_last) {
        mem.DropPage(page);
      }
    }
    for (const PageCopy& p : cp.ram_pages) {
      mem.WritePage(p.page_index, p.data.data());
    }
    for (int i = 0; i < vm.num_vcpus(); ++i) {
      Vcpu& vcpu = vm.vcpu(i);
      for (size_t r = 0; r < kNumRegIds; ++r) {
        vcpu.set_vreg(static_cast<RegId>(r), cp.vregs[i][r]);
      }
      auto it = vcpu_state_.find(&vcpu);
      if (it != vcpu_state_.end()) {
        *it->second = cp.host_state[i];
      }
    }
    for (const PageCopy& p : cp.vncr_pages) {
      mem.WritePage(p.page_index, p.data.data());
    }
    if (Observability& obs = machine_->obs(); ObsActive(&obs)) {
      obs.metrics().Counter("fault.vm_restore_from_checkpoint").Add(1);
    }
  }
  if (Observability& obs = machine_->obs(); ObsActive(&obs)) {
    obs.metrics().Counter("fault.vm_restarts").Add(1);
  }
}

// ---------------------------------------------------------------------------
// Exit handling
// ---------------------------------------------------------------------------

TrapOutcome HostKvm::OnTrapToEl2(Cpu& cpu, const Syndrome& s) {
  PcpuState& ps = pcpu_.at(cpu.index());
  // host-invariant: traps only fire while RunVcpu has a vcpu loaded.
  NEVE_CHECK_MSG(ps.current != nullptr, "trap with no vcpu loaded");
  Vcpu& vcpu = *ps.current;
  ++vcpu.exits;

  SwitchOutOfGuest(cpu, vcpu);
  cpu.Compute(SwCost::kExitDispatch);
  TrapOutcome outcome = HandleExit(cpu, vcpu, s);
  if (!ps.guest_loaded) {
    SwitchIntoGuest(cpu, vcpu);
  }
  // A guest hypervisor may have scheduled a deeper vector invocation for the
  // context just resumed ("my eret lands at the L2 hypervisor's vector") --
  // recursive nesting's analogue of DeliverToVel2's handler call.
  if (vcpu.deferred_vector.has_value() &&
      vcpu.mode == VcpuMode::kVel1Nested && !vcpu.deferred_vector_active) {
    Vcpu::DeferredVector dv = *vcpu.deferred_vector;
    vcpu.deferred_vector.reset();
    vcpu.deferred_vector_active = true;
    GuestEnv env(&cpu, &vcpu);
    AttrScope attr_scope(cpu, LayerOf(vcpu.mode), AttrCat::kGuestCompute);
    cpu.RunLowerEl(El::kEl1,
                   [&] { dv.handler->OnVirtualExit(env, dv.syndrome); });
    vcpu.deferred_vector_active = false;
  }
  return outcome;
}

TrapOutcome HostKvm::HandleExit(Cpu& cpu, Vcpu& vcpu, const Syndrome& s) {
  switch (s.ec) {
    case Ec::kHvc64:
    case Ec::kSmc64:
      return HandleHvc(cpu, vcpu, s);
    case Ec::kSysReg:
      return HandleSysRegTrap(cpu, vcpu, s);
    case Ec::kEretTrap:
      if (vcpu.mode == VcpuMode::kVel1Nested && vcpu.nested_is_hyp) {
        // An L2 hypervisor's eret: its guest hypervisor emulates it.
        DeliverToVel2(cpu, vcpu, s);
        return TrapOutcome::Completed();
      }
      return HandleEret(cpu, vcpu);
    case Ec::kDataAbortLow:
      return HandleDataAbort(cpu, vcpu, s);
    case Ec::kWfx:
      cpu.Compute(SwCost::kHypercall);
      return TrapOutcome::Completed();
    case Ec::kTlbi:
      return HandleTlbi(cpu, vcpu);
    case Ec::kIrq: {
      // Synchronously-modeled IRQ exit (device interrupt for the running
      // guest; see Cpu::TakeIrq). Ack/complete on the host CPU interface,
      // then route the queued virtual interrupt.
      cpu.Compute(2 * cpu.cost().gic_vcpuif_access);
      cpu.Compute(SwCost::kIrqTriageHost);
      PcpuState& ps = pcpu_.at(cpu.index());
      DeliverVirqsToLoadedVcpu(cpu, vcpu);
      if (!ps.guest_loaded) {
        SwitchIntoGuest(cpu, vcpu);
      }
      DeliverLoadedLrToGuestSw(cpu, vcpu);
      return TrapOutcome::Completed();
    }
    default:
      // The guest triggered an exit class the host does not handle: its
      // problem, not the machine's. Kill the VM, keep simulating.
      RaiseGuestFault("unhandled_exit", "unhandled exit: " + s.ToString());
  }
  return TrapOutcome::Completed();
}

TrapOutcome HostKvm::HandleHvc(Cpu& cpu, Vcpu& vcpu, const Syndrome& s) {
  if (s.imm16 == kHvcSmpWait) {
    // Paravirtual SMP rendezvous: host business at every guest level (an
    // L2's SmpWait is never forwarded to its guest hypervisor). Under the
    // engine, park the lane until the registered predicate holds at a merge
    // point, then deliver whatever the merge enqueued -- same tail as the
    // kIrq exit above (SwitchOutOfGuest already ran at trap entry).
    if (SmpEngine* eng = SmpEngine::Current(); eng != nullptr) {
      eng->Wait(SmpEngine::CurrentLane());
      PcpuState& ps = pcpu_.at(cpu.index());
      DeliverVirqsToLoadedVcpu(cpu, vcpu);
      if (!ps.guest_loaded) {
        SwitchIntoGuest(cpu, vcpu);
      }
      DeliverLoadedLrToGuestSw(cpu, vcpu);
      return TrapOutcome::Completed();
    }
    // Cooperative path: every cross-vCPU send already delivered
    // synchronously, so the predicate held on entry (GuestEnv checked) and
    // the hypercall is a plain host round trip.
    cpu.Compute(SwCost::kHypercall);
    return TrapOutcome::Completed();
  }
  switch (vcpu.mode) {
    case VcpuMode::kGuest:
    case VcpuMode::kVel2:
      // Handled by this hypervisor (PSCI / test hypercall).
      cpu.Compute(SwCost::kHypercall);
      return TrapOutcome::Completed();
    case VcpuMode::kVel1Kernel:
    case VcpuMode::kVel1Nested:
      // hvc from below virtual EL2 belongs to the guest hypervisor.
      DeliverToVel2(cpu, vcpu, s);
      return TrapOutcome::Completed();
  }
  return TrapOutcome::Completed();
}

TrapOutcome HostKvm::HandleSysRegTrap(Cpu& cpu, Vcpu& vcpu, const Syndrome& s) {
  RegId storage = SysRegStorage(s.sysreg);

  // Refine the trap episode into the emulation family the access exercises:
  // GIC and timer state machines versus the plain VM-register stores that
  // dominate under ARMv8.3 (Table 6's sysreg-emulation column).
  AttrCat emul_cat = AttrCat::kSysRegEmul;
  if (storage == RegId::kICC_SGI1R_EL1 ||
      RegNeveClass(storage) == NeveClass::kGicCached) {
    emul_cat = AttrCat::kGicEmul;
  } else if (SysRegEncKind(s.sysreg) == EncKind::kEl02 ||
             RegNeveClass(storage) == NeveClass::kTimerTrap) {
    emul_cat = AttrCat::kTimerEmul;
  }
  AttrScope attr_scope(cpu, emul_cat);

  if (vcpu.mode != VcpuMode::kVel2) {
    // Traps from a plain guest / virtual EL1 context.
    if (vcpu.mode == VcpuMode::kVel1Nested &&
        (vcpu.nested_is_hyp || storage == RegId::kICC_SGI1R_EL1)) {
      // An L2 hypervisor's trapped instructions, and any nested VM's SGI
      // generation, belong to the guest hypervisor: forward.
      DeliverToVel2(cpu, vcpu, s);
      return TrapOutcome::Completed(vcpu.mmio_result);
    }
    if (storage == RegId::kICC_SGI1R_EL1) {
      cpu.Compute(SwCost::kSysregEmulate);
      EmulateSgi(cpu, vcpu, s.write_value);
      return TrapOutcome::Completed();
    }
    cpu.Compute(SwCost::kSysregEmulate);
    return TrapOutcome::Completed(0);
  }

  // Traps from virtual EL2: emulate against the virtual EL2 state. The
  // emulation path length depends on what trapped: the traps NEVE leaves
  // behind (vGIC, timer, trap-control writes, eret) run real state machines,
  // while the plain VM-register stores that dominate under ARMv8.3 are
  // trivial.
  if (SysRegEncKind(s.sysreg) == EncKind::kEl02) {
    cpu.Compute(SwCost::kEl02TimerEmulate);
  } else {
    switch (RegNeveClass(storage)) {
      case NeveClass::kGicCached:
        cpu.Compute(SwCost::kVgicEmulate);
        break;
      case NeveClass::kTimerTrap:
        cpu.Compute(SwCost::kTimerEmulate);
        break;
      case NeveClass::kTrapOnWrite:
      case NeveClass::kRedirectOrTrap:
        cpu.Compute(SwCost::kTrapCtlEmulate);
        break;
      default:
        cpu.Compute(SwCost::kSysregEmulate);
        break;
    }
  }

  // Guest hypervisor programming its guest's EL1 timer via *_EL02: operate
  // on the context-switched-out guest timer image.
  if (SysRegEncKind(s.sysreg) == EncKind::kEl02) {
    VcpuHostState& hs = HostStateOf(vcpu);
    uint64_t* slot = nullptr;
    switch (storage) {
      case RegId::kCNTV_CTL_EL0:
      case RegId::kCNTP_CTL_EL0:
        slot = &hs.timer.cntv_ctl;
        break;
      case RegId::kCNTV_CVAL_EL0:
      case RegId::kCNTP_CVAL_EL0:
        slot = &hs.timer.cntv_cval;
        break;
      default:
        break;
    }
    // The guest hypervisor picked the trapped EL02 encoding.
    NEVE_GUEST_CHECK(slot != nullptr, "el02_unmodeled",
                     "unmodeled EL02 timer register access");
    if (s.is_write) {
      *slot = s.write_value;
      return TrapOutcome::Completed();
    }
    return TrapOutcome::Completed(*slot);
  }

  if (storage == RegId::kICC_SGI1R_EL1) {
    EmulateSgi(cpu, vcpu, s.write_value);
    return TrapOutcome::Completed();
  }

  // Redirect-class registers: the virtual EL2 value lives in the (currently
  // switched-out) EL1 execution context.
  if (std::optional<RegId> target = RegRedirectTarget(storage);
      target.has_value() &&
      (RegNeveClass(storage) != NeveClass::kRedirectOrTrap ||
       vcpu.vm().config().guest_vhe)) {
    int idx = El1ContextIndexOf(*target);
    VcpuHostState& hs = HostStateOf(vcpu);
    if (idx >= 0) {
      if (s.is_write) {
        hs.cur_el1.regs[idx] = s.write_value;
        return TrapOutcome::Completed();
      }
      return TrapOutcome::Completed(hs.cur_el1.regs[idx]);
    }
    // Redirect target outside the switched context list (TTBR1 etc.):
    // treat the vcpu context as authoritative.
  }

  if (s.is_write) {
    WriteVel2Reg(cpu, vcpu, storage, s.write_value);
    return TrapOutcome::Completed();
  }
  return TrapOutcome::Completed(ReadVel2Reg(cpu, vcpu, storage));
}

TrapOutcome HostKvm::HandleEret(Cpu& cpu, Vcpu& vcpu) {
  // Hardware only traps eret when HCR_EL2.NV is set, which the host programs
  // exclusively for vEL2 contexts (nested_is_hyp erets are routed to
  // DeliverToVel2 by HandleExit before reaching here).
  // host-invariant: eret traps cannot come from non-vEL2 modes.
  NEVE_CHECK_MSG(vcpu.mode == VcpuMode::kVel2,
                 "eret trap outside virtual EL2");
  cpu.Compute(SwCost::kEretEmulate);
  VcpuHostState& hs = HostStateOf(vcpu);

  // The guest hypervisor's return state (vELR_EL2/vSPSR_EL2) lives in the
  // EL1 context slots (the NEVE redirect mapping; same storage under plain
  // v8.3 via trap-and-emulate).
  hs.elr = hs.cur_el1.regs[El1ContextIndexOf(RegId::kELR_EL1)];
  hs.spsr = hs.cur_el1.regs[El1ContextIndexOf(RegId::kSPSR_EL1)];
  cpu.Compute(2 * cpu.cost().mem_access);

  // Where is the guest hypervisor going? Its virtual HCR_EL2 decides:
  // VM=1 -> the nested VM under its virtual Stage-2; VM=0 -> its own kernel.
  Hcr vhcr{ReadVel2Reg(cpu, vcpu, RegId::kHCR_EL2)};
  bool to_nested = vhcr.vm();
  EnterVel1Mode(cpu, vcpu,
                to_nested ? VcpuMode::kVel1Nested : VcpuMode::kVel1Kernel);

  if (to_nested) {
    // Recursive nesting: the guest hypervisor may have programmed NV for
    // its guest, making that guest a (deeper) hypervisor.
    vcpu.nested_is_hyp = vhcr.nv();
    vcpu.nested_hcr = vhcr.bits;
    vcpu.active_nested =
        vcpu.nested_is_hyp
            ? &vcpu.nested_sw
            : (vcpu.nested2_sw.main ? &vcpu.nested2_sw : &vcpu.nested_sw);
    GuestSoftware& sw = *vcpu.active_nested;
    if (sw.main && !sw.started) {
      // First entry into this nested context: start its software image.
      SwitchIntoGuest(cpu, vcpu);
      StartGuestProgram(cpu, vcpu, sw);
      if (!vcpu.parked) {
        // The nested workload finished: hand control back to virtual EL2.
        // (In a recursive stack a deeper completion may already have done
        // so while this frame's program was unwinding.)
        SwitchOutOfGuest(cpu, vcpu);
        if (vcpu.mode != VcpuMode::kVel2) {
          EnterVel2Mode(cpu, vcpu);
        }
      }
    }
  }
  return TrapOutcome::Completed();
}

TrapOutcome HostKvm::HandleDataAbort(Cpu& cpu, Vcpu& vcpu, const Syndrome& s) {
  cpu.Compute(SwCost::kMmioDispatch);
  Ipa ipa(s.hpfar | (s.far & 0xFFF));

  if (vcpu.mode == VcpuMode::kVel1Nested) {
    // Stage-2 fault under the shadow tables: either the shadow lacks an
    // entry present in the guest hypervisor's virtual Stage-2 (fix up and
    // retry) or the guest hypervisor itself left it unmapped (forward: its
    // device, its problem).
    AttrScope attr_scope(cpu, AttrCat::kShadowS2Fixup);
    cpu.Compute(SwCost::kShadowFixup);
    // Injected Stage-2 external abort: the memory system reported an
    // uncorrectable error on the nested access. KVM's policy for SEA during
    // a guest access is to kill the VM -- model exactly that, confined.
    if (FaultInjector& fi = machine_->fault();
        FaultActive(&fi) &&
        fi.ShouldInject(FaultPoint::kShadowS2ExternalAbort, cpu.index(),
                        cpu.cycles(), ipa.value)) {
      RaiseGuestFault("s2_external_abort",
                      "injected Stage-2 external abort on nested access");
    }
    uint64_t vvttbr = ReadVel2Reg(cpu, vcpu, RegId::kVTTBR_EL2);
    GuestPhysView view(&machine_->mem(), &vcpu.vm().s2());
    ShadowS2::FixupResult result;
    {
      ScopedSpan span(cpu.obs(), cpu, "shadow_s2", "handle_fault");
      result = ShadowFor(vcpu, vvttbr).HandleFault(
          ipa, s.abort_is_write, view, Pa(vvttbr), vcpu.vm().s2());
    }
    if (ObsActive(cpu.obs())) {
      MetricsRegistry& m = cpu.obs()->metrics();
      shadow_s2_faults_.In(m).Add(1);
      switch (result) {
        case ShadowS2::FixupResult::kInstalled:
          shadow_s2_installed_.In(m).Add(1);
          break;
        case ShadowS2::FixupResult::kVirtualFault:
          shadow_s2_virtual_faults_.In(m).Add(1);
          break;
        case ShadowS2::FixupResult::kHostFault:
          break;
      }
    }
    switch (result) {
      case ShadowS2::FixupResult::kInstalled:
        return TrapOutcome::Retry();
      case ShadowS2::FixupResult::kVirtualFault:
        DeliverToVel2(cpu, vcpu, s);
        if (vcpu.mmio_retry) {
          // The guest hypervisor fixed its own translation state (e.g. a
          // recursive shadow) rather than emulating a device: replay.
          vcpu.mmio_retry = false;
          return TrapOutcome::Retry();
        }
        return TrapOutcome::Completed(vcpu.mmio_result);
      case ShadowS2::FixupResult::kHostFault:
        // The guest hypervisor's virtual Stage-2 points at an L1 IPA the
        // host never mapped (outside its RAM): guest-attributable.
        RaiseGuestFault("bad_guest_mapping",
                        "guest virtual Stage-2 maps outside the VM's memory");
    }
    return TrapOutcome::Completed();
  }

  // GICv2-style memory-mapped hypervisor control interface: the guest
  // hypervisor's GICH accesses fault here and are emulated against the same
  // virtual ICH state the system-register interface uses. NEVE cannot help
  // this path -- the reason Table 5 presumes the GICv3 interface.
  if (vcpu.vm().config().virtual_el2 && ipa.value >= kGichMmioBase &&
      ipa.value < kGichMmioBase + kPageSize) {
    AttrScope attr_scope(cpu, AttrCat::kGicEmul);
    cpu.Compute(SwCost::kVgicEmulate);
    auto reg = static_cast<RegId>((ipa.value - kGichMmioBase) / 8);
    // The guest hypervisor computed this GICH offset.
    NEVE_GUEST_CHECK(IsIchRegister(reg), "gich_oob",
                     "GICH access outside the ICH block");
    if (s.abort_is_write) {
      WriteVel2Reg(cpu, vcpu, reg, s.write_value);
      return TrapOutcome::Completed();
    }
    return TrapOutcome::Completed(ReadVel2Reg(cpu, vcpu, reg));
  }

  AttrScope attr_scope(cpu, AttrCat::kMmioEmul);
  const MmioRange* range = vcpu.vm().FindMmio(ipa);
  // The guest accessed an address its hypervisor never mapped or registered
  // as a device: real KVM delivers SIGBUS / an external abort and the VM
  // dies. Confine it the same way.
  NEVE_GUEST_CHECK(range != nullptr, "unmapped_mmio",
                   "Stage-2 fault on unmapped non-MMIO address");
  uint64_t offset = ipa.value - range->base.value;
  if (s.abort_is_write) {
    range->device->MmioWrite(cpu, offset, s.write_value);
    return TrapOutcome::Completed();
  }
  return TrapOutcome::Completed(range->device->MmioRead(cpu, offset));
}

// ---------------------------------------------------------------------------
// Virtual EL2 exception delivery
// ---------------------------------------------------------------------------

void HostKvm::DeliverToVel2(Cpu& cpu, Vcpu& vcpu, const Syndrome& s) {
  // host-invariant: callers only forward exits for virtual_el2 VMs.
  NEVE_CHECK(vcpu.vm().config().virtual_el2);
  ++vcpu.vel2_deliveries;
  AttrScope attr_scope(cpu, AttrCat::kVel2Deliver);
  cpu.Compute(SwCost::kVel2Deliver);
  ScopedSpan span(cpu.obs(), cpu, "hyp", "vel2_deliver");
  if (ObsActive(cpu.obs())) {
    vel2_deliveries_.In(cpu.obs()->metrics()).Add(1);
  }

  // An hvc from the guest hypervisor's own kernel is the return half of its
  // non-VHE kernel bounce: the mode switches and its linear flow continues.
  // Every other delivery vectors into the registered virtual EL2 handler.
  bool kernel_bounce =
      vcpu.mode == VcpuMode::kVel1Kernel && s.ec == Ec::kHvc64;

  if (vcpu.mode != VcpuMode::kVel2) {
    EnterVel2Mode(cpu, vcpu);
  }
  // Publish the virtual syndrome where the guest hypervisor will read it:
  // vESR_EL2/vFAR_EL2 are redirect-class (EL1 slots); vHPFAR_EL2 is a VM
  // register (deferred page / vcpu context).
  VcpuHostState& hs = HostStateOf(vcpu);
  hs.cur_el1.regs[El1ContextIndexOf(RegId::kESR_EL1)] = s.ToEsrBits();
  hs.cur_el1.regs[El1ContextIndexOf(RegId::kFAR_EL1)] = s.far;
  hs.cur_el1.regs[El1ContextIndexOf(RegId::kELR_EL1)] = hs.elr;
  hs.cur_el1.regs[El1ContextIndexOf(RegId::kSPSR_EL1)] = hs.spsr;
  cpu.Compute(4 * cpu.cost().sysreg_access);
  if (s.ec == Ec::kDataAbortLow) {
    WriteVel2Reg(cpu, vcpu, RegId::kHPFAR_EL2, s.hpfar);
  }
  hs.elr = 0;  // virtual vector entry
  hs.spsr = static_cast<uint64_t>(El::kEl2);

  if (!kernel_bounce) {
    GuestSoftware& sw = vcpu.main_sw;
    // A guest hypervisor that takes exits before registering its vector is
    // a broken guest hypervisor.
    NEVE_GUEST_CHECK(sw.vel2 != nullptr, "no_vel2_vector",
                     "no virtual EL2 vector registered");
    SwitchIntoGuest(cpu, vcpu);
    vcpu.vel2_handler_active = true;
    GuestEnv env(&cpu, &vcpu);
    AttrScope guest_scope(cpu, LayerOf(vcpu.mode), AttrCat::kGuestCompute);
    cpu.RunLowerEl(El::kEl1, [&] { sw.vel2->OnVirtualExit(env, s); });
    vcpu.vel2_handler_active = false;
  }
  // Otherwise the guest hypervisor's linear flow continues after its
  // trapped instruction.
}

TrapOutcome HostKvm::HandleTlbi(Cpu& cpu, Vcpu& vcpu) {
  // Trapped guest TLB maintenance -- armed only for multi-vCPU virtual_el2
  // VMs (SwitchIntoGuest). Architecturally the guest hypervisor's TLBI
  // broadcasts to the inner-shareable domain, so the host must discard
  // *every* vCPU's shadow Stage-2 trees for this VM (each vCPU caches its
  // own shadows per virtual VTTBR) and drop the hardware TLBs of every pcpu
  // a sibling is loaded on, not just the trapping CPU's.
  AttrScope attr_scope(cpu, AttrCat::kShadowS2Fixup);
  cpu.Compute(SwCost::kShadowFixup);
  Vm& vm = vcpu.vm();
  std::vector<ShadowS2*> shadows;
  for (int i = 0; i < vm.num_vcpus(); ++i) {
    for (auto& [vvttbr, shadow] : vm.vcpu(i).shadows) {
      shadows.push_back(shadow.get());
    }
  }
  int flushed = mem::FlushShadows(shadows);
  if (Observability& obs = machine_->obs(); ObsActive(&obs)) {
    obs.metrics().Counter("hyp.tlbi_broadcasts").Add(1);
    obs.metrics().Counter("hyp.tlbi_shadow_flushes").Add(flushed);
  }
  SmpEngine* eng = SmpEngine::Current();
  for (int i = 0; i < vm.num_vcpus(); ++i) {
    int p = vm.vcpu(i).loaded_on_pcpu;
    if (p < 0 || p == cpu.index()) {
      continue;
    }
    if (eng != nullptr && p != SmpEngine::CurrentLane()) {
      Cpu* sibling = &machine_->cpu(p);
      eng->Defer(p, cpu.cycles(), [sibling] { sibling->DropTlb(); });
    } else {
      machine_->cpu(p).DropTlb();
    }
  }
  return TrapOutcome::Completed();
}

// ---------------------------------------------------------------------------
// Interrupts
// ---------------------------------------------------------------------------

void HostKvm::EmulateSgi(Cpu& cpu, Vcpu& vcpu, uint64_t sgir) {
  AttrScope attr_scope(cpu, AttrCat::kGicEmul);
  cpu.Compute(SwCost::kVgicSgi);
  // The guest chose this ICC_SGI1R value. SgiR's accessors would silently
  // truncate reserved bits, so reject malformed encodings and targets beyond
  // the VM's own vCPUs up front as a confined guest fault.
  NEVE_GUEST_CHECK(SgiR::Encodable(sgir), "sgi_malformed",
                   "ICC_SGI1R write with reserved bits set");
  uint16_t mask = SgiR::TargetMask(sgir);
  uint32_t virq = kSgiBase + SgiR::SgiId(sgir);
  Vm& vm = vcpu.vm();
  NEVE_GUEST_CHECK((mask >> vm.num_vcpus()) == 0, "sgi_bad_target",
                   "SGI target mask addresses nonexistent vCPUs");
  for (int t = 0; t < vm.num_vcpus(); ++t) {
    if ((mask >> t) & 1) {
      InjectVirq(vm.vcpu(t), virq, &cpu);
    }
  }
}

void HostKvm::InjectVirq(Vcpu& vcpu, uint32_t virq, Cpu* raiser,
                         uint64_t raiser_cycles) {
  if (Observability& obs = machine_->obs(); ObsActive(&obs)) {
    virq_injections_.In(obs.metrics()).Add(1);
    if (raiser != nullptr) {
      obs.tracer().Instant(raiser->index(), "gic", "inject_virq",
                           raiser->cycles(), "intid", virq);
    }
  }
  if (SmpEngine* eng = SmpEngine::Current(); eng != nullptr) {
    int target_lane =
        vcpu.loaded_on_pcpu >= 0 ? vcpu.loaded_on_pcpu : vcpu.id();
    if (target_lane != SmpEngine::CurrentLane()) {
      // Cross-lane injection under the engine: defer the enqueue (and the
      // event-time propagation the kick SGI would have carried) to the next
      // merge point. No kick -- delivery happens when the target lane wakes
      // from its rendezvous; the merge *is* the kick.
      uint64_t rc = raiser != nullptr ? raiser->cycles() : raiser_cycles;
      Vcpu* target = &vcpu;
      Machine* m = machine_;
      eng->Defer(target_lane, rc, [m, target, target_lane, virq, rc] {
        target->pending_virq.push_back(virq);
        ++target->virqs_enqueued;
        m->PropagateEventTime(m->cpu(target_lane), rc);
      });
      return;
    }
  }
  vcpu.pending_virq.push_back(virq);
  ++vcpu.virqs_enqueued;
  int target_pcpu = vcpu.loaded_on_pcpu;
  if (target_pcpu < 0) {
    return;  // delivered when the vcpu is next loaded
  }
  if (raiser != nullptr && raiser->index() == target_pcpu) {
    return;  // picked up by the next guest entry on this pcpu
  }
  if (raiser != nullptr) {
    // Kick the remote pcpu with a physical SGI; the GIC sink runs the
    // receiver-side delivery synchronously with time propagation.
    raiser->SysRegWrite(SysReg::kICC_SGI1R_EL1,
                        SgiR::Make(static_cast<uint16_t>(1u << target_pcpu),
                                   kKickSgi));
  } else {
    OnPhysIrq(target_pcpu, virq, raiser_cycles);
  }
}

void HostKvm::OnPhysIrq(int target_pcpu, uint32_t intid,
                        uint64_t raiser_cycles) {
  Cpu& cpu = machine_->cpu(target_pcpu);
  machine_->PropagateEventTime(cpu, raiser_cycles);
  PcpuState& ps = pcpu_.at(target_pcpu);
  Vcpu* vcpu = ps.current;
  if (vcpu == nullptr) {
    // Interrupt while the host runs: triage only.
    AttrScope attr_scope(cpu, AttrCat::kTrapIrq);
    cpu.Compute(SwCost::kIrqTriageHost);
    return;
  }
  // host-invariant: ps.current is only set while guest state is loaded
  // (RunVcpu / confinement keep the two coherent).
  NEVE_CHECK(ps.guest_loaded);

  // Hardware IRQ exit from the running guest. The receiving pcpu's RunVcpu
  // frame is long gone (a parked vcpu's entry returned), so push a full
  // context frame rather than inheriting whatever is on top.
  AttrScope attr_scope(cpu, vcpu->vm().id(), vcpu->id(), AttrLayer::kL0,
                       AttrCat::kTrapIrq);
  cpu.Compute(cpu.cost().trap_entry);
  cpu.trace().OnTrapToEl2(Syndrome::Irq(intid), cpu.cycles());
  SwitchOutOfGuest(cpu, *vcpu);
  // Acknowledge and complete the physical interrupt on the host CPU
  // interface before routing it as a virtual interrupt.
  cpu.Compute(2 * cpu.cost().gic_vcpuif_access);
  cpu.Compute(SwCost::kIrqTriageHost);

  // Delivery executes guest code -- the L1's virtual-IRQ handler below, the
  // guest's IRQ vector in DeliverLoadedLrToGuestSw -- outside any RunVcpu
  // frame: a parked vcpu's entry returned long ago and restored its
  // deadline. Arm the trap-livelock watchdog for this episode exactly as
  // RunVcpu arms its entry; without it an injected trap storm inside
  // delivery spins unbounded (kTrapLoop's arming check sees only the
  // configured budget, not whether a deadline is live).
  uint64_t saved_deadline = cpu.watchdog_deadline();
  uint64_t budget = machine_->config().fault.watchdog_budget;
  if (budget > 0) {
    cpu.SetWatchdogDeadline(cpu.cycles() + budget);
  }
  try {
    DeliverVirqsToLoadedVcpu(cpu, *vcpu);
    if (!ps.guest_loaded) {
      SwitchIntoGuest(cpu, *vcpu);
    }
    cpu.Compute(cpu.cost().trap_return);
    DeliverLoadedLrToGuestSw(cpu, *vcpu);
  } catch (...) {
    cpu.SetWatchdogDeadline(saved_deadline);
    throw;
  }
  cpu.SetWatchdogDeadline(saved_deadline);
}

void HostKvm::DeliverVirqsToLoadedVcpu(Cpu& cpu, Vcpu& vcpu) {
  if (vcpu.pending_virq.empty()) {
    return;
  }
  if (vcpu.vm().config().virtual_el2) {
    // The guest hypervisor owns interrupt delivery for everything below it:
    // vector into its virtual EL2. The pending interrupt reaches its
    // hardware list registers on the switch into virtual EL2.
    DeliverToVel2(cpu, vcpu, Syndrome::Irq(vcpu.pending_virq.front()));
    return;
  }
  // Plain VM: the next SwitchIntoGuest programs the list registers.
}

void HostKvm::DeliverLoadedLrToGuestSw(Cpu& cpu, Vcpu& vcpu) {
  // A pending list register plus a registered guest IRQ vector means the
  // guest takes a virtual interrupt now.
  uint32_t intid = kSpuriousIntid;
  for (int i = 0; i < machine_->gic().num_list_regs(); ++i) {
    uint64_t lr = cpu.PeekReg(IchListRegister(i));
    if (ListReg::Pending(lr)) {
      intid = ListReg::Intid(lr);
      break;
    }
  }
  if (intid == kSpuriousIntid) {
    return;
  }
  GuestSoftware& sw = vcpu.SoftwareFor(vcpu.mode);
  if (!sw.irq) {
    return;
  }
  GuestEnv env(&cpu, &vcpu);
  AttrScope attr_scope(cpu, LayerOf(vcpu.mode), AttrCat::kGuestCompute);
  cpu.RunLowerEl(El::kEl1, [&] {
    cpu.Compute(cpu.cost().el1_vector_entry);
    sw.irq(env, intid);
    cpu.Compute(cpu.cost().el1_eret);
  });
}

}  // namespace neve
