#include "src/hyp/guest_kvm.h"

#include "src/arch/vncr.h"
#include "src/base/bits.h"
#include "src/base/status.h"
#include "src/fault/fault.h"
#include "src/fault/guest_fault.h"
#include "src/gic/gic.h"
#include "src/sim/smp.h"

namespace neve {
namespace {

// Layout of the guest hypervisor's own guest-physical space: nested VM RAM
// carve-outs start at one quarter of its memory (below is "its kernel"),
// page tables come from the top eighth.
constexpr uint64_t kNestedRamFraction = 4;
constexpr uint64_t kTableFraction = 8;

// The guest hypervisor's kick SGI for its own vCPUs.
constexpr uint8_t kNestedKickSgi = 2;

// Enqueues `virq` on an L2 vcpu. Under the SMP engine a cross-lane enqueue
// is deferred to the next merge point (the L2 vcpu's lane is the L1 virtual
// CPU it is loaded on; lane == pcpu == vcpu index). Event-time propagation
// rides the host-level kick SGI's own deferral, so only the queue mutation
// is deferred here.
void EnqueueNestedVirq(GuestEnv& env, Vcpu& target, int target_pv,
                       uint32_t virq) {
  if (SmpEngine* eng = SmpEngine::Current(); eng != nullptr) {
    int target_lane = target_pv >= 0 ? target_pv : target.id();
    if (target_lane != SmpEngine::CurrentLane()) {
      Vcpu* t = &target;
      eng->Defer(target_lane, env.cpu().cycles(), [t, virq] {
        t->pending_virq.push_back(virq);
        ++t->virqs_enqueued;
      });
      return;
    }
  }
  target.pending_virq.push_back(virq);
  ++target.virqs_enqueued;
}

}  // namespace

GuestKvm::GuestKvm(GuestEnv* boot_env, Machine* machine,
                   const GuestKvmConfig& config)
    : GuestKvm(boot_env, machine, config, &machine->mem(),
               &boot_env->vcpu().vm().s2(),
               boot_env->vcpu().vm().config().ram_size) {}

GuestKvm::GuestKvm(GuestEnv* boot_env, Machine* machine,
                   const GuestKvmConfig& config, MemIo* parent_space,
                   const Stage2Table* my_s2, uint64_t my_ram_size)
    : machine_(machine),
      config_(config),
      view_(parent_space, my_s2),
      table_alloc_(&view_, Pa(my_ram_size - my_ram_size / kTableFraction),
                   my_ram_size / kTableFraction),
      next_nested_ram_(my_ram_size / kNestedRamFraction),
      nested_ram_end_(my_ram_size - my_ram_size / kTableFraction) {
  // host-invariant: construction wiring supplied by the embedder.
  NEVE_CHECK(machine != nullptr);
  pvcpu_.resize(boot_env->vcpu().vm().num_vcpus());
  // Sanity: we believe we run in EL2 (the NV disguise) -- a hypervisor
  // booting in EL1 would bail out here, which is exactly the pre-ARMv8.3
  // crash scenario of section 2. The disguise holds transitively for an L2
  // hypervisor under recursive nesting. This is guest code bailing out, so
  // it dies as a guest: the VM is killed, the machine lives.
  NEVE_GUEST_CHECK(boot_env->CurrentEl() == El::kEl2, "no_nv_boot",
                   "guest hypervisor does not see EL2: no NV support?");
  boot_env->SetVel2Handler(this);
  // Hypervisor boot: vector base, hyp configuration (trapped or deferred
  // depending on the architecture; boot cost is not part of any benchmark).
  boot_env->WriteSys(SysReg::kVBAR_EL2, 0xFFFF'0000'0000'0800ull);
  // RES1 bits with M clear: the simulated guest hypervisor runs identity
  // mapped (its Stage-1 tables are not modeled; under NEVE/NV this write
  // reaches the hardware SCTLR_EL1 via redirection, so an enabled MMU here
  // would demand real tables).
  boot_env->WriteSys(SysReg::kSCTLR_EL2, 0x30C5'0830ull);
  boot_env->WriteSys(SysReg::kTPIDR_EL2, 0x1000 + boot_env->vcpu().id());
}

void GuestKvm::AttachVcpu(GuestEnv& env) {
  NEVE_GUEST_CHECK(env.CurrentEl() == El::kEl2, "no_nv_boot",
                   "secondary vcpu does not see EL2");
  env.SetVel2Handler(this);
  env.WriteSys(SysReg::kVBAR_EL2, 0xFFFF'0000'0000'0800ull);
  env.WriteSys(SysReg::kTPIDR_EL2, 0x1000 + env.vcpu().id());
}

GuestKvm::PvcpuState& GuestKvm::PstateOf(GuestEnv& env) {
  return pvcpu_.at(env.vcpu().id());
}

GuestKvm::NestedVcpuState& GuestKvm::NstateOf(Vcpu& vcpu) {
  MutexLock lock(nstate_mu_);
  auto& slot = nstate_[&vcpu];
  if (slot == nullptr) {
    slot = std::make_unique<NestedVcpuState>();
    slot->spsr = static_cast<uint64_t>(El::kEl1);
  }
  return *slot;
}

Vm* GuestKvm::CreateVm(const VmConfig& config) {
  // The guest hypervisor over-committing its own RAM is its bug.
  NEVE_GUEST_CHECK(next_nested_ram_ + config.ram_size <= nested_ram_end_,
                   "guest_oom",
                   "guest hypervisor out of memory for nested VMs");
  Pa ram_base(next_nested_ram_);
  next_nested_ram_ += config.ram_size;
  vms_.push_back(
      std::make_unique<Vm>(config, ram_base, &view_, &table_alloc_));
  return vms_.back().get();
}

void GuestKvm::RunVcpu(GuestEnv& env, Vcpu& vcpu, GuestMain program) {
  PvcpuState& ps = PstateOf(env);
  // host-invariant: nested scheduling is sequenced by the workload harness.
  NEVE_CHECK_MSG(ps.running == nullptr, "virtual CPU already runs a vcpu");
  ps.running = &vcpu;
  vcpu.loaded_on_pcpu = env.vcpu().id();

  // Recursive nesting: our guest is itself a hypervisor.
  if (vcpu.vm().config().virtual_el2) {
    NestedVcpuState& ns = NstateOf(vcpu);
    if (ns.rec == nullptr) {
      ns.rec = std::make_unique<RecState>();
      ns.rec->shadow = std::make_unique<ShadowS2>(&view_, &table_alloc_);
      ns.rec->shadow->SetFaultInjector(&machine_->fault());
      if (vcpu.vm().config().expose_neve) {
        // The deferred access page for our guest lives in *our* memory; the
        // host translates its address through Stage-2 when emulating NEVE
        // for the deeper level (section 6.2).
        NEVE_GUEST_CHECK(next_nested_ram_ + kPageSize <= nested_ram_end_,
                         "guest_oom",
                         "guest hypervisor out of memory for a deferred page");
        ns.rec->page_ipa = Pa(next_nested_ram_);
        ns.rec->has_page = true;
        next_nested_ram_ += kPageSize;
      }
    }
  }

  env.SetNestedProgram(std::move(program));
  env.Compute(SwCost::kVcpuLoadPut);
  SwitchIntoNested(env, vcpu);
  env.EretToGuest();
  // Control returns here only when the nested program finished or parked;
  // every intermediate exit arrived through OnVirtualExit instead.
  if (env.parked()) {
    return;
  }
  env.Compute(SwCost::kVcpuLoadPut);
  ps.running = nullptr;
  vcpu.loaded_on_pcpu = -1;
}

void GuestKvm::SwitchIntoNested(GuestEnv& env, Vcpu& vcpu) {
  Cpu& cpu = env.cpu();
  PvcpuState& ps = PstateOf(env);
  NestedVcpuState& ns = NstateOf(vcpu);

  env.Compute(SwCost::kRunLoop);
  env.Compute(SwCost::kGprSwitch);
  TouchPerCpuData(cpu);
  if (!config_.vhe) {
    // Split design: the kernel's EL1 context must leave the hardware before
    // the nested VM's context is loaded.
    SaveEl1Context(cpu, /*vhe=*/false, &ps.kernel_el1);
    SaveExtEl1Context(cpu, /*vhe=*/false, &ps.kernel_ext);
  }
  RestoreEl1Context(cpu, config_.vhe, ns.el1);
  RestoreExtEl1Context(cpu, config_.vhe, ns.ext);
  RestorePmuDebugState(cpu, ns.pmu);

  VgicContext vg;
  while (!vcpu.pending_virq.empty() &&
         vg.lrs_in_use < machine_->gic().num_list_regs()) {
    vg.lr[vg.lrs_in_use++] = ListReg::MakePending(vcpu.pending_virq.front());
    vcpu.pending_virq.pop_front();
  }
  if (config_.gicv2_mmio) {
    Gicv2RestoreVgic(env, vg);
  } else {
    RestoreVgic(cpu, vg);
  }

  RestoreGuestTimer(cpu, config_.vhe, ps.timer, /*cntvoff=*/0);
  if (config_.vhe) {
    // A VHE hypervisor arms its own EL2 virtual timer through EL1 access
    // instructions (redirected by E2H; they reach the EL1 virtual timer
    // when deprivileged -- section 7.1).
    (void)cpu.SysRegRead(SysReg::kCNTV_CTL_EL0);
    cpu.SysRegWrite(SysReg::kCNTV_CTL_EL0, 0);
  }

  // Trap controls for the context being entered. A plain guest (and a
  // recursive stack's vv-kernel) runs under our Stage-2 for its VM; a guest
  // hypervisor in virtual-virtual EL2 additionally gets NV (and, if we
  // expose NEVE to it, our virtual VNCR); its own guest (the L3) runs under
  // the recursive shadow we maintain.
  uint64_t vhcr = Hcr::Make({HcrBits::kVm, HcrBits::kImo, HcrBits::kFmo});
  uint64_t vttbr = vcpu.vm().s2().root().value;
  if (ns.rec != nullptr) {
    switch (ns.rec->mode) {
      case RecState::VvMode::kVvel2:
        vhcr = SetBit(vhcr, HcrBits::kNv);
        if (!vcpu.vm().config().guest_vhe) {
          vhcr = SetBit(vhcr, HcrBits::kNv1);
        }
        cpu.SysRegWrite(
            SysReg::kVNCR_EL2,
            ns.rec->has_page
                ? VncrEl2::Make(ns.rec->page_ipa.value, true).bits()
                : 0);
        break;
      case RecState::VvMode::kVvKernel:
        cpu.SysRegWrite(SysReg::kVNCR_EL2, 0);
        break;
      case RecState::VvMode::kVvNested:
        vttbr = ns.rec->shadow->table().root().value;
        cpu.SysRegWrite(SysReg::kVNCR_EL2, 0);
        break;
    }
  }
  WriteGuestTrapControls(cpu, vhcr, vttbr, static_cast<uint64_t>(vcpu.id()));
  WriteReturnState(cpu, ns.elr, ns.spsr);
}

void GuestKvm::SwitchOutOfNested(GuestEnv& env, Vcpu& vcpu) {
  Cpu& cpu = env.cpu();
  PvcpuState& ps = PstateOf(env);
  NestedVcpuState& ns = NstateOf(vcpu);

  TouchPerCpuData(cpu);
  env.Compute(SwCost::kGprSwitch);
  ExitInfo info = ReadExitInfo(cpu);
  ns.elr = info.elr;
  ns.spsr = info.spsr;
  SaveEl1Context(cpu, config_.vhe, &ns.el1);
  SaveExtEl1Context(cpu, config_.vhe, &ns.ext);
  SavePmuDebugState(cpu, &ns.pmu);

  VgicContext vg;
  vg.lrs_in_use = machine_->gic().num_list_regs() == 0 ? 0 : 1;
  // Read back the first list register (the common case: at most one
  // interrupt in flight) and requeue anything still pending.
  if (config_.gicv2_mmio) {
    Gicv2SaveVgic(env, &vg);
  } else {
    SaveVgic(cpu, &vg);
  }
  if (ListReg::Pending(vg.lr[0])) {
    vcpu.pending_virq.push_front(ListReg::Intid(vg.lr[0]));
  }

  SaveGuestTimer(cpu, config_.vhe, &ps.timer);
  if (!config_.vhe) {
    RestoreEl1Context(cpu, /*vhe=*/false, ps.kernel_el1);
    RestoreExtEl1Context(cpu, /*vhe=*/false, ps.kernel_ext);
  }
  WriteHostTrapControls(cpu, /*host_hcr=*/0);
  env.Compute(SwCost::kRunLoop);
}

void GuestKvm::OnVirtualExit(GuestEnv& env, const Syndrome& s) {
  PvcpuState& ps = PstateOf(env);
  // host-invariant: the host only vectors here while RunVcpu has a nested
  // vcpu loaded on this virtual CPU.
  NEVE_CHECK_MSG(ps.running != nullptr,
                 "virtual exit with no nested vcpu loaded");
  Vcpu& vcpu = *ps.running;
  ++vcpu.exits;

  SwitchOutOfNested(env, vcpu);
  env.Compute(SwCost::kExitDispatch);

  if (!config_.vhe) {
    // Split design: exit handling runs in the kernel at virtual EL1. The
    // eret below and the hvc after the handler both trap to the host --
    // the two extra exits per handled event unique to non-VHE guests.
    env.EretToGuest();
    env.Compute(SwCost::kGuestKernelWork);
    HandleNestedExit(env, vcpu, s);
    env.Hvc(kHvcKernelToHyp);
  } else {
    env.Compute(SwCost::kGuestKernelWork);
    HandleNestedExit(env, vcpu, s);
  }

  SwitchIntoNested(env, vcpu);
  env.EretToGuest();
  // Contract: the host resumed the nested VM; this vector must unwind now.
}

void GuestKvm::HandleNestedExit(GuestEnv& env, Vcpu& vcpu, const Syndrome& s) {
  if (FaultInjector& fi = machine_->fault(); FaultActive(&fi)) {
    // Injected guest-hypervisor panic: the L1's exit handler hits its own
    // BUG() while servicing this exit. The whole L1 VM (and everything
    // nested inside it) dies; the host and sibling VMs do not.
    if (fi.ShouldInject(FaultPoint::kGuestHypPanic, env.cpu().index(),
                        env.cpu().cycles(), static_cast<uint64_t>(s.ec))) {
      RaiseGuestFault("guest_hyp_panic",
                      "injected guest hypervisor panic handling " +
                          s.ToString());
    }
    // Injected runaway trap storm: the L1 spins issuing hypercalls forever.
    // Only fires when the trap-livelock watchdog is armed (ShouldInject
    // refuses otherwise), which converts the storm into a confined kill.
    if (fi.ShouldInject(FaultPoint::kTrapLoop, env.cpu().index(),
                        env.cpu().cycles())) {
      for (;;) {
        env.Hvc(kHvcTestCall);
      }
    }
  }
  if (NstateOf(vcpu).rec != nullptr) {
    HandleRecursiveExit(env, vcpu, s);
    return;
  }
  switch (s.ec) {
    case Ec::kHvc64:
      env.Compute(SwCost::kHypercall);
      return;
    case Ec::kSysReg:
      if (SysRegStorage(s.sysreg) == RegId::kICC_SGI1R_EL1) {
        EmulateNestedSgi(env, vcpu, s.write_value);
        return;
      }
      env.Compute(SwCost::kSysregEmulate);
      return;
    case Ec::kDataAbortLow: {
      // MMIO from the nested VM: our backend emulates the device.
      env.Compute(SwCost::kMmioDispatch);
      if (mmio_backend_ != nullptr) {
        uint64_t value = s.abort_is_write
                             ? (mmio_backend_->MmioWrite(env.cpu(), s.far & 0xFFF,
                                                         s.write_value),
                                0)
                             : mmio_backend_->MmioRead(env.cpu(), s.far & 0xFFF);
        env.CompleteMmio(value);
      } else {
        env.Compute(SwCost::kDeviceIo);
        env.CompleteMmio(0xD0D0'BEEF);
      }
      return;
    }
    case Ec::kIrq: {
      // Acknowledge on the hardware CPU interface (accelerated, no trap).
      // A device interrupt means our virtio backend has data for the nested
      // VM: queue it for injection. A kick SGI carries no payload -- the
      // pending virtual interrupt was queued by the sender's vgic emulation
      // -- and rides the next entry's list registers either way.
      uint64_t intid = env.ReadSys(SysReg::kICC_IAR1_EL1);
      env.Compute(SwCost::kVirqInject);
      if (intid == kSpuriousIntid) {
        // Spurious acknowledge (1023): possible on real hardware when the
        // interrupt vanished between exit and ack -- and injectable via the
        // kGicSpuriousIrq fault point. Nothing to queue, nothing to EOI.
        return;
      }
      if (intid >= kSpiBase) {
        env.Compute(SwCost::kDeviceIo);  // backend RX processing
        vcpu.pending_virq.push_back(static_cast<uint32_t>(intid));
        ++vcpu.virqs_enqueued;
      }
      env.WriteSys(SysReg::kICC_EOIR1_EL1, intid);
      return;
    }
    case Ec::kWfx:
      env.Compute(SwCost::kHypercall);
      return;
    default:
      // The guest hypervisor's exit handler has no case for this: its bug.
      RaiseGuestFault("unhandled_exit",
                      "guest hypervisor: unhandled exit " + s.ToString());
  }
}

void GuestKvm::EmulateNestedSgi(GuestEnv& env, Vcpu& sender, uint64_t sgir) {
  env.Compute(SwCost::kVgicSgi);
  // The nested VM chose this ICC_SGI1R value (the host forwarded the trap
  // to us). SgiR's accessors would silently truncate reserved bits, so
  // reject malformed encodings and out-of-range targets as its bug.
  NEVE_GUEST_CHECK(SgiR::Encodable(sgir), "sgi_malformed",
                   "nested ICC_SGI1R write with reserved bits set");
  uint16_t mask = SgiR::TargetMask(sgir);
  uint32_t virq = kSgiBase + SgiR::SgiId(sgir);
  Vm& vm = sender.vm();
  NEVE_GUEST_CHECK((mask >> vm.num_vcpus()) == 0, "sgi_bad_target",
                   "nested SGI target mask addresses nonexistent vCPUs");
  for (int t = 0; t < vm.num_vcpus(); ++t) {
    if (((mask >> t) & 1) == 0) {
      continue;
    }
    Vcpu& target = vm.vcpu(t);
    int target_pv = target.loaded_on_pcpu;  // our virtual CPU id
    EnqueueNestedVirq(env, target, target_pv, virq);
    if (target_pv < 0 || target_pv == env.vcpu().id()) {
      continue;  // loaded here: rides the next entry's list registers
    }
    // Kick the virtual CPU running the target: send our own SGI, which
    // traps to the host and fans out as a physical IPI.
    env.WriteSys(SysReg::kICC_SGI1R_EL1,
                 SgiR::Make(static_cast<uint16_t>(1u << target_pv),
                            kNestedKickSgi));
  }
}

// ---------------------------------------------------------------------------
// GICv2-style memory-mapped hypervisor control interface: the same register
// sequence as Save/RestoreVgic, but through MMIO. Every access Stage-2
// faults to the host -- under NEVE as much as under plain ARMv8.3, since a
// memory-mapped interface has no system registers to defer or cache.
// ---------------------------------------------------------------------------

namespace {

Va GichMmio(RegId reg) {
  return Va(kGichMmioBase + DeferredPageOffset(reg));
}

}  // namespace

void GuestKvm::Gicv2SaveVgic(GuestEnv& env, VgicContext* ctx) {
  ctx->vmcr = env.Load(GichMmio(RegId::kICH_VMCR_EL2));
  (void)env.Load(GichMmio(RegId::kICH_VTR_EL2));
  (void)env.Load(GichMmio(RegId::kICH_ELRSR_EL2));
  (void)env.Load(GichMmio(RegId::kICH_EISR_EL2));
  for (int i = 0; i < ctx->lrs_in_use; ++i) {
    ctx->lr[i] = env.Load(GichMmio(IchListRegister(i)));
  }
  if (ctx->lrs_in_use > 0) {
    (void)env.Load(GichMmio(RegId::kICH_AP1R0_EL2));
  }
  env.Store(GichMmio(RegId::kICH_HCR_EL2), 0);
}

void GuestKvm::Gicv2RestoreVgic(GuestEnv& env, const VgicContext& ctx) {
  env.Store(GichMmio(RegId::kICH_VMCR_EL2), ctx.vmcr);
  for (int i = 0; i < ctx.lrs_in_use; ++i) {
    env.Store(GichMmio(IchListRegister(i)), ctx.lr[i]);
  }
  if (ctx.lrs_in_use > 0) {
    env.Store(GichMmio(RegId::kICH_AP1R0_EL2), 0);
  }
  env.Store(GichMmio(RegId::kICH_HCR_EL2), 1);
}

// ---------------------------------------------------------------------------
// Recursive nesting (section 6.2): this hypervisor playing the host's role
// for its own guest hypervisor (the L2), which runs an L3.
// ---------------------------------------------------------------------------

namespace {

// True when the L2's virtual-virtual EL2 state of `reg` lives in the
// deferred access page this hypervisor provides (mirrors the host's rule).
bool VvUsesDeferredSlot(RegId reg, bool l2_vhe) {
  switch (RegNeveClass(reg)) {
    case NeveClass::kDeferred:
    case NeveClass::kTrapOnWrite:
    case NeveClass::kGicCached:
      return true;
    case NeveClass::kRedirectOrTrap:
      return !l2_vhe;
    default:
      return false;
  }
}

}  // namespace

uint64_t GuestKvm::ReadVv(GuestEnv& env, Vcpu& vcpu, RegId reg) {
  NestedVcpuState& ns = NstateOf(vcpu);
  if (ns.rec->has_page &&
      VvUsesDeferredSlot(reg, vcpu.vm().config().guest_vhe)) {
    // The page lives in our memory: a plain (Stage-2 translated) load.
    return env.Load(Va(ns.rec->page_ipa.value + DeferredPageOffset(reg)));
  }
  env.Compute(env.cpu().cost().mem_access);
  return ns.rec->vregs[static_cast<size_t>(reg)];
}

void GuestKvm::WriteVv(GuestEnv& env, Vcpu& vcpu, RegId reg, uint64_t value) {
  NestedVcpuState& ns = NstateOf(vcpu);
  if (ns.rec->has_page &&
      VvUsesDeferredSlot(reg, vcpu.vm().config().guest_vhe)) {
    env.Store(Va(ns.rec->page_ipa.value + DeferredPageOffset(reg)), value);
    return;
  }
  env.Compute(env.cpu().cost().mem_access);
  ns.rec->vregs[static_cast<size_t>(reg)] = value;
}

void GuestKvm::StashVvel1(GuestEnv& env, Vcpu& vcpu) {
  NestedVcpuState& ns = NstateOf(vcpu);
  std::span<const RegId> regs = VmEl1RegIds();
  for (int i = 0; i < kNumVmEl1Regs; ++i) {
    WriteVv(env, vcpu, regs[i], ns.el1.regs[i]);
  }
}

void GuestKvm::LoadVvel1(GuestEnv& env, Vcpu& vcpu) {
  NestedVcpuState& ns = NstateOf(vcpu);
  std::span<const RegId> regs = VmEl1RegIds();
  for (int i = 0; i < kNumVmEl1Regs; ++i) {
    ns.el1.regs[i] = ReadVv(env, vcpu, regs[i]);
  }
}

void GuestKvm::HandleRecursiveExit(GuestEnv& env, Vcpu& vcpu,
                                   const Syndrome& s) {
  RecState& rec = *NstateOf(vcpu).rec;
  switch (rec.mode) {
    case RecState::VvMode::kVvel2:
      // Exits by the L2 hypervisor itself.
      switch (s.ec) {
        case Ec::kSysReg:
          EmulateVvSysReg(env, vcpu, s);
          return;
        case Ec::kEretTrap:
          EmulateVvEret(env, vcpu);
          return;
        case Ec::kHvc64:
          env.Compute(SwCost::kHypercall);  // the L2's hypercall to us
          return;
        case Ec::kDataAbortLow:
          env.Compute(SwCost::kMmioDispatch + SwCost::kDeviceIo);
          env.CompleteMmio(0xD0D0'BEEF);
          return;
        default:
          RaiseGuestFault("unhandled_exit",
                          "recursive vvEL2 exit: " + s.ToString());
      }
      return;

    case RecState::VvMode::kVvKernel:
      // The L2's kernel at virtual-virtual EL1.
      if (s.ec == Ec::kHvc64 && env.vcpu().deferred_vector_active) {
        // Kernel -> lowvisor bounce in the L2's linear flow: swap the
        // execution context back to vvEL2 and let its code continue.
        env.Compute(SwCost::kVel2Deliver);
        StashVvel1(env, vcpu);
        NstateOf(vcpu).el1 = rec.vvel2_exec;
        env.Compute(kNumVmEl1Regs * env.cpu().cost().mem_access);
        rec.mode = RecState::VvMode::kVvel2;
        return;
      }
      ForwardToVvel2(env, vcpu, s);
      return;

    case RecState::VvMode::kVvNested:
      // Exits from the L3 guest: they belong to the L2 hypervisor.
      if (s.ec == Ec::kDataAbortLow) {
        FixRecursiveShadowFault(env, vcpu, s);
        return;
      }
      ForwardToVvel2(env, vcpu, s);
      return;
  }
}

void GuestKvm::EmulateVvSysReg(GuestEnv& env, Vcpu& vcpu, const Syndrome& s) {
  RegId storage = SysRegStorage(s.sysreg);
  env.Compute(SwCost::kSysregEmulate);

  // Redirect-class registers live in the L2's (currently switched-out)
  // execution context, mirroring the host's emulation one level up.
  if (std::optional<RegId> target = RegRedirectTarget(storage);
      target.has_value() &&
      (RegNeveClass(storage) != NeveClass::kRedirectOrTrap ||
       vcpu.vm().config().guest_vhe)) {
    int idx = El1ContextIndexOf(*target);
    if (idx >= 0) {
      NestedVcpuState& ns = NstateOf(vcpu);
      if (s.is_write) {
        ns.el1.regs[idx] = s.write_value;
      } else {
        env.CompleteMmio(ns.el1.regs[idx]);
      }
      return;
    }
  }
  if (s.is_write) {
    WriteVv(env, vcpu, storage, s.write_value);
    return;
  }
  env.CompleteMmio(ReadVv(env, vcpu, storage));
}

void GuestKvm::EmulateVvEret(GuestEnv& env, Vcpu& vcpu) {
  NestedVcpuState& ns = NstateOf(vcpu);
  RecState& rec = *ns.rec;
  env.Compute(SwCost::kEretEmulate);
  ns.elr = ns.el1.regs[El1ContextIndexOf(RegId::kELR_EL1)];
  ns.spsr = ns.el1.regs[El1ContextIndexOf(RegId::kSPSR_EL1)];
  Hcr vvhcr{ReadVv(env, vcpu, RegId::kHCR_EL2)};
  // Swap the vvEL2 execution context out for the target vv-EL1 context.
  rec.vvel2_exec = ns.el1;
  env.Compute(kNumVmEl1Regs * env.cpu().cost().mem_access);
  LoadVvel1(env, vcpu);
  rec.mode = vvhcr.vm() ? RecState::VvMode::kVvNested
                        : RecState::VvMode::kVvKernel;
}

void GuestKvm::ForwardToVvel2(GuestEnv& env, Vcpu& vcpu, const Syndrome& s) {
  NestedVcpuState& ns = NstateOf(vcpu);
  RecState& rec = *ns.rec;
  env.Compute(SwCost::kVel2Deliver);
  if (rec.mode != RecState::VvMode::kVvel2) {
    StashVvel1(env, vcpu);
    ns.el1 = rec.vvel2_exec;
    env.Compute(kNumVmEl1Regs * env.cpu().cost().mem_access);
    rec.mode = RecState::VvMode::kVvel2;
  }
  // Publish the syndrome where the L2 reads it (redirect slots / page).
  ns.el1.regs[El1ContextIndexOf(RegId::kESR_EL1)] = s.ToEsrBits();
  ns.el1.regs[El1ContextIndexOf(RegId::kFAR_EL1)] = s.far;
  env.Compute(4 * env.cpu().cost().sysreg_access);
  if (s.ec == Ec::kDataAbortLow) {
    WriteVv(env, vcpu, RegId::kHPFAR_EL2, s.hpfar);
  }
  if (!env.vcpu().deferred_vector_active) {
    // When we resume our guest, control must land at the L2 hypervisor's
    // exception vector.
    NEVE_GUEST_CHECK(env.vcpu().nested_sw.vel2 != nullptr, "no_vel2_vector",
                     "L2 hypervisor registered no vector");
    env.DeferVectorCall(env.vcpu().nested_sw.vel2, s);
  }
}

void GuestKvm::FixRecursiveShadowFault(GuestEnv& env, Vcpu& vcpu,
                                       const Syndrome& s) {
  NestedVcpuState& ns = NstateOf(vcpu);
  RecState& rec = *ns.rec;
  env.Compute(SwCost::kShadowFixup);
  // Software walk of the L2's Stage-2 (its tables live in *its* physical
  // space, one more translation stage down), charged as memory traffic.
  env.Compute(2 * PageTable::kWalkLevels * env.cpu().cost().tlb_walk_per_level);
  uint64_t vvttbr = ReadVv(env, vcpu, RegId::kVTTBR_EL2);
  GuestPhysView l2_space(&view_, &vcpu.vm().s2());
  Ipa l3_ipa(s.hpfar | (s.far & 0xFFF));
  ShadowS2::FixupResult result = rec.shadow->HandleFault(
      l3_ipa, s.abort_is_write, l2_space, Pa(vvttbr), vcpu.vm().s2());
  switch (result) {
    case ShadowS2::FixupResult::kInstalled:
      env.RequestRetry();
      return;
    case ShadowS2::FixupResult::kVirtualFault:
      ForwardToVvel2(env, vcpu, s);  // the L2's device, its problem
      return;
    case ShadowS2::FixupResult::kHostFault:
      // The L2's virtual Stage-2 maps outside the memory its hypervisor (us,
      // an L1 guest) was given: guest-attributable all the way down.
      RaiseGuestFault("bad_guest_mapping",
                      "recursive shadow: hole in our own Stage-2");
  }
}

void GuestKvm::InjectVirq(GuestEnv& env, Vcpu& vcpu, uint32_t virq) {
  env.Compute(SwCost::kVirqInject);
  int target_pv = vcpu.loaded_on_pcpu;
  EnqueueNestedVirq(env, vcpu, target_pv, virq);
  if (target_pv >= 0 && target_pv != env.vcpu().id()) {
    env.WriteSys(SysReg::kICC_SGI1R_EL1,
                 SgiR::Make(static_cast<uint16_t>(1u << target_pv),
                            kNestedKickSgi));
  }
}

}  // namespace neve
