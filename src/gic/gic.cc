#include "src/gic/gic.h"

#include "src/base/status.h"
#include "src/fault/fault.h"
#include "src/fault/guest_fault.h"

namespace neve {

GicV3::GicV3(int num_cpus) : num_cpus_(num_cpus) {
  // host-invariant: machine construction parameter, no guest influence.
  NEVE_CHECK(num_cpus > 0);
  cpus_.resize(num_cpus, nullptr);
  ack_info_.resize(num_cpus);
  virtual_acks_.resize(num_cpus, 0);
  virtual_eois_.resize(num_cpus, 0);
}

void GicV3::AttachCpu(Cpu* cpu) {
  // host-invariant: wiring happens at machine construction time.
  NEVE_CHECK(cpu != nullptr);
  // host-invariant: wiring happens at machine construction time.
  NEVE_CHECK(cpu->index() >= 0 && cpu->index() < num_cpus_);
  cpus_[cpu->index()] = cpu;
  cpu->SetGicCpuInterface(this);
}

Cpu& GicV3::CpuRef(int cpu) {
  // host-invariant: CPU indices come from machine wiring, not guest state.
  NEVE_CHECK(cpu >= 0 && cpu < num_cpus_ && cpus_[cpu] != nullptr);
  return *cpus_[cpu];
}

void GicV3::SendPhysSgi(int from_cpu, int to_cpu, uint8_t sgi_id) {
  // Only host hypervisor code sends physical SGIs, and the guest-facing SGI
  // emulation validates target masks before fanning out, so an out-of-range
  // target here is a hypervisor bug -- fail loudly, don't misroute the IPI.
  // host-invariant: guest-chosen targets were validated by EmulateSgi.
  NEVE_CHECK_MSG(to_cpu >= 0 && to_cpu < num_cpus_,
                 "physical SGI target out of range");
  // host-invariant: only host hypervisor code sends physical SGIs.
  NEVE_CHECK_MSG(sink_, "no physical IRQ sink installed");
  uint64_t raiser_cycles = CpuRef(from_cpu).cycles();
  if (ObsActive(obs_)) {
    phys_sgis_.In(obs_->metrics()).Add(1);
    obs_->tracer().Instant(from_cpu, "gic", "phys_sgi", raiser_cycles);
  }
  // Injected IPI loss: the kick never reaches the target CPU (as a wire
  // glitch or distributor bug would). The queued virtual interrupt stays
  // pending until the next vcpu load.
  if (FaultActive(fault_) &&
      fault_->ShouldInject(FaultPoint::kGicDroppedIrq, to_cpu, raiser_cycles,
                           kSgiBase + sgi_id)) {
    return;
  }
  sink_(to_cpu, kSgiBase + sgi_id, raiser_cycles);
}

void GicV3::RaiseSpi(int target_cpu, uint32_t intid, uint64_t raiser_cycles) {
  // host-invariant: device models raise SPIs with device-fixed intids.
  NEVE_CHECK(intid >= kSpiBase);
  // host-invariant: the sink is installed at hypervisor construction.
  NEVE_CHECK_MSG(sink_, "no physical IRQ sink installed");
  if (FaultActive(fault_)) {
    // Injected interrupt loss: the device's SPI is silently swallowed.
    if (fault_->ShouldInject(FaultPoint::kGicDroppedIrq, target_cpu,
                             raiser_cycles, intid)) {
      return;
    }
    // Injected misrouting: the distributor delivers to the wrong CPU (a
    // corrupted affinity-routing table).
    if (num_cpus_ > 1 &&
        fault_->ShouldInject(FaultPoint::kGicMisroutedIrq, target_cpu,
                             raiser_cycles, intid)) {
      target_cpu = (target_cpu + 1) % num_cpus_;
    }
  }
  sink_(target_cpu, intid, raiser_cycles);
}

void GicV3::RaisePpi(int target_cpu, uint32_t intid, uint64_t raiser_cycles) {
  // host-invariant: the timer raises PPIs with architecture-fixed intids.
  NEVE_CHECK(intid >= kPpiBase && intid < kSpiBase);
  // host-invariant: the sink is installed at hypervisor construction.
  NEVE_CHECK_MSG(sink_, "no physical IRQ sink installed");
  // Injected interrupt loss (timer ticks can vanish too).
  if (FaultActive(fault_) &&
      fault_->ShouldInject(FaultPoint::kGicDroppedIrq, target_cpu,
                           raiser_cycles, intid)) {
    return;
  }
  sink_(target_cpu, intid, raiser_cycles);
}

int GicV3::FindPendingLr(const Cpu& cpu) const {
  int best = -1;
  uint32_t best_intid = kSpuriousIntid;
  for (int i = 0; i < kNumListRegs; ++i) {
    uint64_t lr = cpu.PeekReg(IchListRegister(i));
    if (ListReg::Pending(lr) && ListReg::Intid(lr) < best_intid) {
      best = i;
      best_intid = ListReg::Intid(lr);
    }
  }
  return best;
}

int GicV3::FindEmptyLr(const Cpu& cpu) const {
  for (int i = 0; i < kNumListRegs; ++i) {
    if (ListReg::Inactive(cpu.PeekReg(IchListRegister(i)))) {
      return i;
    }
  }
  return -1;
}

void GicV3::SyncStatusRegs(Cpu& cpu) const {
  uint64_t elrsr = 0;
  uint64_t eisr = 0;
  for (int i = 0; i < kNumListRegs; ++i) {
    uint64_t lr = cpu.PeekReg(IchListRegister(i));
    if (ListReg::Inactive(lr)) {
      elrsr = SetBit(elrsr, i);
    }
  }
  cpu.PokeReg(RegId::kICH_ELRSR_EL2, elrsr);
  cpu.PokeReg(RegId::kICH_EISR_EL2, eisr);
  cpu.PokeReg(RegId::kICH_MISR_EL2, 0);
}

uint64_t GicV3::IccRead(int cpu_idx, RegId reg) {
  Cpu& cpu = CpuRef(cpu_idx);
  switch (reg) {
    case RegId::kICC_IAR1_EL1: {
      // Injected spurious interrupt: the acknowledge races a deactivation
      // and reads back 1023 without acking anything. Well-written guests
      // (and the guest_kvm IRQ path) must tolerate this per the GIC spec.
      if (FaultActive(fault_) &&
          fault_->ShouldInject(FaultPoint::kGicSpuriousIrq, cpu_idx,
                               cpu.cycles())) {
        return kSpuriousIntid;
      }
      // Virtual acknowledge: highest-priority pending list register goes
      // active; the VM learns the intid -- no hypervisor involvement.
      int lr_idx = FindPendingLr(cpu);
      if (lr_idx < 0) {
        return kSpuriousIntid;
      }
      uint64_t lr = cpu.PeekReg(IchListRegister(lr_idx));
      cpu.PokeReg(IchListRegister(lr_idx), ListReg::ToActive(lr));
      SyncStatusRegs(cpu);
      ++virtual_acks_[cpu_idx];
      uint64_t ack_id = 0;
      if (ObsActive(obs_)) {
        virtual_acks_metric_.In(obs_->metrics()).Add(1);
        ack_id = obs_->tracer().Instant(cpu_idx, "gic", "virtual_ack",
                                        cpu.cycles(), "intid",
                                        ListReg::Intid(lr));
      }
      ack_info_[cpu_idx][lr_idx] =
          LrAckInfo{.ack_cycles = cpu.cycles(), .ack_trace_id = ack_id,
                    .valid = true};
      return ListReg::Intid(lr);
    }
    case RegId::kICC_HPPIR1_EL1: {
      int lr_idx = FindPendingLr(cpu);
      return lr_idx < 0
                 ? kSpuriousIntid
                 : ListReg::Intid(cpu.PeekReg(IchListRegister(lr_idx)));
    }
    case RegId::kICC_PMR_EL1:
    case RegId::kICC_BPR1_EL1:
    case RegId::kICC_IGRPEN1_EL1:
    case RegId::kICC_CTLR_EL1:
    case RegId::kICC_SRE_EL1:
      return cpu.PeekReg(reg);
    default:
      // Guest traffic to an ICC register the model does not implement:
      // confine to the offending VM rather than killing the simulation.
      RaiseGuestFault("unmodeled_icc", "unmodeled ICC read");
  }
  return 0;
}

void GicV3::IccWrite(int cpu_idx, RegId reg, uint64_t value) {
  Cpu& cpu = CpuRef(cpu_idx);
  switch (reg) {
    case RegId::kICC_EOIR1_EL1: {
      // Virtual EOI: deactivate the matching active list register. Hardware-
      // accelerated -- no trap (Tables 1/6, "Virtual EOI" row).
      uint32_t intid = static_cast<uint32_t>(value);
      for (int i = 0; i < kNumListRegs; ++i) {
        uint64_t lr = cpu.PeekReg(IchListRegister(i));
        if (ListReg::Active(lr) && ListReg::Intid(lr) == intid) {
          cpu.PokeReg(IchListRegister(i), 0);
          SyncStatusRegs(cpu);
          ++virtual_eois_[cpu_idx];
          LrAckInfo& ai = ack_info_[cpu_idx][i];
          if (ObsActive(obs_)) {
            virtual_eois_metric_.In(obs_->metrics()).Add(1);
            obs_->tracer().Instant(cpu_idx, "gic", "virtual_eoi", cpu.cycles(),
                                   "intid", intid);
            if (ai.valid) {
              // Ack-to-EOI distance: how long the virtual interrupt stayed
              // active in the guest's handler. The ack instant is the
              // exemplar so a slow handler links back to its trace event.
              virtual_irq_active_cycles_.In(obs_->metrics())
                  .RecordWithExemplar(cpu.cycles() - ai.ack_cycles,
                                      ai.ack_trace_id);
            }
          }
          ai.valid = false;
          return;
        }
      }
      // EOI for an interrupt not in the LRs: ignored (spec: priority drop
      // still happens; nothing to deactivate in the model).
      return;
    }
    case RegId::kICC_DIR_EL1:
      return;  // separate deactivation: modeled as part of EOI
    case RegId::kICC_SGI1R_EL1: {
      // Reached only from contexts where SGI writes do not trap (host EL2
      // sending a physical IPI).
      // host-invariant: host code builds kick masks from physical CPU
      // indices; a mask bit past num_cpus_ would silently drop an IPI.
      NEVE_CHECK_MSG(SgiR::Encodable(value) &&
                         (SgiR::TargetMask(value) >> num_cpus_) == 0,
                     "host SGI mask targets nonexistent CPUs");
      uint16_t mask = SgiR::TargetMask(value);
      for (int t = 0; t < num_cpus_; ++t) {
        if ((mask >> t) & 1) {
          SendPhysSgi(cpu_idx, t, SgiR::SgiId(value));
        }
      }
      return;
    }
    case RegId::kICC_PMR_EL1:
    case RegId::kICC_BPR1_EL1:
    case RegId::kICC_IGRPEN1_EL1:
    case RegId::kICC_CTLR_EL1:
    case RegId::kICC_SRE_EL1:
      cpu.PokeReg(reg, value);
      return;
    default:
      RaiseGuestFault("unmodeled_icc", "unmodeled ICC write");
  }
}

}  // namespace neve
