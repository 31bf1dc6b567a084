// GICv3 interrupt controller model.
//
// Three roles, matching how the paper's stack uses the GIC:
//
//  1. Physical distribution: SGIs (IPIs between physical CPUs) and SPIs
//     (device interrupts) delivered to target CPUs through a registered
//     sink -- in practice the host hypervisor, because HCR_EL2.IMO routes
//     IRQs to EL2 whenever a VM is running.
//
//  2. The *hypervisor control interface* (ICH_* registers, Table 5): list
//     registers and control state that hypervisor software programs to
//     inject virtual interrupts. Storage lives in each CPU's system-register
//     file; this class interprets it.
//
//  3. The *virtual CPU interface* (ICC_* at EL1 from a VM): hardware-
//     accelerated acknowledge and EOI against the list registers, with no
//     trap to the hypervisor -- the reason Virtual EOI costs 71 cycles in
//     every configuration of Tables 1 and 6.

#ifndef NEVE_SRC_GIC_GIC_H_
#define NEVE_SRC_GIC_GIC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/bits.h"
#include "src/cpu/cpu.h"
#include "src/obs/metrics.h"

namespace neve {

namespace snap {
class Serializer;  // src/snap: serializes ack bookkeeping and counter shards
}  // namespace snap

// Interrupt id ranges (GICv3 architecture).
inline constexpr uint32_t kSgiBase = 0;     // 0-15: inter-processor
inline constexpr uint32_t kPpiBase = 16;    // 16-31: per-CPU peripherals
inline constexpr uint32_t kSpiBase = 32;    // 32+: shared peripherals
inline constexpr uint32_t kSpuriousIntid = 1023;

// List-register encoding (trimmed ICH_LR<n>_EL2 layout).
struct ListReg {
  static constexpr unsigned kStatePendingBit = 62;
  static constexpr unsigned kStateActiveBit = 63;

  static uint64_t MakePending(uint32_t intid) {
    return SetBit(static_cast<uint64_t>(intid), kStatePendingBit);
  }
  static uint32_t Intid(uint64_t lr) {
    return static_cast<uint32_t>(lr & 0xFFFFFFFF);
  }
  static bool Pending(uint64_t lr) { return TestBit(lr, kStatePendingBit); }
  static bool Active(uint64_t lr) { return TestBit(lr, kStateActiveBit); }
  static bool Inactive(uint64_t lr) { return !Pending(lr) && !Active(lr); }
  static uint64_t ToActive(uint64_t lr) {
    return SetBit(ClearBit(lr, kStatePendingBit), kStateActiveBit);
  }
};

// ICC_SGI1R target encoding (simplified): low 16 bits = target CPU mask,
// bits [27:24] = SGI id.
struct SgiR {
  // Every architecturally meaningful bit of the simplified encoding. A
  // write with any other bit set is malformed: TargetMask/SgiId would
  // silently truncate it, so emulation paths reject it up front (a guest
  // writing garbage into ICC_SGI1R gets a confined fault, not a
  // quietly-misrouted IPI).
  static constexpr uint64_t kEncodableMask =
      UINT64_C(0xFFFF) | (UINT64_C(0xF) << 24);

  static bool Encodable(uint64_t v) { return (v & ~kEncodableMask) == 0; }

  static uint64_t Make(uint16_t target_mask, uint8_t sgi_id) {
    return static_cast<uint64_t>(target_mask) |
           (static_cast<uint64_t>(sgi_id & 0xF) << 24);
  }
  static uint16_t TargetMask(uint64_t v) { return v & 0xFFFF; }
  static uint8_t SgiId(uint64_t v) { return (v >> 24) & 0xF; }
};

class GicV3 : public GicCpuInterface {
 public:
  // A physical interrupt became pending for cpu `target`; `raiser_cycles` is
  // the raising context's clock (sender CPU or device model) for cross-CPU
  // time propagation. The sink is the host hypervisor's physical-IRQ entry.
  using PhysIrqSink =
      std::function<void(int target_cpu, uint32_t intid, uint64_t raiser_cycles)>;

  explicit GicV3(int num_cpus);

  void AttachCpu(Cpu* cpu);
  void SetPhysIrqSink(PhysIrqSink sink) { sink_ = std::move(sink); }
  void SetObservability(Observability* obs) { obs_ = obs; }
  // Machine-wide fault injector (drop/misroute/spurious interrupt points);
  // may stay null for bare GICs built outside a Machine.
  void SetFaultInjector(FaultInjector* fault) { fault_ = fault; }

  int num_list_regs() const { return kNumListRegs; }

  // --- physical side -------------------------------------------------------
  // Sends a physical SGI (host IPI / vcpu kick).
  void SendPhysSgi(int from_cpu, int to_cpu, uint8_t sgi_id);
  // Raises a shared peripheral interrupt routed to `target_cpu`.
  void RaiseSpi(int target_cpu, uint32_t intid, uint64_t raiser_cycles);
  // Raises a private peripheral interrupt (timers) on `target_cpu`.
  void RaisePpi(int target_cpu, uint32_t intid, uint64_t raiser_cycles);

  // --- hypervisor control interface helpers (used by hyp/vgic) -------------
  // Finds an empty list register on `cpu` via direct state inspection, or -1.
  // The *hypervisor software* instead reads ICH_ELRSR through sysreg ops so
  // traps are modeled; this helper is for tests and assertions.
  int FindEmptyLr(const Cpu& cpu) const;

  // Recomputes the read-only ICH status registers (ELRSR, EISR, MISR) from
  // the list registers. The hypervisor model calls this after LR updates,
  // standing in for the hardware keeping them coherent.
  void SyncStatusRegs(Cpu& cpu) const;

  // --- virtual CPU interface (GicCpuInterface) -------------------------------
  uint64_t IccRead(int cpu, RegId reg) override;
  void IccWrite(int cpu, RegId reg, uint64_t value) override;

  // Statistics. The backing counters are sharded per CPU (each vCPU lane
  // acks/EOIs only through its own CPU's interface, so the shards are
  // single-writer under SMP); the accessors sum on read in index order,
  // which keeps the totals deterministic at every --threads value.
  uint64_t virtual_acks() const { return SumShards(virtual_acks_); }
  uint64_t virtual_eois() const { return SumShards(virtual_eois_); }

  static constexpr int kNumListRegs = 4;

  // Virtual-ack bookkeeping per (cpu, list register): when the matching EOI
  // arrives, the ack-to-EOI distance feeds the
  // "gic.virtual_irq_active_cycles" histogram, with the ack's tracer event id
  // as the bucket exemplar (histogram outlier -> the trace event behind it).
  // A snapshot carries each CPU's row whole.
  struct LrAckInfo {
    uint64_t ack_cycles = 0;
    uint64_t ack_trace_id = 0;
    bool valid = false;
    bool operator==(const LrAckInfo&) const = default;
  };

 private:
  Cpu& CpuRef(int cpu);

  // Highest-priority pending list register (lowest intid wins), or -1.
  int FindPendingLr(const Cpu& cpu) const;

  static uint64_t SumShards(const std::vector<uint64_t>& shards) {
    uint64_t total = 0;
    for (uint64_t s : shards) {
      total += s;
    }
    return total;
  }

  friend class snap::Serializer;

  int num_cpus_;            // not-snapshotted: fixed at construction, verified
  std::vector<Cpu*> cpus_;  // not-snapshotted: host wiring
  // Indexed by CPU: each entry is only touched through that CPU's own ICC
  // interface, so two vCPU lanes never share a slot (the SMP-safety shape
  // the per-CPU ack/EOI shards below follow too).
  // single-mutator: snap restore runs quiesced
  std::vector<std::array<LrAckInfo, kNumListRegs>> ack_info_;
  PhysIrqSink sink_;                // not-snapshotted: host wiring
  Observability* obs_ = nullptr;    // not-snapshotted: host wiring
  FaultInjector* fault_ = nullptr;  // not-snapshotted: host wiring
  // Per-CPU shards (see virtual_acks()/virtual_eois()): slot i is mutated
  // only from CPU i's ack/EOI path, so concurrent lanes never race on a
  // shard and the summed read is exact at quiescence.
  std::vector<uint64_t> virtual_acks_;  // single-mutator: snap restore
  std::vector<uint64_t> virtual_eois_;  // single-mutator: snap restore

  // Handles of the hot metrics (src/obs/metrics.h), bound to obs_'s registry
  // on first use. not-snapshotted: host-side observability, like obs_
  CounterRef phys_sgis_{"gic.phys_sgis"};
  CounterRef virtual_acks_metric_{"gic.virtual_acks"};
  // not-snapshotted: metric handles, as above
  CounterRef virtual_eois_metric_{"gic.virtual_eois"};
  HistogramRef virtual_irq_active_cycles_{"gic.virtual_irq_active_cycles"};
};

}  // namespace neve

#endif  // NEVE_SRC_GIC_GIC_H_
