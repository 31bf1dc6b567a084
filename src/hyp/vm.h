// VM and vCPU state kept by a hypervisor (host or guest level).
//
// A Vm owns a Stage-2 table in *its creator's* physical address space: the
// host hypervisor's VMs translate IPA -> machine PA; a guest hypervisor's
// nested VM translates L2 IPA -> L1 IPA, with the tables themselves living in
// the guest hypervisor's memory (accessed through a GuestPhysView).
//
// A Vcpu carries the virtual register file and the nested-virtualization
// context the paper's design revolves around: which virtual mode the vCPU is
// in (virtual EL2, its kernel at virtual EL1, or the nested VM), its shadow
// Stage-2, its deferred access page when NEVE is exposed, and the software
// images/vectors the guest registered.

#ifndef NEVE_SRC_HYP_VM_H_
#define NEVE_SRC_HYP_VM_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/arch/sysreg.h"
#include "src/hyp/devices.h"
#include "src/hyp/guest_env.h"
#include "src/mem/page_table.h"
#include "src/mem/shadow_s2.h"

namespace neve {

namespace snap {
class Serializer;  // src/snap: serializes vCPU contexts and shadow sets
}  // namespace snap

struct VmConfig {
  std::string name = "vm";
  int num_vcpus = 1;
  uint64_t ram_size = 16ull << 20;
  // Expose virtualization extensions (virtual EL2) to this VM, allowing it
  // to run a guest hypervisor (ARMv8.3-NV emulation, section 4).
  bool virtual_el2 = false;
  // Expose NEVE (VNCR_EL2 + deferred access page) to this VM's virtual EL2.
  bool expose_neve = false;
  // The guest hypervisor runs in VHE mode (virtual E2H). Determines NV1:
  // a VHE guest's EL1-encoded accesses target its own (virtual EL2) context
  // directly; a non-VHE guest's EL1 accesses are VM state and must trap.
  bool guest_vhe = false;

  bool operator==(const VmConfig&) const = default;
};

// Which software context a vCPU is executing, from its hypervisor's view.
enum class VcpuMode : uint8_t {
  kGuest,        // plain VM (no virtual EL2)
  kVel2,         // guest hypervisor code in virtual EL2
  kVel1Kernel,   // guest hypervisor's own kernel at virtual EL1
  kVel1Nested,   // the nested VM the guest hypervisor runs
};

const char* VcpuModeName(VcpuMode mode);

// The software a guest context consists of: entry point plus registered
// vectors (see guest_env.h).
struct GuestSoftware {
  GuestMain main;
  GuestIrqHandler irq;
  Vel2Handler* vel2 = nullptr;
  bool started = false;
};

// IPA of the (Stage-2-unmapped) GICv2-style hypervisor control interface
// inside a guest-hypervisor VM (section 4: it "trivially traps to EL2 when
// not mapped in the Stage-2 page tables"). Register offsets reuse the
// deferred-page layout (one 8-byte slot per RegId).
inline constexpr uint64_t kGichMmioBase = 0x3F00'0000;

struct MmioRange {
  Ipa base;
  uint64_t size = 0;
  MmioDevice* device = nullptr;

  bool Contains(Ipa ipa) const {
    return ipa.value >= base.value && ipa.value < base.value + size;
  }
};

class Vm;

// The plain run-time values a hypervisor keeps per vCPU. A snapshot copies
// them as one struct (src/snap); Vcpu inherits them, so use sites name them
// directly.
struct VcpuRunState {
  VcpuMode mode = VcpuMode::kGuest;
  bool vel2_handler_active = false;  // virtual-EL2 vector currently running
  bool parked = false;               // left "running" by ParkRunning()
  int loaded_on_pcpu = -1;

  // Recursive nesting: the currently-entered nested context is itself a
  // hypervisor (the guest hypervisor programmed NV for it); `nested_hcr`
  // holds the virtual HCR bits the host mirrors into hardware.
  bool nested_is_hyp = false;
  uint64_t nested_hcr = 0;

  // A scheduled deferred vector call (Vcpu::deferred_vector) is running.
  bool deferred_vector_active = false;
  // Set by a guest hypervisor that fixed up translation state for a
  // forwarded Stage-2 fault: the host replays the access instead of
  // completing it as MMIO.
  bool mmio_retry = false;

  // Monotonic count of virtual interrupts ever *newly* enqueued for this
  // vCPU (re-queues on context switch do not count). SMP rendezvous
  // predicates read it: unlike pending_virq's size it never decreases, so
  // "my sibling sent round N's IPI" stays observable after delivery.
  // Cross-lane writes go through the SMP engine's deferred merge (or stay
  // on the single cooperative thread), hence no lock.
  uint64_t virqs_enqueued = 0;

  // Result slot for a forwarded MMIO read completed by the guest hypervisor
  // (the architectural x0 of the faulting load).
  uint64_t mmio_result = 0;

  // Statistics.
  uint64_t exits = 0;
  uint64_t vel2_deliveries = 0;

  bool operator==(const VcpuRunState&) const = default;
};

class Vcpu : public VcpuRunState {
 public:
  Vcpu(Vm* vm, int id) : vm_(vm), id_(id) {}

  Vm& vm() { return *vm_; }
  const Vm& vm() const { return *vm_; }
  int id() const { return id_; }

  // Virtual register file (the in-memory vcpu context a hypervisor keeps).
  uint64_t vreg(RegId reg) const { return vregs_[static_cast<size_t>(reg)]; }
  void set_vreg(RegId reg, uint64_t v) { vregs_[static_cast<size_t>(reg)] = v; }

  // Order-stable digest of the virtual register file plus the virtual mode
  // -- the vcpu-context half of the architectural state the differential
  // fuzz oracles compare (the hardware half is Cpu::ArchStateDigest).
  uint64_t ContextDigest() const;

  // The software slot that is executing / being set up in `mode`.
  GuestSoftware& SoftwareFor(VcpuMode mode) {
    return mode == VcpuMode::kVel1Nested ? *active_nested : main_sw;
  }

  // --- public state, managed by the owning hypervisor ----------------------
  // A virtual-vector invocation the guest hypervisor scheduled for after its
  // next guest entry ("the eret lands at the deeper vector"); see
  // GuestEnv::DeferVectorCall.
  struct DeferredVector {
    Vel2Handler* handler = nullptr;
    Syndrome syndrome;
  };
  std::optional<DeferredVector> deferred_vector;

  // Nested virtualization support: shadow Stage-2 tables, keyed by the
  // guest hypervisor's virtual VTTBR (it may maintain several Stage-2
  // trees -- one per nested VM, plus its own recursive shadows).
  std::map<uint64_t, std::unique_ptr<ShadowS2>> shadows;
  // Hardware deferred access page (host-owned) when NEVE is exposed.
  Pa vncr_hw_page{};

  // Hypervisor-level virtual GIC: interrupts pending injection into this
  // vCPU, and the list-register images to load on next entry.
  std::deque<uint32_t> pending_virq;

  // The software slots come last, behind the fields every exit touches:
  // placed between those and VcpuRunState they cost the trap path a few
  // percent (paper_tables host throughput).
  GuestSoftware main_sw;    // the VM's boot image (virtual EL2 for hyp guests)
  GuestSoftware nested_sw;  // image the guest hypervisor loads for its guest
  GuestSoftware nested2_sw;  // one level deeper: the L3 image an L2
                             // hypervisor loads (recursive nesting, 6.2)
  GuestSoftware* active_nested = &nested_sw;  // which nested image is current

  // Drops every piece of run-time state the hypervisor layers above manage
  // (software slots, pending interrupts, shadow tables, deferred work),
  // returning the vCPU to its just-constructed shape. Used when a confined
  // guest fault kills the VM and when a killed VM is restarted.
  void ResetRuntimeState();

 private:
  friend class snap::Serializer;

  Vm* vm_;   // not-snapshotted: owner backpointer
  int id_;   // not-snapshotted: construction identity, verified on apply
  uint64_t vregs_[kNumRegIds] = {};
};

class Vm {
 public:
  // `table_mem`/`table_alloc` provide storage for the Stage-2 tree in the
  // creating hypervisor's physical address space.
  Vm(const VmConfig& config, Pa ram_base, MemIo* table_mem,
     PageAllocator* table_alloc);

  const VmConfig& config() const { return config_; }
  Pa ram_base() const { return ram_base_; }

  // Host-assigned VM index, used as the attribution key's vm field (attr.h).
  // -1 for VMs not registered with a host hypervisor (a guest hypervisor's
  // internal Vm objects keep the default).
  int id() const { return id_; }
  void set_id(int id) { id_ = id; }

  int num_vcpus() const { return static_cast<int>(vcpus_.size()); }
  Vcpu& vcpu(int i) { return *vcpus_.at(i); }

  Stage2Table& s2() { return s2_; }
  const Stage2Table& s2() const { return s2_; }

  // Registers an MMIO device region (left unmapped in Stage-2).
  void AddMmioRange(Ipa base, uint64_t size, MmioDevice* device);
  const MmioRange* FindMmio(Ipa ipa) const;

  // A confined guest fault killed this VM: its vCPUs refuse to run until a
  // restart clears the flag. The rest of the machine is unaffected.
  bool dead() const { return dead_; }
  void set_dead(bool dead) { dead_ = dead; }
  // How often this VM has been (re)started; bumped by HostKvm::RestartVm.
  uint64_t generation() const { return generation_; }
  void bump_generation() { ++generation_; }

 private:
  friend class snap::Serializer;

  VmConfig config_;  // not-snapshotted: fixed at CreateVm, verified on apply
  int id_ = -1;      // not-snapshotted: construction identity, verified
  bool dead_ = false;  // single-mutator: snap restore runs quiesced
  uint64_t generation_ = 0;  // single-mutator: snap restore runs quiesced
  Pa ram_base_;      // not-snapshotted: deterministic carve-out, verified
  Stage2Table s2_;
  std::vector<std::unique_ptr<Vcpu>> vcpus_;
  std::vector<MmioRange> mmio_;  // not-snapshotted: device wiring, rebuilt
};

}  // namespace neve

#endif  // NEVE_SRC_HYP_VM_H_
