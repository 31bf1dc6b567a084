// The guest (L1) hypervisor: the same KVM/ARM design as the host, but
// running deprivileged in virtual EL2.
//
// Every operation below executes through the guest environment at real EL1;
// what each one costs therefore depends on the architecture being modeled:
// under plain ARMv8.3-NV nearly every register access in the world-switch
// path traps to the host (exit multiplication); under NEVE most become
// deferred-page or EL1-register accesses. The code is identical either way
// -- NEVE requires no guest hypervisor changes, which is the paper's point.
//
// A non-VHE guest hypervisor additionally bounces between virtual EL2 (the
// lowvisor) and its kernel at virtual EL1 for every exit it handles, costing
// one trapped eret and one hvc per exit on top of two full EL1 context
// switches -- the reason the non-VHE columns of Tables 1/7 are worst.
//
// Recursive nesting (section 6.2) is supported: a nested VM created with
// virtual_el2 hosts a *second* GuestKvm instance (the L2 hypervisor) whose
// own guest is an L3. This hypervisor then plays the host's role one level
// down -- emulating the L2's virtual-virtual EL2 state, its eret, and the
// L3 shadow Stage-2 -- with every emulation step executing through its own
// (trappable/deferrable) environment, which is where the recursion costs
// come from. When expose_neve is set on the nested VM, this hypervisor
// allocates the deferred access page in its own memory and programs its
// virtual VNCR_EL2; the host then emulates NEVE for the L2 "by using the
// hardware features directly" (translating the page address through
// Stage-2), exactly as section 6.2 describes.

#ifndef NEVE_SRC_HYP_GUEST_KVM_H_
#define NEVE_SRC_HYP_GUEST_KVM_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/hyp/vm.h"
#include "src/hyp/world_switch.h"
#include "src/mem/shadow_s2.h"
#include "src/sim/machine.h"

namespace neve {

namespace snap {
class Serializer;  // src/snap: serializes nested-VM and pvcpu contexts
}  // namespace snap

struct GuestKvmConfig {
  bool vhe = false;  // hosted-VHE design vs split non-VHE design
  // Use a GICv2-style *memory-mapped* hypervisor control interface instead
  // of GICv3 system registers (section 4: "memory mapped with GICv2 and
  // therefore trivially traps to EL2 when not mapped in the Stage-2 page
  // tables"). MMIO cannot be deferred or cached, so NEVE's Table 5 savings
  // require the GICv3 system-register interface -- measurable here.
  bool gicv2_mmio = false;
};

// hvc immediates used between the guest hypervisor's kernel and lowvisor.
inline constexpr uint16_t kHvcKernelToHyp = 0x4B10;
// The kvm-unit-test style guest hypercall.
inline constexpr uint16_t kHvcTestCall = 0x4B00;

class GuestKvm : public Vel2Handler {
 public:
  // `boot_env` is the guest hypervisor's boot context in virtual EL2. The
  // constructor registers this object as the virtual EL2 exception vector
  // (conceptually: writes VBAR_EL2) and probes its execution environment.
  GuestKvm(GuestEnv* boot_env, Machine* machine, const GuestKvmConfig& config);

  // Recursion-aware constructor: builds a hypervisor whose guest-physical
  // space is `my_s2` over `parent_space` with `my_ram_size` bytes of RAM.
  // Used for the L2 hypervisor of a recursive stack, whose space sits two
  // translation stages below the machine.
  GuestKvm(GuestEnv* boot_env, Machine* machine, const GuestKvmConfig& config,
           MemIo* parent_space, const Stage2Table* my_s2,
           uint64_t my_ram_size);

  GuestKvm(const GuestKvm&) = delete;
  GuestKvm& operator=(const GuestKvm&) = delete;

  const GuestKvmConfig& config() const { return config_; }

  // Brings a secondary virtual CPU under this hypervisor (SMP boot):
  // registers the virtual EL2 vector for it.
  void AttachVcpu(GuestEnv& env);

  // Creates a nested VM. Its Stage-2 tables live in this hypervisor's own
  // guest-physical memory (and are walked by the host when it builds shadow
  // entries).
  Vm* CreateVm(const VmConfig& config);

  // Runs `program` as `vcpu`'s software on the caller's virtual CPU. Returns
  // when the program finishes or parks itself.
  void RunVcpu(GuestEnv& env, Vcpu& vcpu, GuestMain program);

  // Injects a virtual interrupt into a nested vCPU (device backends).
  void InjectVirq(GuestEnv& env, Vcpu& vcpu, uint32_t virq);

  // Vel2Handler: exits forwarded by the host hypervisor.
  void OnVirtualExit(GuestEnv& env, const Syndrome& s) override;

  // Registers an MMIO backend for the nested VM (e.g. a virtio device
  // emulated by this hypervisor).
  void SetMmioBackend(MmioDevice* device) { mmio_backend_ = device; }

  // The contexts a snapshot carries (src/snap). PvcpuState adds the nested
  // vcpu loaded on the virtual CPU, which a restore verifies instead;
  // NestedVcpuState adds the recursive-nesting state, which a snapshot
  // refuses while it is live.
  struct PvcpuContext {
    El1Context kernel_el1;  // kernel context (non-VHE split design)
    ExtEl1Context kernel_ext;
    TimerContext timer;
    bool operator==(const PvcpuContext&) const = default;
  };
  struct NestedContext {
    El1Context el1;  // the nested VM's EL1 context
    ExtEl1Context ext;
    PmuDebugContext pmu;
    uint64_t elr = 0;
    uint64_t spsr = 0;
    bool operator==(const NestedContext&) const = default;
  };

 private:
  struct PvcpuState : PvcpuContext {
    Vcpu* running = nullptr;  // nested vcpu loaded on this virtual CPU
  };

  // Virtual-virtual EL2 state for a nested vCPU that is itself a
  // hypervisor (recursive nesting).
  struct RecState {
    enum class VvMode { kVvel2, kVvKernel, kVvNested };
    VvMode mode = VvMode::kVvel2;
    uint64_t vregs[kNumRegIds] = {};  // vvEL2 register file (non-NEVE path)
    El1Context vvel2_exec;            // vvEL2's execution context
    std::unique_ptr<ShadowS2> shadow;  // L3 IPA -> my IPA collapse
    Pa page_ipa{};                     // L2's deferred page (my IPA); 0=none
    bool has_page = false;
  };

  struct NestedVcpuState : NestedContext {
    std::unique_ptr<RecState> rec;  // set when the guest is a hypervisor
  };

  PvcpuState& PstateOf(GuestEnv& env);
  NestedVcpuState& NstateOf(Vcpu& vcpu);

  void SwitchIntoNested(GuestEnv& env, Vcpu& vcpu);
  void SwitchOutOfNested(GuestEnv& env, Vcpu& vcpu);
  void Gicv2SaveVgic(GuestEnv& env, VgicContext* ctx);
  void Gicv2RestoreVgic(GuestEnv& env, const VgicContext& ctx);
  void HandleNestedExit(GuestEnv& env, Vcpu& vcpu, const Syndrome& s);
  void EmulateNestedSgi(GuestEnv& env, Vcpu& sender, uint64_t sgir);

  // --- recursive nesting (the host's role, one level down) -----------------
  uint64_t ReadVv(GuestEnv& env, Vcpu& vcpu, RegId reg);
  void WriteVv(GuestEnv& env, Vcpu& vcpu, RegId reg, uint64_t value);
  void StashVvel1(GuestEnv& env, Vcpu& vcpu);
  void LoadVvel1(GuestEnv& env, Vcpu& vcpu);
  void HandleRecursiveExit(GuestEnv& env, Vcpu& vcpu, const Syndrome& s);
  void EmulateVvSysReg(GuestEnv& env, Vcpu& vcpu, const Syndrome& s);
  void EmulateVvEret(GuestEnv& env, Vcpu& vcpu);
  void ForwardToVvel2(GuestEnv& env, Vcpu& vcpu, const Syndrome& s);
  void FixRecursiveShadowFault(GuestEnv& env, Vcpu& vcpu, const Syndrome& s);

  friend class snap::Serializer;

  Machine* machine_;      // not-snapshotted: host wiring
  GuestKvmConfig config_; // not-snapshotted: fixed at construction, verified
  GuestPhysView view_;    // not-snapshotted: stateless view over machine mem
  PageAllocator table_alloc_;   // table pages carved from our RAM top
  uint64_t next_nested_ram_;  // single-mutator: snap restore runs quiesced
  uint64_t nested_ram_end_;  // not-snapshotted: fixed geometry, verified
  std::vector<std::unique_ptr<Vm>> vms_;
  std::vector<PvcpuState> pvcpu_;
  // Guards the *map structure* only: SMP-engine lanes running sibling nested
  // vcpus hit NstateOf concurrently and the first touch inserts. The pointed-
  // to NestedVcpuState is per-vcpu (lane-private by the engine's lane==vcpu
  // assignment), so references returned by NstateOf stay lock-free.
  mutable Mutex nstate_mu_{"hyp.guest_nstate"};
  std::unordered_map<const Vcpu*, std::unique_ptr<NestedVcpuState>> nstate_
      GUARDED_BY(nstate_mu_);
  MmioDevice* mmio_backend_ = nullptr;  // not-snapshotted: device wiring

 public:
  // The guest-physical view of this hypervisor (for stacking deeper levels).
  MemIo* view() { return &view_; }
};

}  // namespace neve

#endif  // NEVE_SRC_HYP_GUEST_KVM_H_
