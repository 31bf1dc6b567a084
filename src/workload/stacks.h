// Reusable virtualization-stack harnesses for benchmarks and examples.
//
// An ArmStack builds the full simulated ARM stack for one Table-1/Figure-2
// configuration: machine + host hypervisor (VM), or machine + host + guest
// hypervisor + nested VM (nested). An X86Stack does the same for the VT-x
// comparison stack. Both expose the "run the measured guest on pCPU 0, with
// an optional parked receiver on pCPU 1" pattern every benchmark uses.

#ifndef NEVE_SRC_WORKLOAD_STACKS_H_
#define NEVE_SRC_WORKLOAD_STACKS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/hyp/guest_kvm.h"
#include "src/hyp/host_kvm.h"
#include "src/sim/machine.h"
#include "src/workload/microbench.h"
#include "src/x86/kvm_x86.h"

namespace neve {

// MMIO device region used by all guest workloads.
inline constexpr uint64_t kBenchDeviceBase = 0x4000'0000;
// SPI used for modeled device (network RX) interrupts.
inline constexpr uint32_t kBenchDeviceSpi = 48;

class ArmStack {
 public:
  ArmStack(const StackConfig& cfg, int num_cpus);
  ~ArmStack();

  Machine& machine() { return *machine_; }
  HostKvm& host() { return *l0_; }
  TestDevice& device() { return device_; }
  // The guest hypervisor; null until a nested run has booted it (src/snap
  // captures and restores its software state).
  GuestKvm* guest_hyp() { return l1_.get(); }
  bool nested() const { return cfg_.nested; }
  // The L0-level VM (the L1 hypervisor's VM when nested). For tests that
  // inspect per-vCPU state (shadows, pending virqs) after a run.
  Vm& vm() { return *vm_; }
  // The nested (L2) VM; null until a nested run has booted it.
  Vm* nested_vm() { return nvm_; }

  // Runs `body` as the measured guest on pCPU 0. When `receiver` is given,
  // it runs first on pCPU 1 and is expected to park itself (IPI target /
  // interrupt sink). Returns the first confined guest fault (the VM is dead;
  // the machine survives) or OK; fault-free runs always return OK, so
  // benchmark callers may ignore the result.
  Status Run(GuestMain body, GuestMain receiver = nullptr);

  // The L0 vCPU carrying the measured guest (for virtual-IRQ queueing by
  // device models).
  Vcpu& MeasuredVcpu();

  // Runs one guest body per vCPU with real host parallelism through the SMP
  // engine (sim/smp.h): lane k carries vCPU k on pCPU k, `threads` lanes
  // execute simulated code concurrently, and the result is byte-identical at
  // every `threads` value. Nested stacks boot the guest hypervisor on lane 0
  // (the engine's admission gate makes the boot happen-before every sibling)
  // and run one L2 vCPU per lane. Bodies coordinate with
  // GuestEnv::SmpWaitUntil; observability and fault injection must be off.
  // A lane starts only once the lane before it first blocks in
  // SmpWaitUntil or finishes, so bodies that never wait get no host
  // parallelism: they run one lane after another (sim/smp.h).
  // Returns lane k's confined-fault status (or OK) at index k.
  std::vector<Status> RunSmp(std::vector<GuestMain> bodies, int threads);

  // A canonical SMP body: `rounds` all-to-all IPI rendezvous. Each round,
  // lane `lane` SGIs every sibling, then parks until it has received one IPI
  // per sibling per completed round. The workload behind the hackbench-style
  // SMP rows: pure cross-vCPU interrupt traffic, no shared guest memory.
  GuestMain MakeIpiRendezvous(int lane, int num_vcpus, int rounds);

  // The vCPU whose state lane `lane`'s rendezvous predicates read: the L2
  // vCPU when nested, the L0 vCPU otherwise. Valid once the stack (and, when
  // nested, lane 0's boot) has run.
  Vcpu& RendezvousVcpu(int lane);

  uint64_t TotalTrapsToHost() const;

 private:
  StackConfig cfg_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<HostKvm> l0_;
  TestDevice device_;
  Vm* vm_ = nullptr;         // the (only) L0-level VM
  Vm* nvm_ = nullptr;        // nested VM when cfg.nested
  std::unique_ptr<GuestKvm> l1_;
};

class X86Stack {
 public:
  X86Stack(bool nested, int num_cpus, bool vmcs_shadowing = true);

  X86Machine& machine() { return *machine_; }
  KvmX86& host() { return *l0_; }
  bool nested() const { return nested_; }

  void Run(X86GuestMain body, X86GuestMain receiver = nullptr);

  uint64_t TotalVmexits() const { return machine_->TotalVmexits(); }

 private:
  bool nested_;
  std::unique_ptr<X86Machine> machine_;
  std::unique_ptr<KvmX86> l0_;
  std::unique_ptr<X86GuestHyp> l1_;
};

}  // namespace neve

#endif  // NEVE_SRC_WORKLOAD_STACKS_H_
