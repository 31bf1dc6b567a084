// Checkpoint/restore harness over the workload stacks.
//
// A SnapRunner owns one ArmStack and drives a deterministic, step-indexed
// guest workload through it. Hooks let a harness capture a snapshot when the
// workload reaches a given step, apply a snapshot at entry (after the
// deterministic boot replayed the structural state) and continue from a given
// step, or interpose a host-side callback between steps (the migration
// engine's pulse). The bit-identity contract the tests and the chaos
// campaigns build on: for any checkpoint step C,
//
//   run(0..steps)  ==  run(0..C) + capture, then fresh stack + apply +
//                      run(C..steps)
//
// where "==" is EndState equality -- architectural digests, golden trap
// counts, cycle-attribution buckets, RAM and fault-log fingerprints.
//
// SMP stacks checkpoint at a phase boundary instead of a step: lane 0
// quiesces the engine between two blocks of IPI-rendezvous rounds, captures
// (or applies) while no sibling executes, then releases everyone with a GO
// SGI that is part of the workload in *every* variant, so control,
// checkpoint and resume runs execute the identical guest instruction stream.

#ifndef NEVE_SRC_SNAP_SNAP_STACK_H_
#define NEVE_SRC_SNAP_SNAP_STACK_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/snap/snapshot.h"
#include "src/workload/stacks.h"

namespace neve {
namespace snap {

// End-of-run fingerprint, computed through public APIs only (usable on any
// stack, snapshotted or not). Each component isolates one oracle dimension
// so a mismatch names what diverged.
struct EndState {
  uint64_t state_digest = 0;  // per-CPU ArchStateDigest + current EL
  uint64_t cycles_digest = 0; // per-CPU cycle clocks + machine total
  uint64_t trap_digest = 0;   // per-CPU golden trap counters
  uint64_t attr_digest = 0;   // cycle-attribution buckets (vm/layer/cat)
  uint64_t ram_digest = 0;    // resident physical page contents
  uint64_t vcpu_digest = 0;   // per-VM software state + vCPU counters
  uint64_t fault_digest = 0;  // injection log + per-point counts

  bool operator==(const EndState&) const = default;
};

// "state=... cycles=... ..." -- for test-failure messages.
std::string ToString(const EndState& e);

EndState CaptureEndState(ArmStack& stack);

// The stack's snapshot targets. For nested stacks the guest hypervisor only
// exists while the workload runs, so this is meaningful inside the workload
// (and for EndState comparison after a run).
SnapTargets TargetsOf(ArmStack& stack);

// One deterministic workload step: a small op mix (compute, loads/stores,
// hypercalls, sysreg writes) drawn from an Rng keyed by (seed, step), so any
// step is reproducible in isolation. Exposed for the fuzz harness.
void SnapStep(GuestEnv& env, uint64_t seed, uint64_t step);

// Same step, with stores/loads striding across `store_span_pages` pages --
// the dirty-rate dial for the migration downtime bench. Span 1 is exactly
// the overload above.
void SnapStep(GuestEnv& env, uint64_t seed, uint64_t step,
              uint64_t store_span_pages);

inline constexpr uint64_t kNoStep = ~UINT64_C(0);

struct SnapSpec {
  StackConfig cfg;
  int num_cpus = 1;       // > 1 selects the SMP rendezvous workload
  int threads = 1;        // SMP host threads; identity tests need 1 (Pa
                          // values depend on lane interleaving otherwise)
  uint64_t steps = 24;    // workload steps (rendezvous rounds per SMP phase)
  uint64_t seed = 1;
  uint64_t store_span_pages = 1;  // pages the store/load mix strides across
                                  // (the migration bench's dirty-rate dial)
};

struct SnapHooks {
  // Capture into *checkpoint_out when the workload reaches this step (before
  // executing it). SMP runs ignore the step value and capture at the phase
  // boundary.
  uint64_t checkpoint_step = kNoStep;
  Image* checkpoint_out = nullptr;

  // Apply this image at the structurally identical point (workload entry /
  // SMP phase boundary), then continue from resume_step (ignored for SMP:
  // the resumed run always continues with phase B).
  const Image* resume_image = nullptr;
  uint64_t resume_step = 0;

  // Host-side pulse called before each step with the stack's SnapTargets
  // (the migration engine). Returning true stops the workload -- the
  // source's commit point. Not supported on SMP runs.
  std::function<bool(uint64_t step, const SnapTargets&)> on_step;
};

class SnapRunner {
 public:
  explicit SnapRunner(const SnapSpec& spec);

  // Runs the workload. Returns the first error among: snapshot capture,
  // snapshot apply, and the stack's own run status (confined guest faults).
  Status Run(const SnapHooks& hooks = SnapHooks{});

  ArmStack& stack() { return stack_; }
  EndState End() { return CaptureEndState(stack_); }

 private:
  Status RunSingle(const SnapHooks& hooks);
  Status RunSmp(const SnapHooks& hooks);

  SnapSpec spec_;
  ArmStack stack_;
};

}  // namespace snap
}  // namespace neve

#endif  // NEVE_SRC_SNAP_SNAP_STACK_H_
