// Deterministic SMP execution engine: per-vCPU run loops on real host
// threads, byte-identical at every --threads value.
//
// The simulator's cooperative model runs cross-CPU work synchronously on the
// sender's thread (a physical SGI executes the receiver's delivery path
// inline). That is deterministic but serial. The engine keeps the
// determinism while adding real host parallelism, on three rules:
//
//  1. One host thread per *lane* (lane = pcpu = vCPU index), but at most
//     `threads` lanes execute simulated code at once -- a counting slot pool
//     caps concurrency without changing any observable result, because of
//     rules 2 and 3.
//
//  2. Lanes only touch their own CPU/vCPU state while running. Every
//     cross-lane mutation (virq enqueue, sibling TLB drop, event-time
//     propagation) is *deferred*: recorded with the raiser's simulated-cycle
//     timestamp and applied later, never executed from the raiser's thread.
//
//  3. Lanes rendezvous through SmpEngine::Wait (reached via the paravirtual
//     kHvcSmpWait hypercall). When every admitted lane is blocked or
//     finished -- quiescence, a property of *logical* lane states and
//     therefore identical at every thread count -- one coordinator applies
//     all deferred events in (raiser_cycles, raiser_lane, seq) order, then
//     wakes the lanes whose wait predicates became true. All interleaving
//     freedom is thus invisible: state only crosses lanes at merge points,
//     in an order derived from simulated time.
//
// Lane admission is gated: lane N+1's thread starts only after lane N has
// blocked, finished, or faulted at least once. Multi-vCPU boot has real
// cross-lane data dependencies (the booter lane constructs the guest
// hypervisor object its siblings attach to); admission gating makes the
// construction happen-before every sibling without per-object locks. The
// price: bodies that never block (never reach Wait) run one lane at a time
// whatever `threads` is -- lane N+1 starts only when lane N finishes. A
// 4-vCPU nested v8.3-VHE job of 16 hypercalls per vCPU took 2.6-2.8 ms at
// both 1 and 4 lanes (best of 10, 4-vCPU host). Lifting the gate needs a
// sibling that is safe to start before its predecessor blocks (ROADMAP).
//
// Guest-fault confinement (a GuestFaultException unwinding to
// HostKvm::RunVcpu) is serialized through Enter/ExitConfinement: the
// confining lane waits until no sibling is executing, tears the VM down
// exclusively, then fails every lane still parked in a wait -- their
// rendezvous can never complete -- with a confined "smp_sibling_fault".
//
// Observability and fault injection must be off while the engine runs (the
// obs/metrics layer is deliberately unsynchronized, DESIGN.md 6i/6j); the
// always-on cycle attribution is safe because its hot-path state is sharded
// per CPU. SMP fuzzing keeps the cooperative path for exactly this reason.
//
// Internal synchronization note: the engine uses std::mutex +
// std::condition_variable directly rather than neve::Mutex -- lanes park on
// condition variables, which neve::Mutex does not provide. Every field below
// is mutated only from this translation unit under mu_; the lock-order
// detector does not need to see mu_ because the engine never calls back into
// simulated code while holding it (deferred applies run at quiescence, when
// no simulated code is executing anywhere).

#ifndef NEVE_SRC_SIM_SMP_H_
#define NEVE_SRC_SIM_SMP_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace neve {

class Machine;

class SmpEngine {
 public:
  using LaneBody = std::function<void(int lane)>;
  using WaitPred = std::function<bool()>;
  using DeferredApply = std::function<void()>;

  // `threads` is the *slot* count: how many lanes may execute simulated code
  // concurrently. Clamped to at least 1; values above num_lanes are harmless.
  SmpEngine(Machine* machine, int num_lanes, int threads);
  ~SmpEngine();

  SmpEngine(const SmpEngine&) = delete;
  SmpEngine& operator=(const SmpEngine&) = delete;

  // Runs body(lane) for every lane to completion and joins all threads.
  // Callable once. Rethrows the lowest-numbered lane's escaped (non-guest-
  // fault) exception, mirroring ParallelFor.
  void Run(LaneBody body);

  // --- called from lane threads --------------------------------------------

  // Registers the predicate the calling lane's next Wait() blocks on. The
  // predicate is evaluated by the merge coordinator at quiescence (all lanes
  // parked), so it may read any lane's simulated state.
  void SetWaitPred(int lane, WaitPred pred);

  // Parks the calling lane until its registered predicate holds at a merge
  // point. Raises a confined guest fault ("smp_deadlock") when no parked
  // lane's predicate can ever be satisfied, or ("smp_sibling_fault") when a
  // sibling's confined fault tears the rendezvous down.
  void Wait(int lane);

  // Queues a cross-lane mutation, applied at the next merge in deterministic
  // (raiser_cycles, raiser_lane, seq) order. Must be called from a lane
  // thread. The closure must not block or re-enter the engine.
  void Defer(int target_lane, uint64_t raiser_cycles, DeferredApply apply);

  // Guest-fault confinement barrier (see file comment). Enter blocks until
  // this lane has exclusive ownership of the machine; Exit fails parked
  // siblings, drops pending deferred events, and resumes normal scheduling.
  void EnterConfinement(int lane);
  void ExitConfinement(int lane);

  // Runs `fn` with exclusive ownership of the machine, non-destructively:
  // blocks until no sibling lane is executing simulated code (the same
  // rendezvous EnterConfinement uses), runs fn on the calling lane's thread,
  // then resumes normal scheduling. Unlike the confinement pair it does not
  // fail parked waiters or drop deferred events -- siblings stay parked on
  // their predicates throughout. Used for host-side whole-machine work at a
  // rendezvous point (e.g. taking or applying a snapshot while the siblings
  // wait for a GO IPI). `fn` must not block or re-enter the engine.
  void Quiesce(int lane, const std::function<void()>& fn);

  // The engine driving the calling thread, or null on threads not owned by
  // an engine (the cooperative path checks this to stay synchronous).
  static SmpEngine* Current();
  // The calling thread's lane index; -1 off-engine.
  static int CurrentLane();

  int num_lanes() const { return num_lanes_; }

 private:
  enum class LaneState : uint8_t {
    kNotAdmitted,  // thread not started yet (admission gate)
    kRunnable,     // ready to run, waiting for a free slot
    kRunning,      // executing simulated code (holds a slot)
    kBlocked,      // parked in Wait at a rendezvous
    kConfining,    // unwinding / tearing down a VM after a guest fault
    kFinished,     // lane body returned
  };

  struct Lane {
    LaneState state = LaneState::kNotAdmitted;
    bool ever_blocked = false;  // admission gate for the next lane
    bool holds_slot = false;
    bool in_wait = false;  // between Wait() entry and exit
    const char* fault_kind = nullptr;  // pending fault to raise on wake
    uint64_t defer_seq = 0;            // lane-local tiebreaker for Defer
    WaitPred pred;
    std::exception_ptr error;
    std::thread thread;
  };

  struct Deferred {
    uint64_t raiser_cycles = 0;
    int raiser_lane = -1;
    uint64_t seq = 0;
    int target_lane = -1;
    DeferredApply apply;
  };

  void LaneMain(int lane);
  // Starts threads for every lane whose predecessor has blocked at least
  // once (the admission gate).
  void AdmitLocked();
  // If every admitted lane is parked or finished (and all lanes admitted),
  // applies deferred events in deterministic order and wakes satisfied
  // waiters; unsatisfiable waits become "smp_deadlock" faults.
  void MergeIfQuiescentLocked();
  bool ConfinementPendingLocked() const;

  Machine* machine_;
  int num_lanes_;

  std::mutex mu_;
  std::condition_variable cv_;
  int free_slots_;
  int next_to_admit_ = 1;  // lane 0 is admitted by Run()
  bool confinement_active_ = false;
  std::vector<Lane> lanes_;
  std::vector<Deferred> deferred_;
  LaneBody body_;
};

}  // namespace neve

#endif  // NEVE_SRC_SIM_SMP_H_
