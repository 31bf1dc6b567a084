// Deterministic lock-order (deadlock) detector behind neve::Mutex.
//
// Every neve::Mutex belongs to a lock *class* keyed by its name ("obs.metrics",
// "base.panic_hooks", ...); all instances of a class -- e.g. every Machine's
// metrics mutex -- share one node in a process-wide acquisition graph. Classes,
// not instances, key the graph so its contents depend only on which nestings
// the workload performs, never on thread count, scheduling, or machine
// construction order: GraphDump() is byte-identical across --threads for a
// fixed workload (asserted by tests/lock_order_test.cc).
//
// Each thread keeps a stack of held classes. Acquiring B while holding A adds
// the edge A -> B (with the acquiring thread's held stack recorded as the
// edge's witness); an acquisition that would close a cycle -- the classic
// AB/BA deadlock -- panics immediately with both stacks (the current thread's
// and the witness of the prior ordering), turning a
// would-deadlock-under-the-right-interleaving bug into a deterministic
// failure on ANY interleaving that performs both nestings. Re-acquiring a
// held class (self-deadlock) panics the same way.
//
// The detector is on by default in every build type. An acquisition pays
// for the process-wide registry lock only when it adds an edge its thread
// has not yet seen recorded, or is reentrant: each thread caches the edges
// it has seen, and an edge already in the graph can never close a cycle, so
// every other acquisition costs a lookup in the thread's own cache and a
// relaxed increment of a per-thread counter stripe, touching no cache line
// other threads write. Build with -DNEVE_LOCK_ORDER=OFF (cmake) to compile
// the hooks out of neve::Mutex entirely.

#ifndef NEVE_SRC_BASE_LOCK_ORDER_H_
#define NEVE_SRC_BASE_LOCK_ORDER_H_

#include <cstdint>
#include <string>

namespace neve::lock_order {

// The process-wide id of the lock class named `name`. `name` must outlive
// the process (in practice: a string literal).
int ClassId(const char* name);

// Hooks called by neve::Mutex. OnLock runs before blocking (so the ordering
// violation fires even on the interleaving that would have deadlocked);
// OnTryLockSuccess records the hold without adding graph edges (a trylock
// cannot deadlock); OnUnlock drops the class from the thread's held stack.
void OnLock(int class_id);
void OnTryLockSuccess(int class_id);
void OnUnlock(int class_id);

// Total blocking + successful-try acquisitions, and distinct acquisition-
// graph edges, since start (or the last ResetForTest). Mirrored into a
// Machine's metrics as base.lock_acquisitions / base.lock_order_edges.
uint64_t Acquisitions();
uint64_t Edges();

// One "<a> -> <b>\n" line per distinct edge, sorted lexically by class
// names; deterministic across runs and thread counts for a fixed workload.
std::string GraphDump();

// Test-only: forgets all edges, witnesses and counters (lock classes
// persist), and with them every thread's cache of seen edges. Call with no
// neve::Mutex held and no other thread acquiring one.
void ResetForTest();

}  // namespace neve::lock_order

#endif  // NEVE_SRC_BASE_LOCK_ORDER_H_
