// A minimal fork-join helper for the bench and fuzz harnesses.
//
// The fig2/table benches iterate independent Machine instances (one per
// workload x stack cell), and the fuzzer runs the stack variants of
// independent cases; a Machine is self-contained -- its CPUs, memory, GIC,
// timers and observability layer share no mutable global state (the only
// process-wide mutable is the log level, which no caller touches mid-run).
// ParallelFor fans that work out across a small thread pool and joins
// before returning, so callers fill index-addressed result arrays in
// parallel and read them serially afterwards: output stays byte-for-byte
// deterministic regardless of thread count.
//
// The pool's worker threads are kept between calls, parked on a condition
// variable: the fuzzer's minimizer makes hundreds of calls per campaign,
// each a fraction of a millisecond long, and starting and joining three
// threads cost a 4-thread call 40 us or more over waking parked ones
// (DESIGN.md 6i). The workers belong to the thread that calls ParallelFor,
// one set per nesting depth of its calls, and exit with it. So two threads
// calling at once never share workers, and a ParallelFor nested inside fn
// -- on a worker or on the calling thread -- gets a set of its own.

#ifndef NEVE_SRC_BASE_PARALLEL_H_
#define NEVE_SRC_BASE_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>

#include "src/base/mutex.h"

namespace neve {

// Default worker count for the bench harness: the hardware concurrency,
// clamped to a small pool (the benches have at most ~70 independent cells;
// more threads than that is pure overhead).
inline unsigned DefaultBenchThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, 8u);
}

namespace parallel_internal {

// Runs work() on the calling thread and on `helpers` of the workers the
// calling thread keeps for its current nesting depth, and returns once
// every run of it has returned. work() must return only when nothing is
// left for anyone to do: a worker that wakes after the calling thread's
// run returned skips the call.
void RunOnKeptWorkers(unsigned helpers, const std::function<void()>& work);

}  // namespace parallel_internal

// Invokes fn(0) .. fn(n-1), distributing indices across `threads` threads
// -- the calling thread and threads-1 kept workers -- via an atomic work
// counter (cells have uneven costs -- nested NEVE stacks run ~10x faster
// than nested v8.3 stacks -- so static striping would leave workers idle).
// threads <= 1 runs inline. Returns after every index has run. fn must not
// touch shared mutable state for distinct indices.
//
// Exception semantics: a throw from fn(i) never escapes a worker thread
// (that would std::terminate the process) and never deadlocks the join.
// Every remaining index still runs exactly once -- a failing cell must not
// starve later cells of their slot in the result arrays -- and after the
// join the exception of the LOWEST failing index is rethrown to the caller:
// the same one the serial path surfaces, so which error the caller sees is
// deterministic across --threads= values.
inline void ParallelFor(size_t n, unsigned threads,
                        const std::function<void(size_t)>& fn) {
  Mutex error_mu{"base.parallel_for"};
  std::exception_ptr first_error;     // both guarded by error_mu while
  size_t first_error_index = n;       // workers run; read after the join
  auto invoke = [&](size_t i) {
    try {
      fn(i);
    } catch (...) {
      MutexLock lock(error_mu);
      if (i < first_error_index) {
        first_error_index = i;
        first_error = std::current_exception();
      }
    }
  };
  if (threads <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      invoke(i);
    }
  } else {
    std::atomic<size_t> next{0};
    std::function<void()> drain = [&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        invoke(i);
      }
    };
    parallel_internal::RunOnKeptWorkers(
        static_cast<unsigned>(std::min<size_t>(threads, n)) - 1, drain);
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace neve

#endif  // NEVE_SRC_BASE_PARALLEL_H_
