// A minimal fork-join helper for the bench and fuzz harnesses.
//
// The fig2/table benches iterate independent Machine instances (one per
// workload x stack cell), and the fuzzer runs independent cases and, within
// one case, independent stack variants; a Machine is self-contained -- its
// CPUs, memory, GIC, timers and observability layer share no mutable global
// state (the only process-wide mutable is the log level, which no caller
// touches mid-run). ParallelFor fans that work out across a small thread
// pool and joins before returning, so callers fill index-addressed result
// arrays in parallel and read them serially afterwards: output stays
// byte-for-byte deterministic regardless of thread count.

#ifndef NEVE_SRC_BASE_PARALLEL_H_
#define NEVE_SRC_BASE_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "src/base/mutex.h"

namespace neve {

// Default worker count for the bench harness: the hardware concurrency,
// clamped to a small pool (the benches have at most ~70 independent cells;
// more threads than that is pure overhead).
inline unsigned DefaultBenchThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, 8u);
}

// Invokes fn(0) .. fn(n-1), distributing indices across `threads` workers
// via an atomic work counter (cells have uneven costs -- nested NEVE stacks
// run ~10x faster than nested v8.3 stacks -- so static striping would leave
// workers idle). threads <= 1 runs inline. Joins all workers before
// returning. fn must not touch shared mutable state for distinct indices.
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
    auto worker = [&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        invoke(i);
      }
    };
    std::vector<std::thread> pool;
    unsigned spawned =
        std::min<size_t>(threads, n) - 1;  // this thread works too
    pool.reserve(spawned);
    for (unsigned t = 0; t < spawned; ++t) {
      pool.emplace_back(worker);
    }
    worker();
    for (std::thread& t : pool) {
      t.join();
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace neve

#endif  // NEVE_SRC_BASE_PARALLEL_H_
