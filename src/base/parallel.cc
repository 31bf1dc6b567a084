#include "src/base/parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace neve::parallel_internal {
namespace {

// How long each side of a hand-off polls before it blocks: a worker for
// its next call, the calling thread for the workers still in its call.
// Waking a parked thread costs a futex wake and a reschedule on each side,
// and the fuzzer's calls come tens of microseconds apart (DESIGN.md 6i).
// A constant, not a setting: it only bounds the CPU time a wait may burn.
constexpr std::chrono::microseconds kSpin{50};

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Polls done() for up to kSpin; returns whether it came true.
template <typename Done>
bool SpinUntil(Done done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    CpuRelax();
  }
  return true;
}

// The worker threads kept for one nesting depth of one calling thread's
// ParallelFor calls. Uses std::mutex + std::condition_variable directly, as
// SmpEngine does, because workers park on a condition variable and
// neve::Mutex has none. The lock-order detector does not need to see mu_:
// no code outside this class runs while it is held.
//
// A call is published under mu_ and joined under mu_; the atomics let each
// side poll for the other without the lock before parking (SpinUntil). Each
// worker parks on its own condition variable, so a call wakes only the
// workers it uses.
class WorkerPool {
 public:
  WorkerPool() = default;
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    for (const std::unique_ptr<Worker>& w : workers_) {
      w->wake.notify_one();
    }
    for (const std::unique_ptr<Worker>& w : workers_) {
      w->thread.join();
    }
  }

  // RunOnKeptWorkers on this pool's workers, started on first use.
  void Run(unsigned helpers, const std::function<void()>& work) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (workers_.size() < helpers) {
        Worker& w = *workers_.emplace_back(std::make_unique<Worker>());
        w.thread = std::thread(
            [this, &w, k = workers_.size() - 1] { WorkerMain(k, w); });
      }
      work_ = &work;
      helpers_ = helpers;
      ++call_;
    }
    // Only this thread changes workers_, so it reads it unlocked.
    for (unsigned k = 0; k < helpers; ++k) {
      workers_[k]->wake.notify_one();
    }
    work();
    {
      std::lock_guard<std::mutex> lock(mu_);
      work_ = nullptr;  // no worker joins the call from here on
    }
    if (!SpinUntil([&] { return running_ == 0; })) {
      std::unique_lock<std::mutex> lock(mu_);
      done_.wait(lock, [&] { return running_ == 0; });
    }
  }

 private:
  struct Worker {
    std::condition_variable wake;  // a call for this worker, or stop
    std::thread thread;
  };

  void WorkerMain(size_t k, Worker& self) {
    uint64_t joined = 0;  // the last call this worker ran work() for
    for (;;) {
      SpinUntil([&] { return call_ != joined || stop_; });
      std::unique_lock<std::mutex> lock(mu_);
      self.wake.wait(lock, [&] {
        return stop_ || (work_ != nullptr && call_ != joined && k < helpers_);
      });
      if (stop_) {
        return;
      }
      joined = call_;
      const std::function<void()>& work = *work_;
      ++running_;
      lock.unlock();
      work();
      lock.lock();
      if (--running_ == 0) {
        done_.notify_one();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable done_;  // the last running worker returned
  // Guarded by mu_.
  const std::function<void()>* work_ = nullptr;  // null between calls
  unsigned helpers_ = 0;  // workers k < helpers_ join the current call
  // Written under mu_, polled without it.
  std::atomic<uint64_t> call_{0};     // calls started so far
  std::atomic<unsigned> running_{0};  // workers inside work()
  std::atomic<bool> stop_{false};
  // Last: the threads use the above. Changed only by the calling thread.
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace

void RunOnKeptWorkers(unsigned helpers, const std::function<void()>& work) {
  // pools[d] serves this thread's calls at nesting depth d, so a call made
  // from inside fn on this thread never waits for the outer call's workers.
  thread_local std::vector<std::unique_ptr<WorkerPool>> pools;
  thread_local size_t depth = 0;
  if (pools.size() == depth) {
    pools.push_back(std::make_unique<WorkerPool>());
  }
  WorkerPool& pool = *pools[depth];
  ++depth;
  struct Unnest {
    size_t& depth;
    ~Unnest() { --depth; }
  } unnest{depth};
  pool.Run(helpers, work);
}

}  // namespace neve::parallel_internal
