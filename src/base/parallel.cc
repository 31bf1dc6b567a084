#include "src/base/parallel.h"

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace neve::parallel_internal {
namespace {

// The worker threads kept for one nesting depth of one calling thread's
// ParallelFor calls. Uses std::mutex + std::condition_variable directly, as
// SmpEngine does, because workers park on a condition variable and
// neve::Mutex has none. The lock-order detector does not need to see mu_:
// no code outside this class runs while it is held.
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
    wake_.notify_all();
    for (std::thread& t : workers_) {
      t.join();
    }
  }

  // RunOnKeptWorkers on this pool's workers, started on first use.
  void Run(unsigned helpers, const std::function<void()>& work) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (workers_.size() < helpers) {
        workers_.emplace_back([this, k = workers_.size()] { WorkerMain(k); });
      }
      work_ = &work;
      helpers_ = helpers;
      ++call_;
    }
    wake_.notify_all();
    work();
    std::unique_lock<std::mutex> lock(mu_);
    work_ = nullptr;
    done_.wait(lock, [&] { return running_ == 0; });
  }

 private:
  void WorkerMain(size_t k) {
    uint64_t joined = 0;  // the last call this worker ran work() for
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] {
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
  std::condition_variable wake_;  // a call started, or the pool stops
  std::condition_variable done_;  // the last running worker returned
  // All guarded by mu_.
  const std::function<void()>* work_ = nullptr;  // null between calls
  unsigned helpers_ = 0;  // workers k < helpers_ join the current call
  uint64_t call_ = 0;     // calls started so far
  unsigned running_ = 0;  // workers inside work()
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: the threads use the above
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
