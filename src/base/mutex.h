// neve::Mutex / neve::MutexLock: the repo's lockable capability.
//
// A thin wrapper over std::mutex that adds the two things the concurrency-
// readiness layer needs and std::mutex cannot provide:
//
//   1. Clang thread-safety annotations (src/base/thread_annotations.h):
//      members declared GUARDED_BY(mu_) are compile-time checked against
//      this capability under -Wthread-safety.
//   2. The deterministic lock-order detector (src/base/lock_order.h): every
//      Mutex names its lock class, and acquisitions feed the process-wide
//      acquisition graph; a nesting that could deadlock panics on any
//      interleaving that performs both orders.
//
// Name mutexes by subsystem ("obs.metrics", "hyp.virtio_ring"): all
// instances sharing a name are one lock class in the acquisition graph,
// which is what keeps the graph deterministic across machine counts and
// --threads (see lock_order.h).

#ifndef NEVE_SRC_BASE_MUTEX_H_
#define NEVE_SRC_BASE_MUTEX_H_

#include <mutex>

#include "src/base/lock_order.h"
#include "src/base/thread_annotations.h"

// Compiled in by default; cmake -DNEVE_LOCK_ORDER=OFF defines this to 0 and
// the hooks vanish entirely.
#ifndef NEVE_LOCK_ORDER
#define NEVE_LOCK_ORDER 1
#endif

namespace neve {

class CAPABILITY("mutex") Mutex {
 public:
  // `name` is the lock class (string literal; must outlive the process).
  explicit Mutex(const char* name = "base.anonymous")
#if NEVE_LOCK_ORDER
      : class_id_(lock_order::ClassId(name))
#endif
  {
    (void)name;
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
#if NEVE_LOCK_ORDER
    // Before blocking: the ordering violation must fire even on the
    // interleaving that would have deadlocked here.
    lock_order::OnLock(class_id_);
#endif
    mu_.lock();
  }

  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) {
      return false;
    }
#if NEVE_LOCK_ORDER
    lock_order::OnTryLockSuccess(class_id_);
#endif
    return true;
  }

  void Unlock() RELEASE() {
    mu_.unlock();
#if NEVE_LOCK_ORDER
    lock_order::OnUnlock(class_id_);
#endif
  }

 private:
  std::mutex mu_;
#if NEVE_LOCK_ORDER
  int class_id_;
#endif
};

// RAII holder; the annotated equivalent of std::lock_guard<neve::Mutex>.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace neve

#endif  // NEVE_SRC_BASE_MUTEX_H_
