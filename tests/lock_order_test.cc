// The lock-order detector (src/base/lock_order.h): AB/BA cycles and
// reentrant acquires panic with both acquisition stacks, also when one
// thread's ordering is only in its seen-edge cache, and the acquisition
// graph -- keyed by lock *class* (name), not instance -- dumps
// byte-identically regardless of how many threads built it.

#include "src/base/lock_order.h"

#include <cstddef>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "src/base/mutex.h"
#include "src/base/parallel.h"

#if NEVE_LOCK_ORDER

namespace neve {
namespace {

void NestAThenBThenBThenA() {
  Mutex a{"test.dead_a"};
  Mutex b{"test.dead_b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock la(a);  // reverse nesting: the detector fires here
  }
}

TEST(LockOrderDeathTest, AbBaCyclePanics) {
  EXPECT_DEATH(NestAThenBThenBThenA(), "lock-order cycle");
}

TEST(LockOrderDeathTest, CycleReportCarriesBothAcquisitionStacks) {
  // The panic names the stack held at the violation...
  EXPECT_DEATH(NestAThenBThenBThenA(), "this thread holds: test.dead_b");
  // ...and the witness stack of the prior (legitimate) nesting.
  EXPECT_DEATH(NestAThenBThenBThenA(),
               "prior acquisition of 'test.dead_b' held: test.dead_a");
}

// Thread 1 records a -> b and then walks it again from its edge cache;
// thread 2 nests b -> a for the first time.
void CachedOrderThenReverseOnAnotherThread() {
  Mutex a{"test.cached_a"};
  Mutex b{"test.cached_b"};
  std::thread first([&] {
    for (int i = 0; i < 2; ++i) {
      MutexLock la(a);
      MutexLock lb(b);
    }
  });
  first.join();
  std::thread second([&] {
    MutexLock lb(b);
    MutexLock la(a);  // a new edge for this thread: the full check runs
  });
  second.join();
}

TEST(LockOrderDeathTest, CycleAgainstAnotherThreadsCachedEdgePanics) {
  EXPECT_DEATH(CachedOrderThenReverseOnAnotherThread(),
               "lock-order cycle.*this thread holds: test.cached_b");
  EXPECT_DEATH(CachedOrderThenReverseOnAnotherThread(),
               "prior acquisition of 'test.cached_b' held: test.cached_a");
}

TEST(LockOrderDeathTest, ReentrantAcquirePanics) {
  EXPECT_DEATH(
      {
        Mutex m{"test.reentrant"};
        m.Lock();
        m.Lock();  // same class: self-deadlock, caught before blocking
      },
      "reentrant acquire of 'test.reentrant'");
}

TEST(LockOrderTest, CountsAcquisitionsAndEdges) {
  lock_order::ResetForTest();
  Mutex a{"test.count_a"};
  Mutex b{"test.count_b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lock_order::Acquisitions(), 2u);
  EXPECT_EQ(lock_order::Edges(), 1u);
  EXPECT_EQ(lock_order::GraphDump(), "test.count_a -> test.count_b\n");
  // Re-walking an established order adds no edges.
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lock_order::Acquisitions(), 4u);
  EXPECT_EQ(lock_order::Edges(), 1u);
}

TEST(LockOrderTest, ResetForgetsCachedEdges) {
  lock_order::ResetForTest();
  // Each nesting locks its own instances of the two classes: ThreadSanitizer
  // keys mutexes by address and never sees a std::mutex destroyed, so
  // reversing one pair of objects (or of reused stack slots) would look to
  // it like a real inversion. Static storage keeps the addresses unique.
  static Mutex a1{"test.reset_a"};
  static Mutex b1{"test.reset_b"};
  static Mutex a2{"test.reset_a"};
  static Mutex b2{"test.reset_b"};
  {
    MutexLock la(a1);
    MutexLock lb(b1);
  }
  lock_order::ResetForTest();
  // The graph no longer holds a -> b, so the reverse order is legal now.
  {
    MutexLock lb(b2);
    MutexLock la(a2);
  }
  EXPECT_EQ(lock_order::GraphDump(), "test.reset_b -> test.reset_a\n");
}

TEST(LockOrderTest, ResetEdgeIsRecordedAgain) {
  lock_order::ResetForTest();
  Mutex a{"test.rerecord_a"};
  Mutex b{"test.rerecord_b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  lock_order::ResetForTest();
  // A stale cache entry would let this nesting skip the registry and leave
  // the emptied graph without the edge.
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lock_order::Edges(), 1u);
  EXPECT_EQ(lock_order::GraphDump(), "test.rerecord_a -> test.rerecord_b\n");
}

TEST(LockOrderTest, TryLockRecordsAcquisitionButNoEdges) {
  lock_order::ResetForTest();
  Mutex a{"test.try_a"};
  Mutex b{"test.try_b"};
  MutexLock la(a);
  ASSERT_TRUE(b.TryLock());
  b.Unlock();
  // A successful TryLock cannot deadlock, so it contributes no ordering
  // edge -- but it is still a held lock (reentrancy is checked) and counts.
  EXPECT_EQ(lock_order::Acquisitions(), 2u);
  EXPECT_EQ(lock_order::Edges(), 0u);
}

TEST(LockOrderTest, ClassesAreKeyedByNameNotInstance) {
  lock_order::ResetForTest();
  // Two distinct instances of the same class, nested under distinct outer
  // instances, produce ONE edge: the graph describes the locking discipline,
  // not the heap.
  for (int i = 0; i < 2; ++i) {
    Mutex outer{"test.keyed_outer"};
    Mutex inner{"test.keyed_inner"};
    MutexLock lo(outer);
    MutexLock li(inner);
  }
  EXPECT_EQ(lock_order::Edges(), 1u);
  EXPECT_EQ(lock_order::GraphDump(),
            "test.keyed_outer -> test.keyed_inner\n");
}

std::string GraphDumpForThreads(unsigned threads) {
  lock_order::ResetForTest();
  ParallelFor(32, threads, [](size_t i) {
    Mutex outer{"test.graph_outer"};
    Mutex inner{"test.graph_inner"};
    Mutex leaf{"test.graph_leaf"};
    MutexLock lo(outer);
    if (i % 2 == 0) {
      MutexLock li(inner);
      MutexLock ll(leaf);
    } else {
      MutexLock ll(leaf);
    }
  });
  return lock_order::GraphDump();
}

TEST(LockOrderTest, GraphDumpByteIdenticalAcrossThreadCounts) {
  // The --threads= byte-identity contract extends to the detector: the
  // acquisition graph depends on which nestings the program performs, never
  // on which thread (or how many) performed them.
  std::string d1 = GraphDumpForThreads(1);
  std::string d2 = GraphDumpForThreads(2);
  std::string d8 = GraphDumpForThreads(8);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d8);
  EXPECT_EQ(d1,
            "test.graph_inner -> test.graph_leaf\n"
            "test.graph_outer -> test.graph_inner\n"
            "test.graph_outer -> test.graph_leaf\n");
}

TEST(LockOrderTest, AcquisitionsCountEveryThread) {
  lock_order::ResetForTest();
  ParallelFor(32, 8, [](size_t) {
    Mutex outer{"test.count_threads_outer"};
    Mutex inner{"test.count_threads_inner"};
    MutexLock lo(outer);
    MutexLock li(inner);
  });
  EXPECT_EQ(lock_order::Acquisitions(), 64u);
}

TEST(LockOrderTest, UnlockOutOfOrderIsAccepted) {
  lock_order::ResetForTest();
  Mutex a{"test.order_a"};
  Mutex b{"test.order_b"};
  a.Lock();
  b.Lock();
  a.Unlock();  // non-LIFO release: legal, held set shrinks correctly
  b.Unlock();
  {
    MutexLock la(a);  // would be a false reentrancy if the held set leaked
  }
  EXPECT_EQ(lock_order::Acquisitions(), 3u);
}

}  // namespace
}  // namespace neve

#endif  // NEVE_LOCK_ORDER
