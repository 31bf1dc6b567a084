// ParallelFor semantics the bench and fuzz harnesses depend on: every index
// runs exactly once, a throwing cell propagates (rather than std::terminate-
// ing a worker or deadlocking the join), the surviving cells still drain,
// which exception surfaces is deterministic across --threads= values, and
// the worker threads a calling thread keeps serve its later calls.

#include "src/base/parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace neve {
namespace {

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 8u}) {
    std::vector<std::atomic<int>> ran(64);
    ParallelFor(ran.size(), threads, [&](size_t i) { ran[i].fetch_add(1); });
    for (size_t i = 0; i < ran.size(); ++i) {
      EXPECT_EQ(ran[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, ThrowPropagatesAndRemainingIndicesDrain) {
  for (unsigned threads : {1u, 2u, 8u}) {
    std::vector<std::atomic<int>> ran(16);
    std::string caught;
    try {
      ParallelFor(ran.size(), threads, [&](size_t i) {
        ran[i].fetch_add(1);
        if (i == 3 || i == 11) {
          throw std::runtime_error("cell " + std::to_string(i));
        }
      });
      FAIL() << "expected ParallelFor to rethrow (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    // The LOWEST failing index wins, so serial and parallel runs surface the
    // same error even when a later failing cell finishes first.
    EXPECT_EQ(caught, "cell 3") << "threads " << threads;
    // A failing cell must not starve the others: everything still ran once.
    for (size_t i = 0; i < ran.size(); ++i) {
      EXPECT_EQ(ran[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, NonStandardExceptionTypesPropagate) {
  EXPECT_THROW(ParallelFor(4, 2,
                           [](size_t i) {
                             if (i == 2) {
                               throw 42;  // not derived from std::exception
                             }
                           }),
               int);
}

TEST(ParallelForTest, ZeroAndSingleIterationDegenerateCases) {
  std::atomic<int> calls{0};
  ParallelFor(0, 8, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  ParallelFor(1, 8, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 7u}) {
    constexpr size_t kN = 100;
    std::vector<std::atomic<int>> seen(kN);
    ParallelFor(kN, threads, [&](size_t i) { seen[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(seen[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, MoreThreadsThanWorkIsFine) {
  std::atomic<int> calls{0};
  ParallelFor(3, 16, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3);
  ParallelFor(0, 4, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3);
}

// The threads that ran a ParallelFor(threads, threads, ...) call. Every
// index waits until all `threads` have arrived, so each thread takes
// exactly one index and every worker the call may use takes part.
std::set<std::thread::id> ThreadsOfFullCall(unsigned threads) {
  std::latch all_arrived(threads);
  std::mutex mu;
  std::set<std::thread::id> ids;
  ParallelFor(threads, threads, [&](size_t) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    }
    all_arrived.arrive_and_wait();
  });
  return ids;
}

TEST(ParallelForTest, LaterCallsRunOnTheKeptWorkers) {
  std::set<std::thread::id> first = ThreadsOfFullCall(4);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_TRUE(first.contains(std::this_thread::get_id()));
  EXPECT_EQ(ThreadsOfFullCall(4), first);
}

TEST(ParallelForTest, FewerThreadsThanAnEarlierCallUsesAtMostThatMany) {
  std::set<std::thread::id> kept = ThreadsOfFullCall(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  ParallelFor(64, 2, [&](size_t) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_LE(ids.size(), 2u);
  for (std::thread::id id : ids) {
    EXPECT_TRUE(kept.contains(id));
  }
}

TEST(ParallelForTest, ConcurrentCallersEachUseTheirOwnWorkers) {
  constexpr unsigned kThreads = 3;
  std::set<std::thread::id> ids[2];
  std::vector<std::atomic<int>> ran[2] = {std::vector<std::atomic<int>>(64),
                                          std::vector<std::atomic<int>>(64)};
  // A caller that exits joins its workers, and a later thread may reuse
  // their ids; both callers stay until both have taken theirs, so every id
  // compared below belongs to a live thread.
  std::latch both_gathered(2);
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      for (int call = 0; call < 20; ++call) {
        ParallelFor(ran[c].size(), kThreads,
                    [&](size_t i) { ran[c][i].fetch_add(1); });
      }
      ids[c] = ThreadsOfFullCall(kThreads);
      both_gathered.arrive_and_wait();
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(ids[c].size(), kThreads);
    for (size_t i = 0; i < ran[c].size(); ++i) {
      EXPECT_EQ(ran[c][i].load(), 20) << "caller " << c << " index " << i;
    }
  }
  for (std::thread::id id : ids[0]) {
    EXPECT_FALSE(ids[1].contains(id)) << "a worker served both callers";
  }
}

TEST(ParallelForTest, NestedCallCompletes) {
  constexpr size_t kOuter = 4, kInner = 8;
  std::vector<std::atomic<int>> ran(kOuter * kInner);
  for (int call = 0; call < 3; ++call) {
    // Each outer index waits, after its nested call, until every outer
    // index has finished its own: a nested call on the calling thread must
    // not wait for the outer call's other indices.
    std::mutex mu;
    std::condition_variable cv;
    size_t nested_done = 0;
    bool timed_out = false;
    ParallelFor(kOuter, 4, [&](size_t i) {
      ParallelFor(kInner, 3,
                  [&](size_t j) { ran[i * kInner + j].fetch_add(1); });
      std::unique_lock<std::mutex> lock(mu);
      ++nested_done;
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return nested_done == kOuter; })) {
        timed_out = true;
      }
    });
    EXPECT_FALSE(timed_out) << "call " << call;
  }
  for (size_t k = 0; k < ran.size(); ++k) {
    EXPECT_EQ(ran[k].load(), 3) << "cell " << k;
  }
}

}  // namespace
}  // namespace neve
