// WorkerPool (coorm/common/worker_pool.hpp): batch submit/join semantics,
// the serial N=1 fallback, exception propagation, and reuse across batches
// — the properties the parallel scheduler's determinism rests on.
#include "coorm/common/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace coorm {
namespace {

TEST(WorkerPool, SerialPoolSpawnsNoThreads) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  EXPECT_EQ(pool.workerCount(), 0u);

  // Every task runs inline on the submitting thread.
  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::thread::id> ranOn(16);
  pool.parallelFor(ranOn.size(),
                   [&](std::size_t i) { ranOn[i] = std::this_thread::get_id(); });
  for (const std::thread::id id : ranOn) EXPECT_EQ(id, self);
}

TEST(WorkerPool, ThreadCountIsClampedToOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  EXPECT_EQ(pool.workerCount(), 0u);
  WorkerPool negative(-3);
  EXPECT_EQ(negative.threads(), 1);
}

TEST(WorkerPool, PoolSpawnsThreadsMinusOneWorkers) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  EXPECT_EQ(pool.workerCount(), 3u);
}

TEST(WorkerPool, SubmitJoinRunsInSubmissionOrderOnSerialPool) {
  WorkerPool pool(1);
  std::vector<int> order;
  for (int k = 0; k < 8; ++k) {
    pool.submit([&order, k] { order.push_back(k); });
  }
  pool.join();
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);

  // join() consumed the batch: an empty join is a no-op.
  pool.join();
  EXPECT_EQ(order, expected);
}

TEST(WorkerPool, ParallelForCoversEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  constexpr std::size_t kCount = 512;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallelFor(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(WorkerPool, SubmitJoinOnPooledThreadsRunsEveryTask) {
  WorkerPool pool(3);
  constexpr int kTasks = 64;
  std::atomic<int> ran{0};
  for (int k = 0; k < kTasks; ++k) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.join();
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(WorkerPool, ExceptionIsRethrownAndRemainingTasksStillRun) {
  WorkerPool pool(2);
  std::atomic<int> ran{0};
  const auto batch = [&] {
    pool.parallelFor(16, [&](std::size_t i) {
      if (i == 3) throw std::runtime_error("task 3 failed");
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  };
  EXPECT_THROW(batch(), std::runtime_error);
  EXPECT_EQ(ran.load(), 15);

  // The serial fallback has the same contract.
  WorkerPool serial(1);
  int serialRan = 0;
  EXPECT_THROW(serial.parallelFor(4,
                                  [&](std::size_t i) {
                                    if (i == 0) throw std::runtime_error("x");
                                    ++serialRan;
                                  }),
               std::runtime_error);
  EXPECT_EQ(serialRan, 3);
}

TEST(WorkerPool, ReusableAcrossManyBatchesIncludingAfterThrow) {
  WorkerPool pool(4);
  std::vector<long> slots(128);
  for (int pass = 1; pass <= 20; ++pass) {
    if (pass == 10) {
      EXPECT_THROW(
          pool.parallelFor(4, [](std::size_t) { throw std::logic_error("b"); }),
          std::logic_error);
      continue;
    }
    pool.parallelFor(slots.size(),
                     [&](std::size_t i) { slots[i] = pass * 1000 + static_cast<long>(i); });
    for (std::size_t i = 0; i < slots.size(); ++i) {
      ASSERT_EQ(slots[i], pass * 1000 + static_cast<long>(i)) << "pass " << pass;
    }
  }
}

TEST(WorkerPool, TasksRunConcurrentlyOnPooledThreads) {
  // Two tasks rendezvous: each arrives and waits (bounded) for the other.
  // If the pool serialized them, the first would time out and the test
  // fails rather than hangs.
  WorkerPool pool(2);
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  bool met = true;
  pool.parallelFor(2, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    ++arrived;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(10),
                     [&] { return arrived == 2; })) {
      met = false;
    }
  });
  EXPECT_TRUE(met);
  EXPECT_EQ(arrived, 2);
}

TEST(WorkerPool, ParallelForOfZeroOrOneRunsInline) {
  WorkerPool pool(4);
  pool.parallelFor(0, [](std::size_t) { FAIL() << "no task expected"; });
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id ranOn{};
  pool.parallelFor(1, [&](std::size_t) { ranOn = std::this_thread::get_id(); });
  EXPECT_EQ(ranOn, self);
}

TEST(WorkerPool, FreeFunctionParallelForHandlesNullPool) {
  std::vector<int> order;
  parallelFor(nullptr, 4, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace coorm
