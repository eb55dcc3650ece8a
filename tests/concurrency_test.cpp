// Tests for the concurrency substrate: bounded queue and thread pool /
// parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "concurrency/bounded_queue.hpp"
#include "concurrency/thread_pool.hpp"

namespace vgbl {
namespace {

// --- BoundedQueue --------------------------------------------------------------

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop(), i);
}

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueueTest, CloseWakesConsumers) {
  BoundedQueue<int> q(4);
  std::thread consumer([&] {
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), std::nullopt);  // closed + drained
  });
  q.push(1);
  q.close();
  consumer.join();
}

TEST(BoundedQueueTest, CloseRejectsProducers) {
  BoundedQueue<int> q(4);
  q.close();
  EXPECT_FALSE(q.push(1));
  EXPECT_FALSE(q.try_push(1));
}

TEST(BoundedQueueTest, DrainsAfterClose) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueueTest, BlockingPushUnblocksOnPop) {
  BoundedQueue<int> q(1);
  q.push(0);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(1);  // blocks until the consumer pops
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop(), 0);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop(), 1);
}

TEST(BoundedQueueTest, MpmcStressConservesItems) {
  BoundedQueue<int> q(16);
  constexpr int kProducers = 3;
  constexpr int kItemsEach = 500;
  std::atomic<i64> sum{0};
  std::atomic<int> received{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kItemsEach; ++i) q.push(p * kItemsEach + i);
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        ++received;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<size_t>(p)].join();
  q.close();
  threads[3].join();
  threads[4].join();

  const i64 expected =
      static_cast<i64>(kProducers) * kItemsEach * (kProducers * kItemsEach - 1) / 2;
  EXPECT_EQ(received.load(), kProducers * kItemsEach);
  EXPECT_EQ(sum.load(), expected);
}

// --- ThreadPool ----------------------------------------------------------------

TEST(ThreadPoolTest, SubmitReturnsFutureValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](i64 i) { ++hits[static_cast<size_t>(i)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(5, 5, [&](i64) { ++count; });
  pool.parallel_for(5, 3, [&](i64) { ++count; });
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPoolTest, ParallelForChunksSeesWholeRange) {
  ThreadPool pool(2);
  std::atomic<i64> total{0};
  pool.parallel_for_chunks(
      0, 1000,
      [&](i64 lo, i64 hi) { total += (hi - lo); },
      64);
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPoolTest, ParallelForSum) {
  ThreadPool pool(4);
  std::atomic<i64> sum{0};
  pool.parallel_for(1, 10001, [&](i64 i) { sum += i; });
  EXPECT_EQ(sum.load(), 50005000);
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](i64) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

// The helper that finishes the last chunk notifies the caller after
// decrementing the chunk count, so the caller may already have returned:
// the wait state must outlive the call, or the helper locks a destroyed
// mutex (a TSan race, a crash under load). Many tiny calls make that
// window likely.
TEST(ThreadPoolTest, ParallelForChunksReturnsBeforeHelpersAreDone) {
  ThreadPool pool(3);
  i64 total = 0;
  for (int call = 0; call < 20000; ++call) {
    std::atomic<i64> sum{0};
    pool.parallel_for_chunks(
        0, 4,
        [&](i64 lo, i64 hi) {
          for (i64 i = lo; i < hi; ++i) sum += i;
        },
        1);
    total += sum.load();
  }
  EXPECT_EQ(total, 20000 * (0 + 1 + 2 + 3));
}

TEST(ThreadPoolTest, NestedSubmissionFromTask) {
  ThreadPool pool(2);
  auto outer = pool.submit([&pool] {
    auto inner = pool.submit([] { return 5; });
    return inner.get() + 1;
  });
  EXPECT_EQ(outer.get(), 6);
}

}  // namespace
}  // namespace vgbl
