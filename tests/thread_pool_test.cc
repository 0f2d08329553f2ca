#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "util/failpoint.h"
#include "util/metrics.h"

namespace mysawh {
namespace {

TEST(ThreadPoolTest, InlineModeRunsOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 0);
  int value = 0;
  pool.Submit([&] { value = 7; });
  EXPECT_EQ(value, 7);  // ran synchronously
}

TEST(ThreadPoolTest, SubmitAndWait) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<int> touched(1000, 0);
    pool.ParallelFor(1000, [&](int64_t i) {
      touched[static_cast<size_t>(i)] += 1;
    });
    EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), 1000)
        << "threads=" << threads;
    for (int t : touched) EXPECT_EQ(t, 1);
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndNegative) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](int64_t) { ++calls; });
  pool.ParallelFor(-5, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int64_t> sum{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.ParallelFor(50, [&](int64_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 5 * (49 * 50 / 2));
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) pool.Submit([&] { counter.fetch_add(1); });
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, PendingTasksCountsBacklogAndDrains) {
  ThreadPool pool(2);
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> started{0};
  // Occupy both workers so further submissions stay queued.
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&] {
      started.fetch_add(1);
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&] { return release; });
    });
  }
  while (started.load() < 2) std::this_thread::yield();
  for (int i = 0; i < 5; ++i) pool.Submit([] {});
  EXPECT_EQ(pool.PendingTasks(), 5);
  Gauge* depth =
      MetricsRegistry::Global().GetGauge("thread_pool.queue_depth");
  EXPECT_GE(depth->Value(), 5);
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
  EXPECT_EQ(pool.PendingTasks(), 0);
  EXPECT_EQ(depth->Value(), 0);
}

TEST(ThreadPoolTest, InlineModeHasNoBacklog) {
  ThreadPool pool(1);
  pool.Submit([] {});
  EXPECT_EQ(pool.PendingTasks(), 0);
}

TEST(ThreadPoolTest, NestedWorkRunsInlineOnTheIssuingWorker) {
  // The study's fits run on one pool and call DefaultPool() (prediction)
  // and their own pool from inside their task: both must stay on the
  // fit's worker, and neither may deadlock.
  ThreadPool pool(4);
  std::atomic<int> off_thread{0};
  std::atomic<int64_t> inner_sum{0};
  pool.ParallelFor(8, [&](int64_t) {
    const std::thread::id outer = std::this_thread::get_id();
    auto inner = [&](int64_t i) {
      if (std::this_thread::get_id() != outer) off_thread.fetch_add(1);
      inner_sum.fetch_add(i);
    };
    pool.ParallelFor(100, inner);
    DefaultPool().ParallelFor(100, inner);
    pool.ParallelForChunks(100, 7, [&](int64_t, int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) inner(i);
    });
    pool.Submit([&] { inner(0); });
    pool.Wait();  // returns at once: the submission above ran inline
  });
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_EQ(inner_sum.load(), 8 * 3 * (99 * 100 / 2));
}

TEST(ThreadPoolTest, InlinePoolTasksAlsoNestInline) {
  // A one-thread study runs its fits inline on the caller; their nested
  // work must not fan out to DefaultPool() either.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  pool.Submit([&] {
    DefaultPool().ParallelFor(64, [&](int64_t) {
      if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
    });
  });
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPoolTest, CallerLeavesTaskModeWhenTheTaskEnds) {
  // After an inline task returns, work issued from the caller fans out
  // again (when the pool has workers to fan out to).
  ThreadPool inline_pool(1);
  inline_pool.ParallelFor(4, [](int64_t) {});
  ThreadPool pool(2);
  std::mutex m;
  std::condition_variable cv;
  int started = 0;
  // Each of the two chunks blocks until both have started, which only
  // happens if they run on two different workers at once.
  pool.ParallelForChunks(2, 1, [&](int64_t, int64_t, int64_t) {
    std::unique_lock<std::mutex> lock(m);
    ++started;
    cv.notify_all();
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return started == 2; }));
  });
  EXPECT_EQ(started, 2);
}

class ThreadPoolFailureTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Global().DisableAll(); }
};

TEST_F(ThreadPoolFailureTest, DroppedTaskDoesNotDeadlockWait) {
  ThreadPool pool(4);
  FailpointRegistry::Global().Enable("thread_pool/task",
                                     FailpointSpec::Once());
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) pool.Submit([&] { ran.fetch_add(1); });
  pool.Wait();  // must return even though one task body was dropped
  EXPECT_EQ(ran.load(), 19);
}

TEST_F(ThreadPoolFailureTest, FailedRoundDoesNotPoisonLaterRounds) {
  ThreadPool pool(4);
  FailpointRegistry::Global().Enable("thread_pool/task",
                                     FailpointSpec::Once());
  std::vector<int> touched(200, 0);
  pool.ParallelFor(200, [&](int64_t i) { touched[static_cast<size_t>(i)] = 1; });
  const int first_round =
      std::accumulate(touched.begin(), touched.end(), 0);
  EXPECT_LT(first_round, 200);  // one dispatch chunk was dropped

  // The pool is healthy again: the next rounds are complete and, run
  // twice, deterministic.
  FailpointRegistry::Global().DisableAll();
  for (int round = 0; round < 2; ++round) {
    std::vector<int> again(200, 0);
    pool.ParallelFor(200, [&](int64_t i) { again[static_cast<size_t>(i)] = 1; });
    EXPECT_EQ(std::accumulate(again.begin(), again.end(), 0), 200)
        << "round " << round;
  }
}

TEST_F(ThreadPoolFailureTest, ConsumersSeeMissingResultsViaStatusSlots) {
  // The contract the study runner relies on: a dropped cell leaves its
  // pre-filled error Status in place instead of vanishing silently.
  ThreadPool pool(2);
  FailpointRegistry::Global().Enable("thread_pool/task",
                                     FailpointSpec::Nth(2));
  std::vector<Status> slots(8, Status::Internal("cell never ran"));
  pool.ParallelFor(static_cast<int64_t>(slots.size()), [&](int64_t i) {
    slots[static_cast<size_t>(i)] = Status::Ok();
  });
  int missing = 0;
  for (const auto& status : slots) {
    if (!status.ok()) ++missing;
  }
  EXPECT_GT(missing, 0);
  EXPECT_LT(missing, static_cast<int>(slots.size()));
}

TEST_F(ThreadPoolFailureTest, QueueDepthGaugeZeroAfterDroppedTask) {
  // Regression: the depth gauge is decremented on dequeue, before the drop
  // failpoint fires, so a task that dies without running still balances
  // the gauge back to zero.
  Gauge* depth =
      MetricsRegistry::Global().GetGauge("thread_pool.queue_depth");
  Counter* dropped =
      MetricsRegistry::Global().GetCounter("thread_pool.tasks_dropped");
  const int64_t dropped_before = dropped->Value();
  ThreadPool pool(4);
  FailpointRegistry::Global().Enable("thread_pool/task",
                                     FailpointSpec::Once());
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) pool.Submit([&] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 49);
  EXPECT_EQ(dropped->Value(), dropped_before + 1);
  EXPECT_EQ(pool.PendingTasks(), 0);
  EXPECT_EQ(depth->Value(), 0);
}

TEST_F(ThreadPoolFailureTest, InlinePoolDropsWholeRangeButReturns) {
  ThreadPool pool(1);  // inline mode
  FailpointRegistry::Global().Enable("thread_pool/task",
                                     FailpointSpec::Once());
  int calls = 0;
  pool.ParallelFor(10, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);  // the single inline dispatch was dropped
  pool.ParallelFor(10, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 10);  // and the pool works again
}

}  // namespace
}  // namespace mysawh
