#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "util/failpoint.h"
#include "util/metrics.h"

namespace mysawh {

namespace {

/// Fault site of the dispatch path. When armed (tests only), a triggering
/// hit drops the task *body* while still accounting its completion, which
/// models "a task died without producing its result": Wait()/ParallelFor
/// return normally, consumers observe the missing result through their own
/// Status slots, and the pool stays healthy for subsequent rounds.
bool TaskDropped() { return MYSAWH_FAILPOINT_TRIGGERED("thread_pool/task"); }

/// Pool instruments, shared by every pool in the process (the registry is
/// global; pools are fungible workers of one process). Cached pointers:
/// the registry lock is paid once per process, not per task.
struct PoolMetrics {
  Gauge* queue_depth;
  Counter* dispatched;
  Counter* inline_runs;
  Counter* dropped;
  LatencyHistogram* task_us;
};

PoolMetrics& Metrics() {
  static PoolMetrics metrics = [] {
    auto& registry = MetricsRegistry::Global();
    return PoolMetrics{registry.GetGauge("thread_pool.queue_depth"),
                       registry.GetCounter("thread_pool.tasks_dispatched"),
                       registry.GetCounter("thread_pool.tasks_inline"),
                       registry.GetCounter("thread_pool.tasks_dropped"),
                       registry.GetHistogram("thread_pool.task_us")};
  }();
  return metrics;
}

/// True while the calling thread runs a pool task, on a worker or inline.
/// Parallel work issued from inside a task runs inline on that thread: the
/// outer level already occupies the workers, and a task that blocked in
/// Wait() on the pool it runs on would deadlock.
thread_local bool t_in_task = false;

/// Marks the calling thread as running a task for its lifetime.
class InTask {
 public:
  InTask() : saved_(t_in_task) { t_in_task = true; }
  ~InTask() { t_in_task = saved_; }
  InTask(const InTask&) = delete;
  InTask& operator=(const InTask&) = delete;

 private:
  bool saved_;
};

/// Runs one task body under the drop failpoint, timing it into the task
/// latency histogram.
void RunAccounted(const std::function<void()>& task) {
  InTask in_task;
  if (TaskDropped()) {
    Metrics().dropped->Increment();
    return;
  }
  // Fault site for the stall watchdog: a triggering hit wedges the task
  // (sleeps long enough for a short-timeout watchdog to fire) before
  // running it normally, so the run survives while the monitor observes
  // a genuine progress gap.
  if (MYSAWH_FAILPOINT_TRIGGERED("thread_pool/wedge")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  ScopedLatencyTimer timer(Metrics().task_us);
  task();
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(0, num_threads <= 1 ? 0 : num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::RunsInline() const { return workers_.empty() || t_in_task; }

void ThreadPool::Submit(std::function<void()> task) {
  if (RunsInline()) {
    Metrics().inline_runs->Increment();
    RunAccounted(task);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  Metrics().dispatched->Increment();
  Metrics().queue_depth->Add(1);
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  if (RunsInline()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

int64_t ThreadPool::PendingTasks() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return static_cast<int64_t>(tasks_.size());
}

void ThreadPool::ParallelFor(int64_t count,
                             const std::function<void(int64_t)>& fn) {
  if (count <= 0) return;
  if (RunsInline()) {
    // One dispatch per chunk-equivalent would be ambiguous inline; treat
    // the whole inline range as one dispatched task, mirroring Submit.
    Metrics().inline_runs->Increment();
    RunAccounted([count, &fn] {
      for (int64_t i = 0; i < count; ++i) fn(i);
    });
    return;
  }
  const int64_t num_chunks =
      std::min<int64_t>(count, static_cast<int64_t>(workers_.size()) * 4);
  const int64_t chunk = (count + num_chunks - 1) / num_chunks;
  for (int64_t start = 0; start < count; start += chunk) {
    const int64_t end = std::min(start + chunk, count);
    Submit([start, end, &fn] {
      for (int64_t i = start; i < end; ++i) fn(i);
    });
  }
  Wait();
}

void ThreadPool::ParallelForChunks(
    int64_t count, int64_t chunk_size,
    const std::function<void(int64_t chunk, int64_t begin, int64_t end)>&
        fn) {
  if (count <= 0 || chunk_size <= 0) return;
  if (RunsInline()) {
    Metrics().inline_runs->Increment();
    RunAccounted([count, chunk_size, &fn] {
      int64_t chunk = 0;
      for (int64_t begin = 0; begin < count; begin += chunk_size, ++chunk) {
        fn(chunk, begin, std::min(begin + chunk_size, count));
      }
    });
    return;
  }
  int64_t chunk = 0;
  for (int64_t begin = 0; begin < count; begin += chunk_size, ++chunk) {
    const int64_t end = std::min(begin + chunk_size, count);
    Submit([chunk, begin, end, &fn] { fn(chunk, begin, end); });
  }
  Wait();
}

ThreadPool& DefaultPool() {
  static ThreadPool pool(
      static_cast<int>(std::thread::hardware_concurrency()));
  return pool;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    Metrics().queue_depth->Add(-1);
    RunAccounted(task);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace mysawh
