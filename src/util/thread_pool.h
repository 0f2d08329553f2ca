#ifndef MYSAWH_UTIL_THREAD_POOL_H_
#define MYSAWH_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mysawh {

/// A fixed-size worker pool: the study's fit scheduler, batch prediction,
/// TreeSHAP, and the audit and drift hooks run on one. A single fit runs on
/// one thread. With `num_threads <= 1` all work runs inline on the calling
/// thread, which keeps single-core environments overhead-free and makes
/// results trivially deterministic.
///
/// Nesting: work issued from inside a running task — on a worker, or inline
/// — runs inline on that thread, whichever pool it is issued to. Only the
/// outermost level fans out, so a study that schedules its fits on one pool
/// keeps every core busy with exactly one fit, the predictions inside a fit
/// do not oversubscribe the host, and a task may call ParallelFor on the
/// pool it runs on without deadlocking.
///
/// Fault injection: the dispatch path hits the `thread_pool/task`
/// failpoint once per dispatched task (once per inline ParallelFor* call).
/// A triggering hit drops the task body but still accounts its completion,
/// so robustness tests can prove that a dying task neither deadlocks
/// Wait()/ParallelFor nor poisons later rounds on the same pool.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (0 or 1 means inline execution).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 when running inline).
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task`; it may run on any worker (or inline). Workers take
  /// tasks in submission order.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. Returns at once when
  /// called from inside a task, whose own submissions ran inline.
  void Wait();

  /// Tasks submitted but not yet picked up by a worker (the queue
  /// backlog; running tasks are not counted). Always 0 in inline mode.
  /// Feeds the `thread_pool.queue_depth` gauge, which sums the backlog
  /// across every live pool in the process.
  int64_t PendingTasks() const;

  /// Runs `fn(i)` for i in [0, count), partitioned into contiguous chunks
  /// across the pool, and blocks until all iterations complete. `fn` must be
  /// safe to call concurrently for distinct i. Runs inline when called from
  /// inside a task (see the nesting rule above).
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& fn);

  /// Runs `fn(chunk, begin, end)` over the fixed-size partition of
  /// [0, count) into chunks of `chunk_size` (the last chunk may be short),
  /// and blocks until all chunks complete. Chunk boundaries depend only on
  /// `count` and `chunk_size` — never on the worker count — so reductions
  /// that accumulate per chunk and then merge in chunk order are bit-exact
  /// for any `num_threads`, including inline execution. The chunk index is
  /// dense in [0, ceil(count / chunk_size)).
  void ParallelForChunks(
      int64_t count, int64_t chunk_size,
      const std::function<void(int64_t chunk, int64_t begin, int64_t end)>&
          fn);

 private:
  /// True when work issued now runs on the calling thread: the pool has no
  /// workers, or the caller is itself running a pool task.
  bool RunsInline() const;
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  int64_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// A process-wide shared pool sized to the hardware concurrency, for batch
/// workloads (prediction, SHAP) that have no per-call thread configuration.
/// Lazily constructed on first use; on single-core machines it runs inline.
/// Safe to use from several caller threads at once; calls from inside a
/// pool task run inline (see the nesting rule of ThreadPool).
ThreadPool& DefaultPool();

}  // namespace mysawh

#endif  // MYSAWH_UTIL_THREAD_POOL_H_
