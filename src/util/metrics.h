#ifndef MYSAWH_UTIL_METRICS_H_
#define MYSAWH_UTIL_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mysawh {

/// Process-wide metrics: named counters, gauges, and fixed-bucket latency
/// histograms, snapshot-able to deterministic JSON.
///
/// Design goals, in order:
///   * *Lock-cheap hot path.* Every instrument is a handful of relaxed
///     atomics; the registry mutex is taken only on first lookup of a name.
///     Call sites cache the returned pointer (instruments are never freed,
///     so a cached pointer stays valid for the process lifetime):
///
///       static Counter* rows =
///           MetricsRegistry::Global().GetCounter("gbt.predict.rows");
///       rows->Increment(n);
///
///   * *Deterministic snapshots.* SnapshotJson() emits every instrument in
///     sorted name order with a fixed field layout, so two quiescent
///     processes that did the same work produce byte-identical JSON.
///   * *One counter system.* The ad-hoc `TrainingLog` histogram counters
///     of earlier revisions live here now (`gbt.train.*`); new subsystems
///     register their instruments instead of growing private structs.
///
/// The metric name catalog is documented in docs/observability.md.

/// A monotonically increasing 64-bit counter.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A 64-bit value that can move both ways (queue depths, cache sizes).
class Gauge {
 public:
  void Set(int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A latency histogram over fixed power-of-two microsecond buckets:
/// bucket i counts durations in [2^(i-1), 2^i) µs (bucket 0 holds 0 µs;
/// the last bucket is unbounded above). Also tracks count / sum / max, so
/// mean latency and tail shape are both recoverable from a snapshot.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 20;

  void Record(int64_t micros);

  /// Convenience for call sites holding a steady_clock start point.
  void RecordSince(std::chrono::steady_clock::time_point start) {
    Record(std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start)
               .count());
  }

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t SumMicros() const { return sum_.load(std::memory_order_relaxed); }
  int64_t MaxMicros() const { return max_.load(std::memory_order_relaxed); }
  int64_t BucketCount(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  void Reset();

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

/// Quantile extraction from a power-of-two bucket layout, for artifact
/// readers (the `report` dashboard re-derives percentiles from snapshot
/// bucket arrays).
///
/// Semantics, chosen to be exactly unit-testable: the target rank is
/// ceil(q * count) (1-based); the answer is the representative value of the
/// first bucket whose cumulative count reaches that rank — 0 for bucket 0,
/// 2^i - 1 (the bucket's inclusive upper edge) for bucket i >= 1, and
/// `max_micros` for the unbounded last bucket. `q` is clamped to (0, 1];
/// an empty histogram returns 0.
int64_t HistogramQuantileFromBuckets(const int64_t* buckets, int num_buckets,
                                     int64_t max_micros, double q);

/// RAII wall-clock timer recording into a LatencyHistogram on destruction.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(LatencyHistogram* histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ~ScopedLatencyTimer() {
    if (histogram_ != nullptr) histogram_->RecordSince(start_);
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  LatencyHistogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// The process-wide instrument registry. Thread-safe; instruments are
/// created on first lookup and live for the process lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Returns the instrument registered under `name`, creating it on first
  /// use. The pointer is stable forever; cache it at hot call sites.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  /// Serializes every registered instrument as deterministic JSON: one
  /// top-level object with "counters" / "gauges" / "histograms" objects
  /// whose keys appear in sorted order. See docs/observability.md.
  std::string SnapshotJson() const;

  /// Every registered counter as (name, value) in sorted name order. The
  /// monitor diffs two of these to report per-heartbeat activity deltas.
  std::vector<std::pair<std::string, int64_t>> CounterValues() const;

  /// Zeroes every instrument (names and pointers survive). For tests and
  /// benchmarks that measure deltas from a clean slate; production code
  /// never resets.
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace mysawh

#endif  // MYSAWH_UTIL_METRICS_H_
