#include "util/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "util/json.h"

namespace mysawh {

void LatencyHistogram::Record(int64_t micros) {
  if (micros < 0) micros = 0;
  // Bucket index = position of the highest set bit + 1, so bucket i spans
  // [2^(i-1), 2^i) µs and bucket 0 is exactly 0 µs.
  int bucket = std::bit_width(static_cast<uint64_t>(micros));
  if (bucket >= kNumBuckets) bucket = kNumBuckets - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(micros, std::memory_order_relaxed);
  int64_t seen = max_.load(std::memory_order_relaxed);
  while (micros > seen &&
         !max_.compare_exchange_weak(seen, micros,
                                     std::memory_order_relaxed)) {
  }
}

int64_t HistogramQuantileFromBuckets(const int64_t* buckets, int num_buckets,
                                     int64_t max_micros, double q) {
  int64_t count = 0;
  for (int b = 0; b < num_buckets; ++b) count += buckets[b];
  if (count <= 0) return 0;
  if (q <= 0.0) q = 1.0 / static_cast<double>(count);
  if (q > 1.0) q = 1.0;
  // 1-based target rank; ceil without floating-point edge surprises.
  const int64_t rank =
      std::max<int64_t>(1, static_cast<int64_t>(
                               std::ceil(q * static_cast<double>(count))));
  int64_t cumulative = 0;
  for (int b = 0; b < num_buckets; ++b) {
    cumulative += buckets[b];
    if (cumulative >= rank) {
      if (b == 0) return 0;
      if (b == num_buckets - 1) return max_micros;
      // Bucket b spans [2^(b-1), 2^b); its inclusive upper edge.
      return (int64_t{1} << b) - 1;
    }
  }
  return max_micros;
}

void LatencyHistogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked intentionally: worker threads may touch cached instrument
  // pointers during static destruction.
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
       << "\": " << counter->Value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
       << "\": " << gauge->Value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
       << "\": {\"count\": " << histogram->Count()
       << ", \"sum_us\": " << histogram->SumMicros()
       << ", \"max_us\": " << histogram->MaxMicros() << ", \"buckets\": [";
    for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
      os << (b == 0 ? "" : ", ") << histogram->BucketCount(b);
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, int64_t>> values;
  values.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    values.emplace_back(name, counter->Value());
  }
  return values;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace mysawh
