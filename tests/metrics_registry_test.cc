/// Tests of the process-wide metrics registry (util/metrics.h): exactness
/// under concurrency, snapshot determinism, and the latency histogram's
/// power-of-two bucketing.

#include "util/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace mysawh {
namespace {

/// The `q`-quantile of a live histogram, read the way the `report`
/// dashboard reads a snapshot: through HistogramQuantileFromBuckets.
int64_t QuantileMicros(const LatencyHistogram& hist, double q) {
  int64_t buckets[LatencyHistogram::kNumBuckets];
  for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    buckets[b] = hist.BucketCount(b);
  }
  return HistogramQuantileFromBuckets(buckets, LatencyHistogram::kNumBuckets,
                                      hist.MaxMicros(), q);
}

TEST(MetricsRegistryTest, InstrumentPointersAreStable) {
  auto& registry = MetricsRegistry::Global();
  Counter* a = registry.GetCounter("test.stable_counter");
  Counter* b = registry.GetCounter("test.stable_counter");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.GetGauge("test.stable_gauge"),
            registry.GetGauge("test.stable_gauge"));
  EXPECT_EQ(registry.GetHistogram("test.stable_hist"),
            registry.GetHistogram("test.stable_hist"));
}

TEST(MetricsRegistryTest, ConcurrentIncrementsSumExactly) {
  Counter* counter =
      MetricsRegistry::Global().GetCounter("test.concurrent_counter");
  Gauge* gauge = MetricsRegistry::Global().GetGauge("test.concurrent_gauge");
  const int64_t counter_before = counter->Value();
  const int64_t gauge_before = gauge->Value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        gauge->Add(2);
        gauge->Add(-1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(), counter_before + kThreads * kPerThread);
  EXPECT_EQ(gauge->Value(), gauge_before + kThreads * kPerThread);
}

TEST(MetricsRegistryTest, HistogramBucketsArePowersOfTwo) {
  LatencyHistogram hist;
  hist.Record(0);    // bucket 0: exactly 0
  hist.Record(1);    // bucket 1: [1, 2)
  hist.Record(2);    // bucket 2: [2, 4)
  hist.Record(3);    // bucket 2
  hist.Record(4);    // bucket 3: [4, 8)
  hist.Record(1000);  // bucket 10: [512, 1024)
  hist.Record(-5);   // clamped to 0 -> bucket 0
  EXPECT_EQ(hist.Count(), 7);
  EXPECT_EQ(hist.MaxMicros(), 1000);
  EXPECT_EQ(hist.SumMicros(), 0 + 1 + 2 + 3 + 4 + 1000 + 0);
  EXPECT_EQ(hist.BucketCount(0), 2);
  EXPECT_EQ(hist.BucketCount(1), 1);
  EXPECT_EQ(hist.BucketCount(2), 2);
  EXPECT_EQ(hist.BucketCount(3), 1);
  EXPECT_EQ(hist.BucketCount(10), 1);
}

TEST(MetricsRegistryTest, HistogramLastBucketIsUnbounded) {
  LatencyHistogram hist;
  hist.Record(int64_t{1} << 40);  // far beyond the 20-bucket range
  EXPECT_EQ(hist.BucketCount(LatencyHistogram::kNumBuckets - 1), 1);
}

TEST(MetricsRegistryTest, ConcurrentHistogramRecordsSumExactly) {
  LatencyHistogram* hist =
      MetricsRegistry::Global().GetHistogram("test.concurrent_hist");
  const int64_t before = hist->Count();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) hist->Record(t + 1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(hist->Count(), before + kThreads * kPerThread);
}

TEST(MetricsRegistryTest, SnapshotIsDeterministicAndSorted) {
  auto& registry = MetricsRegistry::Global();
  // Register in non-sorted order; the snapshot must not care.
  registry.GetCounter("test.zzz_counter")->Increment(3);
  registry.GetCounter("test.aaa_counter")->Increment(7);
  const std::string first = registry.SnapshotJson();
  const std::string second = registry.SnapshotJson();
  EXPECT_EQ(first, second) << "quiescent snapshots must be byte-identical";
  const size_t aaa = first.find("\"test.aaa_counter\"");
  const size_t zzz = first.find("\"test.zzz_counter\"");
  ASSERT_NE(aaa, std::string::npos);
  ASSERT_NE(zzz, std::string::npos);
  EXPECT_LT(aaa, zzz) << "keys must appear in sorted order";
  EXPECT_NE(first.find("\"counters\""), std::string::npos);
  EXPECT_NE(first.find("\"gauges\""), std::string::npos);
  EXPECT_NE(first.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, ResetAllZeroesEverything) {
  auto& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.reset_counter");
  Gauge* gauge = registry.GetGauge("test.reset_gauge");
  LatencyHistogram* hist = registry.GetHistogram("test.reset_hist");
  counter->Increment(5);
  gauge->Set(-3);
  hist->Record(17);
  registry.ResetAll();
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_EQ(gauge->Value(), 0);
  EXPECT_EQ(hist->Count(), 0);
  EXPECT_EQ(hist->SumMicros(), 0);
  EXPECT_EQ(hist->MaxMicros(), 0);
}

TEST(MetricsRegistryTest, QuantilesResolveToBucketUpperEdges) {
  // A three-mode distribution with hand-computable ranks: 50 samples of
  // 1µs (bucket 1), 40 of 100µs (bucket 7: [64, 128)), 10 of 5000µs
  // (bucket 13: [4096, 8192)).
  LatencyHistogram hist;
  for (int i = 0; i < 50; ++i) hist.Record(1);
  for (int i = 0; i < 40; ++i) hist.Record(100);
  for (int i = 0; i < 10; ++i) hist.Record(5000);
  ASSERT_EQ(hist.Count(), 100);
  // rank 50 lands at the end of bucket 1 -> upper edge 2^1 - 1 = 1.
  EXPECT_EQ(QuantileMicros(hist, 0.50), 1);
  // rank 90 is the last 100µs sample -> 2^7 - 1 = 127.
  EXPECT_EQ(QuantileMicros(hist, 0.90), 127);
  // rank 99 is a 5000µs sample -> 2^13 - 1 = 8191.
  EXPECT_EQ(QuantileMicros(hist, 0.99), 8191);
  EXPECT_EQ(QuantileMicros(hist, 1.0), 8191);
  // Out-of-range q clamps: below to the first sample, above to the last.
  EXPECT_EQ(QuantileMicros(hist, 0.0), 1);
  EXPECT_EQ(QuantileMicros(hist, 1.5), 8191);
}

TEST(MetricsRegistryTest, QuantileEdgeCases) {
  LatencyHistogram empty;
  EXPECT_EQ(QuantileMicros(empty, 0.5), 0);

  LatencyHistogram zeros;  // All-zero durations live in bucket 0.
  for (int i = 0; i < 10; ++i) zeros.Record(0);
  EXPECT_EQ(QuantileMicros(zeros, 0.5), 0);
  EXPECT_EQ(QuantileMicros(zeros, 0.99), 0);

  // The unbounded last bucket reports the recorded max, not an edge.
  LatencyHistogram huge;
  huge.Record(int64_t{1} << 40);
  EXPECT_EQ(QuantileMicros(huge, 0.5), int64_t{1} << 40);
}

TEST(MetricsRegistryTest, QuantileFromRawBucketArray) {
  // The free function is what the `report` dashboard runs over manifest
  // snapshots; exercise it on a hand-built layout. 2 zeros, 6 samples in
  // bucket 3 ([4, 8)), 2 in the unbounded last bucket.
  const int64_t buckets[5] = {2, 0, 0, 6, 2};
  EXPECT_EQ(HistogramQuantileFromBuckets(buckets, 5, 999, 0.10), 0);
  EXPECT_EQ(HistogramQuantileFromBuckets(buckets, 5, 999, 0.50), 7);
  EXPECT_EQ(HistogramQuantileFromBuckets(buckets, 5, 999, 0.80), 7);
  EXPECT_EQ(HistogramQuantileFromBuckets(buckets, 5, 999, 0.90), 999);
  EXPECT_EQ(HistogramQuantileFromBuckets(buckets, 5, 999, 1.00), 999);
  EXPECT_EQ(HistogramQuantileFromBuckets(nullptr, 0, 0, 0.5), 0);
}

TEST(MetricsRegistryTest, CounterValuesAreSortedAndComplete) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("test.values_b")->Increment(2);
  registry.GetCounter("test.values_a")->Increment(1);
  const auto values = registry.CounterValues();
  ASSERT_GE(values.size(), 2u);
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_LT(values[i - 1].first, values[i].first)
        << "names must come back strictly sorted";
  }
  int64_t a = -1, b = -1;
  for (const auto& [name, value] : values) {
    if (name == "test.values_a") a = value;
    if (name == "test.values_b") b = value;
  }
  EXPECT_GE(a, 1);
  EXPECT_GE(b, 2);
}

TEST(MetricsRegistryTest, ScopedTimerRecordsOneSample) {
  LatencyHistogram hist;
  { ScopedLatencyTimer timer(&hist); }
  EXPECT_EQ(hist.Count(), 1);
  { ScopedLatencyTimer timer(nullptr); }  // null target is a no-op
}

}  // namespace
}  // namespace mysawh
