#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "util/stats.h"

namespace mysawh {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.NextUint64() == b.NextUint64();
  EXPECT_LT(equal, 4);
}

TEST(RngTest, ForkIsIndependentOfParentContinuation) {
  Rng parent1(7), parent2(7);
  Rng child1 = parent1.Fork();
  Rng child2 = parent2.Fork();
  // Children of identical parents are identical.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(child1.NextUint64(), child2.NextUint64());
  }
  // Child stream differs from the parent's continuation.
  EXPECT_NE(parent1.NextUint64(), child1.NextUint64());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(11);
  int64_t hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 40000; ++i) stats.Add(rng.Normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 40000; ++i) stats.Add(rng.Exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(RngTest, PoissonMoments) {
  Rng rng(19);
  RunningStats small, large;
  for (int i = 0; i < 20000; ++i) {
    small.Add(static_cast<double>(rng.Poisson(3.5)));
    large.Add(static_cast<double>(rng.Poisson(80.0)));
  }
  EXPECT_NEAR(small.mean(), 3.5, 0.1);
  EXPECT_NEAR(small.variance(), 3.5, 0.25);
  EXPECT_NEAR(large.mean(), 80.0, 0.5);
}

TEST(RngTest, PoissonZeroLambda) {
  Rng rng(1);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, GammaMoments) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 40000; ++i) stats.Add(rng.Gamma(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 6.0, 0.15);        // k * theta
  EXPECT_NEAR(stats.variance(), 18.0, 1.0);    // k * theta^2
}

TEST(RngTest, GammaSmallShape) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 40000; ++i) {
    const double g = rng.Gamma(0.5, 1.0);
    EXPECT_GE(g, 0.0);
    stats.Add(g);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.05);
}

TEST(RngTest, BetaMomentsAndSupport) {
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 40000; ++i) {
    const double b = rng.Beta(2.0, 5.0);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
    stats.Add(b);
  }
  EXPECT_NEAR(stats.mean(), 2.0 / 7.0, 0.01);
}

TEST(RngTest, BinomialMean) {
  Rng rng(37);
  RunningStats stats;
  for (int i = 0; i < 10000; ++i) {
    stats.Add(static_cast<double>(rng.Binomial(10, 0.4)));
  }
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int64_t> sample;
    rng.SampleWithoutReplacement(20, 7, &sample);
    ASSERT_EQ(sample.size(), 7u);
    std::set<int64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 7u);
    for (int64_t idx : sample) {
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, 20);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(47);
  std::vector<int64_t> sample;
  rng.SampleWithoutReplacement(5, 5, &sample);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(sample, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, SampleWithoutReplacementEmpty) {
  Rng rng(1);
  std::vector<int64_t> sample = {7};
  rng.SampleWithoutReplacement(5, 0, &sample);
  EXPECT_TRUE(sample.empty());
}

/// FNV-1a over the eight bytes of each value: a digest of a whole stream.
uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

/// Every subsample, CV split and simulated patient is drawn through
/// UniformInt, so any change to how it consumes the generator changes the
/// study's bytes. The digests pin the streams: the draws themselves and
/// the generator state after them, which counts the rejected draws. The
/// last range, 2^63 + 2, rejects about half of all raw draws.
TEST(RngTest, UniformIntAndSampleStreamsArePinned) {
  struct Range {
    int64_t lo, hi;
    uint64_t digest;
  };
  const Range ranges[] = {
      {0, 2, 0x5b7ec09dae78922bull},
      {0, 2817, 0xf3903cd259baf56dull},
      {-3, 3, 0xcd9e4ec4d861e4f2ull},
      {std::numeric_limits<int64_t>::min(), 1, 0x0ea1bbb9f75fe65dull},
  };
  for (const Range& range : ranges) {
    SCOPED_TRACE(::testing::Message() << "[" << range.lo << ", " << range.hi
                                      << "]");
    Rng rng(2024);
    uint64_t hash = 0xCBF29CE484222325ull;
    for (int i = 0; i < 10000; ++i) {
      const int64_t x = rng.UniformInt(range.lo, range.hi);
      ASSERT_GE(x, range.lo);
      ASSERT_LE(x, range.hi);
      hash = Fnv1a(hash, static_cast<uint64_t>(x));
    }
    EXPECT_EQ(Fnv1a(hash, rng.NextUint64()), range.digest);
  }
  struct Sample {
    int64_t n, k;
    uint64_t digest;
  };
  const Sample samples[] = {{2818, 2536, 0x3c3c8a7f28820e1eull},
                            {60, 48, 0xfd85f27e0e52a53cull}};
  for (const Sample& s : samples) {
    SCOPED_TRACE(::testing::Message() << "sample " << s.k << " of " << s.n);
    Rng rng(2024);
    std::vector<int64_t> drawn;  // reused, as the trainer reuses it
    uint64_t hash = 0xCBF29CE484222325ull;
    for (int rep = 0; rep < 3; ++rep) {
      rng.SampleWithoutReplacement(s.n, s.k, &drawn);
      for (int64_t v : drawn) hash = Fnv1a(hash, static_cast<uint64_t>(v));
    }
    EXPECT_EQ(Fnv1a(hash, rng.NextUint64()), s.digest);
  }
}

/// Property sweep: UniformInt is unbiased over several ranges.
class UniformIntRangeTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(UniformIntRangeTest, MeanMatchesMidpoint) {
  const int64_t hi = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(hi));
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(static_cast<double>(rng.UniformInt(0, hi)));
  }
  const double expected = static_cast<double>(hi) / 2.0;
  EXPECT_NEAR(stats.mean(), expected, 0.02 * (hi + 1));
}

INSTANTIATE_TEST_SUITE_P(Ranges, UniformIntRangeTest,
                         ::testing::Values<int64_t>(1, 2, 9, 63, 1000));

}  // namespace
}  // namespace mysawh
