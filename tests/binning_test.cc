#include "gbt/binning.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace mysawh::gbt {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Dataset MakeOrdinalData() {
  Dataset ds = Dataset::Create({"ordinal", "wide"});
  for (int i = 0; i < 100; ++i) {
    const double ordinal = static_cast<double>(i % 5 + 1);  // 1..5
    const double wide = static_cast<double>(i) * 0.37;
    EXPECT_TRUE(ds.AddRow({ordinal, wide}, 0.0).ok());
  }
  return ds;
}

TEST(BinningTest, OrdinalFeaturesGetOneBinPerLevel) {
  const Dataset ds = MakeOrdinalData();
  const FeatureBins bins = FeatureBins::Build(ds, 64).value();
  EXPECT_EQ(bins.num_bins(0), 5);
  // Cut between levels is the midpoint.
  EXPECT_DOUBLE_EQ(bins.cut(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(bins.cut(0, 3), 4.5);
  EXPECT_TRUE(std::isinf(bins.cut(0, 4)));
}

TEST(BinningTest, WideFeatureCappedAtMaxBins) {
  const Dataset ds = MakeOrdinalData();
  const FeatureBins bins = FeatureBins::Build(ds, 16).value();
  EXPECT_LE(bins.num_bins(1), 16);
  EXPECT_GE(bins.num_bins(1), 8);
}

TEST(BinningTest, CutsStrictlyIncrease) {
  const Dataset ds = MakeOrdinalData();
  const FeatureBins bins = FeatureBins::Build(ds, 16).value();
  for (int64_t f = 0; f < bins.num_features(); ++f) {
    for (int b = 1; b < bins.num_bins(f); ++b) {
      EXPECT_GT(bins.cut(f, b), bins.cut(f, b - 1));
    }
  }
}

TEST(BinningTest, BinForRespectsBoundaries) {
  const Dataset ds = MakeOrdinalData();
  const FeatureBins bins = FeatureBins::Build(ds, 64).value();
  EXPECT_EQ(bins.BinFor(0, 1.0), 0);
  EXPECT_EQ(bins.BinFor(0, 1.49), 0);
  EXPECT_EQ(bins.BinFor(0, 1.5), 1);  // boundary goes right
  EXPECT_EQ(bins.BinFor(0, 5.0), 4);
  EXPECT_EQ(bins.BinFor(0, 99.0), 4);   // beyond max clamps to last bin
  EXPECT_EQ(bins.BinFor(0, -99.0), 0);  // below min clamps to first bin
}

TEST(BinningTest, MissingMapsToSentinel) {
  const Dataset ds = MakeOrdinalData();
  const FeatureBins bins = FeatureBins::Build(ds, 64).value();
  EXPECT_EQ(bins.BinFor(0, kNaN), kMissingBin);
}

TEST(BinningTest, AllMissingColumn) {
  Dataset ds = Dataset::Create({"empty"});
  ASSERT_TRUE(ds.AddRow({kNaN}, 0.0).ok());
  ASSERT_TRUE(ds.AddRow({kNaN}, 1.0).ok());
  const FeatureBins bins = FeatureBins::Build(ds, 8).value();
  EXPECT_EQ(bins.num_bins(0), 1);
  EXPECT_EQ(bins.BinFor(0, kNaN), kMissingBin);
}

TEST(BinningTest, RejectsTooFewBins) {
  const Dataset ds = MakeOrdinalData();
  EXPECT_FALSE(FeatureBins::Build(ds, 1).ok());
}

TEST(BinningTest, BinnedMatrixMatchesBinFor) {
  Dataset ds = Dataset::Create({"a", "b"});
  ASSERT_TRUE(ds.AddRow({1.0, 10.0}, 0.0).ok());
  ASSERT_TRUE(ds.AddRow({kNaN, 20.0}, 0.0).ok());
  ASSERT_TRUE(ds.AddRow({3.0, kNaN}, 0.0).ok());
  const FeatureBins bins = FeatureBins::Build(ds, 8).value();
  const BinnedMatrix matrix = BinnedMatrix::Build(ds, bins);
  EXPECT_EQ(matrix.num_rows(), 3);
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t f = 0; f < 2; ++f) {
      EXPECT_EQ(matrix.At(r, f), bins.BinFor(f, ds.At(r, f)))
          << "row " << r << " feature " << f;
    }
  }
}

/// Five columns that stress the fused builder: continuous values with NaNs,
/// infinities and both signed zeros, a few repeated levels, all missing, and
/// constant.
Dataset MakeEdgeCaseData(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {-inf, -0.0, 0.0, inf};
  Dataset ds =
      Dataset::Create({"nan", "inf_zero", "repeated", "all_nan", "constant"});
  for (int64_t r = 0; r < rows; ++r) {
    const double with_nan = rng.Bernoulli(0.2) ? kNaN : rng.Normal(0.0, 3.0);
    const double with_specials = rng.Bernoulli(0.3)
                                     ? specials[rng.UniformInt(0, 3)]
                                     : rng.Uniform(-1.0, 1.0);
    const double repeated = 0.25 * static_cast<double>(rng.UniformInt(0, 9));
    EXPECT_TRUE(
        ds.AddRow({with_nan, with_specials, repeated, kNaN, 4.5}, 0.0).ok());
  }
  return ds;
}

/// BuildBinned's one-pass radix sort and interleaved search must give the
/// cuts and cells of the two-step reference builders, bit for bit, across
/// the narrow/wide storage switch (254 -> 255 bins) and both sides of the
/// radix sort's 128-value fallback.
TEST(BinningTest, FusedBuildMatchesReference) {
  for (const int64_t rows : {7, 129, 3000}) {
    const Dataset ds = MakeEdgeCaseData(rows, static_cast<uint64_t>(rows));
    for (const int max_bins : {2, 16, 64, 254, 255, 1024}) {
      SCOPED_TRACE(::testing::Message()
                   << "rows " << rows << " max_bins " << max_bins);
      const BinnedData fused = BuildBinned(ds, max_bins).value();
      const FeatureBins bins = FeatureBins::Build(ds, max_bins).value();
      const BinnedMatrix matrix = BinnedMatrix::Build(ds, bins);
      EXPECT_EQ(fused.matrix.narrow(), max_bins <= 254);
      ASSERT_EQ(fused.bins.num_features(), bins.num_features());
      for (int64_t f = 0; f < ds.num_features(); ++f) {
        ASSERT_EQ(fused.bins.num_bins(f), bins.num_bins(f)) << "feature " << f;
        for (int b = 0; b < bins.num_bins(f); ++b) {
          EXPECT_EQ(std::bit_cast<uint64_t>(fused.bins.cut(f, b)),
                    std::bit_cast<uint64_t>(bins.cut(f, b)))
              << "feature " << f << " cut " << b;
        }
        for (int64_t r = 0; r < rows; ++r) {
          EXPECT_EQ(fused.matrix.At(r, f), matrix.At(r, f))
              << "feature " << f << " row " << r;
        }
      }
    }
  }
}

/// Property sweep: binning a feature and mapping every training value back
/// through BinFor is order-preserving.
class BinningOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(BinningOrderTest, BinsAreMonotoneInValue) {
  const int max_bins = GetParam();
  Dataset ds = Dataset::Create({"v"});
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        ds.AddRow({std::sin(static_cast<double>(i)) * 10.0}, 0.0).ok());
  }
  const FeatureBins bins = FeatureBins::Build(ds, max_bins).value();
  for (double a = -10.0; a < 10.0; a += 0.5) {
    EXPECT_LE(bins.BinFor(0, a), bins.BinFor(0, a + 0.5));
  }
}

INSTANTIATE_TEST_SUITE_P(MaxBins, BinningOrderTest,
                         ::testing::Values(2, 4, 16, 64, 256));

}  // namespace
}  // namespace mysawh::gbt
