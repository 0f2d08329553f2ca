#include "gbt/binning.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "gbt/params.h"
#include "reference_binning.h"
#include "util/rng.h"

namespace mysawh::gbt {
namespace {

using reference::BinFor;

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
  const FeatureBins bins = BuildBinned(ds, 64).value().bins;
  EXPECT_EQ(bins.num_bins(0), 5);
  // Cut between levels is the midpoint.
  EXPECT_DOUBLE_EQ(bins.cut(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(bins.cut(0, 3), 4.5);
  EXPECT_TRUE(std::isinf(bins.cut(0, 4)));
}

TEST(BinningTest, WideFeatureCappedAtMaxBins) {
  const Dataset ds = MakeOrdinalData();
  const FeatureBins bins = BuildBinned(ds, 16).value().bins;
  EXPECT_LE(bins.num_bins(1), 16);
  EXPECT_GE(bins.num_bins(1), 8);
}

TEST(BinningTest, CutsStrictlyIncrease) {
  const Dataset ds = MakeOrdinalData();
  const FeatureBins bins = BuildBinned(ds, 16).value().bins;
  for (int64_t f = 0; f < bins.num_features(); ++f) {
    for (int b = 1; b < bins.num_bins(f); ++b) {
      EXPECT_GT(bins.cut(f, b), bins.cut(f, b - 1));
    }
  }
}

TEST(BinningTest, BinForRespectsBoundaries) {
  const Dataset ds = MakeOrdinalData();
  const FeatureBins bins = BuildBinned(ds, 64).value().bins;
  EXPECT_EQ(BinFor(bins, 0, 1.0), 0);
  EXPECT_EQ(BinFor(bins, 0, 1.49), 0);
  EXPECT_EQ(BinFor(bins, 0, 1.5), 1);  // boundary goes right
  EXPECT_EQ(BinFor(bins, 0, 5.0), 4);
  EXPECT_EQ(BinFor(bins, 0, 99.0), 4);   // beyond max clamps to last bin
  EXPECT_EQ(BinFor(bins, 0, -99.0), 0);  // below min clamps to first bin
}

TEST(BinningTest, MissingMapsToSentinel) {
  const Dataset ds = MakeOrdinalData();
  const FeatureBins bins = BuildBinned(ds, 64).value().bins;
  EXPECT_EQ(BinFor(bins, 0, kNaN), kMissingBin);
}

TEST(BinningTest, AllMissingColumn) {
  Dataset ds = Dataset::Create({"empty"});
  ASSERT_TRUE(ds.AddRow({kNaN}, 0.0).ok());
  ASSERT_TRUE(ds.AddRow({kNaN}, 1.0).ok());
  const FeatureBins bins = BuildBinned(ds, 8).value().bins;
  EXPECT_EQ(bins.num_bins(0), 1);
  EXPECT_EQ(BinFor(bins, 0, kNaN), kMissingBin);
}

TEST(BinningTest, RejectsTooFewBins) {
  const Dataset ds = MakeOrdinalData();
  EXPECT_FALSE(BuildBinned(ds, 1).ok());
}

TEST(BinningTest, RejectsMoreBinsThanAByteHolds) {
  // Bins are bytes with 0xFF reserved for missing: 254 is the most a
  // feature may have, for the parameters and BuildBinned alike.
  const Dataset ds = MakeOrdinalData();
  GbtParams params;
  params.max_bins = kMaxBins;
  EXPECT_TRUE(params.Validate().ok());
  EXPECT_TRUE(BuildBinned(ds, kMaxBins).ok());
  for (const int max_bins : {255, 65535}) {
    SCOPED_TRACE(::testing::Message() << "max_bins " << max_bins);
    params.max_bins = max_bins;
    EXPECT_EQ(params.Validate().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(BuildBinned(ds, max_bins).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(BinningTest, BinnedMatrixMatchesBinFor) {
  Dataset ds = Dataset::Create({"a", "b"});
  ASSERT_TRUE(ds.AddRow({1.0, 10.0}, 0.0).ok());
  ASSERT_TRUE(ds.AddRow({kNaN, 20.0}, 0.0).ok());
  ASSERT_TRUE(ds.AddRow({3.0, kNaN}, 0.0).ok());
  const BinnedData binned = BuildBinned(ds, 8).value();
  const FeatureBins& bins = binned.bins;
  const BinnedMatrix& matrix = binned.matrix;
  EXPECT_EQ(matrix.num_rows(), 3);
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t f = 0; f < 2; ++f) {
      EXPECT_EQ(matrix.At(r, f), BinFor(bins, f, ds.At(r, f)))
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
/// cuts and cells of the plain reference quantizer, bit for bit, up to the
/// largest bin count and on both sides of the radix sort's 128-value
/// fallback.
TEST(BinningTest, FusedBuildMatchesReference) {
  for (const int64_t rows : {7, 129, 3000}) {
    const Dataset ds = MakeEdgeCaseData(rows, static_cast<uint64_t>(rows));
    for (const int max_bins : {2, 16, 64, 254}) {
      SCOPED_TRACE(::testing::Message()
                   << "rows " << rows << " max_bins " << max_bins);
      const BinnedData fused = BuildBinned(ds, max_bins).value();
      const reference::ReferenceBinned ref =
          reference::ReferenceBuildBinned(ds, max_bins);
      ASSERT_EQ(fused.bins.num_features(),
                static_cast<int64_t>(ref.cuts.size()));
      for (int64_t f = 0; f < ds.num_features(); ++f) {
        const std::vector<double>& cuts = ref.cuts[static_cast<size_t>(f)];
        ASSERT_EQ(static_cast<size_t>(fused.bins.num_bins(f)), cuts.size())
            << "feature " << f;
        for (int b = 0; b < fused.bins.num_bins(f); ++b) {
          EXPECT_EQ(std::bit_cast<uint64_t>(fused.bins.cut(f, b)),
                    std::bit_cast<uint64_t>(cuts[static_cast<size_t>(b)]))
              << "feature " << f << " cut " << b;
        }
        for (int64_t r = 0; r < rows; ++r) {
          EXPECT_EQ(fused.matrix.At(r, f),
                    ref.cells[static_cast<size_t>(r * ds.num_features() + f)])
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
  const FeatureBins bins = BuildBinned(ds, max_bins).value().bins;
  for (double a = -10.0; a < 10.0; a += 0.5) {
    EXPECT_LE(BinFor(bins, 0, a), BinFor(bins, 0, a + 0.5));
  }
}

INSTANTIATE_TEST_SUITE_P(MaxBins, BinningOrderTest,
                         ::testing::Values(2, 4, 16, 64, 254));

}  // namespace
}  // namespace mysawh::gbt
