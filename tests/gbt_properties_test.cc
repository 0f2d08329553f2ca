/// Property-based tests of structural invariances the booster should obey.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "gbt/gbt_model.h"
#include "reference_walkers.h"
#include "util/rng.h"

namespace mysawh::gbt {
namespace {

using reference::ReferencePredictRaw;

Dataset MakeData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset ds = Dataset::Create({"a", "b", "c"});
  for (int64_t i = 0; i < n; ++i) {
    const double a = rng.Uniform(-2, 2);
    const double b = rng.Uniform(0, 1);
    const double c = rng.Uniform(-1, 1);
    const double y = std::sin(a) + 2.0 * b * b - c + rng.Normal(0, 0.05);
    EXPECT_TRUE(ds.AddRow({a, b, c}, y).ok());
  }
  return ds;
}

GbtParams BaseParams() {
  GbtParams params;
  params.num_trees = 40;
  params.max_depth = 4;
  return params;
}

TEST(GbtInvarianceTest, FeatureOrderInvariance) {
  // Permuting feature columns must not change predictions (deterministic
  // tie-breaks could differ only on exact gain ties, which the continuous
  // data avoids).
  const Dataset original = MakeData(800, 1);
  Dataset permuted = Dataset::Create({"c", "a", "b"});
  for (int64_t r = 0; r < original.num_rows(); ++r) {
    ASSERT_TRUE(permuted
                    .AddRow({original.At(r, 2), original.At(r, 0),
                             original.At(r, 1)},
                            original.label(r))
                    .ok());
  }
  const GbtParams params = BaseParams();
  const GbtModel model_a = GbtModel::Train(original, params).value();
  const GbtModel model_b = GbtModel::Train(permuted, params).value();
  for (int64_t r = 0; r < 50; ++r) {
    const double row_a[] = {original.At(r, 0), original.At(r, 1),
                            original.At(r, 2)};
    const double row_b[] = {original.At(r, 2), original.At(r, 0),
                            original.At(r, 1)};
    EXPECT_NEAR(model_a.PredictRow(row_a), model_b.PredictRow(row_b), 1e-9);
  }
}

TEST(GbtInvarianceTest, LabelShiftEquivariance) {
  // Squared error: shifting every label by c shifts every prediction by c.
  const Dataset original = MakeData(800, 2);
  Dataset shifted = original;
  const double c = 10.0;
  for (int64_t r = 0; r < shifted.num_rows(); ++r) {
    shifted.set_label(r, shifted.label(r) + c);
  }
  const GbtParams params = BaseParams();
  const GbtModel model_a = GbtModel::Train(original, params).value();
  const GbtModel model_b = GbtModel::Train(shifted, params).value();
  for (int64_t r = 0; r < 50; ++r) {
    EXPECT_NEAR(model_a.PredictRow(original.row(r)) + c,
                model_b.PredictRow(original.row(r)), 1e-6);
  }
}

TEST(GbtInvarianceTest, MonotoneFeatureTransformInvariance) {
  // Strictly increasing transforms of a feature leave split *membership*
  // unchanged, so predictions on the (transformed) training rows match.
  const Dataset original = MakeData(800, 3);
  Dataset transformed = original;
  for (int64_t r = 0; r < transformed.num_rows(); ++r) {
    transformed.Set(r, 0, std::exp(original.At(r, 0)));
  }
  const GbtParams params = BaseParams();
  const GbtModel model_a = GbtModel::Train(original, params).value();
  const GbtModel model_b = GbtModel::Train(transformed, params).value();
  for (int64_t r = 0; r < 100; ++r) {
    EXPECT_NEAR(model_a.PredictRow(original.row(r)),
                model_b.PredictRow(transformed.row(r)), 1e-9);
  }
}

TEST(GbtInvarianceTest, DuplicatedRowsScaleInvariance) {
  // Training on the dataset duplicated once leaves the fit unchanged
  // (every gradient statistic doubles, ratios are preserved; only
  // regularization constants break exactness, hence the loose tolerance).
  const Dataset original = MakeData(600, 4);
  Dataset doubled = original;
  ASSERT_TRUE(doubled.Append(original).ok());
  GbtParams params = BaseParams();
  params.reg_lambda = 0.0;
  params.min_samples_leaf = 1;
  const GbtModel model_a = GbtModel::Train(original, params).value();
  const GbtModel model_b = GbtModel::Train(doubled, params).value();
  double max_diff = 0.0;
  for (int64_t r = 0; r < 100; ++r) {
    max_diff = std::max(max_diff,
                        std::abs(model_a.PredictRow(original.row(r)) -
                                 model_b.PredictRow(original.row(r))));
  }
  EXPECT_LT(max_diff, 0.05);
}

TEST(GbtPropertiesTest, FlatForestEquivalentToReferenceOverRandomForests) {
  // Property: for any trained forest (varying shapes, missing values in
  // the probe), the compiled flat kernel and the pointer-walker oracle
  // return the SAME doubles — bit-identical, not merely close.
  for (uint64_t seed = 100; seed < 106; ++seed) {
    Rng rng(seed);
    Dataset train = Dataset::Create({"a", "b", "c"});
    for (int64_t i = 0; i < 300; ++i) {
      const double a = rng.Uniform(-2, 2);
      const double b = rng.Uniform(0, 1);
      const double c = rng.Uniform(-1, 1);
      EXPECT_TRUE(
          train.AddRow({a, b, c}, std::sin(a) + b - c * c).ok());
    }
    GbtParams params;
    params.num_trees = 5 + static_cast<int>(seed % 3) * 10;
    params.max_depth = 2 + static_cast<int>(seed % 4);
    params.subsample = seed % 2 == 0 ? 1.0 : 0.7;
    params.seed = seed;
    const GbtModel model = GbtModel::Train(train, params).value();
    ASSERT_NE(model.flat_forest(), nullptr) << "seed " << seed;
    Dataset probe = Dataset::Create({"a", "b", "c"});
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (int64_t i = 0; i < 100; ++i) {
      std::vector<double> x = {rng.Uniform(-3, 3), rng.Uniform(-1, 2),
                               rng.Uniform(-2, 2)};
      // Probe beyond the training range and with missing cells: the bin
      // equivalence must hold everywhere, not just on seen values.
      if (rng.Uniform(0, 1) < 0.2) x[rng.UniformInt(0, 2)] = nan;
      EXPECT_TRUE(probe.AddRow(x, 0.0).ok());
    }
    const std::vector<double> flat = model.PredictRaw(probe).value();
    const std::vector<double> reference =
        ReferencePredictRaw(model, probe);
    ASSERT_EQ(flat.size(), reference.size());
    for (size_t r = 0; r < flat.size(); ++r) {
      EXPECT_EQ(flat[r], reference[r]) << "seed " << seed << " row " << r;
    }
  }
}

TEST(GbtPropertiesTest, PredictionsWithinLabelRange) {
  // Tree ensembles cannot extrapolate beyond the label range by much
  // (leaf values are shrunken averages); check a wide probe grid.
  const Dataset train = MakeData(1000, 5);
  double lo = 1e300, hi = -1e300;
  for (double y : train.labels()) {
    lo = std::min(lo, y);
    hi = std::max(hi, y);
  }
  GbtParams params = BaseParams();
  const GbtModel model = GbtModel::Train(train, params).value();
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const double row[] = {rng.Uniform(-10, 10), rng.Uniform(-10, 10),
                          rng.Uniform(-10, 10)};
    const double pred = model.PredictRow(row);
    EXPECT_GE(pred, lo - 0.5);
    EXPECT_LE(pred, hi + 0.5);
  }
}

}  // namespace
}  // namespace mysawh::gbt
