#include "explain/tree_shap.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "gbt/gbt_model.h"
#include "reference_walkers.h"
#include "util/rng.h"

namespace mysawh::explain {
namespace {

using gbt::GbtModel;
using gbt::GbtParams;
using gbt::ObjectiveType;
using reference::BruteForceShap;
using reference::ReferenceShap;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Dataset MakeData(int64_t n, int64_t num_features, uint64_t seed,
                 double missing_prob = 0.0) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int64_t f = 0; f < num_features; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    names.push_back(std::move(name));
  }
  Dataset ds = Dataset::Create(names);
  for (int64_t i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<size_t>(num_features));
    double y = 0.0;
    for (int64_t f = 0; f < num_features; ++f) {
      double v = rng.Uniform(-1, 1);
      if (missing_prob > 0 && rng.Bernoulli(missing_prob)) v = kNaN;
      row[static_cast<size_t>(f)] = v;
      if (!std::isnan(v)) {
        // Nonlinear multi-feature signal with interactions.
        y += (f % 2 == 0 ? 1.0 : -0.5) * v;
        if (f + 1 < num_features) y += 0.3 * v * (f % 3 == 0 ? 1 : 0);
      }
    }
    if (!std::isnan(row[0])) y += 0.4 * std::sin(3.0 * row[0]);
    EXPECT_TRUE(ds.AddRow(row, y).ok());
  }
  return ds;
}

/// The core SHAP property: phi sums to raw prediction minus expectation.
void ExpectAdditivity(const GbtModel& model, const Dataset& data,
                      double tolerance = 1e-6) {
  const TreeShap shap(&model);
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    const auto phi = shap.Shap(data.row(r));
    const double total =
        std::accumulate(phi.begin(), phi.end(), shap.expected_value());
    EXPECT_NEAR(total, model.PredictRowRaw(data.row(r)), tolerance)
        << "additivity violated at row " << r;
  }
}

TEST(TreeShapTest, SingleSplitTreeMatchesAnalyticValues) {
  // One tree, one split on f0 at 0 with leaf values a (left) and b (right),
  // covers cl and cr. For a row going right:
  //   phi_f0 = b - E[f] = b - (cl*a + cr*b)/(cl+cr).
  Dataset train = Dataset::Create({"f0"});
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.Uniform(-1, 1);
    ASSERT_TRUE(train.AddRow({x}, x < 0 ? -1.0 : 2.0).ok());
  }
  GbtParams params;
  params.num_trees = 1;
  params.learning_rate = 1.0;
  params.max_depth = 1;
  params.reg_lambda = 0.0;
  const GbtModel model = GbtModel::Train(train, params).value();
  ASSERT_EQ(model.trees().size(), 1u);
  const TreeShap shap(&model);
  const double right_row[] = {0.5};
  const auto phi = shap.Shap(right_row);
  ASSERT_EQ(phi.size(), 1u);
  EXPECT_NEAR(phi[0] + shap.expected_value(), model.PredictRowRaw(right_row),
              1e-9);
  // Expectation is between the two leaves, prediction at the right leaf.
  EXPECT_GT(phi[0], 0.0);
  const double left_row[] = {-0.5};
  EXPECT_LT(shap.Shap(left_row)[0], 0.0);
}

TEST(TreeShapTest, AdditivityOnDenseModel) {
  const Dataset train = MakeData(1200, 6, 21);
  GbtParams params;
  params.num_trees = 80;
  params.max_depth = 4;
  const GbtModel model = GbtModel::Train(train, params).value();
  const Dataset probe = MakeData(60, 6, 22);
  ExpectAdditivity(model, probe);
}

TEST(TreeShapTest, AdditivityWithMissingValues) {
  const Dataset train = MakeData(1200, 5, 23, /*missing_prob=*/0.2);
  GbtParams params;
  params.num_trees = 60;
  params.max_depth = 5;
  const GbtModel model = GbtModel::Train(train, params).value();
  const Dataset probe = MakeData(60, 5, 24, /*missing_prob=*/0.3);
  ExpectAdditivity(model, probe);
}

TEST(TreeShapTest, AdditivityLogisticModel) {
  Rng rng(25);
  Dataset train = Dataset::Create({"a", "b", "c"});
  for (int i = 0; i < 1500; ++i) {
    const double a = rng.Uniform(-1, 1);
    const double b = rng.Uniform(-1, 1);
    const double c = rng.Uniform(-1, 1);
    const double label = (a + b * c > 0.1) ? 1.0 : 0.0;
    ASSERT_TRUE(train.AddRow({a, b, c}, label).ok());
  }
  GbtParams params;
  params.objective = ObjectiveType::kLogistic;
  params.num_trees = 60;
  const GbtModel model = GbtModel::Train(train, params).value();
  ExpectAdditivity(model, train.Take({0, 1, 2, 3, 4, 5, 6, 7}).value());
}

TEST(TreeShapTest, DummyFeatureGetsZeroAttribution) {
  // f1 never influences the label; trees should not split on it, so its
  // SHAP value must be exactly zero.
  Rng rng(26);
  Dataset train = Dataset::Create({"signal", "dummy"});
  for (int i = 0; i < 800; ++i) {
    const double s = rng.Uniform(-1, 1);
    ASSERT_TRUE(train.AddRow({s, 0.0}, 2.0 * s).ok());
  }
  GbtParams params;
  params.num_trees = 30;
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  const double row[] = {0.7, 0.0};
  const auto phi = shap.Shap(row);
  EXPECT_DOUBLE_EQ(phi[1], 0.0);
  EXPECT_NE(phi[0], 0.0);
}

TEST(TreeShapTest, ExpectedValueMatchesCoverWeightedMean) {
  const Dataset train = MakeData(1000, 4, 27);
  GbtParams params;
  params.num_trees = 40;
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  // With full-data training (no subsampling) and squared error (hessian =
  // 1), cover weighting equals row weighting, so the expectation over the
  // training rows approximates expected_value closely.
  const auto raw = model.PredictRaw(train).value();
  const double mean_raw =
      std::accumulate(raw.begin(), raw.end(), 0.0) /
      static_cast<double>(raw.size());
  EXPECT_NEAR(shap.expected_value(), mean_raw, 1e-6);
}

TEST(TreeShapTest, ShapBatchMatchesPerRow) {
  const Dataset train = MakeData(400, 3, 28);
  GbtParams params;
  params.num_trees = 20;
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  const Dataset probe = MakeData(10, 3, 29);
  const auto batch = shap.ShapBatch(probe).value();
  ASSERT_EQ(batch.size(), 10u);
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    const std::vector<double> oracle = ReferenceShap(model, probe.row(r));
    EXPECT_EQ(batch[static_cast<size_t>(r)], oracle);
    EXPECT_EQ(shap.Shap(probe.row(r)), oracle);
  }
}

TEST(TreeShapTest, ShapBatchOnDeepTreesMatchesReference) {
  // Deep trees over few features force repeated features on paths (the
  // UnwindPath merge); a 256-row batch with missing values gets the
  // exact-equality check against the pointer-walk oracle.
  const Dataset train = MakeData(500, 4, 32, /*missing_prob=*/0.15);
  GbtParams params;
  params.num_trees = 15;
  params.max_depth = 5;
  const GbtModel model = GbtModel::Train(train, params).value();
  ASSERT_NE(model.flat_forest(), nullptr);
  const TreeShap shap(&model);
  const Dataset probe = MakeData(256, 4, 33, /*missing_prob=*/0.2);
  const auto batch = shap.ShapBatch(probe).value();
  ASSERT_EQ(batch.size(), 256u);
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    EXPECT_EQ(batch[static_cast<size_t>(r)],
              ReferenceShap(model, probe.row(r)));
  }
}

/// Exact Shapley values by enumerating every feature subset of the
/// path-dependent value function (tests/reference_walkers.h): the single-row
/// recursion and small and large batches must agree with it to rounding, on
/// deep trees with missing values.
TEST(TreeShapTest, MatchesBruteForceShapley) {
  for (const int64_t num_features : {3, 5, 8}) {
    SCOPED_TRACE(::testing::Message() << num_features << " features");
    const Dataset train =
        MakeData(600, num_features, 40 + num_features, /*missing_prob=*/0.1);
    GbtParams params;
    params.num_trees = 30;
    params.max_depth = 5;
    const GbtModel model = GbtModel::Train(train, params).value();
    const TreeShap shap(&model);
    const Dataset probe =
        MakeData(10, num_features, 50 + num_features, /*missing_prob=*/0.1);
    // Each probe row 20 times over: a 200-row batch.
    std::vector<int64_t> repeated;
    for (int copy = 0; copy < 20; ++copy) {
      for (int64_t r = 0; r < probe.num_rows(); ++r) repeated.push_back(r);
    }
    const Dataset many = probe.Take(repeated).value();

    const auto per_row = shap.ShapBatch(probe).value();
    const auto large = shap.ShapBatch(many).value();

    for (int64_t r = 0; r < probe.num_rows(); ++r) {
      const std::vector<double> exact = BruteForceShap(model, probe.row(r));
      const std::vector<double> single = shap.Shap(probe.row(r));
      for (int64_t f = 0; f < num_features; ++f) {
        const auto i = static_cast<size_t>(f);
        EXPECT_NEAR(single[i], exact[i], 1e-12) << "row " << r << " f " << f;
        EXPECT_NEAR(per_row[static_cast<size_t>(r)][i], exact[i], 1e-12)
            << "row " << r << " f " << f;
        for (size_t copy = static_cast<size_t>(r); copy < large.size();
             copy += static_cast<size_t>(probe.num_rows())) {
          EXPECT_NEAR(large[copy][i], exact[i], 1e-12)
              << "row " << r << " f " << f;
        }
      }
    }
  }
}

TEST(TreeShapTest, ShapBatchChecksWidth) {
  const Dataset train = MakeData(200, 3, 30);
  GbtParams params;
  params.num_trees = 5;
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  const Dataset wrong = MakeData(5, 2, 31);
  EXPECT_FALSE(shap.ShapBatch(wrong).ok());
}

/// Property sweep across tree depths: additivity must hold regardless of
/// how often features repeat along a path (repeated features exercise the
/// UnwindPath branch).
class TreeShapDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(TreeShapDepthTest, AdditivityHolds) {
  const Dataset train = MakeData(800, 3, 100 + GetParam());
  GbtParams params;
  params.num_trees = 30;
  params.max_depth = GetParam();  // depth > features forces repeats
  const GbtModel model = GbtModel::Train(train, params).value();
  const Dataset probe = MakeData(40, 3, 200 + GetParam());
  ExpectAdditivity(model, probe);
}

INSTANTIATE_TEST_SUITE_P(Depths, TreeShapDepthTest,
                         ::testing::Values(1, 2, 4, 6, 8));

}  // namespace
}  // namespace mysawh::explain
