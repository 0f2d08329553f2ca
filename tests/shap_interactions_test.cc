#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "explain/tree_shap.h"
#include "gbt/gbt_model.h"
#include "reference_walkers.h"
#include "util/rng.h"

namespace mysawh::explain {
namespace {

using gbt::GbtModel;
using gbt::GbtParams;
using reference::BruteForceShapInteractions;
using reference::ReferenceShapInteractions;

/// y = 2*a + b*c: a pure main effect plus a pure pairwise interaction.
Dataset MakeInteractionData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset ds = Dataset::Create({"a", "b", "c"});
  for (int64_t i = 0; i < n; ++i) {
    const double a = rng.Uniform(-1, 1);
    const double b = rng.Uniform(-1, 1);
    const double c = rng.Uniform(-1, 1);
    EXPECT_TRUE(ds.AddRow({a, b, c}, 2.0 * a + b * c).ok());
  }
  return ds;
}

GbtModel TrainModel(const Dataset& train, int depth = 4) {
  GbtParams params;
  params.num_trees = 120;
  params.max_depth = depth;
  params.learning_rate = 0.15;
  return GbtModel::Train(train, params).value();
}

TEST(ShapInteractionsTest, RowSumsEqualShapValues) {
  const Dataset train = MakeInteractionData(2000, 1);
  const GbtModel model = TrainModel(train);
  const TreeShap shap(&model);
  const Dataset probe = MakeInteractionData(15, 2);
  const auto m = static_cast<size_t>(model.num_features());
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    const auto phi = shap.Shap(probe.row(r));
    const auto inter = shap.ShapInteractions(probe.row(r));
    for (size_t i = 0; i < m; ++i) {
      double row_sum = 0.0;
      for (size_t j = 0; j < m; ++j) row_sum += inter[i * m + j];
      EXPECT_NEAR(row_sum, phi[i], 1e-6) << "row " << r << " feature " << i;
    }
  }
}

TEST(ShapInteractionsTest, MatchesReferenceBitwise) {
  // The conditioned flat recursion repeats the pointer recursion's
  // operations on the same operands, so every entry has the oracle's bits.
  const Dataset train = MakeInteractionData(1500, 11);
  const GbtModel model = TrainModel(train, /*depth=*/5);
  const TreeShap shap(&model);
  const Dataset probe = MakeInteractionData(6, 12);
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    EXPECT_EQ(shap.ShapInteractions(probe.row(r)),
              ReferenceShapInteractions(model, probe.row(r)))
        << "row " << r;
  }
  const double row[] = {0.5, std::numeric_limits<double>::quiet_NaN(), -0.3};
  EXPECT_EQ(shap.ShapInteractions(row), ReferenceShapInteractions(model, row));
}

/// The Shapley interaction index by enumerating every feature subset of
/// the path-dependent value function (tests/reference_walkers.h), on deep
/// trees over 3, 5 and 8 features with missing values.
TEST(ShapInteractionsTest, MatchesBruteForceInteractionIndex) {
  for (const int num_features : {3, 5, 8}) {
    SCOPED_TRACE(::testing::Message() << num_features << " features");
    Rng rng(60 + static_cast<uint64_t>(num_features));
    std::vector<std::string> names;
    for (int f = 0; f < num_features; ++f) {
      std::string name = "f";
      name += std::to_string(f);
      names.push_back(std::move(name));
    }
    auto make = [&](int64_t rows) {
      Dataset ds = Dataset::Create(names);
      for (int64_t i = 0; i < rows; ++i) {
        std::vector<double> x(static_cast<size_t>(num_features));
        for (double& v : x) v = rng.Uniform(-1, 1);
        const double y = 2.0 * x[0] + x[1] * x[2] + 0.5 * x.back();
        for (double& v : x) {
          if (rng.Bernoulli(0.1)) v = std::numeric_limits<double>::quiet_NaN();
        }
        EXPECT_TRUE(ds.AddRow(x, y).ok());
      }
      return ds;
    };
    const Dataset train = make(600);
    GbtParams params;
    params.num_trees = 30;
    params.max_depth = 5;
    const GbtModel model = GbtModel::Train(train, params).value();
    const TreeShap shap(&model);
    const Dataset probe = make(10);
    const auto m = static_cast<size_t>(num_features);
    for (int64_t r = 0; r < probe.num_rows(); ++r) {
      const auto exact = BruteForceShapInteractions(model, probe.row(r));
      const auto inter = shap.ShapInteractions(probe.row(r));
      ASSERT_EQ(inter.size(), m * m);
      for (size_t k = 0; k < inter.size(); ++k) {
        EXPECT_NEAR(inter[k], exact[k], 1e-12)
            << "row " << r << " entry (" << k / m << ", " << k % m << ")";
      }
    }
  }
}

TEST(ShapInteractionsTest, LocalAccuracy) {
  const Dataset train = MakeInteractionData(1500, 3);
  const GbtModel model = TrainModel(train);
  const TreeShap shap(&model);
  const Dataset probe = MakeInteractionData(10, 4);
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    const auto inter = shap.ShapInteractions(probe.row(r));
    const double total =
        std::accumulate(inter.begin(), inter.end(), shap.expected_value());
    EXPECT_NEAR(total, model.PredictRowRaw(probe.row(r)), 1e-6);
  }
}

TEST(ShapInteractionsTest, ApproximatelySymmetric) {
  const Dataset train = MakeInteractionData(1500, 5);
  const GbtModel model = TrainModel(train);
  const TreeShap shap(&model);
  const Dataset probe = MakeInteractionData(8, 6);
  const auto m = static_cast<size_t>(model.num_features());
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    const auto inter = shap.ShapInteractions(probe.row(r));
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = i + 1; j < m; ++j) {
        EXPECT_NEAR(inter[i * m + j], inter[j * m + i], 1e-6);
      }
    }
  }
}

TEST(ShapInteractionsTest, IdentifiesTheInteractingPair) {
  const Dataset train = MakeInteractionData(3000, 7);
  const GbtModel model = TrainModel(train, /*depth=*/5);
  const TreeShap shap(&model);
  const auto m = static_cast<size_t>(model.num_features());
  // Average |interaction| over several rows: the (b, c) pair must dominate
  // every other off-diagonal entry; a participates only via its main effect.
  const Dataset probe = MakeInteractionData(40, 8);
  std::vector<double> mean_abs(m * m, 0.0);
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    const auto inter = shap.ShapInteractions(probe.row(r));
    for (size_t k = 0; k < inter.size(); ++k) {
      mean_abs[k] += std::abs(inter[k]);
    }
  }
  for (double& v : mean_abs) v /= static_cast<double>(probe.num_rows());
  const double bc = mean_abs[1 * m + 2];
  const double ab = mean_abs[0 * m + 1];
  const double ac = mean_abs[0 * m + 2];
  EXPECT_GT(bc, 3.0 * ab);
  EXPECT_GT(bc, 3.0 * ac);
  // a's main effect dominates its interactions.
  EXPECT_GT(mean_abs[0 * m + 0], 5.0 * ab);
}

TEST(ShapInteractionsTest, AdditiveModelHasNoInteractions) {
  // Purely additive target -> off-diagonals near zero.
  Rng rng(9);
  Dataset train = Dataset::Create({"x", "y"});
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.Uniform(-1, 1);
    const double y = rng.Uniform(-1, 1);
    ASSERT_TRUE(train.AddRow({x, y}, 1.5 * x - 0.8 * y).ok());
  }
  GbtParams params;
  params.num_trees = 80;
  params.max_depth = 3;
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  const double row[] = {0.4, -0.6};
  const auto inter = shap.ShapInteractions(row);
  EXPECT_LT(std::abs(inter[0 * 2 + 1]), 0.05);
  EXPECT_GT(std::abs(inter[0 * 2 + 0]), 0.3);
}

TEST(ShapInteractionsTest, WorksWithMissingInput) {
  const Dataset train = MakeInteractionData(1000, 10);
  const GbtModel model = TrainModel(train);
  const TreeShap shap(&model);
  const double row[] = {0.5, std::numeric_limits<double>::quiet_NaN(), 0.3};
  const auto inter = shap.ShapInteractions(row);
  const double total =
      std::accumulate(inter.begin(), inter.end(), shap.expected_value());
  EXPECT_NEAR(total, model.PredictRowRaw(row), 1e-6);
}

}  // namespace
}  // namespace mysawh::explain
