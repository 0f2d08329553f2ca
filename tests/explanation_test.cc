#include "explain/explanation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "gbt/objective.h"
#include "reference_walkers.h"
#include "util/rng.h"

namespace mysawh::explain {
namespace {

using gbt::GbtModel;
using gbt::GbtParams;

/// Strong effect on "big", weak on "small", none on "none"; "step" has a
/// sharp threshold at 3 on a 1..10 ordinal scale (Fig 7-style).
Dataset MakeData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset ds = Dataset::Create({"big", "small", "none", "step"});
  for (int64_t i = 0; i < n; ++i) {
    const double big = rng.Uniform(-1, 1);
    const double small = rng.Uniform(-1, 1);
    const double none = rng.Uniform(-1, 1);
    const double step = static_cast<double>(rng.UniformInt(1, 10));
    const double y = 4.0 * big + 0.4 * small + (step < 3.0 ? 1.0 : -1.0) +
                     rng.Normal(0, 0.02);
    EXPECT_TRUE(ds.AddRow({big, small, none, step}, y).ok());
  }
  return ds;
}

GbtModel TrainModel(const Dataset& train) {
  GbtParams params;
  params.num_trees = 80;
  params.learning_rate = 0.1;
  return GbtModel::Train(train, params).value();
}

TEST(ExplanationTest, LocalExplanationRanksByMagnitude) {
  const Dataset data = MakeData(1500, 1);
  const GbtModel model = TrainModel(data);
  const TreeShap shap(&model);
  const auto explanation = ExplainRow(shap, data, 0).value();
  ASSERT_EQ(explanation.contributions.size(), 4u);
  for (size_t i = 1; i < explanation.contributions.size(); ++i) {
    EXPECT_GE(std::abs(explanation.contributions[i - 1].shap),
              std::abs(explanation.contributions[i].shap));
  }
  // Local accuracy carried through the report.
  double total = explanation.expected_value;
  for (const auto& c : explanation.contributions) total += c.shap;
  EXPECT_NEAR(total, explanation.raw_prediction, 1e-6);
}

TEST(ExplanationTest, ExplainRowMatchesOracles) {
  // A logistic model, so the prediction is a real transform of the raw
  // margin, and missing cells in the explained rows.
  Dataset data = MakeData(800, 9);
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    data.set_label(r, data.label(r) > 0.0 ? 1.0 : 0.0);
    if (r % 3 == 0) {
      data.Set(r, r % 4, std::numeric_limits<double>::quiet_NaN());
    }
  }
  GbtParams params;
  params.objective = gbt::ObjectiveType::kLogistic;
  params.num_trees = 40;
  const GbtModel model = GbtModel::Train(data, params).value();
  const TreeShap shap(&model);
  const std::vector<double> raw = reference::ReferencePredictRaw(model, data);
  const auto objective = gbt::MakeObjective(model.objective_type());
  const auto& names = model.feature_names();
  for (int64_t r = 0; r < 12; ++r) {
    const LocalExplanation card = ExplainRow(shap, data, r).value();
    const double* x = data.row(r);
    const double want = raw[static_cast<size_t>(r)];
    EXPECT_EQ(card.raw_prediction, want) << "row " << r;
    EXPECT_EQ(card.prediction, objective->Transform(want)) << "row " << r;
    const std::vector<double> phi = reference::ReferenceShap(model, x);
    ASSERT_EQ(card.contributions.size(), names.size());
    for (const FeatureContribution& c : card.contributions) {
      const auto f = static_cast<size_t>(
          std::find(names.begin(), names.end(), c.feature) - names.begin());
      ASSERT_LT(f, names.size());
      EXPECT_EQ(c.shap, phi[f]) << "row " << r << " " << c.feature;
      EXPECT_TRUE(c.value == x[f] || (std::isnan(c.value) && std::isnan(x[f])))
          << "row " << r << " " << c.feature;
    }
  }
}

TEST(ExplanationTest, TopKTruncates) {
  const Dataset data = MakeData(500, 2);
  const GbtModel model = TrainModel(data);
  const TreeShap shap(&model);
  const auto explanation = ExplainRow(shap, data, 3).value();
  EXPECT_EQ(explanation.Top(2).size(), 2u);
  EXPECT_EQ(explanation.Top(100).size(), 4u);
  EXPECT_TRUE(explanation.Top(0).empty());
  const std::string rendered = explanation.ToString(3);
  EXPECT_NE(rendered.find("prediction="), std::string::npos);
}

TEST(ExplanationTest, ExplainRowValidatesArguments) {
  const Dataset data = MakeData(100, 3);
  const GbtModel model = TrainModel(data);
  const TreeShap shap(&model);
  EXPECT_FALSE(ExplainRow(shap, data, -1).ok());
  EXPECT_FALSE(ExplainRow(shap, data, data.num_rows()).ok());
  Dataset narrow = Dataset::Create({"x"});
  ASSERT_TRUE(narrow.AddRow({0.0}, 0.0).ok());
  EXPECT_FALSE(ExplainRow(shap, narrow, 0).ok());
}

TEST(ExplanationTest, DependenceCurveRecoversStepThreshold) {
  const Dataset data = MakeData(2500, 6);
  const GbtModel model = TrainModel(data);
  const TreeShap shap(&model);
  const auto curve = ComputeDependenceCurve(shap, data, "step").value();
  EXPECT_EQ(curve.feature, "step");
  EXPECT_EQ(curve.values.size(), curve.shap_values.size());
  ASSERT_EQ(curve.distinct_values.size(), 10u);  // ordinal 1..10
  ASSERT_TRUE(curve.has_threshold);
  // The generating step is at 3 (answers < 3 get the bonus); the recovered
  // boundary must fall between 2 and 3.
  EXPECT_NEAR(curve.recovered_threshold, 2.5, 0.51);
  // Mean SHAP positive below the cutoff, negative above.
  EXPECT_GT(curve.mean_shap.front(), 0.0);
  EXPECT_LT(curve.mean_shap.back(), 0.0);
}

TEST(ExplanationTest, DependenceCurveUnknownFeatureFails) {
  const Dataset data = MakeData(100, 7);
  const GbtModel model = TrainModel(data);
  const TreeShap shap(&model);
  EXPECT_FALSE(ComputeDependenceCurve(shap, data, "nope").ok());
}

TEST(ExplanationTest, DependenceCurveWithoutSignChangeHasNoThreshold) {
  // Monotone positive contribution that never crosses zero by construction:
  // model of a feature with strictly positive association and centered data
  // will cross; instead build a constant-label model with no splits.
  Rng rng(8);
  Dataset flat = Dataset::Create({"x"});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(flat.AddRow({rng.Uniform(0, 1)}, 1.0).ok());
  }
  GbtParams params;
  params.num_trees = 5;
  const GbtModel model = GbtModel::Train(flat, params).value();
  const TreeShap shap(&model);
  const auto curve = ComputeDependenceCurve(shap, flat, "x").value();
  EXPECT_FALSE(curve.has_threshold);
  EXPECT_TRUE(std::isnan(curve.recovered_threshold));
}

}  // namespace
}  // namespace mysawh::explain
