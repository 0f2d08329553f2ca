/// End-to-end integration test of the full paper pipeline on a reduced
/// cohort: simulate -> build sample sets -> train DD and KD models ->
/// evaluate -> explain with TreeSHAP. Asserts the paper's qualitative
/// claims and the SHAP consistency properties on real pipeline output.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "cohort/simulator.h"
#include "core/sample_builder.h"
#include "core/study.h"
#include "explain/explanation.h"
#include "explain/tree_shap.h"
#include "model/model.h"

namespace mysawh {
namespace {

using core::Approach;
using core::Outcome;

struct PipelineFixture {
  cohort::Cohort cohort;
  core::SampleSets qol;
  core::ExperimentResult dd_result;
  core::ExperimentResult kd_result;
};

const PipelineFixture& GetPipeline() {
  static const PipelineFixture* fixture = [] {
    cohort::CohortConfig config;
    config.seed = 42;
    config.clinics = {{"Modena", 40, 0.0, 1.0},
                      {"Sydney", 30, 0.03, 1.1},
                      {"HongKong", 12, -0.02, 1.8}};
    auto cohort = cohort::CohortSimulator(config).Generate().value();
    auto builder =
        core::SampleSetBuilder::Create(&cohort, core::SampleBuildOptions{})
            .value();
    auto qol = builder.Build(Outcome::kQol).value();
    auto dd_config =
        core::DefaultModelConfig(Outcome::kQol, Approach::kDataDriven);
    dd_config.gbt.num_trees = 120;
    auto kd_config =
        core::DefaultModelConfig(Outcome::kQol, Approach::kKnowledgeDriven);
    kd_config.gbt.num_trees = 120;
    const core::EvalProtocol protocol;
    std::vector<core::ExperimentPlan> plans;
    plans.push_back(core::PlanExperiment(qol.dd_fi, Outcome::kQol,
                                         Approach::kDataDriven, true,
                                         dd_config, protocol)
                        .value());
    plans.push_back(core::PlanExperiment(qol.kd, Outcome::kQol,
                                         Approach::kKnowledgeDriven, false,
                                         kd_config, protocol)
                        .value());
    std::vector<core::PlanRun> runs = core::RunPlans(std::move(plans), 0);
    return new PipelineFixture{std::move(cohort), std::move(qol),
                               std::move(runs[0].result).value(),
                               std::move(runs[1].result).value()};
  }();
  return *fixture;
}

TEST(PipelineIntegrationTest, SampleConstructionMatchesPaperShape) {
  const auto& fixture = GetPipeline();
  // 82 patients x 16 candidate months.
  EXPECT_EQ(fixture.qol.total_candidates, 82 * 16);
  EXPECT_GT(fixture.qol.retained, fixture.qol.total_candidates / 3);
  // Gap statistics in the paper's regime.
  EXPECT_GT(fixture.qol.gap_stats_raw.mean_length, 3.0);
  EXPECT_LT(fixture.qol.gap_stats_raw.mean_length, 8.0);
  EXPECT_LE(fixture.qol.gap_stats_raw.max_length, 17);
}

TEST(PipelineIntegrationTest, DataDrivenOutperformsKnowledgeDriven) {
  const auto& fixture = GetPipeline();
  EXPECT_GT(fixture.dd_result.test_regression.one_minus_mape,
            fixture.kd_result.test_regression.one_minus_mape);
  // Both land in the paper's >85% regime.
  EXPECT_GT(fixture.dd_result.test_regression.one_minus_mape, 0.88);
  EXPECT_GT(fixture.kd_result.test_regression.one_minus_mape, 0.80);
}

TEST(PipelineIntegrationTest, ShapExplainsRealPredictionsConsistently) {
  const auto& fixture = GetPipeline();
  const gbt::GbtModel* gbt = fixture.dd_result.gbt_model();
  ASSERT_NE(gbt, nullptr);
  const explain::TreeShap shap(gbt);
  const Dataset& test = fixture.dd_result.test;
  const int64_t probe = std::min<int64_t>(test.num_rows(), 25);
  for (int64_t r = 0; r < probe; ++r) {
    const auto phi = shap.Shap(test.row(r));
    const double total =
        std::accumulate(phi.begin(), phi.end(), shap.expected_value());
    EXPECT_NEAR(total, gbt->PredictRowRaw(test.row(r)), 1e-6);
  }
}

TEST(PipelineIntegrationTest, ExplanationsDifferAcrossPatients) {
  // Fig 6's point: two patients can share a prediction while their top
  // contributing features differ. Verify rankings are not all identical.
  const auto& fixture = GetPipeline();
  const explain::TreeShap shap(fixture.dd_result.gbt_model());
  const Dataset& test = fixture.dd_result.test;
  ASSERT_GE(test.num_rows(), 10);
  std::string first_top;
  bool differs = false;
  for (int64_t r = 0; r < 10; ++r) {
    const auto explanation = explain::ExplainRow(shap, test, r).value();
    const std::string top = explanation.contributions.front().feature;
    if (r == 0) {
      first_top = top;
    } else if (top != first_top) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs) << "all patients had identical top features";
}

TEST(PipelineIntegrationTest, ModelSerializationSurvivesPipeline) {
  const auto& fixture = GetPipeline();
  // Round-trip through the registry: the serialized text carries a kind
  // header, so the base-layer Deserialize rebuilds the right family.
  const auto text = fixture.dd_result.model->SerializeWithKind();
  const auto loaded = model::Model::Deserialize(text).value();
  EXPECT_EQ(loaded->Kind(), "gbt");
  const Dataset& test = fixture.dd_result.test;
  for (int64_t r = 0; r < std::min<int64_t>(test.num_rows(), 20); ++r) {
    EXPECT_DOUBLE_EQ(loaded->Predict(test.row(r)),
                     fixture.dd_result.model->Predict(test.row(r)));
  }
}

}  // namespace
}  // namespace mysawh
