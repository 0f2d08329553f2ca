#include "core/evaluation.h"

#include <gtest/gtest.h>

#include "cohort/simulator.h"
#include "core/sample_builder.h"

namespace mysawh::core {
namespace {

/// Shared small cohort + sample sets; built once for the whole test binary
/// because experiments train real models.
struct Fixture {
  cohort::Cohort cohort;
  SampleSets qol;
  SampleSets falls;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    cohort::CohortConfig config;
    config.seed = 23;
    config.clinics = {{"A", 40, 0.0, 1.0}, {"B", 20, 0.0, 1.4}};
    auto cohort = cohort::CohortSimulator(config).Generate().value();
    auto builder =
        SampleSetBuilder::Create(&cohort, SampleBuildOptions{}).value();
    auto qol = builder.Build(Outcome::kQol).value();
    auto falls = builder.Build(Outcome::kFalls).value();
    return new Fixture{std::move(cohort), std::move(qol), std::move(falls)};
  }();
  return *fixture;
}

gbt::GbtParams FastParams(Outcome outcome, Approach approach) {
  gbt::GbtParams params = DefaultGbtParams(outcome, approach);
  params.num_trees = 60;  // keep unit tests quick
  return params;
}

TEST(EvaluationTest, RegressionExperimentProducesSaneMetrics) {
  const auto& fixture = GetFixture();
  EvalProtocol protocol;
  const auto result =
      RunExperiment(fixture.qol.dd, Outcome::kQol, Approach::kDataDriven,
                    false, FastParams(Outcome::kQol, Approach::kDataDriven),
                    protocol)
          .value();
  EXPECT_FALSE(result.is_classification);
  EXPECT_GT(result.test_regression.one_minus_mape, 0.80);
  EXPECT_LT(result.test_regression.mae, 0.2);
  EXPECT_GT(result.cv_regression.one_minus_mape, 0.80);
  // 80/20 split.
  EXPECT_NEAR(static_cast<double>(result.test.num_rows()) /
                  static_cast<double>(fixture.qol.dd.num_rows()),
              0.2, 0.02);
  EXPECT_EQ(result.train.num_rows() + result.test.num_rows(),
            fixture.qol.dd.num_rows());
}

TEST(EvaluationTest, ClassificationExperimentStratifies) {
  const auto& fixture = GetFixture();
  EvalProtocol protocol;
  const auto result =
      RunExperiment(fixture.falls.dd, Outcome::kFalls, Approach::kDataDriven,
                    false, FastParams(Outcome::kFalls, Approach::kDataDriven),
                    protocol)
          .value();
  EXPECT_TRUE(result.is_classification);
  EXPECT_GT(result.test_classification.accuracy, 0.7);
  // Both classes present on both sides of the split.
  auto has_both = [](const Dataset& ds) {
    bool pos = false, neg = false;
    for (double y : ds.labels()) (y > 0.5 ? pos : neg) = true;
    return pos && neg;
  };
  EXPECT_TRUE(has_both(result.train));
  EXPECT_TRUE(has_both(result.test));
  EXPECT_DOUBLE_EQ(result.HeadlineMetric(),
                   result.test_classification.accuracy);
}

TEST(EvaluationTest, DataDrivenBeatsKnowledgeDriven) {
  // The paper's core claim, on a small cohort with fast parameters.
  const auto& fixture = GetFixture();
  EvalProtocol protocol;
  const auto dd =
      RunExperiment(fixture.qol.dd, Outcome::kQol, Approach::kDataDriven,
                    false, FastParams(Outcome::kQol, Approach::kDataDriven),
                    protocol)
          .value();
  const auto kd = RunExperiment(fixture.qol.kd, Outcome::kQol,
                                Approach::kKnowledgeDriven, false,
                                FastParams(Outcome::kQol,
                                           Approach::kKnowledgeDriven),
                                protocol)
                      .value();
  EXPECT_GT(dd.test_regression.one_minus_mape,
            kd.test_regression.one_minus_mape);
}

TEST(EvaluationTest, FiFeatureImproves) {
  const auto& fixture = GetFixture();
  EvalProtocol protocol;
  const auto without =
      RunExperiment(fixture.qol.kd, Outcome::kQol, Approach::kKnowledgeDriven,
                    false,
                    FastParams(Outcome::kQol, Approach::kKnowledgeDriven),
                    protocol)
          .value();
  const auto with_fi =
      RunExperiment(fixture.qol.kd_fi, Outcome::kQol,
                    Approach::kKnowledgeDriven, true,
                    FastParams(Outcome::kQol, Approach::kKnowledgeDriven),
                    protocol)
          .value();
  EXPECT_GT(with_fi.test_regression.one_minus_mape,
            without.test_regression.one_minus_mape - 0.005);
  EXPECT_TRUE(with_fi.with_fi);
  EXPECT_FALSE(without.with_fi);
}

TEST(EvaluationTest, ValidatesArguments) {
  const auto& fixture = GetFixture();
  EvalProtocol protocol;
  protocol.cv_folds = 1;
  EXPECT_FALSE(RunExperiment(fixture.qol.dd, Outcome::kQol,
                             Approach::kDataDriven, false, protocol)
                   .ok());
  Dataset tiny = Dataset::Create({"x"});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(tiny.AddRow({1.0 * i}, 1.0).ok());
  }
  EXPECT_FALSE(RunExperiment(tiny, Outcome::kQol, Approach::kDataDriven,
                             false, EvalProtocol{})
                   .ok());
}

TEST(EvaluationTest, FitsInAnyOrderAssembleToRunExperiment) {
  // The study runs a cell's fits on whichever workers are free, in any
  // order; assembling them must give exactly the sequential result.
  const auto& fixture = GetFixture();
  EvalProtocol protocol;
  protocol.cv_folds = 3;
  for (const auto& [samples, outcome] :
       {std::pair<const Dataset*, Outcome>{&fixture.qol.dd, Outcome::kQol},
        std::pair<const Dataset*, Outcome>{&fixture.falls.dd,
                                           Outcome::kFalls}}) {
    ModelFamilyConfig config;
    config.gbt = FastParams(outcome, Approach::kDataDriven);
    const ExperimentResult sequential =
        RunExperiment(*samples, outcome, Approach::kDataDriven, true, config,
                      protocol)
            .value();
    ExperimentPlan plan = PlanExperiment(*samples, outcome,
                                         Approach::kDataDriven, true, config,
                                         protocol)
                              .value();
    ASSERT_EQ(plan.num_fits(), 4);
    std::vector<Result<FitResult>> fits;
    for (int fit = 0; fit < plan.num_fits(); ++fit) {
      fits.emplace_back(Status::Internal("not run"));
    }
    for (int fit = plan.final_fit(); fit >= 0; --fit) {
      fits[static_cast<size_t>(fit)] = RunFit(plan, fit);
    }
    const ExperimentResult assembled =
        FinishExperiment(std::move(plan), std::move(fits)).value();
    EXPECT_TRUE(assembled.model->Serialize() == sequential.model->Serialize());
    EXPECT_EQ(assembled.HeadlineMetric(), sequential.HeadlineMetric());
    EXPECT_EQ(assembled.cv_regression.mae, sequential.cv_regression.mae);
    EXPECT_EQ(assembled.cv_classification.f1_true,
              sequential.cv_classification.f1_true);
    EXPECT_EQ(assembled.train.labels(), sequential.train.labels());
    EXPECT_EQ(assembled.test.labels(), sequential.test.labels());
  }
}

TEST(EvaluationTest, FinishReportsFirstFailedFitInFitOrder) {
  const auto& fixture = GetFixture();
  EvalProtocol protocol;
  protocol.cv_folds = 3;
  ModelFamilyConfig config;
  config.gbt = FastParams(Outcome::kQol, Approach::kKnowledgeDriven);
  ExperimentPlan plan = PlanExperiment(fixture.qol.kd, Outcome::kQol,
                                       Approach::kKnowledgeDriven, false,
                                       config, protocol)
                            .value();
  EXPECT_EQ(RunFit(plan, -1).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(RunFit(plan, plan.num_fits()).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<Result<FitResult>> fits;
  fits.push_back(RunFit(plan, 0));
  fits.emplace_back(Status::DataLoss("fold 1"));
  fits.emplace_back(Status::IoError("fold 2"));
  fits.push_back(RunFit(plan, plan.final_fit()));
  const Result<ExperimentResult> result =
      FinishExperiment(std::move(plan), std::move(fits));
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(EvaluationTest, DefaultParamsMatchOutcome) {
  const auto falls_params =
      DefaultGbtParams(Outcome::kFalls, Approach::kDataDriven);
  EXPECT_EQ(falls_params.objective, gbt::ObjectiveType::kLogistic);
  const auto qol_params =
      DefaultGbtParams(Outcome::kQol, Approach::kDataDriven);
  EXPECT_EQ(qol_params.objective, gbt::ObjectiveType::kSquaredError);
  const auto kd_params =
      DefaultGbtParams(Outcome::kQol, Approach::kKnowledgeDriven);
  EXPECT_LE(kd_params.max_depth, qol_params.max_depth);
  EXPECT_TRUE(qol_params.Validate().ok());
  EXPECT_TRUE(kd_params.Validate().ok());
}

TEST(EvaluationTest, ApproachNames) {
  EXPECT_STREQ(ApproachName(Approach::kDataDriven), "DD");
  EXPECT_STREQ(ApproachName(Approach::kKnowledgeDriven), "KD");
}

}  // namespace
}  // namespace mysawh::core
