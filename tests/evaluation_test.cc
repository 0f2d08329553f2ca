#include "core/evaluation.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cohort/simulator.h"
#include "core/sample_builder.h"
#include "core/study.h"

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

/// A plan of one cell under the default protocol with FastParams.
ExperimentPlan FastPlan(const Dataset& samples, Outcome outcome,
                        Approach approach, bool with_fi) {
  ModelFamilyConfig config;
  config.gbt = FastParams(outcome, approach);
  return PlanExperiment(samples, outcome, approach, with_fi, config,
                        EvalProtocol{})
      .value();
}

/// Computes `plans` with RunPlans on two threads; every cell must succeed.
std::vector<ExperimentResult> RunCells(std::vector<ExperimentPlan> plans) {
  std::vector<ExperimentResult> cells;
  for (PlanRun& run : RunPlans(std::move(plans), 2)) {
    cells.push_back(std::move(run.result).value());
  }
  return cells;
}

TEST(EvaluationTest, RegressionExperimentProducesSaneMetrics) {
  const auto& fixture = GetFixture();
  const auto cells = RunCells(
      {FastPlan(fixture.qol.dd, Outcome::kQol, Approach::kDataDriven, false)});
  const ExperimentResult& result = cells[0];
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
  const auto cells = RunCells({FastPlan(fixture.falls.dd, Outcome::kFalls,
                                        Approach::kDataDriven, false)});
  const ExperimentResult& result = cells[0];
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
  std::vector<ExperimentPlan> plans;
  plans.push_back(
      FastPlan(fixture.qol.dd, Outcome::kQol, Approach::kDataDriven, false));
  plans.push_back(FastPlan(fixture.qol.kd, Outcome::kQol,
                           Approach::kKnowledgeDriven, false));
  const auto cells = RunCells(std::move(plans));
  const ExperimentResult& dd = cells[0];
  const ExperimentResult& kd = cells[1];
  EXPECT_GT(dd.test_regression.one_minus_mape,
            kd.test_regression.one_minus_mape);
}

TEST(EvaluationTest, FiFeatureImproves) {
  const auto& fixture = GetFixture();
  std::vector<ExperimentPlan> plans;
  plans.push_back(FastPlan(fixture.qol.kd, Outcome::kQol,
                           Approach::kKnowledgeDriven, false));
  plans.push_back(FastPlan(fixture.qol.kd_fi, Outcome::kQol,
                           Approach::kKnowledgeDriven, true));
  const auto cells = RunCells(std::move(plans));
  const ExperimentResult& without = cells[0];
  const ExperimentResult& with_fi = cells[1];
  EXPECT_GT(with_fi.test_regression.one_minus_mape,
            without.test_regression.one_minus_mape - 0.005);
  EXPECT_TRUE(with_fi.with_fi);
  EXPECT_FALSE(without.with_fi);
}

TEST(EvaluationTest, ValidatesArguments) {
  const auto& fixture = GetFixture();
  const ModelFamilyConfig config =
      DefaultModelConfig(Outcome::kQol, Approach::kDataDriven);
  EvalProtocol protocol;
  protocol.cv_folds = 1;
  EXPECT_FALSE(PlanExperiment(fixture.qol.dd, Outcome::kQol,
                              Approach::kDataDriven, false, config, protocol)
                   .ok());
  Dataset tiny = Dataset::Create({"x"});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(tiny.AddRow({1.0 * i}, 1.0).ok());
  }
  EXPECT_FALSE(PlanExperiment(tiny, Outcome::kQol, Approach::kDataDriven,
                              false, config, EvalProtocol{})
                   .ok());
}

TEST(EvaluationTest, RunPlansEqualsFitsAssembledInReverseOrder) {
  // RunPlans runs every fit of every plan on whichever worker is free, in
  // any order; each cell must come out exactly as its fits run one by one
  // in reverse order and assembled, and element i must belong to plan i.
  const auto& fixture = GetFixture();
  EvalProtocol protocol;
  protocol.cv_folds = 3;
  std::vector<ExperimentPlan> plans;
  for (const auto& [samples, outcome] :
       {std::pair<const Dataset*, Outcome>{&fixture.qol.dd, Outcome::kQol},
        std::pair<const Dataset*, Outcome>{&fixture.falls.dd,
                                           Outcome::kFalls}}) {
    ModelFamilyConfig config;
    config.gbt = FastParams(outcome, Approach::kDataDriven);
    plans.push_back(PlanExperiment(*samples, outcome, Approach::kDataDriven,
                                   true, config, protocol)
                        .value());
  }
  std::vector<ExperimentResult> expected;
  for (const ExperimentPlan& plan : plans) {
    ASSERT_EQ(plan.num_fits(), 4);
    std::vector<Result<FitResult>> fits;
    for (int fit = 0; fit < plan.num_fits(); ++fit) {
      fits.emplace_back(Status::Internal("not run"));
    }
    for (int fit = plan.final_fit(); fit >= 0; --fit) {
      fits[static_cast<size_t>(fit)] = RunFit(plan, fit);
    }
    expected.push_back(FinishExperiment(plan, std::move(fits)).value());
  }
  for (int threads : {1, 3}) {
    std::vector<Outcome> finished(plans.size(), Outcome::kSppb);
    const std::vector<PlanRun> runs = RunPlans(
        plans, threads, [&](size_t i, Result<ExperimentResult>& result) {
          finished[i] = result.value().outcome;
        });
    ASSERT_EQ(runs.size(), expected.size());
    for (size_t i = 0; i < runs.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " plan=" + std::to_string(i));
      const ExperimentResult& got = runs[i].result.value();
      const ExperimentResult& want = expected[i];
      EXPECT_EQ(got.outcome, plans[i].outcome);
      EXPECT_EQ(finished[i], plans[i].outcome);
      EXPECT_TRUE(got.model->Serialize() == want.model->Serialize());
      EXPECT_EQ(got.HeadlineMetric(), want.HeadlineMetric());
      EXPECT_EQ(got.cv_regression.mae, want.cv_regression.mae);
      EXPECT_EQ(got.cv_regression.mape, want.cv_regression.mape);
      EXPECT_EQ(got.cv_classification.accuracy,
                want.cv_classification.accuracy);
      EXPECT_EQ(got.cv_classification.f1_true, want.cv_classification.f1_true);
      EXPECT_EQ(got.train.labels(), want.train.labels());
      EXPECT_EQ(got.test.labels(), want.test.labels());
    }
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
