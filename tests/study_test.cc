#include "core/study.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cohort/simulator.h"
#include "util/metrics.h"
#include "util/telemetry.h"

namespace mysawh::core {
namespace {

/// One shared small, fast study for all assertions.
const StudyResult& GetStudy() {
  static const StudyResult* study = [] {
    StudyConfig config;
    config.cohort.seed = 31;
    config.cohort.clinics = {{"A", 30, 0.0, 1.0}, {"B", 15, 0.0, 1.4}};
    config.protocol.cv_folds = 3;
    auto result = RunFullStudy(config);
    return new StudyResult(std::move(result).value());
  }();
  return *study;
}

TEST(StudyTest, GridIsComplete) {
  const StudyResult& study = GetStudy();
  EXPECT_EQ(study.cells.size(), 12u);  // 3 outcomes x 2 approaches x 2 FI
  for (Outcome outcome : {Outcome::kQol, Outcome::kSppb, Outcome::kFalls}) {
    for (Approach approach :
         {Approach::kKnowledgeDriven, Approach::kDataDriven}) {
      for (bool with_fi : {false, true}) {
        EXPECT_TRUE(study.Cell(outcome, approach, with_fi).ok());
      }
    }
  }
  EXPECT_GT(study.retained, 0);
  EXPECT_LE(study.retained, study.total_candidates);
}

TEST(StudyTest, CentralClaimHolds) {
  const StudyResult& study = GetStudy();
  for (Outcome outcome : {Outcome::kQol, Outcome::kSppb}) {
    const auto* dd = study.Cell(outcome, Approach::kDataDriven, true).value();
    const auto* kd =
        study.Cell(outcome, Approach::kKnowledgeDriven, false).value();
    EXPECT_GT(dd->test_regression.one_minus_mape,
              kd->test_regression.one_minus_mape)
        << OutcomeName(outcome);
  }
  const auto* dd_falls =
      study.Cell(Outcome::kFalls, Approach::kDataDriven, true).value();
  const auto* kd_falls =
      study.Cell(Outcome::kFalls, Approach::kKnowledgeDriven, false).value();
  EXPECT_GE(dd_falls->test_classification.accuracy,
            kd_falls->test_classification.accuracy);
}

TEST(StudyTest, MarkdownReportContainsTables) {
  const StudyResult& study = GetStudy();
  const std::string report = study.ToMarkdown();
  EXPECT_NE(report.find("# DD vs KD study report"), std::string::npos);
  EXPECT_NE(report.find("| QoL |"), std::string::npos);
  EXPECT_NE(report.find("| SPPB |"), std::string::npos);
  EXPECT_NE(report.find("Falls classification"), std::string::npos);
  EXPECT_NE(report.find("DD w/ FI"), std::string::npos);
}

TEST(StudyTest, ResultsIndependentOfThreadCount) {
  // GetStudy ran with the default pool (hardware threads). A sequential
  // rerun of the same configuration must produce identical metrics: every
  // cell derives its randomness from the protocol seed alone.
  StudyConfig config;
  config.cohort.seed = 31;
  config.cohort.clinics = {{"A", 30, 0.0, 1.0}, {"B", 15, 0.0, 1.4}};
  config.protocol.cv_folds = 3;
  config.num_threads = 1;
  const StudyResult sequential = RunFullStudy(config).value();
  EXPECT_EQ(sequential.ToMarkdown(), GetStudy().ToMarkdown());
  for (const auto& [key, cell] : GetStudy().cells) {
    const auto it = sequential.cells.find(key);
    ASSERT_NE(it, sequential.cells.end());
    EXPECT_EQ(cell.HeadlineMetric(), it->second.HeadlineMetric());
    EXPECT_EQ(cell.model->Serialize(), it->second.model->Serialize());
  }
}

/// Everything a study writes besides REPORT.md that must not depend on
/// the schedule: the telemetry artifact, every model, and the manifest's
/// per-cell post-pass blocks.
std::string ScheduleFreeOutputs(int num_threads) {
  StudyConfig config;
  config.cohort.seed = 31;
  config.cohort.clinics = {{"A", 30, 0.0, 1.0}, {"B", 15, 0.0, 1.4}};
  config.protocol.cv_folds = 3;
  config.num_threads = num_threads;
  Telemetry::Global().Enable();
  const StudyResult study = RunFullStudy(config).value();
  std::string out = Telemetry::Global().ToJsonl();
  Telemetry::Global().Disable();
  out += study.ToMarkdown();
  for (const auto& [key, cell] : study.cells) {
    out += StudyCellName(key) + "\n" + cell.model->Serialize();
    out += DataQualityJson(study.profiles.at(key));
    out += study.drift_jsons.at(key) + study.calibration_jsons.at(key);
  }
  return out;
}

TEST(StudyTest, FitScheduleLeavesNoTraceInOutputs) {
  // Fits finish in a different order on every thread count (and, with
  // several workers, on every run); telemetry streams, models and the
  // manifest blocks must come out byte-identical regardless.
  const std::string reference = ScheduleFreeOutputs(1);
  EXPECT_NE(reference.find("QoL-DD-fi1/cv2/train"), std::string::npos);
  EXPECT_NE(reference.find("Falls-KD-fi0/final/eval"), std::string::npos);
  for (int threads : {3, 8}) {
    // Compared as a bool: gtest's line diff of two multi-megabyte strings
    // would take gigabytes.
    const std::string outputs = ScheduleFreeOutputs(threads);
    const auto [a, b] = std::mismatch(outputs.begin(), outputs.end(),
                                      reference.begin(), reference.end());
    EXPECT_TRUE(a == outputs.end() && b == reference.end())
        << "threads=" << threads << ": first difference at byte "
        << (a - outputs.begin());
  }
}

TEST(StudyTest, ProgressCountsEveryFit) {
  auto& registry = MetricsRegistry::Global();
  Counter* fits = registry.GetCounter("study.fits_computed");
  Counter* cells = registry.GetCounter("study.cells_computed");
  const int64_t fits_before = fits->Value();
  const int64_t cells_before = cells->Value();
  StudyConfig config;
  config.cohort.seed = 31;
  config.cohort.clinics = {{"A", 30, 0.0, 1.0}, {"B", 15, 0.0, 1.4}};
  config.protocol.cv_folds = 2;
  config.num_threads = 4;
  ASSERT_TRUE(RunFullStudy(config).ok());
  EXPECT_EQ(fits->Value() - fits_before, 12 * 3);
  EXPECT_EQ(cells->Value() - cells_before, 12);
  EXPECT_EQ(registry.GetGauge("study.fits_total")->Value(), 12 * 3);
}

TEST(StudyTest, FitCostEstimateStartsTheLongestFitsFirst) {
  // The DD final fit (all train rows, every feature) is the longest fit
  // of the paper's grid; KD fits (one or two features) are the shortest.
  cohort::CohortConfig cohort_config;
  cohort_config.seed = 31;
  cohort_config.clinics = {{"A", 30, 0.0, 1.0}, {"B", 15, 0.0, 1.4}};
  const cohort::Cohort cohort =
      cohort::CohortSimulator(cohort_config).Generate().value();
  SampleSetBuilder builder =
      SampleSetBuilder::Create(&cohort, SampleBuildOptions{}).value();
  const SampleSets sets = builder.Build(Outcome::kQol).value();
  const EvalProtocol protocol;
  const ExperimentPlan dd =
      PlanExperiment(sets.dd_fi, Outcome::kQol, Approach::kDataDriven, true,
                     DefaultModelConfig(Outcome::kQol, Approach::kDataDriven),
                     protocol)
          .value();
  const ExperimentPlan kd =
      PlanExperiment(
          sets.kd, Outcome::kQol, Approach::kKnowledgeDriven, false,
          DefaultModelConfig(Outcome::kQol, Approach::kKnowledgeDriven),
          protocol)
          .value();
  for (int fold = 0; fold < dd.final_fit(); ++fold) {
    EXPECT_GT(EstimateFitCost(dd, dd.final_fit()), EstimateFitCost(dd, fold));
    EXPECT_GT(EstimateFitCost(dd, fold),
              EstimateFitCost(kd, kd.final_fit()));
    EXPECT_GT(EstimateFitCost(kd, kd.final_fit()), EstimateFitCost(kd, fold));
  }
}

TEST(StudyTest, MissingCellLookupFails) {
  StudyResult empty;
  EXPECT_FALSE(empty.Cell(Outcome::kQol, Approach::kDataDriven, true).ok());
}

}  // namespace
}  // namespace mysawh::core
