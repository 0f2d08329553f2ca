/// Extension beyond the paper: probability quality of the Falls models.
/// The paper reports threshold metrics (accuracy/precision/recall); for
/// clinical risk scores the ranking (AUC) and calibration (Brier score,
/// reliability diagram) matter as much. Compares DD and KD with/without FI.

#include <iostream>

#include "bench/bench_common.h"
#include "core/metrics.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {
using namespace mysawh;         // NOLINT
using namespace mysawh::bench;  // NOLINT
using core::Approach;
using core::Outcome;
}  // namespace

int main() {
  const auto cohort = MakePaperCohort();
  const auto sets = MakeSampleSets(cohort, Outcome::kFalls);
  std::vector<core::ExperimentPlan> plans;
  for (const core::GridCell& cell : core::GridCells(sets)) {
    plans.push_back(PlanCell(*cell.data, cell.key));
  }
  const auto results = RunCells(std::move(plans));

  TablePrinter table({"model", "AUC", "Brier", "base rate"});
  CsvDocument csv;
  csv.header = {"model", "auc", "brier"};
  const core::ExperimentResult* best = nullptr;
  for (const core::ExperimentResult& result : results) {
    std::string name = core::ApproachName(result.approach);
    name += result.with_fi ? " w/ FI" : " w/o FI";
    const auto preds = ValueOrDie(result.model->PredictBatch(result.test));
    const double auc = ValueOrDie(core::RocAuc(result.test.labels(), preds));
    const double brier =
        ValueOrDie(core::BrierScore(result.test.labels(), preds));
    double base_rate = 0;
    for (double y : result.test.labels()) base_rate += y;
    base_rate /= static_cast<double>(result.test.num_rows());
    table.AddRow({name, FormatDouble(auc, 3), FormatDouble(brier, 4),
                  FormatPercent(base_rate, 1)});
    csv.rows.push_back({name, FormatDouble(auc, 4), FormatDouble(brier, 4)});
    if (result.with_fi && result.approach == Approach::kDataDriven) {
      best = &result;
    }
  }
  std::cout << "Falls risk models: ranking and calibration quality\n"
            << table.ToString() << "\n";

  // Reliability diagram of the best model.
  const auto preds = ValueOrDie(best->model->PredictBatch(best->test));
  const auto bins =
      ValueOrDie(core::ComputeCalibrationBins(best->test.labels(), preds, 10));
  TablePrinter reliability(
      {"bin mean p", "observed rate", "count", "gap"});
  for (const auto& bin : bins) {
    reliability.AddRow({FormatDouble(bin.mean_predicted, 3),
                        FormatDouble(bin.observed_rate, 3),
                        std::to_string(bin.count),
                        FormatDouble(bin.observed_rate - bin.mean_predicted,
                                     3)});
  }
  std::cout << "Reliability diagram — DD w/ FI:\n" << reliability.ToString();
  WriteCsvReport("extension_falls_calibration.csv", csv);
  return 0;
}
