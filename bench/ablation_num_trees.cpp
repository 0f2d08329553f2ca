/// Ablation: ensemble size. Staged predictions of the QoL DD model trace
/// the test 1-MAPE as a function of boosting rounds, justifying the
/// default of a few hundred shrunk trees.

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
  auto config = core::DefaultModelConfig(Outcome::kQol, Approach::kDataDriven);
  config.gbt.num_trees = 500;
  const auto cells = RunCells(
      {PlanCell(MakeSampleSets(cohort, Outcome::kQol).dd_fi,
                {Outcome::kQol, Approach::kDataDriven, true}, config)});
  const core::ExperimentResult& result = cells[0];

  const int stride = 25;
  const gbt::GbtModel* gbt = result.gbt_model();
  const auto stages = ValueOrDie(gbt->PredictStaged(result.test, stride));
  TablePrinter table({"trees", "test 1-MAPE", "test MAE"});
  CsvDocument csv;
  csv.header = {"trees", "one_minus_mape", "mae"};
  for (size_t s = 0; s < stages.size(); ++s) {
    const auto metrics = ValueOrDie(
        core::ComputeRegressionMetrics(result.test.labels(), stages[s]));
    const auto trees = std::min<size_t>((s + 1) * stride,
                                        gbt->trees().size());
    table.AddRow({std::to_string(trees),
                  FormatPercent(metrics.one_minus_mape, 2),
                  FormatDouble(metrics.mae, 4)});
    csv.rows.push_back({std::to_string(trees),
                        FormatDouble(metrics.one_minus_mape, 4),
                        FormatDouble(metrics.mae, 4)});
  }
  std::cout << "Ensemble-size ablation (QoL, DD w/ FI, staged prediction)\n"
            << table.ToString()
            << "\nPerformance saturates after a few hundred rounds at the\n"
               "default learning rate; more trees neither help nor hurt\n"
               "much (shrinkage prevents runaway overfitting).\n";
  WriteCsvReport("ablation_num_trees.csv", csv);
  return 0;
}
