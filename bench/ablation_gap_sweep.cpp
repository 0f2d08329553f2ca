/// Reproduces the paper's Section 3 quality-assurance experiment: the
/// choice of the maximum interpolation gap. Sweeps the bound over
/// {0, 1, 2, 3, 5, 8, 12, 17} and reports, for each setting, the retained
/// sample count and the QoL DD model's test performance.
///
/// Paper: "We experimentally determined the max size of gaps that could be
/// safely interpolated (five missing steps)" — small bounds discard data,
/// large bounds inject spurious interpolated values.

#include <iostream>

#include "bench/bench_common.h"
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
  const int max_gaps[] = {0, 1, 2, 3, 5, 8, 12, 17};
  std::vector<std::string> retained;
  std::vector<std::string> gaps_left;
  std::vector<core::ExperimentPlan> plans;
  for (int max_gap : max_gaps) {
    core::SampleBuildOptions options;
    options.max_interpolation_gap = max_gap;
    const auto builder =
        ValueOrDie(core::SampleSetBuilder::Create(&cohort, options));
    const auto sets = ValueOrDie(builder.Build(Outcome::kQol));
    retained.push_back(std::to_string(sets.retained));
    gaps_left.push_back(std::to_string(sets.gap_stats_after.num_gaps));
    plans.push_back(
        PlanCell(sets.dd, {Outcome::kQol, Approach::kDataDriven, false}));
  }
  const auto results = RunCells(std::move(plans));

  TablePrinter table({"max gap", "retained", "left-missing gaps",
                      "1-MAPE (QoL)", "MAE"});
  CsvDocument csv;
  csv.header = {"max_gap", "retained", "one_minus_mape", "mae"};
  for (size_t i = 0; i < results.size(); ++i) {
    const std::string max_gap = std::to_string(max_gaps[i]);
    const core::RegressionMetrics& m = results[i].test_regression;
    table.AddRow({max_gap, retained[i], gaps_left[i],
                  FormatPercent(m.one_minus_mape, 1), FormatDouble(m.mae, 4)});
    csv.rows.push_back({max_gap, retained[i],
                        FormatDouble(m.one_minus_mape, 4),
                        FormatDouble(m.mae, 4)});
  }
  std::cout << "Section 3 QA ablation: maximum interpolation gap sweep\n"
            << table.ToString()
            << "\nPaper picked max gap = 5: enough retained samples without\n"
               "flooding the training set with interpolated (spurious) "
               "values.\n";
  WriteCsvReport("ablation_gap_sweep.csv", csv);
  return 0;
}
