/// Reproduces Fig 6: local SHAP interpretation of SPPB predictions. Finds
/// two test-set patients with (nearly) the same predicted SPPB whose top-5
/// SHAP feature rankings differ, and prints both explanations — the paper's
/// personalised-medicine argument: equal outcomes, different reasons,
/// different interventions.

#include <cmath>
#include <iostream>

#include "bench/bench_common.h"
#include "explain/explanation.h"
#include "explain/tree_shap.h"
#include "util/string_util.h"

namespace {
using namespace mysawh;         // NOLINT
using namespace mysawh::bench;  // NOLINT
using core::Approach;
using core::Outcome;
}  // namespace

int main() {
  const auto cohort = MakePaperCohort();
  const auto cells = RunCells({PlanCell(
      MakeSampleSets(cohort, Outcome::kSppb).dd_fi,
      {Outcome::kSppb, Approach::kDataDriven, true})});
  const core::ExperimentResult& result = cells[0];

  const explain::TreeShap shap(result.gbt_model());
  const Dataset& test = result.test;
  const auto predictions = ValueOrDie(result.model->PredictBatch(test));
  const auto* patients = ValueOrDie(test.Attribute("patient"));

  // Precompute SHAP once, then find the pair of rows from DIFFERENT
  // patients with the closest predictions whose top features differ.
  const auto shap_matrix = ValueOrDie(shap.ShapBatch(test));
  std::vector<int> top_feature(static_cast<size_t>(test.num_rows()), -1);
  for (int64_t r = 0; r < test.num_rows(); ++r) {
    const auto& phi = shap_matrix[static_cast<size_t>(r)];
    double best_abs = -1.0;
    for (size_t f = 0; f < phi.size(); ++f) {
      if (std::abs(phi[f]) > best_abs) {
        best_abs = std::abs(phi[f]);
        top_feature[static_cast<size_t>(r)] = static_cast<int>(f);
      }
    }
  }
  int64_t best_a = -1, best_b = -1;
  double best_gap = 1e9;
  for (int64_t a = 0; a < test.num_rows(); ++a) {
    for (int64_t b = a + 1; b < test.num_rows(); ++b) {
      if ((*patients)[static_cast<size_t>(a)] ==
          (*patients)[static_cast<size_t>(b)]) {
        continue;
      }
      if (top_feature[static_cast<size_t>(a)] ==
          top_feature[static_cast<size_t>(b)]) {
        continue;  // want differing top features, as in Fig 6
      }
      const double gap = std::abs(predictions[static_cast<size_t>(a)] -
                                  predictions[static_cast<size_t>(b)]);
      if (gap < best_gap) {
        best_gap = gap;
        best_a = a;
        best_b = b;
      }
    }
  }
  CheckOk(best_a >= 0 ? Status::Ok()
                      : Status::NotFound("no matched patient pair found"));

  std::cout << "Fig 6: two patients with matched SPPB predictions and "
               "different explanations\n\n";
  CsvDocument csv;
  csv.header = {"patient", "prediction", "rank", "feature", "value", "shap"};
  for (int64_t row : {best_a, best_b}) {
    const auto explanation = ValueOrDie(explain::ExplainRow(shap, test, row));
    std::cout << "Patient #" << (*patients)[static_cast<size_t>(row)]
              << " — predicted SPPB "
              << FormatDouble(predictions[static_cast<size_t>(row)], 2)
              << " (actual " << FormatDouble(test.label(row), 0) << ")\n"
              << explanation.ToString(5) << "\n";
    int rank = 1;
    for (const auto& c : explanation.Top(5)) {
      csv.rows.push_back(
          {std::to_string((*patients)[static_cast<size_t>(row)]),
           FormatDouble(predictions[static_cast<size_t>(row)], 4),
           std::to_string(rank++), c.feature, FormatDouble(c.value, 4),
           FormatDouble(c.shap, 6)});
    }
  }
  std::cout << "Prediction gap between the two patients: "
            << FormatDouble(best_gap, 4)
            << " SPPB points; top features differ -> different "
               "interventions.\n";
  WriteCsvReport("fig6_local_explanations.csv", csv);
  return 0;
}
