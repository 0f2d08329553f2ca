/// Reproduces Fig 4: predictive performance of the DD and KD approaches,
/// with and without the Frailty Index feature.
///   Left block:  1-MAPE for the QoL and SPPB regressions.
///   Right block: accuracy / per-class precision / recall / F1 for Falls.
///
/// Paper reference values are printed beside the measured ones; absolute
/// agreement is not expected (synthetic cohort), the *shape* is: DD >= KD,
/// FI helps both, and KD without FI collapses on minority-class recall.

#include <iostream>
#include <map>

#include "bench/bench_common.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace mysawh;            // NOLINT
using namespace mysawh::bench;     // NOLINT
using core::Approach;
using core::Outcome;
using core::StudyCellKey;

}  // namespace

int main() {
  // The study's 12 cells: the seed-42 paper cohort under the default
  // protocol, the same cells `mysawh_cli study` reports.
  const core::StudyResult study =
      ValueOrDie(core::RunFullStudy(core::StudyConfig{}));
  const auto& results = study.cells;

  // ---- Left block: 1-MAPE for QoL and SPPB. ------------------------------
  // Paper Fig 4 left: rows w/o FI, w/ FI; columns KD, DD for each outcome.
  const std::map<StudyCellKey, double> paper_regression = {
      {{Outcome::kQol, Approach::kKnowledgeDriven, false}, 0.91},
      {{Outcome::kQol, Approach::kDataDriven, false}, 0.92},
      {{Outcome::kQol, Approach::kKnowledgeDriven, true}, 0.92},
      {{Outcome::kQol, Approach::kDataDriven, true}, 0.94},
      {{Outcome::kSppb, Approach::kKnowledgeDriven, false}, 0.93},
      {{Outcome::kSppb, Approach::kDataDriven, false}, 0.92},
      {{Outcome::kSppb, Approach::kKnowledgeDriven, true}, 0.93},
      {{Outcome::kSppb, Approach::kDataDriven, true}, 0.95},
  };
  TablePrinter left({"outcome", "model", "1-MAPE (measured)", "1-MAPE (paper)"});
  for (Outcome outcome : {Outcome::kQol, Outcome::kSppb}) {
    for (bool with_fi : {false, true}) {
      for (Approach approach :
           {Approach::kKnowledgeDriven, Approach::kDataDriven}) {
        const auto& r = results.at({outcome, approach, with_fi});
        std::string model = core::ApproachName(approach);
        model += with_fi ? " w/ FI" : " w/o FI";
        left.AddRow({core::OutcomeName(outcome), model,
                     FormatPercent(r.test_regression.one_minus_mape, 1),
                     FormatPercent(
                         paper_regression.at({outcome, approach, with_fi}),
                         0)});
      }
    }
    left.AddSeparator();
  }
  std::cout << "Fig 4 (left): QoL / SPPB regression, 1-MAPE\n"
            << left.ToString() << "\n";

  // ---- Right block: Falls classification. --------------------------------
  struct PaperFalls {
    double acc, p_true, p_false, r_true, r_false, f1_true, f1_false;
  };
  const std::map<std::pair<bool, Approach>, PaperFalls> paper_falls = {
      {{false, Approach::kKnowledgeDriven},
       {0.84, 0.22, 0.85, 0.02, 0.99, 0.04, 0.91}},
      {{false, Approach::kDataDriven},
       {0.93, 0.97, 0.93, 0.52, 1.00, 0.68, 0.96}},
      {{true, Approach::kKnowledgeDriven},
       {0.89, 0.72, 0.92, 0.54, 0.96, 0.62, 0.94}},
      {{true, Approach::kDataDriven},
       {0.95, 0.98, 0.95, 0.68, 1.00, 0.80, 0.97}},
  };
  TablePrinter right({"model", "metric", "measured", "paper"});
  for (bool with_fi : {false, true}) {
    for (Approach approach :
         {Approach::kKnowledgeDriven, Approach::kDataDriven}) {
      const auto& r =
          results.at({Outcome::kFalls, approach, with_fi}).test_classification;
      const auto& p = paper_falls.at({with_fi, approach});
      std::string model = core::ApproachName(approach);
      model += with_fi ? " w/ FI" : " w/o FI";
      const struct {
        const char* name;
        double measured;
        double paper;
      } rows[] = {
          {"Accuracy", r.accuracy, p.acc},
          {"Prec (True)", r.precision_true, p.p_true},
          {"Prec (False)", r.precision_false, p.p_false},
          {"Rec (True)", r.recall_true, p.r_true},
          {"Rec (False)", r.recall_false, p.r_false},
          {"F1 (True)", r.f1_true, p.f1_true},
          {"F1 (False)", r.f1_false, p.f1_false},
      };
      for (const auto& row : rows) {
        right.AddRow({model, row.name, FormatPercent(row.measured, 1),
                      FormatPercent(row.paper, 0)});
      }
      right.AddSeparator();
    }
  }
  std::cout << "Fig 4 (right): Falls classification effectiveness\n"
            << right.ToString();

  // ---- CSV export. --------------------------------------------------------
  CsvDocument csv;
  csv.header = {"outcome", "approach", "with_fi",      "headline",
                "mae",     "accuracy", "recall_true",  "recall_false",
                "precision_true", "precision_false", "f1_true", "f1_false"};
  for (const auto& [key, r] : results) {
    csv.rows.push_back(
        {core::OutcomeName(key.outcome), core::ApproachName(key.approach),
         key.with_fi ? "1" : "0", FormatDouble(r.HeadlineMetric(), 4),
         FormatDouble(r.is_classification ? 0.0 : r.test_regression.mae, 4),
         FormatDouble(r.test_classification.accuracy, 4),
         FormatDouble(r.test_classification.recall_true, 4),
         FormatDouble(r.test_classification.recall_false, 4),
         FormatDouble(r.test_classification.precision_true, 4),
         FormatDouble(r.test_classification.precision_false, 4),
         FormatDouble(r.test_classification.f1_true, 4),
         FormatDouble(r.test_classification.f1_false, 4)});
  }
  WriteCsvReport("fig4_predictive_performance.csv", csv);
  return 0;
}
