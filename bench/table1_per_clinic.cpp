/// Reproduces Table 1: single-clinic models. For each clinic (Modena,
/// Sydney, Hong Kong) the full Fig 4 grid is re-run on that clinic's
/// samples only: 1-MAPE for QoL and SPPB, classification effectiveness for
/// Falls, KD vs DD, with and without FI.
///
/// Paper shape: per-clinic results are consistent with the pooled Fig 4
/// models; Hong Kong (n = 33) shows anomalies due to its small sample.

#include <iostream>

#include "bench/bench_common.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {
using namespace mysawh;         // NOLINT
using namespace mysawh::bench;  // NOLINT
using core::Outcome;

/// Rows of one clinic's samples.
Result<Dataset> ClinicSubset(const Dataset& samples, int64_t clinic) {
  MYSAWH_ASSIGN_OR_RETURN(const std::vector<int64_t>* clinics,
                          samples.Attribute("clinic"));
  std::vector<int64_t> rows;
  for (size_t i = 0; i < clinics->size(); ++i) {
    if ((*clinics)[i] == clinic) rows.push_back(static_cast<int64_t>(i));
  }
  return samples.Take(rows);
}

}  // namespace

int main() {
  const auto cohort = MakePaperCohort();
  std::vector<core::SampleSets> sets;
  for (Outcome outcome : {Outcome::kQol, Outcome::kSppb, Outcome::kFalls}) {
    sets.push_back(MakeSampleSets(cohort, outcome));
  }

  // Every clinic's grid in print order. A cell whose plan fails keeps its
  // Status; the planned ones are computed together.
  struct Cell {
    size_t clinic;
    core::StudyCellKey key;
    Result<core::ExperimentResult> result = Status::Internal("cell never ran");
  };
  std::vector<Cell> cells;
  std::vector<core::ExperimentPlan> plans;
  std::vector<size_t> planned;  // planned[i] is the cell of plans[i]
  for (size_t clinic = 0; clinic < cohort.config.clinics.size(); ++clinic) {
    for (const core::SampleSets& outcome_sets : sets) {
      for (const core::GridCell& grid : core::GridCells(outcome_sets)) {
        const Dataset subset =
            ValueOrDie(ClinicSubset(*grid.data, static_cast<int64_t>(clinic)));
        Result<core::ExperimentPlan> plan = core::PlanExperiment(
            subset, grid.key.outcome, grid.key.approach, grid.key.with_fi,
            core::DefaultModelConfig(grid.key.outcome, grid.key.approach),
            core::EvalProtocol{});
        cells.push_back({clinic, grid.key});
        if (plan.ok()) {
          planned.push_back(cells.size() - 1);
          plans.push_back(std::move(plan).value());
        } else {
          cells.back().result = plan.status();
        }
      }
    }
  }
  std::vector<core::PlanRun> runs = core::RunPlans(std::move(plans), 0);
  for (size_t i = 0; i < runs.size(); ++i) {
    cells[planned[i]].result = std::move(runs[i].result);
  }

  CsvDocument csv;
  csv.header = {"clinic", "outcome", "approach", "with_fi", "one_minus_mape",
                "accuracy", "p_true", "p_false", "r_true", "r_false",
                "f1_true", "f1_false"};

  auto cell = cells.begin();
  for (size_t clinic = 0; clinic < cohort.config.clinics.size(); ++clinic) {
    const std::string& clinic_name = cohort.config.clinics[clinic].name;
    std::cout << "=== " << clinic_name << " (n="
              << cohort.config.clinics[clinic].num_patients
              << " patients) ===\n";
    TablePrinter reg({"outcome", "model", "1-MAPE"});
    TablePrinter cls({"model", "Acc", "P(T)", "P(F)", "R(T)", "R(F)",
                      "F1(T)", "F1(F)"});
    for (; cell != cells.end() && cell->clinic == clinic; ++cell) {
      const core::StudyCellKey& key = cell->key;
      std::string model = core::ApproachName(key.approach);
      model += key.with_fi ? " w/ FI" : " w/o FI";
      if (!cell->result.ok()) {
        // Small clinics can fail stratified splitting in a window; the
        // paper notes Hong Kong anomalies for the same reason.
        std::cout << "  (skipped " << core::OutcomeName(key.outcome) << " "
                  << model << ": " << cell->result.status().ToString()
                  << ")\n";
        continue;
      }
      const auto& result = *cell->result;
      if (result.is_classification) {
        const auto& m = result.test_classification;
        cls.AddRow({model, FormatPercent(m.accuracy, 1),
                    FormatPercent(m.precision_true, 1),
                    FormatPercent(m.precision_false, 1),
                    FormatPercent(m.recall_true, 1),
                    FormatPercent(m.recall_false, 1),
                    FormatPercent(m.f1_true, 1),
                    FormatPercent(m.f1_false, 1)});
      } else {
        reg.AddRow({core::OutcomeName(key.outcome), model,
                    FormatPercent(result.test_regression.one_minus_mape, 1)});
      }
      const auto& m = result.test_classification;
      csv.rows.push_back(
          {clinic_name, core::OutcomeName(key.outcome),
           core::ApproachName(key.approach), key.with_fi ? "1" : "0",
           FormatDouble(result.is_classification
                            ? 0.0
                            : result.test_regression.one_minus_mape,
                        4),
           FormatDouble(m.accuracy, 4), FormatDouble(m.precision_true, 4),
           FormatDouble(m.precision_false, 4),
           FormatDouble(m.recall_true, 4), FormatDouble(m.recall_false, 4),
           FormatDouble(m.f1_true, 4), FormatDouble(m.f1_false, 4)});
    }
    std::cout << "QoL / SPPB (1-MAPE):\n"
              << reg.ToString() << "Falls:\n"
              << cls.ToString() << "\n";
  }
  WriteCsvReport("table1_per_clinic.csv", csv);
  return 0;
}
