/// Reproduces Fig 5: the distribution of per-patient regression MAE grouped
/// by clinical center, for QoL and SPPB (box-and-whisker statistics).
///
/// Paper shape: Modena and Sydney are comparable; Hong Kong exhibits more
/// outliers because of its small, more homogeneous cohort (n = 33).

#include <iostream>

#include "bench/bench_common.h"
#include "core/metrics.h"
#include "util/stats.h"
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
  // The DD w/ FI models, the paper's best performers.
  std::vector<core::ExperimentPlan> plans;
  for (Outcome outcome : {Outcome::kQol, Outcome::kSppb}) {
    plans.push_back(PlanCell(MakeSampleSets(cohort, outcome).dd_fi,
                             {outcome, Approach::kDataDriven, true}));
  }
  const auto results = RunCells(std::move(plans));

  CsvDocument csv;
  csv.header = {"outcome", "clinic",  "q1",      "median",
                "q3",      "whisker_lo", "whisker_hi", "num_outliers",
                "num_patients"};

  for (const core::ExperimentResult& result : results) {
    const Outcome outcome = result.outcome;
    // Per-patient MAE on the held-out test rows.
    const auto predictions =
        ValueOrDie(result.model->PredictBatch(result.test));
    const auto* patients = ValueOrDie(result.test.Attribute("patient"));
    const auto* clinics = ValueOrDie(result.test.Attribute("clinic"));
    const auto per_patient = ValueOrDie(
        core::PerGroupMae(result.test.labels(), predictions, *patients));

    // Patient -> clinic lookup from the test rows.
    std::map<int64_t, int64_t> patient_clinic;
    for (size_t i = 0; i < patients->size(); ++i) {
      patient_clinic[(*patients)[i]] = (*clinics)[i];
    }
    std::map<int64_t, std::vector<double>> by_clinic;
    for (const auto& [patient, mae] : per_patient) {
      by_clinic[patient_clinic.at(patient)].push_back(mae);
    }

    std::cout << "Fig 5: per-patient MAE by clinic — "
              << core::OutcomeName(outcome) << " (DD w/ FI, test partition)\n";
    TablePrinter table({"clinic", "patients", "q1", "median", "q3",
                        "whisker lo", "whisker hi", "outliers"});
    for (const auto& [clinic, maes] : by_clinic) {
      const BoxStats box = ValueOrDie(ComputeBoxStats(maes));
      const std::string name =
          cohort.config.clinics[static_cast<size_t>(clinic)].name;
      table.AddRow({name, std::to_string(maes.size()),
                    FormatDouble(box.q1, 4), FormatDouble(box.median, 4),
                    FormatDouble(box.q3, 4), FormatDouble(box.min, 4),
                    FormatDouble(box.max, 4),
                    std::to_string(box.outliers.size())});
      csv.rows.push_back({core::OutcomeName(outcome), name,
                          FormatDouble(box.q1, 6), FormatDouble(box.median, 6),
                          FormatDouble(box.q3, 6), FormatDouble(box.min, 6),
                          FormatDouble(box.max, 6),
                          std::to_string(box.outliers.size()),
                          std::to_string(maes.size())});
    }
    std::cout << table.ToString() << "\n";

    // Outlier rate comparison (the paper's Hong Kong observation).
    double hk_rate = 0, other_rate = 0;
    int64_t hk_n = 0, other_n = 0;
    for (const auto& [clinic, maes] : by_clinic) {
      const BoxStats box = ValueOrDie(ComputeBoxStats(maes));
      const bool is_hk =
          cohort.config.clinics[static_cast<size_t>(clinic)].name ==
          "HongKong";
      (is_hk ? hk_rate : other_rate) += static_cast<double>(box.outliers.size());
      (is_hk ? hk_n : other_n) += static_cast<int64_t>(maes.size());
    }
    if (hk_n > 0 && other_n > 0) {
      std::cout << "Outlier share — HongKong: "
                << FormatPercent(hk_rate / static_cast<double>(hk_n), 1)
                << ", Modena+Sydney: "
                << FormatPercent(other_rate / static_cast<double>(other_n), 1)
                << "\n\n";
    }
  }
  WriteCsvReport("fig5_mae_distribution.csv", csv);
  return 0;
}
