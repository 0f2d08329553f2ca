/// Reproduces the paper's Section 5 model-family justification: "The
/// Gradient Boosting algorithm proved to offer better predictive
/// performance than other popular intelligible learning frameworks such as
/// GA2M, suggesting that separating model performance from model
/// interpretability would better suit our needs."
///
/// Compares, on the same DD sample sets: GBT (ours), the GA2M-style
/// additive model (intelligible by construction), and ridge linear /
/// logistic baselines.

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

  TablePrinter table({"outcome", "model family", "headline", "detail"});
  CsvDocument csv;
  csv.header = {"outcome", "family", "headline", "recall_true"};

  for (Outcome outcome : {Outcome::kQol, Outcome::kSppb, Outcome::kFalls}) {
    const auto sets = MakeSampleSets(cohort, outcome);
    const bool classify = core::IsClassification(outcome);
    auto gam = core::DefaultModelConfig(outcome, Approach::kDataDriven,
                                        core::ModelFamily::kGam);
    gam.gam.num_cycles = 25;
    const struct {
      const char* name;
      core::ModelFamilyConfig config;
    } families[] = {
        // 1. GBT (the paper's choice).
        {"GBT (XGBoost-style)",
         core::DefaultModelConfig(outcome, Approach::kDataDriven)},
        // 2. GA2M-style additive model.
        {"GA2M-style GAM", gam},
        // 3. Linear / logistic baselines.
        {classify ? "Logistic regression" : "Ridge regression",
         core::DefaultModelConfig(outcome, Approach::kDataDriven,
                                  core::ModelFamily::kLinear)},
    };
    for (const auto& family : families) {
      // The final fit of one plan per family: the plans draw the same
      // train/test rows, so all families see identical data.
      const core::ExperimentPlan plan = PlanCell(
          sets.dd, {outcome, Approach::kDataDriven, false}, family.config);
      const core::FitResult fit =
          ValueOrDie(core::RunFit(plan, plan.final_fit()));
      if (classify) {
        const auto& m = fit.classification;
        table.AddRow({core::OutcomeName(outcome), family.name,
                      "acc " + FormatPercent(m.accuracy, 1),
                      "recall(T) " + FormatPercent(m.recall_true, 1)});
        csv.rows.push_back({core::OutcomeName(outcome), family.name,
                            FormatDouble(m.accuracy, 4),
                            FormatDouble(m.recall_true, 4)});
      } else {
        const auto& m = fit.regression;
        table.AddRow({core::OutcomeName(outcome), family.name,
                      "1-MAPE " + FormatPercent(m.one_minus_mape, 1),
                      "MAE " + FormatDouble(m.mae, 4)});
        csv.rows.push_back({core::OutcomeName(outcome), family.name,
                            FormatDouble(m.one_minus_mape, 4), ""});
      }
    }
    table.AddSeparator();
  }

  std::cout << "Model-family ablation on the DD feature sets\n"
            << table.ToString()
            << "\nPaper claim: GBT > intelligible-by-construction models,\n"
               "so combine GBT with post-hoc SHAP instead.\n";
  WriteCsvReport("ablation_model_families.csv", csv);
  return 0;
}
