#ifndef MYSAWH_EXPLAIN_EXPLANATION_H_
#define MYSAWH_EXPLAIN_EXPLANATION_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "explain/tree_shap.h"
#include "util/status.h"

namespace mysawh::explain {

/// One feature's contribution to a single prediction.
struct FeatureContribution {
  std::string feature;
  double value = 0.0;  ///< The feature's value in the explained row.
  double shap = 0.0;   ///< Its Shapley contribution (raw margin scale).
};

/// A per-instance explanation: the prediction plus features ranked by
/// |SHAP| descending — the paper's Fig 6 artifact, where the clinician sees
/// which behaviours push a specific patient's predicted outcome up or down.
struct LocalExplanation {
  double prediction = 0.0;      ///< Transformed model output.
  double raw_prediction = 0.0;  ///< Margin-scale output.
  double expected_value = 0.0;  ///< Margin-scale model expectation.
  std::vector<FeatureContribution> contributions;  ///< Sorted by |shap| desc.

  /// The top `k` contributions.
  std::vector<FeatureContribution> Top(int k) const;

  /// Multi-line rendering with signed bars ("+" pushes the prediction up,
  /// "-" pulls it down).
  std::string ToString(int top_k = 5) const;
};

/// Explains one row of `data` with SHAP values from `shap`.
Result<LocalExplanation> ExplainRow(const TreeShap& shap, const Dataset& data,
                                    int64_t row);

/// The paper's Fig 7 artifact: the dependence of one feature's SHAP value
/// on the feature's value across a population, and a data-derived decision
/// threshold recovered from the sign change — the DD analogue of the KD
/// experts' hand-picked cutoffs.
struct DependenceCurve {
  std::string feature;
  std::vector<double> values;       ///< Feature values (one per sample).
  std::vector<double> shap_values;  ///< Matching SHAP values.

  /// Distinct feature values, ascending.
  std::vector<double> distinct_values;
  /// Mean SHAP value at each distinct feature value.
  std::vector<double> mean_shap;
  /// Number of samples at each distinct feature value.
  std::vector<int64_t> counts;

  /// Recovered threshold: the boundary between adjacent distinct values
  /// that best splits the SHAP values into a low and a high group (maximum
  /// between-group variance, the classic 1-D split criterion), provided the
  /// two group means have opposite signs. NaN / has_threshold == false when
  /// no sign-separating boundary exists.
  double recovered_threshold = 0.0;
  bool has_threshold = false;
};

/// Builds the dependence curve of `feature_name` over `data` (rows with a
/// missing value of the feature are skipped).
Result<DependenceCurve> ComputeDependenceCurve(const TreeShap& shap,
                                               const Dataset& data,
                                               const std::string& feature_name);

}  // namespace mysawh::explain

#endif  // MYSAWH_EXPLAIN_EXPLANATION_H_
