#ifndef MYSAWH_EXPLAIN_TREE_SHAP_H_
#define MYSAWH_EXPLAIN_TREE_SHAP_H_

#include <vector>

#include "data/dataset.h"
#include "gbt/gbt_model.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mysawh::explain {

/// Exact TreeSHAP (Lundberg et al., "Consistent Individualized Feature
/// Attribution for Tree Ensembles") over a trained GbtModel.
///
/// For each input row it computes one Shapley value per feature on the raw
/// margin scale, satisfying the local-accuracy identity
///
///     raw_prediction(x) = expected_value() + sum_j shap_j(x)
///
/// where expected_value() is the cover-weighted mean raw output of the
/// ensemble. Cover is the training hessian mass per node, matching
/// XGBoost's TreeSHAP semantics. Runs in O(trees * leaves * depth^2). Every
/// entry point runs one recursion over the model's compiled flat forest
/// (gbt/flat_forest.h).
class TreeShap {
 public:
  /// `model` must outlive this object.
  explicit TreeShap(const gbt::GbtModel* model);

  /// SHAP values for one row (num_features() doubles; NaN = missing).
  std::vector<double> Shap(const double* row) const;

  /// SHAP values for every row of `data` (one inner vector per row). The
  /// batch is quantized once and rows are explained in parallel on `pool`
  /// (nullptr = the shared `DefaultPool()`); the output equals calling
  /// Shap() per row for any thread count.
  Result<std::vector<std::vector<double>>> ShapBatch(
      const Dataset& data, ThreadPool* pool = nullptr) const;

  /// SHAP interaction values for one row: an M x M matrix (row-major,
  /// M = num_features) where entry (i, j), i != j, is feature i and j's
  /// pairwise interaction effect and (i, i) is feature i's main effect.
  /// Satisfies (up to float error):
  ///   * symmetry:      phi[i][j] == phi[j][i]
  ///   * row sums:      sum_j phi[i][j] == Shap(row)[i]
  ///   * local accuracy: sum_ij phi[i][j] + expected_value() == raw(x)
  /// Cost: num_features + 1 passes of the TreeSHAP recursion
  /// (O(M * trees * leaves * depth^2)).
  std::vector<double> ShapInteractions(const double* row) const;

  /// Raw-scale expectation of the model over its training distribution
  /// (base_score plus each tree's cover-weighted leaf mean).
  double expected_value() const { return expected_value_; }

  const gbt::GbtModel& model() const { return *model_; }

 private:
  const gbt::GbtModel* model_;
  double expected_value_ = 0.0;
};

}  // namespace mysawh::explain

#endif  // MYSAWH_EXPLAIN_TREE_SHAP_H_
