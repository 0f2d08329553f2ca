#ifndef MYSAWH_GBT_TRAINER_H_
#define MYSAWH_GBT_TRAINER_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "gbt/binning.h"
#include "gbt/gbt_model.h"
#include "gbt/histogram.h"
#include "gbt/objective.h"
#include "gbt/params.h"
#include "util/rng.h"

namespace mysawh::gbt {

/// Internal training engine behind GbtModel::Train. Exposed in a header so
/// tests can exercise split finding directly, but not part of the stable
/// public API.
class Trainer {
 public:
  /// The dataset must outlive the trainer.
  Trainer(const Dataset& train, const GbtParams& params);

  /// Runs boosting and produces the final model.
  Result<GbtModel> Run(const Dataset* validation, TrainingLog* log);

  /// A scored split proposal for one node.
  struct SplitCandidate {
    bool valid = false;
    int feature = -1;
    double threshold = 0.0;
    int bin = -1;             ///< The split is "bin <= this".
    bool default_left = true; ///< Learned missing-value direction.
    double gain = 0.0;
    double weight_left = 0.0;   ///< Unshrunk child weights (for monotone
    double weight_right = 0.0;  ///< bound propagation).
  };

 private:
  struct NodeStats {
    double sum_g = 0.0;
    double sum_h = 0.0;
    int64_t count = 0;
  };

  /// Admissible leaf-weight interval enforcing monotone constraints along
  /// the path from the root.
  struct NodeBounds {
    double lower;
    double upper;
  };

  double LeafWeight(double g, double h) const;

  /// Scans the node histogram of the `feature_pos`-th selected feature for
  /// its best boundary. Only occupied boundaries are scored, each with both
  /// missing-value directions; with monotone constraints configured, a
  /// direction whose child weights break the feature's ordering or leave
  /// `bounds` is dropped. Ties keep the smaller threshold, then missing-left.
  SplitCandidate FindSplit(int feature_pos, const HistogramLayout& layout,
                           const NodeHistogram& hist, const NodeStats& parent,
                           const NodeBounds& bounds) const;

  /// Recursively grows the subtree rooted at `node_id` over `rows`. `layout`
  /// is the tree's histogram layout and `hist` the node's histogram (built
  /// when empty); children inherit histograms via the sibling-subtraction
  /// trick.
  void BuildNode(RegressionTree* tree, int node_id, std::vector<int64_t> rows,
                 int depth, const std::vector<GradientPair>& gpairs,
                 const NodeBounds& bounds, const HistogramLayout& layout,
                 NodeHistogram hist);

  /// The monotone constraint of a feature (0 when none configured).
  int ConstraintOf(int feature) const;

  /// Grows one tree on the (sub)sampled rows and features.
  RegressionTree GrowTree(const std::vector<GradientPair>& gpairs,
                          std::vector<int64_t> rows,
                          std::vector<int> features);

  const Dataset& train_;
  const GbtParams params_;
  std::unique_ptr<Objective> objective_;
  FeatureBins bins_;
  BinnedMatrix binned_;
  int64_t hist_nodes_direct_ = 0;      ///< Histograms built from rows.
  int64_t hist_nodes_subtracted_ = 0;  ///< Histograms derived by subtraction.
  /// Per training row, the node holding it in the tree being grown: the
  /// root (0) before growing, its leaf after; -1 for rows outside the
  /// round's subsample. The score update reads leaf values from it.
  std::vector<int> row_leaf_;
  Rng rng_;
};

}  // namespace mysawh::gbt

#endif  // MYSAWH_GBT_TRAINER_H_
