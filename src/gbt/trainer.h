#ifndef MYSAWH_GBT_TRAINER_H_
#define MYSAWH_GBT_TRAINER_H_

#include <limits>
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

/// A node's gradient sums and row count, and its admissible leaf-weight
/// interval from the monotone constraints on the path from the root.
struct SplitNode {
  double sum_g = 0.0;
  double sum_h = 0.0;
  int64_t count = 0;
  double lower = -std::numeric_limits<double>::infinity();
  double upper = std::numeric_limits<double>::infinity();
};

/// The node's best split over every feature of `layout` in `hist`. Only
/// occupied boundaries are scored, each with both missing directions; with
/// monotone constraints, a direction whose child weights break the order
/// or leave [node.lower, node.upper] is dropped. The winner is the first
/// maximum gain in the order feature, boundary, missing-left,
/// missing-right. The CPU must support `isa`.
SplitCandidate FindBestSplit(KernelIsa isa, const GbtParams& params,
                             const FeatureBins& bins,
                             const HistogramLayout& layout,
                             const NodeHistogram& hist, const SplitNode& node);

/// Internal training engine behind GbtModel::Train. Exposed in a header so
/// tests can exercise split finding directly, but not part of the stable
/// public API.
class Trainer {
 public:
  /// The dataset must outlive the trainer.
  Trainer(const Dataset& train, const GbtParams& params);

  /// Runs boosting and produces the final model.
  Result<GbtModel> Run(const Dataset* validation, TrainingLog* log);

 private:
  /// Recursively grows the subtree rooted at `node_id` over the rows
  /// [begin, end) of `rows_`, partitioned stably in place; `node` holds
  /// their sums in row order. `hist` is the node's histogram in `layout`
  /// (built when empty); children inherit histograms via the sibling-
  /// subtraction trick, and dead ones go back to `hist_pool_`.
  void BuildNode(RegressionTree* tree, int node_id, int64_t begin,
                 int64_t end, int depth,
                 const std::vector<GradientPair>& gpairs, SplitNode node,
                 const HistogramLayout& layout, NodeHistogram hist);

  /// The leaf a training row reaches in `tree`, walked on its bins with the
  /// split bins the grower recorded: `bin <= b` is the raw `v < cut(b)`.
  int BinnedLeaf(const RegressionTree& tree, int64_t row) const;

  const Dataset& train_;
  const GbtParams params_;
  std::unique_ptr<Objective> objective_;
  const KernelIsa isa_ = HostIsa();
  FeatureBins bins_;
  BinnedMatrix binned_;
  int64_t hist_nodes_direct_ = 0;      ///< Histograms built from rows.
  int64_t hist_nodes_subtracted_ = 0;  ///< Histograms derived by subtraction.
  /// Per training row, the node holding it in the tree being grown: the
  /// root (0) before growing, its leaf after. The score update reads leaf
  /// values from it.
  std::vector<int> row_leaf_;
  /// The round's drawn rows, node by node, then the rows it left out.
  std::vector<int64_t> rows_;
  std::vector<int64_t> row_spill_;  ///< Right-hand rows while partitioning.
  std::vector<int64_t> sample_;     ///< Subsample draws.
  std::vector<int> split_bin_;      ///< Per node of the tree, its split bin.
  std::vector<NodeHistogram> hist_pool_;  ///< Released histogram buffers.
  Rng rng_;
};

}  // namespace mysawh::gbt

#endif  // MYSAWH_GBT_TRAINER_H_
