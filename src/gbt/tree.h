#ifndef MYSAWH_GBT_TREE_H_
#define MYSAWH_GBT_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace mysawh::gbt {

/// One node of a regression tree stored in an index-linked array.
struct TreeNode {
  int32_t left = -1;        ///< Left child index, -1 for a leaf.
  int32_t right = -1;       ///< Right child index, -1 for a leaf.
  int32_t feature = -1;     ///< Split feature index (internal nodes only).
  double threshold = 0.0;   ///< Rows with value < threshold go left.
  bool default_left = true; ///< Direction taken when the feature is missing.
  double value = 0.0;       ///< Leaf weight (leaves only).
  double gain = 0.0;        ///< Split gain (internal nodes; for importance).
  double cover = 0.0;       ///< Sum of hessians routed through this node.

  bool IsLeaf() const { return left < 0; }
};

/// A single regression tree of the boosted ensemble. Navigation rule:
/// `x[feature] < threshold` goes left, otherwise right; a missing (NaN)
/// value follows `default_left` — the learned default direction, which is
/// how the booster consumes sparse/missing clinical data without imputation.
class RegressionTree {
 public:
  /// Creates a tree consisting of a single leaf (the root).
  RegressionTree();

  /// Rebuilds a tree from a node array (deserialization); callers should
  /// Validate() the result. Requires at least one node.
  static RegressionTree FromNodes(std::vector<TreeNode> nodes);

  /// Number of nodes (internal + leaves).
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  const TreeNode& node(int i) const { return nodes_[static_cast<size_t>(i)]; }
  TreeNode* mutable_node(int i) { return &nodes_[static_cast<size_t>(i)]; }

  /// Converts leaf `node_id` into an internal node with two fresh leaf
  /// children; returns {left_id, right_id}. Precondition: node is a leaf.
  std::pair<int, int> Split(int node_id, int feature, double threshold,
                            bool default_left, double gain);

  /// Routes a feature row (array of at least the tree's max feature index
  /// + 1 doubles; NaN = missing) to its leaf and returns the leaf index.
  int GetLeaf(const double* row) const;

  /// Leaf weight reached by `row`.
  double Predict(const double* row) const;

  /// Structural validation: child links in range, thresholds finite,
  /// covers non-negative and children's covers not exceeding the parent's.
  /// With `num_features >= 0`, additionally requires every internal
  /// node's split feature to be < num_features — mandatory when the node
  /// array came from disk, since Predict indexes the input row by the
  /// node's feature without a bounds check.
  Status Validate(int64_t num_features = -1) const;

 private:
  std::vector<TreeNode> nodes_;
};

/// Serializes one node as the 8-field space-separated line shared by the
/// model text formats (children, feature, hex-encoded threshold/value/
/// gain/cover, default direction).
std::string TreeNodeToText(const TreeNode& node);

/// Parses a line produced by TreeNodeToText.
Result<TreeNode> TreeNodeFromText(const std::string& line);

}  // namespace mysawh::gbt

#endif  // MYSAWH_GBT_TREE_H_
