#include "gbt/tree.h"

#include <cmath>
#include <sstream>

#include "util/serialization.h"
#include "util/string_util.h"

namespace mysawh::gbt {

RegressionTree::RegressionTree() { nodes_.emplace_back(); }

RegressionTree RegressionTree::FromNodes(std::vector<TreeNode> nodes) {
  RegressionTree tree;
  if (!nodes.empty()) tree.nodes_ = std::move(nodes);
  return tree;
}

std::pair<int, int> RegressionTree::Split(int node_id, int feature,
                                          double threshold, bool default_left,
                                          double gain) {
  const int left_id = static_cast<int>(nodes_.size());
  const int right_id = left_id + 1;
  nodes_.emplace_back();
  nodes_.emplace_back();
  TreeNode& node = nodes_[static_cast<size_t>(node_id)];
  node.left = left_id;
  node.right = right_id;
  node.feature = feature;
  node.threshold = threshold;
  node.default_left = default_left;
  node.gain = gain;
  node.value = 0.0;
  return {left_id, right_id};
}

int RegressionTree::GetLeaf(const double* row) const {
  int id = 0;
  while (!nodes_[static_cast<size_t>(id)].IsLeaf()) {
    const TreeNode& n = nodes_[static_cast<size_t>(id)];
    const double v = row[n.feature];
    if (std::isnan(v)) {
      id = n.default_left ? n.left : n.right;
    } else {
      id = v < n.threshold ? n.left : n.right;
    }
  }
  return id;
}

double RegressionTree::Predict(const double* row) const {
  return nodes_[static_cast<size_t>(GetLeaf(row))].value;
}

Status RegressionTree::Validate(int64_t num_features) const {
  if (nodes_.empty()) return Status::Internal("tree has no nodes");
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const TreeNode& n = nodes_[i];
    if (n.IsLeaf()) {
      if (n.right >= 0) {
        return Status::Internal("leaf with right child at node " +
                                std::to_string(i));
      }
      continue;
    }
    if (n.left <= static_cast<int32_t>(i) || n.right <= static_cast<int32_t>(i) ||
        n.left >= static_cast<int32_t>(nodes_.size()) ||
        n.right >= static_cast<int32_t>(nodes_.size())) {
      return Status::Internal("child link out of range at node " +
                              std::to_string(i));
    }
    if (n.feature < 0 ||
        (num_features >= 0 && n.feature >= num_features)) {
      return Status::Internal("split feature out of range at node " +
                              std::to_string(i));
    }
    if (!std::isfinite(n.threshold)) {
      return Status::Internal("non-finite threshold at node " +
                              std::to_string(i));
    }
    if (n.cover < 0) {
      return Status::Internal("negative cover at node " + std::to_string(i));
    }
    const double child_cover = nodes_[static_cast<size_t>(n.left)].cover +
                               nodes_[static_cast<size_t>(n.right)].cover;
    if (child_cover > n.cover + 1e-6 * (1.0 + n.cover)) {
      return Status::Internal("children cover exceeds parent at node " +
                              std::to_string(i));
    }
  }
  return Status::Ok();
}

std::string TreeNodeToText(const TreeNode& node) {
  std::ostringstream os;
  os << node.left << " " << node.right << " " << node.feature << " "
     << EncodeDouble(node.threshold) << " " << (node.default_left ? 1 : 0)
     << " " << EncodeDouble(node.value) << " " << EncodeDouble(node.gain)
     << " " << EncodeDouble(node.cover);
  return os.str();
}

Result<TreeNode> TreeNodeFromText(const std::string& line) {
  const auto p = Split(line, ' ');
  if (p.size() != 8) {
    return Status::InvalidArgument("bad node line: " + line);
  }
  TreeNode n;
  MYSAWH_ASSIGN_OR_RETURN(int64_t left, ParseInt64(p[0]));
  MYSAWH_ASSIGN_OR_RETURN(int64_t right, ParseInt64(p[1]));
  MYSAWH_ASSIGN_OR_RETURN(int64_t feature, ParseInt64(p[2]));
  for (const int64_t field : {left, right, feature}) {
    if (field < INT32_MIN || field > INT32_MAX) {
      return Status::InvalidArgument("node field outside int32: " + line);
    }
  }
  n.left = static_cast<int32_t>(left);
  n.right = static_cast<int32_t>(right);
  n.feature = static_cast<int32_t>(feature);
  MYSAWH_ASSIGN_OR_RETURN(n.threshold, DecodeDouble(p[3]));
  MYSAWH_ASSIGN_OR_RETURN(int64_t dl, ParseInt64(p[4]));
  n.default_left = dl != 0;
  MYSAWH_ASSIGN_OR_RETURN(n.value, DecodeDouble(p[5]));
  MYSAWH_ASSIGN_OR_RETURN(n.gain, DecodeDouble(p[6]));
  MYSAWH_ASSIGN_OR_RETURN(n.cover, DecodeDouble(p[7]));
  return n;
}

}  // namespace mysawh::gbt
