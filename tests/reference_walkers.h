/// Test oracles for GBT inference. Production walks and explains a forest
/// only through its compiled flat form (gbt/flat_forest.h); these are the
/// pointer walkers over the `RegressionTree` nodes that the flat kernels
/// must match bit for bit, plus a brute-force Shapley enumeration that
/// TreeSHAP must match to rounding.

#ifndef MYSAWH_TESTS_REFERENCE_WALKERS_H_
#define MYSAWH_TESTS_REFERENCE_WALKERS_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "gbt/gbt_model.h"
#include "gbt/tree.h"

namespace mysawh::reference {

/// Raw margins of every row: base_score plus each tree's leaf, trees in
/// ascending order.
inline std::vector<double> ReferencePredictRaw(const gbt::GbtModel& model,
                                               const Dataset& data) {
  std::vector<double> out(static_cast<size_t>(data.num_rows()));
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    double raw = model.base_score();
    for (const auto& tree : model.trees()) raw += tree.Predict(data.row(r));
    out[static_cast<size_t>(r)] = raw;
  }
  return out;
}

/// Length of the longest root-to-leaf path below node `id` (a single leaf
/// has depth 0).
inline int MaxDepth(const gbt::RegressionTree& tree, int id = 0) {
  const gbt::TreeNode& node = tree.node(id);
  if (node.IsLeaf()) return 0;
  return 1 + std::max(MaxDepth(tree, node.left), MaxDepth(tree, node.right));
}

/// Number of leaves of a tree.
inline int NumLeaves(const gbt::RegressionTree& tree) {
  int count = 0;
  for (int i = 0; i < tree.num_nodes(); ++i) count += tree.node(i).IsLeaf();
  return count;
}

namespace internal {

/// One step of the feature path maintained by the TreeSHAP recursion.
struct PathElement {
  int feature_index = -1;
  double zero_fraction = 0.0;  ///< Fraction of "feature absent" paths kept.
  double one_fraction = 0.0;   ///< 1 when x follows this split, else 0.
  double pweight = 0.0;        ///< Permutation weight of this prefix length.
};

/// Grows the path by one split, updating permutation weights.
inline void ExtendPath(PathElement* path, int unique_depth,
                       double zero_fraction, double one_fraction,
                       int feature_index) {
  path[unique_depth].feature_index = feature_index;
  path[unique_depth].zero_fraction = zero_fraction;
  path[unique_depth].one_fraction = one_fraction;
  path[unique_depth].pweight = unique_depth == 0 ? 1.0 : 0.0;
  const double d = static_cast<double>(unique_depth) + 1.0;
  for (int i = unique_depth - 1; i >= 0; --i) {
    path[i + 1].pweight +=
        one_fraction * path[i].pweight * static_cast<double>(i + 1) / d;
    path[i].pweight = zero_fraction * path[i].pweight *
                      static_cast<double>(unique_depth - i) / d;
  }
}

/// Removes the element at `path_index`, restoring the weights ExtendPath
/// would have produced without it.
inline void UnwindPath(PathElement* path, int unique_depth, int path_index) {
  const double one_fraction = path[path_index].one_fraction;
  const double zero_fraction = path[path_index].zero_fraction;
  double next_one_portion = path[unique_depth].pweight;
  const double d = static_cast<double>(unique_depth) + 1.0;
  for (int i = unique_depth - 1; i >= 0; --i) {
    if (one_fraction != 0.0) {
      const double tmp = path[i].pweight;
      path[i].pweight =
          next_one_portion * d / (static_cast<double>(i + 1) * one_fraction);
      next_one_portion = tmp - path[i].pweight * zero_fraction *
                                   static_cast<double>(unique_depth - i) / d;
    } else {
      path[i].pweight = path[i].pweight * d /
                        (zero_fraction * static_cast<double>(unique_depth - i));
    }
  }
  for (int i = path_index; i < unique_depth; ++i) {
    path[i].feature_index = path[i + 1].feature_index;
    path[i].zero_fraction = path[i + 1].zero_fraction;
    path[i].one_fraction = path[i + 1].one_fraction;
  }
}

/// Total permutation weight the element at `path_index` would carry if it
/// were unwound — the w factor of the SHAP sum at a leaf.
inline double UnwoundPathSum(const PathElement* path, int unique_depth,
                             int path_index) {
  const double one_fraction = path[path_index].one_fraction;
  const double zero_fraction = path[path_index].zero_fraction;
  double next_one_portion = path[unique_depth].pweight;
  double total = 0.0;
  const double d = static_cast<double>(unique_depth) + 1.0;
  for (int i = unique_depth - 1; i >= 0; --i) {
    if (one_fraction != 0.0) {
      const double tmp =
          next_one_portion * d / (static_cast<double>(i + 1) * one_fraction);
      total += tmp;
      next_one_portion =
          path[i].pweight -
          tmp * zero_fraction * static_cast<double>(unique_depth - i) / d;
    } else {
      total += path[i].pweight /
               (zero_fraction * static_cast<double>(unique_depth - i) / d);
    }
  }
  return total;
}

inline double SafeCover(double cover) { return std::max(cover, 1e-30); }

/// Core recursion: walks every root-to-leaf path once, maintaining the set
/// of unique features on the path with their zero/one fractions.
///
/// `condition` extends the plain algorithm for interaction values
/// (Lundberg et al., Algorithm 3): 0 computes ordinary SHAP values;
/// +1 conditions on `condition_feature` being present (known), -1 on it
/// being absent — the conditioned feature is kept off the path and its
/// branch weights flow through `condition_fraction` instead.
inline void TreeShapRecurse(const gbt::RegressionTree& tree, const double* x,
                            double* phi, int node_index, int unique_depth,
                            PathElement* parent_unique_path,
                            double parent_zero_fraction,
                            double parent_one_fraction,
                            int parent_feature_index, int condition,
                            int condition_feature,
                            double condition_fraction) {
  if (condition_fraction == 0.0) return;

  PathElement* unique_path = parent_unique_path + unique_depth + 1;
  std::copy(parent_unique_path, parent_unique_path + unique_depth + 1,
            unique_path);
  if (condition == 0 || condition_feature != parent_feature_index) {
    ExtendPath(unique_path, unique_depth, parent_zero_fraction,
               parent_one_fraction, parent_feature_index);
  }

  const gbt::TreeNode& node = tree.node(node_index);
  if (node.IsLeaf()) {
    for (int i = 1; i <= unique_depth; ++i) {
      const double w = UnwoundPathSum(unique_path, unique_depth, i);
      const PathElement& el = unique_path[i];
      phi[el.feature_index] += w * (el.one_fraction - el.zero_fraction) *
                               node.value * condition_fraction;
    }
    return;
  }

  const double v = x[node.feature];
  int hot, cold;
  if (std::isnan(v)) {
    hot = node.default_left ? node.left : node.right;
    cold = node.default_left ? node.right : node.left;
  } else if (v < node.threshold) {
    hot = node.left;
    cold = node.right;
  } else {
    hot = node.right;
    cold = node.left;
  }
  const double node_cover = SafeCover(node.cover);
  const double hot_zero_fraction = tree.node(hot).cover / node_cover;
  const double cold_zero_fraction = tree.node(cold).cover / node_cover;
  double incoming_zero_fraction = 1.0;
  double incoming_one_fraction = 1.0;

  // If this feature is already on the path, undo its previous contribution
  // and combine the fractions (each unique feature appears once).
  int path_index = 0;
  for (; path_index <= unique_depth; ++path_index) {
    if (unique_path[path_index].feature_index == node.feature) break;
  }
  if (path_index != unique_depth + 1) {
    incoming_zero_fraction = unique_path[path_index].zero_fraction;
    incoming_one_fraction = unique_path[path_index].one_fraction;
    UnwindPath(unique_path, unique_depth, path_index);
    unique_depth -= 1;
  }

  // Split the condition weight between the children when this node tests
  // the conditioned feature (which then stays off the path).
  double hot_condition_fraction = condition_fraction;
  double cold_condition_fraction = condition_fraction;
  if (condition > 0 && node.feature == condition_feature) {
    cold_condition_fraction = 0.0;
    unique_depth -= 1;
  } else if (condition < 0 && node.feature == condition_feature) {
    hot_condition_fraction *= hot_zero_fraction;
    cold_condition_fraction *= cold_zero_fraction;
    unique_depth -= 1;
  }

  TreeShapRecurse(tree, x, phi, hot, unique_depth + 1, unique_path,
                  hot_zero_fraction * incoming_zero_fraction,
                  incoming_one_fraction, node.feature, condition,
                  condition_feature, hot_condition_fraction);
  TreeShapRecurse(tree, x, phi, cold, unique_depth + 1, unique_path,
                  cold_zero_fraction * incoming_zero_fraction, 0.0,
                  node.feature, condition, condition_feature,
                  cold_condition_fraction);
}

/// Accumulates one tree's (possibly conditioned) SHAP values into `phi`,
/// with a fresh workspace sized for the tree.
inline void AccumulateTreeShap(const gbt::RegressionTree& tree,
                               const double* x, double* phi, int condition,
                               int condition_feature) {
  const int maxd = MaxDepth(tree) + 2;
  std::vector<PathElement> workspace(
      static_cast<size_t>((maxd * (maxd + 1)) / 2 + maxd + 1));
  TreeShapRecurse(tree, x, phi, 0, 0, workspace.data(), 1.0, 1.0, -1,
                  condition, condition_feature, 1.0);
}

/// Path-dependent expectation of one subtree given that the features in
/// `present` (bit f set) are known: a split on a known feature follows x
/// (NaN takes the default direction), any other split averages its
/// children weighted by child cover / SafeCover(node cover).
inline double SubsetValue(const gbt::RegressionTree& tree, int node_index,
                          const double* x, uint32_t present) {
  const gbt::TreeNode& node = tree.node(node_index);
  if (node.IsLeaf()) return node.value;
  if ((present >> node.feature) & 1u) {
    const double v = x[node.feature];
    const bool left =
        std::isnan(v) ? node.default_left : v < node.threshold;
    return SubsetValue(tree, left ? node.left : node.right, x, present);
  }
  const double cover = SafeCover(node.cover);
  return tree.node(node.left).cover / cover *
             SubsetValue(tree, node.left, x, present) +
         tree.node(node.right).cover / cover *
             SubsetValue(tree, node.right, x, present);
}

/// v(S) for every subset S of the model's features (index = bitmask), the
/// value function TreeSHAP's path-dependent algorithm explains. Summed over
/// the trees; the base score cancels in every Shapley difference.
inline std::vector<double> SubsetValues(const gbt::GbtModel& model,
                                        const double* x) {
  const auto m = static_cast<uint32_t>(model.num_features());
  std::vector<double> v(size_t{1} << m, 0.0);
  for (uint32_t s = 0; s < v.size(); ++s) {
    for (const auto& tree : model.trees()) v[s] += SubsetValue(tree, 0, x, s);
  }
  return v;
}

inline double Factorial(int n) {
  double f = 1.0;
  for (int i = 2; i <= n; ++i) f *= i;
  return f;
}

}  // namespace internal

/// SHAP values of one row from the pointer recursion over the trees.
inline std::vector<double> ReferenceShap(const gbt::GbtModel& model,
                                         const double* row) {
  std::vector<double> phi(static_cast<size_t>(model.num_features()), 0.0);
  for (const auto& tree : model.trees()) {
    internal::AccumulateTreeShap(tree, row, phi.data(), /*condition=*/0,
                                 /*condition_feature=*/-1);
  }
  return phi;
}

/// SHAP interaction values of one row (M x M, row-major) from the
/// conditioned pointer recursion over the trees.
inline std::vector<double> ReferenceShapInteractions(
    const gbt::GbtModel& model, const double* row) {
  const auto m = static_cast<size_t>(model.num_features());
  std::vector<double> interactions(m * m, 0.0);
  const std::vector<double> phi = ReferenceShap(model, row);
  std::vector<double> diag = phi;  // main effects start at the full values
  std::vector<double> phi_on(m), phi_off(m);
  for (size_t i = 0; i < m; ++i) {
    std::fill(phi_on.begin(), phi_on.end(), 0.0);
    std::fill(phi_off.begin(), phi_off.end(), 0.0);
    for (const auto& tree : model.trees()) {
      internal::AccumulateTreeShap(tree, row, phi_on.data(), /*condition=*/1,
                                   static_cast<int>(i));
      internal::AccumulateTreeShap(tree, row, phi_off.data(),
                                   /*condition=*/-1, static_cast<int>(i));
    }
    for (size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      const double pairwise = (phi_on[j] - phi_off[j]) / 2.0;
      interactions[i * m + j] = pairwise;
      diag[i] -= pairwise;
    }
  }
  for (size_t i = 0; i < m; ++i) interactions[i * m + i] = diag[i];
  return interactions;
}

/// Shapley values of the path-dependent value function by enumerating every
/// subset of the (at most a handful of) features:
///   phi_i = sum_{S not containing i} |S|! (M - |S| - 1)! / M! *
///           (v(S + i) - v(S)).
inline std::vector<double> BruteForceShap(const gbt::GbtModel& model,
                                          const double* row) {
  const int m = static_cast<int>(model.num_features());
  const std::vector<double> v = internal::SubsetValues(model, row);
  std::vector<double> phi(static_cast<size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) {
    const uint32_t bit = 1u << i;
    for (uint32_t s = 0; s < v.size(); ++s) {
      if (s & bit) continue;
      const int size = std::popcount(s);
      const double weight = internal::Factorial(size) *
                            internal::Factorial(m - size - 1) /
                            internal::Factorial(m);
      phi[static_cast<size_t>(i)] += weight * (v[s | bit] - v[s]);
    }
  }
  return phi;
}

/// Shapley interaction index of the same value function (M x M,
/// row-major): for i != j,
///   phi_ij = sum_{S without i, j} |S|! (M - |S| - 2)! / (2 (M - 1)!) *
///            (v(S + i + j) - v(S + i) - v(S + j) + v(S)),
/// and the diagonal is phi_i - sum_{j != i} phi_ij.
inline std::vector<double> BruteForceShapInteractions(
    const gbt::GbtModel& model, const double* row) {
  const int m = static_cast<int>(model.num_features());
  const std::vector<double> v = internal::SubsetValues(model, row);
  const std::vector<double> phi = BruteForceShap(model, row);
  const auto mm = static_cast<size_t>(m);
  std::vector<double> out(mm * mm, 0.0);
  for (int i = 0; i < m; ++i) {
    double off_diagonal = 0.0;
    for (int j = 0; j < m; ++j) {
      if (j == i) continue;
      const uint32_t bi = 1u << i;
      const uint32_t bj = 1u << j;
      double sum = 0.0;
      for (uint32_t s = 0; s < v.size(); ++s) {
        if (s & (bi | bj)) continue;
        const int size = std::popcount(s);
        const double weight = internal::Factorial(size) *
                              internal::Factorial(m - size - 2) /
                              (2.0 * internal::Factorial(m - 1));
        sum += weight * (v[s | bi | bj] - v[s | bi] - v[s | bj] + v[s]);
      }
      out[static_cast<size_t>(i) * mm + static_cast<size_t>(j)] = sum;
      off_diagonal += sum;
    }
    out[static_cast<size_t>(i) * mm + static_cast<size_t>(i)] =
        phi[static_cast<size_t>(i)] - off_diagonal;
  }
  return out;
}

}  // namespace mysawh::reference

#endif  // MYSAWH_TESTS_REFERENCE_WALKERS_H_
