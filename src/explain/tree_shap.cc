#include "explain/tree_shap.h"

#include <algorithm>

#include "core/audit_log.h"
#include "gbt/flat_forest.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace mysawh::explain {

namespace {

using gbt::RegressionTree;
using gbt::TreeNode;

/// One step of the feature path maintained by the TreeSHAP recursion.
struct PathElement {
  int feature_index = -1;
  double zero_fraction = 0.0;  ///< Fraction of "feature absent" paths kept.
  double one_fraction = 0.0;   ///< 1 when x follows this split, else 0.
  double pweight = 0.0;        ///< Permutation weight of this prefix length.
};

/// Grows the path by one split, updating permutation weights.
void ExtendPath(PathElement* path, int unique_depth, double zero_fraction,
                double one_fraction, int feature_index) {
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
void UnwindPath(PathElement* path, int unique_depth, int path_index) {
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
double UnwoundPathSum(const PathElement* path, int unique_depth,
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

double SafeCover(double cover) { return std::max(cover, 1e-30); }

/// Core recursion over the compiled flat forest: walks every root-to-leaf
/// path once, maintaining the set of unique features on the path with their
/// zero/one fractions. Child refs are leaf-tagged, the row's quantized bins
/// pick the hot child, and the cover fractions were divided at compile
/// time.
///
/// `condition` extends the plain algorithm for interaction values
/// (Lundberg et al., Algorithm 3): 0 computes ordinary SHAP values;
/// +1 conditions on `condition_feature` being present (known), -1 on it
/// being absent — the conditioned feature is kept off the path and its
/// branch weights flow through `condition_fraction` instead.
void FlatShapRecurse(const gbt::FlatForest& flat, const uint8_t* bins,
                     double* phi, int32_t ref, int unique_depth,
                     PathElement* parent_unique_path,
                     double parent_zero_fraction, double parent_one_fraction,
                     int parent_feature_index, int condition,
                     int condition_feature, double condition_fraction) {
  if (condition_fraction == 0.0) return;

  PathElement* unique_path = parent_unique_path + unique_depth + 1;
  std::copy(parent_unique_path, parent_unique_path + unique_depth + 1,
            unique_path);
  if (condition == 0 || condition_feature != parent_feature_index) {
    ExtendPath(unique_path, unique_depth, parent_zero_fraction,
               parent_one_fraction, parent_feature_index);
  }

  if (ref < 0) {
    const double value = flat.leaf_value(~ref);
    for (int i = 1; i <= unique_depth; ++i) {
      const double w = UnwoundPathSum(unique_path, unique_depth, i);
      const PathElement& el = unique_path[i];
      phi[el.feature_index] += w * (el.one_fraction - el.zero_fraction) *
                               value * condition_fraction;
    }
    return;
  }

  const int feature = flat.feature(ref);
  const uint8_t bin = bins[feature];
  const bool left_hot = bin == gbt::kMissingBin
                            ? flat.default_left(ref)
                            : bin < flat.bin_threshold(ref);
  const int32_t hot = left_hot ? flat.left(ref) : flat.right(ref);
  const int32_t cold = left_hot ? flat.right(ref) : flat.left(ref);
  const double hot_zero_fraction =
      left_hot ? flat.left_fraction(ref) : flat.right_fraction(ref);
  const double cold_zero_fraction =
      left_hot ? flat.right_fraction(ref) : flat.left_fraction(ref);
  double incoming_zero_fraction = 1.0;
  double incoming_one_fraction = 1.0;

  // If this feature is already on the path, undo its previous contribution
  // and combine the fractions (each unique feature appears once).
  int path_index = 0;
  for (; path_index <= unique_depth; ++path_index) {
    if (unique_path[path_index].feature_index == feature) break;
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
  if (condition > 0 && feature == condition_feature) {
    cold_condition_fraction = 0.0;
    unique_depth -= 1;
  } else if (condition < 0 && feature == condition_feature) {
    hot_condition_fraction *= hot_zero_fraction;
    cold_condition_fraction *= cold_zero_fraction;
    unique_depth -= 1;
  }

  FlatShapRecurse(flat, bins, phi, hot, unique_depth + 1, unique_path,
                  hot_zero_fraction * incoming_zero_fraction,
                  incoming_one_fraction, feature, condition,
                  condition_feature, hot_condition_fraction);
  FlatShapRecurse(flat, bins, phi, cold, unique_depth + 1, unique_path,
                  cold_zero_fraction * incoming_zero_fraction, 0.0, feature,
                  condition, condition_feature, cold_condition_fraction);
}

/// Workspace size for any tree of the flat forest (the forest-wide depth
/// bounds every per-tree recursion; extra slots are never read).
size_t FlatWorkspaceSize(const gbt::FlatForest& flat) {
  const int maxd = flat.max_depth() + 2;
  return static_cast<size_t>((maxd * (maxd + 1)) / 2 + maxd + 1);
}

/// One row's (possibly conditioned) attributions over every tree of the
/// flat forest. `workspace` must hold FlatWorkspaceSize(flat) elements; it
/// is reusable across rows and trees because every slot the recursion
/// reads was written earlier in the same recursion (the root ExtendPath
/// fully initializes element 0).
void FlatShapRow(const gbt::FlatForest& flat, const uint8_t* bins,
                 PathElement* workspace, double* phi, int condition,
                 int condition_feature) {
  for (int t = 0; t < flat.num_trees(); ++t) {
    FlatShapRecurse(flat, bins, phi, flat.root(t), 0, workspace, 1.0, 1.0,
                    -1, condition, condition_feature, 1.0);
  }
}

/// Cover-weighted mean leaf value of one tree.
double TreeExpectedValue(const RegressionTree& tree, int node_index) {
  const TreeNode& node = tree.node(node_index);
  if (node.IsLeaf()) return node.value;
  const double cover = SafeCover(node.cover);
  const double wl = tree.node(node.left).cover / cover;
  const double wr = tree.node(node.right).cover / cover;
  return wl * TreeExpectedValue(tree, node.left) +
         wr * TreeExpectedValue(tree, node.right);
}

}  // namespace

TreeShap::TreeShap(const gbt::GbtModel* model) : model_(model) {
  // API contract, not input-reachable: every caller obtains the model from
  // training or a validated LoadFromFile (see the policy in util/logging.h).
  MYSAWH_CHECK(model != nullptr);
  expected_value_ = model->base_score();
  for (const auto& tree : model->trees()) {
    expected_value_ += TreeExpectedValue(tree, 0);
  }
}

std::vector<double> TreeShap::Shap(const double* row) const {
  const gbt::FlatForest& flat = *model_->flat_forest();
  std::vector<uint8_t> bins(static_cast<size_t>(flat.num_features()));
  flat.BinRow(row, bins.data());
  std::vector<PathElement> workspace(FlatWorkspaceSize(flat));
  std::vector<double> phi(bins.size(), 0.0);
  FlatShapRow(flat, bins.data(), workspace.data(), phi.data(),
              /*condition=*/0, /*condition_feature=*/-1);
  return phi;
}

std::vector<double> TreeShap::ShapInteractions(const double* row) const {
  const gbt::FlatForest& flat = *model_->flat_forest();
  const auto m = static_cast<size_t>(flat.num_features());
  std::vector<uint8_t> bins(m);
  flat.BinRow(row, bins.data());
  std::vector<PathElement> workspace(FlatWorkspaceSize(flat));
  std::vector<double> interactions(m * m, 0.0);
  std::vector<double> diag(m, 0.0);  // main effects start at the full values
  FlatShapRow(flat, bins.data(), workspace.data(), diag.data(),
              /*condition=*/0, /*condition_feature=*/-1);
  std::vector<double> phi_on(m), phi_off(m);
  for (size_t i = 0; i < m; ++i) {
    std::fill(phi_on.begin(), phi_on.end(), 0.0);
    std::fill(phi_off.begin(), phi_off.end(), 0.0);
    FlatShapRow(flat, bins.data(), workspace.data(), phi_on.data(),
                /*condition=*/1, static_cast<int>(i));
    FlatShapRow(flat, bins.data(), workspace.data(), phi_off.data(),
                /*condition=*/-1, static_cast<int>(i));
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

Result<std::vector<std::vector<double>>> TreeShap::ShapBatch(
    const Dataset& data, ThreadPool* pool) const {
  if (data.num_features() != model_->num_features()) {
    return Status::InvalidArgument("ShapBatch: dataset width mismatch");
  }
  const gbt::FlatForest* flat = model_->flat_forest();
  TraceSpan span("shap.batch", "explain");
  span.Arg("rows", data.num_rows());
  static Counter* const rows_counter =
      MetricsRegistry::Global().GetCounter("shap.batch_rows");
  rows_counter->Increment(data.num_rows());
  // Quantize the whole batch once; each row then runs the flat recursion
  // with ONE workspace for all its trees.
  const std::vector<uint8_t> bins = flat->BinMatrix(data);
  const size_t workspace_size = FlatWorkspaceSize(*flat);
  const auto m = static_cast<size_t>(model_->num_features());
  std::vector<std::vector<double>> out(static_cast<size_t>(data.num_rows()));
  ThreadPool& workers = pool != nullptr ? *pool : DefaultPool();
  workers.ParallelFor(data.num_rows(), [&](int64_t r) {
    std::vector<PathElement> workspace(workspace_size);
    std::vector<double> phi(m, 0.0);
    FlatShapRow(*flat, bins.data() + static_cast<size_t>(r) * m,
                workspace.data(), phi.data(), /*condition=*/0,
                /*condition_feature=*/-1);
    out[static_cast<size_t>(r)] = std::move(phi);
  });
  // Audit hook: on the calling thread after the parallel loop, so
  // recording can never perturb the attributions it logs.
  if (core::AuditEnabled()) {
    core::AuditLog::Global().RecordShapBatch(model_->fingerprint(), data, out);
  }
  return out;
}

}  // namespace mysawh::explain
