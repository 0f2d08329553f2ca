#include "explain/tree_shap.h"

#include <algorithm>
#include <cmath>

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

// ---------------------------------------------------------------------------
// Batch pattern tables.
//
// For a fixed tree, everything the recursion computes at a leaf is a
// function of ONE per-row input: the direction the row takes at each of the
// leaf's ancestors. The split fractions, the leaf value, the unique-path
// feature set — all row-independent; the row only decides which child is
// "hot" (one_fraction 1) at each ancestor. A leaf at depth d therefore has
// exactly 2^d possible addend vectors. When a batch has more rows than
// patterns, running the recursion per row repeats the same arithmetic, so
// ShapBatch instead enumerates every (leaf, pattern) pair once per batch,
// storing each addend `w * (one_fraction - zero_fraction) * value` the
// recursion would produce, and each row replays a table-lookup walk.
//
// Bit-identity with the per-row recursion holds because (a) the stored
// addends come out of the SAME recursion code, just driven by an enumerated
// direction bit instead of the row's bin comparison, and (b) the replay
// adds them to phi in the SAME order the recursion would: trees ascending,
// leaves in hot-child-first DFS order within a tree, path positions
// ascending within a leaf.
// ---------------------------------------------------------------------------

/// Ancestor direction patterns wider than this fall back to the per-row
/// recursion (2^26 patterns on one leaf is already far past the point where
/// the table could pay for itself, and the cap keeps the pattern index well
/// inside uint32 and the replay stack bounded).
constexpr int kPatternDepthCap = 26;
/// Upper bound on total table payload before falling back.
constexpr double kPatternTableMaxBytes = 64.0 * 1024 * 1024;

/// One leaf's slice of a tree's pattern table.
struct PatternLeaf {
  int32_t depth = -1;   ///< Ancestors on the root path = pattern bits.
  int32_t unique = 0;   ///< Unique path features = addends per pattern.
  int32_t feat_off = 0;  ///< Start of the phi indices in `feats`.
  int64_t val_off = 0;   ///< Addends at val_off + pattern * unique.
};

/// Precomputed SHAP addends of every (leaf, ancestor-pattern) pair of one
/// tree. Bit i of a pattern is 1 when the row goes left at the i-th
/// internal node (root first) of the leaf's path.
struct PatternTable {
  std::vector<PatternLeaf> leaves;  ///< Indexed by leaf id - leaf_begin.
  std::vector<int32_t> feats;
  std::vector<double> vals;
  int32_t leaf_begin = 0;
};

/// Sizes both batch strategies: the per-row recursion visits every leaf
/// once per row, the table builder visits leaf l 2^depth(l) times. Doubles
/// to keep pathological depths finite.
void CountPatternVisits(const gbt::FlatForest& flat, int32_t ref, int depth,
                        int* deepest, double* pattern_visits) {
  if (ref < 0) {
    *deepest = std::max(*deepest, depth);
    *pattern_visits += std::ldexp(1.0, depth);
    return;
  }
  CountPatternVisits(flat, flat.left(ref), depth + 1, deepest,
                     pattern_visits);
  CountPatternVisits(flat, flat.right(ref), depth + 1, deepest,
                     pattern_visits);
}

/// FlatShapRecurse (condition 0) with the row's direction bit replaced by an
/// enumeration
/// of both directions: at every internal node the recursion forks on
/// b = "row goes left here", so each leaf is reached once per ancestor
/// pattern, carrying exactly the path state the per-row recursion would
/// have for a row with those directions. At the leaf the addends are
/// stored instead of added.
void BuildPatternsRecurse(const gbt::FlatForest& flat, int32_t ref,
                          int unique_depth, PathElement* parent_unique_path,
                          double parent_zero_fraction,
                          double parent_one_fraction,
                          int parent_feature_index, uint32_t pattern,
                          int depth, PatternTable* tbl) {
  PathElement* unique_path = parent_unique_path + unique_depth + 1;
  std::copy(parent_unique_path, parent_unique_path + unique_depth + 1,
            unique_path);
  ExtendPath(unique_path, unique_depth, parent_zero_fraction,
             parent_one_fraction, parent_feature_index);

  if (ref < 0) {
    const double value = flat.leaf_value(~ref);
    PatternLeaf& lt = tbl->leaves[static_cast<size_t>(~ref - tbl->leaf_begin)];
    if (lt.depth < 0) {  // First pattern to reach this leaf sizes its slice.
      lt.depth = depth;
      lt.unique = unique_depth;
      lt.feat_off = static_cast<int32_t>(tbl->feats.size());
      for (int i = 1; i <= unique_depth; ++i) {
        tbl->feats.push_back(unique_path[i].feature_index);
      }
      lt.val_off = static_cast<int64_t>(tbl->vals.size());
      tbl->vals.resize(tbl->vals.size() +
                       (size_t{1} << depth) * static_cast<size_t>(unique_depth));
    }
    double* slot = tbl->vals.data() + lt.val_off +
                   static_cast<int64_t>(pattern) * lt.unique;
    for (int i = 1; i <= unique_depth; ++i) {
      const double w = UnwoundPathSum(unique_path, unique_depth, i);
      const PathElement& el = unique_path[i];
      slot[i - 1] = w * (el.one_fraction - el.zero_fraction) * value;
    }
    return;
  }

  const int feature = flat.feature(ref);
  double incoming_zero_fraction = 1.0;
  double incoming_one_fraction = 1.0;
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

  for (uint32_t b = 0; b < 2; ++b) {
    const bool left_hot = b == 1;
    const int32_t hot = left_hot ? flat.left(ref) : flat.right(ref);
    const int32_t cold = left_hot ? flat.right(ref) : flat.left(ref);
    const double hot_zero_fraction =
        left_hot ? flat.left_fraction(ref) : flat.right_fraction(ref);
    const double cold_zero_fraction =
        left_hot ? flat.right_fraction(ref) : flat.left_fraction(ref);
    const uint32_t child_pattern = pattern | (b << depth);
    BuildPatternsRecurse(flat, hot, unique_depth + 1, unique_path,
                         hot_zero_fraction * incoming_zero_fraction,
                         incoming_one_fraction, feature, child_pattern,
                         depth + 1, tbl);
    BuildPatternsRecurse(flat, cold, unique_depth + 1, unique_path,
                         cold_zero_fraction * incoming_zero_fraction, 0.0,
                         feature, child_pattern, depth + 1, tbl);
  }
}

std::vector<PatternTable> BuildPatternTables(const gbt::FlatForest& flat) {
  std::vector<PatternTable> tables(static_cast<size_t>(flat.num_trees()));
  std::vector<PathElement> workspace(FlatWorkspaceSize(flat));
  for (int t = 0; t < flat.num_trees(); ++t) {
    PatternTable& tbl = tables[static_cast<size_t>(t)];
    tbl.leaf_begin = flat.tree_leaf_begin(t);
    tbl.leaves.assign(
        static_cast<size_t>(flat.tree_leaf_end(t) - tbl.leaf_begin),
        PatternLeaf{});
    BuildPatternsRecurse(flat, flat.root(t), 0, workspace.data(), 1.0, 1.0,
                         -1, 0, 0, &tbl);
  }
  return tables;
}

/// One row x one tree from the table: a DFS over the internal nodes
/// computes the row's direction bits (the pattern prefix) and adds each
/// leaf's precomputed addends. The cold child is pushed first so the hot
/// child pops first — the recursion's hot-then-cold leaf order, which
/// keeps the phi accumulation order (and so the rounding) identical.
void PatternReplayTree(const gbt::FlatForest& flat, const PatternTable& tbl,
                       const uint8_t* bins, int32_t root, double* phi) {
  struct Frame {
    int32_t ref;
    uint32_t pattern;
    int32_t depth;
  };
  Frame stack[kPatternDepthCap + 2];
  int top = 0;
  stack[top++] = {root, 0, 0};
  while (top > 0) {
    const Frame e = stack[--top];
    if (e.ref < 0) {
      const PatternLeaf& lt =
          tbl.leaves[static_cast<size_t>(~e.ref - tbl.leaf_begin)];
      const double* v = tbl.vals.data() + lt.val_off +
                        static_cast<int64_t>(e.pattern) * lt.unique;
      const int32_t* ff = tbl.feats.data() + lt.feat_off;
      for (int32_t i = 0; i < lt.unique; ++i) phi[ff[i]] += v[i];
      continue;
    }
    const uint8_t bin = bins[flat.feature(e.ref)];
    const bool go_left = bin == gbt::kMissingBin
                             ? flat.default_left(e.ref)
                             : bin < flat.bin_threshold(e.ref);
    const uint32_t p =
        e.pattern | (static_cast<uint32_t>(go_left) << e.depth);
    const int32_t d = e.depth + 1;
    if (go_left) {
      stack[top++] = {flat.right(e.ref), p, d};
      stack[top++] = {flat.left(e.ref), p, d};
    } else {
      stack[top++] = {flat.left(e.ref), p, d};
      stack[top++] = {flat.right(e.ref), p, d};
    }
  }
}

void PatternShapRow(const gbt::FlatForest& flat,
                    const std::vector<PatternTable>& tables,
                    const uint8_t* bins, double* phi) {
  for (int t = 0; t < flat.num_trees(); ++t) {
    PatternReplayTree(flat, tables[static_cast<size_t>(t)], bins,
                      flat.root(t), phi);
  }
}

/// Tables win when the batch repeats more leaf visits than the builder
/// spends enumerating patterns (with a 2x margin for the replay's own
/// cost), and the table fits the depth and memory caps.
bool UsePatternTables(const gbt::FlatForest& flat, int64_t rows) {
  int deepest = 0;
  double pattern_visits = 0.0;
  for (int t = 0; t < flat.num_trees(); ++t) {
    CountPatternVisits(flat, flat.root(t), 0, &deepest, &pattern_visits);
  }
  if (deepest > kPatternDepthCap) return false;
  // Addends per pattern <= depth, so this bounds the payload from counts
  // already in hand.
  if (pattern_visits * deepest * 8 > kPatternTableMaxBytes) return false;
  const double direct_visits =
      static_cast<double>(rows) * static_cast<double>(flat.num_leaves());
  return 2.0 * pattern_visits <= direct_visits;
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
  // Large batches amortize the recursion itself: precompute every
  // (leaf, ancestor-pattern) addend once, then replay per row (bit-identical
  // — see the pattern-table block above). Small batches would pay more
  // building the tables than the recursion costs, so they keep the
  // per-row path.
  const bool tables_pay = UsePatternTables(*flat, data.num_rows());
  span.Arg("pattern_tables", tables_pay ? 1 : 0);
  if (tables_pay) {
    static Counter* const table_rows_counter =
        MetricsRegistry::Global().GetCounter("shap.batch_table_rows");
    table_rows_counter->Increment(data.num_rows());
    const std::vector<PatternTable> tables = BuildPatternTables(*flat);
    workers.ParallelFor(data.num_rows(), [&](int64_t r) {
      std::vector<double> phi(m, 0.0);
      PatternShapRow(*flat, tables, bins.data() + static_cast<size_t>(r) * m,
                     phi.data());
      out[static_cast<size_t>(r)] = std::move(phi);
    });
  } else {
    workers.ParallelFor(data.num_rows(), [&](int64_t r) {
      std::vector<PathElement> workspace(workspace_size);
      std::vector<double> phi(m, 0.0);
      FlatShapRow(*flat, bins.data() + static_cast<size_t>(r) * m,
                  workspace.data(), phi.data(), /*condition=*/0,
                  /*condition_feature=*/-1);
      out[static_cast<size_t>(r)] = std::move(phi);
    });
  }
  // Audit hook: on the calling thread after the parallel loop, so
  // recording can never perturb the attributions it logs.
  if (core::AuditEnabled()) {
    core::AuditLog::Global().RecordShapBatch(model_->fingerprint(), data, out);
  }
  return out;
}

}  // namespace mysawh::explain
