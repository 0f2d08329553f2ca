#include "gbt/flat_forest.h"

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <limits>

#include "util/metrics.h"
#include "util/resource_stats.h"
#include "util/trace.h"

namespace mysawh::gbt {

namespace {

/// Cover floor of the TreeSHAP recursion (explain/tree_shap.cc SafeCover).
/// The compile-time fractions must divide by exactly the floor the pointer
/// recursion of the test oracle divides by per visit, or the attributions
/// would drift from its bits.
double SafeCover(double cover) { return std::max(cover, 1e-30); }

/// Widest per-feature cut array the uint8 bin encoding can address: bins
/// run 0..254 and kMissingBin (255) is reserved for NaN.
constexpr int kMaxCutsPerFeature = 254;

/// log2(kFlatPredictBlock): the walk step addresses the column panel as
/// bins_cm[(feature << kBlockShift) + lane_row].
constexpr int kBlockShift = 6;
static_assert(kFlatPredictBlock == (int64_t{1} << kBlockShift),
              "panel addressing assumes a power-of-two block");

}  // namespace

Result<FlatForest> FlatForest::Compile(
    const std::vector<RegressionTree>& trees, int64_t num_features) {
  TraceSpan span("gbt.flat.compile", "gbt");
  if (num_features < 0 || num_features > kFlatMaxFeatures) {
    return Status::InvalidArgument(
        "flat compile: feature space width " + std::to_string(num_features) +
        " exceeds the int16 node encoding (max " +
        std::to_string(kFlatMaxFeatures) + ")");
  }
  FlatForest flat;
  flat.num_features_ = num_features;

  // Pass 1: the distinct split thresholds of every feature become its cut
  // array. For freshly trained models these are a subset of the BuildBinned
  // cuts the splits were chosen from; for deserialized or hand-built trees
  // they are whatever thresholds the trees carry — the equivalence
  // bin(v) < bin_threshold  <=>  v < threshold holds either way.
  std::vector<std::vector<double>> cuts(static_cast<size_t>(num_features));
  int64_t total_internal = 0;
  int64_t total_leaves = 0;
  for (const auto& tree : trees) {
    // Structural validity (finite thresholds, in-range features) is the
    // input contract of every kernel below; re-checking here keeps a bad
    // caller from compiling an out-of-bounds memory accessor.
    MYSAWH_RETURN_NOT_OK(tree.Validate(num_features));
    for (int i = 0; i < tree.num_nodes(); ++i) {
      const TreeNode& n = tree.node(i);
      if (n.IsLeaf()) {
        ++total_leaves;
      } else {
        ++total_internal;
        cuts[static_cast<size_t>(n.feature)].push_back(n.threshold);
      }
    }
  }
  if (total_internal > INT32_MAX || total_leaves > INT32_MAX) {
    return Status::InvalidArgument("flat compile: forest too large");
  }
  flat.cut_offsets_.reserve(static_cast<size_t>(num_features) + 1);
  flat.cut_offsets_.push_back(0);
  for (auto& feature_cuts : cuts) {
    std::sort(feature_cuts.begin(), feature_cuts.end());
    feature_cuts.erase(
        std::unique(feature_cuts.begin(), feature_cuts.end()),
        feature_cuts.end());
    if (static_cast<int>(feature_cuts.size()) > kMaxCutsPerFeature) {
      return Status::InvalidArgument(
          "flat compile: " + std::to_string(feature_cuts.size()) +
          " distinct thresholds on one feature exceed the uint8 bin "
          "encoding (max " + std::to_string(kMaxCutsPerFeature) + ")");
    }
    flat.cut_values_.insert(flat.cut_values_.end(), feature_cuts.begin(),
                            feature_cuts.end());
    flat.cut_offsets_.push_back(
        static_cast<int32_t>(flat.cut_values_.size()));
  }

  // Pass 2: emit each tree's internal nodes in preorder (parents strictly
  // before children, which BuildDerivedState's backward pass needs) and its
  // leaves in reference order, all into the global SoA block.
  flat.feature_.reserve(static_cast<size_t>(total_internal));
  flat.bin_threshold_.reserve(static_cast<size_t>(total_internal));
  flat.left_.reserve(static_cast<size_t>(total_internal));
  flat.right_.reserve(static_cast<size_t>(total_internal));
  flat.left_fraction_.reserve(static_cast<size_t>(total_internal));
  flat.right_fraction_.reserve(static_cast<size_t>(total_internal));
  flat.leaf_values_.reserve(static_cast<size_t>(total_leaves));
  flat.default_left_bits_.assign(
      static_cast<size_t>((total_internal + 63) / 64), 0);
  for (const auto& tree : trees) {
    const int32_t node_base = static_cast<int32_t>(flat.feature_.size());
    // Preorder index of every internal node (explicit stack: deserialized
    // trees may be arbitrarily deep and must not overflow the C++ stack).
    std::vector<int32_t> order(static_cast<size_t>(tree.num_nodes()), -1);
    std::vector<int32_t> preorder;
    if (!tree.node(0).IsLeaf()) {
      std::vector<int32_t> stack{0};
      while (!stack.empty()) {
        const int32_t id = stack.back();
        stack.pop_back();
        order[static_cast<size_t>(id)] =
            static_cast<int32_t>(preorder.size());
        preorder.push_back(id);
        const TreeNode& n = tree.node(id);
        if (!tree.node(n.right).IsLeaf()) stack.push_back(n.right);
        if (!tree.node(n.left).IsLeaf()) stack.push_back(n.left);
      }
    }
    auto child_ref = [&](int32_t id) -> int32_t {
      const TreeNode& child = tree.node(id);
      if (!child.IsLeaf()) return node_base + order[static_cast<size_t>(id)];
      const auto leaf_index = static_cast<int32_t>(flat.leaf_values_.size());
      flat.leaf_values_.push_back(child.value);
      return ~leaf_index;
    };
    if (tree.node(0).IsLeaf()) {
      flat.roots_.push_back(child_ref(0));
    } else {
      flat.roots_.push_back(node_base);
      for (const int32_t id : preorder) {
        const TreeNode& n = tree.node(id);
        const auto flat_id = static_cast<size_t>(flat.feature_.size());
        flat.feature_.push_back(static_cast<int16_t>(n.feature));
        // The threshold was inserted into this feature's cut array above,
        // so lower_bound lands exactly on it; going left on
        // bin < (index + 1) is then exactly the node's v < threshold.
        const double* lo =
            flat.cut_values_.data() + flat.cut_offsets_[
                static_cast<size_t>(n.feature)];
        const double* hi =
            flat.cut_values_.data() + flat.cut_offsets_[
                static_cast<size_t>(n.feature) + 1];
        const auto cut_index = std::lower_bound(lo, hi, n.threshold) - lo;
        flat.bin_threshold_.push_back(static_cast<uint8_t>(cut_index + 1));
        if (n.default_left) {
          flat.default_left_bits_[flat_id >> 6] |= uint64_t{1}
                                                   << (flat_id & 63);
        }
        // Children in (left, right) order so leaf indices are deterministic.
        flat.left_.push_back(child_ref(n.left));
        flat.right_.push_back(child_ref(n.right));
        const double cover = SafeCover(n.cover);
        flat.left_fraction_.push_back(
            tree.node(n.left).cover / cover);
        flat.right_fraction_.push_back(
            tree.node(n.right).cover / cover);
      }
    }
  }

  flat.BuildDerivedState();

  span.Arg("trees", static_cast<int64_t>(trees.size()));
  span.Arg("nodes", total_internal);
  span.Arg("leaves", total_leaves);
  return flat;
}

void FlatForest::BuildDerivedState() {
  // Children come after parents in the flat block, so one backward pass
  // resolves every subtree height without recursion.
  std::vector<int32_t> height(feature_.size(), 0);
  auto ref_height = [&](int32_t ref) {
    return ref < 0 ? 0 : height[static_cast<size_t>(ref)];
  };
  for (auto i = static_cast<int64_t>(feature_.size()) - 1; i >= 0; --i) {
    height[static_cast<size_t>(i)] =
        1 + std::max(ref_height(left_[static_cast<size_t>(i)]),
                     ref_height(right_[static_cast<size_t>(i)]));
  }
  tree_depths_.clear();
  tree_depths_.reserve(roots_.size());
  max_depth_ = 0;
  for (const int32_t root : roots_) {
    tree_depths_.push_back(ref_height(root));
    max_depth_ = std::max(max_depth_, tree_depths_.back());
  }
  // Packed kernel tables over the augmented node space (internal nodes,
  // then leaf pseudo-nodes): feature (<= 32766) in the high bits, then the
  // bin threshold, then the missing direction — one 32-bit load per node
  // instead of three scattered ones. Child refs are de-tagged into
  // augmented indices and interleaved right-then-left so the taken child
  // is children_[2 * node + go_left]; a leaf pseudo-node (metadata 0,
  // go_left always 0) self-loops and adds nothing to a step's cost.
  const size_t internal = feature_.size();
  const size_t total = internal + leaf_values_.size();
  const auto augmented = [&](int32_t ref) -> int32_t {
    return ref >= 0 ? ref : static_cast<int32_t>(internal) + ~ref;
  };
  node_meta_.assign(total, 0);
  children_.resize(total * 2);
  node_value_.assign(total, 0.0);
  TrackAlloc(AllocCategory::kFlatForest,
             static_cast<int64_t>(total * sizeof(uint32_t) +
                                  total * 2 * sizeof(int32_t) +
                                  total * sizeof(double)));
  for (size_t n = 0; n < internal; ++n) {
    node_meta_[n] =
        (static_cast<uint32_t>(static_cast<uint16_t>(feature_[n])) << 9) |
        (static_cast<uint32_t>(bin_threshold_[n]) << 1) |
        (default_left(static_cast<int64_t>(n)) ? 1u : 0u);
    children_[2 * n] = augmented(right_[n]);
    children_[2 * n + 1] = augmented(left_[n]);
  }
  for (size_t leaf = 0; leaf < leaf_values_.size(); ++leaf) {
    const size_t p = internal + leaf;
    children_[2 * p] = static_cast<int32_t>(p);
    children_[2 * p + 1] = static_cast<int32_t>(p);
    node_value_[p] = leaf_values_[leaf];
  }
  kernel_roots_.clear();
  kernel_roots_.reserve(roots_.size());
  for (const int32_t root : roots_) kernel_roots_.push_back(augmented(root));

  // NaN-padded cut arrays for the branchless BinRow search, every feature
  // padded to the same power of two so four searches share one halving
  // sequence. Bounded by 256 doubles per feature (the uint8 bin gate).
  int64_t widest = 1;
  for (int64_t f = 0; f < num_features_; ++f) {
    widest = std::max<int64_t>(widest, cut_offsets_[f + 1] - cut_offsets_[f]);
  }
  search_len_ = static_cast<int64_t>(
      std::bit_ceil(static_cast<uint64_t>(widest)));
  search_cuts_.assign(static_cast<size_t>(num_features_ * search_len_),
                      std::numeric_limits<double>::quiet_NaN());
  for (int64_t f = 0; f < num_features_; ++f) {
    std::copy(cut_values_.begin() + cut_offsets_[f],
              cut_values_.begin() + cut_offsets_[f + 1],
              search_cuts_.begin() + f * search_len_);
  }
}

namespace {

/// Features binned in lockstep per BinRow search pass: the searches are
/// independent chains of load -> compare -> conditional move, so running
/// four at once overlaps their latencies the same way the walk kernel's
/// row lanes do.
constexpr int64_t kBinLanes = 4;

}  // namespace

void FlatForest::BinRow(const double* row, uint8_t* out) const {
  // bin(v) = #{cuts <= v}: with bin_threshold = cut_index + 1 this makes
  // bin < bin_threshold exactly equivalent to v < threshold. The searches
  // run over the NaN-padded uniform power-of-two copies of the cut arrays
  // with conditional-move steps: the halving sequence is identical for
  // every feature and row, so unlike std::upper_bound there is no
  // data-dependent branch to mispredict. NaN never satisfies an ordered
  // comparison, so pads are never counted — and a NaN input walks to
  // count 0 harmlessly before the final select replaces it with the
  // missing sentinel.
  // The step advances an integer offset by `half & -cond` — arithmetic on
  // a materialized comparison bit, which the compiler cannot turn back
  // into the conditional jump a pointer select tempts it into.
  const double* const cuts = search_cuts_.data();
  const int64_t len = search_len_;
  int64_t f = 0;
  for (; f + kBinLanes <= num_features_; f += kBinLanes) {
    const double* base[kBinLanes];
    double v[kBinLanes];
    int64_t pos[kBinLanes];
    for (int64_t j = 0; j < kBinLanes; ++j) {
      v[j] = row[f + j];
      base[j] = cuts + (f + j) * len;
      pos[j] = 0;
    }
    for (int64_t half = len >> 1; half > 0; half >>= 1) {
      for (int64_t j = 0; j < kBinLanes; ++j) {
        pos[j] +=
            half & -static_cast<int64_t>(base[j][pos[j] + half - 1] <= v[j]);
      }
    }
    for (int64_t j = 0; j < kBinLanes; ++j) {
      const auto count = static_cast<uint8_t>(
          pos[j] + static_cast<int64_t>(base[j][pos[j]] <= v[j]));
      out[f + j] = std::isnan(v[j]) ? kMissingBin : count;
    }
  }
  for (; f < num_features_; ++f) {
    const double v = row[f];
    const double* const base = cuts + f * len;
    int64_t pos = 0;
    for (int64_t half = len >> 1; half > 0; half >>= 1) {
      pos += half & -static_cast<int64_t>(base[pos + half - 1] <= v);
    }
    const auto count = static_cast<uint8_t>(
        pos + static_cast<int64_t>(base[pos] <= v));
    out[f] = std::isnan(v) ? kMissingBin : count;
  }
}

std::vector<uint8_t> FlatForest::BinMatrix(const Dataset& data) const {
  std::vector<uint8_t> bins(
      static_cast<size_t>(data.num_rows() * num_features_));
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    BinRow(data.row(r), bins.data() + r * num_features_);
  }
  return bins;
}

namespace {

/// Rows walked through one tree simultaneously. The per-visit cost is
/// dominated by the dependent load chain (bin -> compare -> child ref ->
/// next bin), so giving the core kLanes independent chains overlaps their
/// latencies instead of stalling on one.
constexpr int kLanes = 8;

/// One branchless level of the panel walk: one metadata load, one panel
/// byte, one indexed child load — no compare-and-select on the child (the
/// interleaving puts the taken child at 2 * node + go_left) and no leaf-tag
/// masking (a leaf pseudo-node has metadata 0, so go_left is always 0 and
/// its go-right slot points back at itself). The bin test is exact: a
/// missing bin (255) never satisfies bin < threshold (threshold <= 254), so
/// the learned default direction decides. `panel_bins` points at the
/// lane's row inside the feature-major panel, so every lane shares the
/// same three base pointers — with the lane index folded into the
/// displacement the whole 8-lane step fits the register file, which is
/// what lets the independent load chains actually overlap.
inline int32_t StepPacked(int32_t node, const uint8_t* panel_bins,
                          const uint32_t* meta, const int32_t* children) {
  const uint32_t m = meta[static_cast<size_t>(node)];
  const uint8_t bin = panel_bins[(m >> 9) << kBlockShift];
  const auto bin_threshold = static_cast<uint8_t>(m >> 1);
  const auto lt = static_cast<uint32_t>(bin < bin_threshold);
  const auto missing = static_cast<uint32_t>(bin == kMissingBin);
  const uint32_t go_left = lt | (missing & m & 1u);
  return children[(static_cast<size_t>(node) << 1) + go_left];
}

}  // namespace

void FlatForest::AccumulateBlock(const uint8_t* bins_cm, int64_t rows,
                                 int tree_begin, int tree_end,
                                 double* raw) const {
  const uint32_t* const meta = node_meta_.data();
  const int32_t* const children = children_.data();
  const double* const values = node_value_.data();
  for (int t = tree_begin; t < tree_end; ++t) {
    const int32_t root = kernel_roots_[static_cast<size_t>(t)];
    const int32_t depth = tree_depths_[static_cast<size_t>(t)];
    int64_t r = 0;
    for (; r + kLanes <= rows; r += kLanes) {
      int32_t node[kLanes];
      for (int l = 0; l < kLanes; ++l) node[l] = root;
      // Fixed trip count (the tree's height) with finished lanes parked on
      // their leaf pseudo-node: no per-level exit test to mispredict.
      for (int32_t d = 0; d < depth; ++d) {
        for (int l = 0; l < kLanes; ++l) {
          node[l] = StepPacked(node[l], bins_cm + r + l, meta, children);
        }
      }
      // Row r gets its trees in ascending order, one leaf value per tree:
      // the summation order of a pointer walk over the trees.
      for (int l = 0; l < kLanes; ++l) raw[r + l] += values[node[l]];
    }
    for (; r < rows; ++r) {
      int32_t node = root;
      for (int32_t d = 0; d < depth; ++d) {
        node = StepPacked(node, bins_cm + r, meta, children);
      }
      raw[r] += values[node];
    }
  }
}

void FlatForest::PredictBlock(const double* rows, int64_t n,
                              double base_score, int stride, double* out,
                              int64_t out_stride) const {
  // Quantize each row, then transpose it into the feature-major panel the
  // walk kernel addresses by (feature << kBlockShift) + row. ~F * 64 bytes,
  // L1-resident.
  std::vector<uint8_t> row_bins(static_cast<size_t>(num_features_));
  std::vector<uint8_t> panel(
      static_cast<size_t>(num_features_) * kFlatPredictBlock);
  for (int64_t r = 0; r < n; ++r) {
    BinRow(rows + r * num_features_, row_bins.data());
    for (int64_t f = 0; f < num_features_; ++f) {
      panel[static_cast<size_t>((f << kBlockShift) + r)] =
          row_bins[static_cast<size_t>(f)];
    }
  }
  double acc[kFlatPredictBlock];
  std::fill_n(acc, n, base_score);
  const int trees = num_trees();
  int begin = 0;
  double* stage = out;
  do {
    const int end = stride >= trees - begin ? trees : begin + stride;
    AccumulateBlock(panel.data(), n, begin, end, acc);
    std::copy(acc, acc + n, stage);
    stage += out_stride;
    begin = end;
  } while (begin < trees);
}

int64_t FlatForest::NumStages(int stride) const {
  const int64_t trees = num_trees();
  return trees == 0 ? 1 : (trees + stride - 1) / stride;
}

void FlatForest::PredictStages(const Dataset& data, double base_score,
                               int stride, double* out,
                               ThreadPool* pool) const {
  const int64_t rows = data.num_rows();
  const int64_t blocks = (rows + kFlatPredictBlock - 1) / kFlatPredictBlock;
  static Counter* const blocks_counter =
      MetricsRegistry::Global().GetCounter("gbt.predict.flat_blocks");
  blocks_counter->Increment(blocks);
  ThreadPool& workers = pool != nullptr ? *pool : DefaultPool();
  // Blocks write disjoint output slots and every row sums its trees in
  // ascending order, so the result is the same for any worker count.
  workers.ParallelFor(blocks, [&](int64_t block) {
    const int64_t begin = block * kFlatPredictBlock;
    PredictBlock(data.row(begin), std::min(kFlatPredictBlock, rows - begin),
                 base_score, stride, out + begin, rows);
  });
}

void FlatForest::PredictRaw(const Dataset& data, double base_score,
                            double* out, ThreadPool* pool) const {
  PredictStages(data, base_score, INT_MAX, out, pool);
}

double FlatForest::PredictRowRaw(const double* row, double base_score) const {
  double out = 0.0;
  PredictBlock(row, 1, base_score, INT_MAX, &out, 1);
  return out;
}

}  // namespace mysawh::gbt
