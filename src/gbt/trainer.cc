#include "gbt/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace mysawh::gbt {

namespace {

constexpr double kMinSplitGain = 1e-10;

/// Training instruments. The histogram-pipeline node counters moved here
/// from the old ad-hoc `TrainingLog` fields, so every counter in the
/// process reads through one registry (docs/observability.md).
struct TrainerMetrics {
  Counter* hist_nodes_direct;
  Counter* hist_nodes_subtracted;
  Counter* trees_grown;
  Counter* rounds_completed;
  LatencyHistogram* tree_us;
};

TrainerMetrics& Metrics() {
  static TrainerMetrics metrics = [] {
    auto& registry = MetricsRegistry::Global();
    return TrainerMetrics{
        registry.GetCounter("gbt.train.hist_nodes_direct"),
        registry.GetCounter("gbt.train.hist_nodes_subtracted"),
        registry.GetCounter("gbt.train.trees_grown"),
        registry.GetCounter("gbt.train.rounds_completed"),
        registry.GetHistogram("gbt.train.tree_us")};
  }();
  return metrics;
}

/// Soft-thresholding for L1 regularization on the gradient sum.
double ThresholdL1(double g, double alpha) {
  if (g > alpha) return g - alpha;
  if (g < -alpha) return g + alpha;
  return 0.0;
}

/// The unshrunk leaf weight of gradient sums (G, H).
double LeafWeight(const GbtParams& params, double g, double h) {
  return -ThresholdL1(g, params.reg_alpha) / (h + params.reg_lambda);
}

}  // namespace

Trainer::Trainer(const Dataset& train, const GbtParams& params)
    : train_(train),
      params_(params),
      objective_(MakeObjective(params.objective)),
      rng_(params.seed) {}

namespace {

// The split scan is written once with GCC vector extensions and compiled
// with 2 lanes for the baseline target and 4 for AVX2. Each lane computes
// one candidate with the scalar expression and lanes never mix, so both
// builds give the scalar bits. No helper passes a vector by value: the
// baseline ABI would differ.
using V2 = double __attribute__((vector_size(16)));
using V4 = double __attribute__((vector_size(32)));

template <typename V>
[[gnu::always_inline]] inline SplitCandidate ScanNode(
    const GbtParams& params, const FeatureBins& bins,
    const HistogramLayout& layout, const NodeHistogram& hist,
    const SplitNode& node) {
  using M = decltype(V{} < V{});
  constexpr int kLanes = sizeof(V) / sizeof(double);
  const double alpha = params.reg_alpha;
  const double lambda = params.reg_lambda;
  const double gamma = params.gamma;
  const double msl = static_cast<double>(params.min_samples_leaf);
  const double mcw = params.min_child_weight;
  const V zero = {};
  const V neg_inf = zero - std::numeric_limits<double>::infinity();
  V lane = zero;
  for (int j = 0; j < kLanes; ++j) lane[j] = j;
  // T_alpha(G), its score T^2 / (H + lambda), lane by lane.
  const auto soft = [&](const V& g, V* t) {
    *t = g > alpha ? g - alpha : (g < -alpha ? g + alpha : zero);
  };
  const auto score = [&](const V& g, const V& h, V* s) {
    V t;
    soft(g, &t);
    *s = t * t / (h + lambda);
  };
  // Monotone constraints drop a direction whose child weights -T / (H +
  // lambda) break the feature's ordering or leave the node's interval. The
  // comparisons are written so that a NaN weight is never dropped.
  const auto violates = [&](int constraint, const V& gl, const V& hl,
                            const V& gr, const V& hr, M* out) {
    V tl, tr;
    soft(gl, &tl);
    soft(gr, &tr);
    const V wl = -tl / (hl + lambda);
    const V wr = -tr / (hr + lambda);
    M v = (wl < node.lower) | (wl > node.upper) | (wr < node.lower) |
          (wr > node.upper);
    if (constraint > 0) v |= wl > wr;
    if (constraint < 0) v |= wl < wr;
    *out = v;
  };
  const double parent_t = ThresholdL1(node.sum_g, alpha);
  const double parent_score = parent_t * parent_t / (node.sum_h + lambda);

  // One feature's compacted prefix sums, per thread, grown to the widest
  // feature seen plus a vector of slack.
  thread_local std::vector<double> scratch;
  SplitCandidate best;
  double best_gain = kMinSplitGain;
  for (int i = 0; i < layout.num_features(); ++i) {
    const int nb = layout.num_bins(i);
    if (nb < 2) continue;
    const HistEntry* slots = hist.feature_slots(layout, i);
    const HistEntry& miss = hist.miss(i);
    const double present = static_cast<double>(node.count) - miss.count;
    // Prefix pass with compaction: one 4-wide add accumulates a slot's
    // {g, h, count}. Every slot is accumulated — subtraction can leave
    // count-0 slots with nonzero sums — but only occupied boundaries are
    // kept: an empty bin repeats its predecessor's partition. Each slot
    // writes position `m` and advances it only when occupied; the k-th
    // kept boundary is the k-th occupied bin. Once every present row is on
    // the left, the remaining slots are empty and the pass stops.
    const int nbound = nb - 1;
    const auto run = static_cast<size_t>(nbound) + 4;
    if (scratch.size() < 3 * run) scratch.resize(3 * run);
    double* pg = scratch.data();
    double* ph = pg + run;
    double* pc = ph + run;
    int m = 0;
    V4 acc = {};
    for (int b = 0; b < nbound; ++b) {
      V4 slot;
      std::memcpy(&slot, &slots[b].sum_g, sizeof slot);
      acc += slot;
      pg[m] = acc[0];
      ph[m] = acc[1];
      pc[m] = acc[2];
      m += slots[b].count != 0.0 ? 1 : 0;
      if (acc[2] == present) break;
    }
    // Gain pass over the kept boundaries, kLanes at a time, with the argmax
    // fused in: each lane keeps its first strictly larger gain and its key
    // 2k (missing left) or 2k + 1 (missing right). Lanes start at the
    // node's best so far, which a later feature must beat strictly.
    const double miss_g = miss.sum_g;
    const double miss_h = miss.sum_h;
    const double miss_c = miss.count;
    const double gsub = node.sum_g - miss_g;
    const double hsub = node.sum_h - miss_h;
    // With no missing mass the two default directions score identically and
    // missing-left wins the tie-break, so the second direction is skipped.
    const bool no_miss = miss_c == 0.0 && miss_g == 0.0 && miss_h == 0.0;
    const int feature = layout.features()[static_cast<size_t>(i)];
    const bool monotone = !params.monotone_constraints.empty();
    const int constraint =
        monotone ? params.monotone_constraints[static_cast<size_t>(feature)]
                 : 0;
    V lane_gain = zero + best_gain;
    V lane_key = zero - 1.0;
    const auto offer = [&](const V& gain, const M& ok, const V& key) {
      const V g = ok ? gain : neg_inf;
      const M up = g > lane_gain;
      lane_gain = up ? g : lane_gain;
      lane_key = up ? key : lane_key;
    };
    for (int k = 0; k < m; k += kLanes) {
      const V kk = lane + static_cast<double>(k);
      const M live = kk < static_cast<double>(m);
      V vg, vh, vc;
      std::memcpy(&vg, pg + k, sizeof vg);
      std::memcpy(&vh, ph + k, sizeof vh);
      std::memcpy(&vc, pc + k, sizeof vc);
      const V sgr = gsub - vg;
      const V shr = hsub - vh;
      const V scr = present - vc;
      V s_left, s_right;
      M bad = live ^ live;
      {  // Missing goes left.
        const V gl = vg + miss_g;
        const V hl = vh + miss_h;
        const V cl = vc + miss_c;
        score(gl, hl, &s_left);
        score(sgr, shr, &s_right);
        const V gain = 0.5 * (s_left + s_right - parent_score) - gamma;
        if (monotone) violates(constraint, gl, hl, sgr, shr, &bad);
        const M ok = live & (cl >= msl) & (scr >= msl) & (hl >= mcw) &
                     (shr >= mcw) & ~bad;
        offer(gain, ok, 2.0 * kk);
      }
      if (!no_miss) {  // Missing goes right.
        const V gr = sgr + miss_g;
        const V hr = shr + miss_h;
        const V cr = scr + miss_c;
        score(vg, vh, &s_left);
        score(gr, hr, &s_right);
        const V gain = 0.5 * (s_left + s_right - parent_score) - gamma;
        if (monotone) violates(constraint, vg, vh, gr, hr, &bad);
        const M ok = live & (vc >= msl) & (cr >= msl) & (vh >= mcw) &
                     (hr >= mcw) & ~bad;
        offer(gain, ok, 2.0 * kk + 1.0);
      }
    }
    // Lanes hold the first maximum of their own candidates; across lanes
    // the larger gain wins, then the smaller key.
    double key = -1.0;
    for (int j = 0; j < kLanes; ++j) {
      if (lane_key[j] < 0.0) continue;
      if (key < 0.0 || lane_gain[j] > best_gain ||
          (lane_gain[j] == best_gain && lane_key[j] < key)) {
        best_gain = lane_gain[j];
        key = lane_key[j];
      }
    }
    if (key < 0.0) continue;
    const auto k = static_cast<size_t>(key) / 2;
    const bool left = static_cast<size_t>(key) % 2 == 0;
    best.valid = true;
    best.feature = feature;
    best.bin = -1;  // the k-th occupied bin
    for (size_t occupied = 0; occupied <= k;) {
      occupied += slots[++best.bin].count != 0.0 ? 1 : 0;
    }
    best.threshold = bins.cut(feature, best.bin);
    best.default_left = left;
    best.gain = best_gain;
    best.weight_left = LeafWeight(params, left ? pg[k] + miss_g : pg[k],
                                  left ? ph[k] + miss_h : ph[k]);
    best.weight_right =
        LeafWeight(params, left ? gsub - pg[k] : (gsub - pg[k]) + miss_g,
                   left ? hsub - ph[k] : (hsub - ph[k]) + miss_h);
  }
  return best;
}

MYSAWH_TARGET_AVX2 SplitCandidate ScanAvx2(const GbtParams& params,
                                           const FeatureBins& bins,
                                           const HistogramLayout& layout,
                                           const NodeHistogram& hist,
                                           const SplitNode& node) {
  return ScanNode<V4>(params, bins, layout, hist, node);
}

}  // namespace

SplitCandidate FindBestSplit(KernelIsa isa, const GbtParams& params,
                             const FeatureBins& bins,
                             const HistogramLayout& layout,
                             const NodeHistogram& hist,
                             const SplitNode& node) {
  return isa == KernelIsa::kAvx2
             ? ScanAvx2(params, bins, layout, hist, node)
             : ScanNode<V2>(params, bins, layout, hist, node);
}

void Trainer::BuildNode(RegressionTree* tree, int node_id, int64_t begin,
                        int64_t end, int depth,
                        const std::vector<GradientPair>& gpairs,
                        SplitNode node, const HistogramLayout& layout,
                        NodeHistogram hist) {
  const std::span<int64_t> rows(rows_.data() + begin,
                                static_cast<size_t>(end - begin));
  tree->mutable_node(node_id)->cover = node.sum_h;

  const bool can_split = depth < params_.max_depth &&
                         node.count >= 2 * params_.min_samples_leaf &&
                         node.sum_h >= 2 * params_.min_child_weight;
  const auto take_hist = [this] {
    if (hist_pool_.empty()) return NodeHistogram();
    NodeHistogram h = std::move(hist_pool_.back());
    hist_pool_.pop_back();
    return h;
  };
  SplitCandidate best;
  if (can_split) {
    if (hist.empty()) {
      // Root (or a node whose parent skipped the subtraction trick): one
      // row-major pass accumulates every feature's histogram at once.
      TraceSpan span("gbt.hist_build", "train");
      span.Arg("rows", node.count);
      hist = BuildHistogram(layout, binned_, rows, gpairs, take_hist(), isa_);
      ++hist_nodes_direct_;
    }
    TraceSpan split_span("gbt.split_find", "train");
    best = FindBestSplit(isa_, params_, bins_, layout, hist, node);
  }

  if (!best.valid) {
    TreeNode* leaf = tree->mutable_node(node_id);
    const double weight = std::min(
        node.upper,
        std::max(node.lower, LeafWeight(params_, node.sum_g, node.sum_h)));
    leaf->value = params_.learning_rate * weight;
    for (int64_t r : rows) row_leaf_[static_cast<size_t>(r)] = node_id;
    if (!hist.empty()) hist_pool_.push_back(std::move(hist));
    return;
  }

  const auto [left_id, right_id] = tree->Split(
      node_id, best.feature, best.threshold, best.default_left, best.gain);
  split_bin_.resize(static_cast<size_t>(tree->num_nodes()));
  split_bin_[static_cast<size_t>(node_id)] = best.bin;
  // Stable in-place partition: left rows move forward, right rows wait in
  // the spill buffer and follow them, so each child keeps the row order its
  // histogram sums in.
  row_spill_.resize(rows.size());
  const uint8_t* column = binned_.data() + best.feature;
  const int64_t stride = binned_.num_features();
  int64_t* spill = row_spill_.data();
  int64_t num_left = 0, num_right = 0;
  for (int64_t r : rows) {
    const uint8_t b = column[r * stride];
    const int64_t go_left = b == kMissingBin
                                ? best.default_left
                                : static_cast<int>(b) <= best.bin;
    rows[static_cast<size_t>(num_left)] = r;
    spill[num_right] = r;
    num_left += go_left;
    num_right += 1 - go_left;
  }
  std::copy_n(spill, num_right, rows.begin() + num_left);
  const int64_t mid_row = begin + num_left;
  // Each child's {g, h} sums, added in row order. The four sums are
  // independent chains of adds, so one loop advances them all.
  SplitNode left_node{0.0, 0.0, num_left, node.lower, node.upper};
  SplitNode right_node{0.0, 0.0, num_right, node.lower, node.upper};
  const auto add = [&gpairs](SplitNode* to, int64_t r) {
    to->sum_g += gpairs[static_cast<size_t>(r)].grad;
    to->sum_h += gpairs[static_cast<size_t>(r)].hess;
  };
  for (int64_t i = 0; i < std::max(num_left, num_right); ++i) {
    if (i < num_left) add(&left_node, rows[static_cast<size_t>(i)]);
    if (i < num_right) add(&right_node, spill[i]);
  }
  // Sibling subtraction: build only the smaller child's histogram from its
  // rows and derive the larger one as parent − smaller in the parent's
  // buffer. Skipped when the children cannot split anyway (depth or
  // min_samples_leaf); they are then passed empty histograms.
  NodeHistogram left_hist, right_hist;
  if (depth + 1 < params_.max_depth &&
      std::max(num_left, num_right) >= 2 * params_.min_samples_leaf) {
    const bool left_smaller = num_left <= num_right;
    NodeHistogram smaller;
    {
      TraceSpan span("gbt.hist_build", "train");
      span.Arg("rows", std::min(num_left, num_right));
      smaller = BuildHistogram(
          layout, binned_,
          left_smaller ? rows.first(static_cast<size_t>(num_left))
                       : rows.subspan(static_cast<size_t>(num_left)),
          gpairs, take_hist(), isa_);
      ++hist_nodes_direct_;
    }
    {
      TraceSpan subtract_span("gbt.hist_subtract", "train");
      hist.Subtract(smaller, isa_);
      ++hist_nodes_subtracted_;
    }
    left_hist = left_smaller ? std::move(smaller) : std::move(hist);
    right_hist = left_smaller ? std::move(hist) : std::move(smaller);
  } else {
    hist_pool_.push_back(std::move(hist));
  }
  // Propagate monotone weight bounds: when this split is constrained, the
  // children's admissible weights are separated at the midpoint of the
  // candidate child weights (XGBoost's rule).
  const int constraint =
      params_.monotone_constraints.empty()
          ? 0
          : params_.monotone_constraints[static_cast<size_t>(best.feature)];
  if (constraint != 0) {
    const double mid = 0.5 * (best.weight_left + best.weight_right);
    if (constraint > 0) {
      left_node.upper = std::min(left_node.upper, mid);
      right_node.lower = std::max(right_node.lower, mid);
    } else {
      left_node.lower = std::max(left_node.lower, mid);
      right_node.upper = std::min(right_node.upper, mid);
    }
  }
  BuildNode(tree, left_id, begin, mid_row, depth + 1, gpairs, left_node,
            layout, std::move(left_hist));
  BuildNode(tree, right_id, mid_row, end, depth + 1, gpairs, right_node,
            layout, std::move(right_hist));
}

int Trainer::BinnedLeaf(const RegressionTree& tree, int64_t row) const {
  int id = 0;
  while (!tree.node(id).IsLeaf()) {
    const TreeNode& n = tree.node(id);
    const uint8_t b = binned_.At(row, n.feature);
    const bool go_left =
        b == kMissingBin ? n.default_left
                         : b <= split_bin_[static_cast<size_t>(id)];
    id = go_left ? n.left : n.right;
  }
  return id;
}

Result<GbtModel> Trainer::Run(const Dataset* validation, TrainingLog* log) {
  MYSAWH_RETURN_NOT_OK(params_.Validate());
  if (train_.num_rows() == 0) {
    return Status::InvalidArgument("training set is empty");
  }
  if (train_.num_features() == 0) {
    return Status::InvalidArgument("training set has no features");
  }
  if (objective_ == nullptr) {
    return Status::InvalidArgument("unknown objective");
  }
  MYSAWH_RETURN_NOT_OK(objective_->ValidateLabels(train_.labels()));
  if (validation != nullptr &&
      validation->num_features() != train_.num_features()) {
    return Status::InvalidArgument("validation feature width mismatch");
  }
  if (params_.early_stopping_rounds > 0 && validation == nullptr) {
    return Status::InvalidArgument(
        "early stopping requires a validation set");
  }
  if (!params_.monotone_constraints.empty() &&
      static_cast<int64_t>(params_.monotone_constraints.size()) !=
          train_.num_features()) {
    return Status::InvalidArgument(
        "monotone_constraints length must equal the feature count");
  }

  TraceSpan train_span("gbt.train", "train");
  train_span.Arg("rows", train_.num_rows());
  train_span.Arg("features", train_.num_features());

  MYSAWH_ASSIGN_OR_RETURN(BinnedData binned_data,
                          BuildBinned(train_, params_.max_bins));
  bins_ = std::move(binned_data.bins);
  binned_ = std::move(binned_data.matrix);

  GbtModel model;
  model.feature_names_ = train_.feature_names();
  model.objective_type_ = params_.objective;
  model.base_score_ = std::isnan(params_.base_score)
                          ? objective_->InitialRawPrediction(train_.labels())
                          : params_.base_score;

  const int64_t n = train_.num_rows();
  const int64_t nf = train_.num_features();
  std::vector<double> raw_train(static_cast<size_t>(n), model.base_score_);
  std::vector<double> raw_valid;
  if (validation != nullptr) {
    raw_valid.assign(static_cast<size_t>(validation->num_rows()),
                     model.base_score_);
  }
  if (log != nullptr) log->metric_name = objective_->DefaultMetricName();

  std::vector<GradientPair> gpairs(static_cast<size_t>(n));
  row_leaf_.assign(static_cast<size_t>(n), 0);
  double best_metric = std::numeric_limits<double>::infinity();
  int best_round = -1;

  // Training telemetry (util/telemetry.h): a per-round JSONL stream of the
  // train/valid metric plus cumulative per-feature split statistics. The
  // disabled path is one relaxed load; when enabled, per-round metrics are
  // computed even without a validation set or TrainingLog. Recording never
  // feeds back into training, so the model is bit-identical either way.
  TelemetryStream telemetry;
  std::vector<int64_t> feature_split_counts;
  std::vector<double> feature_split_gains;
  if (TelemetryEnabled()) {
    telemetry = Telemetry::Global().StartStream("train");
    std::ostringstream header;
    header << "\"objective\":\"" << ObjectiveTypeName(params_.objective)
           << "\",\"metric\":\"" << objective_->DefaultMetricName()
           << "\",\"rows\":" << n << ",\"features\":" << nf
           << ",\"num_trees\":" << params_.num_trees
           << ",\"max_depth\":" << params_.max_depth << ",\"learning_rate\":"
           << TelemetryDouble(params_.learning_rate);
    telemetry.Line("header", header.str());
    feature_split_counts.assign(static_cast<size_t>(nf), 0);
    feature_split_gains.assign(static_cast<size_t>(nf), 0.0);
  }

  for (int round = 0; round < params_.num_trees; ++round) {
    TraceSpan tree_span("gbt.tree", "train");
    tree_span.Arg("round", round);
    ScopedLatencyTimer tree_timer(Metrics().tree_us);
    objective_->ComputeGradients(train_.labels(), raw_train, gpairs.data());
    for (int64_t i = 0; params_.scale_pos_weight != 1.0 && i < n; ++i) {
      if (train_.label(i) == 1.0) {
        gpairs[static_cast<size_t>(i)].grad *= params_.scale_pos_weight;
        gpairs[static_cast<size_t>(i)].hess *= params_.scale_pos_weight;
      }
    }
    // Row subsample: `rows_` takes the drawn rows in index order, then the
    // rows left out, which the score update walks. Marking the drawn rows in
    // `row_leaf_` (0: the root) and collecting them in index order yields
    // the sorted sample without a sort.
    rows_.resize(static_cast<size_t>(n));
    int64_t num_drawn = n;
    if (params_.subsample < 1.0) {
      num_drawn = std::max<int64_t>(
          1, static_cast<int64_t>(std::llround(
                 static_cast<double>(n) * params_.subsample)));
      std::fill(row_leaf_.begin(), row_leaf_.end(), -1);
      rng_.SampleWithoutReplacement(n, num_drawn, &sample_);
      for (int64_t r : sample_) row_leaf_[static_cast<size_t>(r)] = 0;
      int64_t front = 0, back = n;
      for (int64_t i = 0; i < n; ++i) {
        const bool drawn = row_leaf_[static_cast<size_t>(i)] == 0;
        rows_[static_cast<size_t>(drawn ? front : back - 1)] = i;
        front += drawn ? 1 : 0;
        back -= drawn ? 0 : 1;
      }
    } else {
      for (int64_t i = 0; i < n; ++i) rows_[static_cast<size_t>(i)] = i;
    }
    // Column subsample.
    std::vector<int> features;
    if (params_.colsample_bytree < 1.0) {
      const auto k = std::max<int64_t>(
          1, static_cast<int64_t>(std::llround(
                 static_cast<double>(nf) * params_.colsample_bytree)));
      rng_.SampleWithoutReplacement(nf, k, &sample_);
      features.assign(sample_.begin(), sample_.end());
      std::sort(features.begin(), features.end());
    } else {
      features.resize(static_cast<size_t>(nf));
      for (int64_t f = 0; f < nf; ++f) {
        features[static_cast<size_t>(f)] = static_cast<int>(f);
      }
    }

    RegressionTree tree;
    {
      const HistogramLayout layout(bins_, std::move(features));
      SplitNode root;
      for (int64_t i = 0; i < num_drawn; ++i) {
        const int64_t r = rows_[static_cast<size_t>(i)];
        root.sum_g += gpairs[static_cast<size_t>(r)].grad;
        root.sum_h += gpairs[static_cast<size_t>(r)].hess;
      }
      root.count = num_drawn;
      BuildNode(&tree, 0, 0, num_drawn, 0, gpairs, root, layout,
                NodeHistogram());
    }

    int tree_splits = 0;
    double tree_gain = 0.0;
    if (telemetry.active()) {
      for (int i = 0; i < tree.num_nodes(); ++i) {
        const TreeNode& node = tree.node(i);
        if (node.IsLeaf()) continue;
        ++tree_splits;
        tree_gain += node.gain;
        feature_split_counts[static_cast<size_t>(node.feature)] += 1;
        feature_split_gains[static_cast<size_t>(node.feature)] += node.gain;
      }
    }

    {
      // Update cached raw scores (all rows, not just the subsample). A row
      // the tree was grown on adds the value of the leaf the grower placed
      // it in. That is the leaf Predict reaches: the binned test
      // `bin(v) <= b` equals `v < cut(b)`, the stored threshold. Rows left
      // out of the subsample first walk the tree on their bins by the same
      // test.
      TraceSpan span("gbt.update_scores", "train");
      for (int64_t i = num_drawn; i < n; ++i) {
        const int64_t r = rows_[static_cast<size_t>(i)];
        row_leaf_[static_cast<size_t>(r)] = BinnedLeaf(tree, r);
      }
      for (int64_t i = 0; i < n; ++i) {
        raw_train[static_cast<size_t>(i)] +=
            tree.node(row_leaf_[static_cast<size_t>(i)]).value;
      }
      if (validation != nullptr) {
        for (int64_t i = 0; i < validation->num_rows(); ++i) {
          raw_valid[static_cast<size_t>(i)] +=
              tree.Predict(validation->row(i));
        }
      }
    }
    model.trees_.push_back(std::move(tree));

    // Metrics.
    double train_metric = std::numeric_limits<double>::quiet_NaN();
    double valid_metric = std::numeric_limits<double>::quiet_NaN();
    if (log != nullptr || validation != nullptr || telemetry.active()) {
      std::vector<double> preds(raw_train.size());
      for (size_t i = 0; i < raw_train.size(); ++i) {
        preds[i] = objective_->Transform(raw_train[i]);
      }
      train_metric = objective_->EvalDefaultMetric(train_.labels(), preds);
      if (validation != nullptr) {
        std::vector<double> vpreds(raw_valid.size());
        for (size_t i = 0; i < raw_valid.size(); ++i) {
          vpreds[i] = objective_->Transform(raw_valid[i]);
        }
        valid_metric =
            objective_->EvalDefaultMetric(validation->labels(), vpreds);
      }
    }
    if (log != nullptr) {
      log->rounds.push_back({round, train_metric, valid_metric});
    }
    if (telemetry.active()) {
      std::ostringstream line;
      line << "\"round\":" << round << ",\"train\":"
           << TelemetryDouble(train_metric) << ",\"valid\":"
           << TelemetryDouble(valid_metric) << ",\"splits\":" << tree_splits
           << ",\"gain\":" << TelemetryDouble(tree_gain);
      telemetry.Line("round", line.str());
    }
    // Live progress for the stall watchdog: unlike the bulk flush below,
    // this counter must advance *during* training, one round at a time.
    Metrics().rounds_completed->Increment();
    if (validation != nullptr) {
      if (valid_metric < best_metric) {
        best_metric = valid_metric;
        best_round = round;
      }
      if (params_.early_stopping_rounds > 0 &&
          round - best_round >= params_.early_stopping_rounds) {
        break;
      }
    }
  }

  if (params_.early_stopping_rounds > 0 && best_round >= 0) {
    model.trees_.resize(static_cast<size_t>(best_round + 1));
    model.best_iteration_ = best_round;
  } else {
    model.best_iteration_ = static_cast<int>(model.trees_.size()) - 1;
  }
  if (telemetry.active()) {
    // Cumulative per-feature split statistics over the whole run (early
    // stopping trims the model, not this tally — the stream records what
    // training did, not what survived).
    std::ostringstream line;
    line << "\"names\":[";
    const auto& names = train_.feature_names();
    for (size_t f = 0; f < names.size(); ++f) {
      line << (f == 0 ? "" : ",") << "\"" << TelemetryJsonEscape(names[f])
           << "\"";
    }
    line << "],\"split_counts\":[";
    for (size_t f = 0; f < feature_split_counts.size(); ++f) {
      line << (f == 0 ? "" : ",") << feature_split_counts[f];
    }
    line << "],\"split_gains\":[";
    for (size_t f = 0; f < feature_split_gains.size(); ++f) {
      line << (f == 0 ? "" : ",") << TelemetryDouble(feature_split_gains[f]);
    }
    line << "],\"trees\":" << model.trees_.size()
         << ",\"best_iteration\":" << model.best_iteration_;
    telemetry.Line("features", line.str());
    telemetry.Finish();
  }
  // Flush the per-run node counters into the registry in one shot: the
  // recursion stays free of atomics, and the registry still sees exact
  // per-training deltas (tests and benchmarks read these).
  Metrics().hist_nodes_direct->Increment(hist_nodes_direct_);
  Metrics().hist_nodes_subtracted->Increment(hist_nodes_subtracted_);
  Metrics().trees_grown->Increment(static_cast<int64_t>(model.trees_.size()));
  return model;
}

}  // namespace mysawh::gbt
