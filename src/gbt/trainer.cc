#include "gbt/trainer.h"

#include <algorithm>
#include <cmath>
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

}  // namespace

Trainer::Trainer(const Dataset& train, const GbtParams& params)
    : train_(train),
      params_(params),
      objective_(MakeObjective(params.objective)),
      rng_(params.seed) {}

double Trainer::LeafWeight(double g, double h) const {
  return -ThresholdL1(g, params_.reg_alpha) / (h + params_.reg_lambda);
}

int Trainer::ConstraintOf(int feature) const {
  if (params_.monotone_constraints.empty()) return 0;
  return params_.monotone_constraints[static_cast<size_t>(feature)];
}

namespace {

/// Per-thread arrays of the boundary scan, grown to the widest feature seen
/// and reused, so a scan allocates nothing after warm-up.
struct BoundaryScratch {
  std::vector<double> pg, ph, pc, gain_l, gain_r;
  std::vector<int> bin;

  void Reserve(int n) {
    const auto size = static_cast<size_t>(n);
    if (bin.size() >= size) return;
    for (auto* v : {&pg, &ph, &pc, &gain_l, &gain_r}) v->resize(size);
    bin.resize(size);
  }
};

}  // namespace

Trainer::SplitCandidate Trainer::FindSplit(int feature_pos,
                                           const HistogramLayout& layout,
                                           const NodeHistogram& hist,
                                           const NodeStats& parent,
                                           const NodeBounds& bounds) const {
  const int feature = layout.features()[static_cast<size_t>(feature_pos)];
  const int nb = layout.num_bins(feature_pos);
  SplitCandidate best;
  if (nb < 2) return best;
  const HistEntry* slots = hist.feature_slots(layout, feature_pos);
  const HistEntry& miss = hist.miss(feature_pos);
  const int64_t present = parent.count - miss.count;
  const double alpha = params_.reg_alpha;
  const double lambda = params_.reg_lambda;
  const double gamma = params_.gamma;
  const int64_t msl = params_.min_samples_leaf;
  const double mcw = params_.min_child_weight;
  // The soft-thresholded score T_alpha(G)^2 / (H + lambda), inlined so the
  // loop body is just adds, compares, and the two divisions.
  const auto score = [alpha, lambda](double g, double h) {
    const double t = g > alpha ? g - alpha : (g < -alpha ? g + alpha : 0.0);
    return t * t / (h + lambda);
  };
  const double parent_score = score(parent.sum_g, parent.sum_h);
  // Present-value right side = (parent - missing) - left.
  const double gsub = parent.sum_g - miss.sum_g;
  const double hsub = parent.sum_h - miss.sum_h;
  // With no missing mass the two default directions score identically and
  // missing-left wins the tie-break, so the second direction is skipped.
  const bool no_miss =
      miss.count == 0 && miss.sum_g == 0.0 && miss.sum_h == 0.0;
  // Prefix pass with compaction. Every slot is accumulated — subtraction
  // can leave count-0 slots with nonzero sums — but only occupied
  // boundaries are kept: an empty bin repeats its predecessor's partition.
  // Each slot writes position `m` unconditionally and advances it only when
  // occupied, so the compaction needs no branch. Once every present row is
  // on the left, the remaining slots are empty and the pass stops. Counts
  // are carried as doubles (exact for any realistic row count) to keep the
  // gain loops in one vectorizable domain.
  const int nbound = nb - 1;
  thread_local BoundaryScratch scratch;
  scratch.Reserve(nbound);
  double* pg = scratch.pg.data();
  double* ph = scratch.ph.data();
  double* pc = scratch.pc.data();
  double* gain_l = scratch.gain_l.data();
  double* gain_r = scratch.gain_r.data();
  int* bin = scratch.bin.data();
  int m = 0;
  {
    double ag = 0.0, ah = 0.0;
    int64_t ac = 0;
    for (int b = 0; b < nbound; ++b) {
      ag += slots[b].sum_g;
      ah += slots[b].sum_h;
      ac += slots[b].count;
      pg[m] = ag;
      ph[m] = ah;
      pc[m] = static_cast<double>(ac);
      bin[m] = b;
      m += slots[b].count != 0 ? 1 : 0;
      if (ac == present) break;
    }
  }
  // Gain loops over the occupied boundaries: iterations are independent, so
  // the divisions (the per-boundary cost) pipeline instead of serializing
  // behind branches.
  const double msl_d = static_cast<double>(msl);
  const double present_d = static_cast<double>(present);
  const double miss_g = miss.sum_g;
  const double miss_h = miss.sum_h;
  const double miss_c = static_cast<double>(miss.count);
  const double neg_inf = -std::numeric_limits<double>::infinity();
  for (int k = 0; k < m; ++k) {  // Missing goes left.
    const double gl = pg[k] + miss_g;
    const double hl = ph[k] + miss_h;
    const double cl = pc[k] + miss_c;
    const double shr = hsub - ph[k];
    const double scr = present_d - pc[k];
    const double gain =
        0.5 * (score(gl, hl) + score(gsub - pg[k], shr) - parent_score) -
        gamma;
    const bool ok = cl >= msl_d && scr >= msl_d && hl >= mcw && shr >= mcw;
    gain_l[k] = ok ? gain : neg_inf;
  }
  if (!no_miss) {
    for (int k = 0; k < m; ++k) {  // Missing goes right.
      const double sgr = gsub - pg[k];
      const double shr = hsub - ph[k];
      const double gr = sgr + miss_g;
      const double hr = shr + miss_h;
      const double cr = (present_d - pc[k]) + miss_c;
      const double gain =
          0.5 * (score(pg[k], ph[k]) + score(gr, hr) - parent_score) - gamma;
      const bool ok = pc[k] >= msl_d && cr >= msl_d && ph[k] >= mcw &&
                      hr >= mcw;
      gain_r[k] = ok ? gain : neg_inf;
    }
  }
  // Monotone constraints: drop every direction whose child weights break
  // the feature's ordering or leave the node's admissible interval. The
  // comparisons are written so that a NaN weight is never dropped.
  if (!params_.monotone_constraints.empty()) {
    const int constraint = ConstraintOf(feature);
    const auto violates = [&](double gl, double hl, double gr, double hr) {
      const double wl = LeafWeight(gl, hl);
      const double wr = LeafWeight(gr, hr);
      return (constraint > 0 && wl > wr) || (constraint < 0 && wl < wr) ||
             wl < bounds.lower || wl > bounds.upper || wr < bounds.lower ||
             wr > bounds.upper;
    };
    for (int k = 0; k < m; ++k) {
      const double sgr = gsub - pg[k];
      const double shr = hsub - ph[k];
      if (violates(pg[k] + miss_g, ph[k] + miss_h, sgr, shr)) {
        gain_l[k] = neg_inf;
      }
      if (!no_miss && violates(pg[k], ph[k], sgr + miss_g, shr + miss_h)) {
        gain_r[k] = neg_inf;
      }
    }
  }
  // Strict >: bins ascend and missing-left is checked first, so keeping the
  // incumbent on ties prefers the smaller threshold, then missing-left.
  double best_gain = kMinSplitGain;
  int best_k = -1;
  bool best_dir = true;
  for (int k = 0; k < m; ++k) {
    if (gain_l[k] > best_gain) {
      best_gain = gain_l[k];
      best_k = k;
      best_dir = true;
    }
    if (!no_miss && gain_r[k] > best_gain) {
      best_gain = gain_r[k];
      best_k = k;
      best_dir = false;
    }
  }
  if (best_k >= 0) {
    const double gl = best_dir ? pg[best_k] + miss_g : pg[best_k];
    const double hl = best_dir ? ph[best_k] + miss_h : ph[best_k];
    const double gr =
        best_dir ? gsub - pg[best_k] : (gsub - pg[best_k]) + miss_g;
    const double hr =
        best_dir ? hsub - ph[best_k] : (hsub - ph[best_k]) + miss_h;
    best.valid = true;
    best.feature = feature;
    best.threshold = bins_.cut(feature, bin[best_k]);
    best.bin = bin[best_k];
    best.default_left = best_dir;
    best.gain = best_gain;
    best.weight_left = LeafWeight(gl, hl);
    best.weight_right = LeafWeight(gr, hr);
  }
  return best;
}

void Trainer::BuildNode(RegressionTree* tree, int node_id,
                        std::vector<int64_t> rows, int depth,
                        const std::vector<GradientPair>& gpairs,
                        const NodeBounds& bounds,
                        const HistogramLayout& layout, NodeHistogram hist) {
  NodeStats stats;
  for (int64_t r : rows) {
    stats.sum_g += gpairs[static_cast<size_t>(r)].grad;
    stats.sum_h += gpairs[static_cast<size_t>(r)].hess;
  }
  stats.count = static_cast<int64_t>(rows.size());
  tree->mutable_node(node_id)->cover = stats.sum_h;

  const bool can_split = depth < params_.max_depth &&
                         stats.count >= 2 * params_.min_samples_leaf &&
                         stats.sum_h >= 2 * params_.min_child_weight;
  SplitCandidate best;
  if (can_split) {
    if (hist.empty()) {
      // Root (or a node whose parent skipped the subtraction trick): one
      // row-major pass accumulates every feature's histogram at once.
      TraceSpan span("gbt.hist_build", "train");
      span.Arg("rows", static_cast<int64_t>(rows.size()));
      hist = BuildHistogram(layout, binned_, rows, gpairs);
      ++hist_nodes_direct_;
    }
    TraceSpan split_span("gbt.split_find", "train");
    // Features ascend, so keeping the first strictly larger gain breaks ties
    // by gain, then feature, then threshold.
    for (int i = 0; i < layout.num_features(); ++i) {
      const SplitCandidate c = FindSplit(i, layout, hist, stats, bounds);
      if (c.valid && (!best.valid || c.gain > best.gain)) best = c;
    }
  }

  if (!best.valid) {
    TreeNode* leaf = tree->mutable_node(node_id);
    const double weight = std::min(
        bounds.upper,
        std::max(bounds.lower, LeafWeight(stats.sum_g, stats.sum_h)));
    leaf->value = params_.learning_rate * weight;
    for (int64_t r : rows) row_leaf_[static_cast<size_t>(r)] = node_id;
    return;
  }

  const auto [left_id, right_id] = tree->Split(
      node_id, best.feature, best.threshold, best.default_left, best.gain);
  std::vector<int64_t> left_rows, right_rows;
  left_rows.reserve(rows.size());
  right_rows.reserve(rows.size());
  for (int64_t r : rows) {
    const uint8_t b = binned_.At(r, best.feature);
    const bool go_left = b == kMissingBin ? best.default_left
                                          : static_cast<int>(b) <= best.bin;
    (go_left ? left_rows : right_rows).push_back(r);
  }
  rows.clear();
  rows.shrink_to_fit();
  // Sibling subtraction: build only the smaller child's histogram from its
  // rows and derive the larger one as parent − smaller. Skipped when the
  // children cannot split anyway (depth or min_samples_leaf), in which case
  // they are passed empty histograms they will never consult.
  NodeHistogram left_hist, right_hist;
  if (depth + 1 < params_.max_depth &&
      static_cast<int64_t>(std::max(left_rows.size(), right_rows.size())) >=
          2 * params_.min_samples_leaf) {
    const bool left_smaller = left_rows.size() <= right_rows.size();
    NodeHistogram smaller;
    {
      TraceSpan span("gbt.hist_build", "train");
      span.Arg("rows", static_cast<int64_t>(
                           left_smaller ? left_rows.size() : right_rows.size()));
      smaller = BuildHistogram(layout, binned_,
                               left_smaller ? left_rows : right_rows, gpairs);
      ++hist_nodes_direct_;
    }
    NodeHistogram larger;
    {
      TraceSpan subtract_span("gbt.hist_subtract", "train");
      larger = NodeHistogram::Subtract(std::move(hist), smaller);
      ++hist_nodes_subtracted_;
    }
    left_hist = left_smaller ? std::move(smaller) : std::move(larger);
    right_hist = left_smaller ? std::move(larger) : std::move(smaller);
  }
  hist = NodeHistogram();  // release the parent histogram before recursing
  // Propagate monotone weight bounds: when this split is constrained, the
  // children's admissible weights are separated at the midpoint of the
  // candidate child weights (XGBoost's rule).
  NodeBounds left_bounds = bounds;
  NodeBounds right_bounds = bounds;
  const int constraint = ConstraintOf(best.feature);
  if (constraint != 0) {
    const double mid = 0.5 * (best.weight_left + best.weight_right);
    if (constraint > 0) {
      left_bounds.upper = std::min(left_bounds.upper, mid);
      right_bounds.lower = std::max(right_bounds.lower, mid);
    } else {
      left_bounds.lower = std::max(left_bounds.lower, mid);
      right_bounds.upper = std::min(right_bounds.upper, mid);
    }
  }
  BuildNode(tree, left_id, std::move(left_rows), depth + 1, gpairs,
            left_bounds, layout, std::move(left_hist));
  BuildNode(tree, right_id, std::move(right_rows), depth + 1, gpairs,
            right_bounds, layout, std::move(right_hist));
}

RegressionTree Trainer::GrowTree(const std::vector<GradientPair>& gpairs,
                                 std::vector<int64_t> rows,
                                 std::vector<int> features) {
  RegressionTree tree;
  const NodeBounds root_bounds{-std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::infinity()};
  const HistogramLayout layout(bins_, std::move(features));
  BuildNode(&tree, 0, std::move(rows), 0, gpairs, root_bounds, layout,
            NodeHistogram());
  return tree;
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
    for (int64_t i = 0; i < n; ++i) {
      GradientPair gp = objective_->ComputeGradient(
          train_.label(i), raw_train[static_cast<size_t>(i)]);
      if (params_.scale_pos_weight != 1.0 && train_.label(i) == 1.0) {
        gp.grad *= params_.scale_pos_weight;
        gp.hess *= params_.scale_pos_weight;
      }
      gpairs[static_cast<size_t>(i)] = gp;
    }
    // Row subsample. Marking the drawn rows in `row_leaf_` (0: the root)
    // and collecting them in index order yields the sorted sample without
    // a sort; rows left out stay -1 and are walked in the score update.
    std::vector<int64_t> rows;
    if (params_.subsample < 1.0) {
      const auto k = std::max<int64_t>(
          1, static_cast<int64_t>(std::llround(
                 static_cast<double>(n) * params_.subsample)));
      std::fill(row_leaf_.begin(), row_leaf_.end(), -1);
      for (int64_t r : rng_.SampleWithoutReplacement(n, k)) {
        row_leaf_[static_cast<size_t>(r)] = 0;
      }
      rows.reserve(static_cast<size_t>(k));
      for (int64_t i = 0; i < n; ++i) {
        if (row_leaf_[static_cast<size_t>(i)] == 0) rows.push_back(i);
      }
    } else {
      rows.resize(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) rows[static_cast<size_t>(i)] = i;
    }
    // Column subsample.
    std::vector<int> features;
    if (params_.colsample_bytree < 1.0) {
      const auto k = std::max<int64_t>(
          1, static_cast<int64_t>(std::llround(
                 static_cast<double>(nf) * params_.colsample_bytree)));
      for (int64_t f : rng_.SampleWithoutReplacement(nf, k)) {
        features.push_back(static_cast<int>(f));
      }
      std::sort(features.begin(), features.end());
    } else {
      features.resize(static_cast<size_t>(nf));
      for (int64_t f = 0; f < nf; ++f) {
        features[static_cast<size_t>(f)] = static_cast<int>(f);
      }
    }

    RegressionTree tree =
        GrowTree(gpairs, std::move(rows), std::move(features));

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
      // out of the subsample are walked.
      TraceSpan span("gbt.update_scores", "train");
      for (int64_t i = 0; i < n; ++i) {
        const int leaf = row_leaf_[static_cast<size_t>(i)];
        raw_train[static_cast<size_t>(i)] +=
            leaf >= 0 ? tree.node(leaf).value : tree.Predict(train_.row(i));
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
