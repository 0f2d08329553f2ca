/// Unit tests of the split-finding engine itself, on hand-crafted gradient
/// configurations where the optimal split is known analytically, and
/// against an exact greedy search over raw values as the split oracle.

#include "gbt/trainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "util/metrics.h"
#include "util/rng.h"

namespace mysawh::gbt {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A step function in x: y = -1 for x < 0.5, +1 otherwise. The unique
/// optimal first split is at x = 0.5.
Dataset MakeStepData() {
  Dataset ds = Dataset::Create({"x"});
  for (int i = 0; i < 100; ++i) {
    const double x = static_cast<double>(i) / 100.0;
    EXPECT_TRUE(ds.AddRow({x}, x < 0.5 ? -1.0 : 1.0).ok());
  }
  return ds;
}

TEST(TrainerSplitTest, FindsTheStepBoundary) {
  const Dataset train = MakeStepData();
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 1;
  params.learning_rate = 1.0;
  params.reg_lambda = 0.0;
  params.max_bins = 254;
  const GbtModel model = GbtModel::Train(train, params).value();
  ASSERT_EQ(model.trees().size(), 1u);
  const RegressionTree& tree = model.trees()[0];
  ASSERT_EQ(tree.num_nodes(), 3);
  const TreeNode& root = tree.node(0);
  EXPECT_EQ(root.feature, 0);
  EXPECT_NEAR(root.threshold, 0.495, 0.02);
  // Leaf values recover the two levels exactly (lambda = 0, lr = 1).
  EXPECT_NEAR(tree.node(root.left).value, -1.0, 1e-9);
  EXPECT_NEAR(tree.node(root.right).value, 1.0, 1e-9);
  // Split gain for a clean step: 0.5 * (GL^2/HL + GR^2/HR - G^2/H)
  //  = 0.5 * (50 + 50 - 0) = 50.
  EXPECT_NEAR(root.gain, 50.0, 1.0);
}

TEST(TrainerSplitTest, MissingRowsRoutedToBetterSide) {
  // Missing x implies label +1 (same as the right side); the learned
  // default direction must send NaN right.
  Dataset train = Dataset::Create({"x"});
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(train.AddRow({0.1}, -1.0).ok());
    ASSERT_TRUE(train.AddRow({0.9}, 1.0).ok());
    ASSERT_TRUE(train.AddRow({kNaN}, 1.0).ok());
  }
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 1;
  params.learning_rate = 1.0;
  const GbtModel model = GbtModel::Train(train, params).value();
  const RegressionTree& tree = model.trees()[0];
  ASSERT_EQ(tree.num_nodes(), 3);
  EXPECT_FALSE(tree.node(0).default_left);
  const double missing_row[] = {kNaN};
  EXPECT_GT(model.PredictRow(missing_row), 0.5);
}

TEST(TrainerSplitTest, GammaBlocksWeakSplits) {
  // A weak step (levels +-0.1 -> max gain = 0.5) is below gamma = 2.
  Dataset train = Dataset::Create({"x"});
  for (int i = 0; i < 100; ++i) {
    const double x = static_cast<double>(i) / 100.0;
    ASSERT_TRUE(train.AddRow({x}, x < 0.5 ? -0.1 : 0.1).ok());
  }
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 3;
  params.reg_lambda = 0.0;
  params.gamma = 2.0;
  const GbtModel model = GbtModel::Train(train, params).value();
  EXPECT_EQ(model.trees()[0].num_nodes(), 1) << "no split should pass gamma";
  params.gamma = 0.0;
  const GbtModel unblocked = GbtModel::Train(train, params).value();
  EXPECT_GT(unblocked.trees()[0].num_nodes(), 1);
}

TEST(TrainerSplitTest, MinSamplesLeafRespected) {
  const Dataset train = MakeStepData();
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 6;
  params.min_samples_leaf = 20;
  const GbtModel model = GbtModel::Train(train, params).value();
  const RegressionTree& tree = model.trees()[0];
  // Count rows reaching each leaf.
  std::vector<int> counts(static_cast<size_t>(tree.num_nodes()), 0);
  for (int64_t r = 0; r < train.num_rows(); ++r) {
    counts[static_cast<size_t>(tree.GetLeaf(train.row(r)))] += 1;
  }
  for (int i = 0; i < tree.num_nodes(); ++i) {
    if (tree.node(i).IsLeaf()) {
      EXPECT_GE(counts[static_cast<size_t>(i)], 20) << "leaf " << i;
    }
  }
}

TEST(TrainerSplitTest, MinChildWeightRespected) {
  const Dataset train = MakeStepData();
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 6;
  // Squared error: hessian = 1 per row, so cover == row count.
  params.min_child_weight = 30.0;
  const GbtModel model = GbtModel::Train(train, params).value();
  const RegressionTree& tree = model.trees()[0];
  for (int i = 0; i < tree.num_nodes(); ++i) {
    EXPECT_GE(tree.node(i).cover, 30.0 - 1e-9);
  }
}

/// Exact greedy split search over raw feature values, the oracle the hist
/// grower is checked against. At every node it sorts each feature's present
/// values and offers one threshold per distinct node value v: the midpoint
/// between v and the next distinct training value above it. When every
/// feature has at most max_bins distinct values, that is the hist cut of
/// v's bin, and it includes the threshold above the node's largest present
/// value (present rows left, missing rows right). Candidate checks, gains,
/// tie-breaks, leaf weights and monotone bounds follow the trainer's rules
/// for squared error, one tree, and no subsampling.
class ExactGreedyOracle {
 public:
  ExactGreedyOracle(const Dataset& data, const GbtParams& params)
      : data_(data), params_(params) {
    for (int64_t r = 0; r < data.num_rows(); ++r) {
      grad_.push_back(params.base_score - data.label(r));
    }
    distinct_.resize(static_cast<size_t>(data.num_features()));
    for (int64_t f = 0; f < data.num_features(); ++f) {
      auto& values = distinct_[static_cast<size_t>(f)];
      for (int64_t r = 0; r < data.num_rows(); ++r) {
        if (!std::isnan(data.At(r, f))) values.push_back(data.At(r, f));
      }
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
    }
  }

  RegressionTree Grow() const {
    RegressionTree tree;
    std::vector<int64_t> rows(static_cast<size_t>(data_.num_rows()));
    for (size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<int64_t>(r);
    const double inf = std::numeric_limits<double>::infinity();
    Build(&tree, 0, rows, 0, {-inf, inf});
    return tree;
  }

 private:
  struct Bounds {
    double lower;
    double upper;
  };
  struct Split {
    bool valid = false;
    int feature = -1;
    double threshold = 0.0;
    bool default_left = true;
    double gain = 0.0;
    double weight_left = 0.0;
    double weight_right = 0.0;
  };
  struct Entry {
    double value;
    double g;
  };

  double ThresholdL1(double g) const {
    const double alpha = params_.reg_alpha;
    return g > alpha ? g - alpha : (g < -alpha ? g + alpha : 0.0);
  }
  double Score(double g, double h) const {
    const double t = ThresholdL1(g);
    return t * t / (h + params_.reg_lambda);
  }
  double Weight(double g, double h) const {
    return -ThresholdL1(g) / (h + params_.reg_lambda);
  }
  int ConstraintOf(int feature) const {
    return params_.monotone_constraints.empty()
               ? 0
               : params_.monotone_constraints[static_cast<size_t>(feature)];
  }

  /// Scores both missing directions of one partition into `best`. Hessians
  /// are 1 per row, so a side's hessian sum is its row count.
  void Consider(int feature, double threshold, double sum_g, double sum_h,
                double left_g, double left_h, double miss_g, double miss_h,
                const Bounds& bounds, Split* best) const {
    const double parent_score = Score(sum_g, sum_h);
    const double right_g = sum_g - miss_g - left_g;
    const double right_h = sum_h - miss_h - left_h;
    for (const bool miss_left : {true, false}) {
      if (!miss_left && miss_h == 0.0) break;
      const double gl = left_g + (miss_left ? miss_g : 0.0);
      const double hl = left_h + (miss_left ? miss_h : 0.0);
      const double gr = right_g + (miss_left ? 0.0 : miss_g);
      const double hr = right_h + (miss_left ? 0.0 : miss_h);
      const double min_rows = static_cast<double>(params_.min_samples_leaf);
      if (hl < min_rows || hr < min_rows) continue;
      if (hl < params_.min_child_weight || hr < params_.min_child_weight) {
        continue;
      }
      const double gain =
          0.5 * (Score(gl, hl) + Score(gr, hr) - parent_score) -
          params_.gamma;
      if (gain <= 1e-10) continue;  // the trainer's minimum split gain
      const double wl = Weight(gl, hl);
      const double wr = Weight(gr, hr);
      const int constraint = ConstraintOf(feature);
      if (constraint > 0 && wl > wr) continue;
      if (constraint < 0 && wl < wr) continue;
      if (wl < bounds.lower || wl > bounds.upper || wr < bounds.lower ||
          wr > bounds.upper) {
        continue;
      }
      const bool better =
          !best->valid || gain > best->gain ||
          (gain == best->gain &&
           (feature < best->feature ||
            (feature == best->feature && threshold < best->threshold)));
      if (better) *best = {true, feature, threshold, miss_left, gain, wl, wr};
    }
  }

  void ScanFeature(int feature, const std::vector<int64_t>& rows,
                   double sum_g, double sum_h, const Bounds& bounds,
                   Split* best) const {
    std::vector<Entry> entries;
    double miss_g = 0.0, miss_h = 0.0;
    for (int64_t r : rows) {
      const double v = data_.At(r, feature);
      const double g = grad_[static_cast<size_t>(r)];
      if (std::isnan(v)) {
        miss_g += g;
        miss_h += 1.0;
      } else {
        entries.push_back({v, g});
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.value < b.value; });
    const auto& distinct = distinct_[static_cast<size_t>(feature)];
    double left_g = 0.0, left_h = 0.0;
    for (size_t i = 0; i < entries.size(); ++i) {
      left_g += entries[i].g;
      left_h += 1.0;
      if (i + 1 < entries.size() && entries[i + 1].value == entries[i].value) {
        continue;
      }
      const auto next =
          std::upper_bound(distinct.begin(), distinct.end(), entries[i].value);
      if (next == distinct.end()) break;  // no cut above the training max
      Consider(feature, 0.5 * (entries[i].value + *next), sum_g, sum_h,
               left_g, left_h, miss_g, miss_h, bounds, best);
    }
  }

  void Build(RegressionTree* tree, int node_id,
             const std::vector<int64_t>& rows, int depth,
             const Bounds& bounds) const {
    double sum_g = 0.0;
    for (int64_t r : rows) sum_g += grad_[static_cast<size_t>(r)];
    const auto sum_h = static_cast<double>(rows.size());
    tree->mutable_node(node_id)->cover = sum_h;
    Split best;
    if (depth < params_.max_depth &&
        static_cast<int64_t>(rows.size()) >= 2 * params_.min_samples_leaf &&
        sum_h >= 2 * params_.min_child_weight) {
      for (int f = 0; f < data_.num_features(); ++f) {
        ScanFeature(f, rows, sum_g, sum_h, bounds, &best);
      }
    }
    if (!best.valid) {
      tree->mutable_node(node_id)->value =
          params_.learning_rate *
          std::min(bounds.upper, std::max(bounds.lower, Weight(sum_g, sum_h)));
      return;
    }
    const auto [left_id, right_id] = tree->Split(
        node_id, best.feature, best.threshold, best.default_left, best.gain);
    std::vector<int64_t> left_rows, right_rows;
    for (int64_t r : rows) {
      const double v = data_.At(r, best.feature);
      const bool go_left =
          std::isnan(v) ? best.default_left : v < best.threshold;
      (go_left ? left_rows : right_rows).push_back(r);
    }
    Bounds left_bounds = bounds;
    Bounds right_bounds = bounds;
    const int constraint = ConstraintOf(best.feature);
    const double mid = 0.5 * (best.weight_left + best.weight_right);
    if (constraint > 0) {
      left_bounds.upper = std::min(left_bounds.upper, mid);
      right_bounds.lower = std::max(right_bounds.lower, mid);
    } else if (constraint < 0) {
      left_bounds.lower = std::max(left_bounds.lower, mid);
      right_bounds.upper = std::min(right_bounds.upper, mid);
    }
    Build(tree, left_id, left_rows, depth + 1, left_bounds);
    Build(tree, right_id, right_rows, depth + 1, right_bounds);
  }

  const Dataset& data_;
  const GbtParams params_;
  std::vector<double> grad_;  ///< Squared-error gradients at base_score.
  std::vector<std::vector<double>> distinct_;
};

/// Four features with 3 to 40 distinct values each, 15% missing cells, and
/// integer labels. Every feature fits the default 64 bins one value per
/// bin, and with base_score 0 every gradient is an integer, so every sum
/// is exact in any order and hist must reproduce the oracle bit for bit.
Dataset MakeLosslessBinData(uint64_t seed) {
  Rng rng(seed);
  const int levels[] = {3, 7, 18, 40};
  Dataset ds = Dataset::Create({"a", "b", "c", "d"});
  for (int r = 0; r < 400; ++r) {
    std::vector<double> x(4);
    double signal = 0.0;
    for (size_t f = 0; f < x.size(); ++f) {
      const auto level = rng.UniformInt(0, levels[f] - 1);
      x[f] = 0.37 * static_cast<double>(level) - 2.0;
      signal += (f % 2 == 0 ? 1.0 : -1.0) * x[f];
      if (rng.Bernoulli(0.15)) x[f] = kNaN;
    }
    const double y = std::round(2.0 * signal) +
                     static_cast<double>(rng.UniformInt(-3, 3));
    EXPECT_TRUE(ds.AddRow(x, y).ok());
  }
  return ds;
}

RegressionTree TrainOneTree(const Dataset& train, const GbtParams& params) {
  return GbtModel::Train(train, params).value().trees()[0];
}

void ExpectMatchesOracle(const RegressionTree& tree, const Dataset& train,
                         const GbtParams& params) {
  const RegressionTree ref = ExactGreedyOracle(train, params).Grow();
  ASSERT_EQ(tree.num_nodes(), ref.num_nodes());
  ASSERT_GT(tree.num_nodes(), 1);
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const TreeNode& a = tree.node(i);
    const TreeNode& b = ref.node(i);
    EXPECT_EQ(a.left, b.left) << "node " << i;
    EXPECT_EQ(a.right, b.right) << "node " << i;
    EXPECT_EQ(a.feature, b.feature) << "node " << i;
    EXPECT_EQ(a.threshold, b.threshold) << "node " << i;
    EXPECT_EQ(a.default_left, b.default_left) << "node " << i;
    EXPECT_EQ(a.gain, b.gain) << "node " << i;
    EXPECT_EQ(a.value, b.value) << "node " << i;
  }
}

GbtParams OracleParams() {
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 4;
  params.base_score = 0.0;
  return params;
}

TEST(TrainerSplitTest, MatchesExactGreedyOracle) {
  const GbtParams params = OracleParams();
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const Dataset train = MakeLosslessBinData(seed);
    ExpectMatchesOracle(TrainOneTree(train, params), train, params);
  }
}

TEST(TrainerSplitTest, MatchesExactGreedyOracleUnderMonotoneConstraints) {
  const GbtParams unconstrained = OracleParams();
  GbtParams params = unconstrained;
  int changed = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const Dataset train = MakeLosslessBinData(seed);
    // The label rises with a and c and falls with b and d. Two features are
    // constrained along that trend and two against it, pairing by seed.
    params.monotone_constraints =
        seed % 2 == 0 ? std::vector<int>{+1, +1, -1, -1}
                      : std::vector<int>{+1, -1, -1, +1};
    const RegressionTree tree = TrainOneTree(train, params);
    ExpectMatchesOracle(tree, train, params);
    const RegressionTree free = TrainOneTree(train, unconstrained);
    bool same = tree.num_nodes() == free.num_nodes();
    for (int i = 0; same && i < tree.num_nodes(); ++i) {
      same = tree.node(i).feature == free.node(i).feature &&
             tree.node(i).threshold == free.node(i).threshold;
    }
    changed += same ? 0 : 1;
  }
  EXPECT_GE(changed, 30) << "the constraints must bind on most seeds";
}

TEST(TrainerTest, L2ShrinksLeafValues) {
  const Dataset train = MakeStepData();
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 1;
  params.learning_rate = 1.0;
  params.reg_lambda = 50.0;  // 50 rows per leaf -> weight halves
  params.max_bins = 254;     // one bin per value: an exact 50/50 split
  const GbtModel model = GbtModel::Train(train, params).value();
  const RegressionTree& tree = model.trees()[0];
  ASSERT_EQ(tree.num_nodes(), 3);
  EXPECT_NEAR(tree.node(tree.node(0).right).value, 0.5, 1e-9);
}

/// The histogram-pipeline node counters moved from TrainingLog into the
/// metrics registry; training twice with identical parameters must produce
/// identical per-run deltas through the new API.
TEST(TrainerTest, HistNodeCountersReportedThroughRegistry) {
  auto& registry = MetricsRegistry::Global();
  Counter* direct = registry.GetCounter("gbt.train.hist_nodes_direct");
  Counter* subtracted =
      registry.GetCounter("gbt.train.hist_nodes_subtracted");
  Counter* trees = registry.GetCounter("gbt.train.trees_grown");

  const Dataset train = MakeStepData();
  GbtParams params;
  params.num_trees = 4;
  params.max_depth = 3;  // deep enough for the sibling-subtraction trick

  auto train_once = [&] {
    const int64_t d0 = direct->Value();
    const int64_t s0 = subtracted->Value();
    const int64_t t0 = trees->Value();
    EXPECT_TRUE(GbtModel::Train(train, params).ok());
    return std::array<int64_t, 3>{direct->Value() - d0,
                                  subtracted->Value() - s0,
                                  trees->Value() - t0};
  };
  const auto first = train_once();
  const auto second = train_once();
  EXPECT_EQ(first, second) << "training is deterministic, so the registry "
                              "deltas must match run to run";
  EXPECT_GT(first[0], 0) << "hist mode accumulates node histograms";
  EXPECT_GT(first[1], 0) << "depth 3 must exercise sibling subtraction";
  EXPECT_EQ(first[2], 4) << "one trees_grown increment per boosted tree";
}

TEST(TrainerTest, L1ZeroesSmallLeaves) {
  // With alpha larger than |G| of a leaf, its weight is exactly zero.
  Dataset train = Dataset::Create({"x"});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(train.AddRow({static_cast<double>(i)}, 0.01).ok());
  }
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 1;
  params.learning_rate = 1.0;
  params.reg_alpha = 1.0;  // |G| = 0.1 at the root
  params.base_score = 0.0;
  const GbtModel model = GbtModel::Train(train, params).value();
  const double row[] = {5.0};
  EXPECT_DOUBLE_EQ(model.PredictRow(row), 0.0);
}

}  // namespace
}  // namespace mysawh::gbt
