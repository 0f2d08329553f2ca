#include "gbt/gbt_model.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/audit_log.h"
#include "reference_walkers.h"
#include "util/rng.h"
#include "util/serialization.h"
#include "util/string_util.h"

namespace mysawh::gbt {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// y = x0^2 - 2*x1 with noise; a smooth nonlinear regression task.
Dataset MakeRegressionData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset ds = Dataset::Create({"x0", "x1"});
  for (int64_t i = 0; i < n; ++i) {
    const double x0 = rng.Uniform(-2.0, 2.0);
    const double x1 = rng.Uniform(-1.0, 1.0);
    const double y = x0 * x0 - 2.0 * x1 + rng.Normal(0.0, 0.05);
    EXPECT_TRUE(ds.AddRow({x0, x1}, y).ok());
  }
  return ds;
}

/// Binary task separable by x0 > 0.3 XOR-free.
Dataset MakeClassificationData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset ds = Dataset::Create({"x0", "x1"});
  for (int64_t i = 0; i < n; ++i) {
    const double x0 = rng.Uniform(-1.0, 1.0);
    const double x1 = rng.Uniform(-1.0, 1.0);
    const double label = (x0 + 0.4 * x1 > 0.2) ? 1.0 : 0.0;
    EXPECT_TRUE(ds.AddRow({x0, x1}, label).ok());
  }
  return ds;
}

double Rmse(const std::vector<double>& y, const std::vector<double>& p) {
  double ss = 0;
  for (size_t i = 0; i < y.size(); ++i) ss += (y[i] - p[i]) * (y[i] - p[i]);
  return std::sqrt(ss / static_cast<double>(y.size()));
}

TEST(GbtModelTest, FitsNonlinearRegression) {
  const Dataset train = MakeRegressionData(2000, 1);
  const Dataset test = MakeRegressionData(500, 2);
  GbtParams params;
  params.num_trees = 150;
  params.learning_rate = 0.1;
  const GbtModel model = GbtModel::Train(train, params).value();
  const auto preds = model.Predict(test).value();
  EXPECT_LT(Rmse(test.labels(), preds), 0.15);
}

TEST(GbtModelTest, ClassifiesSeparableData) {
  const Dataset train = MakeClassificationData(2000, 5);
  const Dataset test = MakeClassificationData(500, 6);
  GbtParams params;
  params.objective = ObjectiveType::kLogistic;
  params.num_trees = 100;
  const GbtModel model = GbtModel::Train(train, params).value();
  const auto preds = model.Predict(test).value();
  int64_t correct = 0;
  for (size_t i = 0; i < preds.size(); ++i) {
    EXPECT_GE(preds[i], 0.0);
    EXPECT_LE(preds[i], 1.0);
    correct += (preds[i] >= 0.5) == (test.label(static_cast<int64_t>(i)) > 0.5);
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(preds.size()),
            0.95);
}

TEST(GbtModelTest, LearnsMissingValueDirection) {
  // Missing x0 implies high label; model must route NaN accordingly.
  Rng rng(7);
  Dataset train = Dataset::Create({"x0"});
  for (int i = 0; i < 1000; ++i) {
    if (rng.Bernoulli(0.3)) {
      ASSERT_TRUE(train.AddRow({kNaN}, 5.0 + rng.Normal(0, 0.01)).ok());
    } else {
      const double x = rng.Uniform(0.0, 1.0);
      ASSERT_TRUE(train.AddRow({x}, x + rng.Normal(0, 0.01)).ok());
    }
  }
  GbtParams params;
  params.num_trees = 50;
  const GbtModel model = GbtModel::Train(train, params).value();
  const double missing_row[] = {kNaN};
  EXPECT_NEAR(model.PredictRow(missing_row), 5.0, 0.2);
  const double present_row[] = {0.5};
  EXPECT_NEAR(model.PredictRow(present_row), 0.5, 0.2);
}

TEST(GbtModelTest, DeterministicGivenSeed) {
  const Dataset train = MakeRegressionData(500, 8);
  GbtParams params;
  params.num_trees = 30;
  params.subsample = 0.7;
  params.colsample_bytree = 0.5;
  params.seed = 99;
  const GbtModel a = GbtModel::Train(train, params).value();
  const GbtModel b = GbtModel::Train(train, params).value();
  EXPECT_EQ(a.Serialize(), b.Serialize());
}

TEST(GbtModelTest, EarlyStoppingTruncates) {
  const Dataset train = MakeRegressionData(800, 9);
  const Dataset valid = MakeRegressionData(200, 10);
  GbtParams params;
  params.num_trees = 400;
  params.learning_rate = 0.3;
  params.early_stopping_rounds = 10;
  TrainingLog log;
  const GbtModel model = GbtModel::Train(train, params, &valid, &log).value();
  EXPECT_LT(static_cast<int>(model.trees().size()), 400);
  EXPECT_EQ(static_cast<int>(model.trees().size()),
            model.best_iteration() + 1);
  EXPECT_FALSE(log.rounds.empty());
  EXPECT_EQ(log.metric_name, "rmse");
}

TEST(GbtModelTest, EarlyStoppingRequiresValidation) {
  const Dataset train = MakeRegressionData(100, 11);
  GbtParams params;
  params.early_stopping_rounds = 5;
  EXPECT_FALSE(GbtModel::Train(train, params).ok());
}

TEST(GbtModelTest, SerializationRoundTripsPredictions) {
  const Dataset train = MakeRegressionData(600, 12);
  const Dataset test = MakeRegressionData(50, 13);
  GbtParams params;
  params.num_trees = 40;
  params.subsample = 0.8;
  const GbtModel model = GbtModel::Train(train, params).value();
  const GbtModel loaded = GbtModel::Deserialize(model.Serialize()).value();
  EXPECT_EQ(loaded.feature_names(), model.feature_names());
  EXPECT_EQ(loaded.objective_type(), model.objective_type());
  for (int64_t r = 0; r < test.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(loaded.PredictRow(test.row(r)),
                     model.PredictRow(test.row(r)));
  }
}

TEST(GbtModelTest, FingerprintHashesSerializeAndIsSharedByCopies) {
  EXPECT_EQ(GbtModel().fingerprint(), 0u);
  const Dataset train = MakeRegressionData(300, 5);
  GbtParams params;
  params.num_trees = 20;
  const GbtModel model = GbtModel::Train(train, params).value();
  const std::string serialized = model.Serialize();
  const uint64_t expected =
      core::HashBytes(serialized.data(), serialized.size());
  const GbtModel copy = model;  // copied before the first use
  EXPECT_EQ(copy.fingerprint(), expected);
  EXPECT_EQ(model.fingerprint(), expected);
  // A reloaded model is the same model.
  EXPECT_EQ(GbtModel::Deserialize(serialized).value().fingerprint(),
            expected);
  // A different forest is a different model.
  params.num_trees = 21;
  EXPECT_NE(GbtModel::Train(train, params).value().fingerprint(), expected);
}

TEST(GbtModelTest, SaveLoadFile) {
  const Dataset train = MakeRegressionData(200, 14);
  GbtParams params;
  params.num_trees = 10;
  const GbtModel model = GbtModel::Train(train, params).value();
  const std::string path = ::testing::TempDir() + "/gbt_model_test.txt";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  const auto loaded = mysawh::model::Model::LoadFromFile(path).value();
  EXPECT_EQ(loaded->Kind(), "gbt");
  EXPECT_EQ(loaded->Serialize(), model.Serialize());
  std::remove(path.c_str());
}

TEST(GbtModelTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(GbtModel::Deserialize("not a model").ok());
  EXPECT_FALSE(GbtModel::Deserialize("mysawh-gbt v1\njunk").ok());
}

TEST(GbtModelTest, DeserializeRejectsOutOfWidthSplitFeature) {
  // Regression test for the load-path bounds contract: Predict indexes the
  // input row by node feature without a per-call check, so a model whose
  // serialized tree references feature 57 in a 2-feature space must be
  // rejected at Deserialize (via Validate(num_features)), never loaded.
  const Dataset train = MakeRegressionData(200, 17);
  GbtParams params;
  params.num_trees = 3;
  params.max_depth = 3;
  const GbtModel model = GbtModel::Train(train, params).value();
  const std::string good = model.Serialize();
  ASSERT_TRUE(GbtModel::Deserialize(good).ok());
  // Node lines are "<left> <right> <feature> ..."; rewrite the first split
  // node's feature index to one far beyond the declared width.
  std::istringstream is(good);
  std::ostringstream os;
  std::string line;
  bool tampered = false;
  while (std::getline(is, line)) {
    if (!tampered && !line.empty() && line.find(' ') != std::string::npos &&
        (std::isdigit(line[0]) != 0 || line[0] == '-')) {
      auto fields = Split(line, ' ');
      if (fields.size() == 8 && fields[2] != "-1" && fields[0] != "-1") {
        fields[2] = "57";
        line = Join(fields, " ");
        tampered = true;
      }
    }
    os << line << "\n";
  }
  ASSERT_TRUE(tampered);
  EXPECT_FALSE(GbtModel::Deserialize(os.str()).ok());
}

/// A header-less payload over features x0 and x1 whose tree section is
/// `trees`: a "num_trees" line and the tree blocks.
std::string PayloadWithTrees(const std::string& trees) {
  return "mysawh-gbt v1\nobjective reg:squarederror\nbase_score " +
         EncodeDouble(0.0) +
         "\nbest_iteration 0\nnum_features 2\nfeature x0\nfeature x1\n" +
         trees;
}

/// A single-leaf tree block.
std::string LeafTree(double value) {
  TreeNode leaf;
  leaf.value = value;
  leaf.cover = 1.0;
  return "tree 1\n" + TreeNodeToText(leaf) + "\n";
}

/// A stump block splitting feature x0 at 0.5, with the root's left child
/// and feature fields spelled as given.
std::string StumpTree(const std::string& left, const std::string& feature) {
  TreeNode leaf;
  leaf.cover = 1.0;
  return "tree 3\n" + left + " 2 " + feature + " " + EncodeDouble(0.5) +
         " 1 0 0 " + EncodeDouble(2.0) + "\n" + TreeNodeToText(leaf) + "\n" +
         TreeNodeToText(leaf) + "\n";
}

TEST(GbtModelTest, DeserializeRejectsSelfContradictoryText) {
  // Each well-formed twin loads; each contradiction is InvalidArgument
  // instead of a silently different forest.
  ASSERT_TRUE(GbtModel::Deserialize(PayloadWithTrees("num_trees 0\n")).ok());
  const auto negative =
      GbtModel::Deserialize(PayloadWithTrees("num_trees -4\n"));
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);

  const std::string two_trees = LeafTree(1.0) + LeafTree(2.0);
  const GbtModel both =
      GbtModel::Deserialize(PayloadWithTrees("num_trees 2\n" + two_trees))
          .value();
  const double row[] = {0.0, 0.0};
  EXPECT_EQ(both.PredictRowRaw(row), 3.0);
  const auto undercounted =
      GbtModel::Deserialize(PayloadWithTrees("num_trees 1\n" + two_trees));
  EXPECT_EQ(undercounted.status().code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(GbtModel::Deserialize(
                  PayloadWithTrees("num_trees 1\n" + StumpTree("1", "0")))
                  .ok());
  // 4294967297 and 4294967296 would wrap to the valid 1 and 0 in int32.
  const auto wrapped = GbtModel::Deserialize(PayloadWithTrees(
      "num_trees 1\n" + StumpTree("4294967297", "4294967296")));
  EXPECT_EQ(wrapped.status().code(), StatusCode::kInvalidArgument);
}

TEST(GbtModelTest, GainImportanceIdentifiesSignalFeature) {
  // x1 carries all the signal; x0 is noise.
  Rng rng(15);
  Dataset train = Dataset::Create({"noise", "signal"});
  for (int i = 0; i < 1000; ++i) {
    const double noise = rng.Uniform(0, 1);
    const double signal = rng.Uniform(0, 1);
    ASSERT_TRUE(train.AddRow({noise, signal}, 3.0 * signal).ok());
  }
  GbtParams params;
  params.num_trees = 30;
  const GbtModel model = GbtModel::Train(train, params).value();
  const auto importance = model.GainImportance();
  ASSERT_TRUE(importance.count("signal"));
  const double noise_gain =
      importance.count("noise") ? importance.at("noise") : 0.0;
  EXPECT_GT(importance.at("signal"), 10.0 * (noise_gain + 1e-9));
  const auto counts = model.SplitCountImportance();
  EXPECT_GT(counts.at("signal"), 0);
}

TEST(GbtModelTest, CoverImportanceTracksUsage) {
  Rng rng(25);
  Dataset train = Dataset::Create({"used", "unused"});
  for (int i = 0; i < 500; ++i) {
    const double used = rng.Uniform(0, 1);
    ASSERT_TRUE(train.AddRow({used, 0.0}, 2.0 * used).ok());
  }
  GbtParams params;
  params.num_trees = 20;
  const GbtModel model = GbtModel::Train(train, params).value();
  const auto cover = model.CoverImportance();
  ASSERT_TRUE(cover.count("used"));
  EXPECT_GT(cover.at("used"), 0.0);
  EXPECT_EQ(cover.count("unused"), 0u);
}

TEST(GbtModelTest, ConstantLabelsYieldConstantPrediction) {
  Dataset train = Dataset::Create({"x"});
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(train.AddRow({static_cast<double>(i)}, 7.0).ok());
  }
  GbtParams params;
  params.num_trees = 5;
  const GbtModel model = GbtModel::Train(train, params).value();
  const double row[] = {25.0};
  EXPECT_NEAR(model.PredictRow(row), 7.0, 1e-9);
}

TEST(GbtModelTest, PredictStagedConvergesToFinal) {
  const Dataset train = MakeRegressionData(500, 21);
  GbtParams params;
  params.num_trees = 30;
  const GbtModel model = GbtModel::Train(train, params).value();
  const Dataset test = MakeRegressionData(40, 22);
  const auto stages = model.PredictStaged(test, 10).value();
  ASSERT_EQ(stages.size(), 3u);  // after 10, 20, 30 trees
  const auto final_preds = model.Predict(test).value();
  for (size_t i = 0; i < final_preds.size(); ++i) {
    EXPECT_DOUBLE_EQ(stages.back()[i], final_preds[i]);
  }
  // Earlier stages are worse or equal on training-like data.
  EXPECT_NE(stages.front(), stages.back());
}

TEST(GbtModelTest, PredictStagedValidates) {
  const Dataset train = MakeRegressionData(100, 23);
  GbtParams params;
  params.num_trees = 5;
  const GbtModel model = GbtModel::Train(train, params).value();
  EXPECT_FALSE(model.PredictStaged(train, 0).ok());
  Dataset narrow = Dataset::Create({"x"});
  ASSERT_TRUE(narrow.AddRow({1.0}, 0.0).ok());
  EXPECT_FALSE(model.PredictStaged(narrow, 1).ok());
}

TEST(GbtModelTest, PoissonObjectiveFitsCounts) {
  Rng rng(24);
  Dataset train = Dataset::Create({"rate"});
  for (int i = 0; i < 3000; ++i) {
    const double rate = rng.Uniform(0.5, 6.0);
    ASSERT_TRUE(train
                    .AddRow({rate}, static_cast<double>(rng.Poisson(rate)))
                    .ok());
  }
  GbtParams params;
  params.objective = ObjectiveType::kPoisson;
  params.num_trees = 80;
  const GbtModel model = GbtModel::Train(train, params).value();
  for (double rate : {1.0, 3.0, 5.0}) {
    const double row[] = {rate};
    const double pred = model.PredictRow(row);
    EXPECT_GT(pred, 0.0) << "Poisson predictions are positive";
    EXPECT_NEAR(pred, rate, 0.5) << "rate=" << rate;
  }
}

TEST(GbtModelTest, RejectsBadInputs) {
  Dataset empty = Dataset::Create({"x"});
  GbtParams params;
  EXPECT_FALSE(GbtModel::Train(empty, params).ok());
  Dataset no_features = Dataset::Create({});
  EXPECT_FALSE(GbtModel::Train(no_features, params).ok());
  Dataset train = MakeRegressionData(50, 16);
  params.learning_rate = 0.0;
  EXPECT_FALSE(GbtModel::Train(train, params).ok());
}

TEST(GbtModelTest, PredictChecksWidth) {
  const Dataset train = MakeRegressionData(100, 17);
  GbtParams params;
  params.num_trees = 5;
  const GbtModel model = GbtModel::Train(train, params).value();
  Dataset wrong = Dataset::Create({"only_one"});
  ASSERT_TRUE(wrong.AddRow({1.0}, 0.0).ok());
  EXPECT_FALSE(model.Predict(wrong).ok());
}

TEST(GbtModelTest, TreesSatisfyStructuralInvariants) {
  const Dataset train = MakeRegressionData(500, 18);
  GbtParams params;
  params.num_trees = 25;
  params.subsample = 0.8;
  const GbtModel model = GbtModel::Train(train, params).value();
  for (const auto& tree : model.trees()) {
    EXPECT_TRUE(tree.Validate().ok());
    EXPECT_LE(reference::MaxDepth(tree), params.max_depth);
  }
}

TEST(GbtModelTest, ScalePosWeightIncreasesMinorityRecall) {
  // Imbalanced task: 5% positives with weak signal.
  Rng rng(19);
  Dataset train = Dataset::Create({"x"});
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.Uniform(0, 1);
    const double p = 0.02 + 0.25 * x;
    ASSERT_TRUE(train.AddRow({x}, rng.Bernoulli(p) ? 1.0 : 0.0).ok());
  }
  GbtParams params;
  params.objective = ObjectiveType::kLogistic;
  params.num_trees = 50;
  const GbtModel plain = GbtModel::Train(train, params).value();
  params.scale_pos_weight = 8.0;
  const GbtModel weighted = GbtModel::Train(train, params).value();
  const double row[] = {0.9};
  EXPECT_GT(weighted.PredictRow(row), plain.PredictRow(row));
}

/// Depth sweep: deeper trees never use more than allowed depth and training
/// remains finite.
class DepthSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(DepthSweepTest, RespectsMaxDepth) {
  const Dataset train = MakeRegressionData(400, 20);
  GbtParams params;
  params.num_trees = 10;
  params.max_depth = GetParam();
  const GbtModel model = GbtModel::Train(train, params).value();
  for (const auto& tree : model.trees()) {
    EXPECT_LE(reference::MaxDepth(tree), GetParam());
  }
  const double row[] = {0.5, 0.5};
  EXPECT_TRUE(std::isfinite(model.PredictRow(row)));
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthSweepTest,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace mysawh::gbt
