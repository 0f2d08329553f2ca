/// Unit tests of the compiled flat-forest inference block: exact
/// equivalence with the pointer-walker oracles on every prediction and
/// explanation path, and the compile gates that reject a forest the
/// encoding cannot hold.

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "explain/tree_shap.h"
#include "gbt/flat_forest.h"
#include "gbt/gbt_model.h"
#include "reference_walkers.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/serialization.h"

namespace mysawh::gbt {
namespace {

using reference::ReferencePredictRaw;
using reference::ReferenceShap;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Dataset MakeData(int64_t rows, uint64_t seed, double missing_rate = 0.1) {
  Rng rng(seed);
  Dataset ds = Dataset::Create({"a", "b", "c", "d"});
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<double> x(4);
    for (auto& v : x) {
      v = rng.Uniform(0, 1) < missing_rate ? kNaN : rng.Uniform(-2, 2);
    }
    const double a = std::isnan(x[0]) ? 0.0 : x[0];
    const double b = std::isnan(x[1]) ? 0.0 : x[1];
    EXPECT_TRUE(ds.AddRow(x, std::sin(a) + b * b + rng.Normal(0, 0.1)).ok());
  }
  return ds;
}

GbtModel TrainModel(const Dataset& train) {
  GbtParams params;
  params.num_trees = 20;
  params.max_depth = 4;
  return GbtModel::Train(train, params).value();
}

TEST(FlatForestTest, PredictRawBitIdenticalToReferenceWalker) {
  const Dataset train = MakeData(600, 1);
  const GbtModel model = TrainModel(train);
  ASSERT_NE(model.flat_forest(), nullptr);
  const Dataset probe = MakeData(257, 2, /*missing_rate=*/0.25);
  const std::vector<double> flat = model.PredictRaw(probe).value();
  const std::vector<double> reference = ReferencePredictRaw(model, probe);
  ASSERT_EQ(flat.size(), reference.size());
  for (size_t r = 0; r < flat.size(); ++r) {
    // Bit identity, not closeness: same additions in the same order.
    EXPECT_EQ(flat[r], reference[r]) << "row " << r;
  }
}

TEST(FlatForestTest, CompiledShapeMatchesTheTrees) {
  const Dataset train = MakeData(400, 3);
  const GbtModel model = TrainModel(train);
  const FlatForest* flat = model.flat_forest();
  ASSERT_NE(flat, nullptr);
  int64_t internal = 0, leaves = 0;
  for (const auto& tree : model.trees()) {
    for (int i = 0; i < tree.num_nodes(); ++i) {
      (tree.node(i).IsLeaf() ? leaves : internal) += 1;
    }
  }
  EXPECT_EQ(flat->num_nodes(), internal);
  EXPECT_EQ(flat->num_leaves(), leaves);
  EXPECT_EQ(flat->num_trees(), static_cast<int>(model.trees().size()));
  EXPECT_EQ(flat->num_features(), model.num_features());
}

TEST(FlatForestTest, BinRowMatchesThresholdComparisons) {
  // A hand-built tree: bin quantization must reproduce v < t for values
  // on, between, and beyond the cuts, including -0.0 and infinities.
  std::vector<TreeNode> nodes(3);
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[0].feature = 0;
  nodes[0].threshold = 0.0;
  nodes[0].cover = 2.0;
  nodes[1].value = -1.0;
  nodes[1].cover = 1.0;
  nodes[2].value = 1.0;
  nodes[2].cover = 1.0;
  std::vector<RegressionTree> trees;
  trees.push_back(RegressionTree::FromNodes(std::move(nodes)));
  const FlatForest flat = FlatForest::Compile(trees, 1).value();
  for (double v : {-1.0, -0.0, 0.0, 0.5, 1.0,
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::infinity()}) {
    uint8_t bin = 0;
    flat.BinRow(&v, &bin);
    const bool flat_left = bin < flat.bin_threshold(flat.root(0));
    EXPECT_EQ(flat_left, v < 0.0) << "v=" << v;
  }
  double nan = kNaN;
  uint8_t bin = 0;
  flat.BinRow(&nan, &bin);
  EXPECT_EQ(bin, kMissingBin);
}

/// A depth-1 tree splitting `feature` at `threshold`, with non-dyadic leaves
/// so that a different summation order would show.
RegressionTree Stump(int t, int feature, double threshold) {
  std::vector<TreeNode> nodes(3);
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[0].feature = feature;
  nodes[0].threshold = threshold;
  nodes[0].default_left = t % 2 == 0;
  nodes[0].cover = 2.0;
  nodes[1].value = -1.0 / (t + 3);
  nodes[1].cover = 1.0;
  nodes[2].value = 1.0 / (t + 7);
  nodes[2].cover = 1.0;
  return RegressionTree::FromNodes(std::move(nodes));
}

/// `trees` as a model file payload over MakeData's four features (or over
/// `num_features` features named f0, f1, ... when given).
std::string ModelText(const std::vector<RegressionTree>& trees,
                      int64_t num_features = -1) {
  std::string text = "mysawh-gbt v1\nobjective ";
  text += ObjectiveTypeName(ObjectiveType::kSquaredError);
  text += "\nbase_score " + EncodeDouble(0.5) + "\nbest_iteration " +
          std::to_string(static_cast<int>(trees.size()) - 1) + "\n";
  if (num_features < 0) {
    text += "num_features 4\nfeature a\nfeature b\nfeature c\nfeature d\n";
  } else {
    text += "num_features ";
    text += std::to_string(num_features);
    for (int64_t f = 0; f < num_features; ++f) {
      text += "\nfeature f";
      text += std::to_string(f);
    }
    text += "\n";
  }
  text += "num_trees " + std::to_string(trees.size()) + "\n";
  for (const RegressionTree& tree : trees) {
    text += "tree " + std::to_string(tree.num_nodes()) + "\n";
    for (int i = 0; i < tree.num_nodes(); ++i) {
      text += TreeNodeToText(tree.node(i)) + "\n";
    }
  }
  return text;
}

/// `status` is InvalidArgument and its message names every one of `words`.
void ExpectRejected(const Status& status,
                    const std::vector<std::string>& words) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  for (const std::string& word : words) {
    EXPECT_NE(status.message().find(word), std::string::npos)
        << status.ToString() << " should name " << word;
  }
}

TEST(FlatForestTest, TooManyDistinctThresholdsIsRejected) {
  // 300 distinct split thresholds on one feature exceed the uint8 bin
  // encoding: Compile refuses, and so does loading a model file that holds
  // the forest — no model is served without its compiled form.
  std::vector<RegressionTree> trees;
  for (int t = 0; t < 300; ++t) {
    trees.push_back(Stump(t, 0, static_cast<double>(t) / 300.0));
  }
  const auto compiled = FlatForest::Compile(trees, 4);
  ASSERT_FALSE(compiled.ok());
  ExpectRejected(compiled.status(), {"300", "254"});
  const auto loaded = GbtModel::Deserialize(ModelText(trees));
  ASSERT_FALSE(loaded.ok());
  ExpectRejected(loaded.status(), {"300", "254"});
}

TEST(FlatForestTest, TooWideFeatureSpaceIsRejected) {
  // Node features are int16: 32768 features cannot compile, whether the
  // forest comes from a file or from training.
  std::vector<RegressionTree> trees(1);
  trees[0].mutable_node(0)->value = 0.25;
  const auto compiled = FlatForest::Compile(trees, 32768);
  ASSERT_FALSE(compiled.ok());
  ExpectRejected(compiled.status(), {"32768", "32767"});
  const auto loaded = GbtModel::Deserialize(ModelText(trees, 32768));
  ASSERT_FALSE(loaded.ok());
  ExpectRejected(loaded.status(), {"32768", "32767"});

  std::vector<std::string> names;
  for (int f = 0; f < 32768; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    names.push_back(std::move(name));
  }
  Dataset wide = Dataset::Create(names);
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(wide.AddRow(std::vector<double>(32768, r), r).ok());
  }
  Counter* const trees_grown =
      MetricsRegistry::Global().GetCounter("gbt.train.trees_grown");
  const int64_t grown_before = trees_grown->Value();
  GbtParams params;
  params.num_trees = 2;
  const auto trained = GbtModel::Train(wide, params);
  ASSERT_FALSE(trained.ok());
  ExpectRejected(trained.status(), {"32768", "32767"});
  EXPECT_EQ(trees_grown->Value(), grown_before) << "no tree may grow";
}

TEST(FlatForestTest, WideForestMatchesOraclesOnEveryPath) {
  // 300 stumps with 150 distinct thresholds on each of two features
  // compile, and the batch, staged, single-row and SHAP paths all return
  // the oracles' bits. 130 probe rows fill two 64-row blocks and a partial
  // third, with a lane tail.
  constexpr int kTrees = 300;
  std::vector<RegressionTree> trees;
  for (int t = 0; t < kTrees; ++t) {
    trees.push_back(Stump(t, t % 2, static_cast<double>(t / 2) / 150.0));
  }
  const GbtModel model = GbtModel::Deserialize(ModelText(trees)).value();
  ASSERT_NE(model.flat_forest(), nullptr);
  ASSERT_EQ(model.flat_forest()->num_trees(), kTrees);
  const Dataset probe = MakeData(130, 9, /*missing_rate=*/0.25);

  const std::vector<double> reference = ReferencePredictRaw(model, probe);
  const std::vector<double> batch = model.Predict(probe).value();
  ASSERT_EQ(batch.size(), reference.size());
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    const auto i = static_cast<size_t>(r);
    EXPECT_EQ(batch[i], reference[i]) << "row " << r;
    EXPECT_EQ(model.PredictRowRaw(probe.row(r)), reference[i]) << "row " << r;
    EXPECT_EQ(model.PredictRow(probe.row(r)), reference[i]) << "row " << r;
  }

  // 70 does not divide 300, 1 writes a stage per tree, INT_MAX one stage.
  const auto objective = MakeObjective(model.objective_type());
  for (const int stride : {70, 1, INT_MAX}) {
    const auto stages = model.PredictStaged(probe, stride).value();
    ASSERT_EQ(stages.size(), static_cast<size_t>(
                                 (int64_t{kTrees} + stride - 1) / stride))
        << "stride " << stride;
    for (int64_t r = 0; r < probe.num_rows(); ++r) {
      double raw = model.base_score();
      size_t stage = 0;
      for (int t = 0; t < kTrees; ++t) {
        raw += model.trees()[static_cast<size_t>(t)].Predict(probe.row(r));
        if ((t + 1) % stride == 0 || t + 1 == kTrees) {
          ASSERT_EQ(stages[stage][static_cast<size_t>(r)],
                    objective->Transform(raw))
              << "stride " << stride << " stage " << stage << " row " << r;
          ++stage;
        }
      }
    }
  }

  // The full probe and a three-row batch.
  const explain::TreeShap shap(&model);
  const auto shap_batch = shap.ShapBatch(probe).value();
  const Dataset few = probe.Take({0, 1, 2}).value();
  const auto few_batch = shap.ShapBatch(few).value();
  ASSERT_EQ(shap_batch.size(), static_cast<size_t>(probe.num_rows()));
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    const std::vector<double> oracle = ReferenceShap(model, probe.row(r));
    EXPECT_EQ(shap_batch[static_cast<size_t>(r)], oracle) << "row " << r;
    EXPECT_EQ(shap.Shap(probe.row(r)), oracle) << "row " << r;
    if (r < few.num_rows()) {
      EXPECT_EQ(few_batch[static_cast<size_t>(r)], oracle) << "row " << r;
    }
  }
}

TEST(FlatForestTest, DeserializedModelCompilesAndMatches) {
  const Dataset train = MakeData(400, 7);
  const GbtModel model = TrainModel(train);
  const GbtModel restored =
      GbtModel::Deserialize(model.Serialize()).value();
  ASSERT_NE(restored.flat_forest(), nullptr);
  const Dataset probe = MakeData(64, 8, /*missing_rate=*/0.2);
  EXPECT_EQ(restored.PredictRaw(probe).value(),
            ReferencePredictRaw(model, probe));
}

TEST(FlatForestTest, SingleLeafTreesCompile) {
  // Depth-0 trees (e.g. num_trees past convergence) have a leaf root; the
  // flat block must carry them as pure constants.
  std::vector<TreeNode> nodes(1);
  nodes[0].value = 0.25;
  nodes[0].cover = 10.0;
  std::vector<RegressionTree> trees;
  trees.push_back(RegressionTree::FromNodes(std::move(nodes)));
  const FlatForest flat = FlatForest::Compile(trees, 2).value();
  EXPECT_EQ(flat.num_nodes(), 0);
  EXPECT_EQ(flat.num_leaves(), 1);
  EXPECT_EQ(flat.max_depth(), 0);
  Dataset probe = Dataset::Create({"a", "b"});
  ASSERT_TRUE(probe.AddRow({0.5, kNaN}, 0.0).ok());
  double out = 0.0;
  flat.PredictRaw(probe, 1.0, &out);
  EXPECT_EQ(out, 1.25);
}

}  // namespace
}  // namespace mysawh::gbt
