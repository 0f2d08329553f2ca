#include "gbt/tree.h"

#include <gtest/gtest.h>

#include <limits>

#include "reference_walkers.h"

namespace mysawh::gbt {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// root: [f0 < 2.0] -> left leaf -1, right: [f1 < 0.5] -> 5 / 9.
RegressionTree MakeSmallTree() {
  RegressionTree tree;
  auto [left, right] = tree.Split(0, 0, 2.0, /*default_left=*/true, 1.0);
  tree.mutable_node(left)->value = -1.0;
  auto [rl, rr] = tree.Split(right, 1, 0.5, /*default_left=*/false, 0.5);
  tree.mutable_node(rl)->value = 5.0;
  tree.mutable_node(rr)->value = 9.0;
  tree.mutable_node(0)->cover = 10.0;
  tree.mutable_node(left)->cover = 4.0;
  tree.mutable_node(right)->cover = 6.0;
  tree.mutable_node(rl)->cover = 3.0;
  tree.mutable_node(rr)->cover = 3.0;
  return tree;
}

TEST(TreeTest, SingleLeafDefaults) {
  RegressionTree tree;
  EXPECT_EQ(tree.num_nodes(), 1);
  EXPECT_EQ(reference::NumLeaves(tree), 1);
  EXPECT_EQ(reference::MaxDepth(tree), 0);
  const double row[] = {1.0};
  EXPECT_DOUBLE_EQ(tree.Predict(row), 0.0);
}

TEST(TreeTest, StructureCounters) {
  const RegressionTree tree = MakeSmallTree();
  EXPECT_EQ(tree.num_nodes(), 5);
  EXPECT_EQ(reference::NumLeaves(tree), 3);
  EXPECT_EQ(reference::MaxDepth(tree), 2);
}

TEST(TreeTest, RoutingLessThanGoesLeft) {
  const RegressionTree tree = MakeSmallTree();
  const double a[] = {1.9, 0.0};
  EXPECT_DOUBLE_EQ(tree.Predict(a), -1.0);
  const double b[] = {2.0, 0.4};  // equality goes right
  EXPECT_DOUBLE_EQ(tree.Predict(b), 5.0);
  const double c[] = {3.0, 0.6};
  EXPECT_DOUBLE_EQ(tree.Predict(c), 9.0);
}

TEST(TreeTest, MissingFollowsDefaultDirection) {
  const RegressionTree tree = MakeSmallTree();
  const double a[] = {kNaN, 0.0};  // default_left at root
  EXPECT_DOUBLE_EQ(tree.Predict(a), -1.0);
  const double b[] = {5.0, kNaN};  // default right at the inner node
  EXPECT_DOUBLE_EQ(tree.Predict(b), 9.0);
}

TEST(TreeTest, GetLeafReturnsLeafIndex) {
  const RegressionTree tree = MakeSmallTree();
  const double a[] = {0.0, 0.0};
  const int leaf = tree.GetLeaf(a);
  EXPECT_TRUE(tree.node(leaf).IsLeaf());
  EXPECT_DOUBLE_EQ(tree.node(leaf).value, -1.0);
}

TEST(TreeTest, ValidatePassesOnWellFormed) {
  EXPECT_TRUE(MakeSmallTree().Validate().ok());
}

TEST(TreeTest, ValidateCatchesBadLinks) {
  RegressionTree tree = MakeSmallTree();
  tree.mutable_node(0)->left = 99;
  EXPECT_FALSE(tree.Validate().ok());
}

TEST(TreeTest, ValidateCatchesCoverInflation) {
  RegressionTree tree = MakeSmallTree();
  tree.mutable_node(1)->cover = 100.0;  // child exceeds parent
  EXPECT_FALSE(tree.Validate().ok());
}

TEST(TreeTest, ValidateCatchesNonFiniteThreshold) {
  RegressionTree tree = MakeSmallTree();
  tree.mutable_node(0)->threshold = kNaN;
  EXPECT_FALSE(tree.Validate().ok());
}

TEST(TreeTest, FromNodesRoundTrip) {
  const RegressionTree tree = MakeSmallTree();
  std::vector<TreeNode> nodes;
  for (int i = 0; i < tree.num_nodes(); ++i) nodes.push_back(tree.node(i));
  const RegressionTree rebuilt = RegressionTree::FromNodes(nodes);
  ASSERT_TRUE(rebuilt.Validate().ok());
  const double row[] = {2.5, 0.1};
  EXPECT_DOUBLE_EQ(rebuilt.Predict(row), tree.Predict(row));
}

}  // namespace
}  // namespace mysawh::gbt
