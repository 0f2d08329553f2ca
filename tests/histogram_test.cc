/// Tests of the single-pass histogram pipeline: sibling subtraction must
/// reproduce a directly built histogram, the build must keep its pinned
/// chunk association, and hist split decisions must be unchanged relative
/// to a straightforward per-feature boundary scan.

#include "gbt/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "gbt/binning.h"
#include "gbt/gbt_model.h"
#include "reference_binning.h"

namespace mysawh::gbt {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Fixture with ~12% missing cells. Labels are small integers so every
/// gradient sum is exactly representable and bit-equality assertions are
/// meaningful regardless of accumulation order.
Dataset MakeData(int64_t rows) {
  Dataset ds = Dataset::Create({"a", "b", "c", "d"});
  uint64_t state = 7;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 11;
  };
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<double> x(4);
    for (auto& v : x) {
      const uint64_t u = next();
      v = (u % 100) < 12 ? kNaN : static_cast<double>(u % 997);
    }
    const double y = static_cast<double>(next() % 17) - 8.0;
    EXPECT_TRUE(ds.AddRow(x, y).ok());
  }
  return ds;
}

/// Integer-valued gradients (hessian 1), exactly representable.
std::vector<GradientPair> MakeGpairs(const Dataset& data) {
  std::vector<GradientPair> gpairs;
  gpairs.reserve(static_cast<size_t>(data.num_rows()));
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    gpairs.push_back({-data.label(r), 1.0});
  }
  return gpairs;
}

TEST(HistogramTest, SiblingSubtractionMatchesDirectBuild) {
  const Dataset data = MakeData(3000);
  const BinnedData binned = BuildBinned(data, 64).value();
  const std::vector<GradientPair> gpairs = MakeGpairs(data);
  const HistogramLayout layout(binned.bins, {0, 1, 2, 3});

  std::vector<int64_t> all, left, right;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    all.push_back(r);
    (r % 3 == 0 ? left : right).push_back(r);
  }
  const NodeHistogram parent =
      BuildHistogram(layout, binned.matrix, all, gpairs);
  const NodeHistogram left_direct =
      BuildHistogram(layout, binned.matrix, left, gpairs);
  const NodeHistogram right_direct =
      BuildHistogram(layout, binned.matrix, right, gpairs);
  NodeHistogram subtracted = parent;
  subtracted.Subtract(left_direct);

  ASSERT_EQ(subtracted.num_slots(), right_direct.num_slots());
  for (int64_t i = 0; i < subtracted.num_slots(); ++i) {
    EXPECT_EQ(subtracted.slots_data()[i].sum_g, right_direct.slots_data()[i].sum_g);
    EXPECT_EQ(subtracted.slots_data()[i].sum_h, right_direct.slots_data()[i].sum_h);
    EXPECT_EQ(subtracted.slots_data()[i].count, right_direct.slots_data()[i].count);
  }
  ASSERT_EQ(subtracted.num_miss(), right_direct.num_miss());
  for (int64_t i = 0; i < subtracted.num_miss(); ++i) {
    EXPECT_EQ(subtracted.miss_data()[i].sum_g, right_direct.miss_data()[i].sum_g);
    EXPECT_EQ(subtracted.miss_data()[i].count, right_direct.miss_data()[i].count);
  }
}

/// The build sums each 2048-row chunk into a zeroed partial and adds the
/// partials in chunk order. That association sets the bits of every node
/// with more than one chunk of rows, so it is pinned here against a sum
/// written out in that order, on gradients whose sums depend on it.
TEST(HistogramTest, ChunkAssociationIsPinned) {
  const Dataset data = MakeData(5000);  // two full chunks and a short one
  const BinnedData binned = BuildBinned(data, 64).value();
  const HistogramLayout layout(binned.bins, {0, 1, 2, 3});
  std::vector<int64_t> rows;
  std::vector<GradientPair> gpairs;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    rows.push_back(r);
    // Non-integer gradients: their sums round differently by order.
    gpairs.push_back({0.1 * data.label(r) + 1.0 / static_cast<double>(r + 3),
                      0.3 + 0.01 * static_cast<double>(r % 7)});
  }
  const NodeHistogram built =
      BuildHistogram(layout, binned.matrix, rows, gpairs);

  // Slot of (row, selected feature i): its bin in the feature's run of
  // slots, or the miss array (returned as slot -1 - i).
  const auto slot_of = [&](int64_t r, int i) {
    const uint16_t b = binned.matrix.At(r, layout.features()[i]);
    return b == kMissingBin ? -1 - static_cast<int64_t>(i)
                            : layout.offset(i) + b;
  };
  const size_t num_slots = static_cast<size_t>(layout.num_slots());
  const size_t total = num_slots + static_cast<size_t>(layout.num_features());
  const auto index_of = [&](int64_t slot) {
    return slot >= 0 ? static_cast<size_t>(slot)
                     : num_slots + static_cast<size_t>(-1 - slot);
  };
  std::vector<HistEntry> chunked(total), one_pass(total);
  for (int64_t begin = 0; begin < data.num_rows(); begin += 2048) {
    std::vector<HistEntry> partial(total);
    const int64_t end = std::min<int64_t>(begin + 2048, data.num_rows());
    for (int64_t r = begin; r < end; ++r) {
      for (int i = 0; i < layout.num_features(); ++i) {
        HistEntry& e = partial[index_of(slot_of(r, i))];
        e.sum_g += gpairs[static_cast<size_t>(r)].grad;
        e.sum_h += gpairs[static_cast<size_t>(r)].hess;
        ++e.count;
      }
    }
    for (size_t k = 0; k < total; ++k) {
      chunked[k].sum_g += partial[k].sum_g;
      chunked[k].sum_h += partial[k].sum_h;
      chunked[k].count += partial[k].count;
    }
  }
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    for (int i = 0; i < layout.num_features(); ++i) {
      HistEntry& e = one_pass[index_of(slot_of(r, i))];
      e.sum_g += gpairs[static_cast<size_t>(r)].grad;
      e.sum_h += gpairs[static_cast<size_t>(r)].hess;
    }
  }

  int differs_from_one_pass = 0;
  for (size_t k = 0; k < total; ++k) {
    const HistEntry& got = k < num_slots ? built.slots_data()[k]
                                         : built.miss_data()[k - num_slots];
    EXPECT_EQ(got.sum_g, chunked[k].sum_g) << "slot " << k;
    EXPECT_EQ(got.sum_h, chunked[k].sum_h) << "slot " << k;
    EXPECT_EQ(got.count, chunked[k].count) << "slot " << k;
    differs_from_one_pass += got.sum_g != one_pass[k].sum_g ||
                             got.sum_h != one_pass[k].sum_h;
  }
  EXPECT_GT(differs_from_one_pass, 0)
      << "the fixture must make the association observable";
}

/// Both builds of the accumulation and of the sibling subtraction must give
/// the same histograms, bit for bit: over three chunks of rows, with
/// missing cells and gradients whose sums round.
TEST(HistogramTest, BaselineAndAvx2BuildsAgreeBitwise) {
  if (HostIsa() != KernelIsa::kAvx2) {
    GTEST_SKIP() << "this CPU has no AVX2";
  }
  const Dataset data = MakeData(5000);
  const BinnedData binned = BuildBinned(data, 64).value();
  const HistogramLayout layout(binned.bins, {0, 1, 2, 3});
  std::vector<int64_t> rows, child;
  std::vector<GradientPair> gpairs;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    rows.push_back(r);
    if (r % 3 != 0) child.push_back(r);
    gpairs.push_back({0.1 * data.label(r) + 1.0 / static_cast<double>(r + 3),
                      0.3 + 0.01 * static_cast<double>(r % 7)});
  }
  const auto build = [&](const std::vector<int64_t>& node, KernelIsa isa) {
    return BuildHistogram(layout, binned.matrix, node, gpairs,
                          NodeHistogram(), isa);
  };
  NodeHistogram base = build(rows, KernelIsa::kBaseline);
  NodeHistogram avx2 = build(rows, KernelIsa::kAvx2);
  const auto expect_same = [](const NodeHistogram& a, const NodeHistogram& b) {
    ASSERT_EQ(a.num_slots(), b.num_slots());
    ASSERT_EQ(a.num_miss(), b.num_miss());
    const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    for (int64_t k = 0; k < a.num_slots() + a.num_miss(); ++k) {
      const HistEntry& x = a.slots_data()[k];
      const HistEntry& y = b.slots_data()[k];
      EXPECT_EQ(bits(x.sum_g), bits(y.sum_g)) << "slot " << k;
      EXPECT_EQ(bits(x.sum_h), bits(y.sum_h)) << "slot " << k;
      EXPECT_EQ(bits(x.count), bits(y.count)) << "slot " << k;
    }
  };
  expect_same(base, avx2);
  base.Subtract(build(child, KernelIsa::kBaseline), KernelIsa::kBaseline);
  avx2.Subtract(build(child, KernelIsa::kAvx2), KernelIsa::kAvx2);
  expect_same(base, avx2);
}

/// The best root split of one feature found by the pre-refactor style
/// single-feature scan: accumulate the feature's bins in ascending order
/// and evaluate each occupied boundary with missing routed either way,
/// using the trainer's exact gain formula and tie-breaks.
struct RefSplit {
  bool valid = false;
  int feature = -1;
  double threshold = 0.0;
  bool default_left = true;
  double gain = 0.0;
};

void RefScanFeature(const Dataset& data, const FeatureBins& bins, int feature,
                    const std::vector<GradientPair>& gpairs, double lambda,
                    RefSplit* best) {
  const int nb = bins.num_bins(feature);
  std::vector<HistEntry> slots(static_cast<size_t>(nb));
  HistEntry miss;
  double parent_g = 0.0, parent_h = 0.0;
  int64_t parent_c = 0;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    const uint16_t b = reference::BinFor(bins, feature, data.At(r, feature));
    HistEntry& e = b == kMissingBin ? miss : slots[b];
    e.sum_g += gpairs[static_cast<size_t>(r)].grad;
    e.sum_h += gpairs[static_cast<size_t>(r)].hess;
    ++e.count;
    parent_g += gpairs[static_cast<size_t>(r)].grad;
    parent_h += gpairs[static_cast<size_t>(r)].hess;
    ++parent_c;
  }
  auto score = [lambda](double g, double h) { return g * g / (h + lambda); };
  const double parent_score = score(parent_g, parent_h);
  const int64_t present = parent_c - miss.count;
  double acc_g = 0.0, acc_h = 0.0;
  int64_t acc_c = 0;
  for (int b = 0; b + 1 < nb; ++b) {
    acc_g += slots[static_cast<size_t>(b)].sum_g;
    acc_h += slots[static_cast<size_t>(b)].sum_h;
    acc_c += slots[static_cast<size_t>(b)].count;
    if (slots[static_cast<size_t>(b)].count == 0) continue;
    const double threshold = bins.cut(feature, b);
    const double rg = parent_g - miss.sum_g - acc_g;
    const double rh = parent_h - miss.sum_h - acc_h;
    const int64_t rc = parent_c - miss.count - acc_c;
    for (const bool miss_left : {true, false}) {
      if (!miss_left && miss.count == 0) break;
      const double gl = acc_g + (miss_left ? miss.sum_g : 0.0);
      const double hl = acc_h + (miss_left ? miss.sum_h : 0.0);
      const int64_t cl = acc_c + (miss_left ? miss.count : 0);
      const double gr = rg + (miss_left ? 0.0 : miss.sum_g);
      const double hr = rh + (miss_left ? 0.0 : miss.sum_h);
      const int64_t cr = rc + (miss_left ? 0 : miss.count);
      if (cl < 1 || cr < 1 || hl < 1.0 || hr < 1.0) continue;
      const double gain = 0.5 * (score(gl, hl) + score(gr, hr) - parent_score);
      if (gain <= 1e-10) continue;
      const bool better =
          !best->valid || gain > best->gain ||
          (gain == best->gain &&
           (feature < best->feature ||
            (feature == best->feature && threshold < best->threshold)));
      if (better) {
        best->valid = true;
        best->feature = feature;
        best->threshold = threshold;
        best->default_left = miss_left;
        best->gain = gain;
      }
    }
    if (acc_c == present) break;
  }
}

TEST(HistogramTest, HistSplitDecisionMatchesReferenceScan) {
  const Dataset data = MakeData(2500);
  // Exact gradients: base_score 0 and squared error make the root
  // gradient of row r equal to -label(r), an integer.
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 1;
  params.learning_rate = 1.0;
  params.base_score = 0.0;
  const GbtModel model = GbtModel::Train(data, params).value();
  ASSERT_EQ(model.trees().size(), 1u);
  const RegressionTree& tree = model.trees()[0];
  ASSERT_EQ(tree.num_nodes(), 3);
  const TreeNode& root = tree.node(0);

  const FeatureBins bins = BuildBinned(data, params.max_bins).value().bins;
  const std::vector<GradientPair> gpairs = MakeGpairs(data);
  RefSplit ref;
  for (int f = 0; f < 4; ++f) {
    RefScanFeature(data, bins, f, gpairs, params.reg_lambda, &ref);
  }
  ASSERT_TRUE(ref.valid);
  EXPECT_EQ(root.feature, ref.feature);
  EXPECT_DOUBLE_EQ(root.threshold, ref.threshold);
  EXPECT_EQ(root.default_left, ref.default_left);
  EXPECT_DOUBLE_EQ(root.gain, ref.gain);
}

}  // namespace
}  // namespace mysawh::gbt
