#ifndef MYSAWH_GBT_BINNING_H_
#define MYSAWH_GBT_BINNING_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace mysawh::gbt {

class BinnedData;

/// Most bins a feature may have. Bins are bytes end to end: the quantized
/// training matrix stores one byte per cell, and 0xFF is the missing
/// sentinel, so bins run 0..253. A forest trained on at most 254 bins has
/// at most 253 distinct thresholds per feature, which the compiled flat
/// forest (gbt/flat_forest.h) always holds.
inline constexpr int kMaxBins = 254;

/// Sentinel bin of a missing (NaN) feature value, in the training matrix and
/// in the flat forest's quantized rows alike.
inline constexpr uint8_t kMissingBin = 0xFF;

/// Per-feature quantile cut points for the histogram tree method.
///
/// For feature f, `cuts[f]` holds strictly increasing upper boundaries; a
/// value v maps to the smallest bin b with v < cuts[f][b]. The last cut is
/// +inf so every finite value maps somewhere. Features with few distinct
/// values get one bin per value (so categorical/ordinal PRO answers are
/// represented exactly).
class FeatureBins {
 public:
  int64_t num_features() const {
    return static_cast<int64_t>(cuts_.size());
  }
  /// Number of bins of a feature.
  int num_bins(int64_t feature) const {
    return static_cast<int>(cuts_[static_cast<size_t>(feature)].size());
  }
  /// The upper boundary of a bin; splitting "bin <= b" uses threshold
  /// cuts[f][b] (split condition value < cuts[f][b]).
  double cut(int64_t feature, int bin) const {
    return cuts_[static_cast<size_t>(feature)][static_cast<size_t>(bin)];
  }

 private:
  friend Result<BinnedData> BuildBinned(const Dataset& data, int max_bins);
  std::vector<std::vector<double>> cuts_;
};

/// The whole training matrix quantized to one byte per cell, row-major so
/// one pass over a node's rows touches each row's bins contiguously and can
/// feed the histograms of every feature at once.
class BinnedMatrix {
 public:
  int64_t num_rows() const { return num_rows_; }
  int64_t num_features() const { return num_features_; }
  /// Bin of (row, feature); kMissingBin for a missing value.
  uint8_t At(int64_t row, int64_t feature) const {
    return cells_[static_cast<size_t>(row * num_features_ + feature)];
  }
  /// Raw row-major cells. The histogram builder reads these directly in its
  /// hot loop.
  const uint8_t* data() const { return cells_.data(); }

 private:
  friend Result<BinnedData> BuildBinned(const Dataset& data, int max_bins);
  std::vector<uint8_t> cells_;  // row * num_features + feature
  int64_t num_rows_ = 0;
  int64_t num_features_ = 0;
};

/// Cut points and quantized matrix produced together by BuildBinned.
class BinnedData {
 public:
  FeatureBins bins;
  BinnedMatrix matrix;
};

/// Per-feature occupancy of a quantized matrix — how well the histogram
/// resolution is actually used. Consumed by the data-quality profile
/// (core/data_profile.h) attached to every study cell's run manifest.
struct BinOccupancy {
  int num_bins = 0;           ///< Bins defined by the feature's cuts.
  int occupied_bins = 0;      ///< Bins holding at least one row.
  int64_t missing = 0;        ///< Rows with the missing sentinel.
  int64_t max_bin_count = 0;  ///< Rows in the fullest bin.
};

/// Counts per-bin occupancy of every feature. Deterministic (a pure
/// function of the quantized matrix); intended for profiling, not hot
/// paths.
std::vector<BinOccupancy> ComputeBinOccupancy(const FeatureBins& bins,
                                              const BinnedMatrix& matrix);

/// Builds the cut points and the quantized matrix in one fused pass: each
/// feature's present values are radix-sorted once, the cuts are derived
/// from the distinct values, and cells are mapped to bins with a branchless
/// binary search, four at a time. Produces exactly the cuts and bins of a
/// plain sort-then-upper_bound quantizer (the test oracle in
/// tests/reference_binning.h, BinningTest.FusedBuildMatchesReference).
/// `max_bins` must be in [2, kMaxBins].
Result<BinnedData> BuildBinned(const Dataset& data, int max_bins);

}  // namespace mysawh::gbt

#endif  // MYSAWH_GBT_BINNING_H_
