#ifndef MYSAWH_GBT_BINNING_H_
#define MYSAWH_GBT_BINNING_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace mysawh::gbt {

class BinnedData;

/// Sentinel bin index for a missing (NaN) feature value.
inline constexpr uint16_t kMissingBin = 0xFFFF;

/// Missing sentinel of the narrow (byte) bin storage, used when every
/// feature has at most 254 bins so the whole quantized matrix fits one
/// byte per cell.
inline constexpr uint8_t kMissingBin8 = 0xFF;

/// Per-feature quantile cut points for the histogram tree method.
///
/// For feature f, `cuts[f]` holds strictly increasing upper boundaries; a
/// value v maps to the smallest bin b with v < cuts[f][b]. The last cut is
/// +inf so every finite value maps somewhere. Features with few distinct
/// values get one bin per value (so categorical/ordinal PRO answers are
/// represented exactly).
class FeatureBins {
 public:
  /// Builds cut points from the training data with at most `max_bins` bins
  /// per feature.
  static Result<FeatureBins> Build(const Dataset& data, int max_bins);

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

  /// Maps a raw value to its bin (kMissingBin for NaN).
  uint16_t BinFor(int64_t feature, double value) const;

 private:
  friend Result<BinnedData> BuildBinned(const Dataset& data, int max_bins);
  std::vector<std::vector<double>> cuts_;
};

/// The whole training matrix quantized to bins, row-major so one pass over
/// a node's rows touches each row's bins contiguously and can feed the
/// histograms of every feature at once. When every feature has at most 254
/// bins (max_bins <= 254, the common case) cells are stored as single
/// bytes, halving the memory streamed by the histogram pass; otherwise a
/// uint16 cell is used.
class BinnedMatrix {
 public:
  /// Quantizes `data` with the given `bins` (wide storage).
  static BinnedMatrix Build(const Dataset& data, const FeatureBins& bins);

  int64_t num_rows() const { return num_rows_; }
  int64_t num_features() const { return num_features_; }
  /// Whether cells are stored as bytes (see data8/data16).
  bool narrow() const { return narrow_; }
  /// Bin of (row, feature); missing is reported as kMissingBin for both
  /// storage widths.
  uint16_t At(int64_t row, int64_t feature) const {
    const auto i = static_cast<size_t>(row * num_features_ + feature);
    if (narrow_) {
      const uint8_t b = bytes_[i];
      return b == kMissingBin8 ? kMissingBin : b;
    }
    return bins_[i];
  }
  /// Raw row-major cells; valid only for the matching narrow() state. The
  /// histogram builder reads these directly in its hot loop.
  const uint8_t* data8() const { return bytes_.data(); }
  const uint16_t* data16() const { return bins_.data(); }

 private:
  friend Result<BinnedData> BuildBinned(const Dataset& data, int max_bins);
  std::vector<uint16_t> bins_;   // wide cells (row * num_features + feature)
  std::vector<uint8_t> bytes_;   // narrow cells, same layout
  bool narrow_ = false;
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
/// binary search, four at a time. Produces exactly the same cuts and bins
/// as FeatureBins::Build followed by BinnedMatrix::Build
/// (BinningTest.FusedBuildMatchesReference), several times faster.
Result<BinnedData> BuildBinned(const Dataset& data, int max_bins);

}  // namespace mysawh::gbt

#endif  // MYSAWH_GBT_BINNING_H_
