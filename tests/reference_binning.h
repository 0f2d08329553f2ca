/// Test oracle for gbt/binning.h: the plain two-step quantizer that
/// BuildBinned's fused radix-sort build must reproduce bit for bit. Per
/// feature it sorts and dedupes the present values with std::sort, derives
/// the cuts, then bins every cell with std::upper_bound.

#ifndef MYSAWH_TESTS_REFERENCE_BINNING_H_
#define MYSAWH_TESTS_REFERENCE_BINNING_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "data/dataset.h"
#include "gbt/binning.h"

namespace mysawh::reference {

/// Cut points and quantized cells of one reference build.
struct ReferenceBinned {
  std::vector<std::vector<double>> cuts;  ///< Per feature; the last is +inf.
  std::vector<uint8_t> cells;             ///< row * num_features + feature.
};

/// Bin of `value` against one feature's cuts: the first bin whose upper
/// boundary exceeds it, capped at the last bin; kMissingBin for NaN.
inline uint8_t BinFor(const std::vector<double>& cuts, double value) {
  if (std::isnan(value)) return gbt::kMissingBin;
  const auto it = std::upper_bound(cuts.begin(), cuts.end(), value);
  const auto idx = static_cast<size_t>(it - cuts.begin());
  return static_cast<uint8_t>(std::min(idx, cuts.size() - 1));
}

/// BinFor against the cuts of `feature` in `bins`.
inline uint8_t BinFor(const gbt::FeatureBins& bins, int64_t feature,
                      double value) {
  std::vector<double> cuts;
  for (int b = 0; b < bins.num_bins(feature); ++b) {
    cuts.push_back(bins.cut(feature, b));
  }
  return BinFor(cuts, value);
}

/// The reference build. `max_bins` must be in [2, kMaxBins]. A feature
/// with at most `max_bins` distinct values gets one bin per value, cut at
/// the midpoints; a wider one gets even-rank quantile cuts over its
/// distinct values. An all-missing feature keeps the single +inf cut.
inline ReferenceBinned ReferenceBuildBinned(const Dataset& data,
                                            int max_bins) {
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t nf = data.num_features();
  ReferenceBinned out;
  out.cuts.resize(static_cast<size_t>(nf));
  for (int64_t f = 0; f < nf; ++f) {
    std::vector<double> values;
    for (int64_t r = 0; r < data.num_rows(); ++r) {
      const double v = data.At(r, f);
      if (!std::isnan(v)) values.push_back(v);
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    std::vector<double>& cuts = out.cuts[static_cast<size_t>(f)];
    if (static_cast<int>(values.size()) <= max_bins) {
      for (size_t i = 0; i + 1 < values.size(); ++i) {
        cuts.push_back(0.5 * (values[i] + values[i + 1]));
      }
    } else {
      for (int b = 1; b < max_bins; ++b) {
        const double pos = static_cast<double>(b) *
                           static_cast<double>(values.size()) /
                           static_cast<double>(max_bins);
        const size_t idx =
            std::min(static_cast<size_t>(pos), values.size() - 2);
        const double cut = 0.5 * (values[idx] + values[idx + 1]);
        if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
      }
    }
    cuts.push_back(inf);
  }
  out.cells.resize(static_cast<size_t>(data.num_rows() * nf));
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    for (int64_t f = 0; f < nf; ++f) {
      out.cells[static_cast<size_t>(r * nf + f)] =
          BinFor(out.cuts[static_cast<size_t>(f)], data.At(r, f));
    }
  }
  return out;
}

}  // namespace mysawh::reference

#endif  // MYSAWH_TESTS_REFERENCE_BINNING_H_
