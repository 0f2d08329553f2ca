#include "gbt/binning.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "util/resource_stats.h"
#include "util/trace.h"

namespace mysawh::gbt {

namespace {

/// Cut points for one feature from its sorted distinct present values
/// (non-empty): one bin per value when few, even-rank quantiles otherwise.
/// The last cut is always +inf.
std::vector<double> CutsFromDistinct(const std::vector<double>& values,
                                     int max_bins) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> cuts;
  if (static_cast<int>(values.size()) <= max_bins) {
    // One bin per distinct value: boundary is the midpoint to the next
    // distinct value, so ordinal features split exactly between levels.
    for (size_t i = 0; i + 1 < values.size(); ++i) {
      cuts.push_back(0.5 * (values[i] + values[i + 1]));
    }
    cuts.push_back(inf);
  } else {
    // Even-rank quantile cuts over distinct values.
    for (int b = 1; b < max_bins; ++b) {
      const double pos = static_cast<double>(b) *
                         static_cast<double>(values.size()) /
                         static_cast<double>(max_bins);
      auto idx = static_cast<size_t>(pos);
      idx = std::min(idx, values.size() - 2);
      const double cut = 0.5 * (values[idx] + values[idx + 1]);
      if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
    }
    cuts.push_back(inf);
  }
  return cuts;
}

/// One present (non-NaN) cell of a feature column.
struct PresentCell {
  double value;
  int64_t row;
};

/// Sorts non-NaN doubles ascending with an LSD radix sort over the
/// order-preserving IEEE-754 key transform (negatives inverted, positives
/// offset), skipping passes whose digit is constant. Equivalent to
/// std::sort for any mix of finite values and infinities, several times
/// faster at the few-thousand-element sizes binning works with.
void RadixSortValues(std::vector<double>* values) {
  const size_t n = values->size();
  if (n < 128) {
    std::sort(values->begin(), values->end());
    return;
  }
  constexpr uint64_t kMsb = uint64_t{1} << 63;
  std::vector<uint64_t> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t u = std::bit_cast<uint64_t>((*values)[i]);
    a[i] = (u >> 63) ? ~u : (u | kMsb);
  }
  // All eight digit histograms in one pass over the keys.
  uint32_t cnt[8][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = a[i];
    for (int p = 0; p < 8; ++p) ++cnt[p][(k >> (8 * p)) & 0xFF];
  }
  uint64_t* src = a.data();
  uint64_t* dst = b.data();
  for (int p = 0; p < 8; ++p) {
    // A constant digit leaves the order unchanged: skip the pass.
    bool constant = false;
    for (int d = 0; d < 256; ++d) {
      if (cnt[p][d] == n) {
        constant = true;
        break;
      }
    }
    if (constant) continue;
    uint32_t pos[256];
    uint32_t run = 0;
    for (int d = 0; d < 256; ++d) {
      pos[d] = run;
      run += cnt[p][d];
    }
    const int shift = 8 * p;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t k = src[i];
      dst[pos[(k >> shift) & 0xFF]++] = k;
    }
    std::swap(src, dst);
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = src[i];
    (*values)[i] = std::bit_cast<double>((k >> 63) ? (k ^ kMsb) : ~k);
  }
}

/// Branchless upper_bound over the cuts: first index whose cut exceeds the
/// value, capped at the last bin (so +inf lands in it).
inline size_t BinSearch(const double* c, size_t m, double v) {
  size_t base = 0;
  size_t len = m;
  while (len > 1) {
    const size_t half = len >> 1;
    base += (c[base + half - 1] <= v) ? half : 0;
    len -= half;
  }
  size_t idx = base + (c[base] <= v ? 1 : 0);
  return idx >= m ? m - 1 : idx;
}

/// Derives one feature's cuts from its present cells and writes its column
/// of row-major bin cells.
void BuildFeature(const std::vector<PresentCell>& present, int64_t nf,
                  int64_t f, int max_bins, uint8_t* cells,
                  std::vector<double>* cuts_out) {
  auto& cuts = *cuts_out;
  if (present.empty()) {
    cuts = {std::numeric_limits<double>::infinity()};
    return;
  }
  // Sort values only (half the element size of the cells), dedupe in
  // place, and derive the cuts.
  std::vector<double> values;
  values.reserve(present.size());
  for (const PresentCell& p : present) values.push_back(p.value);
  RadixSortValues(&values);
  values.erase(std::unique(values.begin(), values.end()), values.end());
  cuts = CutsFromDistinct(values, max_bins);
  const double* c = cuts.data();
  const size_t m = cuts.size();
  // Four independent searches at a time: each search is a serial chain of
  // dependent conditional moves, so interleaving hides most of its latency.
  // The halving sequence depends only on m and is shared across lanes.
  size_t i = 0;
  const size_t sz = present.size();
  for (; i + 4 <= sz; i += 4) {
    const double v0 = present[i].value, v1 = present[i + 1].value;
    const double v2 = present[i + 2].value, v3 = present[i + 3].value;
    size_t b0 = 0, b1 = 0, b2 = 0, b3 = 0;
    size_t len = m;
    while (len > 1) {
      const size_t half = len >> 1;
      b0 += (c[b0 + half - 1] <= v0) ? half : 0;
      b1 += (c[b1 + half - 1] <= v1) ? half : 0;
      b2 += (c[b2 + half - 1] <= v2) ? half : 0;
      b3 += (c[b3 + half - 1] <= v3) ? half : 0;
      len -= half;
    }
    b0 += c[b0] <= v0 ? 1 : 0;
    b1 += c[b1] <= v1 ? 1 : 0;
    b2 += c[b2] <= v2 ? 1 : 0;
    b3 += c[b3] <= v3 ? 1 : 0;
    cells[present[i].row * nf + f] =
        static_cast<uint8_t>(b0 >= m ? m - 1 : b0);
    cells[present[i + 1].row * nf + f] =
        static_cast<uint8_t>(b1 >= m ? m - 1 : b1);
    cells[present[i + 2].row * nf + f] =
        static_cast<uint8_t>(b2 >= m ? m - 1 : b2);
    cells[present[i + 3].row * nf + f] =
        static_cast<uint8_t>(b3 >= m ? m - 1 : b3);
  }
  for (; i < sz; ++i) {
    cells[present[i].row * nf + f] =
        static_cast<uint8_t>(BinSearch(c, m, present[i].value));
  }
}

/// Collects one feature's present (non-NaN) cells in row order, writing
/// missing sentinels as it goes.
std::vector<PresentCell> CollectPresent(const Dataset& data, int64_t f,
                                        uint8_t* cells) {
  const int64_t n = data.num_rows();
  const int64_t nf = data.num_features();
  std::vector<PresentCell> present;
  present.reserve(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    const double v = data.At(r, f);
    if (std::isnan(v)) {
      cells[r * nf + f] = kMissingBin;
    } else {
      present.push_back({v, r});
    }
  }
  return present;
}

}  // namespace

Result<BinnedData> BuildBinned(const Dataset& data, int max_bins) {
  // At most kMaxBins bins, so every cell fits a byte below the missing
  // sentinel.
  if (max_bins < 2 || max_bins > kMaxBins) {
    return Status::InvalidArgument("max_bins must be in [2, " +
                                   std::to_string(kMaxBins) + "]");
  }
  TraceSpan span("gbt.binning", "train");
  span.Arg("rows", data.num_rows());
  span.Arg("features", data.num_features());
  BinnedData out;
  const int64_t n = data.num_rows();
  const int64_t nf = data.num_features();
  out.bins.cuts_.resize(static_cast<size_t>(nf));
  out.matrix.num_rows_ = n;
  out.matrix.num_features_ = nf;
  // CutsFromDistinct never produces more than max_bins <= kMaxBins cuts, so
  // every bin fits one byte below the missing sentinel.
  out.matrix.cells_.resize(static_cast<size_t>(n * nf));
  TrackAlloc(AllocCategory::kBinnedMatrix,
             static_cast<int64_t>(out.matrix.cells_.size()));
  uint8_t* cells = out.matrix.cells_.data();
  for (int64_t f = 0; f < nf; ++f) {
    const std::vector<PresentCell> col = CollectPresent(data, f, cells);
    BuildFeature(col, nf, f, max_bins, cells,
                 &out.bins.cuts_[static_cast<size_t>(f)]);
  }
  return out;
}

std::vector<BinOccupancy> ComputeBinOccupancy(const FeatureBins& bins,
                                              const BinnedMatrix& matrix) {
  const int64_t nf = matrix.num_features();
  const int64_t n = matrix.num_rows();
  std::vector<BinOccupancy> occupancy(static_cast<size_t>(nf));
  std::vector<int64_t> counts;
  for (int64_t f = 0; f < nf; ++f) {
    BinOccupancy& entry = occupancy[static_cast<size_t>(f)];
    entry.num_bins = bins.num_bins(f);
    counts.assign(static_cast<size_t>(entry.num_bins), 0);
    for (int64_t r = 0; r < n; ++r) {
      const uint8_t b = matrix.At(r, f);
      if (b == kMissingBin) {
        ++entry.missing;
      } else {
        ++counts[b];
      }
    }
    for (int64_t c : counts) {
      if (c > 0) ++entry.occupied_bins;
      entry.max_bin_count = std::max(entry.max_bin_count, c);
    }
  }
  return occupancy;
}

}  // namespace mysawh::gbt
