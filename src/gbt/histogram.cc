#include "gbt/histogram.h"

#include <algorithm>
#include <utility>

namespace mysawh::gbt {

namespace {

/// Rows per chunk of the pinned summation order (see BuildHistogram).
constexpr int64_t kHistChunkRows = 2048;

/// Accumulates rows [begin, end) of `rows` into `out` — the single
/// cache-friendly pass: each row's byte cells are read contiguously and
/// feed all selected features. Per-feature slot base pointers are hoisted
/// so the inner loop is load/add/store per feature.
void AccumulateCells(const HistogramLayout& layout, const BinnedMatrix& binned,
                     const std::vector<int64_t>& rows,
                     const std::vector<GradientPair>& gpairs, int64_t begin,
                     int64_t end, NodeHistogram* out) {
  const uint8_t* cells = binned.data();
  const int64_t stride = binned.num_features();
  const int* feats = layout.features().data();
  const int nf = layout.num_features();
  HistEntry* slots = out->mutable_slots();
  HistEntry* miss = out->mutable_miss();
  std::vector<HistEntry*> bases(static_cast<size_t>(nf));
  for (int fi = 0; fi < nf; ++fi) {
    bases[static_cast<size_t>(fi)] = slots + layout.offset(fi);
  }
  HistEntry** base = bases.data();
  for (int64_t i = begin; i < end; ++i) {
    const int64_t r = rows[static_cast<size_t>(i)];
    const uint8_t* row_bins = cells + r * stride;
    const double g = gpairs[static_cast<size_t>(r)].grad;
    const double h = gpairs[static_cast<size_t>(r)].hess;
    for (int fi = 0; fi < nf; ++fi) {
      const uint8_t b = row_bins[feats[fi]];
      HistEntry& e =
          b == kMissingBin ? miss[fi] : base[fi][static_cast<int64_t>(b)];
      e.sum_g += g;
      e.sum_h += h;
      ++e.count;
    }
  }
}

}  // namespace

HistogramLayout::HistogramLayout(const FeatureBins& bins,
                                 std::vector<int> features)
    : features_(std::move(features)) {
  offsets_.reserve(features_.size() + 1);
  offsets_.push_back(0);
  for (int f : features_) {
    offsets_.push_back(offsets_.back() + bins.num_bins(f));
  }
}

NodeHistogram NodeHistogram::Subtract(NodeHistogram parent,
                                      const NodeHistogram& child) {
  HistEntry* ps = parent.mutable_slots();
  const HistEntry* cs = child.slots_.data();
  for (int64_t i = 0; i < parent.num_slots(); ++i) {
    ps[i].sum_g -= cs[i].sum_g;
    ps[i].sum_h -= cs[i].sum_h;
    ps[i].count -= cs[i].count;
  }
  HistEntry* pm = parent.mutable_miss();
  const HistEntry* cm = child.miss_.data();
  for (int64_t i = 0; i < parent.num_miss(); ++i) {
    pm[i].sum_g -= cm[i].sum_g;
    pm[i].sum_h -= cm[i].sum_h;
    pm[i].count -= cm[i].count;
  }
  return parent;
}

NodeHistogram BuildHistogram(const HistogramLayout& layout,
                             const BinnedMatrix& binned,
                             const std::vector<int64_t>& rows,
                             const std::vector<GradientPair>& gpairs) {
  NodeHistogram out(layout);
  const auto n = static_cast<int64_t>(rows.size());
  // The first chunk sums straight into the zeroed result: adding its
  // partial to zeros would give the same bits.
  AccumulateCells(layout, binned, rows, gpairs, 0,
                  std::min(n, kHistChunkRows), &out);
  if (n <= kHistChunkRows) return out;
  NodeHistogram partial(layout);
  HistEntry* ps = partial.mutable_slots();
  HistEntry* pm = partial.mutable_miss();
  HistEntry* os = out.mutable_slots();
  HistEntry* om = out.mutable_miss();
  for (int64_t begin = kHistChunkRows; begin < n; begin += kHistChunkRows) {
    std::fill_n(ps, partial.num_slots(), HistEntry{});
    std::fill_n(pm, partial.num_miss(), HistEntry{});
    AccumulateCells(layout, binned, rows, gpairs, begin,
                    std::min(begin + kHistChunkRows, n), &partial);
    for (int64_t i = 0; i < partial.num_slots(); ++i) {
      os[i].sum_g += ps[i].sum_g;
      os[i].sum_h += ps[i].sum_h;
      os[i].count += ps[i].count;
    }
    for (int64_t i = 0; i < partial.num_miss(); ++i) {
      om[i].sum_g += pm[i].sum_g;
      om[i].sum_h += pm[i].sum_h;
      om[i].count += pm[i].count;
    }
  }
  return out;
}

}  // namespace mysawh::gbt
