#include "gbt/histogram.h"

#include <algorithm>
#include <utility>

namespace mysawh::gbt {

namespace {

/// Rows per chunk of the pinned summation order (see BuildHistogram).
constexpr int64_t kHistChunkRows = 2048;

/// A histogram slot as one 4-wide vector: {g, h, count, pad}.
using Slot4 = double __attribute__((vector_size(32), may_alias));

Slot4& AsVector(HistEntry& e) { return *reinterpret_cast<Slot4*>(&e); }
const Slot4& AsVector(const HistEntry& e) {
  return *reinterpret_cast<const Slot4*>(&e);
}

/// Sets `entries` (the layout's slots, then its miss slots) to the sums of
/// `rows`: the single cache-friendly pass. Each row's byte cells are read
/// contiguously and feed all selected features, four features per step,
/// and each cell's slot adds {g, h, 1, 0} in one vector add, so every slot
/// takes its rows in order. Under AVX2 that add is one instruction.
[[gnu::always_inline]] inline void AccumulateCells(
    const HistogramLayout& layout, const BinnedMatrix& binned,
    std::span<const int64_t> rows, const std::vector<GradientPair>& gpairs,
    HistEntry* entries) {
  const uint8_t* cells = binned.data();
  const int64_t stride = binned.num_features();
  const int* feats = layout.features().data();
  const int nf = layout.num_features();
  const int64_t num_slots = layout.num_slots();
  std::fill_n(entries, num_slots + nf, HistEntry{});
  // Each feature's first slot, in a local array: read through the layout,
  // its address would be reloaded after every slot store.
  thread_local std::vector<HistEntry*> bases;
  bases.resize(static_cast<size_t>(nf));
  for (int fi = 0; fi < nf; ++fi) bases[fi] = entries + layout.offset(fi);
  HistEntry* const* base = bases.data();
  const auto slot = [&](const uint8_t* row_bins, int fi) {
    const uint8_t b = row_bins[feats[fi]];
    return b == kMissingBin ? entries + num_slots + fi : base[fi] + b;
  };
  for (const int64_t r : rows) {
    const uint8_t* row_bins = cells + r * stride;
    const GradientPair& gp = gpairs[static_cast<size_t>(r)];
    const Slot4 v = {gp.grad, gp.hess, 1.0, 0.0};
    int fi = 0;
    // Distinct features never share a slot, so four slots can be read,
    // added and written back as a group.
    for (; fi + 4 <= nf; fi += 4) {
      Slot4* e[4];
      Slot4 sum[4];
      for (int j = 0; j < 4; ++j) e[j] = &AsVector(*slot(row_bins, fi + j));
      for (int j = 0; j < 4; ++j) sum[j] = *e[j] + v;
      for (int j = 0; j < 4; ++j) *e[j] = sum[j];
    }
    for (; fi < nf; ++fi) AsVector(*slot(row_bins, fi)) += v;
  }
}

MYSAWH_TARGET_AVX2 void AccumulateAvx2(const HistogramLayout& layout,
                                       const BinnedMatrix& binned,
                                       std::span<const int64_t> rows,
                                       const std::vector<GradientPair>& gpairs,
                                       HistEntry* entries) {
  AccumulateCells(layout, binned, rows, gpairs, entries);
}

/// out[i] -= in[i] for n slots, one vector subtract each.
[[gnu::always_inline]] inline void SubtractSlots(HistEntry* out,
                                                 const HistEntry* in,
                                                 size_t n) {
  for (size_t i = 0; i < n; ++i) AsVector(out[i]) -= AsVector(in[i]);
}

MYSAWH_TARGET_AVX2 void SubtractAvx2(HistEntry* out, const HistEntry* in,
                                     size_t n) {
  SubtractSlots(out, in, n);
}

}  // namespace

KernelIsa HostIsa() {
#if defined(__x86_64__) || defined(__i386__)
  static const KernelIsa isa = __builtin_cpu_supports("avx2")
                                   ? KernelIsa::kAvx2
                                   : KernelIsa::kBaseline;
  return isa;
#else
  return KernelIsa::kBaseline;
#endif
}

HistogramLayout::HistogramLayout(const FeatureBins& bins,
                                 std::vector<int> features)
    : features_(std::move(features)) {
  offsets_.reserve(features_.size() + 1);
  offsets_.push_back(0);
  for (int f : features_) {
    offsets_.push_back(offsets_.back() + bins.num_bins(f));
  }
}

void NodeHistogram::Subtract(const NodeHistogram& child, KernelIsa isa) {
  (isa == KernelIsa::kAvx2 ? SubtractAvx2 : SubtractSlots)(
      entries_.data(), child.entries_.data(), entries_.size());
}

NodeHistogram BuildHistogram(const HistogramLayout& layout,
                             const BinnedMatrix& binned,
                             std::span<const int64_t> rows,
                             const std::vector<GradientPair>& gpairs,
                             NodeHistogram storage, KernelIsa isa) {
  NodeHistogram out = std::move(storage);
  const auto size =
      static_cast<size_t>(layout.num_slots() + layout.num_features());
  out.entries_.resize(size);
  out.num_slots_ = layout.num_slots();
  const auto accumulate =
      isa == KernelIsa::kAvx2 ? AccumulateAvx2 : AccumulateCells;
  const auto n = static_cast<int64_t>(rows.size());
  // The first chunk sums straight into the result: adding its partial to
  // zeros would give the same bits.
  accumulate(layout, binned, rows.first(std::min(n, kHistChunkRows)), gpairs,
             out.entries_.data());
  if (n <= kHistChunkRows) return out;
  thread_local std::vector<HistEntry> partial;
  partial.resize(size);
  for (int64_t begin = kHistChunkRows; begin < n; begin += kHistChunkRows) {
    accumulate(layout, binned,
               rows.subspan(begin, std::min(kHistChunkRows, n - begin)),
               gpairs, partial.data());
    for (size_t i = 0; i < size; ++i) {
      AsVector(out.entries_[i]) += AsVector(partial[i]);
    }
  }
  return out;
}

}  // namespace mysawh::gbt
