#ifndef MYSAWH_GBT_HISTOGRAM_H_
#define MYSAWH_GBT_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gbt/binning.h"
#include "gbt/objective.h"

namespace mysawh::gbt {

/// The builds of the histogram and split kernels: one source compiled for
/// the baseline target and for AVX2. Each vector lane runs the scalar
/// arithmetic and lanes never mix, so both builds give the same bits.
enum class KernelIsa { kBaseline, kAvx2 };

/// The build this CPU runs: kAvx2 where it has AVX2, so never off x86.
KernelIsa HostIsa();

// Marks the AVX2 build of a kernel.
#if defined(__x86_64__) || defined(__i386__)
#define MYSAWH_TARGET_AVX2 [[gnu::target("avx2")]]
#else
#define MYSAWH_TARGET_AVX2  // a plain build, which HostIsa() never selects
#endif

/// Accumulated gradient statistics of one histogram slot (one bin of one
/// feature, or one feature's missing-value bucket). Four doubles, so one
/// 4-wide add updates a slot; the row count is exact below 2^53.
struct alignas(32) HistEntry {
  double sum_g = 0.0;
  double sum_h = 0.0;
  double count = 0.0;
  double pad = 0.0;  ///< Always 0: fills the slot to 32 bytes.
};

/// Slot layout of a per-node histogram over a (possibly column-subsampled)
/// feature set: `num_bins(feature)` contiguous slots per selected feature,
/// plus one missing-value slot per selected feature kept in a separate
/// array. The layout is fixed per tree, so parent and child histograms are
/// slot-compatible and support element-wise subtraction.
class HistogramLayout {
 public:
  HistogramLayout() = default;
  /// `features` are dataset feature indices, ascending.
  HistogramLayout(const FeatureBins& bins, std::vector<int> features);

  /// The selected dataset feature indices (ascending).
  const std::vector<int>& features() const { return features_; }
  int num_features() const { return static_cast<int>(features_.size()); }
  /// Total bin slots across all selected features (missing excluded).
  int64_t num_slots() const { return offsets_.empty() ? 0 : offsets_.back(); }
  /// First slot of the i-th selected feature.
  int64_t offset(int i) const { return offsets_[static_cast<size_t>(i)]; }
  /// Bin count of the i-th selected feature.
  int num_bins(int i) const {
    return static_cast<int>(offsets_[static_cast<size_t>(i) + 1] -
                            offsets_[static_cast<size_t>(i)]);
  }

 private:
  std::vector<int> features_;
  std::vector<int64_t> offsets_;  // size features_.size() + 1
};

/// One node's gradient histogram in a given layout: every selected feature's
/// bin slots, then one missing-value slot per feature, in one buffer.
class NodeHistogram {
 public:
  bool empty() const { return entries_.empty(); }

  /// Bin slots of the i-th selected feature (layout.num_bins(i) entries).
  const HistEntry* feature_slots(const HistogramLayout& layout, int i) const {
    return entries_.data() + layout.offset(i);
  }
  /// Missing-value bucket of the i-th selected feature.
  const HistEntry& miss(int i) const {
    return entries_[static_cast<size_t>(num_slots_ + i)];
  }

  const HistEntry* slots_data() const { return entries_.data(); }
  const HistEntry* miss_data() const { return entries_.data() + num_slots_; }
  int64_t num_slots() const { return num_slots_; }
  int64_t num_miss() const { return std::ssize(entries_) - num_slots_; }

  /// The sibling-subtraction trick, in place: the parent's histogram becomes
  /// `parent - child` slot-wise, so the larger sibling costs O(slots)
  /// instead of a pass over its rows. Both must share one layout.
  void Subtract(const NodeHistogram& child, KernelIsa isa = HostIsa());

 private:
  friend NodeHistogram BuildHistogram(const HistogramLayout& layout,
                                      const BinnedMatrix& binned,
                                      std::span<const int64_t> rows,
                                      const std::vector<GradientPair>& gpairs,
                                      NodeHistogram storage, KernelIsa isa);
  std::vector<HistEntry> entries_;  // slots, then one miss slot per feature
  int64_t num_slots_ = 0;
};

/// Accumulates the histogram of `rows` for every feature in `layout` with a
/// single row-major pass: each row's bins (contiguous in the row-major
/// BinnedMatrix) feed every selected feature's histogram at once, instead
/// of rescanning the node once per feature. The result reuses the buffer
/// of `storage`, a histogram the caller no longer needs. The CPU must
/// support `isa`.
///
/// Rows are summed in fixed 2048-row chunks, each into a zeroed partial,
/// and the partials are added in ascending chunk order. That association
/// depends only on the row count and sets the bits of every node with more
/// than one chunk of rows (HistogramTest.ChunkAssociationIsPinned).
NodeHistogram BuildHistogram(const HistogramLayout& layout,
                             const BinnedMatrix& binned,
                             std::span<const int64_t> rows,
                             const std::vector<GradientPair>& gpairs,
                             NodeHistogram storage = NodeHistogram(),
                             KernelIsa isa = HostIsa());

}  // namespace mysawh::gbt

#endif  // MYSAWH_GBT_HISTOGRAM_H_
