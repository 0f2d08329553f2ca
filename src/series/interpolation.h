#ifndef MYSAWH_SERIES_INTERPOLATION_H_
#define MYSAWH_SERIES_INTERPOLATION_H_

#include <cstdint>

#include "series/time_series.h"
#include "util/status.h"

namespace mysawh {

/// Result of an interpolation pass.
struct InterpolationReport {
  int64_t filled = 0;        ///< Entries that were filled.
  int64_t left_missing = 0;  ///< Entries still missing afterwards.
};

/// How bounded gaps are filled.
enum class ImputationMethod {
  kLinear,   ///< Linear interpolation between the surrounding observations.
  kLocf,     ///< Last observation carried forward (clinical-trial staple);
             ///< leading gaps fall back to backward carry.
  kNearest,  ///< Nearest surrounding observation (ties resolve backward).
};

/// Fills missing runs of length <= `max_gap` with `method` (kLinear:
/// interpolation between the surrounding observed values). Runs longer than
/// `max_gap` are left untouched — the paper's quality-assurance step found
/// that interpolating very large gaps produces spurious training data and
/// settled on a max of 5.
///
/// Boundary runs (no observation on one side) are filled by carrying the
/// nearest observation when their length is within `max_gap`, and left
/// missing otherwise. `max_gap == 0` disables filling entirely.
Result<InterpolationReport> ImputeMaxGap(TimeSeries* series, int64_t max_gap,
                                         ImputationMethod method);

}  // namespace mysawh

#endif  // MYSAWH_SERIES_INTERPOLATION_H_
