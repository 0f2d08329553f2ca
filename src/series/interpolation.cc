#include "series/interpolation.h"

#include <cmath>

namespace mysawh {

Result<InterpolationReport> ImputeMaxGap(TimeSeries* series, int64_t max_gap,
                                         ImputationMethod method) {
  if (series == nullptr) {
    return Status::InvalidArgument("ImputeMaxGap: null series");
  }
  if (max_gap < 0) {
    return Status::InvalidArgument("ImputeMaxGap: max_gap must be >= 0");
  }
  InterpolationReport report;
  const auto gaps = FindGaps(*series);
  for (const Gap& gap : gaps) {
    if (max_gap == 0 || gap.length > max_gap) continue;
    const int64_t before = gap.start - 1;
    const int64_t after = gap.start + gap.length;
    const bool has_before = before >= 0;
    const bool has_after = after < series->size();
    if (!has_before && !has_after) continue;  // fully missing series
    for (int64_t k = 0; k < gap.length; ++k) {
      const int64_t pos = gap.start + k;
      double value;
      if (!has_before) {
        value = series->at(after);  // backward carry at the boundary
      } else if (!has_after) {
        value = series->at(before);  // forward carry at the boundary
      } else {
        switch (method) {
          case ImputationMethod::kLinear: {
            const double lo = series->at(before);
            const double hi = series->at(after);
            const double t = static_cast<double>(k + 1) /
                             static_cast<double>(gap.length + 1);
            value = lo + t * (hi - lo);
            break;
          }
          case ImputationMethod::kLocf:
            value = series->at(before);
            break;
          case ImputationMethod::kNearest: {
            const int64_t dist_before = pos - before;
            const int64_t dist_after = after - pos;
            value = dist_before <= dist_after ? series->at(before)
                                              : series->at(after);
            break;
          }
          default:
            return Status::InvalidArgument("unknown imputation method");
        }
      }
      series->set(pos, value);
      ++report.filled;
    }
  }
  report.left_missing = series->NumMissing();
  return report;
}

}  // namespace mysawh
