#ifndef MYSAWH_SERIES_AGGREGATION_H_
#define MYSAWH_SERIES_AGGREGATION_H_

#include <cstdint>
#include <vector>

#include "series/time_series.h"
#include "util/status.h"

namespace mysawh {

/// How a block of daily observations is reduced to one monthly value.
enum class AggregateOp { kMean, kSum, kMin, kMax };

/// Reduces daily observations to one value per fixed-size period, skipping
/// missing entries. A period with no observed entries yields NaN. This is
/// the paper's "mean of the daily wearable device data collected during the
/// same month" step (steps, calories, sleep hours).
///
/// `period` is the number of daily entries per bucket (e.g. 30). The final
/// bucket may be shorter. Requires period > 0.
Result<TimeSeries> AggregateByPeriod(const TimeSeries& daily, int64_t period,
                                     AggregateOp op);

}  // namespace mysawh

#endif  // MYSAWH_SERIES_AGGREGATION_H_
