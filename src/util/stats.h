#ifndef MYSAWH_UTIL_STATS_H_
#define MYSAWH_UTIL_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace mysawh {

/// Arithmetic mean. Returns 0 for an empty input.
double Mean(const std::vector<double>& values);

/// Linear-interpolated quantile (type-7, the numpy/R default). `q` in [0, 1].
/// The input need not be sorted. Fails on empty input or q outside [0, 1].
Result<double> Quantile(const std::vector<double>& values, double q);

/// Five-number summary plus Tukey outliers, the statistics a box-and-whisker
/// plot is drawn from (used to reproduce the paper's Fig 5).
struct BoxStats {
  double min = 0;           ///< Smallest non-outlier value (lower whisker).
  double q1 = 0;            ///< First quartile.
  double median = 0;        ///< 0.5 quantile.
  double q3 = 0;            ///< Third quartile.
  double max = 0;           ///< Largest non-outlier value (upper whisker).
  double iqr = 0;           ///< Interquartile range q3 - q1.
  std::vector<double> outliers;  ///< Values beyond 1.5 * IQR from the box.
};

/// Computes box-plot statistics with the Tukey 1.5*IQR fence.
Result<BoxStats> ComputeBoxStats(const std::vector<double>& values);

/// A fixed-edge histogram.
struct Histogram {
  std::vector<double> edges;    ///< n_bins + 1 monotonically increasing edges.
  std::vector<int64_t> counts;  ///< n_bins counts.
  int64_t below = 0;            ///< Values below edges.front().
  int64_t above = 0;            ///< Values at or above edges.back().
};

/// Bins `values` into the half-open intervals [edges[i], edges[i+1]).
/// Requires at least two strictly increasing edges.
Result<Histogram> ComputeHistogram(const std::vector<double>& values,
                                   const std::vector<double>& edges);

}  // namespace mysawh

#endif  // MYSAWH_UTIL_STATS_H_
