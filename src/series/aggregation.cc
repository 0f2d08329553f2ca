#include "series/aggregation.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mysawh {

Result<TimeSeries> AggregateByPeriod(const TimeSeries& daily, int64_t period,
                                     AggregateOp op) {
  if (period <= 0) {
    return Status::InvalidArgument("AggregateByPeriod: period must be > 0");
  }
  const int64_t n = daily.size();
  const int64_t num_buckets = (n + period - 1) / period;
  std::vector<double> out(static_cast<size_t>(num_buckets),
                          std::numeric_limits<double>::quiet_NaN());
  for (int64_t b = 0; b < num_buckets; ++b) {
    const int64_t begin = b * period;
    const int64_t end = std::min(begin + period, n);
    double acc = 0.0;
    int64_t count = 0;
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    for (int64_t i = begin; i < end; ++i) {
      if (daily.IsMissing(i)) continue;
      const double v = daily.at(i);
      acc += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
      ++count;
    }
    if (count == 0) continue;
    switch (op) {
      case AggregateOp::kMean:
        out[static_cast<size_t>(b)] = acc / static_cast<double>(count);
        break;
      case AggregateOp::kSum:
        out[static_cast<size_t>(b)] = acc;
        break;
      case AggregateOp::kMin:
        out[static_cast<size_t>(b)] = mn;
        break;
      case AggregateOp::kMax:
        out[static_cast<size_t>(b)] = mx;
        break;
    }
  }
  return TimeSeries(std::move(out));
}

}  // namespace mysawh
