#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace mysawh {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Result<double> Quantile(const std::vector<double>& values, double q) {
  if (values.empty()) {
    return Status::InvalidArgument("Quantile of empty vector");
  }
  if (q < 0.0 || q > 1.0) {
    return Status::InvalidArgument("quantile q must be in [0, 1]");
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const auto hi = static_cast<size_t>(std::ceil(pos));
  const double frac = pos - std::floor(pos);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Result<BoxStats> ComputeBoxStats(const std::vector<double>& values) {
  if (values.empty()) {
    return Status::InvalidArgument("ComputeBoxStats on empty vector");
  }
  BoxStats box;
  MYSAWH_ASSIGN_OR_RETURN(box.q1, Quantile(values, 0.25));
  MYSAWH_ASSIGN_OR_RETURN(box.median, Quantile(values, 0.5));
  MYSAWH_ASSIGN_OR_RETURN(box.q3, Quantile(values, 0.75));
  box.iqr = box.q3 - box.q1;
  const double lo_fence = box.q1 - 1.5 * box.iqr;
  const double hi_fence = box.q3 + 1.5 * box.iqr;
  box.min = box.q1;
  box.max = box.q3;
  bool have_inlier = false;
  for (double v : values) {
    if (v < lo_fence || v > hi_fence) {
      box.outliers.push_back(v);
    } else {
      if (!have_inlier) {
        box.min = box.max = v;
        have_inlier = true;
      } else {
        box.min = std::min(box.min, v);
        box.max = std::max(box.max, v);
      }
    }
  }
  std::sort(box.outliers.begin(), box.outliers.end());
  return box;
}

Result<Histogram> ComputeHistogram(const std::vector<double>& values,
                                   const std::vector<double>& edges) {
  if (edges.size() < 2) {
    return Status::InvalidArgument("histogram needs at least 2 edges");
  }
  for (size_t i = 1; i < edges.size(); ++i) {
    if (edges[i] <= edges[i - 1]) {
      return Status::InvalidArgument("histogram edges must strictly increase");
    }
  }
  Histogram hist;
  hist.edges = edges;
  hist.counts.assign(edges.size() - 1, 0);
  for (double v : values) {
    if (v < edges.front()) {
      ++hist.below;
    } else if (v >= edges.back()) {
      ++hist.above;
    } else {
      const auto it = std::upper_bound(edges.begin(), edges.end(), v);
      const auto bin = static_cast<size_t>(it - edges.begin()) - 1;
      ++hist.counts[bin];
    }
  }
  return hist;
}

}  // namespace mysawh
