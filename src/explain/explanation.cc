#include "explain/explanation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "gbt/objective.h"
#include "util/string_util.h"

namespace mysawh::explain {

std::vector<FeatureContribution> LocalExplanation::Top(int k) const {
  const auto n = std::min<size_t>(static_cast<size_t>(std::max(k, 0)),
                                  contributions.size());
  return {contributions.begin(), contributions.begin() + static_cast<long>(n)};
}

std::string LocalExplanation::ToString(int top_k) const {
  std::ostringstream os;
  os << "prediction=" << FormatDouble(prediction, 4)
     << " (raw=" << FormatDouble(raw_prediction, 4)
     << ", expected=" << FormatDouble(expected_value, 4) << ")\n";
  double max_abs = 0.0;
  for (const auto& c : Top(top_k)) max_abs = std::max(max_abs, std::abs(c.shap));
  for (const auto& c : Top(top_k)) {
    const int width =
        max_abs > 0 ? static_cast<int>(std::abs(c.shap) / max_abs * 24 + 0.5)
                    : 0;
    os << "  " << (c.shap >= 0 ? "+" : "-") << " "
       << std::string(static_cast<size_t>(width), c.shap >= 0 ? '#' : '=')
       << " " << c.feature << "=" << FormatDouble(c.value, 4)
       << " (shap=" << FormatDouble(c.shap, 4) << ")\n";
  }
  return os.str();
}

Result<LocalExplanation> ExplainRow(const TreeShap& shap, const Dataset& data,
                                    int64_t row) {
  if (row < 0 || row >= data.num_rows()) {
    return Status::OutOfRange("ExplainRow: row out of range");
  }
  if (data.num_features() != shap.model().num_features()) {
    return Status::InvalidArgument("ExplainRow: dataset width mismatch");
  }
  const gbt::GbtModel& model = shap.model();
  LocalExplanation out;
  const double* x = data.row(row);
  const std::vector<double> phi = shap.Shap(x);
  out.raw_prediction = model.PredictRowRaw(x);
  out.prediction =
      gbt::MakeObjective(model.objective_type())->Transform(out.raw_prediction);
  out.expected_value = shap.expected_value();
  const auto& names = model.feature_names();
  out.contributions.reserve(phi.size());
  for (size_t f = 0; f < phi.size(); ++f) {
    out.contributions.push_back({names[f], x[f], phi[f]});
  }
  std::sort(out.contributions.begin(), out.contributions.end(),
            [](const FeatureContribution& a, const FeatureContribution& b) {
              if (std::abs(a.shap) != std::abs(b.shap)) {
                return std::abs(a.shap) > std::abs(b.shap);
              }
              return a.feature < b.feature;
            });
  return out;
}

Result<DependenceCurve> ComputeDependenceCurve(
    const TreeShap& shap, const Dataset& data,
    const std::string& feature_name) {
  MYSAWH_ASSIGN_OR_RETURN(int feature, data.FeatureIndex(feature_name));
  MYSAWH_ASSIGN_OR_RETURN(auto matrix, shap.ShapBatch(data));
  DependenceCurve curve;
  curve.feature = feature_name;
  std::map<double, std::pair<double, int64_t>> by_value;  // sum, count
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    const double v = data.At(r, feature);
    if (std::isnan(v)) continue;
    const double sv = matrix[static_cast<size_t>(r)][static_cast<size_t>(feature)];
    curve.values.push_back(v);
    curve.shap_values.push_back(sv);
    auto& acc = by_value[v];
    acc.first += sv;
    ++acc.second;
  }
  for (const auto& [v, acc] : by_value) {
    curve.distinct_values.push_back(v);
    curve.mean_shap.push_back(acc.first / static_cast<double>(acc.second));
    curve.counts.push_back(acc.second);
  }
  // Recovered threshold: scan every boundary between adjacent distinct
  // values and score it by the between-group variance of the SHAP values
  // (count-weighted), keeping only boundaries whose group means have
  // opposite signs. This is robust to the noisy micro sign-changes a raw
  // zero-crossing rule would latch onto.
  curve.recovered_threshold = std::numeric_limits<double>::quiet_NaN();
  double total_sum = 0.0;
  int64_t total_count = 0;
  for (size_t i = 0; i < curve.mean_shap.size(); ++i) {
    total_sum += curve.mean_shap[i] * static_cast<double>(curve.counts[i]);
    total_count += curve.counts[i];
  }
  double best_score = 0.0;
  double left_sum = 0.0;
  int64_t left_count = 0;
  for (size_t i = 0; i + 1 < curve.mean_shap.size(); ++i) {
    left_sum += curve.mean_shap[i] * static_cast<double>(curve.counts[i]);
    left_count += curve.counts[i];
    const int64_t right_count = total_count - left_count;
    if (right_count == 0) break;
    const double mean_left = left_sum / static_cast<double>(left_count);
    const double mean_right =
        (total_sum - left_sum) / static_cast<double>(right_count);
    if ((mean_left < 0.0) == (mean_right < 0.0)) continue;
    const double diff = mean_left - mean_right;
    const double score = static_cast<double>(left_count) *
                         static_cast<double>(right_count) /
                         static_cast<double>(total_count) * diff * diff;
    if (score > best_score) {
      best_score = score;
      curve.recovered_threshold =
          0.5 * (curve.distinct_values[i] + curve.distinct_values[i + 1]);
      curve.has_threshold = true;
    }
  }
  return curve;
}

}  // namespace mysawh::explain
