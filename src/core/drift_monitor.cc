#include "core/drift_monitor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "core/audit_log.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/monitor.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace mysawh::core {
namespace {

/// Proportions are clamped away from zero before the PSI log-ratio, the
/// standard guard that keeps an empty bin from producing an infinite
/// index.
constexpr double kPsiEpsilon = 1e-6;

std::atomic<bool> g_drift_enabled{false};

double Clamp(double p) { return p < kPsiEpsilon ? kPsiEpsilon : p; }

/// Bin index of one present value: the first edge at or above it, the
/// overflow bin otherwise. Edges are ascending, bins = edges.size() + 1.
size_t BinOf(const std::vector<double>& edges, double value) {
  const auto it = std::lower_bound(edges.begin(), edges.end(), value);
  return static_cast<size_t>(it - edges.begin());
}

/// PSI + KS of one observed strided column against one baseline feature.
/// The stride lets callers evaluate row-major data in place.
FeatureDriftStat ComputeFeatureDriftStrided(const FeatureBaseline& base,
                                            const double* values,
                                            int64_t rows, int64_t stride) {
  FeatureDriftStat stat;
  stat.name = base.name;
  stat.rows = rows;
  if (rows == 0 || base.rows == 0) return stat;
  const size_t num_bins = std::max<size_t>(base.expected.size(), 1);
  std::vector<int64_t> counts(num_bins, 0);
  int64_t missing = 0;
  const double* edges = base.edges.data();
  const size_t num_edges = base.edges.size();
  for (int64_t r = 0; r < rows; ++r) {
    const double v = values[r * stride];
    if (std::isnan(v)) {
      ++missing;
      continue;
    }
    // Branchless lower_bound: the bin index is the number of edges
    // strictly below the value. Edge counts are single digits, so the
    // linear scan vectorizes and beats a binary search.
    size_t bin = 0;
    for (size_t j = 0; j < num_edges; ++j) bin += edges[j] < v ? 1 : 0;
    if (bin >= num_bins) bin = num_bins - 1;
    ++counts[bin];
  }
  const auto total = static_cast<double>(rows);
  const int64_t present = rows - missing;
  stat.missing_actual = static_cast<double>(missing) / total;

  // PSI over num_bins + 1 components: each value bin scaled by the
  // present fraction, plus the missing bin, so missingness shift scores
  // exactly like value shift.
  double psi = 0.0;
  for (size_t b = 0; b < num_bins; ++b) {
    const double expected_present =
        b < base.expected.size() ? base.expected[b] : 0.0;
    const double e = Clamp(expected_present * (1.0 - base.missing_expected));
    const double a = Clamp(static_cast<double>(counts[b]) / total);
    psi += (a - e) * std::log(a / e);
  }
  {
    const double e = Clamp(base.missing_expected);
    const double a = Clamp(stat.missing_actual);
    psi += (a - e) * std::log(a / e);
  }
  stat.psi = psi;

  // KS: the maximum ECDF gap at the bin edges, present values only.
  if (!base.edges.empty() && present > 0) {
    double cum_expected = 0.0;
    double cum_actual = 0.0;
    double ks = 0.0;
    for (size_t b = 0; b + 1 < num_bins; ++b) {
      cum_expected += b < base.expected.size() ? base.expected[b] : 0.0;
      cum_actual +=
          static_cast<double>(counts[b]) / static_cast<double>(present);
      ks = std::max(ks, std::fabs(cum_expected - cum_actual));
    }
    stat.ks = ks;
  }
  return stat;
}

/// Builds the baseline of one column: equal-frequency edges over the
/// present values, deduplicated (ties collapse bins), then the expected
/// proportions by re-binning the same values.
FeatureBaseline BuildFeatureBaseline(const std::string& name,
                                     const std::vector<double>& values,
                                     int num_bins) {
  FeatureBaseline base;
  base.name = name;
  base.rows = static_cast<int64_t>(values.size());
  std::vector<double> present;
  present.reserve(values.size());
  for (const double v : values) {
    if (!std::isnan(v)) present.push_back(v);
  }
  base.missing_expected =
      base.rows == 0
          ? 0.0
          : static_cast<double>(base.rows -
                                static_cast<int64_t>(present.size())) /
                static_cast<double>(base.rows);
  if (present.empty()) return base;  // All-missing: zero edges, no bins.

  std::sort(present.begin(), present.end());
  const size_t n = present.size();
  for (int k = 1; k < num_bins; ++k) {
    const size_t idx = (static_cast<size_t>(k) * n) / num_bins;
    const double edge = present[std::min(idx, n - 1)];
    if (base.edges.empty() || edge > base.edges.back()) {
      base.edges.push_back(edge);
    }
  }
  base.expected.assign(base.edges.size() + 1, 0.0);
  for (const double v : present) {
    base.expected[BinOf(base.edges, v)] += 1.0;
  }
  for (double& p : base.expected) p /= static_cast<double>(n);
  return base;
}

/// The one drift evaluation behind EvaluateDrift and the streaming
/// windows: per-feature stats over `count` row-major rows of the baseline
/// width, the prediction stat when `preds` is given (nullptr skips it),
/// then the argmax summaries and threshold crossings in baseline order.
DriftReport EvaluateRows(const DriftBaseline& baseline, const double* rows,
                         const double* preds, int64_t count,
                         const DriftThresholds& thresholds) {
  const auto width = static_cast<int64_t>(baseline.features.size());
  DriftReport report;
  report.rows = count;
  report.features.reserve(baseline.features.size());
  for (int64_t f = 0; f < width; ++f) {
    report.features.push_back(ComputeFeatureDriftStrided(
        baseline.features[static_cast<size_t>(f)], rows + f, count, width));
  }
  const bool has_prediction = preds != nullptr && baseline.prediction.rows > 0;
  if (has_prediction) {
    report.prediction =
        ComputeFeatureDriftStrided(baseline.prediction, preds, count, 1);
  } else {
    report.prediction.name = baseline.prediction.name.empty()
                                 ? "__prediction__"
                                 : baseline.prediction.name;
  }
  const auto consider = [&](const FeatureDriftStat& stat) {
    if (report.max_psi_feature.empty() || stat.psi > report.max_psi) {
      report.max_psi = stat.psi;
      report.max_psi_feature = stat.name;
    }
    if (report.max_ks_feature.empty() || stat.ks > report.max_ks) {
      report.max_ks = stat.ks;
      report.max_ks_feature = stat.name;
    }
    if (stat.psi > thresholds.psi || stat.ks > thresholds.ks) {
      report.alerts.push_back(stat.name);
    }
  };
  for (const FeatureDriftStat& stat : report.features) consider(stat);
  if (has_prediction) consider(report.prediction);
  return report;
}

std::string FeatureBaselineJson(const FeatureBaseline& base) {
  std::string out = "{\"name\":\"";
  out += JsonEscape(base.name);
  out += "\",\"rows\":";
  out += std::to_string(base.rows);
  out += ",\"missing\":";
  out += TelemetryDouble(base.missing_expected);
  out += ",\"edges\":[";
  for (size_t i = 0; i < base.edges.size(); ++i) {
    if (i > 0) out += ',';
    out += TelemetryDouble(base.edges[i]);
  }
  out += "],\"expected\":[";
  for (size_t i = 0; i < base.expected.size(); ++i) {
    if (i > 0) out += ',';
    out += TelemetryDouble(base.expected[i]);
  }
  out += "]}";
  return out;
}

Result<FeatureBaseline> ParseFeatureBaseline(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("drift baseline: feature is not an object");
  }
  FeatureBaseline base;
  const JsonValue* name = value.Find("name");
  if (name == nullptr || !name->is_string()) {
    return Status::InvalidArgument("drift baseline: feature without a name");
  }
  base.name = name->string_value();
  const JsonValue* rows = value.Find("rows");
  if (rows == nullptr || !rows->is_number()) {
    return Status::InvalidArgument("drift baseline: feature without rows");
  }
  const std::optional<int64_t> row_count =
      JsonInteger(rows, 0, std::numeric_limits<int64_t>::max());
  if (!row_count.has_value()) {
    return Status::DataLoss("drift baseline: feature " + base.name +
                            " has a row count that is not a whole number");
  }
  base.rows = *row_count;
  const JsonValue* missing = value.Find("missing");
  if (missing != nullptr) {
    if (!missing->is_number()) {
      return Status::DataLoss("drift baseline: feature " + base.name +
                              " has a non-numeric missing fraction");
    }
    base.missing_expected = missing->number_value();
  }
  const auto read_array = [&](const char* key,
                              std::vector<double>& out) -> Status {
    const JsonValue* array = value.Find(key);
    if (array == nullptr || !array->is_array()) {
      return Status::InvalidArgument(std::string("drift baseline: feature ") +
                                     base.name + " lacks array " + key);
    }
    for (const JsonValue& item : array->array_items()) {
      // NaN serializes as null; JSON numbers themselves are never NaN.
      if (!item.is_number()) {
        return Status::DataLoss("drift baseline: feature " + base.name +
                                " has a non-numeric entry in " + key);
      }
      out.push_back(item.number_value());
    }
    return Status::Ok();
  };
  MYSAWH_RETURN_NOT_OK(read_array("edges", base.edges));
  MYSAWH_RETURN_NOT_OK(read_array("expected", base.expected));
  if (!base.edges.empty() && base.expected.empty()) {
    return Status::DataLoss("drift baseline: feature " + base.name +
                            " has edges but no proportions");
  }
  if (!base.expected.empty() &&
      base.expected.size() != base.edges.size() + 1) {
    return Status::DataLoss("drift baseline: feature " + base.name + " has " +
                            std::to_string(base.expected.size()) +
                            " proportions for " +
                            std::to_string(base.edges.size()) + " edges");
  }
  for (size_t i = 1; i < base.edges.size(); ++i) {
    if (!(base.edges[i] > base.edges[i - 1])) {
      return Status::DataLoss("drift baseline: feature " + base.name +
                              " edges are not ascending");
    }
  }
  const auto is_proportion = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!is_proportion(base.missing_expected) ||
      !std::all_of(base.expected.begin(), base.expected.end(),
                   is_proportion)) {
    return Status::DataLoss("drift baseline: feature " + base.name +
                            " has a proportion outside [0, 1]");
  }
  return base;
}

std::string FeatureDriftStatJson(const FeatureDriftStat& stat) {
  std::string out = "{\"name\":\"";
  out += JsonEscape(stat.name);
  out += "\",\"psi\":";
  out += TelemetryDouble(stat.psi);
  out += ",\"ks\":";
  out += TelemetryDouble(stat.ks);
  out += ",\"missing\":";
  out += TelemetryDouble(stat.missing_actual);
  out += ",\"rows\":";
  out += std::to_string(stat.rows);
  out += '}';
  return out;
}

}  // namespace

Result<DriftBaseline> BuildDriftBaseline(const Dataset& train,
                                         const std::vector<double>& train_preds,
                                         int num_bins) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("BuildDriftBaseline: empty training data");
  }
  if (num_bins < 2) {
    return Status::InvalidArgument("BuildDriftBaseline: num_bins must be >= 2");
  }
  if (!train_preds.empty() &&
      static_cast<int64_t>(train_preds.size()) != train.num_rows()) {
    return Status::InvalidArgument(
        "BuildDriftBaseline: prediction count != row count");
  }
  DriftBaseline baseline;
  baseline.num_bins = num_bins;
  std::vector<double> column(static_cast<size_t>(train.num_rows()));
  for (int64_t f = 0; f < train.num_features(); ++f) {
    for (int64_t r = 0; r < train.num_rows(); ++r) {
      column[static_cast<size_t>(r)] = train.At(r, f);
    }
    baseline.features.push_back(BuildFeatureBaseline(
        train.feature_names()[static_cast<size_t>(f)], column, num_bins));
  }
  if (train_preds.empty()) {
    baseline.prediction.name = "__prediction__";
  } else {
    baseline.prediction =
        BuildFeatureBaseline("__prediction__", train_preds, num_bins);
  }
  return baseline;
}

Result<DriftReport> EvaluateDrift(const DriftBaseline& baseline,
                                  const Dataset& data,
                                  const std::vector<double>& preds,
                                  const DriftThresholds& thresholds) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("EvaluateDrift: empty data");
  }
  if (data.num_features() !=
      static_cast<int64_t>(baseline.features.size())) {
    return Status::InvalidArgument(
        "EvaluateDrift: dataset width " + std::to_string(data.num_features()) +
        " != baseline width " + std::to_string(baseline.features.size()));
  }
  if (!preds.empty() &&
      static_cast<int64_t>(preds.size()) != data.num_rows()) {
    return Status::InvalidArgument(
        "EvaluateDrift: prediction count != row count");
  }
  return EvaluateRows(baseline, data.row(0),
                      preds.empty() ? nullptr : preds.data(), data.num_rows(),
                      thresholds);
}

std::string DriftBaselineJson(const DriftBaseline& baseline) {
  std::string out = "{\"schema\":\"mysawh-drift-baseline v1\",\"num_bins\":";
  out += std::to_string(baseline.num_bins);
  out += ",\"features\":[";
  for (size_t f = 0; f < baseline.features.size(); ++f) {
    if (f > 0) out += ',';
    out += FeatureBaselineJson(baseline.features[f]);
  }
  out += "],\"prediction\":";
  out += FeatureBaselineJson(baseline.prediction);
  out += '}';
  return out;
}

Result<DriftBaseline> ParseDriftBaseline(const std::string& json) {
  MYSAWH_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (!root.is_object()) {
    return Status::InvalidArgument("drift baseline: not a JSON object");
  }
  if (root.StringOr("schema", "") != "mysawh-drift-baseline v1") {
    return Status::InvalidArgument(
        "drift baseline: missing or unknown schema (want "
        "\"mysawh-drift-baseline v1\")");
  }
  DriftBaseline baseline;
  const JsonValue* num_bins = root.Find("num_bins");
  const std::optional<int64_t> bins =
      num_bins == nullptr
          ? 10
          : JsonInteger(num_bins, 2, std::numeric_limits<int>::max());
  if (!bins.has_value()) {
    return Status::DataLoss(
        "drift baseline: num_bins is not a whole number >= 2");
  }
  baseline.num_bins = static_cast<int>(*bins);
  const JsonValue* features = root.Find("features");
  if (features == nullptr || !features->is_array()) {
    return Status::InvalidArgument("drift baseline: missing features array");
  }
  for (const JsonValue& item : features->array_items()) {
    MYSAWH_ASSIGN_OR_RETURN(FeatureBaseline base, ParseFeatureBaseline(item));
    baseline.features.push_back(std::move(base));
  }
  if (baseline.features.empty()) {
    return Status::DataLoss("drift baseline: zero features");
  }
  const JsonValue* prediction = root.Find("prediction");
  if (prediction != nullptr) {
    MYSAWH_ASSIGN_OR_RETURN(baseline.prediction,
                            ParseFeatureBaseline(*prediction));
  } else {
    baseline.prediction.name = "__prediction__";
  }
  return baseline;
}

std::string DriftReportJson(const DriftReport& report) {
  std::string out = "{\"rows\":";
  out += std::to_string(report.rows);
  out += ",\"max_psi\":";
  out += TelemetryDouble(report.max_psi);
  out += ",\"max_psi_feature\":\"";
  out += JsonEscape(report.max_psi_feature);
  out += "\",\"max_ks\":";
  out += TelemetryDouble(report.max_ks);
  out += ",\"max_ks_feature\":\"";
  out += JsonEscape(report.max_ks_feature);
  out += "\",\"alerts\":[";
  for (size_t i = 0; i < report.alerts.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += JsonEscape(report.alerts[i]);
    out += '"';
  }
  out += "],\"prediction\":";
  out += FeatureDriftStatJson(report.prediction);
  out += ",\"features\":[";
  for (size_t f = 0; f < report.features.size(); ++f) {
    if (f > 0) out += ',';
    out += FeatureDriftStatJson(report.features[f]);
  }
  out += "]}";
  return out;
}

bool DriftMonitoringEnabled() {
  return g_drift_enabled.load(std::memory_order_relaxed);
}

DriftMonitorRuntime& DriftMonitorRuntime::Global() {
  static DriftMonitorRuntime* const runtime = new DriftMonitorRuntime();
  return *runtime;
}

Status DriftMonitorRuntime::Configure(DriftBaseline baseline,
                                      DriftMonitorOptions options) {
  if (baseline.features.empty()) {
    return Status::InvalidArgument("drift monitor: empty baseline");
  }
  if (options.window < 1) {
    return Status::InvalidArgument("drift monitor: window must be >= 1");
  }
  if (options.sample_rate < 1) {
    return Status::InvalidArgument("drift monitor: sample rate must be >= 1");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  baseline_ = std::move(baseline);
  options_ = options;
  window_rows_.clear();
  window_preds_.clear();
  buffered_ = 0;
  alert_latched_ = false;
  has_report_ = false;
  g_drift_enabled.store(true, std::memory_order_relaxed);
  return Status::Ok();
}

void DriftMonitorRuntime::Disable() {
  g_drift_enabled.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  window_rows_.clear();
  window_preds_.clear();
  buffered_ = 0;
  alert_latched_ = false;
}

void DriftMonitorRuntime::ObserveBatch(const Dataset& data,
                                       const std::vector<double>& preds) {
  if (!DriftMonitoringEnabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto width = static_cast<int64_t>(baseline_.features.size());
  if (data.num_features() != width ||
      static_cast<int64_t>(preds.size()) != data.num_rows()) {
    return;  // A different model's batch: not this monitor's population.
  }
  // The sampling sweep — a leading-features hash per row — is the only
  // work paid for every row. It chunk-parallelizes on multicore machines
  // and admits an identical population for any worker count: chunk
  // boundaries are fixed and chunks merge in index order. At rate 1 every
  // row is admitted.
  constexpr int64_t kChunk = 1024;
  const int64_t n = data.num_rows();
  const int64_t num_chunks = (n + kChunk - 1) / kChunk;
  std::vector<std::vector<int64_t>> picked(static_cast<size_t>(num_chunks));
  const int64_t rate = options_.sample_rate;
  DefaultPool().ParallelForChunks(
      n, kChunk, [&](int64_t chunk, int64_t begin, int64_t end) {
        std::vector<int64_t>& out = picked[static_cast<size_t>(chunk)];
        for (int64_t r = begin; r < end; ++r) {
          if (AuditSampled(AuditSampleKey(data.row(r), width), rate)) {
            out.push_back(r);
          }
        }
      });
  for (const std::vector<int64_t>& chunk : picked) {
    for (const int64_t r : chunk) {
      const double* row = data.row(r);
      window_rows_.insert(window_rows_.end(), row, row + width);
      window_preds_.push_back(preds[static_cast<size_t>(r)]);
      if (++buffered_ == options_.window) EvaluateWindowLocked();
    }
  }
}

void DriftMonitorRuntime::Flush() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (buffered_ > 0) EvaluateWindowLocked();
  }
  g_drift_enabled.store(false, std::memory_order_relaxed);
}

std::string DriftMonitorRuntime::LastReportJson() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Serialized on demand: rendering round-trip-exact doubles per window
  // would cost more than evaluating the window.
  return has_report_ ? DriftReportJson(last_report_) : std::string();
}

void DriftMonitorRuntime::EvaluateWindowLocked() {
  ProcessReportLocked(EvaluateRows(baseline_, window_rows_.data(),
                                   window_preds_.data(), buffered_,
                                   options_.thresholds));
  window_rows_.clear();
  window_preds_.clear();
  buffered_ = 0;
}

void DriftMonitorRuntime::ProcessReportLocked(DriftReport report) {
  windows_.fetch_add(1, std::memory_order_relaxed);
  static Counter* const windows_counter =
      MetricsRegistry::Global().GetCounter("drift.windows");
  windows_counter->Increment();
  last_report_ = std::move(report);
  has_report_ = true;
  const DriftReport& current = last_report_;
  const int64_t rows = current.rows;

  if (current.alerts.empty()) {
    alert_latched_ = false;  // A clean window re-arms the latch.
    return;
  }
  if (alert_latched_) return;  // One event per excursion.
  alert_latched_ = true;
  alerts_.fetch_add(1, std::memory_order_relaxed);
  static Counter* const alerts_counter =
      MetricsRegistry::Global().GetCounter("drift.alerts");
  alerts_counter->Increment();

  std::ostringstream event;
  event << "{\"type\":\"drift\",\"window_rows\":" << rows
        << ",\"max_psi\":" << TelemetryDouble(current.max_psi)
        << ",\"max_psi_feature\":\""
        << JsonEscape(current.max_psi_feature)
        << "\",\"max_ks\":" << TelemetryDouble(current.max_ks)
        << ",\"max_ks_feature\":\""
        << JsonEscape(current.max_ks_feature) << "\",\"alerts\":[";
  for (size_t i = 0; i < current.alerts.size(); ++i) {
    event << (i == 0 ? "" : ",") << "\"" << JsonEscape(current.alerts[i])
          << "\"";
  }
  event << "]}";
  if (Monitor* monitor = Monitor::Current()) {
    monitor->AppendEvent(event.str());
  }
  if (TracingEnabled()) {
    TraceEvent trace_event;
    trace_event.name = "drift.alert";
    trace_event.cat = "monitor";
    trace_event.ts_us = Tracer::Global().NowMicros();
    trace_event.dur_us = 0;
    trace_event.args = "\"alerts\":" + std::to_string(current.alerts.size()) +
                       ",\"window_rows\":" + std::to_string(rows);
    Tracer::Global().Record(std::move(trace_event));
  }
}

}  // namespace mysawh::core
