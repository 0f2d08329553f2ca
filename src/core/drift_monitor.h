#ifndef MYSAWH_CORE_DRIFT_MONITOR_H_
#define MYSAWH_CORE_DRIFT_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace mysawh::core {

/// Distribution-drift monitoring for the model-quality observability layer
/// (see docs/observability.md): per-feature PSI and KS statistics against
/// a training-time baseline, plus prediction-distribution drift, evaluated
/// either in one batch (study cells, `evaluate`) or over rolling windows
/// of live predictions (`DriftMonitorRuntime`, hooked into
/// `GbtModel::Predict`). Threshold crossings latch `drift` alert events
/// into the status heartbeat stream — the same latch discipline as the
/// stall watchdog: one event per excursion, re-armed by a clean window.
///
/// The batch statistics are pure functions of (baseline, data,
/// predictions): byte-identical JSON for identical inputs.

/// Alert thresholds. The PSI default follows the conventional 0.2
/// "significant shift" industry cut; KS is the maximum ECDF gap.
struct DriftThresholds {
  double psi = 0.2;
  double ks = 0.15;
};

/// Training-time reference distribution of one feature: equal-frequency
/// bin edges over the present (non-NaN) values plus the expected bin
/// proportions and missingness. Constant or heavily tied features
/// deduplicate to fewer edges; all-missing features keep zero edges.
struct FeatureBaseline {
  std::string name;
  std::vector<double> edges;     ///< Ascending interior edges (bins - 1).
  std::vector<double> expected;  ///< Present-value proportion per bin.
  double missing_expected = 0.0; ///< NaN fraction over all baseline rows.
  int64_t rows = 0;              ///< Baseline rows (present + missing).
};

/// The complete reference: every feature plus the training-set prediction
/// distribution (feature name "__prediction__").
struct DriftBaseline {
  int num_bins = 10;
  std::vector<FeatureBaseline> features;  ///< In dataset feature order.
  FeatureBaseline prediction;
};

/// Builds the baseline from the training partition and the model's
/// predictions on it. `train_preds` may be empty to skip the prediction
/// baseline (its expected vector stays empty). Fails on empty data,
/// num_bins < 2, or a size mismatch.
Result<DriftBaseline> BuildDriftBaseline(const Dataset& train,
                                         const std::vector<double>& train_preds,
                                         int num_bins = 10);

/// PSI + KS of one observed window against one baseline feature. PSI
/// includes the missing bin (proportions over all rows, epsilon-clamped);
/// KS is the maximum |expected ECDF - actual ECDF| over the bin edges,
/// present values only.
struct FeatureDriftStat {
  std::string name;
  double psi = 0.0;
  double ks = 0.0;
  double missing_actual = 0.0;
  int64_t rows = 0;
};

/// One drift evaluation: per-feature stats, the prediction-distribution
/// stat, the argmax summaries, and the threshold crossings.
struct DriftReport {
  int64_t rows = 0;
  std::vector<FeatureDriftStat> features;
  FeatureDriftStat prediction;
  double max_psi = 0.0;
  std::string max_psi_feature;
  double max_ks = 0.0;
  std::string max_ks_feature;
  /// Names of features (or "__prediction__") whose PSI or KS crossed its
  /// threshold, in baseline order. Empty = clean window.
  std::vector<std::string> alerts;
};

/// Evaluates one batch against the baseline. `preds` may be empty to skip
/// prediction drift. Fails on width mismatch or empty data.
Result<DriftReport> EvaluateDrift(const DriftBaseline& baseline,
                                  const Dataset& data,
                                  const std::vector<double>& preds,
                                  const DriftThresholds& thresholds);

/// Baseline artifact (`mysawh-drift-baseline v1`): deterministic JSON with
/// round-trip-exact doubles, written by `train --drift-baseline-out` and
/// loaded by `predict`/`evaluate --drift-baseline`.
std::string DriftBaselineJson(const DriftBaseline& baseline);
Result<DriftBaseline> ParseDriftBaseline(const std::string& json);

/// Deterministic JSON object for the manifest's `drift` block.
std::string DriftReportJson(const DriftReport& report);

/// Options of the streaming runtime below.
struct DriftMonitorOptions {
  int64_t window = 256;  ///< Rows per evaluation window.
  /// Admit one row in `sample_rate` into the window, chosen by the same
  /// content key the audit log samples with (`AuditSampleKey`) — a pure
  /// function of row content, so the admitted population is identical for
  /// any thread count or batch split. 1 observes every row; the CLI
  /// defaults to 16, which keeps the live hook inside its overhead budget
  /// while an unbiased 1-in-16 subsample still moves with the cohort.
  int64_t sample_rate = 1;
  DriftThresholds thresholds;
};

/// True when the global runtime is armed — a single relaxed atomic load,
/// the only cost `GbtModel::Predict` pays on the common (disabled) path.
bool DriftMonitoringEnabled();

/// The live drift monitor: buffers predicted rows into a rolling window
/// and evaluates PSI/KS once per full window. A dirty window (any alert)
/// latches once — incrementing `drift.alerts`, appending a `drift` event
/// to the live Monitor's status stream, and tracing a `drift.alert` span
/// when tracing — and re-arms after a clean window. Observation happens on
/// the caller's thread *after* the parallel prediction loop, so a
/// monitored run's predictions are bit-identical to an unmonitored run's.
class DriftMonitorRuntime {
 public:
  static DriftMonitorRuntime& Global();

  /// Installs the baseline + options and arms the monitor; clears any
  /// buffered window. Fails on an empty baseline or window < 1.
  Status Configure(DriftBaseline baseline, DriftMonitorOptions options);
  /// Disarms and drops the buffered window (the baseline stays installed).
  void Disable();

  /// Buffers one predicted batch (the sampled subset of it when
  /// `sample_rate` > 1); evaluates every full window. No-op when disarmed.
  /// `preds` must have one entry per row of `data`.
  void ObserveBatch(const Dataset& data, const std::vector<double>& preds);

  /// Evaluates any buffered partial window (end of run), then disarms.
  void Flush();

  /// JSON of the most recent window's report, or "" before the first
  /// full window.
  std::string LastReportJson();

  int64_t windows_evaluated() const {
    return windows_.load(std::memory_order_relaxed);
  }
  int64_t alerts_fired() const {
    return alerts_.load(std::memory_order_relaxed);
  }

 private:
  /// Evaluates the buffered window (full, or the partial one at Flush)
  /// and empties the buffer.
  void EvaluateWindowLocked();
  /// Counters, the latch, and the alert event for one window's report.
  void ProcessReportLocked(DriftReport report);

  std::mutex mutex_;
  DriftBaseline baseline_;
  DriftMonitorOptions options_;
  std::vector<double> window_rows_;   ///< Row-major, baseline width.
  std::vector<double> window_preds_;
  int64_t buffered_ = 0;
  bool alert_latched_ = false;
  /// Most recent window's report; JSON is rendered on demand by
  /// LastReportJson() so the window path never pays for serialization.
  DriftReport last_report_;
  bool has_report_ = false;
  std::atomic<int64_t> windows_{0};
  std::atomic<int64_t> alerts_{0};
};

}  // namespace mysawh::core

#endif  // MYSAWH_CORE_DRIFT_MONITOR_H_
