/// mysawh_cli — command-line front end of the library.
///
/// Subcommands:
///   generate   Generate a synthetic cohort and export sample sets as CSV.
///   train      Train a model (GBT, linear, or GAM) from a CSV file.
///   predict    Batch prediction from a saved model of any family.
///   evaluate   Regression or classification metrics on a labelled CSV.
///   explain    TreeSHAP explanation of one row (tree models only).
///   importance Gain / cover / split-count feature importance of a model.
///   study      The full 12-cell DD-vs-KD study, with checkpoint/resume.
///   report     Markdown dashboard from a run manifest and/or telemetry.
///   audit-replay  Re-run a prediction audit log and cmp-assert outputs.
///
/// Run `mysawh_cli help` for flag documentation.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "cohort/simulator.h"
#include "core/audit_log.h"
#include "core/calibration_monitor.h"
#include "core/drift_monitor.h"
#include "core/evaluation.h"
#include "core/metrics.h"
#include "core/run_manifest.h"
#include "core/sample_builder.h"
#include "core/study.h"
#include "explain/explanation.h"
#include "explain/tree_shap.h"
#include "gam/gam_model.h"
#include "gbt/gbt_model.h"
#include "linear/linear_model.h"
#include "model/model.h"
#include "util/csv.h"
#include "util/file_io.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/monitor.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace mysawh {
namespace {

constexpr const char kUsage[] = R"(mysawh_cli <command> [flags]

commands:
  generate   --outcome QoL|SPPB|Falls [--seed N] [--out-prefix P]
             [--max-gap 5] [--max-missing 0.04]
             Generates the synthetic MySAwH cohort, builds the paper's
             aligned sample sets and writes <P><set>.csv for set in
             dd, dd_fi, kd, kd_fi.

  train      --data FILE [--model_family gbt|linear|gam] [--label label]
             [--exclude a,b,c]
             [--objective reg:squarederror|binary:logistic|reg:pseudohuber]
             [--out model.txt]
             gbt flags:    [--num-trees 300] [--max-depth 4]
                           [--learning-rate 0.07] [--subsample 1.0]
                           [--colsample 1.0] [--seed 7]
             linear flags: [--lambda 1.0]  (binary:logistic objective
                           trains logistic regression)
             gam flags:    [--num-cycles 50] [--max-depth 2]
                           [--learning-rate 0.1] [--lambda 1.0]
             Trains a model on the CSV (all numeric columns except the
             label and excluded ones are features). The model file starts
             with a `kind:` header, so predict/evaluate/explain can load
             any family without being told which one.
             [--drift-baseline-out FILE] additionally writes the training
             distribution (equal-frequency bin edges + expected
             proportions per feature and for the model's own predictions,
             [--drift-bins 10]) as a mysawh-drift-baseline v1 JSON for
             later drift monitoring.

  predict    --model FILE --data FILE [--out preds.csv]
  evaluate   --model FILE --data FILE [--label label] [--threshold 0.5]
             [--calibration-bins 10]
             evaluate also reports calibration: Brier/ECE over the
             reliability bins for classifiers, absolute-error quantiles
             for regressors, published as calibration.evaluate.* gauges.
             Both predict and evaluate accept [--drift-baseline FILE]:
             prediction batches then stream through the drift monitor,
             which scores PSI/KS per rolling window ([--drift-window 256]
             of rows sampled 1-in-[--drift-sample-rate 16] by content key)
             against the baseline and latches a `drift` alert event
             (status stream + drift.alerts counter) when a feature or the
             prediction distribution crosses [--drift-psi-threshold 0.2]
             or [--drift-ks-threshold 0.15]; a clean window re-arms.
  explain    --model FILE --data FILE [--row 0] [--top 5]   (gbt only)
  importance --model FILE [--type gain|cover|split]         (gbt only)

  audit-replay --audit FILE --model FILE [--out replay.csv]
             Re-runs every record of a mysawh-audit v1 log (written via
             --audit-out) through the model: predictions and top-k SHAP
             attributions must reproduce the logged values exactly (same
             model fingerprint, same bits). Exit 1 on any mismatch. With
             --out, writes a deterministic logged-vs-replayed CSV.

  study      [--seed 42] [--model_family gbt|linear|gam] [--threads 0]
             [--cv-folds 5] [--out REPORT.md]
             [--checkpoint-dir DIR] [--resume]
             [--manifest-out FILE]   (default <out>.manifest.json)
             Runs the paper's full 12-cell DD-vs-KD study and writes the
             Markdown report. With --checkpoint-dir, each finished cell is
             persisted (atomic + checksummed); with --resume, valid
             checkpoints are loaded instead of re-trained, so a killed
             study continues where it stopped and produces a report
             bit-identical to an uninterrupted run. A run manifest (source
             revision, config fingerprint, per-cell wall/CPU cost, metrics
             snapshot, per-cell data-quality profile, per-cell drift and
             calibration reports — see [--drift-psi-threshold 0.2]
             [--drift-ks-threshold 0.15] [--drift-bins 10]
             [--calibration-bins 10]) is always written as a sidecar; the
             report itself never changes.

  report     [--manifest FILE] [--telemetry FILE] [--out dashboard.md]
             Renders a Markdown dashboard from a study run manifest
             (provenance, per-cell cost, data-quality summaries) and/or a
             telemetry artifact (per-stream learning curves). At least one
             input is required.

observability flags (every command):
  --trace-out FILE      record a span timeline and write Chrome/Perfetto
                        trace JSON (open in https://ui.perfetto.dev); with
                        the flag absent, tracing costs one atomic load per
                        span and outputs are bit-identical
  --trace-max-events N  cap each thread's trace buffer at N events; events
                        past the cap are dropped and counted in the
                        trace.dropped_events counter (0 = unbounded)
  --span-costs          with --trace-out: every span also records its
                        thread-CPU-time and tracked-allocation deltas, and
                        the run manifest gains a "span_costs" top-spans
                        table (shown by `report`)
  --metrics-out FILE    write the process metrics snapshot (counters,
                        gauges, latency histograms) as deterministic JSON
  --telemetry-out FILE  record per-iteration training telemetry (train
                        loss, held-out metric, split statistics) and write
                        a mysawh-telemetry v1 JSONL artifact; byte-identical
                        for any --threads value, and REPORT.md is unchanged
                        by recording
  --status-out FILE     run a background monitor that atomically rewrites
                        FILE with a mysawh-status v1 heartbeat (uptime,
                        RSS/CPU, progress counters, study cells, queue
                        depth) while the command executes; tail it live
                        with tools/watch_status.py FILE
  --status-interval-ms N  heartbeat period (default 1000)
  --stall-timeout-ms N  with --status-out: emit a `stall` event (status
                        stream + trace + monitor.stalls counter) when no
                        progress counter advances for N ms (0 = off)
  --audit-out FILE      deterministically sample tree-model predictions
                        (and SHAP batches) into a checksummed mysawh-audit
                        v1 log: per sampled row the feature vector, its
                        content fingerprint, the model fingerprint, the
                        prediction / top-k attributions. Byte-identical
                        for any --threads value; replay with audit-replay
  --audit-sample-rate N keep one row in N, selected by the row's content
                        fingerprint, never by arrival order (default 16;
                        1 keeps every row)
  --audit-top-k K       SHAP attributions kept per sampled row (default 3)
  All artifact paths are probed before the command runs; an unwritable
  path is a usage error (exit 2). Monitoring never changes results: a
  monitored run's outputs are bit-identical to an unmonitored one.

exit codes:
  0  success (including explicit `help`)
  1  a command ran and failed at runtime (I/O error, training failure, ...)
  2  usage error (no/unknown command, malformed flags) or invalid/corrupt
     input (malformed CSV, truncated or bit-flipped model/checkpoint file)
)";

/// Loads a CSV into a Dataset using the label/exclude conventions.
Result<Dataset> LoadDataset(const FlagParser& flags,
                            const model::Model* model_for_schema) {
  const std::string path = flags.GetString("data");
  if (path.empty()) return Status::InvalidArgument("--data is required");
  MYSAWH_ASSIGN_OR_RETURN(Table table, Table::FromCsvFile(path));
  const std::string label = flags.GetString("label", "label");
  std::vector<std::string> exclude =
      Split(flags.GetString("exclude", "patient,clinic,window,month"), ',');
  exclude.push_back(label);
  std::vector<std::string> features;
  if (model_for_schema != nullptr) {
    // Align the columns with the model's training schema.
    features = model_for_schema->FeatureNames();
  } else {
    for (const auto& name : table.ColumnNames()) {
      if (std::find(exclude.begin(), exclude.end(), name) != exclude.end()) {
        continue;
      }
      MYSAWH_ASSIGN_OR_RETURN(const Column* column, table.GetColumn(name));
      if (column->is_numeric()) features.push_back(name);
    }
  }
  if (!table.HasColumn(label)) {
    // Prediction-only input: synthesize a zero label column.
    MYSAWH_RETURN_NOT_OK(table.AddNumericColumn(
        label, std::vector<double>(static_cast<size_t>(table.num_rows()),
                                   0.0)));
  }
  return Dataset::FromTable(table, features, label);
}

/// Loads any registered model family via the serialization registry.
Result<std::unique_ptr<model::Model>> LoadModel(const FlagParser& flags) {
  const std::string path = flags.GetString("model");
  if (path.empty()) return Status::InvalidArgument("--model is required");
  return model::Model::LoadFromFile(path);
}

/// The GBT inside a loaded model, or FailedPrecondition for other families.
Result<const gbt::GbtModel*> AsGbt(const model::Model& model) {
  const auto* gbt = dynamic_cast<const gbt::GbtModel*>(&model);
  if (gbt == nullptr) {
    return Status::FailedPrecondition(
        "this command needs a tree model, got kind '" + model.Kind() + "'");
  }
  return gbt;
}

/// Value of --model_family (hyphen spelling accepted too).
Result<core::ModelFamily> GetModelFamily(const FlagParser& flags) {
  std::string name = flags.GetString("model_family");
  if (name.empty()) name = flags.GetString("model-family", "gbt");
  return core::ParseModelFamily(name);
}

/// The --drift-psi-threshold/--drift-ks-threshold pair.
Result<core::DriftThresholds> GetDriftThresholds(const FlagParser& flags) {
  core::DriftThresholds thresholds;
  MYSAWH_ASSIGN_OR_RETURN(thresholds.psi,
                          flags.GetDouble("drift-psi-threshold", 0.2));
  MYSAWH_ASSIGN_OR_RETURN(thresholds.ks,
                          flags.GetDouble("drift-ks-threshold", 0.15));
  return thresholds;
}

/// Arms the streaming drift monitor from --drift-baseline. Returns false
/// (and does nothing) when the flag is absent; callers that get true must
/// call FinishDriftMonitor() after their prediction batches.
Result<bool> ArmDriftMonitor(const FlagParser& flags) {
  const std::string path = flags.GetString("drift-baseline");
  if (path.empty()) return false;
  MYSAWH_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  MYSAWH_ASSIGN_OR_RETURN(core::DriftBaseline baseline,
                          core::ParseDriftBaseline(text));
  core::DriftMonitorOptions options;
  MYSAWH_ASSIGN_OR_RETURN(options.window, flags.GetInt("drift-window", 256));
  MYSAWH_ASSIGN_OR_RETURN(options.sample_rate,
                          flags.GetInt("drift-sample-rate", 16));
  MYSAWH_ASSIGN_OR_RETURN(options.thresholds, GetDriftThresholds(flags));
  MYSAWH_RETURN_NOT_OK(core::DriftMonitorRuntime::Global().Configure(
      std::move(baseline), options));
  return true;
}

/// Evaluates the monitor's trailing partial window and prints the
/// one-line summary (the detailed report lives in --metrics-out counters
/// and the status event stream).
void FinishDriftMonitor() {
  core::DriftMonitorRuntime& runtime = core::DriftMonitorRuntime::Global();
  runtime.Flush();
  std::cout << "drift monitor: " << runtime.windows_evaluated()
            << " window(s), " << runtime.alerts_fired() << " alert(s)\n";
}

Status RunGenerate(const FlagParser& flags) {
  MYSAWH_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 42));
  MYSAWH_ASSIGN_OR_RETURN(core::Outcome outcome,
                          core::ParseOutcome(flags.GetString("outcome", "QoL")));
  cohort::CohortConfig config;
  config.seed = static_cast<uint64_t>(seed);
  MYSAWH_ASSIGN_OR_RETURN(auto cohort,
                          cohort::CohortSimulator(config).Generate());
  core::SampleBuildOptions options;
  MYSAWH_ASSIGN_OR_RETURN(int64_t max_gap, flags.GetInt("max-gap", 5));
  options.max_interpolation_gap = static_cast<int>(max_gap);
  MYSAWH_ASSIGN_OR_RETURN(options.max_missing_fraction,
                          flags.GetDouble("max-missing", 0.04));
  MYSAWH_ASSIGN_OR_RETURN(auto builder,
                          core::SampleSetBuilder::Create(&cohort, options));
  MYSAWH_ASSIGN_OR_RETURN(auto sets, builder.Build(outcome));
  const std::string prefix = flags.GetString("out-prefix", "mysawh_");
  const struct {
    const char* name;
    const Dataset* data;
  } exports[] = {{"dd", &sets.dd},
                 {"dd_fi", &sets.dd_fi},
                 {"kd", &sets.kd},
                 {"kd_fi", &sets.kd_fi}};
  for (const auto& e : exports) {
    MYSAWH_ASSIGN_OR_RETURN(Table table, e.data->ToTable());
    const std::string path = prefix + e.name + ".csv";
    MYSAWH_RETURN_NOT_OK(table.ToCsvFile(path));
    std::cout << "wrote " << path << " (" << table.num_rows() << " rows, "
              << table.num_columns() << " columns)\n";
  }
  std::cout << "retained " << sets.retained << " of " << sets.total_candidates
            << " candidate patient-months for outcome "
            << core::OutcomeName(outcome) << "\n";
  return Status::Ok();
}

Status RunTrain(const FlagParser& flags) {
  MYSAWH_ASSIGN_OR_RETURN(Dataset data, LoadDataset(flags, nullptr));
  MYSAWH_ASSIGN_OR_RETURN(core::ModelFamily family, GetModelFamily(flags));
  MYSAWH_ASSIGN_OR_RETURN(
      gbt::ObjectiveType objective,
      gbt::ParseObjectiveType(
          flags.GetString("objective", "reg:squarederror")));
  const std::string out = flags.GetString("out", "model.txt");

  std::unique_ptr<model::Model> model;
  std::string trained;  // human summary of what was trained
  switch (family) {
    case core::ModelFamily::kGbt: {
      gbt::GbtParams params;
      params.objective = objective;
      MYSAWH_ASSIGN_OR_RETURN(int64_t trees, flags.GetInt("num-trees", 300));
      params.num_trees = static_cast<int>(trees);
      MYSAWH_ASSIGN_OR_RETURN(int64_t depth, flags.GetInt("max-depth", 4));
      params.max_depth = static_cast<int>(depth);
      MYSAWH_ASSIGN_OR_RETURN(params.learning_rate,
                              flags.GetDouble("learning-rate", 0.07));
      MYSAWH_ASSIGN_OR_RETURN(params.subsample,
                              flags.GetDouble("subsample", 1.0));
      MYSAWH_ASSIGN_OR_RETURN(params.colsample_bytree,
                              flags.GetDouble("colsample", 1.0));
      MYSAWH_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 7));
      params.seed = static_cast<uint64_t>(seed);
      MYSAWH_ASSIGN_OR_RETURN(gbt::GbtModel gbt,
                              gbt::GbtModel::Train(data, params));
      trained = std::to_string(gbt.trees().size()) + " trees";
      model = std::make_unique<gbt::GbtModel>(std::move(gbt));
      break;
    }
    case core::ModelFamily::kLinear: {
      MYSAWH_ASSIGN_OR_RETURN(double lambda, flags.GetDouble("lambda", 1.0));
      if (objective == gbt::ObjectiveType::kLogistic) {
        MYSAWH_ASSIGN_OR_RETURN(linear::LogisticModel logistic,
                                linear::LogisticModel::Train(data, lambda));
        trained = "a logistic model";
        model = std::make_unique<linear::LogisticModel>(std::move(logistic));
      } else {
        MYSAWH_ASSIGN_OR_RETURN(linear::LinearModel lin,
                                linear::LinearModel::Train(data, lambda));
        trained = "a linear model";
        model = std::make_unique<linear::LinearModel>(std::move(lin));
      }
      break;
    }
    case core::ModelFamily::kGam: {
      gam::GamParams params;
      params.objective = objective;
      MYSAWH_ASSIGN_OR_RETURN(int64_t cycles, flags.GetInt("num-cycles", 50));
      params.num_cycles = static_cast<int>(cycles);
      MYSAWH_ASSIGN_OR_RETURN(int64_t depth, flags.GetInt("max-depth", 2));
      params.max_depth = static_cast<int>(depth);
      MYSAWH_ASSIGN_OR_RETURN(params.learning_rate,
                              flags.GetDouble("learning-rate", 0.1));
      MYSAWH_ASSIGN_OR_RETURN(params.reg_lambda,
                              flags.GetDouble("lambda", 1.0));
      MYSAWH_ASSIGN_OR_RETURN(gam::GamModel gam,
                              gam::GamModel::Train(data, params));
      trained = "a gam with " + std::to_string(gam.num_trees()) +
                " shape-function trees";
      model = std::make_unique<gam::GamModel>(std::move(gam));
      break;
    }
  }
  MYSAWH_RETURN_NOT_OK(model->SaveToFile(out));
  std::cout << "trained " << trained << " on " << data.num_rows() << " rows x "
            << data.num_features() << " features; model written to " << out
            << "\n";
  const std::string drift_baseline_out = flags.GetString("drift-baseline-out");
  if (!drift_baseline_out.empty()) {
    MYSAWH_ASSIGN_OR_RETURN(int64_t drift_bins, flags.GetInt("drift-bins", 10));
    MYSAWH_ASSIGN_OR_RETURN(std::vector<double> train_preds,
                            model->PredictBatch(data));
    MYSAWH_ASSIGN_OR_RETURN(
        core::DriftBaseline baseline,
        core::BuildDriftBaseline(data, train_preds,
                                 static_cast<int>(drift_bins)));
    MYSAWH_RETURN_NOT_OK(WriteFileAtomic(drift_baseline_out,
                                         core::DriftBaselineJson(baseline) +
                                             "\n",
                                         "drift_baseline_write"));
    std::cout << "wrote drift baseline (" << baseline.features.size()
              << " features) to " << drift_baseline_out << "\n";
  }
  return Status::Ok();
}

Status RunPredict(const FlagParser& flags) {
  MYSAWH_ASSIGN_OR_RETURN(std::unique_ptr<model::Model> model,
                          LoadModel(flags));
  MYSAWH_ASSIGN_OR_RETURN(Dataset data, LoadDataset(flags, model.get()));
  MYSAWH_ASSIGN_OR_RETURN(bool drift_armed, ArmDriftMonitor(flags));
  MYSAWH_ASSIGN_OR_RETURN(std::vector<double> preds,
                          model->PredictBatch(data));
  if (drift_armed) FinishDriftMonitor();
  const std::string out = flags.GetString("out", "predictions.csv");
  CsvDocument csv;
  csv.header = {"row", "prediction"};
  for (size_t i = 0; i < preds.size(); ++i) {
    csv.rows.push_back({std::to_string(i), FormatDouble(preds[i], 6)});
  }
  MYSAWH_RETURN_NOT_OK(WriteCsv(out, csv));
  std::cout << "wrote " << preds.size() << " predictions to " << out << "\n";
  return Status::Ok();
}

Status RunEvaluate(const FlagParser& flags) {
  MYSAWH_ASSIGN_OR_RETURN(std::unique_ptr<model::Model> model,
                          LoadModel(flags));
  MYSAWH_ASSIGN_OR_RETURN(Dataset data, LoadDataset(flags, model.get()));
  MYSAWH_ASSIGN_OR_RETURN(bool drift_armed, ArmDriftMonitor(flags));
  MYSAWH_ASSIGN_OR_RETURN(std::vector<double> preds,
                          model->PredictBatch(data));
  if (drift_armed) FinishDriftMonitor();
  MYSAWH_ASSIGN_OR_RETURN(int64_t calibration_bins,
                          flags.GetInt("calibration-bins", 10));
  if (model->IsClassifier()) {
    MYSAWH_ASSIGN_OR_RETURN(double threshold,
                            flags.GetDouble("threshold", 0.5));
    MYSAWH_ASSIGN_OR_RETURN(
        auto metrics,
        core::ComputeClassificationMetrics(data.labels(), preds, threshold));
    std::cout << metrics.ToString() << "\n";
    auto auc = core::RocAuc(data.labels(), preds);
    if (auc.ok()) std::cout << "auc=" << FormatDouble(*auc, 4) << "\n";
    MYSAWH_ASSIGN_OR_RETURN(
        core::CalibrationReport calibration,
        core::ComputeCalibration(data.labels(), preds,
                                 static_cast<int>(calibration_bins)));
    core::PublishCalibrationGauges("evaluate", calibration);
    std::cout << "calibration: brier=" << FormatDouble(calibration.brier, 4)
              << " ece=" << FormatDouble(calibration.ece, 4) << " over "
              << calibration.bins.size() << " bins\n";
  } else {
    MYSAWH_ASSIGN_OR_RETURN(auto metrics, core::ComputeRegressionMetrics(
                                              data.labels(), preds));
    std::cout << metrics.ToString() << "\n";
    MYSAWH_ASSIGN_OR_RETURN(core::ErrorQuantiles quantiles,
                            core::ComputeErrorQuantiles(data.labels(), preds));
    core::PublishErrorQuantileGauges("evaluate", quantiles);
    std::cout << "abs error quantiles: p50="
              << FormatDouble(quantiles.p50, 4)
              << " p90=" << FormatDouble(quantiles.p90, 4)
              << " p99=" << FormatDouble(quantiles.p99, 4)
              << " max=" << FormatDouble(quantiles.max_err, 4) << "\n";
  }
  return Status::Ok();
}

Status RunExplain(const FlagParser& flags) {
  MYSAWH_ASSIGN_OR_RETURN(std::unique_ptr<model::Model> model,
                          LoadModel(flags));
  MYSAWH_ASSIGN_OR_RETURN(const gbt::GbtModel* gbt, AsGbt(*model));
  MYSAWH_ASSIGN_OR_RETURN(Dataset data, LoadDataset(flags, model.get()));
  MYSAWH_ASSIGN_OR_RETURN(int64_t row, flags.GetInt("row", 0));
  MYSAWH_ASSIGN_OR_RETURN(int64_t top, flags.GetInt("top", 5));
  const explain::TreeShap shap(gbt);
  MYSAWH_ASSIGN_OR_RETURN(auto explanation,
                          explain::ExplainRow(shap, data, row));
  std::cout << explanation.ToString(static_cast<int>(top));
  return Status::Ok();
}

Status RunImportance(const FlagParser& flags) {
  MYSAWH_ASSIGN_OR_RETURN(std::unique_ptr<model::Model> model,
                          LoadModel(flags));
  MYSAWH_ASSIGN_OR_RETURN(const gbt::GbtModel* gbt, AsGbt(*model));
  const std::string type = flags.GetString("type", "gain");
  std::map<std::string, double> scores;
  if (type == "gain") {
    scores = gbt->GainImportance();
  } else if (type == "cover") {
    scores = gbt->CoverImportance();
  } else if (type == "split") {
    for (const auto& [name, count] : gbt->SplitCountImportance()) {
      scores[name] = static_cast<double>(count);
    }
  } else {
    return Status::InvalidArgument("unknown importance type: " + type);
  }
  std::vector<std::pair<std::string, double>> sorted(scores.begin(),
                                                     scores.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  TablePrinter table({"feature", type});
  for (const auto& [name, score] : sorted) {
    table.AddRow({name, FormatDouble(score, 4)});
  }
  std::cout << table.ToString();
  return Status::Ok();
}

/// Exact replay equality: audit doubles are serialized round-trip-exact,
/// so anything short of the same value (or NaN for NaN) is a mismatch.
bool ReplayMatches(double logged, double replayed) {
  if (std::isnan(logged) || std::isnan(replayed)) {
    return std::isnan(logged) && std::isnan(replayed);
  }
  return logged == replayed;
}

/// "i=v;i=v" rendering of a top-k attribution list for the replay CSV
/// (';' so the cell stays one CSV field).
std::string ShapCell(const std::vector<core::AuditShapEntry>& entries) {
  std::string out;
  for (const core::AuditShapEntry& entry : entries) {
    if (!out.empty()) out += ';';
    out += std::to_string(entry.index);
    out += '=';
    out += TelemetryDouble(entry.value);
  }
  return out.empty() ? "-" : out;
}

Status RunAuditReplay(const FlagParser& flags) {
  const std::string audit_path = flags.GetString("audit");
  if (audit_path.empty()) return Status::InvalidArgument("--audit is required");
  MYSAWH_ASSIGN_OR_RETURN(core::AuditFile audit,
                          core::ReadAuditFile(audit_path));
  MYSAWH_ASSIGN_OR_RETURN(std::unique_ptr<model::Model> model,
                          LoadModel(flags));
  MYSAWH_ASSIGN_OR_RETURN(const gbt::GbtModel* gbt, AsGbt(*model));
  const std::vector<std::string>& names = model->FeatureNames();

  // The log names the exact model that produced it; replaying against a
  // different one cannot reproduce bits, so fail before predicting.
  std::vector<const core::AuditRecord*> predicts;
  std::vector<const core::AuditRecord*> shaps;
  for (const core::AuditRecord& record : audit.records) {
    if (record.model_fp != gbt->fingerprint()) {
      return Status::FailedPrecondition(
          "audit-replay: log was written by model " +
          core::FingerprintHex(record.model_fp) + " but --model has " +
          "fingerprint " + core::FingerprintHex(gbt->fingerprint()));
    }
    if (record.features.size() != names.size()) {
      return Status::FailedPrecondition(
          "audit-replay: record has " + std::to_string(record.features.size()) +
          " features, the model expects " + std::to_string(names.size()));
    }
    (record.type == "predict" ? predicts : shaps).push_back(&record);
  }

  CsvDocument replay;
  replay.header = {"type", "fp", "logged", "replayed", "match"};
  int64_t mismatches = 0;
  const auto report = [&](const char* type, const core::AuditRecord& record,
                          const std::string& logged,
                          const std::string& replayed, bool match) {
    if (!match) {
      ++mismatches;
      std::cerr << "mismatch: " << type
                << " fp=" << core::FingerprintHex(record.row_fp) << " logged "
                << logged << " replayed " << replayed << "\n";
    }
    replay.rows.push_back({type, core::FingerprintHex(record.row_fp), logged,
                           replayed, match ? "yes" : "NO"});
  };

  if (!predicts.empty()) {
    Dataset rows = Dataset::Create(names);
    for (const core::AuditRecord* record : predicts) {
      MYSAWH_RETURN_NOT_OK(rows.AddRow(record->features, 0.0));
    }
    MYSAWH_ASSIGN_OR_RETURN(std::vector<double> preds,
                            model->PredictBatch(rows));
    for (size_t i = 0; i < predicts.size(); ++i) {
      report("predict", *predicts[i], TelemetryDouble(predicts[i]->prediction),
             TelemetryDouble(preds[i]),
             ReplayMatches(predicts[i]->prediction, preds[i]));
    }
  }

  if (!shaps.empty()) {
    Dataset rows = Dataset::Create(names);
    for (const core::AuditRecord* record : shaps) {
      MYSAWH_RETURN_NOT_OK(rows.AddRow(record->features, 0.0));
    }
    const explain::TreeShap shap(gbt);
    MYSAWH_ASSIGN_OR_RETURN(std::vector<std::vector<double>> shap_rows,
                            shap.ShapBatch(rows));
    for (size_t i = 0; i < shaps.size(); ++i) {
      // Re-select the top-k exactly as the recorder did: |value|
      // descending, ties by feature index.
      std::vector<core::AuditShapEntry> entries;
      for (size_t f = 0; f < shap_rows[i].size(); ++f) {
        entries.push_back({static_cast<int>(f), shap_rows[i][f]});
      }
      std::sort(entries.begin(), entries.end(),
                [](const core::AuditShapEntry& a,
                   const core::AuditShapEntry& b) {
                  const double ma = std::fabs(a.value);
                  const double mb = std::fabs(b.value);
                  if (ma != mb) return ma > mb;
                  return a.index < b.index;
                });
      if (entries.size() > static_cast<size_t>(audit.top_k)) {
        entries.resize(static_cast<size_t>(audit.top_k));
      }
      const std::vector<core::AuditShapEntry>& logged = shaps[i]->shap;
      bool match = logged.size() == entries.size();
      for (size_t k = 0; match && k < entries.size(); ++k) {
        match = logged[k].index == entries[k].index &&
                ReplayMatches(logged[k].value, entries[k].value);
      }
      report("shap", *shaps[i], ShapCell(logged), ShapCell(entries), match);
    }
  }

  const std::string out = flags.GetString("out");
  if (!out.empty()) {
    MYSAWH_RETURN_NOT_OK(WriteCsv(out, replay));
    std::cout << "wrote replay table to " << out << "\n";
  }
  std::cout << "replayed " << predicts.size() << " predict and "
            << shaps.size() << " shap record(s) against model "
            << core::FingerprintHex(gbt->fingerprint()) << ": "
            << (mismatches == 0
                    ? "all match"
                    : std::to_string(mismatches) + " MISMATCHED")
            << "\n";
  if (mismatches > 0) {
    return Status::FailedPrecondition(
        "audit-replay: " + std::to_string(mismatches) +
        " record(s) did not reproduce");
  }
  return Status::Ok();
}

Status RunStudy(const FlagParser& flags) {
  core::StudyConfig config;
  MYSAWH_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 42));
  config.cohort.seed = static_cast<uint64_t>(seed);
  MYSAWH_ASSIGN_OR_RETURN(config.model_family, GetModelFamily(flags));
  MYSAWH_ASSIGN_OR_RETURN(config.drift_thresholds, GetDriftThresholds(flags));
  MYSAWH_ASSIGN_OR_RETURN(int64_t drift_bins, flags.GetInt("drift-bins", 10));
  config.drift_bins = static_cast<int>(drift_bins);
  MYSAWH_ASSIGN_OR_RETURN(int64_t calibration_bins,
                          flags.GetInt("calibration-bins", 10));
  config.calibration_bins = static_cast<int>(calibration_bins);
  MYSAWH_ASSIGN_OR_RETURN(int64_t threads, flags.GetInt("threads", 0));
  config.num_threads = static_cast<int>(threads);
  MYSAWH_ASSIGN_OR_RETURN(int64_t folds, flags.GetInt("cv-folds", 5));
  config.protocol.cv_folds = static_cast<int>(folds);
  config.checkpoint_dir = flags.GetString("checkpoint-dir");
  config.resume = flags.GetBool("resume", false);
  if (config.resume && config.checkpoint_dir.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint-dir");
  }
  MYSAWH_ASSIGN_OR_RETURN(core::StudyResult result,
                          core::RunFullStudy(config));
  const std::string out = flags.GetString("out", "REPORT.md");
  MYSAWH_RETURN_NOT_OK(WriteFileAtomic(out, result.ToMarkdown(),
                                       "report_write"));
  std::cout << "wrote study report (" << result.cells.size()
            << " cells) to " << out << "\n";
  std::string manifest_out = flags.GetString("manifest-out");
  if (manifest_out.empty()) manifest_out = out + ".manifest.json";
  MYSAWH_RETURN_NOT_OK(core::WriteRunManifest(manifest_out, config, result));
  std::cout << "wrote run manifest to " << manifest_out << "\n";
  return Status::Ok();
}

/// One telemetry stream reduced to a learning-curve summary.
struct StreamSummary {
  std::string label;
  std::string metric;  ///< From the stream header ("rmse", "auc", ...).
  std::vector<double> series;
};

/// Compact Unicode sparkline of `series` (downsampled by bucket mean); NaN
/// buckets render as spaces.
std::string Sparkline(const std::vector<double>& series, int width = 24) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (series.empty()) return "";
  const int n = std::min<int>(width, static_cast<int>(series.size()));
  std::vector<double> buckets(static_cast<size_t>(n),
                              std::numeric_limits<double>::quiet_NaN());
  for (int b = 0; b < n; ++b) {
    const size_t begin = static_cast<size_t>(b) * series.size() /
                         static_cast<size_t>(n);
    const size_t end = static_cast<size_t>(b + 1) * series.size() /
                       static_cast<size_t>(n);
    double sum = 0.0;
    int count = 0;
    for (size_t i = begin; i < end; ++i) {
      if (std::isnan(series[i])) continue;
      sum += series[i];
      ++count;
    }
    if (count > 0) buckets[static_cast<size_t>(b)] = sum / count;
  }
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double v : buckets) {
    if (std::isnan(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (double v : buckets) {
    if (std::isnan(v)) {
      out += ' ';
    } else if (hi <= lo) {
      out += kLevels[3];
    } else {
      const int level = std::min(
          7, static_cast<int>((v - lo) / (hi - lo) * 8.0));
      out += kLevels[level];
    }
  }
  return out;
}

/// Loads a mysawh-telemetry v1 JSONL artifact into per-stream summaries
/// (in file order, which the writer keeps sorted by label). The curve
/// prefers the held-out series: "valid" then "value" then "train".
Result<std::vector<StreamSummary>> LoadTelemetrySummaries(
    const std::string& path) {
  MYSAWH_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  std::vector<StreamSummary> summaries;
  std::map<std::string, size_t> index;
  std::istringstream lines(text);
  std::string line;
  bool saw_header = false;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    MYSAWH_ASSIGN_OR_RETURN(JsonValue value, ParseJson(line));
    if (!saw_header) {
      if (value.StringOr("schema", "") != "mysawh-telemetry v1") {
        return Status::InvalidArgument(
            path + " is not a mysawh-telemetry v1 artifact");
      }
      saw_header = true;
      continue;
    }
    const std::string stream = value.StringOr("stream", "");
    const std::string type = value.StringOr("type", "");
    if (stream.empty()) {
      return Status::InvalidArgument(path + ": telemetry line lacks stream");
    }
    auto [it, inserted] = index.emplace(stream, summaries.size());
    if (inserted) {
      summaries.push_back(StreamSummary{stream, "", {}});
    }
    StreamSummary& summary = summaries[it->second];
    if (type == "header") {
      summary.metric = value.StringOr("metric", summary.metric);
    } else if (type == "round") {
      summary.series.push_back(
          value.NumberOr("valid", value.NumberOr("train", nan)));
    } else if (type == "eval") {
      summary.series.push_back(value.NumberOr("value", nan));
    }
    // "features" and future line types carry no curve points.
  }
  if (!saw_header) {
    return Status::InvalidArgument(path + " is empty (no telemetry header)");
  }
  return summaries;
}

/// "12.3%" / "0.0421" hybrid for quality table cells: percentages for
/// fractions, plain numbers otherwise.
std::string Pct(double fraction) { return FormatPercent(fraction, 1); }

Status RunReport(const FlagParser& flags) {
  const std::string manifest_path = flags.GetString("manifest");
  const std::string telemetry_path = flags.GetString("telemetry");
  if (manifest_path.empty() && telemetry_path.empty()) {
    return Status::InvalidArgument(
        "report needs --manifest and/or --telemetry");
  }
  const std::string out = flags.GetString("out", "dashboard.md");

  std::ostringstream os;
  os << "# MySAwH run dashboard\n";

  if (!manifest_path.empty()) {
    MYSAWH_ASSIGN_OR_RETURN(std::string text,
                            ReadFileToString(manifest_path));
    MYSAWH_ASSIGN_OR_RETURN(JsonValue manifest, ParseJson(text));
    if (manifest.StringOr("schema", "") != "mysawh-run-manifest v1") {
      return Status::InvalidArgument(
          manifest_path + " is not a mysawh-run-manifest v1 artifact");
    }
    os << "\n## Provenance\n\n"
       << "| field | value |\n|---|---|\n"
       << "| source | `" << manifest.StringOr("git_describe", "?") << "` |\n"
       << "| model family | " << manifest.StringOr("model_family", "?")
       << " |\n"
       << "| cohort seed | " << FormatDouble(manifest.NumberOr("seed", 0), 0)
       << " |\n"
       << "| eval seed | " << FormatDouble(manifest.NumberOr("eval_seed", 0), 0)
       << " |\n"
       << "| fingerprint | `" << manifest.StringOr("fingerprint", "?")
       << "` |\n";

    const JsonValue* cells = manifest.Find("cells");
    if (cells == nullptr || !cells->is_object() ||
        cells->object_members().empty()) {
      // Manifests from partial or legacy runs may lack blocks; the
      // dashboard renders what exists instead of refusing the whole file.
      std::cerr << "warning: " << manifest_path
                << " has no cell timings; skipping Cell cost\n";
    } else {
      os << "\n## Cell cost\n\n"
         << "| cell | wall ms | cpu ms | resumed |\n|---|---|---|---|\n";
      double total_wall = 0.0;
      double total_cpu = 0.0;
      for (const auto& [name, cell] : cells->object_members()) {
        const double wall = cell.NumberOr("wall_ms", 0.0);
        const double cpu = cell.NumberOr("cpu_ms", 0.0);
        total_wall += wall;
        total_cpu += cpu;
        const JsonValue* resumed = cell.Find("resumed");
        os << "| " << name << " | " << FormatDouble(wall, 1) << " | "
           << FormatDouble(cpu, 1) << " | "
           << ((resumed != nullptr && resumed->is_bool() &&
                resumed->bool_value())
                   ? "yes"
                   : "no")
           << " |\n";
      }
      os << "| **total** | " << FormatDouble(total_wall, 1) << " | "
         << FormatDouble(total_cpu, 1) << " | |\n";
    }

    const JsonValue* quality = manifest.Find("data_quality");
    if (quality == nullptr || !quality->is_object() ||
        quality->object_members().empty()) {
      std::cerr << "warning: " << manifest_path
                << " has no data_quality block; skipping Data quality\n";
    } else {
      os << "\n## Data quality\n\n"
         << "| cell | train/test rows | outcome | max missingness "
         << "| bin occupancy |\n|---|---|---|---|---|\n";
      for (const auto& [name, cell] : quality->object_members()) {
        os << "| " << name << " | "
           << FormatDouble(cell.NumberOr("train_rows", 0), 0) << "/"
           << FormatDouble(cell.NumberOr("test_rows", 0), 0) << " | ";
        const JsonValue* outcome = cell.Find("outcome");
        if (outcome != nullptr && outcome->is_object()) {
          const JsonValue* classification = outcome->Find("classification");
          if (classification != nullptr && classification->is_bool() &&
              classification->bool_value()) {
            os << FormatDouble(outcome->NumberOr("positives_train", 0), 0)
               << "+ / " << Pct(outcome->NumberOr("mean_train", 0))
               << " pos";
          } else {
            os << "mean " << FormatDouble(outcome->NumberOr("mean_train", 0), 2)
               << " ± "
               << FormatDouble(outcome->NumberOr("stddev_train", 0), 2);
          }
        } else {
          os << "?";
        }
        os << " | " << Pct(cell.NumberOr("max_missing_train", 0)) << " ("
           << cell.StringOr("max_missing_feature", "-") << ") | "
           << Pct(cell.NumberOr("mean_bin_occupancy", 0)) << " |\n";
      }
    }

    const JsonValue* drift = manifest.Find("drift");
    if (drift == nullptr || !drift->is_object() ||
        drift->object_members().empty()) {
      std::cerr << "warning: " << manifest_path
                << " has no drift block; skipping Drift\n";
    } else {
      os << "\n## Drift\n\n"
         << "| cell | rows | max PSI | max KS | alerts | per-feature PSI "
         << "|\n|---|---|---|---|---|---|\n";
      for (const auto& [name, cell] : drift->object_members()) {
        std::vector<double> psis;
        const JsonValue* features = cell.Find("features");
        if (features != nullptr && features->is_array()) {
          for (const JsonValue& feature : features->array_items()) {
            psis.push_back(feature.NumberOr("psi", 0.0));
          }
        }
        const JsonValue* alerts = cell.Find("alerts");
        const size_t alert_count =
            (alerts != nullptr && alerts->is_array())
                ? alerts->array_items().size()
                : 0;
        os << "| " << name << " | " << FormatDouble(cell.NumberOr("rows", 0), 0)
           << " | " << FormatDouble(cell.NumberOr("max_psi", 0), 3) << " ("
           << cell.StringOr("max_psi_feature", "-") << ") | "
           << FormatDouble(cell.NumberOr("max_ks", 0), 3) << " ("
           << cell.StringOr("max_ks_feature", "-") << ") | "
           << (alert_count == 0 ? std::string("-")
                                : std::to_string(alert_count))
           << " | `" << Sparkline(psis) << "` |\n";
      }
    }

    const JsonValue* calibration = manifest.Find("calibration");
    if (calibration == nullptr || !calibration->is_object() ||
        calibration->object_members().empty()) {
      std::cerr << "warning: " << manifest_path
                << " has no calibration block; skipping Calibration\n";
    } else {
      os << "\n## Calibration\n\n"
         << "| cell | kind | rows | scores | shape |\n|---|---|---|---|---|\n";
      for (const auto& [name, cell] : calibration->object_members()) {
        const std::string kind = cell.StringOr("kind", "?");
        os << "| " << name << " | " << kind << " | "
           << FormatDouble(cell.NumberOr("rows", 0), 0) << " | ";
        if (kind == "classification") {
          // Shape = observed positive rate per reliability bin; a
          // calibrated model sweeps it monotonically from low to high.
          std::vector<double> observed;
          const JsonValue* bins = cell.Find("bins");
          if (bins != nullptr && bins->is_array()) {
            for (const JsonValue& bin : bins->array_items()) {
              observed.push_back(bin.NumberOr("mean_obs", 0.0));
            }
          }
          os << "brier " << FormatDouble(cell.NumberOr("brier", 0), 4)
             << ", ece " << FormatDouble(cell.NumberOr("ece", 0), 4) << " | `"
             << Sparkline(observed) << "` |\n";
        } else {
          os << "mae " << FormatDouble(cell.NumberOr("mae", 0), 3)
             << " | p50/p90/p99 = " << FormatDouble(cell.NumberOr("p50", 0), 3)
             << "/" << FormatDouble(cell.NumberOr("p90", 0), 3) << "/"
             << FormatDouble(cell.NumberOr("p99", 0), 3) << " |\n";
        }
      }
    }

    // Latency percentiles, re-derived from the snapshot's power-of-two
    // buckets with the same helper the live registry uses.
    const JsonValue* metrics = manifest.Find("metrics");
    const JsonValue* histograms =
        metrics != nullptr ? metrics->Find("histograms") : nullptr;
    if (histograms != nullptr && histograms->is_object() &&
        !histograms->object_members().empty()) {
      os << "\n## Latency percentiles\n\n"
         << "| histogram | count | p50 us | p90 us | p99 us | max us |\n"
         << "|---|---|---|---|---|---|\n";
      constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();
      for (const auto& [name, histogram] : histograms->object_members()) {
        const double count = histogram.NumberOr("count", 0);
        if (count <= 0) continue;
        std::vector<int64_t> buckets;
        bool malformed = false;
        const JsonValue* bucket_array = histogram.Find("buckets");
        if (bucket_array != nullptr && bucket_array->is_array()) {
          for (const JsonValue& b : bucket_array->array_items()) {
            const std::optional<int64_t> bucket = JsonInteger(&b, 0, kMaxInt64);
            malformed = malformed || !bucket.has_value();
            buckets.push_back(bucket.value_or(0));
          }
        }
        if (buckets.empty()) continue;
        const JsonValue* max_field = histogram.Find("max_us");
        const std::optional<int64_t> max_us =
            max_field == nullptr ? 0 : JsonInteger(max_field, 0, kMaxInt64);
        if (malformed || !max_us.has_value()) {
          std::cerr << "warning: " << manifest_path << " histogram " << name
                    << " holds a value that is not a whole number; skipping"
                    << " it\n";
          continue;
        }
        const auto quantile = [&](double q) {
          return HistogramQuantileFromBuckets(
              buckets.data(), static_cast<int>(buckets.size()), *max_us, q);
        };
        os << "| " << name << " | " << FormatDouble(count, 0) << " | "
           << quantile(0.50) << " | " << quantile(0.90) << " | "
           << quantile(0.99) << " | " << *max_us << " |\n";
      }
    }

    // Per-span cost attribution (runs traced with --span-costs).
    const JsonValue* span_costs = manifest.Find("span_costs");
    if (span_costs != nullptr && span_costs->is_object()) {
      const struct {
        const char* key;
        const char* title;
      } rankings[] = {{"by_cpu", "by CPU"}, {"by_bytes", "by allocation"}};
      for (const auto& ranking : rankings) {
        const JsonValue* list = span_costs->Find(ranking.key);
        if (list == nullptr || !list->is_array() ||
            list->array_items().empty()) {
          continue;
        }
        os << "\n## Top spans " << ranking.title << "\n\n"
           << "| span | count | cpu ms | alloc bytes |\n|---|---|---|---|\n";
        for (const JsonValue& span : list->array_items()) {
          os << "| " << span.StringOr("name", "?") << " | "
             << FormatDouble(span.NumberOr("count", 0), 0) << " | "
             << FormatDouble(span.NumberOr("cpu_us", 0) / 1000.0, 2) << " | "
             << FormatDouble(span.NumberOr("alloc_bytes", 0), 0) << " |\n";
        }
      }
    }
  }

  if (!telemetry_path.empty()) {
    auto summaries_or = LoadTelemetrySummaries(telemetry_path);
    if (!summaries_or.ok()) {
      // With a manifest already rendered, a broken telemetry sidecar
      // degrades to a warning — the dashboard still carries the rest.
      // Telemetry as the *only* input stays a hard error.
      if (manifest_path.empty()) return summaries_or.status();
      std::cerr << "warning: skipping telemetry: "
                << summaries_or.status().message() << "\n";
    }
    const std::vector<StreamSummary> summaries =
        summaries_or.ok() ? std::move(summaries_or).value()
                          : std::vector<StreamSummary>{};
    if (!summaries.empty()) {
      os << "\n## Learning curves\n\n"
         << "| stream | metric | rounds | first | last | curve |\n"
         << "|---|---|---|---|---|---|\n";
    }
    for (const StreamSummary& summary : summaries) {
      double first = std::numeric_limits<double>::quiet_NaN();
      double last = std::numeric_limits<double>::quiet_NaN();
      for (double v : summary.series) {
        if (std::isnan(v)) continue;
        if (std::isnan(first)) first = v;
        last = v;
      }
      os << "| " << summary.label << " | "
         << (summary.metric.empty() ? "-" : summary.metric) << " | "
         << summary.series.size() << " | "
         << (std::isnan(first) ? "-" : FormatDouble(first, 4)) << " | "
         << (std::isnan(last) ? "-" : FormatDouble(last, 4)) << " | `"
         << Sparkline(summary.series) << "` |\n";
    }
  }

  MYSAWH_RETURN_NOT_OK(WriteFileAtomic(out, os.str(), "dashboard_write"));
  std::cout << "wrote dashboard to " << out << "\n";
  return Status::Ok();
}

int Main(int argc, const char* const* argv) {
  auto flags_or = FlagParser::Parse(argc - 1, argv + 1);
  if (!flags_or.ok()) {
    std::cerr << flags_or.status().ToString() << "\n" << kUsage;
    return 2;
  }
  const FlagParser& flags = *flags_or;
  // Observability flags apply to every command: --trace-out starts a span
  // session around the whole command, --metrics-out snapshots the registry
  // after it finishes. Both default off; off costs one atomic load per
  // span and outputs stay bit-identical.
  const std::string trace_out = flags.GetString("trace-out");
  const std::string metrics_out = flags.GetString("metrics-out");
  const std::string telemetry_out = flags.GetString("telemetry-out");
  const std::string status_out = flags.GetString("status-out");
  const std::string audit_out = flags.GetString("audit-out");
  const std::string drift_baseline_out = flags.GetString("drift-baseline-out");
  // Probe every artifact path up front: an unwritable destination is a
  // usage error the user should see before a long run, not after it.
  const struct {
    const char* flag;
    const std::string& path;
  } artifact_flags[] = {{"--trace-out", trace_out},
                        {"--metrics-out", metrics_out},
                        {"--telemetry-out", telemetry_out},
                        {"--status-out", status_out},
                        {"--audit-out", audit_out},
                        {"--drift-baseline-out", drift_baseline_out}};
  for (const auto& artifact : artifact_flags) {
    if (artifact.path.empty()) continue;
    const Status writable = CheckWritable(artifact.path);
    if (!writable.ok()) {
      std::cerr << "error: " << artifact.flag << ": " << writable.message()
                << "\n";
      return 2;
    }
  }
  const bool span_costs = flags.GetBool("span-costs", false);
  if (span_costs && trace_out.empty()) {
    std::cerr << "error: --span-costs requires --trace-out\n";
    return 2;
  }
  auto trace_max_events_or = flags.GetInt("trace-max-events", 0);
  auto status_interval_or = flags.GetInt("status-interval-ms", 1000);
  auto stall_timeout_or = flags.GetInt("stall-timeout-ms", 0);
  auto audit_sample_rate_or = flags.GetInt("audit-sample-rate", 16);
  auto audit_top_k_or = flags.GetInt("audit-top-k", 3);
  if (!trace_max_events_or.ok() || !status_interval_or.ok() ||
      !stall_timeout_or.ok() || !audit_sample_rate_or.ok() ||
      !audit_top_k_or.ok()) {
    std::cerr << "error: malformed observability flag value\n" << kUsage;
    return 2;
  }
  if (!audit_out.empty()) {
    core::AuditOptions audit_options;
    audit_options.sample_rate = *audit_sample_rate_or;
    audit_options.top_k = static_cast<int>(*audit_top_k_or);
    const Status configured =
        core::AuditLog::Global().Configure(audit_options);
    if (!configured.ok()) {
      std::cerr << "error: --audit-out: " << configured.message() << "\n";
      return 2;
    }
  }
  if (*stall_timeout_or > 0 && status_out.empty()) {
    std::cerr << "error: --stall-timeout-ms requires --status-out\n";
    return 2;
  }
  if (!trace_out.empty()) {
    Tracer::Global().SetMaxEventsPerThread(
        static_cast<size_t>(std::max<int64_t>(0, *trace_max_events_or)));
    Tracer::Global().SetCostAttribution(span_costs);
    Tracer::Global().Enable();
  }
  if (!telemetry_out.empty()) Telemetry::Global().Enable();
  std::unique_ptr<Monitor> monitor;
  if (!status_out.empty()) {
    MonitorOptions options;
    options.status_path = status_out;
    options.interval_ms = std::max<int64_t>(1, *status_interval_or);
    options.stall_timeout_ms = std::max<int64_t>(0, *stall_timeout_or);
    monitor = std::make_unique<Monitor>(options);
    const Status started = monitor->Start();
    if (!started.ok()) {
      std::cerr << "error: --status-out: " << started.message() << "\n";
      return 2;
    }
  }
  Status status;
  {
    TraceSpan command_span;
    if (TracingEnabled() && !flags.command().empty()) {
      command_span = TraceSpan("cli." + flags.command(), "cli");
    }
    if (flags.command() == "generate") {
      status = RunGenerate(flags);
    } else if (flags.command() == "train") {
      status = RunTrain(flags);
    } else if (flags.command() == "predict") {
      status = RunPredict(flags);
    } else if (flags.command() == "evaluate") {
      status = RunEvaluate(flags);
    } else if (flags.command() == "explain") {
      status = RunExplain(flags);
    } else if (flags.command() == "importance") {
      status = RunImportance(flags);
    } else if (flags.command() == "study") {
      status = RunStudy(flags);
    } else if (flags.command() == "report") {
      status = RunReport(flags);
    } else if (flags.command() == "audit-replay") {
      status = RunAuditReplay(flags);
    } else if (flags.command() == "help" || flags.command().empty()) {
      std::cout << kUsage;
      return flags.command().empty() ? 2 : 0;
    } else {
      std::cerr << "unknown command: " << flags.command() << "\n" << kUsage;
      return 2;
    }
  }
  if (monitor != nullptr) {
    // Stop before the artifact writes so the final heartbeat (and the
    // metrics snapshot below) reflect the completed command.
    monitor->Stop();
    std::cout << "wrote " << monitor->heartbeats_written()
              << " status heartbeats to " << status_out << "\n";
  }
  if (!audit_out.empty()) {
    core::AuditLog& audit = core::AuditLog::Global();
    audit.Disable();
    const Status written = audit.WriteToFile(audit_out);
    if (!written.ok() && status.ok()) status = written;
    if (written.ok()) {
      std::cout << "wrote audit log (" << audit.record_count()
                << " records) to " << audit_out << "\n";
    }
  }
  if (!metrics_out.empty()) {
    const Status written = WriteFileAtomic(
        metrics_out, MetricsRegistry::Global().SnapshotJson(),
        "metrics_write");
    if (!written.ok() && status.ok()) status = written;
    if (written.ok()) std::cout << "wrote metrics to " << metrics_out << "\n";
  }
  if (!telemetry_out.empty()) {
    const Status written = Telemetry::Global().WriteJsonl(telemetry_out);
    if (!written.ok() && status.ok()) status = written;
    if (written.ok()) {
      std::cout << "wrote telemetry (" << Telemetry::Global().stream_count()
                << " streams) to " << telemetry_out << "\n";
    }
  }
  if (!trace_out.empty()) {
    const Status written = Tracer::Global().WriteJson(trace_out);
    if (!written.ok() && status.ok()) status = written;
    if (written.ok()) {
      std::cout << "wrote trace (" << Tracer::Global().event_count()
                << " events) to " << trace_out << "\n";
    }
  }
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    // Invalid and corrupt inputs share the usage exit code: the caller's
    // request cannot succeed as given (fix the flags or regenerate the
    // artifact). Everything else — I/O trouble, training failure — is a
    // runtime failure.
    const bool bad_input = status.code() == StatusCode::kInvalidArgument ||
                           status.code() == StatusCode::kDataLoss;
    return bad_input ? 2 : 1;
  }
  return 0;
}

}  // namespace
}  // namespace mysawh

int main(int argc, char** argv) { return mysawh::Main(argc, argv); }
