#include "core/study.h"

#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "cohort/simulator.h"
#include "core/calibration_monitor.h"
#include "core/checkpoint.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/serialization.h"
#include "util/string_util.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace mysawh::core {

namespace {

Status EnsureCheckpointDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::Ok();
  return Status::IoError("cannot create checkpoint directory " + dir + ": " +
                         std::strerror(errno));
}

/// Study-grid instruments: resume hit/miss split plus per-cell busy time.
/// The totals let the live monitor render "done/total" progress in cells
/// and, finer grained, in fits.
struct StudyMetrics {
  Counter* cells_computed;
  Counter* fits_computed;
  Counter* resume_hits;
  Counter* resume_misses;
  Gauge* cells_total;
  Gauge* fits_total;
  LatencyHistogram* cell_us;
};

StudyMetrics& Metrics() {
  static StudyMetrics metrics = [] {
    auto& registry = MetricsRegistry::Global();
    return StudyMetrics{registry.GetCounter("study.cells_computed"),
                        registry.GetCounter("study.fits_computed"),
                        registry.GetCounter("study.resume_hits"),
                        registry.GetCounter("study.resume_misses"),
                        registry.GetGauge("study.cells_total"),
                        registry.GetGauge("study.fits_total"),
                        registry.GetHistogram("study.cell_us")};
  }();
  return metrics;
}

/// Thread CPU time of the calling thread in milliseconds (0.0 when the
/// clock is unavailable).
double ThreadCpuMillis() {
  struct timespec ts;
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

}  // namespace

std::string StudyCellName(const StudyCellKey& key) {
  return std::string(OutcomeName(key.outcome)) + "-" +
         ApproachName(key.approach) + (key.with_fi ? "-fi1" : "-fi0");
}

std::string StudyFingerprint(const StudyConfig& config) {
  std::ostringstream os;
  os << "seed=" << config.cohort.seed << " clinics=";
  for (const auto& clinic : config.cohort.clinics) {
    os << clinic.name << ":" << clinic.num_patients << ":"
       << EncodeDouble(clinic.answer_shift) << ":"
       << EncodeDouble(clinic.noise_scale) << ";";
  }
  os << " months=" << config.cohort.num_months
     << " gap=" << config.build.max_interpolation_gap
     << " imputation=" << static_cast<int>(config.build.imputation)
     << " miss=" << EncodeDouble(config.build.max_missing_fraction)
     << " test=" << EncodeDouble(config.protocol.test_fraction)
     << " folds=" << config.protocol.cv_folds
     << " eval_seed=" << config.protocol.seed
     << " threshold=" << EncodeDouble(config.protocol.decision_threshold)
     << " family=" << ModelFamilyName(config.model_family);
  return os.str();
}

Result<const ExperimentResult*> StudyResult::Cell(Outcome outcome,
                                                  Approach approach,
                                                  bool with_fi) const {
  const auto it = cells.find({outcome, approach, with_fi});
  if (it == cells.end()) {
    return Status::NotFound("study cell missing");
  }
  return &it->second;
}

std::string StudyResult::ToMarkdown() const {
  std::ostringstream os;
  os << "# DD vs KD study report\n\n";
  os << "Dataset: " << retained << " monthly samples retained of "
     << total_candidates << " candidates; PRO gaps: " << gap_stats.num_gaps
     << " (mean length " << FormatDouble(gap_stats.mean_length, 2) << ", max "
     << gap_stats.max_length << ").\n\n";

  os << "## Regression outcomes (1-MAPE, test partition)\n\n";
  os << "| Outcome | KD w/o FI | DD w/o FI | KD w/ FI | DD w/ FI |\n";
  os << "|---|---|---|---|---|\n";
  for (Outcome outcome : {Outcome::kQol, Outcome::kSppb}) {
    os << "| " << OutcomeName(outcome) << " |";
    for (bool with_fi : {false, true}) {
      for (Approach approach :
           {Approach::kKnowledgeDriven, Approach::kDataDriven}) {
        const auto it = cells.find({outcome, approach, with_fi});
        if (it == cells.end()) {
          os << " - |";
        } else {
          os << " "
             << FormatPercent(it->second.test_regression.one_minus_mape, 1)
             << " |";
        }
      }
    }
    os << "\n";
  }

  os << "\n## Falls classification (test partition)\n\n";
  os << "| Model | Accuracy | P(True) | R(True) | F1(True) | R(False) |\n";
  os << "|---|---|---|---|---|---|\n";
  for (bool with_fi : {false, true}) {
    for (Approach approach :
         {Approach::kKnowledgeDriven, Approach::kDataDriven}) {
      const auto it = cells.find({Outcome::kFalls, approach, with_fi});
      if (it == cells.end()) continue;
      const auto& m = it->second.test_classification;
      os << "| " << ApproachName(approach) << (with_fi ? " w/ FI" : " w/o FI")
         << " | " << FormatPercent(m.accuracy, 1) << " | "
         << FormatPercent(m.precision_true, 1) << " | "
         << FormatPercent(m.recall_true, 1) << " | "
         << FormatPercent(m.f1_true, 1) << " | "
         << FormatPercent(m.recall_false, 1) << " |\n";
    }
  }

  os << "\n## Reading\n\n"
     << "The data-driven models (gradient boosting over the raw PRO and\n"
     << "activity features) outperform the knowledge-driven ICI models on\n"
     << "every outcome, and the Frailty Index baseline feature improves\n"
     << "both approaches — the paper's central result.\n";
  return os.str();
}

double EstimateFitCost(const ExperimentPlan& plan, int fit) {
  const Dataset& data = plan.train;
  const double rows =
      fit < plan.final_fit()
          ? static_cast<double>(
                plan.folds[static_cast<size_t>(fit)].train.size())
          : static_cast<double>(data.num_rows());
  const double features = static_cast<double>(data.num_features());
  if (plan.config.family != ModelFamily::kGbt) return rows * features;
  const gbt::GbtParams& params = plan.config.gbt;
  // A boosting round touches every sampled row once per level for each
  // sampled feature (histogram build, partition), plus a per-row floor
  // (gradients, score update) that dominates one- or two-feature models.
  constexpr double kPerRowFloor = 4.0;
  return static_cast<double>(params.num_trees) * rows *
         static_cast<double>(params.max_depth) *
         (kPerRowFloor + features * params.colsample_bytree);
}

namespace {

/// Wall and thread-CPU clock of one task on the calling thread.
class TaskClock {
 public:
  TaskClock()
      : wall_start_(std::chrono::steady_clock::now()),
        cpu_start_(ThreadCpuMillis()) {}
  double WallMillis() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - wall_start_)
        .count();
  }
  double CpuMillis() const { return ThreadCpuMillis() - cpu_start_; }

 private:
  std::chrono::steady_clock::time_point wall_start_;
  double cpu_start_;
};

/// What the manifest-only post-pass reports for one cell.
struct PostPass {
  DataQualityProfile profile;
  std::string drift_json;
  std::string calibration_json;
};

/// One grid cell while the study runs. A computed cell holds its plan and
/// one slot per fit; the fit that completes last assembles the cell.
struct CellRun {
  StudyCellKey key;
  const Dataset* data = nullptr;
  Result<ExperimentResult> result = Status::Internal("cell never ran");
  CellTiming timing;
  std::unique_ptr<ExperimentPlan> plan;
  std::vector<Result<FitResult>> fits;
  std::vector<CellTiming> fit_timings;
  std::atomic<int> fits_left{0};
  /// Set only for computed cells with both partitions and a model.
  std::optional<Result<PostPass>> post_pass;
};

/// The manifest-only post-pass of one finished cell: a data-quality profile
/// of its train/test partition, drift of the test partition against a
/// train-time baseline, and calibration (Falls) or error quantiles
/// (regression) of its test predictions. Pure functions of the trained
/// model and partitions; never read by ToMarkdown().
Result<PostPass> ProfileAndCheckQuality(const StudyConfig& config,
                                        const StudyCellKey& key,
                                        const ExperimentResult& result) {
  PostPass post;
  {
    TraceSpan span("study.profile_cells", "study");
    MYSAWH_ASSIGN_OR_RETURN(post.profile,
                            ProfilePartition(result.train, result.test,
                                             result.is_classification));
  }
  TraceSpan span("study.model_quality", "study");
  MYSAWH_ASSIGN_OR_RETURN(std::vector<double> train_preds,
                          result.model->PredictBatch(result.train));
  MYSAWH_ASSIGN_OR_RETURN(std::vector<double> test_preds,
                          result.model->PredictBatch(result.test));
  MYSAWH_ASSIGN_OR_RETURN(
      DriftBaseline baseline,
      BuildDriftBaseline(result.train, train_preds, config.drift_bins));
  MYSAWH_ASSIGN_OR_RETURN(DriftReport drift,
                          EvaluateDrift(baseline, result.test, test_preds,
                                        config.drift_thresholds));
  post.drift_json = DriftReportJson(drift);
  const std::string cell_name = StudyCellName(key);
  const std::vector<double>& labels = result.test.labels();
  if (result.is_classification) {
    MYSAWH_ASSIGN_OR_RETURN(
        CalibrationReport calibration,
        ComputeCalibration(labels, test_preds, config.calibration_bins));
    PublishCalibrationGauges(cell_name, calibration);
    post.calibration_json = CalibrationJson(calibration);
  } else {
    MYSAWH_ASSIGN_OR_RETURN(ErrorQuantiles quantiles,
                            ComputeErrorQuantiles(labels, test_preds));
    PublishErrorQuantileGauges(cell_name, quantiles);
    post.calibration_json = ErrorQuantilesJson(quantiles);
  }
  return post;
}

}  // namespace

Result<StudyResult> RunFullStudy(const StudyConfig& config) {
  cohort::CohortSimulator simulator(config.cohort);
  StudyResult study;
  cohort::Cohort cohort;
  {
    TraceSpan span("study.generate_cohort", "study");
    MYSAWH_ASSIGN_OR_RETURN(cohort, simulator.Generate());
  }
  // Build all sample sets up front (the builder is stateful); every cell
  // then reads its own immutable dataset.
  std::vector<SampleSets> all_sets;
  all_sets.reserve(3);  // cells hold pointers into all_sets; no reallocation
  std::vector<CellRun> cells(12);
  {
    TraceSpan build_span("study.build_samples", "study");
    MYSAWH_ASSIGN_OR_RETURN(SampleSetBuilder builder,
                            SampleSetBuilder::Create(&cohort, config.build));
    size_t c = 0;
    for (Outcome outcome : {Outcome::kQol, Outcome::kSppb, Outcome::kFalls}) {
      MYSAWH_ASSIGN_OR_RETURN(SampleSets sets, builder.Build(outcome));
      if (outcome == Outcome::kQol) {
        study.total_candidates = sets.total_candidates;
        study.retained = sets.retained;
        study.gap_stats = sets.gap_stats_raw;
      }
      all_sets.push_back(std::move(sets));
      const SampleSets& stored = all_sets.back();
      const std::pair<const Dataset*, StudyCellKey> grid[] = {
          {&stored.kd, {outcome, Approach::kKnowledgeDriven, false}},
          {&stored.kd_fi, {outcome, Approach::kKnowledgeDriven, true}},
          {&stored.dd, {outcome, Approach::kDataDriven, false}},
          {&stored.dd_fi, {outcome, Approach::kDataDriven, true}}};
      for (const auto& [data, key] : grid) {
        cells[c].data = data;
        cells[c].key = key;
        ++c;
      }
    }
  }

  int num_threads = config.num_threads;
  if (num_threads == 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  const bool checkpointing = !config.checkpoint_dir.empty();
  const std::string fingerprint = StudyFingerprint(config);
  if (checkpointing) {
    MYSAWH_RETURN_NOT_OK(EnsureCheckpointDir(config.checkpoint_dir));
  }
  Metrics().cells_total->Set(static_cast<int64_t>(cells.size()));

  // Resume or plan every cell, in grid order on this thread: both are cheap,
  // and failpoint hits and resume decisions stay in a fixed order. Each plan
  // draws its partitions from the protocol seed alone.
  struct FitTask {
    size_t cell;
    int fit;
    double cost;
  };
  std::vector<FitTask> tasks;
  for (size_t c = 0; c < cells.size(); ++c) {
    CellRun& cell = cells[c];
    const TaskClock clock;
    if (checkpointing && config.resume) {
      Result<ExperimentResult> loaded = LoadCellCheckpoint(
          config.checkpoint_dir, fingerprint, cell.key.outcome,
          cell.key.approach, cell.key.with_fi);
      if (loaded.ok()) {
        Metrics().resume_hits->Increment();
        cell.result = std::move(loaded);
        cell.timing = {clock.WallMillis(), clock.CpuMillis(), true};
        continue;
      }
      // NotFound (never checkpointed), DataLoss (corrupt file) and
      // FailedPrecondition (different configuration) all mean the same
      // thing here: this cell must be recomputed.
      Metrics().resume_misses->Increment();
    }
    if (auto injected = FailpointRegistry::Global().Check("study/cell_run")) {
      cell.result = *std::move(injected);
      continue;
    }
    Result<ExperimentPlan> plan = PlanExperiment(
        *cell.data, cell.key.outcome, cell.key.approach, cell.key.with_fi,
        DefaultModelConfig(cell.key.outcome, cell.key.approach,
                           config.model_family),
        config.protocol);
    if (!plan.ok()) {
      cell.result = plan.status();
      continue;
    }
    cell.plan = std::make_unique<ExperimentPlan>(std::move(plan).value());
    const int num_fits = cell.plan->num_fits();
    for (int fit = 0; fit < num_fits; ++fit) {
      cell.fits.emplace_back(Status::Internal("fit never ran"));
      tasks.push_back({c, fit, EstimateFitCost(*cell.plan, fit)});
    }
    cell.fit_timings.resize(static_cast<size_t>(num_fits));
    cell.fits_left = num_fits;
    cell.timing = {clock.WallMillis(), clock.CpuMillis(), false};
  }
  Metrics().fits_total->Set(static_cast<int64_t>(tasks.size()));

  // The last fit of a cell to complete assembles it on its worker: CV
  // means, checkpoint, and the manifest post-pass. The fit slots are final
  // by then: the atomic countdown orders every fit's writes before it.
  auto finish_cell = [&](CellRun& cell) {
    TraceSpan span;
    if (TracingEnabled()) {
      span = TraceSpan("study.cell/" + StudyCellName(cell.key), "study");
    }
    const TaskClock clock;
    cell.result = FinishExperiment(std::move(*cell.plan), std::move(cell.fits));
    cell.plan.reset();
    Metrics().cells_computed->Increment();
    if (cell.result.ok() && checkpointing) {
      const Status saved =
          SaveCellCheckpoint(config.checkpoint_dir, fingerprint, *cell.result);
      // A cell whose checkpoint cannot be written counts as failed: the
      // study's contract is that a later --resume never silently re-runs
      // work it reported as persisted.
      if (!saved.ok()) cell.result = saved;
    }
    if (cell.result.ok() && cell.result->train.num_rows() > 0 &&
        cell.result->test.num_rows() > 0 && cell.result->model != nullptr) {
      cell.post_pass = ProfileAndCheckQuality(config, cell.key, *cell.result);
    }
    cell.timing.wall_ms += clock.WallMillis();
    cell.timing.cpu_ms += clock.CpuMillis();
    for (const CellTiming& fit : cell.fit_timings) {
      cell.timing.wall_ms += fit.wall_ms;
      cell.timing.cpu_ms += fit.cpu_ms;
    }
    Metrics().cell_us->Record(static_cast<int64_t>(cell.timing.wall_ms * 1e3));
  };

  // Schedule the fits, not the cells: longest first (a stable sort keeps
  // grid and fit order among equal estimates), one task each, on the one
  // study pool. Workers take tasks in submission order, so the longest
  // fits start first and the short ones fill in at the end. Every fit
  // writes only its own slot, so the result is the same for any thread
  // count and any completion order.
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const FitTask& a, const FitTask& b) {
                     return a.cost > b.cost;
                   });
  ThreadPool pool(num_threads);
  for (const FitTask& task : tasks) {
    pool.Submit([&, task] {
      CellRun& cell = cells[task.cell];
      {
        const std::string name = StudyCellName(cell.key);
        TraceSpan span;
        if (TracingEnabled()) {
          span = TraceSpan("study.cell/" + name + "/" +
                               (task.fit < cell.plan->final_fit()
                                    ? "cv" + std::to_string(task.fit)
                                    : "final"),
                           "study");
        }
        // Telemetry context is thread-local, so each fit labels its own
        // streams ("QoL-DD-fi0/cv2/train", ...) on whichever worker runs it.
        TelemetryScope cell_scope(name);
        const TaskClock clock;
        cell.fits[static_cast<size_t>(task.fit)] = RunFit(*cell.plan, task.fit);
        cell.fit_timings[static_cast<size_t>(task.fit)] = {
            clock.WallMillis(), clock.CpuMillis(), false};
        Metrics().fits_computed->Increment();
      }
      if (--cell.fits_left == 0) {
        finish_cell(cell);
      }
    });
  }
  pool.Wait();

  // Collect in grid order so the first error reported is deterministic too.
  // Cells resumed from a checkpoint carry only their metrics, not their
  // partitions, so they have no profile, drift or calibration entry.
  for (CellRun& cell : cells) {
    MYSAWH_ASSIGN_OR_RETURN(ExperimentResult result, std::move(cell.result));
    study.cells.emplace(cell.key, std::move(result));
    study.timings.emplace(cell.key, cell.timing);
    if (!cell.post_pass.has_value()) continue;
    MYSAWH_ASSIGN_OR_RETURN(PostPass post, std::move(*cell.post_pass));
    study.profiles.emplace(cell.key, std::move(post.profile));
    study.drift_jsons.emplace(cell.key, std::move(post.drift_json));
    study.calibration_jsons.emplace(cell.key,
                                    std::move(post.calibration_json));
  }
  return study;
}

}  // namespace mysawh::core
