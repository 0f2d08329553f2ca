#ifndef MYSAWH_CORE_STUDY_H_
#define MYSAWH_CORE_STUDY_H_

#include <array>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cohort/cohort.h"
#include "core/data_profile.h"
#include "core/drift_monitor.h"
#include "core/evaluation.h"
#include "core/sample_builder.h"
#include "util/status.h"

namespace mysawh::core {

/// Configuration of a complete paper-style study run.
struct StudyConfig {
  cohort::CohortConfig cohort;
  SampleBuildOptions build;
  EvalProtocol protocol;
  /// Model family trained in every cell (kGbt reproduces the paper).
  ModelFamily model_family = ModelFamily::kGbt;
  /// Worker threads for the study's fits; 0 picks the hardware count,
  /// 1 runs sequentially. Results are identical for any thread count:
  /// each cell derives its randomness solely from `protocol.seed`.
  int num_threads = 0;
  /// When non-empty, every finished cell persists its result into this
  /// directory (created if absent) as an atomically written, checksummed
  /// checkpoint file — see core/checkpoint.h.
  std::string checkpoint_dir;
  /// With `checkpoint_dir` set, cells whose checkpoint exists, verifies,
  /// and matches the configuration fingerprint are loaded instead of
  /// re-run; missing, corrupt, or mismatched checkpoints re-run (and are
  /// re-written). A resumed study's ToMarkdown() output is bit-identical
  /// to an uninterrupted run's.
  bool resume = false;
  /// Alert thresholds of the per-cell drift post-pass (train baseline vs
  /// test window; see core/drift_monitor.h). Like the data-quality
  /// profiles, the post-pass only feeds the manifest — never REPORT.md.
  DriftThresholds drift_thresholds;
  /// Equal-frequency bins of the drift baselines.
  int drift_bins = 10;
  /// Reliability bins of the calibration post-pass (Falls cells).
  int calibration_bins = 10;
};

/// Canonical fingerprint of the configuration fields that determine cell
/// results (cohort, sample building, protocol, model family — not thread
/// count or checkpoint settings). Stored inside every checkpoint so stale
/// checkpoints from a different configuration are never resumed.
std::string StudyFingerprint(const StudyConfig& config);

/// Key of one experiment cell in the study grid.
struct StudyCellKey {
  Outcome outcome = Outcome::kQol;
  Approach approach = Approach::kDataDriven;
  bool with_fi = false;

  bool operator<(const StudyCellKey& other) const {
    if (outcome != other.outcome) return outcome < other.outcome;
    if (approach != other.approach) return approach < other.approach;
    return with_fi < other.with_fi;
  }
};

/// Canonical "<Outcome>-<KD|DD>-fi<0|1>" label of a cell; used as the
/// trace span name (`study.cell/<label>`) and as the manifest timing key.
std::string StudyCellName(const StudyCellKey& key);

/// One cell of an outcome's grid and the sample set it trains on.
struct GridCell {
  StudyCellKey key;
  const Dataset* data = nullptr;
};

/// The four cells of `sets`' outcome in grid order: KD w/o FI, KD w/ FI,
/// DD w/o FI, DD w/ FI. The pointers refer into `sets`.
std::array<GridCell, 4> GridCells(const SampleSets& sets);

/// Wall/CPU cost of computing (or resuming) one study cell. Collected for
/// the run manifest only — ToMarkdown() never reads it, so a traced run's
/// REPORT.md stays bit-identical to an untraced one.
struct CellTiming {
  /// Summed wall time of the cell's tasks (planning, its fits, assembly);
  /// the cell's busy time on the pool. Its fits interleave with other
  /// cells' fits, so this is not an elapsed interval.
  double wall_ms = 0.0;
  /// Summed thread CPU time of the same tasks (CLOCK_THREAD_CPUTIME_ID).
  double cpu_ms = 0.0;
  /// True when the cell was loaded from a checkpoint instead of computed.
  bool resumed = false;
};

/// The complete result of a study: the paper's Fig 4 grid (3 outcomes x
/// {KD, DD} x {with, without FI}) plus dataset-level statistics.
struct StudyResult {
  std::map<StudyCellKey, ExperimentResult> cells;
  /// Per-cell cost, keyed like `cells` (see CellTiming).
  std::map<StudyCellKey, CellTiming> timings;
  /// Per-cell train/test data-quality profile, keyed like `cells`.
  /// Surfaced through the run manifest's `data_quality` block; ToMarkdown()
  /// never reads it, so REPORT.md is unaffected by profiling.
  std::map<StudyCellKey, DataQualityProfile> profiles;
  /// Per-cell drift report (train baseline vs test partition), rendered
  /// JSON, keyed like `cells`; the manifest's `drift` block. Resumed
  /// cells carry no partitions and so have no entry.
  std::map<StudyCellKey, std::string> drift_jsons;
  /// Per-cell calibration (Falls: reliability/Brier/ECE; regression: MAE
  /// quantiles), rendered JSON; the manifest's `calibration` block.
  std::map<StudyCellKey, std::string> calibration_jsons;
  int64_t total_candidates = 0;
  int64_t retained = 0;
  GapStats gap_stats;

  /// Renders the whole study as a self-contained Markdown report
  /// (dataset summary + Fig 4-style tables), suitable for writing to a
  /// REPORT.md.
  std::string ToMarkdown() const;
};

/// Relative cost of fit `fit` of `plan` (rows x levels x sampled features
/// x rounds for GBT; rows x features otherwise). RunPlans only uses it to
/// start the longest fits first; it never affects a result.
double EstimateFitCost(const ExperimentPlan& plan, int fit);

/// One computed plan: its cell (or the first failed fit's Status, in fit
/// order) and the summed cost of its fits and assembly.
struct PlanRun {
  Result<ExperimentResult> result = Status::Internal("plan never ran");
  CellTiming timing;
};

/// Computes cells: every fit of every plan runs on one pool of
/// `num_threads` workers (0 picks the hardware count, 1 runs on the calling
/// thread), longest (EstimateFitCost) first. The worker that completes a
/// plan's last fit assembles it with FinishExperiment, then calls
/// `finish(i, result)`, when set, which may replace the result. Element i
/// of the returned vector belongs to `plans[i]`. Every fit writes only its
/// own slot, so the results are the same for any thread count.
std::vector<PlanRun> RunPlans(
    std::vector<ExperimentPlan> plans, int num_threads,
    const std::function<void(size_t, Result<ExperimentResult>&)>& finish =
        nullptr);

/// Runs the full DD-vs-KD study: generates the cohort, builds the aligned
/// sample sets for each outcome, and evaluates all twelve grid cells with
/// the default per-cell hyperparameters. Resume, fault injection and
/// planning run on the calling thread in grid order; RunPlans computes the
/// planned cells, checkpointing each and running its manifest post-pass on
/// the worker that assembles it.
Result<StudyResult> RunFullStudy(const StudyConfig& config);

}  // namespace mysawh::core

#endif  // MYSAWH_CORE_STUDY_H_
