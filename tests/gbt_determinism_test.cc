/// Regression tests of determinism. Observability hooks must never change
/// a model, prediction and TreeSHAP must be bit-identical for any worker
/// count, all-zero monotone constraints must give the same model as none,
/// and the trainer's leaf-position score update must match a walk of the
/// finished trees.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/audit_log.h"
#include "core/drift_monitor.h"
#include "explain/tree_shap.h"
#include "gbt/binning.h"
#include "gbt/gbt_model.h"
#include "gbt/objective.h"
#include "util/monitor.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace mysawh::gbt {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Deterministic synthetic data: a nonlinear target over five features
/// with ~10% missing cells. A hand-rolled LCG keeps the fixture stable
/// across platforms and standard-library versions.
Dataset MakeData(int64_t rows) {
  Dataset ds = Dataset::Create({"a", "b", "c", "d", "e"});
  uint64_t state = 42;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) /
           static_cast<double>(uint64_t{1} << 53);
  };
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<double> x(5);
    for (auto& v : x) {
      const double u = next();
      v = u < 0.1 ? kNaN : u;
    }
    const double a = std::isnan(x[0]) ? 0.5 : x[0];
    const double b = std::isnan(x[1]) ? 0.5 : x[1];
    const double y = a * a + std::sin(6.28 * b) + 0.1 * next();
    EXPECT_TRUE(ds.AddRow(x, y).ok());
  }
  return ds;
}

GbtParams BaseParams() {
  GbtParams params;
  params.num_trees = 12;
  params.max_depth = 4;
  params.subsample = 0.8;
  params.colsample_bytree = 0.8;
  params.seed = 19;
  return params;
}

TEST(DeterminismTest, TelemetryRecordingDoesNotChangeModel) {
  // Recording telemetry (and passing a validation set for the learning
  // curve) must never feed back into training: the serialized model with
  // telemetry on equals the plain run bit for bit.
  const Dataset train = MakeData(1500);
  const Dataset valid = MakeData(300);
  const GbtParams params = BaseParams();
  const std::string plain =
      GbtModel::Train(train, params).value().Serialize();
  Telemetry::Global().Enable();
  const std::string instrumented =
      GbtModel::Train(train, params, &valid).value().Serialize();
  const std::string jsonl = Telemetry::Global().ToJsonl();
  Telemetry::Global().Disable();
  EXPECT_EQ(instrumented, plain);
  EXPECT_NE(jsonl.find("\"schema\":\"mysawh-telemetry v1\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"valid\":"), std::string::npos);
}

TEST(DeterminismTest, LiveMonitorDoesNotChangeModelOrTelemetry) {
  // The monitor only observes: a run watched by a fast heartbeat (with the
  // stall watchdog armed) must produce a bit-identical model and telemetry
  // artifact, because nothing in the monitor feeds back into training.
  const Dataset train = MakeData(1500);
  const Dataset valid = MakeData(300);
  const GbtParams params = BaseParams();

  Telemetry::Global().Enable();
  const std::string plain_model =
      GbtModel::Train(train, params, &valid).value().Serialize();
  const std::string plain_telemetry = Telemetry::Global().ToJsonl();
  Telemetry::Global().Disable();

  MonitorOptions options;
  options.status_path = ::testing::TempDir() + "/determinism_status.json";
  options.interval_ms = 2;  // Aggressive: many heartbeats inside one train.
  options.stall_timeout_ms = 50;
  Monitor monitor(options);
  ASSERT_TRUE(monitor.Start().ok());
  Telemetry::Global().Enable();
  const std::string monitored_model =
      GbtModel::Train(train, params, &valid).value().Serialize();
  const std::string monitored_telemetry = Telemetry::Global().ToJsonl();
  Telemetry::Global().Disable();
  monitor.Stop();

  EXPECT_GE(monitor.heartbeats_written(), 2)
      << "the monitor must actually have observed the run";
  EXPECT_EQ(monitored_model, plain_model);
  EXPECT_EQ(monitored_telemetry, plain_telemetry);
}

TEST(DeterminismTest, FlatPredictBitIdenticalToReferenceAcrossThreadCounts) {
  // The compiled flat-forest kernel must reproduce the reference pointer
  // walker bit for bit — blocks write disjoint slots and every row sums
  // its trees in ascending order, so the worker count must not matter.
  const Dataset train = MakeData(1500);
  const Dataset probe = MakeData(333);
  const GbtModel model = GbtModel::Train(train, BaseParams()).value();
  ASSERT_NE(model.flat_forest(), nullptr);
  const std::vector<double> reference =
      model.PredictRawReference(probe).value();
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::vector<double> flat(static_cast<size_t>(probe.num_rows()));
    model.flat_forest()->PredictRaw(probe, model.base_score(), flat.data(),
                                    &pool);
    ASSERT_EQ(flat.size(), reference.size());
    for (size_t r = 0; r < flat.size(); ++r) {
      EXPECT_EQ(flat[r], reference[r])
          << "row " << r << " threads " << threads;
    }
  }
}

TEST(DeterminismTest, FlatStagedPredictionsMatchReferenceWalker) {
  // PredictStaged accumulates tree by tree; the flat path quantizes once
  // and replays the same per-row summation order, so every stage must be
  // bit-identical to walking the trees directly.
  const Dataset train = MakeData(1200);
  const Dataset probe = MakeData(200);
  const GbtModel model = GbtModel::Train(train, BaseParams()).value();
  ASSERT_NE(model.flat_forest(), nullptr);
  const auto staged = model.PredictStaged(probe, 5).value();
  // Reference stages: per-row raw accumulation over tree prefixes.
  const auto objective = MakeObjective(model.objective_type());
  std::vector<double> raw(static_cast<size_t>(probe.num_rows()),
                          model.base_score());
  size_t stage = 0;
  for (size_t t = 0; t < model.trees().size(); ++t) {
    for (int64_t r = 0; r < probe.num_rows(); ++r) {
      raw[static_cast<size_t>(r)] += model.trees()[t].Predict(probe.row(r));
    }
    if ((t + 1) % 5 == 0 || t + 1 == model.trees().size()) {
      ASSERT_LT(stage, staged.size());
      for (int64_t r = 0; r < probe.num_rows(); ++r) {
        EXPECT_EQ(staged[stage][static_cast<size_t>(r)],
                  objective->Transform(raw[static_cast<size_t>(r)]))
            << "stage " << stage << " row " << r;
      }
      ++stage;
    }
  }
  EXPECT_EQ(stage, staged.size());
}

TEST(DeterminismTest, FlatShapBitIdenticalToReferenceAcrossThreadCounts) {
  // The flat TreeSHAP recursion mirrors the reference recursion operand
  // for operand (precomputed cover fractions divide the same values the
  // reference divides per visit), so attributions are bit-identical for
  // any worker count.
  const Dataset train = MakeData(1000);
  const GbtModel model = GbtModel::Train(train, BaseParams()).value();
  ASSERT_NE(model.flat_forest(), nullptr);
  const explain::TreeShap shap(&model);
  // A handful of rows keeps ShapBatch on the per-row recursion; several
  // hundred crosses its pattern-table threshold — both batch strategies
  // must match the reference exactly.
  for (int64_t rows : {12, 300}) {
    const Dataset probe = MakeData(rows);
    const auto reference = shap.ShapBatchReference(probe).value();
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      const auto flat = shap.ShapBatch(probe, &pool).value();
      ASSERT_EQ(flat.size(), reference.size());
      for (size_t r = 0; r < flat.size(); ++r) {
        ASSERT_EQ(flat[r].size(), reference[r].size());
        for (size_t f = 0; f < flat[r].size(); ++f) {
          EXPECT_EQ(flat[r][f], reference[r][f])
              << "rows " << rows << " row " << r << " feature " << f
              << " threads " << threads;
        }
      }
    }
  }
}

TEST(DeterminismTest, AuditLogBitIdenticalAcrossThreadCounts) {
  // The audit log is part of the determinism contract: sampling is a pure
  // function of row content and records are content-sorted at
  // serialization, so the payload must be byte-identical no matter how
  // many workers predicted or explained the rows.
  const Dataset train = MakeData(1500);
  const Dataset probe = MakeData(300);
  const GbtModel model = GbtModel::Train(train, BaseParams()).value();
  const explain::TreeShap shap(&model);
  std::string reference;
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    core::AuditOptions options;
    options.sample_rate = 4;
    ASSERT_TRUE(core::AuditLog::Global().Configure(options).ok());
    ASSERT_TRUE(model.Predict(probe).ok());
    ASSERT_TRUE(shap.ShapBatch(probe, &pool).ok());
    const std::string payload = core::AuditLog::Global().SerializePayload();
    core::AuditLog::Global().Disable();
    EXPECT_NE(payload.find("\"type\":\"predict\""), std::string::npos);
    EXPECT_NE(payload.find("\"type\":\"shap\""), std::string::npos);
    if (threads == 1) {
      reference = payload;
    } else {
      EXPECT_EQ(payload, reference) << "threads=" << threads;
    }
  }
}

TEST(DeterminismTest, AuditAndDriftObservationDoesNotChangePredictions) {
  // Both hooks run on the calling thread after the parallel prediction
  // loop: an audited, drift-monitored run must produce bit-identical
  // predictions to a plain one.
  const Dataset train = MakeData(1500);
  const Dataset probe = MakeData(400);
  const GbtModel model = GbtModel::Train(train, BaseParams()).value();
  const std::vector<double> plain = model.Predict(probe).value();
  const core::DriftBaseline baseline =
      core::BuildDriftBaseline(train, model.Predict(train).value(), 10)
          .value();

  core::AuditOptions audit_options;
  audit_options.sample_rate = 1;
  ASSERT_TRUE(core::AuditLog::Global().Configure(audit_options).ok());
  core::DriftMonitorOptions drift_options;
  drift_options.window = 64;
  ASSERT_TRUE(core::DriftMonitorRuntime::Global()
                  .Configure(baseline, drift_options)
                  .ok());
  const std::vector<double> observed = model.Predict(probe).value();
  core::DriftMonitorRuntime::Global().Flush();
  core::AuditLog::Global().Disable();

  EXPECT_EQ(core::AuditLog::Global().record_count(), probe.num_rows());
  EXPECT_GT(core::DriftMonitorRuntime::Global().windows_evaluated(), 0);
  ASSERT_EQ(observed.size(), plain.size());
  for (size_t r = 0; r < observed.size(); ++r) {
    EXPECT_EQ(observed[r], plain[r]) << "row " << r;
  }
}

/// Questionnaire-style data: six Likert answers (integers 0..4) beside two
/// continuous columns, ~10% of cells missing, like the paper's DD feature
/// sets. The coarse answers leave most histogram bins of a deep node
/// empty, which is what the compacted boundary scan skips. With `binary`
/// the label is a 0/1 outcome for the logistic objective.
Dataset MakeLikertData(int64_t rows, bool binary) {
  Dataset ds = Dataset::Create({"q1", "q2", "q3", "q4", "q5", "q6", "x", "y"});
  uint64_t state = 7;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) /
           static_cast<double>(uint64_t{1} << 53);
  };
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<double> x(8);
    for (size_t f = 0; f < x.size(); ++f) {
      const double u = next();
      x[f] = f < 6 ? std::floor(5.0 * u) : u;
      if (next() < 0.1) x[f] = kNaN;
    }
    const double q1 = std::isnan(x[0]) ? 2.0 : x[0];
    const double q2 = std::isnan(x[1]) ? 2.0 : x[1];
    const double v = std::isnan(x[6]) ? 0.5 : x[6];
    const double score = 0.5 * q1 - 0.3 * q2 + std::sin(6.28 * v);
    const double y = binary ? (score + next() > 1.0 ? 1.0 : 0.0)
                            : score + 0.2 * next();
    EXPECT_TRUE(ds.AddRow(x, y).ok());
  }
  return ds;
}

/// The paper's GBT settings for one approach (core/evaluation.cc): DD
/// trees are depth 4 with min_samples_leaf 4 and colsample 0.8, KD trees
/// depth 3 with min_samples_leaf 8; both subsample rows at 0.9.
GbtParams PaperParams(bool data_driven, ObjectiveType objective) {
  GbtParams params;
  params.objective = objective;
  params.learning_rate = 0.07;
  params.num_trees = 40;
  params.subsample = 0.9;
  params.seed = 7;
  params.max_depth = data_driven ? 4 : 3;
  params.colsample_bytree = data_driven ? 0.8 : 1.0;
  params.min_samples_leaf = data_driven ? 4 : 8;
  return params;
}

/// All-zero monotone constraints run the split scan's constraint pass,
/// which may then drop no candidate; empty constraints skip it. Both must
/// produce the same model bit for bit.
void ExpectZeroConstraintsMatchNone(const Dataset& train, GbtParams params) {
  const std::string none = GbtModel::Train(train, params).value().Serialize();
  params.monotone_constraints.assign(
      static_cast<size_t>(train.num_features()), 0);
  const std::string zeros = GbtModel::Train(train, params).value().Serialize();
  EXPECT_EQ(none, zeros);
}

TEST(DeterminismTest, FastSplitPathMatchesGenericPath) {
  {
    SCOPED_TRACE("continuous features");
    ExpectZeroConstraintsMatchNone(MakeData(1500), BaseParams());
  }
  const Dataset likert = MakeLikertData(1200, /*binary=*/false);
  {
    SCOPED_TRACE("Likert features, DD params");
    ExpectZeroConstraintsMatchNone(
        likert, PaperParams(true, ObjectiveType::kSquaredError));
  }
  {
    SCOPED_TRACE("Likert features, KD params");
    ExpectZeroConstraintsMatchNone(
        likert, PaperParams(false, ObjectiveType::kSquaredError));
  }
  {
    SCOPED_TRACE("Likert features, logistic objective");
    ExpectZeroConstraintsMatchNone(MakeLikertData(1200, /*binary=*/true),
                             PaperParams(true, ObjectiveType::kLogistic));
  }
  {
    // 1500 distinct values under max_bins 1024: the continuous features
    // get more than 256 bins, the width the scan once handed to a
    // separate scalar loop.
    SCOPED_TRACE("more than 256 bins");
    const Dataset wide = MakeData(1500);
    const BinnedData binned = BuildBinned(wide, 1024).value();
    ASSERT_GT(binned.bins.num_bins(0), 256);
    GbtParams params = BaseParams();
    params.max_bins = 1024;
    ExpectZeroConstraintsMatchNone(wide, params);
  }
}

TEST(DeterminismTest, ScoreCacheMatchesTreeWalk) {
  // The trainer updates the scores of the rows a tree was grown on from
  // the leaves the grower placed them in, and walks only the rows left out
  // of the subsample. The last round's train metric must therefore equal
  // the metric of a fresh walk over the finished model, bit for bit: the
  // binned split test routes every row to the leaf `v < threshold` does.
  const Dataset train = MakeData(1500);
  const Dataset valid = MakeData(300);
  GbtParams params = BaseParams();
  params.subsample = 0.9;
  const auto objective = MakeObjective(params.objective);
  const std::vector<const Dataset*> validations = {&valid, nullptr};
  for (const Dataset* validation : validations) {
    TrainingLog log;
    const GbtModel model =
        GbtModel::Train(train, params, validation, &log).value();
    ASSERT_EQ(log.rounds.size(), model.trees().size());
    const std::vector<double> preds = model.Predict(train).value();
    EXPECT_EQ(log.rounds.back().train_metric,
              objective->EvalDefaultMetric(train.labels(), preds))
        << "validation " << (validation != nullptr);
  }
}

}  // namespace
}  // namespace mysawh::gbt
