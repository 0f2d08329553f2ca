#include "core/drift_monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/audit_log.h"
#include "data/dataset.h"
#include "util/status.h"

namespace mysawh::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A hand-built two-bin baseline: 50/50 split at 0.5, no missingness.
DriftBaseline TwoBinBaseline() {
  FeatureBaseline feature;
  feature.name = "x";
  feature.edges = {0.5};
  feature.expected = {0.5, 0.5};
  feature.missing_expected = 0.0;
  feature.rows = 100;
  DriftBaseline baseline;
  baseline.num_bins = 2;
  baseline.features = {feature};
  baseline.prediction.name = "__prediction__";
  return baseline;
}

/// One-feature dataset with the given values.
Dataset OneColumn(const std::vector<double>& values) {
  Dataset data = Dataset::Create({"x"});
  for (const double v : values) EXPECT_TRUE(data.AddRow({v}, 0.0).ok());
  return data;
}

TEST(DriftStatsTest, PsiAndKsHandComputed) {
  // Expected [0.5, 0.5], actual [0.9, 0.1]:
  //   PSI = (0.9-0.5)ln(0.9/0.5) + (0.1-0.5)ln(0.1/0.5) = 0.87889...
  //   KS  = |0.5 - 0.9| at the single edge = 0.4
  // (the missing bin contributes 0: both sides clamp to epsilon).
  std::vector<double> values(90, 0.0);
  values.insert(values.end(), 10, 1.0);
  const DriftReport report =
      EvaluateDrift(TwoBinBaseline(), OneColumn(values), {}, DriftThresholds())
          .value();
  ASSERT_EQ(report.features.size(), 1u);
  const double expected_psi =
      0.4 * std::log(0.9 / 0.5) - 0.4 * std::log(0.1 / 0.5);
  EXPECT_NEAR(report.features[0].psi, expected_psi, 1e-12);
  EXPECT_NEAR(report.features[0].ks, 0.4, 1e-12);
  EXPECT_EQ(report.rows, 100);
  EXPECT_EQ(report.max_psi_feature, "x");
  EXPECT_NEAR(report.max_psi, expected_psi, 1e-12);
  // Both statistics crossed their default thresholds -> one alert.
  ASSERT_EQ(report.alerts.size(), 1u);
  EXPECT_EQ(report.alerts[0], "x");
}

TEST(DriftStatsTest, MatchingDistributionScoresZero) {
  // A window with exactly the expected proportions: PSI and KS vanish.
  std::vector<double> values(50, 0.0);
  values.insert(values.end(), 50, 1.0);
  const DriftReport report =
      EvaluateDrift(TwoBinBaseline(), OneColumn(values), {}, DriftThresholds())
          .value();
  EXPECT_NEAR(report.features[0].psi, 0.0, 1e-12);
  EXPECT_NEAR(report.features[0].ks, 0.0, 1e-12);
  EXPECT_TRUE(report.alerts.empty());
}

TEST(DriftStatsTest, MissingnessShiftScoresLikeValueShift) {
  // Baseline has no missing values; a window that is half NaN must drift.
  std::vector<double> values(50, 0.25);
  values.insert(values.end(), 50, kNaN);
  const DriftReport report =
      EvaluateDrift(TwoBinBaseline(), OneColumn(values), {}, DriftThresholds())
          .value();
  EXPECT_NEAR(report.features[0].missing_actual, 0.5, 1e-12);
  EXPECT_GT(report.features[0].psi, 0.2);
  ASSERT_EQ(report.alerts.size(), 1u);
}

TEST(DriftStatsTest, PredictionDistributionIsMonitoredToo) {
  DriftBaseline baseline = TwoBinBaseline();
  baseline.prediction.name = "__prediction__";
  baseline.prediction.edges = {0.5};
  baseline.prediction.expected = {0.5, 0.5};
  baseline.prediction.rows = 100;
  // Features stay on-distribution; every prediction lands in the top bin.
  std::vector<double> values(50, 0.0);
  values.insert(values.end(), 50, 1.0);
  const std::vector<double> preds(100, 0.9);
  const DriftReport report =
      EvaluateDrift(baseline, OneColumn(values), preds, DriftThresholds())
          .value();
  EXPECT_NEAR(report.features[0].psi, 0.0, 1e-12);
  EXPECT_GT(report.prediction.psi, 0.2);
  ASSERT_EQ(report.alerts.size(), 1u);
  EXPECT_EQ(report.alerts[0], "__prediction__");
  EXPECT_EQ(report.max_psi_feature, "__prediction__");
}

TEST(DriftBaselineTest, EqualFrequencyEdgesOverDistinctValues) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  Dataset data = OneColumn(values);
  const DriftBaseline baseline = BuildDriftBaseline(data, {}, 10).value();
  ASSERT_EQ(baseline.features.size(), 1u);
  const FeatureBaseline& feature = baseline.features[0];
  EXPECT_EQ(feature.rows, 100);
  EXPECT_EQ(feature.edges.size(), 9u);
  ASSERT_EQ(feature.expected.size(), 10u);
  double sum = 0.0;
  for (const double p : feature.expected) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_NEAR(feature.missing_expected, 0.0, 1e-12);
  // Self-evaluation: the data the baseline was built from scores zero.
  const DriftReport report =
      EvaluateDrift(baseline, data, {}, DriftThresholds()).value();
  EXPECT_NEAR(report.max_psi, 0.0, 1e-12);
  EXPECT_NEAR(report.max_ks, 0.0, 1e-12);
  EXPECT_TRUE(report.alerts.empty());
}

TEST(DriftBaselineTest, TiedValuesCollapseBinsAndConstantsKeepZeroEdges) {
  const DriftBaseline tied =
      BuildDriftBaseline(OneColumn({1, 1, 1, 1, 2, 2, 2, 2}), {}, 4).value();
  EXPECT_LT(tied.features[0].edges.size(), 3u);
  // A constant column dedupes to a single edge at the constant; all the
  // expected mass lands in bin 0 and self-evaluation still scores zero.
  const DriftBaseline constant =
      BuildDriftBaseline(OneColumn({3, 3, 3, 3}), {}, 4).value();
  ASSERT_EQ(constant.features[0].edges.size(), 1u);
  EXPECT_EQ(constant.features[0].edges[0], 3.0);
  ASSERT_EQ(constant.features[0].expected.size(), 2u);
  EXPECT_NEAR(constant.features[0].expected[0], 1.0, 1e-12);
  EXPECT_NEAR(constant.features[0].expected[1], 0.0, 1e-12);
  const DriftBaseline all_missing =
      BuildDriftBaseline(OneColumn({kNaN, kNaN}), {}, 4).value();
  EXPECT_EQ(all_missing.features[0].edges.size(), 0u);
  EXPECT_NEAR(all_missing.features[0].missing_expected, 1.0, 1e-12);
}

TEST(DriftBaselineTest, Validation) {
  Dataset empty = Dataset::Create({"x"});
  EXPECT_FALSE(BuildDriftBaseline(empty, {}, 10).ok());
  EXPECT_FALSE(BuildDriftBaseline(OneColumn({1, 2}), {}, 1).ok());
  EXPECT_FALSE(BuildDriftBaseline(OneColumn({1, 2}), {0.5}, 10).ok());
  // Width mismatch at evaluation time.
  Dataset wide = Dataset::Create({"x", "y"});
  EXPECT_TRUE(wide.AddRow({1.0, 2.0}, 0.0).ok());
  EXPECT_FALSE(
      EvaluateDrift(TwoBinBaseline(), wide, {}, DriftThresholds()).ok());
}

TEST(DriftBaselineTest, JsonRoundTripIsExact) {
  std::vector<double> values;
  for (int i = 0; i < 64; ++i) {
    values.push_back(i % 7 == 0 ? kNaN : std::sin(i) * 1e3);
  }
  Dataset data = OneColumn(values);
  const DriftBaseline baseline =
      BuildDriftBaseline(data, std::vector<double>(64, 0.125), 5).value();
  const std::string json = DriftBaselineJson(baseline);
  const DriftBaseline parsed = ParseDriftBaseline(json).value();
  // Doubles serialize round-trip exact, so re-serialization is bytewise
  // identical and both baselines score any window identically.
  EXPECT_EQ(DriftBaselineJson(parsed), json);
  const std::string a =
      DriftReportJson(EvaluateDrift(baseline, data, {}, {}).value());
  const std::string b =
      DriftReportJson(EvaluateDrift(parsed, data, {}, {}).value());
  EXPECT_EQ(a, b);
}

TEST(DriftBaselineTest, ParserRejectsMalformedArtifacts) {
  EXPECT_FALSE(ParseDriftBaseline("not json").ok());
  EXPECT_FALSE(ParseDriftBaseline("{\"schema\":\"wrong v9\"}").ok());
  // A feature whose proportions do not match its edge count is corrupt.
  const auto mismatched = ParseDriftBaseline(
      "{\"schema\":\"mysawh-drift-baseline v1\",\"num_bins\":2,"
      "\"features\":[{\"name\":\"x\",\"rows\":10,\"missing\":0,"
      "\"edges\":[0.5],\"expected\":[0.2,0.3,0.5]}]}");
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kDataLoss);
  // Non-ascending edges are corrupt.
  const auto unsorted = ParseDriftBaseline(
      "{\"schema\":\"mysawh-drift-baseline v1\",\"num_bins\":3,"
      "\"features\":[{\"name\":\"x\",\"rows\":10,\"missing\":0,"
      "\"edges\":[0.7,0.2],\"expected\":[0.3,0.3,0.4]}]}");
  ASSERT_FALSE(unsorted.ok());
  EXPECT_EQ(unsorted.status().code(), StatusCode::kDataLoss);
  // Null edges, null or out-of-range proportions and missing fractions,
  // and edges without proportions are corrupt: evaluating them would read
  // a NaN PSI, a false alert, or a KS above 1.
  for (const char* feature : {
           "\"missing\":0,\"edges\":[0.5],\"expected\":[null,null]",
           "\"missing\":0,\"edges\":[null],\"expected\":[0.5,0.5]",
           "\"missing\":7,\"edges\":[0.5],\"expected\":[-3,4]",
           "\"missing\":0,\"edges\":[0.5],\"expected\":[-3,4]",
           "\"missing\":7,\"edges\":[0.5],\"expected\":[0.5,0.5]",
           "\"missing\":-0.1,\"edges\":[0.5],\"expected\":[0.5,0.5]",
           "\"missing\":null,\"edges\":[0.5],\"expected\":[0.5,0.5]",
           "\"missing\":0,\"edges\":[0.5],\"expected\":[]",
       }) {
    SCOPED_TRACE(feature);
    const auto corrupt = ParseDriftBaseline(
        std::string("{\"schema\":\"mysawh-drift-baseline v1\",\"num_bins\":2,"
                    "\"features\":[{\"name\":\"x\",\"rows\":10,") +
        feature + "}]}");
    ASSERT_FALSE(corrupt.ok());
    EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);
  }
  // Row and bin counts are whole numbers in range: casting a fraction
  // would truncate it, and casting an out-of-range double is undefined.
  for (const char* counts : {
           "\"num_bins\":2,\"features\":[{\"name\":\"x\",\"rows\":-1e300,",
           "\"num_bins\":2,\"features\":[{\"name\":\"x\",\"rows\":2.5,",
           "\"num_bins\":2,\"features\":[{\"name\":\"x\",\"rows\":-1,",
           "\"num_bins\":7.9,\"features\":[{\"name\":\"x\",\"rows\":10,",
           "\"num_bins\":1e300,\"features\":[{\"name\":\"x\",\"rows\":10,",
           "\"num_bins\":\"2\",\"features\":[{\"name\":\"x\",\"rows\":10,",
       }) {
    SCOPED_TRACE(counts);
    const auto corrupt = ParseDriftBaseline(
        std::string("{\"schema\":\"mysawh-drift-baseline v1\",") + counts +
        "\"missing\":0,\"edges\":[0.5],\"expected\":[0.5,0.5]}]}");
    ASSERT_FALSE(corrupt.ok());
    EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);
  }
}

TEST(DriftRuntimeTest, WindowsEvaluateAndAlertsLatchOncePerExcursion) {
  DriftMonitorRuntime& runtime = DriftMonitorRuntime::Global();
  const int64_t windows_before = runtime.windows_evaluated();
  const int64_t alerts_before = runtime.alerts_fired();
  DriftMonitorOptions options;
  options.window = 4;
  ASSERT_TRUE(runtime.Configure(TwoBinBaseline(), options).ok());
  EXPECT_TRUE(DriftMonitoringEnabled());

  // Two dirty windows (all mass in bin 0) -> one latched alert.
  runtime.ObserveBatch(OneColumn(std::vector<double>(8, 0.0)),
                       std::vector<double>(8, 0.0));
  EXPECT_EQ(runtime.windows_evaluated() - windows_before, 2);
  EXPECT_EQ(runtime.alerts_fired() - alerts_before, 1);
  EXPECT_NE(runtime.LastReportJson().find("\"alerts\":[\"x\"]"),
            std::string::npos);

  // A clean 50/50 window re-arms the latch...
  runtime.ObserveBatch(OneColumn({0.0, 0.0, 1.0, 1.0}),
                       std::vector<double>(4, 0.0));
  EXPECT_EQ(runtime.windows_evaluated() - windows_before, 3);
  EXPECT_EQ(runtime.alerts_fired() - alerts_before, 1);

  // ...so the next excursion fires a second alert.
  runtime.ObserveBatch(OneColumn(std::vector<double>(4, 1.0)),
                       std::vector<double>(4, 0.0));
  EXPECT_EQ(runtime.alerts_fired() - alerts_before, 2);

  // A trailing partial window evaluates on Flush, which also disarms.
  runtime.ObserveBatch(OneColumn({0.0, 1.0}), {0.0, 0.0});
  EXPECT_EQ(runtime.windows_evaluated() - windows_before, 4);
  runtime.Flush();
  EXPECT_EQ(runtime.windows_evaluated() - windows_before, 5);
  EXPECT_FALSE(DriftMonitoringEnabled());
}

TEST(DriftRuntimeTest, MismatchedBatchesAreIgnored) {
  DriftMonitorRuntime& runtime = DriftMonitorRuntime::Global();
  const int64_t windows_before = runtime.windows_evaluated();
  DriftMonitorOptions options;
  options.window = 2;
  ASSERT_TRUE(runtime.Configure(TwoBinBaseline(), options).ok());
  // A two-feature batch cannot belong to the one-feature baseline.
  Dataset wide = Dataset::Create({"x", "y"});
  ASSERT_TRUE(wide.AddRow({0.0, 0.0}, 0.0).ok());
  ASSERT_TRUE(wide.AddRow({1.0, 1.0}, 0.0).ok());
  runtime.ObserveBatch(wide, {0.0, 0.0});
  EXPECT_EQ(runtime.windows_evaluated(), windows_before);
  runtime.Disable();
  EXPECT_FALSE(DriftMonitoringEnabled());
}

TEST(DriftRuntimeTest, SampledObservationAdmitsRowsByContentKey) {
  DriftMonitorRuntime& runtime = DriftMonitorRuntime::Global();
  const int64_t windows_before = runtime.windows_evaluated();
  DriftMonitorOptions options;
  options.window = 4;
  options.sample_rate = 3;
  ASSERT_TRUE(runtime.Configure(TwoBinBaseline(), options).ok());

  // Feed values until the monitor has admitted enough sampled rows for
  // exactly one full window, counting admissions with the same content
  // key the monitor uses. The admitted population is a pure function of
  // the values, so the expected count never depends on batch splits.
  std::vector<double> values;
  int64_t admitted = 0;
  for (int i = 0; admitted < options.window; ++i) {
    const double v = 0.01 * static_cast<double>(i);
    values.push_back(v);
    if (AuditSampled(AuditSampleKey(&values.back(), 1), options.sample_rate)) {
      ++admitted;
    }
  }
  ASSERT_GT(values.size(), static_cast<size_t>(options.window))
      << "fixture must reject at least one row";
  runtime.ObserveBatch(OneColumn(values),
                       std::vector<double>(values.size(), 0.0));
  EXPECT_EQ(runtime.windows_evaluated() - windows_before, 1);
  // The window saw only the admitted rows.
  EXPECT_NE(runtime.LastReportJson().find("\"rows\":4"), std::string::npos);
  runtime.Disable();
}

/// An 8-feature baseline with 5-7 integer edges per feature (so integer
/// values tie on edges), uneven expected proportions, some missingness,
/// and a prediction baseline.
DriftBaseline WideBaseline() {
  DriftBaseline baseline;
  baseline.num_bins = 8;
  for (int f = 0; f < 8; ++f) {
    FeatureBaseline feature;
    feature.name = "f";
    feature.name += std::to_string(f);
    const int num_edges = 5 + f % 3;
    for (int e = 0; e < num_edges; ++e) {
      feature.edges.push_back(static_cast<double>(e - num_edges / 2 + f % 2));
    }
    double total = 0.0;
    for (int b = 0; b <= num_edges; ++b) {
      feature.expected.push_back(1.0 + static_cast<double>((b * 7 + f) % 5));
      total += feature.expected.back();
    }
    for (double& p : feature.expected) p /= total;
    feature.missing_expected = 0.01 * static_cast<double>(f);
    feature.rows = 1000;
    baseline.features.push_back(feature);
  }
  baseline.prediction.name = "__prediction__";
  baseline.prediction.edges = {-1.0, 0.0, 0.5, 1.0, 2.0};
  baseline.prediction.expected = {0.1, 0.2, 0.2, 0.2, 0.2, 0.1};
  baseline.prediction.rows = 1000;
  return baseline;
}

/// Rows [begin, end) of a row-major matrix as a dataset.
Dataset RowsOf(const std::vector<std::vector<double>>& rows, size_t begin,
               size_t end) {
  std::vector<std::string> names;
  for (int f = 0; f < 8; ++f) {
    names.emplace_back("f");
    names.back() += std::to_string(f);
  }
  Dataset data = Dataset::Create(names);
  for (size_t r = begin; r < end; ++r) {
    EXPECT_TRUE(data.AddRow(rows[r], 0.0).ok());
  }
  return data;
}

TEST(DriftRuntimeTest, WindowReportsEqualEvaluateDrift) {
  // A deterministic stream: integer and half-integer values around the
  // edges (ties included), about 6% NaN, predictions that tie on the
  // prediction edges.
  constexpr size_t kRows = 1013;
  std::vector<std::vector<double>> rows(kRows, std::vector<double>(8));
  std::vector<double> preds(kRows);
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (size_t r = 0; r < kRows; ++r) {
    for (double& v : rows[r]) {
      const uint64_t u = next();
      v = u % 17 == 0 ? kNaN : static_cast<double>(u % 13) * 0.5 - 3.0;
    }
    preds[r] = static_cast<double>(next() % 9) * 0.5 - 1.5;
  }
  const DriftBaseline baseline = WideBaseline();
  DriftThresholds thresholds;
  thresholds.psi = 0.3;
  const auto expected_json = [&](const std::vector<size_t>& picked,
                                 size_t begin, size_t end) {
    std::vector<std::vector<double>> window_rows;
    std::vector<double> window_preds;
    for (size_t i = begin; i < end; ++i) {
      window_rows.push_back(rows[picked[i]]);
      window_preds.push_back(preds[picked[i]]);
    }
    return DriftReportJson(
        EvaluateDrift(baseline, RowsOf(window_rows, 0, window_rows.size()),
                      window_preds, thresholds)
            .value());
  };
  // Small batches complete at most one window each, so every full window
  // is checked; large ones hold whole windows and check the last of them.
  const std::vector<std::vector<size_t>> batch_patterns = {
      {7, 45, 1, 89, 31, 60, 13}, {131, 300, 2, 517, 96}};
  DriftMonitorRuntime& runtime = DriftMonitorRuntime::Global();
  for (const int64_t rate : {int64_t{1}, int64_t{3}}) {
    std::vector<size_t> picked;  // Admitted rows, in stream order.
    for (size_t r = 0; r < kRows; ++r) {
      if (AuditSampled(AuditSampleKey(rows[r].data(), 8), rate)) {
        picked.push_back(r);
      }
    }
    for (const int64_t window : {int64_t{96}, int64_t{250}}) {
      const auto full = static_cast<int64_t>(picked.size()) / window;
      ASSERT_GT(full, 0);
      ASSERT_GT(static_cast<int64_t>(picked.size()) % window, 0);
      for (size_t p = 0; p < batch_patterns.size(); ++p) {
        SCOPED_TRACE(::testing::Message() << "rate " << rate << " window "
                                          << window << " pattern " << p);
        DriftMonitorOptions options;
        options.window = window;
        options.sample_rate = rate;
        options.thresholds = thresholds;
        ASSERT_TRUE(runtime.Configure(baseline, options).ok());
        const int64_t windows_before = runtime.windows_evaluated();
        int64_t checked = 0;
        int64_t compared = 0;
        size_t begin = 0;
        for (size_t b = 0; begin < kRows; ++b) {
          const std::vector<size_t>& sizes = batch_patterns[p];
          const size_t end = std::min(kRows, begin + sizes[b % sizes.size()]);
          runtime.ObserveBatch(
              RowsOf(rows, begin, end),
              std::vector<double>(preds.begin() + static_cast<int64_t>(begin),
                                  preds.begin() + static_cast<int64_t>(end)));
          begin = end;
          const int64_t done = runtime.windows_evaluated() - windows_before;
          if (done > checked) {
            const auto last = static_cast<size_t>(done - 1);
            EXPECT_EQ(runtime.LastReportJson(),
                      expected_json(picked, last * static_cast<size_t>(window),
                                    (last + 1) * static_cast<size_t>(window)));
            ++compared;
            checked = done;
          }
        }
        EXPECT_EQ(runtime.windows_evaluated() - windows_before, full);
        if (p == 0) {
          EXPECT_EQ(compared, full);
        }
        runtime.Flush();
        EXPECT_EQ(runtime.windows_evaluated() - windows_before, full + 1);
        EXPECT_EQ(runtime.LastReportJson(),
                  expected_json(picked, static_cast<size_t>(full * window),
                                picked.size()));
      }
    }
  }
}

TEST(DriftRuntimeTest, ConfigureValidation) {
  DriftMonitorRuntime& runtime = DriftMonitorRuntime::Global();
  EXPECT_FALSE(runtime.Configure(DriftBaseline(), {}).ok());
  DriftMonitorOptions bad_window;
  bad_window.window = 0;
  EXPECT_FALSE(runtime.Configure(TwoBinBaseline(), bad_window).ok());
  DriftMonitorOptions bad_rate;
  bad_rate.sample_rate = 0;
  EXPECT_FALSE(runtime.Configure(TwoBinBaseline(), bad_rate).ok());
  runtime.Disable();
}

}  // namespace
}  // namespace mysawh::core
