#include "cohort/simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace mysawh::cohort {
namespace {

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Unbiased sample variance (n - 1 denominator); needs n >= 2.
double Variance(const std::vector<double>& v) {
  const double m = Mean(v);
  double ss = 0.0;
  for (const double x : v) ss += (x - m) * (x - m);
  return ss / static_cast<double>(v.size() - 1);
}

/// Pearson correlation of two equal-length, non-constant vectors.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  return sxy / std::sqrt(sxx * syy);
}

/// A small cohort for fast structural checks.
CohortConfig SmallConfig() {
  CohortConfig config;
  config.seed = 7;
  config.clinics = {{"A", 20, 0.0, 1.0}, {"B", 10, 0.05, 1.5}};
  return config;
}

TEST(SimulatorTest, PatientCountsPerClinic) {
  const Cohort cohort = CohortSimulator(SmallConfig()).Generate().value();
  EXPECT_EQ(cohort.patients.size(), 30u);
  int count_a = 0, count_b = 0;
  for (const auto& p : cohort.patients) {
    (p.clinic == 0 ? count_a : count_b) += 1;
  }
  EXPECT_EQ(count_a, 20);
  EXPECT_EQ(count_b, 10);
}

TEST(SimulatorTest, DeterministicGivenSeed) {
  const Cohort a = CohortSimulator(SmallConfig()).Generate().value();
  const Cohort b = CohortSimulator(SmallConfig()).Generate().value();
  ASSERT_EQ(a.patients.size(), b.patients.size());
  for (size_t i = 0; i < a.patients.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.patients[i].frailty, b.patients[i].frailty);
    EXPECT_EQ(a.patients[i].outcomes[0].sppb, b.patients[i].outcomes[0].sppb);
    // Compare one PRO series cell-by-cell (NaN-aware).
    const auto& sa = a.patients[i].pro_weekly[0];
    const auto& sb = b.patients[i].pro_weekly[0];
    ASSERT_EQ(sa.size(), sb.size());
    for (int64_t w = 0; w < sa.size(); ++w) {
      EXPECT_EQ(sa.IsMissing(w), sb.IsMissing(w));
      if (!sa.IsMissing(w)) {
        EXPECT_DOUBLE_EQ(sa.at(w), sb.at(w));
      }
    }
  }
}

TEST(SimulatorTest, DifferentSeedsDiffer) {
  CohortConfig config_a = SmallConfig();
  CohortConfig config_b = SmallConfig();
  config_b.seed = 8;
  const Cohort a = CohortSimulator(config_a).Generate().value();
  const Cohort b = CohortSimulator(config_b).Generate().value();
  int different = 0;
  for (size_t i = 0; i < a.patients.size(); ++i) {
    different += a.patients[i].frailty != b.patients[i].frailty;
  }
  EXPECT_GT(different, 25);
}

TEST(SimulatorTest, AnswersWithinQuestionScales) {
  const Cohort cohort = CohortSimulator(SmallConfig()).Generate().value();
  for (const auto& patient : cohort.patients) {
    ASSERT_EQ(patient.pro_weekly.size(),
              static_cast<size_t>(cohort.questions.size()));
    for (int64_t q = 0; q < cohort.questions.size(); ++q) {
      const auto& question = cohort.questions.question(q);
      const auto& series = patient.pro_weekly[static_cast<size_t>(q)];
      EXPECT_EQ(series.size(), 18 * 4);
      for (int64_t w = 0; w < series.size(); ++w) {
        if (series.IsMissing(w)) continue;
        EXPECT_GE(series.at(w), 1.0);
        EXPECT_LE(series.at(w), question.levels);
        EXPECT_EQ(series.at(w), std::floor(series.at(w)))
            << "answers are ordinal integers";
      }
    }
  }
}

TEST(SimulatorTest, ActivityTracesPlausible) {
  const Cohort cohort = CohortSimulator(SmallConfig()).Generate().value();
  for (const auto& patient : cohort.patients) {
    EXPECT_EQ(patient.steps_daily.size(), 18 * 30);
    for (int64_t d = 0; d < patient.steps_daily.size(); ++d) {
      if (!patient.steps_daily.IsMissing(d)) {
        EXPECT_GE(patient.steps_daily.at(d), 0.0);
        EXPECT_LT(patient.steps_daily.at(d), 60000.0);
      }
      if (!patient.sleep_daily.IsMissing(d)) {
        EXPECT_GE(patient.sleep_daily.at(d), 3.0);
        EXPECT_LE(patient.sleep_daily.at(d), 11.0);
      }
      if (!patient.calories_daily.IsMissing(d)) {
        EXPECT_GT(patient.calories_daily.at(d), 500.0);
      }
    }
  }
}

TEST(SimulatorTest, OutcomesInRange) {
  const Cohort cohort = CohortSimulator(SmallConfig()).Generate().value();
  for (const auto& patient : cohort.patients) {
    ASSERT_EQ(patient.outcomes.size(), 2u);
    for (const auto& visit : patient.outcomes) {
      EXPECT_GE(visit.qol, 0.0);
      EXPECT_LE(visit.qol, 1.0);
      EXPECT_GE(visit.sppb, 0);
      EXPECT_LE(visit.sppb, 12);
    }
  }
}

TEST(SimulatorTest, DeficitsAreBinaryAndPerVisit) {
  const Cohort cohort = CohortSimulator(SmallConfig()).Generate().value();
  for (const auto& patient : cohort.patients) {
    ASSERT_EQ(patient.deficits_at_visit.size(), 3u);  // months 0, 9, 18
    for (const auto& visit : patient.deficits_at_visit) {
      ASSERT_EQ(visit.size(), 37u);
      for (double d : visit) EXPECT_TRUE(d == 0.0 || d == 1.0);
    }
  }
}

TEST(SimulatorTest, FrailtyDrivesCapacityDown) {
  const Cohort cohort = CohortSimulator(SmallConfig()).Generate().value();
  std::vector<double> frailty, capacity;
  for (const auto& patient : cohort.patients) {
    frailty.push_back(patient.frailty);
    double mean = 0;
    for (int d = 0; d < kNumDomains; ++d) {
      mean += patient.domain_by_month[0][static_cast<size_t>(d)];
    }
    capacity.push_back(mean / kNumDomains);
  }
  EXPECT_LT(PearsonCorrelation(frailty, capacity), -0.5);
}

TEST(SimulatorTest, InjectedGapsRespectCap) {
  CohortConfig config = SmallConfig();
  config.gaps_per_series = 3.0;
  const Cohort cohort = CohortSimulator(config).Generate().value();
  GapStats stats;
  for (const auto& patient : cohort.patients) {
    for (const auto& series : patient.pro_weekly) {
      stats.Merge(ComputeGapStats(series));
    }
  }
  EXPECT_GT(stats.num_gaps, 0);
  EXPECT_LE(stats.max_length, config.max_gap_length);
  EXPECT_GT(stats.mean_length, 2.0);
  EXPECT_LT(stats.mean_length, 8.0);
}

TEST(SimulatorTest, PaperScaleCohortShape) {
  // Default config reproduces the paper's cohort dimensions.
  const CohortConfig config;
  const Cohort cohort = CohortSimulator(config).Generate().value();
  EXPECT_EQ(cohort.patients.size(), 261u);
  EXPECT_EQ(config.NumWindows(), 2);
  EXPECT_EQ(cohort.questions.size(), 56);
  // Falls base rate in the paper's ~9-16% band.
  int64_t falls = 0, visits = 0;
  for (const auto& patient : cohort.patients) {
    for (const auto& outcome : patient.outcomes) {
      falls += outcome.falls ? 1 : 0;
      ++visits;
    }
  }
  const double rate = static_cast<double>(falls) / static_cast<double>(visits);
  EXPECT_GT(rate, 0.06);
  EXPECT_LT(rate, 0.20);
}

TEST(SimulatorTest, ConfigValidation) {
  CohortConfig config = SmallConfig();
  config.clinics.clear();
  EXPECT_FALSE(CohortSimulator(config).Generate().ok());
  config = SmallConfig();
  config.num_months = 10;  // not a multiple of 9
  EXPECT_FALSE(CohortSimulator(config).Generate().ok());
  config = SmallConfig();
  config.clinics[0].num_patients = 0;
  EXPECT_FALSE(CohortSimulator(config).Generate().ok());
  config = SmallConfig();
  config.low_adherence_fraction = 1.5;
  EXPECT_FALSE(CohortSimulator(config).Generate().ok());
  config = SmallConfig();
  config.activity_missing_day_prob = 1.0;
  EXPECT_FALSE(CohortSimulator(config).Generate().ok());
}

TEST(SimulatorTest, SingleWindowStudy) {
  // A 9-month study: one window, visits at months 0 and 9.
  CohortConfig config = SmallConfig();
  config.num_months = 9;
  const Cohort cohort = CohortSimulator(config).Generate().value();
  EXPECT_EQ(config.NumWindows(), 1);
  for (const auto& patient : cohort.patients) {
    EXPECT_EQ(patient.outcomes.size(), 1u);
    EXPECT_EQ(patient.deficits_at_visit.size(), 2u);
    EXPECT_EQ(patient.pro_weekly[0].size(), 9 * 4);
    EXPECT_EQ(patient.steps_daily.size(), 9 * 30);
    EXPECT_EQ(patient.domain_by_month.size(), 9u);
  }
}

TEST(SimulatorTest, IllnessEpisodesDepressCapacity) {
  CohortConfig config = SmallConfig();
  config.episodes_per_patient = 3.0;
  config.episode_depth_lo = 0.2;
  config.episode_depth_hi = 0.3;
  const Cohort with = CohortSimulator(config).Generate().value();
  config.episodes_per_patient = 0.0;
  const Cohort without = CohortSimulator(config).Generate().value();
  auto mean_capacity = [](const Cohort& cohort) {
    double total = 0;
    int64_t count = 0;
    for (const auto& patient : cohort.patients) {
      for (const auto& month : patient.domain_by_month) {
        for (double level : month) {
          total += level;
          ++count;
        }
      }
    }
    return total / static_cast<double>(count);
  };
  EXPECT_LT(mean_capacity(with), mean_capacity(without) - 0.01);
  // Episodes are recorded in the ground truth.
  int64_t episodes = 0;
  for (const auto& patient : with.patients) {
    episodes += static_cast<int64_t>(patient.episodes.size());
    for (const auto& episode : patient.episodes) {
      EXPECT_GE(episode.start_month, 0);
      EXPECT_LT(episode.start_month, config.num_months);
      EXPECT_GE(episode.depth, config.episode_depth_lo);
      EXPECT_LE(episode.depth, config.episode_depth_hi);
    }
  }
  EXPECT_GT(episodes, 30);
}

TEST(SimulatorTest, NoisyClinicHasNoisierAnswers) {
  // Generate two single-clinic cohorts differing only in noise_scale and
  // compare within-patient answer variance of a linear question.
  CohortConfig quiet;
  quiet.seed = 11;
  quiet.clinics = {{"Quiet", 40, 0.0, 0.4}};
  CohortConfig noisy = quiet;
  noisy.clinics = {{"Noisy", 40, 0.0, 2.5}};
  const Cohort a = CohortSimulator(quiet).Generate().value();
  const Cohort b = CohortSimulator(noisy).Generate().value();
  auto mean_variance = [](const Cohort& cohort) {
    double total = 0;
    int64_t count = 0;
    for (const auto& patient : cohort.patients) {
      std::vector<double> observed;
      for (int64_t w = 0; w < patient.pro_weekly[0].size(); ++w) {
        if (!patient.pro_weekly[0].IsMissing(w)) {
          observed.push_back(patient.pro_weekly[0].at(w));
        }
      }
      if (observed.size() > 5) {
        total += Variance(observed);
        ++count;
      }
    }
    return total / static_cast<double>(count);
  };
  EXPECT_GT(mean_variance(b), mean_variance(a) * 1.3);
}

}  // namespace
}  // namespace mysawh::cohort
