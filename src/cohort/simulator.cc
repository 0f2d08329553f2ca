#include "cohort/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mysawh::cohort {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double Clamp01(double x) { return std::min(1.0, std::max(0.0, x)); }

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Applies a question's link function to a latent capacity in [0, 1].
double ApplyShape(const ProQuestion& q, double latent) {
  switch (q.shape) {
    case QuestionShape::kLinear:
      return latent;
    case QuestionShape::kSaturating:
      return std::sqrt(Clamp01(latent));
    case QuestionShape::kThreshold:
      return Sigmoid((latent - q.shape_midpoint) * 9.0);
  }
  return latent;
}

}  // namespace

Status CohortConfig::Validate() const {
  if (clinics.empty()) {
    return Status::InvalidArgument("cohort needs at least one clinic");
  }
  for (const auto& clinic : clinics) {
    if (clinic.num_patients < 1) {
      return Status::InvalidArgument("clinic " + clinic.name +
                                     " has no patients");
    }
    if (clinic.noise_scale <= 0.0) {
      return Status::InvalidArgument("clinic noise_scale must be > 0");
    }
  }
  if (num_months < 9 || num_months % 9 != 0) {
    return Status::InvalidArgument(
        "num_months must be a positive multiple of 9");
  }
  if (weeks_per_month < 1 || days_per_month < 1) {
    return Status::InvalidArgument("cadence values must be >= 1");
  }
  if (num_clinical_deficits < 1) {
    return Status::InvalidArgument("need at least one clinical deficit");
  }
  if (gaps_per_series < 0.0 || mean_gap_length < 1.0 || max_gap_length < 1) {
    return Status::InvalidArgument("invalid gap parameters");
  }
  if (episodes_per_patient < 0.0 || episode_max_months < 1 ||
      episode_depth_lo < 0.0 || episode_depth_hi < episode_depth_lo) {
    return Status::InvalidArgument("invalid illness-episode parameters");
  }
  if (mnar_gap_bias < 0.0 || mnar_gap_bias > 1.0) {
    return Status::InvalidArgument("mnar_gap_bias must be in [0, 1]");
  }
  if (low_adherence_fraction < 0.0 || low_adherence_fraction > 1.0) {
    return Status::InvalidArgument("low_adherence_fraction must be in [0,1]");
  }
  if (activity_missing_day_prob < 0.0 || activity_missing_day_prob >= 1.0) {
    return Status::InvalidArgument(
        "activity_missing_day_prob must be in [0,1)");
  }
  return Status::Ok();
}

CohortSimulator::CohortSimulator(CohortConfig config)
    : config_(std::move(config)) {}

Result<Cohort> CohortSimulator::Generate() const {
  MYSAWH_RETURN_NOT_OK(config_.Validate());
  Cohort cohort;
  cohort.config = config_;
  cohort.questions = ProQuestionBank::Standard();
  Rng master(config_.seed);
  int64_t patient_id = 0;
  for (size_t c = 0; c < config_.clinics.size(); ++c) {
    for (int p = 0; p < config_.clinics[c].num_patients; ++p, ++patient_id) {
      Rng patient_rng = master.Fork();
      cohort.patients.push_back(GeneratePatient(
          patient_id, static_cast<int>(c), cohort.questions, &patient_rng));
    }
  }
  return cohort;
}

PatientData CohortSimulator::GeneratePatient(int64_t patient_id,
                                             int clinic_index,
                                             const ProQuestionBank& bank,
                                             Rng* rng) const {
  const ClinicSpec& clinic = config_.clinics[static_cast<size_t>(clinic_index)];
  const OutcomeModelParams& om = config_.outcome;
  PatientData patient;
  patient.patient_id = patient_id;
  patient.clinic = clinic_index;

  // 1. Hidden frailty.
  patient.frailty = rng->Beta(2.2, 3.5);

  // 2. Domain capacity trajectories.
  const int months = config_.num_months;
  patient.domain_by_month.resize(static_cast<size_t>(months));
  std::array<double, kNumDomains> offsets{};
  for (auto& o : offsets) o = rng->Normal(0.0, 0.18);
  for (int d = 0; d < kNumDomains; ++d) {
    double level = Clamp01(0.92 - 0.58 * patient.frailty +
                           offsets[static_cast<size_t>(d)]);
    const double drift = rng->Normal(-0.004, 0.003);
    for (int m = 0; m < months; ++m) {
      patient.domain_by_month[static_cast<size_t>(m)][static_cast<size_t>(d)] =
          level;
      level = Clamp01(level + drift + rng->Normal(0.0, 0.02));
    }
  }
  // 2b. Transient illness episodes: dips of every domain, baked directly
  // into the monthly latents so PRO answers, activity, deficits and
  // outcomes all see them consistently.
  const int64_t num_episodes = rng->Poisson(config_.episodes_per_patient);
  for (int64_t e = 0; e < num_episodes; ++e) {
    IllnessEpisode episode;
    episode.start_month = static_cast<int>(rng->UniformInt(0, months - 1));
    episode.length =
        static_cast<int>(rng->UniformInt(1, config_.episode_max_months));
    episode.depth =
        rng->Uniform(config_.episode_depth_lo, config_.episode_depth_hi);
    for (int m = episode.start_month;
         m < std::min(months, episode.start_month + episode.length); ++m) {
      for (int d = 0; d < kNumDomains; ++d) {
        auto& level =
            patient.domain_by_month[static_cast<size_t>(m)][static_cast<size_t>(d)];
        level = Clamp01(level - episode.depth);
      }
    }
    patient.episodes.push_back(episode);
  }

  auto domain_at_month = [&](int m, IcDomain d) {
    return patient
        .domain_by_month[static_cast<size_t>(m)][static_cast<size_t>(d)];
  };
  // Linear interpolation of a domain latent at a fractional month position.
  auto domain_at = [&](double month_pos, IcDomain d) {
    const double clamped =
        std::min(static_cast<double>(months - 1), std::max(0.0, month_pos));
    const int lo = static_cast<int>(clamped);
    const int hi = std::min(lo + 1, months - 1);
    const double t = clamped - lo;
    return (1.0 - t) * domain_at_month(lo, d) + t * domain_at_month(hi, d);
  };

  // 3. Weekly PRO answers.
  const int num_weeks = months * config_.weeks_per_month;
  const bool low_adherence = rng->Bernoulli(config_.low_adherence_fraction);
  // Idiosyncratic protocol deviation (see ClinicSpec).
  const double patient_shift =
      rng->Bernoulli(clinic.protocol_outlier_fraction)
          ? rng->Normal(0.0, clinic.protocol_outlier_sd)
          : 0.0;
  patient.pro_weekly.reserve(static_cast<size_t>(bank.size()));
  for (int64_t q = 0; q < bank.size(); ++q) {
    const ProQuestion& question = bank.question(q);
    std::vector<double> answers(static_cast<size_t>(num_weeks), kNaN);
    for (int w = 0; w < num_weeks; ++w) {
      const double month_pos =
          static_cast<double>(w) / config_.weeks_per_month;
      const double latent =
          Clamp01(domain_at(month_pos, question.domain) +
                  rng->Normal(0.0, 0.04));
      double score = ApplyShape(question, latent);
      if (question.reversed) score = 1.0 - score;
      score += clinic.answer_shift + patient_shift +
               rng->Normal(0.0, question.noise_sd * clinic.noise_scale);
      const double raw = 1.0 + Clamp01(score) * (question.levels - 1);
      answers[static_cast<size_t>(w)] = std::min(
          static_cast<double>(question.levels),
          std::max(1.0, std::round(raw)));
    }
    patient.pro_weekly.emplace_back(std::move(answers));
  }
  // 7a. Missingness: gap runs per series.
  const double gap_rate =
      config_.gaps_per_series *
      (low_adherence ? config_.low_adherence_gap_multiplier : 1.0);
  for (auto& series : patient.pro_weekly) {
    const int64_t num_gaps = rng->Poisson(gap_rate);
    for (int64_t g = 0; g < num_gaps; ++g) {
      int64_t length = 1 + rng->Poisson(config_.mean_gap_length - 1.0);
      length = std::min<int64_t>(length, config_.max_gap_length);
      int64_t start;
      if (!patient.episodes.empty() &&
          rng->Bernoulli(config_.mnar_gap_bias)) {
        // Missing-not-at-random: anchor the gap inside an illness episode.
        const auto& episode = patient.episodes[static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(patient.episodes.size()) -
                                   1))];
        const int64_t first_week =
            static_cast<int64_t>(episode.start_month) *
            config_.weeks_per_month;
        const int64_t last_week =
            std::min(series.size() - 1,
                     first_week + static_cast<int64_t>(episode.length) *
                                      config_.weeks_per_month -
                         1);
        start = rng->UniformInt(first_week, last_week);
      } else {
        start = rng->UniformInt(0, series.size() - 1);
      }
      const int64_t end = std::min(series.size(), start + length);
      // Keep injected runs from merging into runs longer than the cap
      // (the paper's QA reports a max observed gap of 17): skip placements
      // that would touch an existing missing entry.
      bool touches = false;
      for (int64_t i = std::max<int64_t>(0, start - 1);
           i < std::min(series.size(), end + 1); ++i) {
        if (series.IsMissing(i)) {
          touches = true;
          break;
        }
      }
      if (touches) continue;
      for (int64_t i = start; i < end; ++i) series.set(i, kNaN);
    }
  }

  // 4. Daily activity traces.
  const int num_days = months * config_.days_per_month;
  std::vector<double> steps(static_cast<size_t>(num_days), kNaN);
  std::vector<double> calories(static_cast<size_t>(num_days), kNaN);
  std::vector<double> sleep(static_cast<size_t>(num_days), kNaN);
  for (int day = 0; day < num_days; ++day) {
    const double month_pos =
        static_cast<double>(day) / config_.days_per_month;
    const double loco = domain_at(month_pos, IcDomain::kLocomotion);
    const double vitality = domain_at(month_pos, IcDomain::kVitality);
    const double psych = domain_at(month_pos, IcDomain::kPsychological);
    if (rng->Bernoulli(config_.activity_missing_day_prob)) continue;
    const double steps_mean = 1500.0 + 9000.0 * std::pow(loco, 1.3) *
                                           (1.0 - 0.25 * patient.frailty);
    const double day_steps =
        std::max(0.0, steps_mean * std::exp(rng->Normal(0.0, 0.30)));
    steps[static_cast<size_t>(day)] = std::round(day_steps);
    calories[static_cast<size_t>(day)] =
        std::round(1250.0 + 0.42 * day_steps + 420.0 * vitality +
                   rng->Normal(0.0, 120.0));
    sleep[static_cast<size_t>(day)] = std::min(
        11.0, std::max(3.0, 4.3 + 1.8 * psych + 1.2 * vitality +
                                rng->Normal(0.0, 0.7)));
  }
  patient.steps_daily = TimeSeries(std::move(steps));
  patient.calories_daily = TimeSeries(std::move(calories));
  patient.sleep_daily = TimeSeries(std::move(sleep));

  // 5. Clinical deficits at visits (window starts plus the final visit).
  const int num_windows = config_.NumWindows();
  const int num_visits = num_windows + 1;  // months 0, 9, ..., num_months
  patient.deficits_at_visit.resize(static_cast<size_t>(num_visits));
  for (int v = 0; v < num_visits; ++v) {
    const int month = std::min(v * 9, months - 1);
    double mean_capacity = 0.0;
    for (int d = 0; d < kNumDomains; ++d) {
      mean_capacity += domain_at_month(month, static_cast<IcDomain>(d));
    }
    mean_capacity /= kNumDomains;
    auto& deficits = patient.deficits_at_visit[static_cast<size_t>(v)];
    deficits.resize(static_cast<size_t>(config_.num_clinical_deficits));
    for (int i = 0; i < config_.num_clinical_deficits; ++i) {
      // Per-deficit base rates spread deterministically.
      const double bias =
          -0.6 + 1.2 * static_cast<double>(i) /
                     static_cast<double>(config_.num_clinical_deficits - 1);
      const double p = Sigmoid(-1.9 + 3.6 * patient.frailty +
                               1.1 * (1.0 - mean_capacity) + bias);
      deficits[static_cast<size_t>(i)] = rng->Bernoulli(p) ? 1.0 : 0.0;
    }
  }

  // 6. Outcomes at the end of each window.
  patient.outcomes.resize(static_cast<size_t>(num_windows));
  for (int w = 0; w < num_windows; ++w) {
    const int end_month = (w + 1) * 9 - 1;
    const int begin_month = w * 9;
    std::array<double, kNumDomains> window_mean{};
    for (int d = 0; d < kNumDomains; ++d) {
      double acc = 0.0;
      for (int m = begin_month; m <= end_month; ++m) {
        acc += domain_at_month(m, static_cast<IcDomain>(d));
      }
      window_mean[static_cast<size_t>(d)] = acc / 9.0;
    }
    const double capacity =
        (window_mean[0] + window_mean[1] + window_mean[2] + window_mean[3] +
         window_mean[4]) /
        kNumDomains;
    const double loco_end = domain_at_month(end_month, IcDomain::kLocomotion);
    const double vit_end = domain_at_month(end_month, IcDomain::kVitality);
    const double psych_end =
        domain_at_month(end_month, IcDomain::kPsychological);

    VisitOutcomes outcome;
    double qol = om.qol_intercept + om.qol_capacity * capacity +
                 om.qol_vitality * vit_end + om.qol_frailty * patient.frailty +
                 rng->Normal(0.0, om.qol_noise_sd);
    if (psych_end < om.qol_stress_cutoff) qol -= om.qol_stress_penalty;
    outcome.qol = Clamp01(qol);

    const double sppb_raw =
        om.sppb_scale *
        Clamp01(om.sppb_intercept + om.sppb_locomotion * loco_end +
                om.sppb_vitality * vit_end + om.sppb_frailty * patient.frailty +
                rng->Normal(0.0, om.sppb_noise_sd));
    outcome.sppb = static_cast<int>(
        std::min(12.0, std::max(0.0, std::round(sppb_raw))));

    // Fall risk keys on the window's persistent capacity level (window
    // means), so the risk is in principle visible from any month's sample.
    const double loco_window = window_mean[static_cast<size_t>(
        static_cast<int>(IcDomain::kLocomotion))];
    const double sens_window = window_mean[static_cast<size_t>(
        static_cast<int>(IcDomain::kSensory))];
    const double loco_deficit =
        std::max(0.0, om.falls_loco_cutoff - loco_window) /
        om.falls_loco_cutoff;
    const double sensory_deficit =
        std::max(0.0, om.falls_sensory_cutoff - sens_window) /
        om.falls_sensory_cutoff;
    const double falls_logit =
        om.falls_intercept +
        om.falls_interaction * loco_deficit *
            (1.0 - om.falls_sensory_share +
             om.falls_sensory_share * sensory_deficit) +
        om.falls_frailty * patient.frailty +
        rng->Normal(0.0, om.falls_noise_sd);
    outcome.falls = rng->Bernoulli(Sigmoid(falls_logit));
    patient.outcomes[static_cast<size_t>(w)] = outcome;
  }
  return patient;
}

}  // namespace mysawh::cohort
