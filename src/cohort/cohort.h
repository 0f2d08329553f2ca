#ifndef MYSAWH_COHORT_COHORT_H_
#define MYSAWH_COHORT_COHORT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cohort/pro_questions.h"
#include "series/time_series.h"
#include "util/status.h"

namespace mysawh::cohort {

/// One recruiting clinic and its protocol idiosyncrasies. The paper's three
/// clinics differ in cohort size, protocol and population homogeneity; the
/// simulator reproduces this through a systematic answer shift and a noise
/// multiplier (Hong Kong: small n, noisier measurements — the source of the
/// Fig 5 outliers).
struct ClinicSpec {
  std::string name;
  int num_patients = 0;
  double answer_shift = 0.0;  ///< Additive shift on PRO scores (pre-quantization).
  double noise_scale = 1.0;   ///< Multiplier on observation noise.
  /// Fraction of the clinic's patients whose answers carry an additional
  /// idiosyncratic shift (protocol deviations, language/translation issues,
  /// atypical device use). A pooled model mispredicts these patients,
  /// producing the per-clinic MAE outliers the paper observes for Hong
  /// Kong in Fig 5.
  double protocol_outlier_fraction = 0.0;
  /// Standard deviation of that idiosyncratic shift.
  double protocol_outlier_sd = 0.0;
};

/// Coefficients of the latent outcome model. Outcomes are functions of the
/// hidden IC-domain capacities and the patient frailty latent — NOT of the
/// observed answers — so features are noisy views of the signal, as in a
/// real cohort. Defaults are calibrated so the generated dataset matches
/// the paper's Fig 1 outcome distributions and Fig 4 performance regime.
struct OutcomeModelParams {
  // Quality of Life (EQ-VAS-like, [0, 1]).
  double qol_intercept = 0.30;
  double qol_capacity = 0.62;       ///< Weight of overall mean capacity.
  double qol_vitality = 0.16;       ///< Extra weight of vitality at window end.
  double qol_frailty = -0.24;       ///< Direct frailty penalty.
  double qol_stress_penalty = 0.07; ///< Threshold penalty (Fig 7 effect).
  double qol_stress_cutoff = 0.7778;///< Penalty when psych capacity < this.
  double qol_noise_sd = 0.030;

  // SPPB (integer 0..12, skewed toward 10-12 like Fig 1b).
  double sppb_intercept = 0.34;
  double sppb_locomotion = 0.78;
  double sppb_vitality = 0.10;
  double sppb_frailty = -0.22;
  double sppb_noise_sd = 0.035;
  double sppb_scale = 12.6;

  // Falls (binary, ~12% positive like Fig 1c). The hazard is an
  // *interaction*: risk spikes only when locomotion is low AND (sensory
  // capacity is low or frailty is high). A GBT over the raw per-domain
  // answers isolates that subgroup; the scalar ICI averages the domains
  // together, so the mixed low-ICI bin stays below the decision threshold
  // — reproducing the paper's near-zero KD minority recall that recovers
  // sharply once FI is added.
  double falls_intercept = -5.0;
  double falls_loco_cutoff = 0.50;     ///< Hinge point of locomotion risk.
  double falls_sensory_cutoff = 0.55;  ///< Hinge point of sensory risk.
  double falls_interaction = 9.0;      ///< Weight of hinge(loco)*mix term.
  double falls_sensory_share = 0.65;   ///< Sensory share inside the mix.
  double falls_frailty = 4.2;
  double falls_noise_sd = 0.15;
};

/// Full simulator configuration.
struct CohortConfig {
  uint64_t seed = 42;
  std::vector<ClinicSpec> clinics = {
      {"Modena", 128, 0.0, 1.0, 0.02, 0.10},
      {"Sydney", 100, 0.03, 1.1, 0.02, 0.10},
      {"HongKong", 33, -0.02, 1.8, 0.25, 0.20},
  };
  int num_months = 18;       ///< Study horizon; two 9-month windows.
  int weeks_per_month = 4;   ///< PRO prompting cadence.
  int days_per_month = 30;   ///< Activity-tracker cadence.
  int num_clinical_deficits = 37;  ///< FI variables per the paper.

  // Transient illness episodes: short dips of all capacity domains.
  // Episodes matter twice: they move the outcomes (through the latents),
  // and they attract missingness (patients answer less when unwell), which
  // makes aggressive gap interpolation fabricate too-healthy training data
  // — the effect behind the paper's max-gap QA experiment.
  double episodes_per_patient = 1.5;   ///< Expected episode count (Poisson).
  int episode_max_months = 2;          ///< Episode length: 1..this.
  double episode_depth_lo = 0.10;      ///< Capacity drop, uniform in
  double episode_depth_hi = 0.24;      ///< [lo, hi].

  // Missingness of the PRO series (calibrated against the paper's QA
  // numbers: mean gap length ~5, max 17, ~108 gaps/patient across items).
  double gaps_per_series = 2.0;   ///< Expected gap count per question series.
  double mean_gap_length = 5.0;   ///< Expected gap length (truncated).
  int max_gap_length = 17;        ///< Hard cap on injected gap length.
  double low_adherence_fraction = 0.15;  ///< Patients who rarely answer.
  double low_adherence_gap_multiplier = 5.0;
  double activity_missing_day_prob = 0.10;
  /// Probability that an injected gap is anchored inside an illness
  /// episode rather than placed uniformly (missing-not-at-random).
  double mnar_gap_bias = 0.6;

  OutcomeModelParams outcome;

  /// Range checks.
  Status Validate() const;

  /// Number of 9-month windows (num_months / 9).
  int NumWindows() const { return num_months / 9; }
};

/// Outcomes assessed at one clinical visit (end of a window).
struct VisitOutcomes {
  double qol = 0.0;  ///< EQ-VAS-like score in [0, 1].
  int sppb = 0;      ///< Short Physical Performance Battery, 0..12.
  bool falls = false;///< Fell at least once during the window.
};

/// A transient illness episode: all capacity domains dip by `depth` during
/// months [start_month, start_month + length).
struct IllnessEpisode {
  int start_month = 0;
  int length = 1;
  double depth = 0.0;
};

/// Everything generated for one patient. Latent fields (frailty, domain
/// trajectories) are the hidden ground truth — exposed for tests and
/// diagnostics, never fed to the learners.
struct PatientData {
  int64_t patient_id = 0;
  int clinic = 0;  ///< Index into CohortConfig::clinics.

  double frailty = 0.0;  ///< Hidden frailty latent in [0, 1].
  /// domain_by_month[m][d]: latent capacity of domain d during month m
  /// (illness episodes already applied).
  std::vector<std::array<double, kNumDomains>> domain_by_month;
  /// Transient illness episodes (ground truth, drives MNAR missingness).
  std::vector<IllnessEpisode> episodes;

  /// One weekly series per PRO question (num_months * weeks_per_month
  /// entries, ordinal answers 1..levels; NaN = unanswered prompt).
  std::vector<TimeSeries> pro_weekly;

  /// Daily wearable traces (num_months * days_per_month entries).
  TimeSeries steps_daily;
  TimeSeries calories_daily;
  TimeSeries sleep_daily;

  /// Raw 0/1 clinical deficits per visit: indexed [visit][deficit], visits
  /// at months 0, 9, ..., one per window start, plus the final visit.
  std::vector<std::vector<double>> deficits_at_visit;

  /// Outcomes at the end of each window (visit months 9 and 18).
  std::vector<VisitOutcomes> outcomes;
};

/// A generated cohort.
struct Cohort {
  CohortConfig config;
  ProQuestionBank questions;
  std::vector<PatientData> patients;
};

}  // namespace mysawh::cohort

#endif  // MYSAWH_COHORT_COHORT_H_
