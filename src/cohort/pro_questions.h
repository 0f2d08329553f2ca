#ifndef MYSAWH_COHORT_PRO_QUESTIONS_H_
#define MYSAWH_COHORT_PRO_QUESTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace mysawh::cohort {

/// The five WHO Intrinsic Capacity domains.
enum class IcDomain {
  kLocomotion = 0,
  kCognition = 1,
  kPsychological = 2,
  kVitality = 3,
  kSensory = 4,
};
inline constexpr int kNumDomains = 5;

/// Canonical lowercase domain name ("locomotion", ...).
const char* IcDomainName(IcDomain domain);

/// How a question's underlying construct maps the latent capacity to the
/// pre-quantization score. Shapes other than linear inject the
/// nonlinearities that make threshold-sum indices (ICI) lossy relative to a
/// learner that sees the raw answers.
enum class QuestionShape {
  kLinear,      ///< score = latent
  kSaturating,  ///< score = sqrt(latent): sensitive at the low end
  kThreshold,   ///< logistic step around a per-question midpoint
};

/// Metadata of one PRO questionnaire item.
struct ProQuestion {
  std::string name;       ///< e.g. "pro_locomotion_03".
  IcDomain domain = IcDomain::kLocomotion;
  int levels = 5;         ///< Ordinal answers 1..levels.
  bool reversed = false;  ///< true: higher answer = worse capacity.
  QuestionShape shape = QuestionShape::kLinear;
  double shape_midpoint = 0.5;  ///< Threshold shape midpoint.
  double noise_sd = 0.08;      ///< Observation noise on the latent score.
};

/// The fixed bank of 56 PRO questions used by the simulator, mirroring the
/// MySAwH app's 56 monthly questions: 12 locomotion + 11 each for the other
/// four domains. The bank is deterministic (no RNG) so feature names are
/// stable across runs.
///
/// One designated item, `kStressQuestionName` (a 1..10 psychological-domain
/// "stress level" question, reversed), reproduces the paper's Fig 7: the
/// KD experts cut it at 3, and the DD pipeline's SHAP dependence curve
/// recovers a threshold near 3 automatically.
class ProQuestionBank {
 public:
  /// Builds the standard 56-question bank.
  static ProQuestionBank Standard();

  int64_t size() const { return static_cast<int64_t>(questions_.size()); }
  const ProQuestion& question(int64_t i) const {
    return questions_[static_cast<size_t>(i)];
  }
  const std::vector<ProQuestion>& questions() const { return questions_; }

  /// Indices of all questions of one domain.
  std::vector<int> DomainQuestions(IcDomain domain) const;

  /// All 56 question names, in bank order.
  std::vector<std::string> Names() const;

 private:
  std::vector<ProQuestion> questions_;
};

/// Name of the designated Fig 7 stress question.
inline constexpr const char* kStressQuestionName = "pro_psychological_stress";

}  // namespace mysawh::cohort

#endif  // MYSAWH_COHORT_PRO_QUESTIONS_H_
