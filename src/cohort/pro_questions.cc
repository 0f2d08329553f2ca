#include "cohort/pro_questions.h"

namespace mysawh::cohort {

const char* IcDomainName(IcDomain domain) {
  switch (domain) {
    case IcDomain::kLocomotion:
      return "locomotion";
    case IcDomain::kCognition:
      return "cognition";
    case IcDomain::kPsychological:
      return "psychological";
    case IcDomain::kVitality:
      return "vitality";
    case IcDomain::kSensory:
      return "sensory";
  }
  return "unknown";
}

ProQuestionBank ProQuestionBank::Standard() {
  ProQuestionBank bank;
  // Deterministic pseudo-variation of scales/shapes across the bank,
  // cycling through plausible questionnaire designs.
  const int counts[kNumDomains] = {12, 11, 11, 11, 11};  // 56 total
  const int level_cycle[] = {5, 4, 7, 5, 10, 6, 5, 11, 4, 5, 8};
  const QuestionShape shape_cycle[] = {
      QuestionShape::kLinear,     QuestionShape::kSaturating,
      QuestionShape::kLinear,     QuestionShape::kThreshold,
      QuestionShape::kLinear,     QuestionShape::kSaturating,
      QuestionShape::kThreshold,  QuestionShape::kLinear,
  };
  int serial = 0;
  for (int d = 0; d < kNumDomains; ++d) {
    const auto domain = static_cast<IcDomain>(d);
    for (int q = 0; q < counts[d]; ++q, ++serial) {
      ProQuestion item;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "pro_%s_%02d", IcDomainName(domain),
                    q + 1);
      item.name = buf;
      item.domain = domain;
      item.levels = level_cycle[static_cast<size_t>(serial) %
                                (sizeof(level_cycle) / sizeof(int))];
      item.reversed = (serial % 3) == 2;  // about a third are reverse-coded
      item.shape = shape_cycle[static_cast<size_t>(serial) %
                               (sizeof(shape_cycle) / sizeof(QuestionShape))];
      item.shape_midpoint = 0.35 + 0.05 * static_cast<double>(serial % 7);
      item.noise_sd = 0.06 + 0.01 * static_cast<double>(serial % 5);
      bank.questions_.push_back(std::move(item));
    }
  }
  // The designated Fig 7 question: psychological stress on a 1..10 scale,
  // reverse-coded (high stress = low capacity), linear link so the KD cut
  // at 3 and the SHAP-recovered threshold are comparable.
  for (auto& q : bank.questions_) {
    if (q.domain == IcDomain::kPsychological && q.name.ends_with("_01")) {
      q.name = kStressQuestionName;
      q.levels = 10;
      q.reversed = true;
      q.shape = QuestionShape::kLinear;
      q.noise_sd = 0.05;
      break;
    }
  }
  return bank;
}

std::vector<int> ProQuestionBank::DomainQuestions(IcDomain domain) const {
  std::vector<int> out;
  for (size_t i = 0; i < questions_.size(); ++i) {
    if (questions_[i].domain == domain) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<std::string> ProQuestionBank::Names() const {
  std::vector<std::string> names;
  names.reserve(questions_.size());
  for (const auto& q : questions_) names.push_back(q.name);
  return names;
}

}  // namespace mysawh::cohort
