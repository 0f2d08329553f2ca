#include "cohort/pro_questions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace mysawh::cohort {
namespace {

TEST(ProQuestionBankTest, Has56Questions) {
  const ProQuestionBank bank = ProQuestionBank::Standard();
  EXPECT_EQ(bank.size(), 56);
}

TEST(ProQuestionBankTest, DomainCoverage) {
  const ProQuestionBank bank = ProQuestionBank::Standard();
  EXPECT_EQ(bank.DomainQuestions(IcDomain::kLocomotion).size(), 12u);
  EXPECT_EQ(bank.DomainQuestions(IcDomain::kCognition).size(), 11u);
  EXPECT_EQ(bank.DomainQuestions(IcDomain::kPsychological).size(), 11u);
  EXPECT_EQ(bank.DomainQuestions(IcDomain::kVitality).size(), 11u);
  EXPECT_EQ(bank.DomainQuestions(IcDomain::kSensory).size(), 11u);
}

TEST(ProQuestionBankTest, NamesAreUnique) {
  const ProQuestionBank bank = ProQuestionBank::Standard();
  const auto names = bank.Names();
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
}

TEST(ProQuestionBankTest, ScalesAreOrdinalRanges) {
  const ProQuestionBank bank = ProQuestionBank::Standard();
  for (const auto& q : bank.questions()) {
    EXPECT_GE(q.levels, 4) << q.name;
    EXPECT_LE(q.levels, 11) << q.name;
    EXPECT_GT(q.noise_sd, 0.0);
  }
}

TEST(ProQuestionBankTest, StressQuestionConfiguredForFig7) {
  const ProQuestionBank bank = ProQuestionBank::Standard();
  const auto it = std::find_if(
      bank.questions().begin(), bank.questions().end(),
      [](const ProQuestion& q) { return q.name == kStressQuestionName; });
  ASSERT_NE(it, bank.questions().end());
  const ProQuestion& q = *it;
  EXPECT_EQ(q.domain, IcDomain::kPsychological);
  EXPECT_EQ(q.levels, 10);
  EXPECT_TRUE(q.reversed);
  EXPECT_EQ(q.shape, QuestionShape::kLinear);
}

TEST(ProQuestionBankTest, DeterministicAcrossCalls) {
  const ProQuestionBank a = ProQuestionBank::Standard();
  const ProQuestionBank b = ProQuestionBank::Standard();
  ASSERT_EQ(a.size(), b.size());
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.question(i).name, b.question(i).name);
    EXPECT_EQ(a.question(i).levels, b.question(i).levels);
    EXPECT_EQ(a.question(i).reversed, b.question(i).reversed);
  }
}

TEST(ProQuestionBankTest, DomainNames) {
  EXPECT_STREQ(IcDomainName(IcDomain::kLocomotion), "locomotion");
  EXPECT_STREQ(IcDomainName(IcDomain::kSensory), "sensory");
}

}  // namespace
}  // namespace mysawh::cohort
