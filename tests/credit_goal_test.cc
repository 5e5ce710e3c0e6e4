#include "requirements/credit_goal.h"
#include "util/string_util.h"

#include <gtest/gtest.h>

namespace coursenav {
namespace {

class CreditGoalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 5; ++i) {
      Course c;
      c.code = StrFormat("C%d", i);
      ASSERT_TRUE(catalog_.AddCourse(std::move(c)).ok());
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
  }

  DynamicBitset Bits(std::initializer_list<int> ids) {
    DynamicBitset b(catalog_.size());
    for (int id : ids) b.set(id);
    return b;
  }

  DynamicBitset All() {
    DynamicBitset b(catalog_.size());
    for (int i = 0; i < catalog_.size(); ++i) b.set(i);
    return b;
  }

  Catalog catalog_;
};

TEST_F(CreditGoalTest, SatisfactionByCreditSum) {
  // Credits: 4, 4, 2, 2, 2; need 8 from any course.
  auto goal = CreditGoal::Create(catalog_, {4, 4, 2, 2, 2}, All(), 8);
  ASSERT_TRUE(goal.ok());
  EXPECT_FALSE((*goal)->IsSatisfied(Bits({0})));
  EXPECT_TRUE((*goal)->IsSatisfied(Bits({0, 1})));
  EXPECT_TRUE((*goal)->IsSatisfied(Bits({0, 2, 3})));
  EXPECT_FALSE((*goal)->IsSatisfied(Bits({2, 3, 4})));
  EXPECT_DOUBLE_EQ((*goal)->EarnedCredits(Bits({0, 2})), 6.0);
}

TEST_F(CreditGoalTest, EligibilityRestricts) {
  // Only C2..C4 count.
  auto goal = CreditGoal::Create(catalog_, {4, 4, 2, 2, 2}, Bits({2, 3, 4}),
                                 6);
  ASSERT_TRUE(goal.ok());
  EXPECT_FALSE((*goal)->IsSatisfied(Bits({0, 1})));  // 8 ineligible credits
  EXPECT_TRUE((*goal)->IsSatisfied(Bits({2, 3, 4})));
}

TEST_F(CreditGoalTest, MinCoursesRemainingIsGreedyExact) {
  auto goal = CreditGoal::Create(catalog_, {4, 4, 2, 2, 2}, All(), 8);
  ASSERT_TRUE(goal.ok());
  EXPECT_EQ((*goal)->MinCoursesRemaining(Bits({})), 2);    // 4 + 4
  EXPECT_EQ((*goal)->MinCoursesRemaining(Bits({0})), 1);   // + 4
  EXPECT_EQ((*goal)->MinCoursesRemaining(Bits({2})), 2);   // 2 + 4 + 4 > 8
  EXPECT_EQ((*goal)->MinCoursesRemaining(Bits({0, 1})), 0);
}

TEST_F(CreditGoalTest, MinCoursesUnreachableWhenSupplyExhausted) {
  auto goal = CreditGoal::Create(catalog_, {4, 4, 2, 2, 2},
                                 Bits({2, 3}), 4);
  ASSERT_TRUE(goal.ok());
  // 2 + 2 = 4 exactly; fine from scratch.
  EXPECT_EQ((*goal)->MinCoursesRemaining(Bits({})), 2);
  // But a goal over eligible {2,3} requiring 4 is dead if... it never is:
  // credits only accumulate, so with the full eligible set completed the
  // goal holds. Instead check the sentinel with an impossible leftover:
  // complete nothing, require more than remaining eligible supply can give
  // (construction rejects that), so kGoalUnreachable can only arise when
  // completed courses do not help and no eligible course remains — not
  // constructible here; assert monotonicity instead.
  EXPECT_TRUE((*goal)->IsMonotone());
}

TEST_F(CreditGoalTest, AchievableWith) {
  auto goal = CreditGoal::Create(catalog_, {4, 4, 2, 2, 2}, All(), 10);
  ASSERT_TRUE(goal.ok());
  EXPECT_TRUE((*goal)->AchievableWith(Bits({0}), Bits({1, 2})));   // 4+4+2
  EXPECT_FALSE((*goal)->AchievableWith(Bits({0}), Bits({2, 3})));  // 4+2+2
}

TEST_F(CreditGoalTest, UniformCredits) {
  auto goal = CreditGoal::UniformCredits(catalog_, 4.0, All(), 12);
  ASSERT_TRUE(goal.ok());
  EXPECT_EQ((*goal)->MinCoursesRemaining(Bits({})), 3);
  EXPECT_TRUE((*goal)->IsSatisfied(Bits({1, 2, 4})));
  EXPECT_NE((*goal)->Describe().find("12.0 credits"), std::string::npos);
}

TEST_F(CreditGoalTest, CreateValidation) {
  EXPECT_TRUE(CreditGoal::Create(catalog_, {1, 2}, All(), 2)
                  .status()
                  .IsInvalidArgument());  // wrong table size
  EXPECT_TRUE(CreditGoal::Create(catalog_, {1, 1, 1, 1, -1}, All(), 2)
                  .status()
                  .IsInvalidArgument());  // negative credits
  EXPECT_TRUE(CreditGoal::Create(catalog_, {1, 1, 1, 1, 1}, All(), 0)
                  .status()
                  .IsInvalidArgument());  // non-positive requirement
  EXPECT_TRUE(CreditGoal::Create(catalog_, {1, 1, 1, 1, 1}, All(), 6)
                  .status()
                  .IsInvalidArgument());  // exceeds supply
  EXPECT_TRUE(CreditGoal::Create(catalog_, {1, 1, 1, 1, 1},
                                 DynamicBitset(3), 2)
                  .status()
                  .IsInvalidArgument());  // foreign eligible set
}

}  // namespace
}  // namespace coursenav
