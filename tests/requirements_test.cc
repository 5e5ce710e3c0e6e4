#include "requirements/degree_requirement.h"

#include <gtest/gtest.h>

#include "expr/parser.h"
#include "requirements/expr_goal.h"
#include "requirements/goal.h"
#include "util/string_util.h"

namespace coursenav {
namespace {

/// A 10-course catalog: C0..C4 "core-ish", C5..C9 "elective-ish".
class RequirementsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 10; ++i) {
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

  std::vector<std::string> Codes(std::initializer_list<int> ids) {
    std::vector<std::string> out;
    for (int id : ids) out.push_back(StrFormat("C%d", id));
    return out;
  }

  Catalog catalog_;
};

TEST_F(RequirementsTest, DisjointGroupsSatisfaction) {
  auto req = DegreeRequirement::Builder(&catalog_)
                 .AddGroup("core", Codes({0, 1, 2}), 2)
                 .AddGroup("elective", Codes({5, 6, 7, 8}), 2)
                 .Build();
  ASSERT_TRUE(req.ok());
  EXPECT_EQ((*req)->TotalSlots(), 4);
  EXPECT_FALSE((*req)->IsSatisfied(Bits({})));
  EXPECT_FALSE((*req)->IsSatisfied(Bits({0, 1, 5})));
  EXPECT_TRUE((*req)->IsSatisfied(Bits({0, 1, 5, 6})));
  // Extra courses beyond the requirement don't hurt.
  EXPECT_TRUE((*req)->IsSatisfied(Bits({0, 1, 2, 5, 6, 7, 9})));
}

TEST_F(RequirementsTest, MinCoursesRemainingCountsSlots) {
  auto req = DegreeRequirement::Builder(&catalog_)
                 .AddGroup("core", Codes({0, 1, 2}), 2)
                 .AddGroup("elective", Codes({5, 6, 7, 8}), 2)
                 .Build();
  ASSERT_TRUE(req.ok());
  EXPECT_EQ((*req)->MinCoursesRemaining(Bits({})), 4);
  EXPECT_EQ((*req)->MinCoursesRemaining(Bits({0})), 3);
  EXPECT_EQ((*req)->MinCoursesRemaining(Bits({0, 1, 2})), 2);  // core capped
  EXPECT_EQ((*req)->MinCoursesRemaining(Bits({0, 1, 5, 6})), 0);
  // Irrelevant courses contribute nothing.
  EXPECT_EQ((*req)->MinCoursesRemaining(Bits({3, 4, 9})), 4);
}

TEST_F(RequirementsTest, OverlappingGroupsUseFlowAllocation) {
  // C2 belongs to both groups but may credit only one.
  auto req = DegreeRequirement::Builder(&catalog_)
                 .AddGroup("a", Codes({0, 1, 2}), 2)
                 .AddGroup("b", Codes({2, 3, 4}), 2)
                 .Build();
  ASSERT_TRUE(req.ok());
  // {0, 2, 3}: 0->a, 2 can go to either, 3->b: credited 3 of 4 slots.
  EXPECT_EQ((*req)->CreditedSlots(Bits({0, 2, 3})), 3);
  EXPECT_FALSE((*req)->IsSatisfied(Bits({0, 2, 3})));
  EXPECT_TRUE((*req)->IsSatisfied(Bits({0, 1, 2, 3})));
  // {1, 2} with group a full would waste 2 on a; flow routes 2 to b.
  EXPECT_EQ((*req)->CreditedSlots(Bits({0, 1, 2, 4})), 4);
  EXPECT_TRUE((*req)->IsSatisfied(Bits({0, 1, 2, 4})));
}

TEST_F(RequirementsTest, FordFulkersonAndDinicAgree) {
  for (FlowAlgorithm algo :
       {FlowAlgorithm::kFordFulkerson, FlowAlgorithm::kDinic}) {
    auto req = DegreeRequirement::Builder(&catalog_)
                   .AddGroup("a", Codes({0, 1, 2, 3}), 3)
                   .AddGroup("b", Codes({2, 3, 4, 5}), 2)
                   .Build(algo);
    ASSERT_TRUE(req.ok());
    EXPECT_EQ((*req)->CreditedSlots(Bits({0, 2, 3, 4})), 4);
    EXPECT_EQ((*req)->MinCoursesRemaining(Bits({0, 2, 3, 4})), 1);
  }
}

TEST_F(RequirementsTest, BuilderValidation) {
  EXPECT_TRUE(DegreeRequirement::Builder(&catalog_)
                  .Build()
                  .status()
                  .IsInvalidArgument());  // no groups
  EXPECT_TRUE(DegreeRequirement::Builder(&catalog_)
                  .AddGroup("g", Codes({0}), 0)
                  .Build()
                  .status()
                  .IsInvalidArgument());  // zero count
  EXPECT_TRUE(DegreeRequirement::Builder(&catalog_)
                  .AddGroup("g", Codes({0, 1}), 3)
                  .Build()
                  .status()
                  .IsInvalidArgument());  // count > group size
  EXPECT_TRUE(DegreeRequirement::Builder(&catalog_)
                  .AddGroup("g", {"NOPE"}, 1)
                  .Build()
                  .status()
                  .IsInvalidArgument());  // unknown course
}

TEST_F(RequirementsTest, AchievableWith) {
  auto req = DegreeRequirement::Builder(&catalog_)
                 .AddGroup("core", Codes({0, 1, 2}), 3)
                 .Build();
  ASSERT_TRUE(req.ok());
  EXPECT_TRUE((*req)->AchievableWith(Bits({0}), Bits({1, 2})));
  EXPECT_FALSE((*req)->AchievableWith(Bits({0}), Bits({1})));
}

TEST_F(RequirementsTest, DegreeRequirementIsMonotone) {
  auto req = DegreeRequirement::Builder(&catalog_)
                 .AddGroup("core", Codes({0, 1}), 1)
                 .Build();
  ASSERT_TRUE(req.ok());
  EXPECT_TRUE((*req)->IsMonotone());
}

TEST_F(RequirementsTest, DescribeMentionsGroups) {
  auto req = DegreeRequirement::Builder(&catalog_)
                 .AddGroup("core", Codes({0, 1, 2}), 2)
                 .Build();
  ASSERT_TRUE(req.ok());
  EXPECT_NE((*req)->Describe().find("2 of 3 core"), std::string::npos);
}

// ------------------------------------------------------------- ExprGoal

TEST_F(RequirementsTest, ExprGoalSatisfaction) {
  auto goal = ExprGoal::Create(*expr::ParseBoolExpr("C0 and (C1 or C2)"),
                               catalog_);
  ASSERT_TRUE(goal.ok());
  EXPECT_FALSE((*goal)->IsSatisfied(Bits({0})));
  EXPECT_TRUE((*goal)->IsSatisfied(Bits({0, 2})));
  EXPECT_EQ((*goal)->MinCoursesRemaining(Bits({})), 2);
  EXPECT_EQ((*goal)->MinCoursesRemaining(Bits({1})), 1);
  EXPECT_TRUE((*goal)->AchievableWith(Bits({}), Bits({0, 1})));
  EXPECT_FALSE((*goal)->AchievableWith(Bits({}), Bits({1, 2})));
}

TEST_F(RequirementsTest, ExprGoalCompleteAll) {
  auto goal = ExprGoal::CompleteAll(Codes({0, 5, 9}), catalog_);
  ASSERT_TRUE(goal.ok());
  EXPECT_TRUE((*goal)->IsSatisfied(Bits({0, 5, 9})));
  EXPECT_FALSE((*goal)->IsSatisfied(Bits({0, 5})));
  EXPECT_EQ((*goal)->MinCoursesRemaining(Bits({0})), 2);
  EXPECT_TRUE((*goal)->IsMonotone());
}

TEST_F(RequirementsTest, ExprGoalWithNegationNotMonotone) {
  auto goal = ExprGoal::Create(*expr::ParseBoolExpr("C0 and not C1"),
                               catalog_);
  ASSERT_TRUE(goal.ok());
  EXPECT_FALSE((*goal)->IsMonotone());
  EXPECT_TRUE((*goal)->IsSatisfied(Bits({0})));
  EXPECT_FALSE((*goal)->IsSatisfied(Bits({0, 1})));
  EXPECT_EQ((*goal)->MinCoursesRemaining(Bits({1})), kGoalUnreachable);
}

TEST_F(RequirementsTest, ExprGoalRejectsUnknownCourse) {
  auto goal = ExprGoal::Create(*expr::ParseBoolExpr("GHOST1"), catalog_);
  EXPECT_FALSE(goal.ok());
}

// -------------------------------------------------------- CompositeGoal

TEST_F(RequirementsTest, CompositeGoalCombines) {
  auto part1 = ExprGoal::CompleteAll(Codes({0, 1}), catalog_);
  auto part2 = ExprGoal::CompleteAll(Codes({1, 2}), catalog_);
  ASSERT_TRUE(part1.ok() && part2.ok());
  CompositeGoal both({*part1, *part2});
  EXPECT_FALSE(both.IsSatisfied(Bits({0, 1})));
  EXPECT_TRUE(both.IsSatisfied(Bits({0, 1, 2})));
  // Max of parts: part2 needs 2 from scratch.
  EXPECT_EQ(both.MinCoursesRemaining(Bits({})), 2);
  EXPECT_TRUE(both.IsMonotone());
  EXPECT_TRUE(both.AchievableWith(Bits({}), Bits({0, 1, 2})));
  EXPECT_FALSE(both.AchievableWith(Bits({}), Bits({0, 1})));
  EXPECT_NE(both.Describe().find("all of"), std::string::npos);
}


// ---------------------------------------------------------- DegreeAudit

TEST_F(RequirementsTest, AuditReportsPerGroupProgress) {
  auto req = DegreeRequirement::Builder(&catalog_)
                 .AddGroup("core", Codes({0, 1, 2}), 2)
                 .AddGroup("elective", Codes({5, 6, 7}), 2)
                 .Build();
  ASSERT_TRUE(req.ok());
  DegreeAudit audit = (*req)->Audit(Bits({0, 5}));
  ASSERT_EQ(audit.groups.size(), 2u);
  EXPECT_FALSE(audit.satisfied);
  EXPECT_EQ(audit.courses_missing, 2);
  EXPECT_EQ(audit.groups[0].credited_count(), 1);
  EXPECT_EQ(audit.groups[0].missing_count(), 1);
  EXPECT_TRUE(audit.groups[0].credited.test(0));
  // Candidates exclude completed courses.
  EXPECT_FALSE(audit.groups[1].remaining_candidates.test(5));
  EXPECT_TRUE(audit.groups[1].remaining_candidates.test(6));
}

TEST_F(RequirementsTest, AuditAllocatesOverlapOptimally) {
  // C2 in both groups; completed {0, 1, 2, 4}: the only full allocation
  // credits 2 to group b.
  auto req = DegreeRequirement::Builder(&catalog_)
                 .AddGroup("a", Codes({0, 1, 2}), 2)
                 .AddGroup("b", Codes({2, 3, 4}), 2)
                 .Build();
  ASSERT_TRUE(req.ok());
  DegreeAudit audit = (*req)->Audit(Bits({0, 1, 2, 4}));
  EXPECT_TRUE(audit.satisfied);
  EXPECT_EQ(audit.courses_missing, 0);
  // C2 must be credited to b (a is full with 0 and 1).
  EXPECT_TRUE(audit.groups[1].credited.test(2));
  EXPECT_FALSE(audit.groups[0].credited.test(2));
}

TEST_F(RequirementsTest, AuditSatisfiedRendering) {
  auto req = DegreeRequirement::Builder(&catalog_)
                 .AddGroup("core", Codes({0, 1}), 1)
                 .Build();
  ASSERT_TRUE(req.ok());
  DegreeAudit done = (*req)->Audit(Bits({0}));
  EXPECT_TRUE(done.satisfied);
  std::string text = done.ToString(catalog_);
  EXPECT_NE(text.find("core: 1/1"), std::string::npos);
  EXPECT_NE(text.find("requirement satisfied"), std::string::npos);
  DegreeAudit missing = (*req)->Audit(Bits({}));
  EXPECT_NE(missing.ToString(catalog_).find("still needed"),
            std::string::npos);
}

}  // namespace
}  // namespace coursenav
