#include "core/engine.h"

#include <gtest/gtest.h>

#include <optional>

#include "catalog/catalog.h"
#include "core/enrollment.h"
#include "core/pruning.h"
#include "requirements/expr_goal.h"
#include "tests/test_util.h"

namespace coursenav {
namespace {

using testing_util::Figure3Fixture;

TEST(ExplorationEngineTest, AvailableFromIsSuffixUnion) {
  Figure3Fixture fix;
  ExplorationOptions options;
  internal::ExplorationEngine engine(fix.catalog, fix.schedule, options,
                                     fix.fall11, fix.spring13);
  // From Fall'11: everything runs somewhere in [F11, F12].
  EXPECT_EQ(engine.AvailableFrom(fix.fall11).count(), 3);
  // From Spring'12: 21A (S12) plus 11A/29A (F12).
  EXPECT_EQ(engine.AvailableFrom(fix.fall11 + 1).count(), 3);
  // From Fall'12: only 11A and 29A remain.
  EXPECT_EQ(engine.AvailableFrom(fix.fall11 + 2).ToIndices(),
            (std::vector<int>{fix.c11a, fix.c29a}));
  // At or beyond the end: empty.
  EXPECT_TRUE(engine.AvailableFrom(fix.spring13).empty());
  EXPECT_TRUE(engine.AvailableFrom(fix.spring13 + 3).empty());
}

TEST(ExplorationEngineTest, AvailableFromExcludesAvoided) {
  Figure3Fixture fix;
  ExplorationOptions options;
  DynamicBitset avoid = fix.catalog.NewCourseSet();
  avoid.set(fix.c29a);
  options.avoid_courses = avoid;
  internal::ExplorationEngine engine(fix.catalog, fix.schedule, options,
                                     fix.fall11, fix.spring13);
  EXPECT_FALSE(engine.AvailableFrom(fix.fall11).test(fix.c29a));
}

TEST(ExplorationEngineTest, FutureCourseExists) {
  Figure3Fixture fix;
  ExplorationOptions options;
  internal::ExplorationEngine engine(fix.catalog, fix.schedule, options,
                                     fix.fall11, fix.spring13);
  DynamicBitset none = fix.catalog.NewCourseSet();
  // From Fall'11 with nothing done: later semesters still offer courses.
  EXPECT_TRUE(engine.FutureCourseExists(none, fix.fall11));
  // From Fall'12 (the last enrollable semester): nothing later.
  EXPECT_FALSE(engine.FutureCourseExists(none, fix.fall11 + 2));
  // Everything completed: nothing left anywhere.
  DynamicBitset all = fix.catalog.NewCourseSet();
  all.set(fix.c11a);
  all.set(fix.c29a);
  all.set(fix.c21a);
  EXPECT_FALSE(engine.FutureCourseExists(all, fix.fall11));
}

TEST(ComputeOptionsTest, MatchesPaperDefinition) {
  Figure3Fixture fix;
  auto options = [&fix](const DynamicBitset& completed, Term term) {
    return ComputeOptions(fix.catalog, fix.schedule.OfferedIn(term), completed,
                          std::nullopt);
  };
  DynamicBitset none = fix.catalog.NewCourseSet();
  // Y1 = {11A, 29A}: offered Fall'11, no prerequisites.
  EXPECT_EQ(options(none, fix.fall11).ToIndices(),
            (std::vector<int>{fix.c11a, fix.c29a}));
  // Spring'12 with 11A done: 21A unlocks.
  DynamicBitset with_11a = fix.catalog.NewCourseSet();
  with_11a.set(fix.c11a);
  EXPECT_EQ(options(with_11a, fix.fall11 + 1).ToIndices(),
            std::vector<int>{fix.c21a});
  // Spring'12 with only 29A done: nothing (paper's n4).
  DynamicBitset with_29a = fix.catalog.NewCourseSet();
  with_29a.set(fix.c29a);
  EXPECT_TRUE(options(with_29a, fix.fall11 + 1).empty());
  // Completed courses are never options again.
  EXPECT_EQ(options(with_11a, fix.fall11).ToIndices(),
            std::vector<int>{fix.c29a});
  // Nor are avoided ones.
  DynamicBitset avoid = fix.catalog.NewCourseSet();
  avoid.set(fix.c29a);
  EXPECT_EQ(ComputeOptions(fix.catalog, fix.schedule.OfferedIn(fix.fall11),
                           none, avoid)
                .ToIndices(),
            std::vector<int>{fix.c11a});
}

TEST(PruningOracleTest, TimeVerdictMatchesEquationOne) {
  Figure3Fixture fix;
  ExplorationOptions options;
  options.max_courses_per_term = 1;
  Term end = fix.fall11 + 2;
  internal::ExplorationEngine engine(fix.catalog, fix.schedule, options,
                                     fix.fall11, end);
  auto goal = ExprGoal::CompleteAll({"11A", "29A"}, fix.catalog);
  ASSERT_TRUE(goal.ok());
  GoalDrivenConfig config;
  config.enable_availability_pruning = false;
  internal::PruningOracle oracle(**goal, engine, options, config);

  DynamicBitset none = fix.catalog.NewCourseSet();
  int left = oracle.LeftAt(none);
  EXPECT_EQ(left, 2);
  // Child after taking just 29A at Fall'11 (child at Spring'12, bound =
  // m*(end - child) = 1): left(child) = 1 <= 1 -> keep.
  DynamicBitset just29 = fix.catalog.NewCourseSet();
  just29.set(fix.c29a);
  EXPECT_EQ(oracle.ClassifyChild(just29, 1, fix.fall11 + 1, left),
            internal::PruningOracle::Verdict::kKeep);
  // Skip child (|W| = 0): left stays 2 > 1 -> time-pruned.
  EXPECT_EQ(oracle.ClassifyChild(none, 0, fix.fall11 + 1, left),
            internal::PruningOracle::Verdict::kPrunedTime);
  EXPECT_EQ(engine.tallies().pruned_time, 1);
  // Equation 1's minimum selection size at the root: left - m*(d-s-1) =
  // 2 - 1 = 1.
  EXPECT_EQ(oracle.MinSelectionSize(left, fix.fall11), 1);
}

TEST(PruningOracleTest, AvailabilityVerdict) {
  Figure3Fixture fix;
  ExplorationOptions options;
  Term end = fix.fall11 + 2;  // Fall'12 deadline, as in §4.2.3
  internal::ExplorationEngine engine(fix.catalog, fix.schedule, options,
                                     fix.fall11, end);
  auto goal = ExprGoal::CompleteAll({"11A", "29A", "21A"}, fix.catalog);
  ASSERT_TRUE(goal.ok());
  GoalDrivenConfig config;
  config.enable_time_pruning = false;
  internal::PruningOracle oracle(**goal, engine, options, config);

  // The paper's n4: only 29A completed entering Spring'12; even taking
  // everything offered afterwards misses 11A... actually 11A runs Fall'12,
  // but 21A (Spring'12-only) requires 11A first — the *set* union still
  // contains all three, so availability alone keeps it; the pruned case is
  // a child entering Fall'12 without 21A.
  DynamicBitset missing21 = fix.catalog.NewCourseSet();
  missing21.set(fix.c11a);
  missing21.set(fix.c29a);
  // Child at Fall'12 (last semester): 21A no longer offered -> pruned.
  // (This is not generated by the real run — n3 takes 21A in Spring — but
  // exercises the verdict directly.)
  DynamicBitset at_fall12 = missing21;
  EXPECT_EQ(oracle.ClassifyChild(at_fall12, 2, fix.fall11 + 2, -1),
            internal::PruningOracle::Verdict::kPrunedAvailability);
  EXPECT_EQ(engine.tallies().pruned_availability, 1);
  // Same child entering Spring'12 instead: 21A still ahead -> keep.
  EXPECT_EQ(oracle.ClassifyChild(missing21, 2, fix.fall11 + 1, -1),
            internal::PruningOracle::Verdict::kKeep);
}

TEST(PruningOracleTest, DisabledStrategiesKeepEverything) {
  Figure3Fixture fix;
  ExplorationOptions options;
  internal::ExplorationEngine engine(fix.catalog, fix.schedule, options,
                                     fix.fall11, fix.fall11 + 1);
  auto goal = ExprGoal::CompleteAll({"11A", "29A", "21A"}, fix.catalog);
  ASSERT_TRUE(goal.ok());
  GoalDrivenConfig config;
  config.enable_time_pruning = false;
  config.enable_availability_pruning = false;
  internal::PruningOracle oracle(**goal, engine, options, config);
  DynamicBitset none = fix.catalog.NewCourseSet();
  // Clearly hopeless child, but both strategies are off.
  EXPECT_EQ(oracle.ClassifyChild(none, 0, fix.fall11 + 1, -1),
            internal::PruningOracle::Verdict::kKeep);
  EXPECT_EQ(engine.StatsView().TotalPruned(), 0);
  EXPECT_EQ(oracle.LeftAt(none), -1);
  EXPECT_EQ(oracle.MinSelectionSize(-1, fix.fall11), 1);
}

}  // namespace
}  // namespace coursenav
