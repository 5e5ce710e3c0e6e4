#include "core/goal_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "core/deadline_generator.h"
#include "data/synthetic.h"
#include "requirements/expr_goal.h"
#include "tests/test_util.h"

namespace coursenav {
namespace {

using testing_util::AllLeafPaths;
using testing_util::ContainsPath;
using testing_util::Figure3Fixture;
using testing_util::GoalPaths;

std::shared_ptr<const Goal> AllThreeCoursesGoal(const Figure3Fixture& fix) {
  auto goal = ExprGoal::CompleteAll({"11A", "29A", "21A"}, fix.catalog);
  EXPECT_TRUE(goal.ok());
  return *goal;
}

TEST(GoalGeneratorTest, ReproducesPaperSection423Example) {
  // Goal: take all of {11A, 21A, 29A} by Fall'12. The paper's walkthrough
  // prunes n4 (availability) and leaves exactly one learning path
  // n1 -> n3 -> n6: take {11A, 29A} then {21A}.
  Figure3Fixture fix;
  Term fall12(Season::kFall, 2012);
  ExplorationOptions options;
  auto goal = AllThreeCoursesGoal(fix);

  auto result = GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                        fix.FreshStudent(), fall12, *goal,
                                        options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->termination.ok());
  EXPECT_EQ(result->stats.goal_paths, 1);
  EXPECT_EQ(result->stats.terminal_paths, 1);
  EXPECT_GT(result->stats.pruned_availability, 0);

  std::vector<LearningPath> paths = GoalPaths(result->graph);
  ASSERT_EQ(paths.size(), 1u);
  const LearningPath& path = paths[0];
  ASSERT_EQ(path.Length(), 2);
  EXPECT_EQ(path.steps()[0].selection.ToIndices(),
            (std::vector<int>{fix.c11a, fix.c29a}));
  EXPECT_EQ(path.steps()[1].selection.ToIndices(),
            std::vector<int>{fix.c21a});
}

TEST(GoalGeneratorTest, GoalNodesStopExpanding) {
  // Goal: just 11A. Paths end the moment 11A is completed, even though
  // more semesters remain.
  Figure3Fixture fix;
  ExplorationOptions options;
  auto goal = ExprGoal::CompleteAll({"11A"}, fix.catalog);
  ASSERT_TRUE(goal.ok());
  auto result = GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                        fix.FreshStudent(), fix.spring13,
                                        **goal, options);
  ASSERT_TRUE(result.ok());
  for (const LearningPath& path : GoalPaths(result->graph)) {
    // 11A must be in the final step's selection (goal reached exactly then).
    ASSERT_FALSE(path.steps().empty());
    EXPECT_TRUE(path.steps().back().selection.test(fix.c11a));
  }
  EXPECT_GT(result->stats.goal_paths, 0);
}

TEST(GoalGeneratorTest, UnreachableGoalYieldsNoGoalPaths) {
  Figure3Fixture fix;
  ExplorationOptions options;
  // 21A requires 11A but the goal forbids... simply demand an impossible
  // timeline: everything by Spring'12 (21A needs 11A first, and 21A only
  // runs Spring'12 while 11A first runs Fall'11 — possible; so instead
  // demand completion by Fall'11 + 1 = Spring'12 with goal including 21A
  // and 29A and 11A in 1 semester with m=2).
  ExplorationOptions tight;
  tight.max_courses_per_term = 2;
  auto goal = AllThreeCoursesGoal(fix);
  auto result = GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                        fix.FreshStudent(),
                                        fix.fall11 + 1, *goal, tight);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.goal_paths, 0);
  EXPECT_GT(result->stats.TotalPruned(), 0);
}

TEST(GoalGeneratorTest, PruningPreservesGoalPaths) {
  // Lemma 1 + §4.2.2: the goal-path set is identical with and without
  // pruning, on the Figure 3 scenario.
  Figure3Fixture fix;
  ExplorationOptions options;
  auto goal = AllThreeCoursesGoal(fix);

  GoalDrivenConfig no_pruning;
  no_pruning.enable_time_pruning = false;
  no_pruning.enable_availability_pruning = false;

  auto pruned = GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                        fix.FreshStudent(), fix.spring13,
                                        *goal, options, GoalDrivenConfig{});
  auto unpruned = GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                          fix.FreshStudent(), fix.spring13,
                                          *goal, options, no_pruning);
  ASSERT_TRUE(pruned.ok());
  ASSERT_TRUE(unpruned.ok());

  std::vector<LearningPath> pruned_paths = GoalPaths(pruned->graph);
  std::vector<LearningPath> unpruned_paths = GoalPaths(unpruned->graph);
  EXPECT_EQ(pruned_paths.size(), unpruned_paths.size());
  for (const LearningPath& path : unpruned_paths) {
    EXPECT_TRUE(ContainsPath(pruned_paths, path));
  }
  // Pruning reduces the generated graph.
  EXPECT_LE(pruned->graph.num_nodes(), unpruned->graph.num_nodes());
}

TEST(GoalGeneratorTest, GoalPathsAreSubsetOfDeadlinePaths) {
  // Every goal path must be a (possibly truncated) deadline-driven path:
  // validate against the catalog and check the goal holds at its end.
  Figure3Fixture fix;
  ExplorationOptions options;
  auto goal = AllThreeCoursesGoal(fix);
  auto result = GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                        fix.FreshStudent(), fix.spring13,
                                        *goal, options);
  ASSERT_TRUE(result.ok());
  for (const LearningPath& path : GoalPaths(result->graph)) {
    EXPECT_TRUE(path.Validate(fix.catalog, fix.schedule).ok());
    EXPECT_TRUE(goal->IsSatisfied(path.FinalCompleted()));
  }
}

TEST(GoalGeneratorTest, TimePruningCountsMinSelectionSkips) {
  // With a goal of all three courses by Fall'12 and m=3, Equation 1 forces
  // a minimum selection size at the root (3 courses needed, 1 later
  // semester of capacity 3 — min_1 = 0; tighten with m=2: left=3,
  // remaining capacity 2 -> must take >= 1 now). Verify the stats counters
  // move when pruning is enabled.
  Figure3Fixture fix;
  ExplorationOptions options;
  options.max_courses_per_term = 2;
  auto goal = AllThreeCoursesGoal(fix);
  auto result = GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                        fix.FreshStudent(), fix.fall11 + 2,
                                        *goal, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.TotalPruned(), 0);
}

/// Property sweep over random catalogs: pruned and unpruned goal-path sets
/// coincide, and goal paths are valid.
struct SoundnessCase {
  uint64_t seed;
  int num_courses;
  int span;
};

void PrintTo(const SoundnessCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_courses" << c.num_courses << "_span" << c.span;
}

class PruningSoundnessTest : public ::testing::TestWithParam<SoundnessCase> {
};

TEST_P(PruningSoundnessTest, PrunedEqualsUnprunedGoalSet) {
  const SoundnessCase& param = GetParam();
  data::SyntheticConfig config;
  config.num_courses = param.num_courses;
  config.num_intro_courses = 3;
  config.seed = param.seed;
  config.offering_probability = 0.5;
  auto bundle = data::BuildSyntheticCatalog(config);
  ASSERT_TRUE(bundle.ok());

  // Goal: complete the three intro courses plus one layer-1 course.
  std::vector<std::string> goal_codes;
  for (int i = 0; i < 4; ++i) {
    goal_codes.push_back(bundle->catalog.course(i).code);
  }
  auto goal = ExprGoal::CompleteAll(goal_codes, bundle->catalog);
  ASSERT_TRUE(goal.ok());

  ExplorationOptions options;
  options.max_courses_per_term = 2;
  EnrollmentStatus start{config.first_term, bundle->catalog.NewCourseSet()};
  Term end = config.first_term + param.span;

  GoalDrivenConfig no_pruning;
  no_pruning.enable_time_pruning = false;
  no_pruning.enable_availability_pruning = false;

  auto pruned = GenerateGoalDrivenPaths(bundle->catalog, bundle->schedule,
                                        start, end, **goal, options);
  auto unpruned = GenerateGoalDrivenPaths(bundle->catalog, bundle->schedule,
                                          start, end, **goal, options,
                                          no_pruning);
  ASSERT_TRUE(pruned.ok());
  ASSERT_TRUE(unpruned.ok());
  ASSERT_TRUE(pruned->termination.ok());
  ASSERT_TRUE(unpruned->termination.ok());

  std::vector<LearningPath> pruned_paths = GoalPaths(pruned->graph);
  std::vector<LearningPath> unpruned_paths = GoalPaths(unpruned->graph);
  ASSERT_EQ(pruned_paths.size(), unpruned_paths.size())
      << "seed=" << param.seed;
  for (const LearningPath& path : unpruned_paths) {
    EXPECT_TRUE(ContainsPath(pruned_paths, path)) << "seed=" << param.seed;
  }
  for (const LearningPath& path : pruned_paths) {
    EXPECT_TRUE(path.Validate(bundle->catalog, bundle->schedule).ok());
    EXPECT_TRUE((*goal)->IsSatisfied(path.FinalCompleted()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomCatalogs, PruningSoundnessTest,
    ::testing::Values(SoundnessCase{1, 10, 4}, SoundnessCase{2, 10, 4},
                      SoundnessCase{3, 12, 3}, SoundnessCase{4, 12, 4},
                      SoundnessCase{5, 8, 5}, SoundnessCase{6, 14, 3},
                      SoundnessCase{7, 10, 4}, SoundnessCase{8, 16, 3}));

}  // namespace
}  // namespace coursenav
