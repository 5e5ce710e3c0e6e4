#include "service/visualizer.h"

#include <gtest/gtest.h>

#include "core/deadline_generator.h"
#include "core/goal_generator.h"
#include "requirements/expr_goal.h"
#include "tests/test_util.h"

namespace coursenav {
namespace {

using testing_util::Figure3Fixture;
using testing_util::GoalPaths;

TEST(VisualizerTest, RenderPathsShowsTermsAndCourses) {
  Figure3Fixture fix;
  ExplorationOptions options;
  auto goal = ExprGoal::CompleteAll({"11A", "29A", "21A"}, fix.catalog);
  ASSERT_TRUE(goal.ok());
  auto result = GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                        fix.FreshStudent(),
                                        Term(Season::kFall, 2012), **goal,
                                        options);
  ASSERT_TRUE(result.ok());
  std::string rendered = RenderPaths(GoalPaths(result->graph), fix.catalog);
  EXPECT_NE(rendered.find("Path 1"), std::string::npos);
  EXPECT_NE(rendered.find("Fall 2011"), std::string::npos);
  EXPECT_NE(rendered.find("11A, 29A"), std::string::npos);
  EXPECT_NE(rendered.find("21A"), std::string::npos);
}

TEST(VisualizerTest, RenderPathsLimitsAndCounts) {
  Figure3Fixture fix;
  LearningPath path(fix.fall11, fix.catalog.NewCourseSet());
  std::vector<LearningPath> many(7, path);
  std::string rendered = RenderPaths(many, fix.catalog, /*limit=*/3);
  EXPECT_NE(rendered.find("Path 3"), std::string::npos);
  EXPECT_EQ(rendered.find("Path 4"), std::string::npos);
  EXPECT_NE(rendered.find("and 4 more paths"), std::string::npos);
}

TEST(VisualizerTest, RenderPathsShowsSkips) {
  Figure3Fixture fix;
  LearningPath path(fix.fall11, fix.catalog.NewCourseSet());
  path.AppendStep(fix.fall11, fix.catalog.NewCourseSet());
  std::string rendered = RenderPaths({path}, fix.catalog);
  EXPECT_NE(rendered.find("(skip)"), std::string::npos);
}

TEST(VisualizerTest, GraphSummaryReportsCountsAndPruning) {
  Figure3Fixture fix;
  ExplorationOptions options;
  auto goal = ExprGoal::CompleteAll({"11A", "29A", "21A"}, fix.catalog);
  ASSERT_TRUE(goal.ok());
  auto result = GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                        fix.FreshStudent(),
                                        Term(Season::kFall, 2012), **goal,
                                        options);
  ASSERT_TRUE(result.ok());
  std::string summary = RenderGraphSummary(result->graph, result->stats);
  EXPECT_NE(summary.find("Learning graph:"), std::string::npos);
  EXPECT_NE(summary.find("Pruned subtrees:"), std::string::npos);
  EXPECT_NE(summary.find("Runtime:"), std::string::npos);
}

TEST(VisualizerTest, RenderStatusShowsCompletedAndOptions) {
  Figure3Fixture fix;
  ExplorationOptions options;
  auto result = GenerateDeadlineDrivenPaths(
      fix.catalog, fix.schedule, fix.FreshStudent(), fix.spring13, options);
  ASSERT_TRUE(result.ok());
  std::string rendered =
      RenderStatus(result->graph, result->graph.root(), fix.catalog,
                   fix.schedule, options.avoid_courses);
  EXPECT_NE(rendered.find("Fall 2011"), std::string::npos);
  EXPECT_NE(rendered.find("completed {}"), std::string::npos);
  EXPECT_NE(rendered.find("options {11A, 29A}"), std::string::npos);
  // The options are derived, so an avoided course drops out of them.
  EXPECT_NE(RenderStatus(result->graph, result->graph.root(), fix.catalog,
                         fix.schedule, *fix.catalog.CourseSetFromCodes({"29A"}))
                .find("options {11A}"),
            std::string::npos);
}

TEST(StatsTest, ToStringIncludesEverything) {
  ExplorationStats stats;
  stats.nodes_created = 10;
  stats.pruned_time = 4;
  stats.pruned_availability = 2;
  std::string text = stats.ToString();
  EXPECT_NE(text.find("nodes=10"), std::string::npos);
  EXPECT_NE(text.find("pruned_time=4"), std::string::npos);
  EXPECT_EQ(stats.TotalPruned(), 6);
}

}  // namespace
}  // namespace coursenav
