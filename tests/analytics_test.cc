#include "graph/analytics.h"

#include <gtest/gtest.h>

#include "core/deadline_generator.h"
#include "core/goal_generator.h"
#include "requirements/expr_goal.h"
#include "tests/test_util.h"

namespace coursenav {
namespace {

using testing_util::Figure3Fixture;

TEST(AnalyticsTest, EmptyGraph) {
  Figure3Fixture fix;
  LearningGraph graph;
  GraphAnalytics analytics = AnalyzeLearningGraph(graph, fix.catalog);
  EXPECT_EQ(analytics.goal_path_count, 0u);
}

TEST(AnalyticsTest, HandBuiltGraphCounts) {
  Figure3Fixture fix;
  auto bits = [&](std::initializer_list<int> ids) {
    DynamicBitset b(fix.catalog.size());
    for (int id : ids) b.set(id);
    return b;
  };
  // root -> {11A} -> goal ; root -> {29A} -> (non-goal leaf)
  LearningGraph graph;
  NodeId root = graph.AddRoot(fix.fall11, bits({}));
  NodeId a = graph.AddChild(root, bits({0}), bits({0}));
  graph.AddChild(root, bits({1}), bits({1}));
  graph.MarkGoal(a);

  GraphAnalytics analytics = AnalyzeLearningGraph(graph, fix.catalog);
  EXPECT_EQ(analytics.goal_path_count, 1u);
  EXPECT_EQ(analytics.course_path_counts[0], 1u);  // 11A on the goal path
  EXPECT_EQ(analytics.course_path_counts[1], 0u);  // 29A only on dead path
  EXPECT_EQ(analytics.length_histogram.at(1), 1u);
  EXPECT_DOUBLE_EQ(analytics.average_load_by_term.at(fix.fall11.index()),
                   1.0);
  EXPECT_DOUBLE_EQ(analytics.CriticalityOf(0), 1.0);
  EXPECT_DOUBLE_EQ(analytics.CriticalityOf(1), 0.0);
}

TEST(AnalyticsTest, Figure3GoalGraph) {
  Figure3Fixture fix;
  ExplorationOptions options;
  auto goal = ExprGoal::CompleteAll({"11A", "29A", "21A"}, fix.catalog);
  ASSERT_TRUE(goal.ok());
  auto result = GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                        fix.FreshStudent(), fix.spring13,
                                        **goal, options);
  ASSERT_TRUE(result.ok());
  GraphAnalytics analytics =
      AnalyzeLearningGraph(result->graph, fix.catalog);
  EXPECT_EQ(analytics.goal_path_count,
            static_cast<uint64_t>(result->stats.goal_paths));
  // Every goal path must take all three courses.
  for (int c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(analytics.CriticalityOf(c), 1.0) << c;
  }
  // Criticality ordering is well-defined and complete.
  EXPECT_EQ(analytics.CoursesByCriticality().size(), 3u);
  // Histogram sums to the goal-path count.
  uint64_t histogram_total = 0;
  for (const auto& [length, count] : analytics.length_histogram) {
    histogram_total += count;
  }
  EXPECT_EQ(histogram_total, analytics.goal_path_count);
}

TEST(AnalyticsTest, ReportMentionsCourses) {
  Figure3Fixture fix;
  ExplorationOptions options;
  auto goal = ExprGoal::CompleteAll({"11A"}, fix.catalog);
  ASSERT_TRUE(goal.ok());
  auto result = GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                        fix.FreshStudent(), fix.spring13,
                                        **goal, options);
  ASSERT_TRUE(result.ok());
  GraphAnalytics analytics =
      AnalyzeLearningGraph(result->graph, fix.catalog);
  std::string report = analytics.ToString(fix.catalog);
  EXPECT_NE(report.find("goal paths:"), std::string::npos);
  EXPECT_NE(report.find("11A"), std::string::npos);
}


TEST(ExtractGoalSubgraphTest, StripsDeadBranches) {
  Figure3Fixture fix;
  ExplorationOptions options;
  auto result = GenerateDeadlineDrivenPaths(
      fix.catalog, fix.schedule, fix.FreshStudent(), fix.spring13, options);
  ASSERT_TRUE(result.ok());
  // Figure 3: nine nodes, one dead-end branch (n3 -> n6).
  LearningGraph trimmed = ExtractGoalSubgraph(result->graph);
  EXPECT_EQ(trimmed.num_nodes(), 7);  // 9 minus the n3/n6 dead branch
  EXPECT_EQ(trimmed.GoalNodes().size(), 2u);
  // Every leaf of the trimmed graph is a goal node.
  for (NodeId leaf : trimmed.LeafNodes()) {
    EXPECT_TRUE(trimmed.node(leaf).is_goal);
  }
  // Paths survive intact and valid.
  for (NodeId leaf : trimmed.GoalNodes()) {
    LearningPath path = LearningPath::FromGraph(trimmed, leaf);
    EXPECT_TRUE(path.Validate(fix.catalog, fix.schedule).ok());
  }
}

TEST(ExtractGoalSubgraphTest, GoalAnalyticsUnchanged) {
  Figure3Fixture fix;
  ExplorationOptions options;
  auto goal = ExprGoal::CompleteAll({"11A", "29A"}, fix.catalog);
  ASSERT_TRUE(goal.ok());
  auto result = GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                        fix.FreshStudent(), fix.spring13,
                                        **goal, options);
  ASSERT_TRUE(result.ok());
  LearningGraph trimmed = ExtractGoalSubgraph(result->graph);
  GraphAnalytics before = AnalyzeLearningGraph(result->graph, fix.catalog);
  GraphAnalytics after = AnalyzeLearningGraph(trimmed, fix.catalog);
  EXPECT_EQ(before.goal_path_count, after.goal_path_count);
  EXPECT_EQ(before.course_path_counts, after.course_path_counts);
  EXPECT_LE(trimmed.num_nodes(), result->graph.num_nodes());
}

TEST(ExtractGoalSubgraphTest, NoGoalsYieldsEmptyGraph) {
  Figure3Fixture fix;
  auto bits = [&](std::initializer_list<int> ids) {
    DynamicBitset b(fix.catalog.size());
    for (int id : ids) b.set(id);
    return b;
  };
  LearningGraph graph;
  NodeId root = graph.AddRoot(fix.fall11, bits({}));
  graph.AddChild(root, bits({0}), bits({0}));
  LearningGraph trimmed = ExtractGoalSubgraph(graph);
  EXPECT_EQ(trimmed.num_nodes(), 0);
  EXPECT_EQ(ExtractGoalSubgraph(LearningGraph()).num_nodes(), 0);
}

}  // namespace
}  // namespace coursenav
