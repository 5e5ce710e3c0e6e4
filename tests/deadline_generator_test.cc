#include "core/deadline_generator.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "tests/test_util.h"

namespace coursenav {
namespace {

using testing_util::AllLeafPaths;
using testing_util::Figure3Fixture;

TEST(DeadlineGeneratorTest, ReproducesPaperFigure3) {
  Figure3Fixture fix;
  ExplorationOptions options;
  options.max_courses_per_term = 3;

  auto result = GenerateDeadlineDrivenPaths(
      fix.catalog, fix.schedule, fix.FreshStudent(), fix.spring13, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->termination.ok());

  // The paper's Figure 3 graph: nodes n1..n9, eight edges, three leaf
  // paths — two reaching the deadline (n8, n9) and one dead end (n6).
  EXPECT_EQ(result->graph.num_nodes(), 9);
  EXPECT_EQ(result->graph.num_edges(), 8);
  EXPECT_EQ(result->stats.terminal_paths, 3);
  EXPECT_EQ(result->stats.goal_paths, 2);
  EXPECT_EQ(result->stats.dead_end_paths, 1);

  // Every produced path is feasible.
  for (const LearningPath& path : AllLeafPaths(result->graph)) {
    EXPECT_TRUE(path.Validate(fix.catalog, fix.schedule).ok());
  }

  // The n1 -> n4 -> n7 -> n9 path (take 29A, skip Spring, take 11A) exists:
  // three steps with an empty Spring'12 selection.
  bool found_skip_path = false;
  for (const LearningPath& path : AllLeafPaths(result->graph)) {
    if (path.Length() == 3 && path.steps()[1].selection.empty() &&
        !path.steps()[0].selection.empty()) {
      found_skip_path = true;
    }
  }
  EXPECT_TRUE(found_skip_path);
}

TEST(DeadlineGeneratorTest, DeadEndWhenNothingRemains) {
  Figure3Fixture fix;
  ExplorationOptions options;
  auto result = GenerateDeadlineDrivenPaths(
      fix.catalog, fix.schedule, fix.FreshStudent(), fix.spring13, options);
  ASSERT_TRUE(result.ok());
  // The {11A, 29A} -> {21A} branch (n6) ends one semester early because
  // every course is completed.
  bool found_early_leaf = false;
  for (NodeId leaf : result->graph.LeafNodes()) {
    const LearningNode& node = result->graph.node(leaf);
    if (node.term < fix.spring13) {
      found_early_leaf = true;
      EXPECT_EQ(node.completed.count(), 3);
    }
  }
  EXPECT_TRUE(found_early_leaf);
}

TEST(DeadlineGeneratorTest, MaxCoursesPerTermLimitsSelections) {
  Figure3Fixture fix;
  ExplorationOptions options;
  options.max_courses_per_term = 1;
  auto result = GenerateDeadlineDrivenPaths(
      fix.catalog, fix.schedule, fix.FreshStudent(), fix.spring13, options);
  ASSERT_TRUE(result.ok());
  for (const LearningPath& path : AllLeafPaths(result->graph)) {
    for (const PathStep& step : path.steps()) {
      EXPECT_LE(step.selection.count(), 1);
    }
  }
  // With m=1 the {11A, 29A} double-selection vanishes, shrinking the graph.
  EXPECT_LT(result->graph.num_nodes(), 9);
}

TEST(DeadlineGeneratorTest, AvoidedCoursesNeverAppear) {
  Figure3Fixture fix;
  ExplorationOptions options;
  DynamicBitset avoid = fix.catalog.NewCourseSet();
  avoid.set(fix.c29a);
  options.avoid_courses = avoid;
  auto result = GenerateDeadlineDrivenPaths(
      fix.catalog, fix.schedule, fix.FreshStudent(), fix.spring13, options);
  ASSERT_TRUE(result.ok());
  for (const LearningPath& path : AllLeafPaths(result->graph)) {
    EXPECT_FALSE(path.FinalCompleted().test(fix.c29a));
  }
}

TEST(DeadlineGeneratorTest, VoluntarySkipAddsEmptyEdges) {
  Figure3Fixture fix;
  ExplorationOptions strict, lax;
  lax.allow_voluntary_skip = true;
  auto strict_result = GenerateDeadlineDrivenPaths(
      fix.catalog, fix.schedule, fix.FreshStudent(), fix.spring13, strict);
  auto lax_result = GenerateDeadlineDrivenPaths(
      fix.catalog, fix.schedule, fix.FreshStudent(), fix.spring13, lax);
  ASSERT_TRUE(strict_result.ok());
  ASSERT_TRUE(lax_result.ok());
  EXPECT_GT(lax_result->graph.num_nodes(), strict_result->graph.num_nodes());
  // With voluntary skips the fully-empty path (never enroll) exists.
  bool found_empty = false;
  for (const LearningPath& path : AllLeafPaths(lax_result->graph)) {
    if (path.FinalCompleted().empty()) found_empty = true;
  }
  EXPECT_TRUE(found_empty);
}

TEST(DeadlineGeneratorTest, InputValidation) {
  Figure3Fixture fix;
  ExplorationOptions options;
  EnrollmentStatus start = fix.FreshStudent();

  // End not after start.
  EXPECT_TRUE(GenerateDeadlineDrivenPaths(fix.catalog, fix.schedule, start,
                                          fix.fall11, options)
                  .status()
                  .IsInvalidArgument());
  // m < 1.
  ExplorationOptions bad_m;
  bad_m.max_courses_per_term = 0;
  EXPECT_TRUE(GenerateDeadlineDrivenPaths(fix.catalog, fix.schedule, start,
                                          fix.spring13, bad_m)
                  .status()
                  .IsInvalidArgument());
  // Foreign completed set.
  EnrollmentStatus foreign{fix.fall11, DynamicBitset(7)};
  EXPECT_TRUE(GenerateDeadlineDrivenPaths(fix.catalog, fix.schedule, foreign,
                                          fix.spring13, options)
                  .status()
                  .IsInvalidArgument());
  // Unfinalized catalog.
  Catalog raw;
  Course c;
  c.code = std::string("X");  // not a literal: GCC 12 -O3 -Wrestrict misfires
  ASSERT_TRUE(raw.AddCourse(std::move(c)).ok());
  OfferingSchedule empty_schedule(raw.size());
  EnrollmentStatus raw_start{fix.fall11, raw.NewCourseSet()};
  EXPECT_TRUE(GenerateDeadlineDrivenPaths(raw, empty_schedule, raw_start,
                                          fix.spring13, options)
                  .status()
                  .IsFailedPrecondition());
}

TEST(DeadlineGeneratorTest, NodeBudgetReturnsPartialGraph) {
  Figure3Fixture fix;
  ExplorationOptions options;
  options.limits.max_nodes = 4;
  auto result = GenerateDeadlineDrivenPaths(
      fix.catalog, fix.schedule, fix.FreshStudent(), fix.spring13, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->termination.IsResourceExhausted());
  EXPECT_LE(result->graph.num_nodes(), 5);
  EXPECT_GE(result->graph.num_nodes(), 1);
}

TEST(DeadlineGeneratorTest, StartWithCompletedCourses) {
  Figure3Fixture fix;
  ExplorationOptions options;
  DynamicBitset done = fix.catalog.NewCourseSet();
  done.set(fix.c11a);
  done.set(fix.c29a);
  EnrollmentStatus start{fix.fall11, done};
  auto result = GenerateDeadlineDrivenPaths(fix.catalog, fix.schedule, start,
                                            fix.spring13, options);
  ASSERT_TRUE(result.ok());
  // Nothing electable in Fall'11; skip to Spring'12 for 21A.
  for (const LearningPath& path : AllLeafPaths(result->graph)) {
    EXPECT_TRUE(path.steps().empty() || path.steps()[0].selection.empty());
    EXPECT_TRUE(path.Validate(fix.catalog, fix.schedule).ok());
  }
}

TEST(DeadlineGeneratorTest, SyntheticCatalogPathsAllValid) {
  data::SyntheticConfig config;
  config.num_courses = 12;
  config.num_intro_courses = 3;
  config.seed = 5;
  auto bundle = data::BuildSyntheticCatalog(config);
  ASSERT_TRUE(bundle.ok());
  ExplorationOptions options;
  options.max_courses_per_term = 2;
  EnrollmentStatus start{config.first_term, bundle->catalog.NewCourseSet()};
  auto result = GenerateDeadlineDrivenPaths(
      bundle->catalog, bundle->schedule, start, config.first_term + 3,
      options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->termination.ok());
  EXPECT_GT(result->stats.terminal_paths, 0);
  for (const LearningPath& path : AllLeafPaths(result->graph)) {
    EXPECT_TRUE(path.Validate(bundle->catalog, bundle->schedule).ok())
        << path.ToString(bundle->catalog);
  }
}

}  // namespace
}  // namespace coursenav
