// End-to-end pipeline tests over the full system (Figure 2): registrar
// JSON -> Prerequisite/Schedule Parser -> Learning Path Generator ->
// Visualizer back ends, plus cross-algorithm consistency on the bundled
// evaluation dataset.

#include <gtest/gtest.h>

#include "core/counting.h"
#include "core/filters.h"
#include "data/brandeis_cs.h"
#include "graph/analytics.h"
#include "graph/export.h"
#include "parsers/catalog_loader.h"
#include "requirements/expr_goal.h"
#include "service/navigator.h"
#include "service/visualizer.h"
#include "tests/test_util.h"

namespace coursenav {
namespace {

using testing_util::GoalPaths;

constexpr const char* kRegistrarJson = R"({
  "courses": [
    {"code": "CS1", "title": "Intro", "workload": 7,
     "prerequisites": "Prerequisite: none.",
     "offered": ["Fall 2014", "Spring 2015", "Fall 2015"]},
    {"code": "MATH1", "title": "Discrete Math", "workload": 8,
     "offered": ["Fall 2014", "Spring 2015", "Fall 2015"]},
    {"code": "CS2", "title": "Data Structures", "workload": 9,
     "prerequisites": "Prerequisite: CS 1 or permission of the instructor.",
     "offered": ["Spring 2015", "Fall 2015"]},
    {"code": "CS3", "title": "Algorithms", "workload": 10,
     "prerequisites": "CS 2, MATH 1",
     "offered": ["Fall 2015"]}
  ]
})";

TEST(IntegrationTest, RegistrarJsonToRankedPathsToExports) {
  // Back end: parse the registrar bundle.
  auto bundle = LoadCatalogFromJson(kRegistrarJson);
  ASSERT_TRUE(bundle.ok());
  CourseNavigator navigator(&bundle->catalog, &bundle->schedule);

  // Front end: a fresh student wants CS3 by Spring 2016.
  auto goal = ExprGoal::CompleteAll({"CS3"}, bundle->catalog);
  ASSERT_TRUE(goal.ok());
  ExplorationRequest request;
  request.start = {Term(Season::kFall, 2014), bundle->catalog.NewCourseSet()};
  request.end_term = Term(Season::kSpring, 2016);
  request.type = TaskType::kRanked;
  request.goal = *goal;
  request.ranking = std::make_shared<TimeRanking>();
  request.top_k = 5;
  request.options.max_courses_per_term = 2;

  auto response = navigator.Explore(request);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE((*response)->ranked.has_value());
  ASSERT_FALSE((*response)->ranked->paths.empty());

  // The shortest plan: CS1+MATH1, then CS2, then CS3 — 3 semesters.
  const LearningPath& best = (*response)->ranked->paths[0];
  EXPECT_EQ(best.Length(), 3);
  EXPECT_TRUE(best.Validate(bundle->catalog, bundle->schedule).ok());
  EXPECT_TRUE((*goal)->IsSatisfied(best.FinalCompleted()));

  // Visualizer back ends accept the result.
  JsonValue json = LearningPathsToJson((*response)->ranked->paths,
                                       bundle->catalog);
  auto reparsed = JsonValue::Parse(json.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->array().size(), (*response)->ranked->paths.size());
  std::string text = RenderPaths((*response)->ranked->paths, bundle->catalog);
  EXPECT_NE(text.find("CS3"), std::string::npos);
}

TEST(IntegrationTest, GeneratorsAgreeOnBrandeisSmallSpan) {
  // Cross-algorithm consistency on the evaluation dataset: materialized
  // goal-path count == DAG count == ranked full enumeration; deadline
  // count >= goal count.
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  CourseNavigator navigator(&dataset.catalog, &dataset.schedule);
  EnrollmentStatus start{data::StartTermForSpan(4),
                         dataset.catalog.NewCourseSet()};
  Term end = data::EvaluationEndTerm();
  ExplorationOptions options;

  auto goal_run = navigator.ExploreGoal(start, end, *dataset.cs_major,
                                        options);
  ASSERT_TRUE(goal_run.ok());
  ASSERT_TRUE((*goal_run)->termination.ok());

  auto counted = navigator.CountGoal(start, end, *dataset.cs_major, options);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->goal_paths,
            static_cast<uint64_t>((*goal_run)->stats.goal_paths));
  EXPECT_EQ(counted->total_paths,
            static_cast<uint64_t>((*goal_run)->stats.terminal_paths));

  TimeRanking ranking;
  auto ranked = navigator.ExploreTopK(
      start, end, *dataset.cs_major, ranking,
      static_cast<int>((*goal_run)->stats.goal_paths) + 10, options);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(static_cast<int64_t>((*ranked)->paths.size()),
            (*goal_run)->stats.goal_paths);

  auto deadline_count = navigator.CountDeadline(start, end, options);
  ASSERT_TRUE(deadline_count.ok());
  EXPECT_GE(deadline_count->total_paths, counted->total_paths);
}

TEST(IntegrationTest, FiltersComposeWithRankedOutput) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  CourseNavigator navigator(&dataset.catalog, &dataset.schedule);
  EnrollmentStatus start{data::StartTermForSpan(5),
                         dataset.catalog.NewCourseSet()};
  ExplorationOptions options;
  TimeRanking ranking;
  auto ranked = navigator.ExploreTopK(start, data::EvaluationEndTerm(),
                                      *dataset.cs_major, ranking, 50,
                                      options);
  ASSERT_TRUE(ranked.ok());
  ASSERT_FALSE((*ranked)->paths.empty());

  MaxTermWorkloadFilter light_terms(&dataset.catalog, 27.0);
  std::vector<LearningPath> kept = FilterPaths((*ranked)->paths, light_terms);
  EXPECT_LE(kept.size(), (*ranked)->paths.size());
  for (const LearningPath& path : kept) {
    EXPECT_TRUE(light_terms.Keep(path));
  }
}

TEST(IntegrationTest, AnalyticsMatchesCountsOnGoalGraph) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  CourseNavigator navigator(&dataset.catalog, &dataset.schedule);
  EnrollmentStatus start{data::StartTermForSpan(4),
                         dataset.catalog.NewCourseSet()};
  ExplorationOptions options;
  auto run = navigator.ExploreGoal(start, data::EvaluationEndTerm(),
                                   *dataset.cs_major, options);
  ASSERT_TRUE(run.ok());
  GraphAnalytics analytics =
      AnalyzeLearningGraph((*run)->graph, dataset.catalog);
  EXPECT_EQ(analytics.goal_path_count,
            static_cast<uint64_t>((*run)->stats.goal_paths));
  // Every core course is on every goal path (all 7 are mandatory).
  for (const std::string& code : dataset.core_codes) {
    CourseId id = *dataset.catalog.FindByCode(code);
    EXPECT_DOUBLE_EQ(analytics.CriticalityOf(id), 1.0) << code;
  }
  // Cross-check one elective's count by brute force.
  CourseId elective = *dataset.catalog.FindByCode("COSI2A");
  uint64_t brute = 0;
  for (const LearningPath& path : GoalPaths((*run)->graph)) {
    if (path.FinalCompleted().test(elective)) ++brute;
  }
  EXPECT_EQ(analytics.course_path_counts[static_cast<size_t>(elective)],
            brute);
}

}  // namespace
}  // namespace coursenav
