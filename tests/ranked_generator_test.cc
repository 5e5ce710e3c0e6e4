#include "core/ranked_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>

#include "core/goal_generator.h"
#include "data/synthetic.h"
#include "requirements/expr_goal.h"
#include "tests/test_util.h"

namespace coursenav {
namespace {

using testing_util::ContainsPath;
using testing_util::Figure3Fixture;
using testing_util::GoalPaths;

std::shared_ptr<const Goal> AllThreeCoursesGoal(const Figure3Fixture& fix) {
  auto goal = ExprGoal::CompleteAll({"11A", "29A", "21A"}, fix.catalog);
  EXPECT_TRUE(goal.ok());
  return *goal;
}

TEST(RankedGeneratorTest, Top1ShortestMatchesPaperExample) {
  // §4.3.2's walkthrough: the single shortest path to all three courses
  // takes {11A, 29A} then {21A} — length 2.
  Figure3Fixture fix;
  ExplorationOptions options;
  auto goal = AllThreeCoursesGoal(fix);
  TimeRanking ranking;
  auto result = GenerateRankedPaths(fix.catalog, fix.schedule,
                                    fix.FreshStudent(), fix.spring13, *goal,
                                    ranking, /*k=*/1, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->termination.ok());
  ASSERT_EQ(result->paths.size(), 1u);
  EXPECT_EQ(result->paths[0].Length(), 2);
  EXPECT_DOUBLE_EQ(result->paths[0].cost(), 2.0);
  // Best-first stops early: far fewer nodes than the full goal graph.
  EXPECT_LT(result->stats.nodes_expanded, 20);
}

TEST(RankedGeneratorTest, CostsNonDecreasing) {
  Figure3Fixture fix;
  ExplorationOptions options;
  auto goal = AllThreeCoursesGoal(fix);
  TimeRanking ranking;
  auto result = GenerateRankedPaths(fix.catalog, fix.schedule,
                                    fix.FreshStudent(), fix.spring13, *goal,
                                    ranking, /*k=*/10, options);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->paths.size(); ++i) {
    EXPECT_LE(result->paths[i - 1].cost(), result->paths[i].cost());
  }
}

TEST(RankedGeneratorTest, KLargerThanGoalSpaceReturnsAll) {
  Figure3Fixture fix;
  ExplorationOptions options;
  auto goal = AllThreeCoursesGoal(fix);
  TimeRanking ranking;
  auto ranked = GenerateRankedPaths(fix.catalog, fix.schedule,
                                    fix.FreshStudent(), fix.spring13, *goal,
                                    ranking, /*k=*/1000, options);
  auto all = GenerateGoalDrivenPaths(fix.catalog, fix.schedule,
                                     fix.FreshStudent(), fix.spring13, *goal,
                                     options);
  ASSERT_TRUE(ranked.ok());
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(ranked->termination.ok());
  EXPECT_EQ(static_cast<int64_t>(ranked->paths.size()),
            all->stats.goal_paths);
}

TEST(RankedGeneratorTest, InputValidation) {
  Figure3Fixture fix;
  ExplorationOptions options;
  auto goal = AllThreeCoursesGoal(fix);
  TimeRanking ranking;
  EXPECT_TRUE(GenerateRankedPaths(fix.catalog, fix.schedule,
                                  fix.FreshStudent(), fix.spring13, *goal,
                                  ranking, /*k=*/0, options)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GenerateRankedPaths(fix.catalog, fix.schedule,
                                  fix.FreshStudent(), fix.fall11, *goal,
                                  ranking, /*k=*/1, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(RankedGeneratorTest, WorkloadRankingPrefersLightCourses) {
  // Two disjoint ways to satisfy "A or B"; A is lighter.
  Catalog catalog;
  Course a;
  a.code = "A";
  a.workload_hours = 2;
  Course b;
  b.code = "B";
  b.workload_hours = 9;
  ASSERT_TRUE(catalog.AddCourse(std::move(a)).ok());
  ASSERT_TRUE(catalog.AddCourse(std::move(b)).ok());
  ASSERT_TRUE(catalog.Finalize().ok());
  OfferingSchedule schedule(catalog.size());
  Term f12(Season::kFall, 2012);
  ASSERT_TRUE(schedule.AddOffering(0, f12).ok());
  ASSERT_TRUE(schedule.AddOffering(1, f12).ok());

  auto goal = ExprGoal::Create(*expr::ParseBoolExpr("A or B"), catalog);
  ASSERT_TRUE(goal.ok());
  ExplorationOptions options;
  options.max_courses_per_term = 1;
  WorkloadRanking ranking(&catalog);
  EnrollmentStatus start{f12, catalog.NewCourseSet()};
  auto result = GenerateRankedPaths(catalog, schedule, start, f12 + 1, **goal,
                                    ranking, /*k=*/2, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->paths.size(), 2u);
  EXPECT_TRUE(result->paths[0].steps()[0].selection.test(0));  // light first
  EXPECT_DOUBLE_EQ(result->paths[0].cost(), 2.0);
  EXPECT_DOUBLE_EQ(result->paths[1].cost(), 9.0);
}

TEST(RankedGeneratorTest, ReliabilityRankingPrefersCertainOfferings) {
  // A is offered in the released schedule next term (prob 1.0); B only
  // beyond the release horizon with sparse history (prob < 1).
  Catalog catalog;
  for (const char* code : {"A", "B", "GOALX"}) {
    Course c;
    c.code = code;
    ASSERT_TRUE(catalog.AddCourse(std::move(c)).ok());
  }
  ASSERT_TRUE(catalog.Finalize().ok());
  Term f12(Season::kFall, 2012);
  OfferingSchedule schedule(catalog.size());
  ASSERT_TRUE(schedule.AddOffering(0, f12).ok());      // A now
  ASSERT_TRUE(schedule.AddOffering(1, f12 + 2).ok());  // B later
  ASSERT_TRUE(schedule.AddOffering(2, f12 + 3).ok());

  ScheduleHistory history;
  history.AddRecord(0, Term(Season::kFall, 2010));
  history.AddRecord(0, Term(Season::kFall, 2011));
  history.AddRecord(1, Term(Season::kFall, 2010));  // B ran 1 of 2 years
  OfferingProbabilityModel model(&schedule, /*release_end=*/f12, history,
                                 0.5);
  EXPECT_DOUBLE_EQ(model.Probability(0, f12), 1.0);
  EXPECT_DOUBLE_EQ(model.Probability(1, f12 + 2), 0.5);

  auto goal = ExprGoal::Create(*expr::ParseBoolExpr("A or B"), catalog);
  ASSERT_TRUE(goal.ok());
  ExplorationOptions options;
  options.max_courses_per_term = 1;
  // The B path waits two semesters for B's offering.
  options.allow_voluntary_skip = true;
  ReliabilityRanking ranking(&model);
  EnrollmentStatus start{f12, catalog.NewCourseSet()};
  auto result = GenerateRankedPaths(catalog, schedule, start, f12 + 4, **goal,
                                    ranking, /*k=*/2, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->paths.size(), 2u);
  // The A path has reliability 1.0 (cost 0), the B path 0.5.
  EXPECT_DOUBLE_EQ(ReliabilityRanking::CostToReliability(
                       result->paths[0].cost()),
                   1.0);
  EXPECT_NEAR(
      ReliabilityRanking::CostToReliability(result->paths[1].cost()), 0.5,
      1e-12);
}

/// Property: top-k under each ranking equals the brute-force k cheapest
/// goal paths, on random catalogs.
struct RankedCase {
  uint64_t seed;
  int ranking;  // 0 = time, 1 = workload
};

void PrintTo(const RankedCase& c, std::ostream* os) {
  *os << "seed" << c.seed << (c.ranking == 0 ? "_time" : "_workload");
}

class RankedCorrectnessTest : public ::testing::TestWithParam<RankedCase> {};

TEST_P(RankedCorrectnessTest, MatchesBruteForceTopK) {
  const RankedCase& param = GetParam();
  data::SyntheticConfig config;
  config.num_courses = 10;
  config.num_intro_courses = 3;
  config.seed = param.seed;
  auto bundle = data::BuildSyntheticCatalog(config);
  ASSERT_TRUE(bundle.ok());

  std::vector<std::string> goal_codes;
  for (int i = 0; i < 4; ++i) {
    goal_codes.push_back(bundle->catalog.course(i).code);
  }
  auto goal = ExprGoal::CompleteAll(goal_codes, bundle->catalog);
  ASSERT_TRUE(goal.ok());

  ExplorationOptions options;
  options.max_courses_per_term = 2;
  EnrollmentStatus start{config.first_term, bundle->catalog.NewCourseSet()};
  Term end = config.first_term + 4;

  TimeRanking time_ranking;
  WorkloadRanking workload_ranking(&bundle->catalog);
  const RankingFunction& ranking =
      param.ranking == 0 ? static_cast<const RankingFunction&>(time_ranking)
                         : workload_ranking;

  // Brute force: enumerate every goal path, cost it, sort.
  auto all = GenerateGoalDrivenPaths(bundle->catalog, bundle->schedule, start,
                                     end, **goal, options);
  ASSERT_TRUE(all.ok());
  std::vector<LearningPath> brute = GoalPaths(all->graph);
  for (LearningPath& path : brute) {
    double cost = 0;
    for (const PathStep& step : path.steps()) {
      cost += ranking.EdgeCost(step.selection, step.term);
    }
    path.set_cost(cost);
  }
  std::sort(brute.begin(), brute.end(),
            [](const LearningPath& a, const LearningPath& b) {
              return a.cost() < b.cost();
            });

  const int k = std::min<int>(5, static_cast<int>(brute.size()));
  if (k == 0) {
    GTEST_SKIP() << "no goal paths for seed " << param.seed;
  }
  auto ranked = GenerateRankedPaths(bundle->catalog, bundle->schedule, start,
                                    end, **goal, ranking, k, options);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(static_cast<int>(ranked->paths.size()), k);
  for (int i = 0; i < k; ++i) {
    // Cost sequence must match the brute-force optimum (ties may reorder
    // the specific paths).
    EXPECT_NEAR(ranked->paths[static_cast<size_t>(i)].cost(),
                brute[static_cast<size_t>(i)].cost(), 1e-9)
        << "seed=" << param.seed << " i=" << i;
    EXPECT_TRUE(ContainsPath(brute, ranked->paths[static_cast<size_t>(i)]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RankedCorrectnessTest,
    ::testing::Values(RankedCase{11, 0}, RankedCase{12, 0}, RankedCase{13, 0},
                      RankedCase{11, 1}, RankedCase{12, 1}, RankedCase{13, 1},
                      RankedCase{14, 0}, RankedCase{14, 1}));

}  // namespace
}  // namespace coursenav
