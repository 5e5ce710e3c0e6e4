#include "core/counting.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/deadline_generator.h"
#include "core/goal_generator.h"
#include "data/brandeis_cs.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "requirements/expr_goal.h"
#include "tests/test_util.h"

namespace coursenav {
namespace {

using testing_util::Figure3Fixture;

TEST(CountingTest, Figure3DeadlineCountMatchesGraph) {
  Figure3Fixture fix;
  ExplorationOptions options;
  auto counted = CountDeadlineDrivenPaths(fix.catalog, fix.schedule,
                                          fix.FreshStudent(), fix.spring13,
                                          options);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->total_paths, 3u);
  EXPECT_EQ(counted->goal_paths, 2u);  // paths reaching the end semester
  EXPECT_FALSE(counted->saturated);
  EXPECT_GT(counted->distinct_statuses, 0);
}

TEST(CountingTest, Figure3GoalCountMatchesGraph) {
  Figure3Fixture fix;
  ExplorationOptions options;
  auto goal = ExprGoal::CompleteAll({"11A", "29A", "21A"}, fix.catalog);
  ASSERT_TRUE(goal.ok());
  auto counted = CountGoalDrivenPaths(fix.catalog, fix.schedule,
                                      fix.FreshStudent(),
                                      Term(Season::kFall, 2012), **goal,
                                      options);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->total_paths, 1u);
  EXPECT_EQ(counted->goal_paths, 1u);
}

TEST(CountingTest, InputValidation) {
  Figure3Fixture fix;
  ExplorationOptions options;
  EXPECT_TRUE(CountDeadlineDrivenPaths(fix.catalog, fix.schedule,
                                       fix.FreshStudent(), fix.fall11,
                                       options)
                  .status()
                  .IsInvalidArgument());
}

TEST(CountingTest, StatusBudgetFails) {
  Figure3Fixture fix;
  ExplorationOptions options;
  options.limits.max_nodes = 2;
  auto counted = CountDeadlineDrivenPaths(fix.catalog, fix.schedule,
                                          fix.FreshStudent(), fix.spring13,
                                          options);
  EXPECT_TRUE(counted.status().IsResourceExhausted());
}


TEST(CountingTest, VoluntarySkipSemanticsMatchGeneration) {
  Figure3Fixture fix;
  ExplorationOptions options;
  options.allow_voluntary_skip = true;
  auto generated = GenerateDeadlineDrivenPaths(
      fix.catalog, fix.schedule, fix.FreshStudent(), fix.spring13, options);
  auto counted = CountDeadlineDrivenPaths(fix.catalog, fix.schedule,
                                          fix.FreshStudent(), fix.spring13,
                                          options);
  ASSERT_TRUE(generated.ok());
  ASSERT_TRUE(generated->termination.ok());
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->total_paths,
            static_cast<uint64_t>(generated->stats.terminal_paths));
}

TEST(CountingTest, GoalSatisfiedAtRootCountsOnePath) {
  Figure3Fixture fix;
  ExplorationOptions options;
  auto goal = ExprGoal::CompleteAll({"11A"}, fix.catalog);
  ASSERT_TRUE(goal.ok());
  DynamicBitset done = fix.catalog.NewCourseSet();
  done.set(fix.c11a);
  EnrollmentStatus start{fix.fall11, done};
  auto counted = CountGoalDrivenPaths(fix.catalog, fix.schedule, start,
                                      fix.spring13, **goal, options);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->total_paths, 1u);
  EXPECT_EQ(counted->goal_paths, 1u);
  EXPECT_EQ(counted->distinct_statuses, 1);
}

/// Counts the evaluation's Brandeis cell (fresh student, m = 3, deadline
/// Fall 2015) for a span, deadline-driven or toward the CS major.
Result<CountingResult> CountBrandeis(const data::BrandeisDataset& dataset,
                                     int span, bool goal,
                                     const ExplorationOptions& options) {
  EnrollmentStatus start{data::StartTermForSpan(span),
                         dataset.catalog.NewCourseSet()};
  return goal ? CountGoalDrivenPaths(dataset.catalog, dataset.schedule, start,
                                     data::EvaluationEndTerm(),
                                     *dataset.cs_major, options)
              : CountDeadlineDrivenPaths(dataset.catalog, dataset.schedule,
                                         start, data::EvaluationEndTerm(),
                                         options);
}

struct BrandeisCount {
  const char* name;
  int span;
  bool goal;
  uint64_t total_paths;
  uint64_t goal_paths;
  int64_t distinct_statuses;
};

void PrintTo(const BrandeisCount& count, std::ostream* os) {
  *os << count.name;
}

class BrandeisCountTest : public ::testing::TestWithParam<BrandeisCount> {};

TEST_P(BrandeisCountTest, MatchesPinnedCounts) {
  const BrandeisCount& param = GetParam();
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  auto counted =
      CountBrandeis(dataset, param.span, param.goal, ExplorationOptions{});
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  EXPECT_EQ(counted->total_paths, param.total_paths);
  EXPECT_EQ(counted->goal_paths, param.goal_paths);
  EXPECT_EQ(counted->distinct_statuses, param.distinct_statuses);
  EXPECT_FALSE(counted->saturated);
}

INSTANTIATE_TEST_SUITE_P(
    Evaluation, BrandeisCountTest,
    ::testing::Values(
        BrandeisCount{"Deadline4", 4, false, 178'251, 178'251, 9'935},
        BrandeisCount{"Deadline5", 5, false, 21'095'449, 21'095'449,
                      1'033'700},
        BrandeisCount{"Goal4", 4, true, 524, 342, 348},
        BrandeisCount{"Goal5", 5, true, 1'079'711, 861'717, 153'341}),
    [](const ::testing::TestParamInfo<BrandeisCount>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(CountingTest, PrunedTimeCountsEquationOneSkips) {
  // Equation 1's minimum selection skips enumerating the selections time
  // pruning would reject one by one; the count records them as time-pruned
  // either way, as the materialized runs do.
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  auto pruned_time = [&](bool enforce_min_selection) {
    const obs::Counter* counter =
        obs::GlobalMetrics().GetCounter(obs::kMetricPrunedTime);
    const int64_t before = counter->Value();
    GoalDrivenConfig config;
    config.enforce_min_selection = enforce_min_selection;
    EnrollmentStatus start{data::StartTermForSpan(5),
                           dataset.catalog.NewCourseSet()};
    auto counted = CountGoalDrivenPaths(
        dataset.catalog, dataset.schedule, start, data::EvaluationEndTerm(),
        *dataset.cs_major, ExplorationOptions{}, config);
    EXPECT_TRUE(counted.ok()) << counted.status().ToString();
    return counter->Value() - before;
  };
  const int64_t skipped = pruned_time(true);
  EXPECT_GT(skipped, 0);
  EXPECT_EQ(skipped, pruned_time(false));
}

TEST(CountingTest, StatusCapIsExact) {
  // A count fails exactly when its distinct statuses exceed max_nodes.
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  for (bool goal : {false, true}) {
    auto unlimited = CountBrandeis(dataset, 4, goal, ExplorationOptions{});
    ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
    ExplorationOptions options;
    options.limits.max_nodes = unlimited->distinct_statuses;
    auto at_cap = CountBrandeis(dataset, 4, goal, options);
    ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
    EXPECT_EQ(at_cap->total_paths, unlimited->total_paths);
    options.limits.max_nodes = unlimited->distinct_statuses - 1;
    auto over_cap = CountBrandeis(dataset, 4, goal, options);
    EXPECT_TRUE(over_cap.status().IsResourceExhausted())
        << "goal=" << goal << ": " << over_cap.status().ToString();
  }
}

/// Property: layered counts equal materialized leaf counts, for both
/// generators, across random catalogs and spans.
struct CountCase {
  uint64_t seed;
  int num_courses;
  int span;
  int m;
};

class CountEquivalenceTest : public ::testing::TestWithParam<CountCase> {};

TEST_P(CountEquivalenceTest, DeadlineCountMatchesMaterialization) {
  const CountCase& param = GetParam();
  data::SyntheticConfig config;
  config.num_courses = param.num_courses;
  config.num_intro_courses = 3;
  config.seed = param.seed;
  auto bundle = data::BuildSyntheticCatalog(config);
  ASSERT_TRUE(bundle.ok());

  ExplorationOptions options;
  options.max_courses_per_term = param.m;
  EnrollmentStatus start{config.first_term, bundle->catalog.NewCourseSet()};
  Term end = config.first_term + param.span;

  auto generated = GenerateDeadlineDrivenPaths(bundle->catalog,
                                               bundle->schedule, start, end,
                                               options);
  auto counted = CountDeadlineDrivenPaths(bundle->catalog, bundle->schedule,
                                          start, end, options);
  ASSERT_TRUE(generated.ok());
  ASSERT_TRUE(generated->termination.ok());
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->total_paths,
            static_cast<uint64_t>(generated->stats.terminal_paths))
      << "seed=" << param.seed;
  EXPECT_EQ(counted->goal_paths,
            static_cast<uint64_t>(generated->stats.goal_paths))
      << "seed=" << param.seed;
  // The DAG never has more statuses than the tree has nodes.
  EXPECT_LE(counted->distinct_statuses, generated->stats.nodes_created);
}

TEST_P(CountEquivalenceTest, GoalCountMatchesMaterialization) {
  const CountCase& param = GetParam();
  data::SyntheticConfig config;
  config.num_courses = param.num_courses;
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
  options.max_courses_per_term = param.m;
  EnrollmentStatus start{config.first_term, bundle->catalog.NewCourseSet()};
  Term end = config.first_term + param.span;

  auto generated = GenerateGoalDrivenPaths(bundle->catalog, bundle->schedule,
                                           start, end, **goal, options);
  auto counted = CountGoalDrivenPaths(bundle->catalog, bundle->schedule,
                                      start, end, **goal, options);
  ASSERT_TRUE(generated.ok());
  ASSERT_TRUE(generated->termination.ok());
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->total_paths,
            static_cast<uint64_t>(generated->stats.terminal_paths))
      << "seed=" << param.seed;
  EXPECT_EQ(counted->goal_paths,
            static_cast<uint64_t>(generated->stats.goal_paths))
      << "seed=" << param.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CountEquivalenceTest,
    ::testing::Values(CountCase{21, 10, 4, 2}, CountCase{22, 10, 4, 3},
                      CountCase{23, 12, 3, 2}, CountCase{24, 8, 5, 2},
                      CountCase{25, 12, 4, 2}, CountCase{26, 14, 3, 3},
                      CountCase{27, 9, 4, 2}, CountCase{28, 11, 4, 3}));

}  // namespace
}  // namespace coursenav
