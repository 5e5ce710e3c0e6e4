// Budget-behaviour tests: every generator must stop cleanly — partial
// results plus the right termination status — on node, memory, and
// wall-clock budgets (the machinery behind Table 2's N/A cells).

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "core/counting.h"
#include "core/deadline_generator.h"
#include "core/goal_generator.h"
#include "core/ranked_generator.h"
#include "data/brandeis_cs.h"
#include "tests/test_util.h"

namespace coursenav {
namespace {

class BudgetTest : public ::testing::Test {
 protected:
  data::BrandeisDataset dataset_ = data::BuildBrandeisDataset();
  Term end_ = data::EvaluationEndTerm();

  EnrollmentStatus Start(int span) {
    return {data::StartTermForSpan(span), dataset_.catalog.NewCourseSet()};
  }
};

TEST_F(BudgetTest, DeadlineNodeBudget) {
  ExplorationOptions options;
  options.limits.max_nodes = 1000;
  auto result = GenerateDeadlineDrivenPaths(dataset_.catalog,
                                            dataset_.schedule, Start(5),
                                            end_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->termination.IsResourceExhausted());
  EXPECT_LE(result->graph.num_nodes(), 1001);
}

TEST_F(BudgetTest, DeadlineMemoryBudget) {
  ExplorationOptions options;
  options.limits.max_memory_bytes = 64 * 1024;
  auto result = GenerateDeadlineDrivenPaths(dataset_.catalog,
                                            dataset_.schedule, Start(5),
                                            end_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->termination.IsResourceExhausted());
  EXPECT_NE(result->termination.message().find("memory"),
            std::string::npos);
}

TEST_F(BudgetTest, GoalTimeBudget) {
  ExplorationOptions options;
  options.limits.max_seconds = 1e-9;  // expires immediately
  auto result = GenerateGoalDrivenPaths(dataset_.catalog, dataset_.schedule,
                                        Start(6), end_, *dataset_.cs_major,
                                        options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->termination.IsDeadlineExceeded());
  // The graph is partial but structurally sound.
  EXPECT_GE(result->graph.num_nodes(), 1);
}

TEST_F(BudgetTest, RankedNodeBudgetReturnsPartialPaths) {
  ExplorationOptions options;
  options.limits.max_nodes = 500;
  TimeRanking ranking;
  auto result = GenerateRankedPaths(dataset_.catalog, dataset_.schedule,
                                    Start(6), end_, *dataset_.cs_major,
                                    ranking, 1000, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->termination.IsResourceExhausted());
  EXPECT_LT(result->paths.size(), 1000u);
}

TEST_F(BudgetTest, CountingBudgetsAreErrors) {
  // Counting cannot return partial counts meaningfully; budgets fail.
  ExplorationOptions options;
  options.limits.max_nodes = 100;
  EXPECT_TRUE(CountGoalDrivenPaths(dataset_.catalog, dataset_.schedule,
                                   Start(6), end_, *dataset_.cs_major,
                                   options)
                  .status()
                  .IsResourceExhausted());
  ExplorationOptions timed;
  timed.limits.max_seconds = 1e-9;
  EXPECT_TRUE(CountDeadlineDrivenPaths(dataset_.catalog, dataset_.schedule,
                                       Start(5), end_, timed)
                  .status()
                  .IsDeadlineExceeded());

  // The two live status layers are charged against the memory budget.
  auto count_goal = [&](size_t max_memory_bytes) {
    ExplorationOptions budgeted;
    budgeted.limits.max_memory_bytes = max_memory_bytes;
    return CountGoalDrivenPaths(dataset_.catalog, dataset_.schedule, Start(5),
                                end_, *dataset_.cs_major, budgeted);
  };
  auto starved = count_goal(size_t{1} << 10);
  EXPECT_TRUE(starved.status().IsResourceExhausted())
      << starved.status().ToString();
  EXPECT_NE(starved.status().message().find("memory"), std::string::npos);
  auto roomy = count_goal(size_t{1} << 30);
  auto unlimited = count_goal(0);
  ASSERT_TRUE(roomy.ok()) << roomy.status().ToString();
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  EXPECT_EQ(roomy->total_paths, unlimited->total_paths);
  EXPECT_EQ(roomy->goal_paths, unlimited->goal_paths);
  EXPECT_EQ(roomy->distinct_statuses, unlimited->distinct_statuses);
}

TEST_F(BudgetTest, UnlimitedBudgetsRunToCompletion) {
  ExplorationOptions options;  // all limits zero = unlimited
  auto result = GenerateGoalDrivenPaths(dataset_.catalog, dataset_.schedule,
                                        Start(4), end_, *dataset_.cs_major,
                                        options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->termination.ok());
}

// ---------------------------------------------------------------------------
// The full generator × limit matrix: every generator, starved of each
// resource in turn, must come back ok() with the documented termination
// status and a structurally valid partial result.

enum class GeneratorKind { kDeadline, kGoal, kRanked };
enum class LimitKind { kNodes, kMemory, kTime };

std::string KindName(GeneratorKind kind) {
  switch (kind) {
    case GeneratorKind::kDeadline: return "Deadline";
    case GeneratorKind::kGoal: return "Goal";
    case GeneratorKind::kRanked: return "Ranked";
  }
  return "?";
}

std::string KindName(LimitKind kind) {
  switch (kind) {
    case LimitKind::kNodes: return "NodeBudget";
    case LimitKind::kMemory: return "MemoryBudget";
    case LimitKind::kTime: return "TimeBudget";
  }
  return "?";
}

// gtest's default printer dumps an enum's bytes; a kind prints its name.
void PrintTo(GeneratorKind kind, std::ostream* os) { *os << KindName(kind); }
void PrintTo(LimitKind kind, std::ostream* os) { *os << KindName(kind); }

class BudgetMatrixTest
    : public ::testing::TestWithParam<std::tuple<GeneratorKind, LimitKind>> {
 protected:
  data::BrandeisDataset dataset_ = data::BuildBrandeisDataset();
  Term end_ = data::EvaluationEndTerm();

  EnrollmentStatus Start(int span) {
    return {data::StartTermForSpan(span), dataset_.catalog.NewCourseSet()};
  }

  ExplorationOptions StarvedOptions() const {
    ExplorationOptions options;
    switch (std::get<1>(GetParam())) {
      case LimitKind::kNodes: options.limits.max_nodes = 500; break;
      case LimitKind::kMemory:
        options.limits.max_memory_bytes = 64 * 1024;
        break;
      case LimitKind::kTime: options.limits.max_seconds = 1e-9; break;
    }
    return options;
  }

  void ExpectDocumentedStatus(const Status& termination) {
    switch (std::get<1>(GetParam())) {
      case LimitKind::kNodes:
      case LimitKind::kMemory:
        EXPECT_TRUE(termination.IsResourceExhausted())
            << termination.ToString();
        break;
      case LimitKind::kTime:
        EXPECT_TRUE(termination.IsDeadlineExceeded())
            << termination.ToString();
        break;
    }
  }
};

TEST_P(BudgetMatrixTest, StarvedGeneratorReturnsValidPartialResult) {
  ExplorationOptions options = StarvedOptions();
  // Span 6 blows up far past every starved limit for all three generators.
  EnrollmentStatus start = Start(6);

  if (std::get<0>(GetParam()) == GeneratorKind::kRanked) {
    TimeRanking ranking;
    auto result = GenerateRankedPaths(dataset_.catalog, dataset_.schedule,
                                      start, end_, *dataset_.cs_major,
                                      ranking, 1000, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectDocumentedStatus(result->termination);
    EXPECT_LT(result->paths.size(), 1000u);
    for (const LearningPath& path : result->paths) {
      EXPECT_TRUE(path.Validate(dataset_.catalog, dataset_.schedule).ok());
    }
    return;
  }

  Result<GenerationResult> result =
      std::get<0>(GetParam()) == GeneratorKind::kDeadline
          ? GenerateDeadlineDrivenPaths(dataset_.catalog, dataset_.schedule,
                                        start, end_, options)
          : GenerateGoalDrivenPaths(dataset_.catalog, dataset_.schedule,
                                    start, end_, *dataset_.cs_major, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectDocumentedStatus(result->termination);
  EXPECT_EQ(testing_util::StructureErrors(result->graph, dataset_.catalog,
                                          dataset_.schedule,
                                          options.avoid_courses), "");
  EXPECT_EQ(testing_util::StatsErrors(result->graph, result->stats), "");
  if (options.limits.max_nodes > 0) {
    // The budget is checked per enumerated selection, so at most one child
    // may overshoot the cap.
    EXPECT_LE(result->graph.num_nodes(), options.limits.max_nodes + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGeneratorsAllLimits, BudgetMatrixTest,
    ::testing::Combine(::testing::Values(GeneratorKind::kDeadline,
                                         GeneratorKind::kGoal,
                                         GeneratorKind::kRanked),
                       ::testing::Values(LimitKind::kNodes,
                                         LimitKind::kMemory,
                                         LimitKind::kTime)),
    [](const ::testing::TestParamInfo<BudgetMatrixTest::ParamType>& param) {
      return KindName(std::get<0>(param.param)) +
             KindName(std::get<1>(param.param));
    });

}  // namespace
}  // namespace coursenav
