// Cooperative-cancellation tests: CancellationToken / DeadlineBudget
// semantics, and end-to-end cancellation of running explorations — both
// pre-cancelled (deterministic "stops within one expansion") and cancelled
// mid-flight from another thread.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "core/counting.h"
#include "core/goal_generator.h"
#include "data/brandeis_cs.h"
#include "service/session.h"
#include "tests/test_util.h"
#include "util/cancellation.h"

namespace coursenav {
namespace {

TEST(CancellationTokenTest, DefaultTokenIsInert) {
  CancellationToken token;
  EXPECT_FALSE(token.can_cancel());
  token.RequestCancel();  // no-op, must not crash
  EXPECT_FALSE(token.IsCancelled());
}

TEST(CancellationTokenTest, CopiesShareTheFlag) {
  CancellationToken token = CancellationToken::Cancellable();
  CancellationToken copy = token;
  EXPECT_TRUE(copy.can_cancel());
  EXPECT_FALSE(copy.IsCancelled());
  token.RequestCancel();
  EXPECT_TRUE(copy.IsCancelled());
  token.Reset();
  EXPECT_FALSE(copy.IsCancelled());
}

TEST(DeadlineBudgetTest, UnlimitedBudgetStaysOk) {
  DeadlineBudget budget;  // no deadline, inert token
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(budget.Check().ok());
  EXPECT_TRUE(budget.CheckNow().ok());
  EXPECT_TRUE(std::isinf(budget.RemainingSeconds()));
}

TEST(DeadlineBudgetTest, ExpiredDeadlineIsSticky) {
  DeadlineBudget budget(1e-9);
  Status first = budget.CheckNow();
  EXPECT_TRUE(first.IsDeadlineExceeded()) << first.ToString();
  // Sticky: every later check (amortized or forced) repeats the verdict.
  EXPECT_TRUE(budget.Check().IsDeadlineExceeded());
  EXPECT_TRUE(budget.CheckNow().IsDeadlineExceeded());
  EXPECT_EQ(budget.RemainingSeconds(), 0.0);
}

TEST(DeadlineBudgetTest, CancellationObservedOnEveryCheck) {
  CancellationToken token = CancellationToken::Cancellable();
  DeadlineBudget budget(/*max_seconds=*/3600.0, token);
  EXPECT_TRUE(budget.Check().ok());
  token.RequestCancel();
  // The cancel flag is polled on every Check(), not only on the amortized
  // clock reads, so the very next check observes it.
  EXPECT_TRUE(budget.Check().IsCancelled());
  EXPECT_TRUE(budget.Check().IsCancelled());  // and it is sticky
}

TEST(CancellationTest, PreCancelledGenerationStopsWithinOneExpansion) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  ExplorationOptions options;
  options.cancel = CancellationToken::Cancellable();
  options.cancel.RequestCancel();
  EnrollmentStatus start{data::StartTermForSpan(6),
                         dataset.catalog.NewCourseSet()};
  auto result = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                        start, data::EvaluationEndTerm(),
                                        *dataset.cs_major, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->termination.IsCancelled())
      << result->termination.ToString();
  // Cancellation fires at the first budget check: at most the root and one
  // expansion's first child exist.
  EXPECT_LE(result->graph.num_nodes(), 2);
  EXPECT_EQ(testing_util::StructureErrors(result->graph, dataset.catalog,
                                          dataset.schedule,
                                          options.avoid_courses), "");
}

TEST(CancellationTest, PreCancelledCountingFailsCleanly) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  ExplorationOptions options;
  options.cancel = CancellationToken::Cancellable();
  options.cancel.RequestCancel();
  EnrollmentStatus start{data::StartTermForSpan(5),
                         dataset.catalog.NewCourseSet()};
  auto counted =
      CountGoalDrivenPaths(dataset.catalog, dataset.schedule, start,
                           data::EvaluationEndTerm(), *dataset.cs_major,
                           options);
  EXPECT_TRUE(counted.status().IsCancelled()) << counted.status().ToString();
}

TEST(CancellationTest, MidFlightCancelStopsARunningGeneration) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  ExplorationOptions options;
  options.cancel = CancellationToken::Cancellable();
  // No other limits: without the cancel this span-7 exploration would blow
  // up for a very long time.
  EnrollmentStatus start{data::StartTermForSpan(7),
                         dataset.catalog.NewCourseSet()};

  Result<GenerationResult> result = Status::Internal("not run");
  std::thread worker([&] {
    result = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                     start, data::EvaluationEndTerm(),
                                     *dataset.cs_major, options);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  options.cancel.RequestCancel();
  worker.join();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->termination.IsCancelled())
      << result->termination.ToString();
  EXPECT_GE(result->graph.num_nodes(), 1);
  EXPECT_EQ(testing_util::StructureErrors(result->graph, dataset.catalog,
                                          dataset.schedule,
                                          options.avoid_courses), "");
  EXPECT_EQ(testing_util::StatsErrors(result->graph, result->stats), "");
}

TEST(CancellationTest, SessionQueriesAreCancellableAndRearmable) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  ExplorationSession session(&dataset.catalog, &dataset.schedule,
                             dataset.cs_major,
                             {data::StartTermForSpan(4),
                              dataset.catalog.NewCourseSet()},
                             data::EvaluationEndTerm());
  // Sessions always carry a live token, even when the caller's options did
  // not provide one.
  ASSERT_TRUE(session.cancel_token().can_cancel());

  session.cancel_token().RequestCancel();
  Result<uint64_t> cancelled = session.RemainingGoalPaths();
  EXPECT_TRUE(cancelled.status().IsCancelled())
      << cancelled.status().ToString();

  // Re-arming lets the same session keep serving.
  session.ResetCancellation();
  Result<uint64_t> counted = session.RemainingGoalPaths();
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  EXPECT_GT(*counted, 0u);
}

}  // namespace
}  // namespace coursenav
