// Chaos tests for the parallel frontier engine: hammer multi-worker runs
// with deterministic fault injection (allocation failures, clock skew,
// schedule churn) and mid-flight cancellation from another thread, and
// assert every outcome is a clean status plus a well-formed canonical
// graph — never a crash, a hang, or a torn structure. TSan runs of this
// suite are the real assertion for the engine's memory model.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/deadline_generator.h"
#include "core/goal_generator.h"
#include "core/ranked_generator.h"
#include "core/ranking.h"
#include "data/brandeis_cs.h"
#include "exec/worker_pool.h"
#include "graph/export.h"
#include "tests/test_util.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"

namespace coursenav {
namespace {

FaultConfig ChaosConfig(uint64_t seed) {
  FaultConfig config;
  config.seed = seed;
  config.site_probability[std::string(kFaultSiteGraphAlloc)] = 0.02;
  config.site_probability[std::string(kFaultSiteClockSkew)] = 0.05;
  config.site_probability[std::string(kFaultSiteScheduleChurn)] = 0.01;
  config.clock_skew_seconds = 0.01;
  return config;
}

bool IsCleanOutcome(const Status& status) {
  return status.ok() || status.IsResourceExhausted() ||
         status.IsDeadlineExceeded() || status.IsCancelled();
}

// The parallel analogue of the chaos seed sweep: every seed runs the
// goal-driven generator at 4 workers with faults armed; whatever the
// faults do, the result must be a clean termination and a structurally
// sound canonical graph whose stats reconcile.
TEST(ParallelChaosTest, SeedSweepWithFaultsArmed) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  Term end = data::EvaluationEndTerm();
  EnrollmentStatus start{data::StartTermForSpan(4),
                         dataset.catalog.NewCourseSet()};

  for (uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScopedFaultInjection scope(ChaosConfig(seed));

    ExplorationOptions options;
    options.num_threads = 4;
    options.limits.max_nodes = 2000;
    options.limits.max_seconds = 0.05;

    auto generated = GenerateGoalDrivenPaths(dataset.catalog,
                                             dataset.schedule, start, end,
                                             *dataset.cs_major, options);
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    EXPECT_TRUE(IsCleanOutcome(generated->termination))
        << generated->termination.ToString();
    ASSERT_EQ(testing_util::StructureErrors(generated->graph, dataset.catalog,
                                            dataset.schedule,
                                            options.avoid_courses), "");
    ASSERT_EQ(testing_util::StatsErrors(generated->graph, generated->stats),
              "");
  }
}

// An allocation fault in one worker's shard must stop the whole run as
// ResourceExhausted while every shard's contribution stays well-formed.
TEST(ParallelChaosTest, AllocationFaultsStopAllWorkers) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  FaultConfig config;
  config.seed = 11;
  config.site_probability[std::string(kFaultSiteGraphAlloc)] = 1.0;
  ScopedFaultInjection scope(config);

  ExplorationOptions options;
  options.num_threads = 4;
  EnrollmentStatus start{data::StartTermForSpan(6),
                         dataset.catalog.NewCourseSet()};
  auto result = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                        start, data::EvaluationEndTerm(),
                                        *dataset.cs_major, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->termination.IsResourceExhausted())
      << result->termination.ToString();
  EXPECT_EQ(testing_util::StructureErrors(result->graph, dataset.catalog,
                                          dataset.schedule,
                                          options.avoid_courses), "");
}

// The merge after a parallel run moves nodes that already exist, so it
// draws no `graph/alloc` decisions: a complete run draws one per child it
// created, as the serial run does, and no fault can land on a graph whose
// termination was already decided.
TEST(ParallelChaosTest, CanonicalizeDrawsNoAllocationFaults) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  FaultConfig config;
  config.seed = 19;
  config.site_probability[std::string(kFaultSiteGraphAlloc)] = 1e-12;
  ScopedFaultInjection scope(config);

  ExplorationOptions options;
  options.num_threads = 4;
  EnrollmentStatus start{data::StartTermForSpan(4),
                         dataset.catalog.NewCourseSet()};
  auto result = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                        start, data::EvaluationEndTerm(),
                                        *dataset.cs_major, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->termination.ok()) << result->termination.ToString();
  EXPECT_EQ(scope.injector().fired(kFaultSiteGraphAlloc), 0);
  EXPECT_EQ(scope.injector().decisions(kFaultSiteGraphAlloc),
            result->stats.nodes_created - 1);
  EXPECT_FALSE(result->graph.allocation_failed());
}

// A status's option set is derived when it is expanded, through the live
// schedule read the `schedule/churn` seam covers, and never stored: a
// leaf never pays for it. Printing or checking a finished graph derives
// the sets again from the recorded offerings, which draws no decision.
// Armed at 1e-12, the seam never fires but counts every read.
TEST(ParallelChaosTest, OptionSetsAreDerivedOncePerExpandedStatus) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  const Term end = data::EvaluationEndTerm();
  const EnrollmentStatus start{data::StartTermForSpan(4),
                               dataset.catalog.NewCourseSet()};
  FaultConfig config;
  config.seed = 23;
  config.site_probability[std::string(kFaultSiteScheduleChurn)] = 1e-12;
  // The engine's suffix unions read each of the four semesters once.
  constexpr int64_t kEngineReads = 4;

  // The run and anything done with its graph so far drew `expected`
  // decisions, and checking the graph adds none.
  auto expect_reads = [&](ScopedFaultInjection& scope,
                          const LearningGraph& graph,
                          const ExplorationOptions& options,
                          int64_t expected) {
    EXPECT_EQ(scope.injector().decisions(kFaultSiteScheduleChurn), expected);
    EXPECT_EQ(testing_util::StructureErrors(graph, dataset.catalog,
                                            dataset.schedule,
                                            options.avoid_courses), "");
    EXPECT_EQ(scope.injector().decisions(kFaultSiteScheduleChurn), expected);
    EXPECT_EQ(scope.injector().fired(kFaultSiteScheduleChurn), 0);
  };

  {
    // Nothing is pruned, so every status left of the end semester is
    // internal: one read each.
    ScopedFaultInjection scope(config);
    const ExplorationOptions options;
    auto result = GenerateDeadlineDrivenPaths(
        dataset.catalog, dataset.schedule, start, end, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->termination.ok()) << result->termination.ToString();
    const int64_t internal =
        result->graph.num_nodes() -
        static_cast<int64_t>(result->graph.LeafNodes().size());
    EXPECT_EQ(internal, 187876 - 178251);
    expect_reads(scope, result->graph, options, internal + kEngineReads);
  }

  // With a goal, a status is also read when all its children are pruned.
  for (int threads : {0, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ScopedFaultInjection scope(config);
    ExplorationOptions options;
    options.num_threads = threads;
    auto result = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                          start, end, *dataset.cs_major,
                                          options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->termination.ok()) << result->termination.ToString();
    // Printing adds none either. (The deadline graph above is not printed:
    // its JSON document alone takes about 1 GB.)
    (void)LearningGraphToJson(result->graph, dataset.catalog,
                              dataset.schedule, options.avoid_courses);
    expect_reads(scope, result->graph, options, 318);
  }

  {
    ScopedFaultInjection scope(config);
    TimeRanking time;
    auto result = GenerateRankedPaths(dataset.catalog, dataset.schedule,
                                      start, end, *dataset.cs_major, time,
                                      /*k=*/10, ExplorationOptions{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->termination.ok()) << result->termination.ToString();
    EXPECT_EQ(scope.injector().decisions(kFaultSiteScheduleChurn), 318);
  }
}

// Cancellation raced from another thread at staggered delays: the run must
// stop within one expansion per worker and return a cancelled (or, when
// the flag landed too late, complete) result with a coherent graph.
TEST(ParallelChaosTest, MidFlightCancellationLeavesCoherentGraphs) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  Term end = data::EvaluationEndTerm();
  EnrollmentStatus start{data::StartTermForSpan(5),
                         dataset.catalog.NewCourseSet()};

  for (int delay_us : {0, 50, 200, 1000, 5000}) {
    SCOPED_TRACE("delay_us " + std::to_string(delay_us));
    ExplorationOptions options;
    options.num_threads = 4;
    options.cancel = CancellationToken::Cancellable();

    std::thread canceller([&options, delay_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      options.cancel.RequestCancel();
    });
    auto result = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                          start, end, *dataset.cs_major,
                                          options);
    canceller.join();

    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->termination.ok() || result->termination.IsCancelled())
        << result->termination.ToString();
    EXPECT_EQ(testing_util::StructureErrors(result->graph, dataset.catalog,
                                            dataset.schedule,
                                            options.avoid_courses), "");
    EXPECT_EQ(testing_util::StatsErrors(result->graph, result->stats), "");
  }
}

// Deadline generation under the same chaos regime (no oracle in play —
// exercises the goal-free expansion path).
TEST(ParallelChaosTest, DeadlineDrivenSurvivesFaultSweep) {
  testing_util::Figure3Fixture fixture;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScopedFaultInjection scope(ChaosConfig(seed));
    ExplorationOptions options;
    options.num_threads = 4;
    options.limits.max_seconds = 0.05;
    auto result = GenerateDeadlineDrivenPaths(
        fixture.catalog, fixture.schedule, fixture.FreshStudent(),
        fixture.spring13, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(IsCleanOutcome(result->termination))
        << result->termination.ToString();
    EXPECT_EQ(testing_util::StructureErrors(result->graph, fixture.catalog,
                                            fixture.schedule,
                                            options.avoid_courses), "");
    EXPECT_EQ(testing_util::StatsErrors(result->graph, result->stats), "");
  }
}

// Back-to-back rounds on one pool: round boundaries must fully quiesce
// (no body from round N observed in round N+1), and a body that returns
// immediately must not wedge the round barrier.
TEST(ParallelChaosTest, WorkerPoolSurvivesRapidRoundChurn) {
  exec::WorkerPool pool(4);
  std::atomic<int> round_sum{0};
  for (int round = 0; round < 500; ++round) {
    round_sum.store(0, std::memory_order_relaxed);
    pool.Run([&](int worker) {
      if (worker % 2 == round % 2) return;  // half the workers no-op
      round_sum.fetch_add(worker + 1, std::memory_order_relaxed);
    });
    // Workers 0..3 contribute worker+1 when (worker+round) is odd:
    // {2, 4} or {1, 3} depending on round parity.
    EXPECT_EQ(round_sum.load(), round % 2 == 0 ? 6 : 4);
  }
}

}  // namespace
}  // namespace coursenav
