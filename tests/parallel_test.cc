// Determinism contract of the parallel frontier engine: for any worker
// count, a complete run must produce a graph byte-identical to the serial
// generator's (same node/edge numbering, same bitsets, same statistics),
// and a budget-truncated run must still produce a well-formed canonical
// graph. Also unit-tests the work-stealing deques and the worker pool the
// engine is built on.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/deadline_generator.h"
#include "core/goal_generator.h"
#include "core/pruning.h"
#include "core/ranked_generator.h"
#include "core/ranking.h"
#include "data/brandeis_cs.h"
#include "exec/work_queue.h"
#include "exec/worker_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "requirements/degree_requirement.h"
#include "tests/test_util.h"

namespace coursenav {
namespace {

// Field-by-field graph/stats comparison lives in tests/test_util.h; the
// plan golden-equivalence suite shares it.
using testing_util::GraphDifference;
using testing_util::StatsDifference;

const std::vector<int> kThreadCounts = {1, 2, 4, 8};

TEST(ParallelDeterminismTest, DeadlineDrivenMatchesSerialAtEveryThreadCount) {
  testing_util::Figure3Fixture fixture;
  ExplorationOptions serial_options;
  auto serial = GenerateDeadlineDrivenPaths(fixture.catalog, fixture.schedule,
                                            fixture.FreshStudent(),
                                            fixture.spring13, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(serial->termination.ok()) << serial->termination.ToString();
  ASSERT_EQ(testing_util::StructureErrors(serial->graph, fixture.catalog,
                                          fixture.schedule,
                                          serial_options.avoid_courses), "");

  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExplorationOptions options;
    options.num_threads = threads;
    auto parallel = GenerateDeadlineDrivenPaths(
        fixture.catalog, fixture.schedule, fixture.FreshStudent(),
        fixture.spring13, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_TRUE(parallel->termination.ok())
        << parallel->termination.ToString();
    EXPECT_EQ(GraphDifference(serial->graph, parallel->graph), "");
    EXPECT_EQ(StatsDifference(serial->stats, parallel->stats), "");
  }
}

TEST(ParallelDeterminismTest, GoalDrivenMatchesSerialOnBrandeisCatalog) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  Term end = data::EvaluationEndTerm();
  EnrollmentStatus start{data::StartTermForSpan(5),
                         dataset.catalog.NewCourseSet()};

  ExplorationOptions serial_options;
  auto serial = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                        start, end, *dataset.cs_major,
                                        serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(serial->termination.ok()) << serial->termination.ToString();
  // A real population (the paper's Table 2 regime) — the determinism
  // check below is only meaningful on a non-trivial graph.
  EXPECT_GT(serial->stats.goal_paths, 0);
  EXPECT_GT(serial->stats.nodes_created, 1000);

  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExplorationOptions options;
    options.num_threads = threads;
    auto parallel = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                            start, end, *dataset.cs_major,
                                            options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_TRUE(parallel->termination.ok())
        << parallel->termination.ToString();
    EXPECT_EQ(GraphDifference(serial->graph, parallel->graph), "");
    EXPECT_EQ(StatsDifference(serial->stats, parallel->stats), "");
  }
}

// Groups that share courses take the max-flow credit path, where a verdict
// costs a flow solve and each worker's oracle memoizes its own. COSI124A
// runs only in even springs, so statuses that pass Spring 2014 without it
// are pruned for availability. Whichever worker evaluates a reachable set
// first, the output is serial's.
TEST(ParallelDeterminismTest, OverlappingGroupsMatchSerialOnBrandeisCatalog) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  Result<std::shared_ptr<const DegreeRequirement>> goal =
      DegreeRequirement::Builder(&dataset.catalog)
          .AddGroup("foundations",
                    {"COSI11A", "COSI12B", "COSI21A", "COSI29A"}, 3)
          .AddGroup("logic", {"COSI124A", "COSI29A", "COSI12B"}, 2)
          .Build();
  ASSERT_TRUE(goal.ok()) << goal.status().ToString();
  const Term end = data::EvaluationEndTerm();
  EnrollmentStatus start{data::StartTermForSpan(4),
                         dataset.catalog.NewCourseSet()};

  obs::Counter* flow_solves =
      obs::GlobalMetrics().GetCounter(obs::kMetricFlowSolves);
  const int64_t solves_before = flow_solves->Value();
  ExplorationOptions serial_options;
  auto serial = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                        start, end, **goal, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(serial->termination.ok()) << serial->termination.ToString();
  EXPECT_GT(flow_solves->Value(), solves_before);
  EXPECT_GT(serial->stats.goal_paths, 0);
  EXPECT_GT(serial->stats.pruned_availability, 0);

  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExplorationOptions options;
    options.num_threads = threads;
    auto parallel = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                            start, end, **goal, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_TRUE(parallel->termination.ok())
        << parallel->termination.ToString();
    EXPECT_EQ(GraphDifference(serial->graph, parallel->graph), "");
    EXPECT_EQ(StatsDifference(serial->stats, parallel->stats), "");
  }
}

TEST(ParallelDeterminismTest, ParallelRunsAreRepeatable) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  Term end = data::EvaluationEndTerm();
  EnrollmentStatus start{data::StartTermForSpan(4),
                         dataset.catalog.NewCourseSet()};
  ExplorationOptions options;
  options.num_threads = 4;

  auto first = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                       start, end, *dataset.cs_major, options);
  auto second = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                        start, end, *dataset.cs_major,
                                        options);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(GraphDifference(first->graph, second->graph), "");
}

// Budget-truncated parallel runs cannot promise serial-identical output
// (which worker hits the limit first is timing-dependent), but the partial
// graph must be canonical and well-formed and its stats must reconcile.
TEST(ParallelBudgetTest, NodeBudgetYieldsWellFormedPartialGraph) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  Term end = data::EvaluationEndTerm();
  EnrollmentStatus start{data::StartTermForSpan(5),
                         dataset.catalog.NewCourseSet()};
  ExplorationOptions options;
  options.num_threads = 4;
  options.limits.max_nodes = 2000;

  auto result = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                        start, end, *dataset.cs_major,
                                        options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->termination.IsResourceExhausted())
      << result->termination.ToString();
  EXPECT_GE(result->stats.nodes_created, 2000);
  EXPECT_EQ(testing_util::StructureErrors(result->graph, dataset.catalog,
                                          dataset.schedule,
                                          options.avoid_courses), "");
  EXPECT_EQ(testing_util::StatsErrors(result->graph, result->stats), "");
}

TEST(ParallelBudgetTest, CancellationStopsAllWorkersCleanly) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  Term end = data::EvaluationEndTerm();
  EnrollmentStatus start{data::StartTermForSpan(6),
                         dataset.catalog.NewCourseSet()};
  ExplorationOptions options;
  options.num_threads = 4;
  options.cancel = CancellationToken::Cancellable();
  // Pre-cancelled: every worker must observe the flag at its first budget
  // check and return without expanding more than the seeded frontier.
  options.cancel.RequestCancel();

  auto result = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                        start, end, *dataset.cs_major,
                                        options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->termination.IsCancelled())
      << result->termination.ToString();
  EXPECT_EQ(testing_util::StructureErrors(result->graph, dataset.catalog,
                                          dataset.schedule,
                                          options.avoid_courses), "");
  EXPECT_EQ(testing_util::StatsErrors(result->graph, result->stats), "");
}

// Workers publish their node tallies at budget checks and, near the budget,
// per child, so a truncated run overshoots by at most one candidate batch
// per worker.
TEST(ParallelBudgetTest, NodeBudgetOvershootIsAtMostOneBatchPerWorker) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  const Term end = data::EvaluationEndTerm();
  constexpr int64_t kWorkers = 4;
  constexpr int64_t kSlack =
      kWorkers * internal::CandidateBatch::kDefaultCapacity;
  for (const bool goal_driven : {true, false}) {
    for (const int64_t budget : {100, 2000, 20000}) {
      SCOPED_TRACE((goal_driven ? "goal, budget " : "deadline, budget ") +
                   std::to_string(budget));
      for (int run = 0; run < 5; ++run) {
        ExplorationOptions options;
        options.num_threads = static_cast<int>(kWorkers);
        options.limits.max_nodes = budget;
        EnrollmentStatus start{data::StartTermForSpan(goal_driven ? 5 : 4),
                               dataset.catalog.NewCourseSet()};
        auto result =
            goal_driven
                ? GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                          start, end, *dataset.cs_major,
                                          options)
                : GenerateDeadlineDrivenPaths(dataset.catalog,
                                              dataset.schedule, start, end,
                                              options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_TRUE(result->termination.IsResourceExhausted())
            << result->termination.ToString();
        EXPECT_GE(result->stats.nodes_created, budget);
        EXPECT_LE(result->stats.nodes_created, budget + kSlack);
      }
    }
  }
}

#if COURSENAV_TRACING

int64_t IntAttribute(const obs::SpanRecord& span, std::string_view key) {
  for (const obs::SpanAttribute& attribute : span.attributes) {
    if (attribute.key == key) return attribute.int_value;
  }
  return -1;
}

/// Checks that no span's children outlast it, and that each stage span
/// (prune/*, rank/evaluate) is a child of expand/loop.
void ExpectStageSpansNest(const std::vector<obs::SpanRecord>& spans) {
  std::map<int64_t, const obs::SpanRecord*> by_id;
  std::map<int64_t, int64_t> children_us;  // parent span id -> summed
  for (const obs::SpanRecord& span : spans) {
    by_id[span.span_id] = &span;
    children_us[span.parent_id] += span.duration_us;
  }
  int stage_spans = 0;
  for (const obs::SpanRecord& span : spans) {
    EXPECT_LE(children_us[span.span_id], span.duration_us)
        << span.name << " has more time in its children than its own";
    if (span.name != obs::kSpanPruneTime &&
        span.name != obs::kSpanPruneAvailability &&
        span.name != obs::kSpanRankEvaluate) {
      continue;
    }
    ++stage_spans;
    auto parent = by_id.find(span.parent_id);
    ASSERT_NE(parent, by_id.end()) << span.name << " has no parent span";
    EXPECT_EQ(parent->second->name, obs::kSpanExpandLoop)
        << span.name << " is not a child of expand/loop";
  }
  EXPECT_GE(stage_spans, 2);
}

// Workers prune concurrently, so their summed pruning time is CPU time and
// can exceed the run's wall-clock expand/loop. The run reports one span per
// strategy at the workers' mean time instead, which nests.
TEST(ParallelTraceTest, PruningSpansAreOnePerStrategyAndNest) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  Term end = data::EvaluationEndTerm();
  EnrollmentStatus start{data::StartTermForSpan(4),
                         dataset.catalog.NewCourseSet()};
  ExplorationOptions options;
  options.num_threads = 4;

  obs::Tracer tracer;
  ExplorationStats stats;
  {
    obs::ScopedTracer install(&tracer);
    auto result = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                          start, end, *dataset.cs_major,
                                          options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->termination.ok()) << result->termination.ToString();
    stats = result->stats;
  }
  ASSERT_GT(stats.TotalPruned(), 0);

  const std::vector<obs::SpanRecord> spans = tracer.Spans();
  std::map<std::string, int> count_by_name;
  for (const obs::SpanRecord& span : spans) {
    ++count_by_name[span.name];
    if (span.name == obs::kSpanPruneTime) {
      EXPECT_EQ(IntAttribute(span, "workers"), 4);
      EXPECT_EQ(IntAttribute(span, "pruned"), stats.pruned_time);
      EXPECT_GE(IntAttribute(span, "cpu_us"), span.duration_us);
    }
    if (span.name == obs::kSpanPruneAvailability) {
      EXPECT_EQ(IntAttribute(span, "workers"), 4);
      EXPECT_EQ(IntAttribute(span, "pruned"), stats.pruned_availability);
    }
  }
  EXPECT_EQ(count_by_name[std::string(obs::kSpanPruneTime)], 1);
  EXPECT_EQ(count_by_name[std::string(obs::kSpanPruneAvailability)], 1);
  EXPECT_EQ(count_by_name[std::string(obs::kSpanExpandLoop)], 1);
  ExpectStageSpansNest(spans);
}

// Serial runs share the kernel and the span layout: their stage spans sit
// inside expand/loop too, so no time is counted under two parents.
TEST(ParallelTraceTest, SerialStageSpansNestUnderExpandLoop) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  Term end = data::EvaluationEndTerm();
  ExplorationOptions options;
  {
    obs::Tracer tracer;
    obs::ScopedTracer install(&tracer);
    EnrollmentStatus start{data::StartTermForSpan(4),
                           dataset.catalog.NewCourseSet()};
    auto result = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                          start, end, *dataset.cs_major,
                                          options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GT(result->stats.TotalPruned(), 0);
    SCOPED_TRACE("serial goal-driven run");
    ExpectStageSpansNest(tracer.Spans());
  }
  {
    obs::Tracer tracer;
    obs::ScopedTracer install(&tracer);
    EnrollmentStatus start{data::StartTermForSpan(5),
                           dataset.catalog.NewCourseSet()};
    TimeRanking ranking;
    auto result = GenerateRankedPaths(dataset.catalog, dataset.schedule,
                                      start, end, *dataset.cs_major, ranking,
                                      10, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->paths.size(), 10u);
    SCOPED_TRACE("ranked run");
    ExpectStageSpansNest(tracer.Spans());
  }
}

// The shards' merge is its own row in a traced parallel run, inside the
// expansion it finishes; a serial run has nothing to merge.
TEST(ParallelTraceTest, CanonicalizeIsOneSpanUnderExpandLoop) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  const Term end = data::EvaluationEndTerm();
  EnrollmentStatus start{data::StartTermForSpan(4),
                         dataset.catalog.NewCourseSet()};
  for (const int threads : {0, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    for (const bool goal_driven : {true, false}) {
      SCOPED_TRACE(goal_driven ? "goal-driven" : "deadline-driven");
      ExplorationOptions options;
      options.num_threads = threads;
      obs::Tracer tracer;
      int64_t nodes = 0;
      {
        obs::ScopedTracer install(&tracer);
        auto result =
            goal_driven
                ? GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                          start, end, *dataset.cs_major,
                                          options)
                : GenerateDeadlineDrivenPaths(dataset.catalog,
                                              dataset.schedule, start, end,
                                              options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        nodes = result->stats.nodes_created;
      }
      const std::vector<obs::SpanRecord> spans = tracer.Spans();
      std::map<int64_t, std::string> name_by_id;
      for (const obs::SpanRecord& span : spans) {
        name_by_id[span.span_id] = span.name;
      }
      int merges = 0;
      for (const obs::SpanRecord& span : spans) {
        if (span.name != obs::kSpanGraphCanonicalize) continue;
        ++merges;
        EXPECT_EQ(name_by_id[span.parent_id], obs::kSpanExpandLoop);
        EXPECT_EQ(IntAttribute(span, "nodes"), nodes);
        EXPECT_EQ(IntAttribute(span, "shards"), threads);
      }
      EXPECT_EQ(merges, threads == 0 ? 0 : 1);
      if (goal_driven) ExpectStageSpansNest(spans);
    }
  }
}

#endif  // COURSENAV_TRACING

TEST(WorkStealingQueuesTest, LocalPopIsLifo) {
  exec::WorkStealingQueues<int> queues(2);
  queues.Push(0, 1);
  queues.Push(0, 2);
  queues.Push(0, 3);
  int out = 0;
  ASSERT_TRUE(queues.TryPopLocal(0, &out));
  EXPECT_EQ(out, 3);
  ASSERT_TRUE(queues.TryPopLocal(0, &out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queues.TryPopLocal(1, &out));
}

TEST(WorkStealingQueuesTest, StealTakesHalfFromTheFront) {
  exec::WorkStealingQueues<int> queues(2);
  for (int i = 1; i <= 4; ++i) queues.Push(0, i);
  int out = 0;
  // Thief 1 steals ceil(4/2) = 2 items from the front: {1, 2}. The first
  // (oldest, shallowest) comes back directly; the second refills the
  // thief's deque.
  ASSERT_TRUE(queues.TrySteal(1, &out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(queues.TryPopLocal(1, &out));
  EXPECT_EQ(out, 2);
  // The victim keeps its back half, still in LIFO order.
  ASSERT_TRUE(queues.TryPopLocal(0, &out));
  EXPECT_EQ(out, 4);
  ASSERT_TRUE(queues.TryPopLocal(0, &out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(queues.TrySteal(1, &out));
}

TEST(WorkStealingQueuesTest, ConcurrentPushPopStealLosesNothing) {
  constexpr int kWorkers = 4;
  constexpr int kItemsPerWorker = 5000;
  exec::WorkStealingQueues<int> queues(kWorkers);
  exec::WorkerPool pool(kWorkers);
  std::atomic<int64_t> sum{0};
  std::atomic<int> popped{0};

  pool.Run([&](int worker) {
    // Each worker seeds its own deque, then everyone drains every deque
    // via local pops and steals until all items are accounted for.
    for (int i = 0; i < kItemsPerWorker; ++i) {
      queues.Push(worker, worker * kItemsPerWorker + i);
    }
    int item = 0;
    while (popped.load(std::memory_order_acquire) <
           kWorkers * kItemsPerWorker) {
      if (queues.TryPopLocal(worker, &item) ||
          queues.TrySteal(worker, &item)) {
        sum.fetch_add(item, std::memory_order_relaxed);
        popped.fetch_add(1, std::memory_order_acq_rel);
      }
    }
  });

  const int64_t n = int64_t{kWorkers} * kItemsPerWorker;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// Workers push batches of new items while everyone pops and steals, the
// way expansions publish their children.
TEST(WorkStealingQueuesTest, BatchedPushesWhileStealingPopEachItemOnce) {
  constexpr int kWorkers = 4;
  constexpr int kItemsPerWorker = 6000;
  constexpr int kItems = kWorkers * kItemsPerWorker;
  exec::WorkStealingQueues<int> queues(kWorkers);
  exec::WorkerPool pool(kWorkers);
  std::vector<std::atomic<int>> pops(kItems);
  std::atomic<int> popped{0};

  pool.Run([&](int worker) {
    int next = worker * kItemsPerWorker;
    const int last = next + kItemsPerWorker;
    std::vector<int> batch;
    int item = 0;
    while (popped.load(std::memory_order_acquire) < kItems) {
      if (next < last) {
        // Batches of 1..13 items, interleaved with this worker's pops.
        batch.clear();
        const int size = std::min(last - next, 1 + next % 13);
        for (int i = 0; i < size; ++i) batch.push_back(next++);
        queues.Push(worker, std::span<int>(batch));
      }
      if (queues.TryPopLocal(worker, &item) ||
          queues.TrySteal(worker, &item)) {
        pops[static_cast<size_t>(item)].fetch_add(1,
                                                  std::memory_order_relaxed);
        popped.fetch_add(1, std::memory_order_acq_rel);
      }
    }
  });

  int wrong = 0;
  for (const std::atomic<int>& count : pops) {
    if (count.load() != 1) ++wrong;
  }
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(popped.load(), kItems);
}

TEST(WorkerPoolTest, RunsBodyOnEveryWorkerEachRound) {
  exec::WorkerPool pool(3);
  EXPECT_EQ(pool.size(), 3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> mask{0};
    pool.Run([&](int worker) { mask.fetch_or(1 << worker); });
    EXPECT_EQ(mask.load(), 0b111);
  }
}

TEST(WorkerPoolTest, ClampsThreadCountToAtLeastOne) {
  exec::WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<int> calls{0};
  pool.Run([&](int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
}

}  // namespace
}  // namespace coursenav
