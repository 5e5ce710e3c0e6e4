// Deterministic chaos tests: sweep fault-injection seeds over the
// exploration stack and assert every outcome is a valid result, a
// well-formed degraded result, or a clean Status error — never a crash, a
// hang, or a half-written structure. Failures replay from their seed alone.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/counting.h"
#include "core/goal_generator.h"
#include "data/brandeis_cs.h"
#include "obs/metrics.h"
#include "service/degradation.h"
#include "service/session.h"
#include "tests/test_util.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"

namespace coursenav {
namespace {

FaultConfig ChaosConfig(uint64_t seed) {
  FaultConfig config;
  config.seed = seed;
  config.site_probability[std::string(kFaultSiteGraphAlloc)] = 0.02;
  config.site_probability[std::string(kFaultSiteCountAlloc)] = 0.02;
  config.site_probability[std::string(kFaultSiteClockSkew)] = 0.05;
  config.site_probability[std::string(kFaultSiteScheduleChurn)] = 0.01;
  config.clock_skew_seconds = 0.01;
  return config;
}

bool IsCleanOutcome(const Status& status) {
  return status.ok() || status.IsResourceExhausted() ||
         status.IsDeadlineExceeded();
}

TEST(FaultInjectorTest, DecisionsAreDeterministicInTheSeed) {
  std::vector<bool> first, second;
  for (int run = 0; run < 2; ++run) {
    FaultInjector injector(ChaosConfig(42));
    std::vector<bool>& out = (run == 0) ? first : second;
    for (int i = 0; i < 1000; ++i) {
      out.push_back(injector.ShouldInject(kFaultSiteGraphAlloc));
      out.push_back(injector.ShouldInject(kFaultSiteClockSkew));
    }
  }
  EXPECT_EQ(first, second);
  // And different seeds produce different patterns.
  FaultInjector other(ChaosConfig(43));
  std::vector<bool> third;
  for (int i = 0; i < 1000; ++i) {
    third.push_back(other.ShouldInject(kFaultSiteGraphAlloc));
    third.push_back(other.ShouldInject(kFaultSiteClockSkew));
  }
  EXPECT_NE(first, third);
}

TEST(FaultInjectorTest, ProbabilityEndpointsAreExact) {
  FaultConfig config;
  config.seed = 7;
  config.site_probability["always"] = 1.0;
  config.site_probability["never"] = 0.0;
  FaultInjector injector(config);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(injector.ShouldInject("always"));
    EXPECT_FALSE(injector.ShouldInject("never"));
    EXPECT_FALSE(injector.ShouldInject("unconfigured/site"));
  }
  EXPECT_EQ(injector.decisions("always"), 100);
  EXPECT_EQ(injector.fired("always"), 100);
  EXPECT_EQ(injector.fired("never"), 0);
}

TEST(FaultInjectorTest, FiringRateTracksProbability) {
  FaultConfig config;
  config.seed = 99;
  config.site_probability["coin"] = 0.5;
  FaultInjector injector(config);
  for (int i = 0; i < 10000; ++i) (void)injector.ShouldInject("coin");
  // A fair deterministic hash should land well inside [0.45, 0.55].
  EXPECT_GT(injector.fired("coin"), 4500);
  EXPECT_LT(injector.fired("coin"), 5500);
}

TEST(FaultInjectorTest, ScopedInjectionInstallsAndRestores) {
  EXPECT_EQ(ActiveFaultInjector(), nullptr);
  {
    ScopedFaultInjection outer(ChaosConfig(1));
    EXPECT_EQ(ActiveFaultInjector(), &outer.injector());
    {
      ScopedFaultInjection inner(ChaosConfig(2));
      EXPECT_EQ(ActiveFaultInjector(), &inner.injector());
    }
    EXPECT_EQ(ActiveFaultInjector(), &outer.injector());
  }
  EXPECT_EQ(ActiveFaultInjector(), nullptr);
}

TEST(FaultInjectorTest, ClockSkewAcceleratesDeadlines) {
  FaultConfig config;
  config.seed = 5;
  config.site_probability[std::string(kFaultSiteClockSkew)] = 1.0;
  config.clock_skew_seconds = 1000.0;
  ScopedFaultInjection scope(config);
  DeadlineBudget budget(/*max_seconds=*/100.0);
  // The first forced check injects 1000s of perceived elapsed time, blowing
  // the 100s deadline instantly.
  EXPECT_TRUE(budget.CheckNow().IsDeadlineExceeded());
}

// The acceptance sweep: 200 seeds across generation, counting, degradation,
// and session interaction, all with faults armed. Every seed must produce a
// structurally sound outcome.
TEST(ChaosTest, TwoHundredSeedSweep) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  Term end = data::EvaluationEndTerm();
  EnrollmentStatus start{data::StartTermForSpan(4),
                         dataset.catalog.NewCourseSet()};

  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScopedFaultInjection scope(ChaosConfig(seed));

    ExplorationOptions options;
    options.limits.max_nodes = 2000;
    options.limits.max_seconds = 0.05;

    // Generation: ok() with a clean termination and a well-formed graph.
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

    // Counting: a count or a clean budget error, nothing else.
    auto counted = CountGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                        start, end, *dataset.cs_major,
                                        options);
    EXPECT_TRUE(IsCleanOutcome(counted.status()))
        << counted.status().ToString();

    // Degradation: a served response with a coherent report, or a clean
    // budget error when even the last rung dies.
    CourseNavigator navigator(&dataset.catalog, &dataset.schedule);
    ExplorationRequest request;
    request.start = start;
    request.end_term = end;
    request.type = TaskType::kGoalDriven;
    request.goal = dataset.cs_major;
    request.options = options;
    auto degraded = ExploreWithDegradation(navigator, request);
    if (degraded.ok()) {
      EXPECT_FALSE(degraded->report.rungs.empty());
      EXPECT_TRUE((degraded->response != nullptr &&
                   (degraded->response->generation.has_value() ||
                    degraded->response->ranked.has_value())) ||
                  degraded->count.has_value());
      if (degraded->response != nullptr &&
          degraded->response->generation.has_value()) {
        const LearningGraph& graph = degraded->response->generation->graph;
        EXPECT_EQ(testing_util::StructureErrors(graph, dataset.catalog,
                                                dataset.schedule,
                                                request.options.avoid_courses),
                  "");
      }
    } else {
      EXPECT_TRUE(IsCleanOutcome(degraded.status()))
          << degraded.status().ToString();
    }
  }
}

// Schedule churn perturbs the offerings a session sees; its command surface
// must keep returning clean statuses and never corrupt session state.
TEST(ChaosTest, SessionSurvivesScheduleChurn) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  for (uint64_t seed = 0; seed < 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultConfig config;
    config.seed = seed;
    config.site_probability[std::string(kFaultSiteScheduleChurn)] = 0.3;
    ScopedFaultInjection scope(config);

    ExplorationOptions options;
    options.limits.max_nodes = 2000;
    options.limits.max_seconds = 0.05;
    ExplorationSession session(&dataset.catalog, &dataset.schedule,
                               dataset.cs_major,
                               {data::StartTermForSpan(4),
                                dataset.catalog.NewCourseSet()},
                               data::EvaluationEndTerm(), options);

    DynamicBitset electable = session.CurrentOptions();
    EXPECT_LE(electable.count(), dataset.catalog.size());

    // Commit whatever churn left electable; under churn the selection may
    // be rejected — that must be a clean InvalidArgument, not a crash.
    std::vector<std::string> codes;
    electable.ForEach([&](int id) {
      if (codes.size() < 2) codes.push_back(dataset.catalog.course(id).code);
    });
    if (!codes.empty()) {
      Status committed = session.Commit(codes);
      EXPECT_TRUE(committed.ok() || committed.IsInvalidArgument())
          << committed.ToString();
      if (committed.ok()) {
        EXPECT_TRUE(session.Undo().ok());
      }
    }

    auto remaining = session.RemainingGoalPaths();
    EXPECT_TRUE(IsCleanOutcome(remaining.status()))
        << remaining.status().ToString();
  }
}

// The graph-allocation seam must leave the arena well-formed: the failing
// node is still materialized, and the generator stops at its next check.
TEST(ChaosTest, AllocationFaultsYieldResourceExhaustedPartialGraphs) {
  data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  FaultConfig config;
  config.seed = 11;
  config.site_probability[std::string(kFaultSiteGraphAlloc)] = 1.0;
  ScopedFaultInjection scope(config);

  ExplorationOptions options;
  EnrollmentStatus start{data::StartTermForSpan(6),
                         dataset.catalog.NewCourseSet()};
  auto result = GenerateGoalDrivenPaths(dataset.catalog, dataset.schedule,
                                        start, data::EvaluationEndTerm(),
                                        *dataset.cs_major, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->termination.IsResourceExhausted())
      << result->termination.ToString();
  EXPECT_NE(result->termination.message().find("fault injection"),
            std::string::npos);
  EXPECT_EQ(testing_util::StructureErrors(result->graph, dataset.catalog,
                                          dataset.schedule,
                                          options.avoid_courses), "");
}

// The metrics registry's contract under fire: interning from many threads
// hands back the same slot, updates through the handles are lock-free and
// lossless, and snapshots taken mid-churn never tear (asan/ubsan runs of
// this test are the real assertion for the memory model).
TEST(ChaosTest, MetricRegistrySurvivesConcurrentChurn) {
  obs::MetricRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 2'000;
  // A name pool wide enough to force interleaved interning and deque
  // growth, narrow enough that every thread hits every name.
  const std::vector<std::string> names = {"alpha_total", "beta_total",
                                          "gamma_total", "delta_total",
                                          "epsilon_total"};

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const obs::MetricSnapshot& snapshot : registry.Snapshot()) {
        // Values only ever grow; a torn read would trip asan/ubsan or
        // produce garbage counts far above the final total.
        EXPECT_GE(snapshot.value, 0);
      }
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &names, t] {
      for (int i = 0; i < kIterations; ++i) {
        const std::string& name = names[static_cast<size_t>(
            (t + i) % static_cast<int>(names.size()))];
        registry.GetCounter(name)->Increment();
        registry.GetGauge(name)->UpdateMax(i);
        registry.GetHistogram(name)->Observe(i);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();

  // Exactly-once accounting: every increment landed somewhere, none twice.
  int64_t total_counts = 0;
  int64_t total_observations = 0;
  for (const std::string& name : names) {
    total_counts += registry.GetCounter(name)->Value();
    total_observations += registry.GetHistogram(name)->Count();
    EXPECT_EQ(registry.GetGauge(name)->Value(), kIterations - 1);
  }
  EXPECT_EQ(total_counts, int64_t{kThreads} * kIterations);
  EXPECT_EQ(total_observations, int64_t{kThreads} * kIterations);
}

}  // namespace
}  // namespace coursenav
