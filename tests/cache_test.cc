// The process-wide epoch-keyed request cache's contracts (ctest label
// `cache`):
//
//  - Epoch identity: tokens are content-keyed (two identical datasets
//    share one, different datasets never do), rotate on Invalidate(), and
//    rotate per fault-injection scope and per fired churn event.
//  - Shared reuse: a warm Execute returns the very object the cold run
//    stored, at any thread count (the result key is thread- and
//    wall-clock-free), and that object matches a direct plan::Execute run.
//    A held response outlives Clear() and Invalidate() unchanged, and
//    concurrent readers may export one stored graph while the tier is
//    cleared under them.
//  - The byte bound charges a graph what its arenas allocate: a one-node
//    answer holds a whole node chunk.
//  - Only complete runs are stored: truncated runs reuse the plan tier
//    but never populate the result tier.
//  - In-memory-only requests (no declarative goal spec) bypass cleanly.
//  - Tiers are LRU within their configured bounds, with evictions
//    tallied.
//  - Invalidate() makes every derived entry unreachable.
//  - The goal-path-count tier is shared across sessions: one session's
//    miss is the next session's hit, surfaced through the per-session
//    cache_hits/cache_misses metrics.

#include "cache/request_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/epoch.h"
#include "catalog/term.h"
#include "data/brandeis_cs.h"
#include "expr/parser.h"
#include "graph/export.h"
#include "graph/learning_graph.h"
#include "obs/metrics.h"
#include "plan/executor.h"
#include "plan/request.h"
#include "requirements/expr_goal.h"
#include "service/session.h"
#include "tests/test_util.h"
#include "util/fault_injection.h"

namespace coursenav {
namespace {

using cache::CacheOutcome;
using cache::EpochRegistry;
using cache::RequestCache;
using testing_util::Figure3Fixture;
using testing_util::GraphDifference;
using testing_util::StatsDifference;

std::shared_ptr<const Goal> MakeExprGoal(const std::string& spec,
                                         const Catalog& catalog) {
  auto parsed = expr::ParseBoolExpr(spec);
  if (!parsed.ok()) std::abort();
  auto goal = ExprGoal::Create(*parsed, catalog);
  if (!goal.ok()) std::abort();
  return *goal;
}

/// A serializable goal-driven request over the Figure 3 fixture — the
/// cacheable shape (declarative spec alongside the resolved goal).
ExplorationRequest Figure3Request(const Figure3Fixture& fixture,
                                  int num_threads = 1) {
  ExplorationRequest request;
  request.start = fixture.FreshStudent();
  request.end_term = fixture.spring13;
  request.type = TaskType::kGoalDriven;
  request.goal_spec = "11A and 29A and 21A";
  request.goal = MakeExprGoal(request.goal_spec, fixture.catalog);
  request.options.num_threads = num_threads;
  return request;
}

int64_t CounterValue(const obs::MetricRegistry& registry,
                     std::string_view name) {
  for (const obs::MetricSnapshot& snapshot : registry.Snapshot()) {
    if (snapshot.name == name && snapshot.kind == obs::MetricKind::kCounter) {
      return snapshot.value;
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Epoch identity.
// ---------------------------------------------------------------------------

TEST(EpochTest, TokenIsContentKeyedNotPointerKeyed) {
  Figure3Fixture a;
  Figure3Fixture b;  // Same content, distinct objects at distinct addresses.
  cache::CatalogEpoch epoch_a =
      EpochRegistry::Global().Current(a.catalog, a.schedule);
  cache::CatalogEpoch epoch_b =
      EpochRegistry::Global().Current(b.catalog, b.schedule);
  EXPECT_EQ(epoch_a.token, epoch_b.token);
  EXPECT_EQ(epoch_a.content_hash, epoch_b.content_hash);

  data::BrandeisDataset brandeis = data::BuildBrandeisDataset();
  cache::CatalogEpoch other =
      EpochRegistry::Global().Current(brandeis.catalog, brandeis.schedule);
  EXPECT_NE(epoch_a.token, other.token);
  EXPECT_NE(epoch_a.content_hash, other.content_hash);
}

TEST(EpochTest, InvalidateRotatesOnlyTheTargetDataset) {
  Figure3Fixture fixture;
  data::BrandeisDataset brandeis = data::BuildBrandeisDataset();
  EpochRegistry& registry = EpochRegistry::Global();

  uint64_t before = registry.Current(fixture.catalog, fixture.schedule).token;
  uint64_t other_before =
      registry.Current(brandeis.catalog, brandeis.schedule).token;
  int64_t invalidations_before = registry.invalidations();

  registry.Invalidate(fixture.catalog, fixture.schedule);

  EXPECT_NE(registry.Current(fixture.catalog, fixture.schedule).token, before);
  EXPECT_EQ(registry.Current(brandeis.catalog, brandeis.schedule).token,
            other_before);
  EXPECT_EQ(registry.invalidations(), invalidations_before + 1);
}

TEST(EpochTest, InjectionScopesAndChurnEventsRotateTheToken) {
  Figure3Fixture fixture;
  EpochRegistry& registry = EpochRegistry::Global();
  uint64_t clean = registry.Current(fixture.catalog, fixture.schedule).token;

  FaultConfig config;
  config.seed = 7;
  config.site_probability[std::string(kFaultSiteScheduleChurn)] = 1.0;

  uint64_t first_scope = 0;
  {
    ScopedFaultInjection chaos(config);
    first_scope = registry.Current(fixture.catalog, fixture.schedule).token;
    EXPECT_NE(first_scope, clean);
    // Every fired churn fault rotates the token again.
    (void)fixture.schedule.OfferedIn(fixture.fall11);
    EXPECT_NE(registry.Current(fixture.catalog, fixture.schedule).token,
              first_scope);
  }
  {
    ScopedFaultInjection chaos(config);
    // A fresh scope — even with the same seed — is a fresh world: no two
    // activations ever share an epoch.
    EXPECT_NE(registry.Current(fixture.catalog, fixture.schedule).token,
              first_scope);
    EXPECT_NE(registry.Current(fixture.catalog, fixture.schedule).token,
              clean);
  }
  EXPECT_EQ(registry.Current(fixture.catalog, fixture.schedule).token, clean);
}

// ---------------------------------------------------------------------------
// Result reuse.
// ---------------------------------------------------------------------------

/// "" when `response` holds the same graph and stats as a direct,
/// uncached plan::Execute run of `request`; otherwise the first difference.
std::string DirectRunDifference(const Figure3Fixture& fixture,
                                const ExplorationRequest& request,
                                const ExplorationResponse& response) {
  auto direct = plan::Execute(fixture.catalog, fixture.schedule, request);
  if (!direct.ok()) return direct.status().ToString();
  if (!direct->generation.has_value() || !response.generation.has_value()) {
    return "no generation result";
  }
  std::string diff =
      GraphDifference(direct->generation->graph, response.generation->graph);
  if (!diff.empty()) return diff;
  return StatsDifference(direct->generation->stats, response.generation->stats);
}

/// The graph of a generation response to a Figure 3 request (which avoids
/// no course), exported as JSON text.
std::string ExportedGraph(const ExplorationResponse& response,
                          const Figure3Fixture& fixture) {
  return LearningGraphToJson(response.generation->graph, fixture.catalog,
                             fixture.schedule, std::nullopt)
      .Dump();
}

TEST(RequestCacheTest, MissThenByteIdenticalHitAcrossThreadCounts) {
  Figure3Fixture fixture;
  RequestCache cache;

  CacheOutcome outcome = CacheOutcome::kDisabled;
  auto cold = cache.Execute(fixture.catalog, fixture.schedule,
                            Figure3Request(fixture), &outcome);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  ASSERT_NE(*cold, nullptr);
  ASSERT_TRUE((*cold)->generation.has_value());

  // A hit hands back the object the miss stored.
  auto warm = cache.Execute(fixture.catalog, fixture.schedule,
                            Figure3Request(fixture), &outcome);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(outcome, CacheOutcome::kHit);
  EXPECT_EQ(*warm, *cold);

  // The result key is thread-free: a 4-thread ask is served from the same
  // canonical entry.
  auto threaded = cache.Execute(fixture.catalog, fixture.schedule,
                                Figure3Request(fixture, /*num_threads=*/4),
                                &outcome);
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
  EXPECT_EQ(outcome, CacheOutcome::kHit);
  EXPECT_EQ(*threaded, *cold);

  // That one object is what an uncached run computes at either count.
  for (int threads : {1, 4}) {
    ExplorationRequest direct = Figure3Request(fixture, threads);
    EXPECT_EQ(DirectRunDifference(fixture, direct, **cold), "") << threads;
  }

  cache::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.result_misses, 1);
  EXPECT_EQ(stats.result_hits, 2);
  EXPECT_EQ(stats.result_entries, 1u);
}

TEST(RequestCacheTest, HeldResponsesOutliveClearAndInvalidate) {
  Figure3Fixture fixture;
  RequestCache cache;

  auto held = cache.Execute(fixture.catalog, fixture.schedule,
                            Figure3Request(fixture));
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  const std::string exported = ExportedGraph(**held, fixture);

  cache.Clear();
  EXPECT_EQ(cache.Stats().result_entries, 0u);
  EXPECT_EQ(DirectRunDifference(fixture, Figure3Request(fixture), **held), "");

  // Refill, then rotate the epoch: the refilled entry becomes unreachable
  // while both responses stay readable.
  CacheOutcome outcome = CacheOutcome::kDisabled;
  auto refilled = cache.Execute(fixture.catalog, fixture.schedule,
                                Figure3Request(fixture), &outcome);
  ASSERT_TRUE(refilled.ok()) << refilled.status().ToString();
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  EXPECT_NE(*refilled, *held);
  cache.Invalidate(fixture.catalog, fixture.schedule);
  auto recomputed = cache.Execute(fixture.catalog, fixture.schedule,
                                  Figure3Request(fixture), &outcome);
  ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
  EXPECT_EQ(outcome, CacheOutcome::kMiss);

  for (const std::shared_ptr<const ExplorationResponse>& response :
       {*held, *refilled}) {
    EXPECT_EQ(DirectRunDifference(fixture, Figure3Request(fixture), *response),
              "");
    EXPECT_EQ(ExportedGraph(*response, fixture), exported);
  }
}

TEST(RequestCacheTest, ConcurrentReadersExportOneStoredGraphWhileCleared) {
  Figure3Fixture fixture;
  RequestCache cache;
  auto stored = cache.Execute(fixture.catalog, fixture.schedule,
                              Figure3Request(fixture));
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  const std::string expected = ExportedGraph(**stored, fixture);
  const ExplorationRequest request = Figure3Request(fixture);

  constexpr int kReaders = 4;
  constexpr int kRounds = 200;
  std::vector<int> mismatches(kReaders, 0);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < kRounds; ++i) {
        auto response =
            cache.Execute(fixture.catalog, fixture.schedule, request);
        if (!response.ok() ||
            ExportedGraph(**response, fixture) != expected) {
          ++mismatches[static_cast<size_t>(r)];
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kRounds; ++i) cache.Clear();
  });
  for (std::thread& thread : threads) thread.join();

  for (int r = 0; r < kReaders; ++r) EXPECT_EQ(mismatches[r], 0) << r;
  // The first reader's pointer kept its graph alive through every Clear().
  EXPECT_EQ(ExportedGraph(**stored, fixture), expected);
  EXPECT_GE(cache.Stats().result_hits, 1);
}

TEST(RequestCacheTest, OneNodeAnswerIsChargedItsNodeChunk) {
  Figure3Fixture fixture;
  RequestCache cache;

  // A student who already holds every goal course: the root is the goal.
  ExplorationRequest request = Figure3Request(fixture);
  for (CourseId course : {fixture.c11a, fixture.c29a, fixture.c21a}) {
    request.start.completed.set(course);
  }
  auto response = cache.Execute(fixture.catalog, fixture.schedule, request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ((*response)->generation->graph.num_nodes(), 1);
  ASSERT_EQ(cache.Stats().result_entries, 1u);

  const size_t node_chunk =
      ChunkedVector<LearningNode>::kChunkSize * sizeof(LearningNode);
  EXPECT_GE(cache.Stats().result_bytes, node_chunk);
  // MemoryUsage() stays the per-element budget estimate.
  EXPECT_LT((*response)->generation->graph.MemoryUsage(), node_chunk);
}

TEST(RequestCacheTest, TruncatedRunsAreNeverStored) {
  Figure3Fixture fixture;
  RequestCache cache;

  ExplorationRequest request = Figure3Request(fixture);
  request.options.limits.max_nodes = 2;  // Guarantees a truncated run.

  CacheOutcome outcome = CacheOutcome::kDisabled;
  auto first = cache.Execute(fixture.catalog, fixture.schedule, request,
                             &outcome);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  ASSERT_TRUE((*first)->generation.has_value());
  ASSERT_FALSE((*first)->generation->termination.ok());

  auto second = cache.Execute(fixture.catalog, fixture.schedule, request,
                              &outcome);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  // Still a miss: incomplete answers are never served from cache.
  EXPECT_EQ(outcome, CacheOutcome::kMiss);

  cache::CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.result_entries, 0u);
}

TEST(RequestCacheTest, InMemoryOnlyGoalBypasses) {
  Figure3Fixture fixture;
  RequestCache cache;

  ExplorationRequest request = Figure3Request(fixture);
  request.goal_spec.clear();  // Resolved goal without a declarative source.

  CacheOutcome outcome = CacheOutcome::kDisabled;
  auto response = cache.Execute(fixture.catalog, fixture.schedule, request,
                                &outcome);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(outcome, CacheOutcome::kBypass);

  cache::CacheStats stats = cache.Stats();
  EXPECT_GE(stats.bypasses, 1);
  EXPECT_EQ(stats.result_entries, 0u);
}

TEST(RequestCacheTest, TiersAreLruBounded) {
  Figure3Fixture fixture;
  cache::CacheConfig config;
  config.result_capacity = 2;
  RequestCache cache(config);

  const Term deadlines[] = {Term(Season::kSpring, 2012),
                            Term(Season::kFall, 2012),
                            Term(Season::kSpring, 2013)};
  for (const Term& deadline : deadlines) {
    ExplorationRequest request = Figure3Request(fixture);
    request.end_term = deadline;
    CacheOutcome outcome = CacheOutcome::kDisabled;
    auto response = cache.Execute(fixture.catalog, fixture.schedule, request,
                                  &outcome);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(outcome, CacheOutcome::kMiss);
  }

  cache::CacheStats stats = cache.Stats();
  EXPECT_LE(stats.result_entries, 2u);
  EXPECT_GE(stats.evictions, 1);

  // The least-recently-used entry (the first deadline) was evicted.
  ExplorationRequest request = Figure3Request(fixture);
  request.end_term = deadlines[0];
  CacheOutcome outcome = CacheOutcome::kDisabled;
  auto response = cache.Execute(fixture.catalog, fixture.schedule, request,
                                &outcome);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
}

TEST(RequestCacheTest, InvalidateForcesRecompute) {
  Figure3Fixture fixture;
  RequestCache cache;

  CacheOutcome outcome = CacheOutcome::kDisabled;
  ASSERT_TRUE(cache.Execute(fixture.catalog, fixture.schedule,
                            Figure3Request(fixture), &outcome)
                  .ok());
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  ASSERT_TRUE(cache.Execute(fixture.catalog, fixture.schedule,
                            Figure3Request(fixture), &outcome)
                  .ok());
  EXPECT_EQ(outcome, CacheOutcome::kHit);

  cache.Invalidate(fixture.catalog, fixture.schedule);

  auto recomputed = cache.Execute(fixture.catalog, fixture.schedule,
                                  Figure3Request(fixture), &outcome);
  ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  EXPECT_GE(cache.Stats().epoch_invalidations, 1);
}

// ---------------------------------------------------------------------------
// The shared goal-path-count tier.
// ---------------------------------------------------------------------------

TEST(CountCacheTest, CountsAreSharedAcrossSessions) {
  Figure3Fixture fixture;
  auto goal = ExprGoal::CompleteAll({"11A", "29A", "21A"}, fixture.catalog);
  ASSERT_TRUE(goal.ok());

  ExplorationSession first(&fixture.catalog, &fixture.schedule, *goal,
                           fixture.FreshStudent(), fixture.spring13);
  ExplorationSession second(&fixture.catalog, &fixture.schedule, *goal,
                            fixture.FreshStudent(), fixture.spring13);

  // The goal object is freshly allocated, so its pointer-keyed entries
  // cannot pre-exist in the process-wide cache: the first session's count
  // is a miss, and the second session's identical ask is a hit.
  auto cold = first.RemainingGoalPaths();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = second.RemainingGoalPaths();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(*cold, *warm);

  EXPECT_EQ(CounterValue(first.metrics(), obs::kMetricSessionCacheMisses), 1);
  EXPECT_EQ(CounterValue(first.metrics(), obs::kMetricSessionCacheHits), 0);
  EXPECT_EQ(CounterValue(second.metrics(), obs::kMetricSessionCacheHits), 1);
  EXPECT_EQ(CounterValue(second.metrics(), obs::kMetricSessionCacheMisses), 0);
}

}  // namespace
}  // namespace coursenav
