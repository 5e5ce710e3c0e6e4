// Cache correctness under schedule-churn fault injection (ctest labels
// `cache` + `chaos`): 200 deterministic seeds, each asserting the two
// laws that make caching safe to leave on in production:
//
//  1. No stale answer, ever: any Execute that reports a cache hit is
//     byte-identical to the clean (no-injection) run of the same request.
//     This holds because a run during which any churn fault fired
//     observed a perturbed world AND rotated the epoch token (the token
//     folds the injector's fired-count), so its insert no-ops; only runs
//     that observed zero churn — i.e. recorded truth — are ever stored.
//  2. Post-churn recovery matches a cold rebuild byte-for-byte: once the
//     injection scope exits, the first request is cold (the activation id
//     left the token) and equals the clean reference exactly; the second
//     is a hit that returns that same stored object.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cache/request_cache.h"
#include "plan/executor.h"
#include "plan/planner.h"
#include "plan/request.h"
#include "expr/parser.h"
#include "requirements/expr_goal.h"
#include "tests/test_util.h"
#include "util/fault_injection.h"

namespace coursenav {
namespace {

using cache::CacheOutcome;
using cache::RequestCache;
using testing_util::Figure3Fixture;
using testing_util::GraphDifference;
using testing_util::StatsDifference;

ExplorationRequest Figure3Request(const Figure3Fixture& fixture) {
  ExplorationRequest request;
  request.start = fixture.FreshStudent();
  request.end_term = fixture.spring13;
  request.type = TaskType::kGoalDriven;
  request.goal_spec = "11A and 29A and 21A";
  auto parsed = expr::ParseBoolExpr(request.goal_spec);
  if (!parsed.ok()) std::abort();
  auto goal = ExprGoal::Create(*parsed, fixture.catalog);
  if (!goal.ok()) std::abort();
  request.goal = *goal;
  request.options.num_threads = 1;
  return request;
}

FaultConfig ChurnConfig(uint64_t seed) {
  FaultConfig config;
  config.seed = seed;
  config.site_probability[std::string(kFaultSiteScheduleChurn)] = 0.3;
  return config;
}

/// "" when `response` is byte-identical to `reference` (graph, stats —
/// everything but wall time); otherwise the first difference.
std::string ResponseDifference(const ExplorationResponse& reference,
                               const ExplorationResponse& response) {
  if (!response.generation.has_value()) return "no generation result";
  std::string diff = GraphDifference(reference.generation->graph,
                                     response.generation->graph);
  if (!diff.empty()) return diff;
  return StatsDifference(reference.generation->stats,
                         response.generation->stats);
}

TEST(CacheChaosTest, NoStaleEpochResultAcrossTwoHundredSeeds) {
  Figure3Fixture fixture;

  // The clean reference: what the request answers in a fault-free world.
  auto lowered = plan::Planner::Lower(Figure3Request(fixture));
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  plan::Executor executor(&fixture.catalog, &fixture.schedule);
  auto reference = executor.Run(*lowered);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->generation.has_value());
  ASSERT_TRUE(reference->generation->termination.ok());

  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RequestCache cache;  // Fresh tiers per seed; the epoch registry is
                         // process-global and needs no reset.
    {
      ScopedFaultInjection chaos(ChurnConfig(seed));
      for (int i = 0; i < 6; ++i) {
        SCOPED_TRACE("churn query " + std::to_string(i));
        CacheOutcome outcome = CacheOutcome::kDisabled;
        auto response = cache.Execute(fixture.catalog, fixture.schedule,
                                      Figure3Request(fixture), &outcome);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        // Law 1: a hit is never a stale or churn-perturbed answer.
        if (outcome == CacheOutcome::kHit) {
          EXPECT_EQ(ResponseDifference(*reference, **response), "");
        }
      }
    }

    // Law 2: after the scope, the injection epoch is unreachable. The
    // first query recomputes from recorded truth...
    CacheOutcome outcome = CacheOutcome::kDisabled;
    auto rebuilt = cache.Execute(fixture.catalog, fixture.schedule,
                                 Figure3Request(fixture), &outcome);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(outcome, CacheOutcome::kMiss);
    EXPECT_EQ(ResponseDifference(*reference, **rebuilt), "");

    // ...and the second is served warm: the rebuilt answer itself.
    auto warm = cache.Execute(fixture.catalog, fixture.schedule,
                              Figure3Request(fixture), &outcome);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(outcome, CacheOutcome::kHit);
    EXPECT_EQ(*warm, *rebuilt);
  }
}

}  // namespace
}  // namespace coursenav
