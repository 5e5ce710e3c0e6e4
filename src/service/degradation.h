#ifndef COURSENAV_SERVICE_DEGRADATION_H_
#define COURSENAV_SERVICE_DEGRADATION_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/counting.h"
#include "service/navigator.h"
#include "util/json.h"
#include "util/result.h"

namespace coursenav {

// DegradationLevel, DegradationPolicy, DegradationLevelName, and
// ParseDegradationLevel live in plan/request.h (re-exported through
// service/navigator.h): a degradation policy is part of a declarative
// ExplorationRequest, and each rung is a plan rewrite
// (plan::RewriteForDegradation). This header keeps the ladder *driver* —
// the budget-slicing loop and its report.

/// What happened on one rung of the ladder.
struct DegradationRung {
  DegradationLevel level = DegradationLevel::kFull;
  /// True when the rung was actually run (false: inapplicable or no budget
  /// remained for it).
  bool attempted = false;
  /// OK when this rung served the response; otherwise why it fell.
  Status outcome;
  /// Wall-clock seconds this rung was granted and consumed.
  double seconds_budget = 0.0;
  double seconds_spent = 0.0;
  /// Graph nodes (or distinct counted statuses) the rung produced.
  int64_t nodes_created = 0;
};

/// The annotation a degraded response carries instead of a bare error:
/// which level finally answered, and what every higher rung cost before it
/// fell.
struct DegradationReport {
  /// The level whose answer is in the response. When `exhausted` is true,
  /// this is the level that produced the best partial answer instead.
  DegradationLevel level_served = DegradationLevel::kFull;
  /// True when the response is anything less than the full request.
  bool degraded = false;
  /// True when no rung completed: the response holds the best partial
  /// answer the ladder salvaged (a truncated graph or partial top-k).
  bool exhausted = false;
  std::vector<DegradationRung> rungs;

  std::string ToString() const;

  /// Structured form for the JSON exporter (`--stats-format=json`, trace
  /// attachments, service responses). Round-trips through FromJson.
  JsonValue ToJson() const;

  /// Parses a report serialized by ToJson; InvalidArgument/ParseError on
  /// malformed input.
  static Result<DegradationReport> FromJson(const JsonValue& json);
};

/// A response that survived the ladder. The answer is `count` when the
/// kCountOnly rung served, and `response` when a materializing rung did;
/// `response` is null when no materializing rung produced anything. When
/// `report.exhausted` is set the answer is partial (budget-truncated)
/// rather than complete.
///
/// `response` is the navigator's shared, immutable answer: a rung served
/// from the request cache points at the stored object itself, which this
/// pointer keeps alive after the cache evicts or drops it.
struct DegradedResponse {
  std::shared_ptr<const ExplorationResponse> response;
  std::optional<CountingResult> count;
  DegradationReport report;
};

/// The default ladder for a task type: deadline-driven requests fall back
/// to counting; goal-driven insert an aggressive-pruning retry; ranked
/// retry with a smaller k first.
std::vector<DegradationLevel> DefaultLadder(TaskType type);

/// Explore with graceful degradation: runs `request` down the ladder,
/// splitting the request's time budget across rungs per `policy`, and
/// returns the first rung's complete answer — or, when every rung falls,
/// the best partial answer — always annotated with a DegradationReport.
///
/// Only budget verdicts (ResourceExhausted, DeadlineExceeded) trigger
/// descent. Cancellation and request errors (bad goal, bad window...)
/// propagate immediately as bare Status — degrading a cancelled or
/// malformed request would answer a question nobody is asking.
///
/// `outcome` (optional) reports how the navigator's request cache
/// participated in the rung that served the answer: kHit/kMiss from a
/// materializing rung's Explore, kBypass when the count-only rung served
/// (counting bypasses the result tier), kDisabled when the navigator has
/// no cache wired.
Result<DegradedResponse> ExploreWithDegradation(
    const CourseNavigator& navigator, const ExplorationRequest& request,
    const DegradationPolicy& policy,
    cache::CacheOutcome* outcome = nullptr);

/// Policy-less overload: honors the request's own declarative
/// `request.degradation` policy when one is set, and falls back to the
/// default policy otherwise — so a JSON request file fully describes how
/// its answer may degrade.
Result<DegradedResponse> ExploreWithDegradation(
    const CourseNavigator& navigator, const ExplorationRequest& request,
    cache::CacheOutcome* outcome = nullptr);

}  // namespace coursenav

#endif  // COURSENAV_SERVICE_DEGRADATION_H_
