#ifndef COURSENAV_PLAN_REQUEST_H_
#define COURSENAV_PLAN_REQUEST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "catalog/term.h"
#include "core/enrollment.h"
#include "core/generation.h"
#include "core/options.h"
#include "core/pruning.h"
#include "core/ranked_generator.h"
#include "core/ranking.h"
#include "requirements/goal.h"
#include "util/json.h"
#include "util/result.h"

namespace coursenav {

/// The exploration task type (Section 4's three algorithm families).
enum class TaskType { kDeadlineDriven, kGoalDriven, kRanked };

/// Canonical wire name of a task type ("deadline" / "goal" / "ranked").
std::string_view TaskTypeName(TaskType type);

/// Parses a TaskTypeName back to the enum.
Result<TaskType> ParseTaskType(std::string_view name);

/// The graceful-degradation ladder: each level trades answer fidelity for
/// survival under a budget. Rungs are tried top to bottom until one
/// completes inside its slice of the request's budget.
enum class DegradationLevel {
  /// The request exactly as posed.
  kFull = 0,
  /// Same task with every pruning strategy forced on (and, optionally, a
  /// tighter node cap): the cheapest run that still materializes the same
  /// answer set for pruning-correct goals.
  kAggressivePruning = 1,
  /// Ranked top-k with a reduced k: a handful of best plans instead of the
  /// full graph. Requires a goal and a ranking.
  kRankedSmallK = 2,
  /// Term-layered path counting only: "how many futures remain" without
  /// materializing any of them — the cheapest nonempty answer.
  kCountOnly = 3,
};

std::string_view DegradationLevelName(DegradationLevel level);

/// Parses the canonical rung-level name ("full", "aggressive-pruning",
/// "ranked-small-k", "count-only") back to the enum.
Result<DegradationLevel> ParseDegradationLevel(std::string_view name);

/// Tuning for the degradation ladder (service-layer
/// ExploreWithDegradation); carried declaratively on an
/// ExplorationRequest so a request file fully describes how it may
/// degrade. The planner rewrites a request for each rung — see
/// plan/planner.h RewriteForDegradation.
struct DegradationPolicy {
  /// Rungs to try, in order. Empty = the default ladder for the request's
  /// task type (see DefaultLadder in service/degradation.h).
  std::vector<DegradationLevel> ladder;

  /// Fraction of the *remaining* time budget granted to each rung except
  /// the last, which gets everything left. 0.5 means: full request gets
  /// half the deadline, the first fallback half of what remains, and so
  /// on — the ladder as a whole never exceeds the caller's deadline.
  double time_fraction = 0.5;

  /// k used by the kRankedSmallK rung (never more than the request's k).
  int degraded_top_k = 3;

  /// Node cap for degraded (non-kFull) materializing rungs; 0 = inherit
  /// the request's limit.
  int64_t degraded_max_nodes = 0;

  /// Distinct-status cap for the kCountOnly rung; 0 = inherit. Counting
  /// holds two semesters of statuses rather than materialized nodes, so
  /// it usually deserves a far larger cap than the graph rungs.
  int64_t count_max_nodes = 0;
};

/// Declarative post-generation path filters for ranked requests (the
/// paper's Section 6 "customizable filters"), applied by the executor's
/// Filter stage after the top-k Limit — so fewer than k paths may
/// survive, same as filtering the CLI's output by hand.
struct PathFilterSpec {
  /// Per-semester workload ceiling in weekly hours; 0 = off.
  double max_term_hours = 0.0;
  /// Maximum skipped (empty-selection) semesters; -1 = off.
  int max_skips = -1;

  bool active() const { return max_term_hours > 0.0 || max_skips >= 0; }
};

/// A complete, declarative exploration request — the paper's front-end
/// parameters (Figure 2): enrollment status, horizon, goal, constraints,
/// ranking, and how the answer may degrade under budget pressure. This is
/// the single input of the planner/executor pipeline (plan/planner.h);
/// every public entry point — the Generate*Paths facades, the
/// CourseNavigator service, the CLI, and the degradation ladder — lowers
/// to one of these.
///
/// JSON round-trip: ExplorationRequestFromJson / ExplorationRequestToJson
/// below. The resolved `goal` / `ranking` pointers are the executable
/// form; `goal_spec` / `ranking_spec` are their declarative sources (a
/// boolean course expression and a ranking name), kept alongside so a
/// parsed request serializes back losslessly. Requests built in code with
/// bespoke Goal / RankingFunction objects have empty specs and cannot be
/// serialized (ToJson then fails).
struct ExplorationRequest {
  /// Current enrollment status (semester + completed courses).
  EnrollmentStatus start;
  /// The end semester `d` (exploration horizon).
  Term end_term;
  TaskType type = TaskType::kDeadlineDriven;
  /// Required for kGoalDriven and kRanked.
  std::shared_ptr<const Goal> goal;
  /// Required for kRanked.
  std::shared_ptr<const RankingFunction> ranking;
  /// Number of top paths for kRanked.
  int top_k = 10;
  /// Student constraints (max load, avoided courses, budgets, threads).
  ExplorationOptions options;
  /// Pruning configuration for goal-driven and ranked tasks.
  GoalDrivenConfig config;
  /// Post-rank path filters (kRanked only).
  PathFilterSpec filters;
  /// How the request may degrade under budget pressure; consulted by
  /// ExploreWithDegradation when the caller passes no explicit policy.
  std::optional<DegradationPolicy> degradation;

  /// Declarative sources for JSON round-tripping (see above).
  std::string goal_spec;
  std::string ranking_spec;
};

/// The union of the pipeline's outputs; exactly one of
/// `generation`/`ranked` is populated, matching the request's task type.
struct ExplorationResponse {
  std::optional<GenerationResult> generation;  // deadline- or goal-driven
  std::optional<RankedResult> ranked;          // ranked top-k

  /// For ranked responses whose request carried active filters: how many
  /// paths the search emitted before the Filter stage, and the filter's
  /// human-readable description. `paths_before_filters` is -1 when no
  /// filter ran.
  int64_t paths_before_filters = -1;
  std::string filter_description;
};

/// Serializes a request to its canonical JSON document. Fails
/// (InvalidArgument) when the request holds a resolved goal or ranking
/// with no declarative spec — such requests exist only in memory.
/// `catalog` maps course ids back to codes for the completed/avoid sets.
Result<JsonValue> ExplorationRequestToJson(const ExplorationRequest& request,
                                           const Catalog& catalog);

/// Parses a request document and resolves its specs against `catalog`:
/// `goal` becomes an ExprGoal compiled from `goal_spec`, `ranking` one of
/// the built-in rankings ("time", "workload", "bottleneck-workload") —
/// rankings that need external models (reliability) are not
/// JSON-constructible. The catalog must outlive the returned request.
///
/// Round-trip contract: FromJson(ToJson(r)) reproduces `r` field for
/// field, and ToJson(FromJson(j)) reproduces the canonical form of `j`.
Result<ExplorationRequest> ExplorationRequestFromJson(
    const JsonValue& json, const Catalog& catalog);

/// Strict structural check of a request document: every key at every level
/// must be one the round-trip schema knows. ExplorationRequestFromJson
/// itself is lax (it ignores unknown keys, so hand-written request files
/// keep working); the serving layer calls this first so a typo'd field
/// ("deadine_ms", "max_node") is a crisp rejection instead of a silently
/// ignored constraint.
Status ValidateRequestJsonSchema(const JsonValue& json);

}  // namespace coursenav

#endif  // COURSENAV_PLAN_REQUEST_H_
