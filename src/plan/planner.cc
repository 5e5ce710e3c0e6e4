#include "plan/planner.h"

#include <algorithm>
#include <utility>

#include "core/parallel_bridge.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace coursenav::plan {

std::string_view OperatorKindName(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kSource:
      return "Source";
    case OperatorKind::kExpand:
      return "Expand";
    case OperatorKind::kPrune:
      return "Prune";
    case OperatorKind::kFilter:
      return "Filter";
    case OperatorKind::kRank:
      return "Rank";
    case OperatorKind::kLimit:
      return "Limit";
  }
  return "Unknown";
}

std::string ExplorationPlan::Describe() const {
  std::string out = StrFormat(
      "plan: %s exploration, %s\n",
      std::string(TaskTypeName(request.type)).c_str(),
      parallel ? StrFormat("parallel (%d workers)", workers).c_str()
               : "serial");
  for (const PlanOperator& op : ops) {
    out += StrFormat("  %s(%s)\n",
                     std::string(OperatorKindName(op.kind)).c_str(),
                     op.detail.c_str());
  }
  for (const std::string& note : notes) {
    out += "note: " + note + "\n";
  }
  return out;
}

namespace {

std::string PruneDetail(const GoalDrivenConfig& config) {
  std::vector<std::string> on;
  if (config.enable_time_pruning) on.push_back("time");
  if (config.enable_availability_pruning) on.push_back("availability");
  if (config.cache_availability_checks) on.push_back("cached");
  if (on.empty()) return "off";
  std::string detail;
  for (size_t i = 0; i < on.size(); ++i) {
    if (i > 0) detail += ", ";
    detail += on[i];
  }
  return detail;
}

std::string FilterDetail(const PathFilterSpec& filters) {
  std::string detail;
  if (filters.max_term_hours > 0.0) {
    detail += StrFormat("max_term_hours=%.1f", filters.max_term_hours);
  }
  if (filters.max_skips >= 0) {
    if (!detail.empty()) detail += ", ";
    detail += StrFormat("max_skips=%d", filters.max_skips);
  }
  return detail;
}

}  // namespace

Result<ExplorationPlan> Planner::Lower(const ExplorationRequest& request) {
  ExplorationPlan plan;
  plan.request = request;

  // The serial/parallel decision, made once for the whole pipeline. Ranked
  // search is inherently order-dependent (best-first frontier), so it
  // never parallelizes — but a caller asking for threads deserves to hear
  // that explicitly instead of a silent ignore.
  const bool wants_threads = request.options.num_threads != 0;
  if (request.type != TaskType::kRanked && wants_threads) {
    plan.parallel = true;
    plan.workers = internal::EffectiveWorkers(request.options.num_threads);
  }

  const std::string source_detail =
      StrFormat("start=%s, end=%s", request.start.term.ToString().c_str(),
                request.end_term.ToString().c_str());
  const std::string expand_detail =
      plan.parallel
          ? StrFormat("work-stealing frontier, %d workers", plan.workers)
          : "serial LIFO worklist";

  switch (request.type) {
    case TaskType::kDeadlineDriven:
      plan.ops.push_back({OperatorKind::kSource, source_detail});
      plan.ops.push_back({OperatorKind::kExpand, expand_detail});
      return plan;

    case TaskType::kGoalDriven:
      if (request.goal == nullptr) {
        return Status::InvalidArgument(
            "goal-driven exploration requires a goal");
      }
      plan.ops.push_back({OperatorKind::kSource, source_detail});
      plan.ops.push_back({OperatorKind::kExpand, expand_detail});
      plan.ops.push_back({OperatorKind::kPrune, PruneDetail(request.config)});
      return plan;

    case TaskType::kRanked: {
      if (request.goal == nullptr) {
        return Status::InvalidArgument("ranked exploration requires a goal");
      }
      if (request.ranking == nullptr) {
        return Status::InvalidArgument(
            "ranked exploration requires a ranking function");
      }
      if (wants_threads) {
        std::string note = StrFormat(
            "ranked runs serial: best-first top-k is order-dependent, "
            "ignoring num_threads=%d",
            request.options.num_threads);
        COURSENAV_LOG(kInfo) << note;
        plan.notes.push_back(std::move(note));
      }
      plan.ops.push_back({OperatorKind::kSource, source_detail});
      plan.ops.push_back(
          {OperatorKind::kExpand, "serial best-first frontier"});
      plan.ops.push_back({OperatorKind::kPrune, PruneDetail(request.config)});
      plan.ops.push_back(
          {OperatorKind::kRank, "ranking=" + request.ranking->name()});
      plan.ops.push_back(
          {OperatorKind::kLimit, StrFormat("k=%d", request.top_k)});
      if (request.filters.active()) {
        plan.ops.push_back(
            {OperatorKind::kFilter, FilterDetail(request.filters)});
      }
      return plan;
    }
  }
  return Status::InvalidArgument("unknown exploration task type");
}

Result<ExplorationRequest> RewriteForDegradation(
    const ExplorationRequest& request, DegradationLevel level,
    const DegradationPolicy& policy) {
  ExplorationRequest attempt = request;
  switch (level) {
    case DegradationLevel::kFull:
      break;
    case DegradationLevel::kAggressivePruning:
      if (request.goal == nullptr || request.type == TaskType::kRanked) {
        return Status::FailedPrecondition(
            "aggressive pruning needs a goal-driven request");
      }
      attempt.type = TaskType::kGoalDriven;
      attempt.config.enable_time_pruning = true;
      attempt.config.enable_availability_pruning = true;
      attempt.config.cache_availability_checks = true;
      break;
    case DegradationLevel::kRankedSmallK:
      if (request.goal == nullptr || request.ranking == nullptr) {
        return Status::FailedPrecondition(
            "ranked fallback needs a goal and a ranking");
      }
      attempt.type = TaskType::kRanked;
      attempt.top_k =
          std::max(1, std::min(request.top_k, policy.degraded_top_k));
      break;
    case DegradationLevel::kCountOnly:
      if (policy.count_max_nodes > 0) {
        attempt.options.limits.max_nodes = policy.count_max_nodes;
      }
      break;
  }
  if (level != DegradationLevel::kFull && policy.degraded_max_nodes > 0 &&
      level != DegradationLevel::kCountOnly) {
    attempt.options.limits.max_nodes = policy.degraded_max_nodes;
  }
  return attempt;
}

}  // namespace coursenav::plan
