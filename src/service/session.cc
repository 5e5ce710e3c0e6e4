#include "service/session.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "cache/request_cache.h"
#include "core/combinations.h"
#include "plan/executor.h"
#include "util/check.h"
#include "util/string_util.h"

namespace coursenav {

namespace {

/// Per-query instrumentation: counts the query, installs the session's
/// tracer (when one is set) on the calling thread, and opens the
/// `session/query` span under which the generators' spans nest. Members
/// are destroyed in reverse order, so the span closes while the tracer is
/// still installed.
class QueryScope {
 public:
  QueryScope(obs::Tracer* tracer, obs::Counter* queries,
             std::string_view kind) {
    queries->Increment();
    if (tracer != nullptr) install_.emplace(tracer);
    span_.emplace(obs::kSpanSessionQuery);
    span_->AddString("kind", kind);
  }

 private:
  std::optional<obs::ScopedTracer> install_;
  std::optional<obs::ScopedSpan> span_;
};

}  // namespace

ExplorationSession::ExplorationSession(const Catalog* catalog,
                                       const OfferingSchedule* schedule,
                                       std::shared_ptr<const Goal> goal,
                                       EnrollmentStatus initial,
                                       Term deadline,
                                       ExplorationOptions options)
    : catalog_(catalog),
      schedule_(schedule),
      goal_(std::move(goal)),
      current_(std::move(initial)),
      deadline_(deadline),
      options_(std::move(options)),
      commits_(registry_.GetCounter(obs::kMetricSessionCommits)),
      undos_(registry_.GetCounter(obs::kMetricSessionUndos)),
      queries_(registry_.GetCounter(obs::kMetricSessionQueries)),
      cache_hits_(registry_.GetCounter(obs::kMetricSessionCacheHits)),
      cache_misses_(registry_.GetCounter(obs::kMetricSessionCacheMisses)) {
  // Interactive queries must be stoppable: ensure the session's options
  // carry a live token even when the caller did not provide one.
  if (!options_.cancel.can_cancel()) {
    options_.cancel = CancellationToken::Cancellable();
  }
}

Status ExplorationSession::Commit(const std::vector<std::string>& codes) {
  if (current_.term >= deadline_) {
    return Status::FailedPrecondition("the deadline has been reached");
  }
  COURSENAV_ASSIGN_OR_RETURN(DynamicBitset selection,
                             catalog_->CourseSetFromCodes(codes));
  if (selection.count() > options_.max_courses_per_term) {
    return Status::InvalidArgument(StrFormat(
        "selection of %d exceeds the %d-course limit", selection.count(),
        options_.max_courses_per_term));
  }
  DynamicBitset electable = CurrentOptions();
  if (!selection.IsSubsetOf(electable)) {
    DynamicBitset bad = selection;
    bad.Subtract(electable);
    return Status::InvalidArgument(
        "not electable this semester: " + catalog_->CourseSetToString(bad));
  }
  history_.push_back({current_.term, selection});
  current_.completed |= selection;
  current_.term = current_.term.Next();
  commits_->Increment();
  return Status::OK();
}

Status ExplorationSession::Undo() {
  if (history_.empty()) {
    return Status::FailedPrecondition("nothing to undo");
  }
  const PathStep& last = history_.back();
  current_.term = last.term;
  current_.completed.Subtract(last.selection);
  history_.pop_back();
  undos_->Increment();
  return Status::OK();
}

Status ExplorationSession::SetMaxLoad(int max_courses_per_term) {
  if (max_courses_per_term < 1) {
    return Status::InvalidArgument("load limit must be >= 1");
  }
  options_.max_courses_per_term = max_courses_per_term;
  return Status::OK();
}

Status ExplorationSession::Avoid(const std::string& code) {
  COURSENAV_ASSIGN_OR_RETURN(CourseId id, catalog_->FindByCode(code));
  if (current_.completed.test(id)) {
    return Status::FailedPrecondition("'" + code + "' is already completed");
  }
  if (!options_.avoid_courses.has_value()) {
    options_.avoid_courses = catalog_->NewCourseSet();
  }
  options_.avoid_courses->set(id);
  return Status::OK();
}

Status ExplorationSession::Unavoid(const std::string& code) {
  COURSENAV_ASSIGN_OR_RETURN(CourseId id, catalog_->FindByCode(code));
  if (options_.avoid_courses.has_value()) {
    options_.avoid_courses->reset(id);
  }
  return Status::OK();
}

Status ExplorationSession::SetDeadline(Term deadline) {
  if (deadline <= current_.term) {
    return Status::InvalidArgument(
        "deadline must be after the current semester");
  }
  deadline_ = deadline;
  return Status::OK();
}

void ExplorationSession::SetLimits(const ExplorationLimits& limits) {
  options_.limits = limits;
}

bool ExplorationSession::GoalReached() const {
  return goal_->IsSatisfied(current_.completed);
}

DynamicBitset ExplorationSession::CurrentOptions() const {
  return ComputeOptions(*catalog_, schedule_->OfferedIn(current_.term),
                        current_.completed, options_.avoid_courses);
}

Result<uint64_t> ExplorationSession::CountThroughCache(
    const EnrollmentStatus& start) {
  cache::CacheOutcome outcome = cache::CacheOutcome::kDisabled;
  Result<uint64_t> counted = cache::RequestCache::Global().CountGoalPaths(
      *catalog_, *schedule_, start, deadline_, goal_, options_,
      GoalDrivenConfig{}, &outcome);
  if (counted.ok()) {
    if (outcome == cache::CacheOutcome::kHit) {
      cache_hits_->Increment();
    } else {
      cache_misses_->Increment();
    }
  }
  return counted;
}

Result<uint64_t> ExplorationSession::RemainingGoalPaths() {
  QueryScope scope(tracer_, queries_, "remaining_goal_paths");
  if (GoalReached()) return uint64_t{1};
  return CountThroughCache(current_);
}

Result<RankedResult> ExplorationSession::TopK(const RankingFunction& ranking,
                                              int k) const {
  QueryScope scope(tracer_, queries_, "top_k");
  ExplorationRequest request;
  request.start = current_;
  request.end_term = deadline_;
  request.type = TaskType::kRanked;
  request.goal = goal_;
  // Non-owning alias: the ranking is borrowed for the duration of the call.
  request.ranking = std::shared_ptr<const RankingFunction>(
      std::shared_ptr<const RankingFunction>(), &ranking);
  request.top_k = k;
  request.options = options_;
  COURSENAV_ASSIGN_OR_RETURN(ExplorationResponse response,
                             plan::Execute(*catalog_, *schedule_, request));
  CN_CHECK(response.ranked.has_value());
  return std::move(*response.ranked);
}

Result<DegradedResponse> ExplorationSession::TopKDegraded(
    const RankingFunction& ranking, int k,
    const DegradationPolicy& policy) const {
  QueryScope scope(tracer_, queries_, "top_k_degraded");
  CourseNavigator navigator(catalog_, schedule_);
  ExplorationRequest request;
  request.start = current_;
  request.end_term = deadline_;
  request.type = TaskType::kRanked;
  request.goal = goal_;
  // Non-owning alias: the ranking is borrowed for the duration of the call.
  request.ranking = std::shared_ptr<const RankingFunction>(
      std::shared_ptr<const RankingFunction>(), &ranking);
  request.top_k = k;
  request.options = options_;
  return ExploreWithDegradation(navigator, request, policy);
}

Result<DegradedResponse> ExplorationSession::ExploreDegraded(
    const DegradationPolicy& policy) const {
  QueryScope scope(tracer_, queries_, "explore_degraded");
  CourseNavigator navigator(catalog_, schedule_);
  ExplorationRequest request;
  request.start = current_;
  request.end_term = deadline_;
  request.type = TaskType::kGoalDriven;
  request.goal = goal_;
  request.options = options_;
  return ExploreWithDegradation(navigator, request, policy);
}

Result<std::vector<SelectionImpact>> ExplorationSession::EvaluateSelections(
    int max_candidates) {
  QueryScope scope(tracer_, queries_, "evaluate_selections");
  if (current_.term >= deadline_) {
    return Status::FailedPrecondition("the deadline has been reached");
  }
  DynamicBitset electable = CurrentOptions();
  std::vector<DynamicBitset> candidates;
  ForEachSelection(electable, 1, options_.max_courses_per_term,
                   [&](const DynamicBitset& selection) {
                     candidates.push_back(selection);
                     return static_cast<int>(candidates.size()) <
                            max_candidates;
                   });

  std::vector<SelectionImpact> impacts;
  impacts.reserve(candidates.size());
  for (DynamicBitset& selection : candidates) {
    EnrollmentStatus next{current_.term.Next(), current_.completed};
    next.completed |= selection;
    SelectionImpact impact;
    impact.selection = std::move(selection);
    if (goal_->IsSatisfied(next.completed)) {
      impact.surviving_goal_paths = 1;
    } else if (next.term < deadline_) {
      COURSENAV_ASSIGN_OR_RETURN(uint64_t surviving,
                                 CountThroughCache(next));
      impact.surviving_goal_paths = surviving;
    }
    impacts.push_back(std::move(impact));
  }
  std::stable_sort(impacts.begin(), impacts.end(),
                   [](const SelectionImpact& a, const SelectionImpact& b) {
                     return a.surviving_goal_paths > b.surviving_goal_paths;
                   });
  return impacts;
}

}  // namespace coursenav
