#include "service/navigator.h"

#include <memory>
#include <utility>

#include "plan/executor.h"
#include "util/check.h"

namespace coursenav {

namespace {

/// Non-owning shared_ptr view of a caller-owned object (the aliasing
/// constructor with an empty control block); the wrappers' reference
/// parameters outlive the exploration call by contract.
template <typename T>
std::shared_ptr<const T> Borrow(const T& object) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), &object);
}

}  // namespace

Result<std::shared_ptr<const ExplorationResponse>> CourseNavigator::Explore(
    const ExplorationRequest& request, cache::CacheOutcome* outcome) const {
  if (cache_ == nullptr) {
    if (outcome != nullptr) *outcome = cache::CacheOutcome::kDisabled;
    COURSENAV_ASSIGN_OR_RETURN(ExplorationResponse response,
                               plan::Execute(*catalog_, *schedule_, request));
    return std::make_shared<const ExplorationResponse>(std::move(response));
  }
  return cache_->Execute(*catalog_, *schedule_, request, outcome);
}

Result<std::shared_ptr<const GenerationResult>>
CourseNavigator::ExploreDeadline(const EnrollmentStatus& start, Term end_term,
                                 const ExplorationOptions& options) const {
  ExplorationRequest request;
  request.start = start;
  request.end_term = end_term;
  request.type = TaskType::kDeadlineDriven;
  request.options = options;
  COURSENAV_ASSIGN_OR_RETURN(
      std::shared_ptr<const ExplorationResponse> response, Explore(request));
  CN_CHECK(response->generation.has_value());
  return std::shared_ptr<const GenerationResult>(response,
                                                 &*response->generation);
}

Result<std::shared_ptr<const GenerationResult>> CourseNavigator::ExploreGoal(
    const EnrollmentStatus& start, Term end_term, const Goal& goal,
    const ExplorationOptions& options, const GoalDrivenConfig& config) const {
  ExplorationRequest request;
  request.start = start;
  request.end_term = end_term;
  request.type = TaskType::kGoalDriven;
  request.goal = Borrow(goal);
  request.options = options;
  request.config = config;
  COURSENAV_ASSIGN_OR_RETURN(
      std::shared_ptr<const ExplorationResponse> response, Explore(request));
  CN_CHECK(response->generation.has_value());
  return std::shared_ptr<const GenerationResult>(response,
                                                 &*response->generation);
}

Result<std::shared_ptr<const RankedResult>> CourseNavigator::ExploreTopK(
    const EnrollmentStatus& start, Term end_term, const Goal& goal,
    const RankingFunction& ranking, int k, const ExplorationOptions& options,
    const GoalDrivenConfig& config) const {
  ExplorationRequest request;
  request.start = start;
  request.end_term = end_term;
  request.type = TaskType::kRanked;
  request.goal = Borrow(goal);
  request.ranking = Borrow(ranking);
  request.top_k = k;
  request.options = options;
  request.config = config;
  COURSENAV_ASSIGN_OR_RETURN(
      std::shared_ptr<const ExplorationResponse> response, Explore(request));
  CN_CHECK(response->ranked.has_value());
  return std::shared_ptr<const RankedResult>(response, &*response->ranked);
}

Result<CountingResult> CourseNavigator::CountDeadline(
    const EnrollmentStatus& start, Term end_term,
    const ExplorationOptions& options) const {
  return CountDeadlineDrivenPaths(*catalog_, *schedule_, start, end_term,
                                  options);
}

Result<CountingResult> CourseNavigator::CountGoal(
    const EnrollmentStatus& start, Term end_term, const Goal& goal,
    const ExplorationOptions& options, const GoalDrivenConfig& config) const {
  return CountGoalDrivenPaths(*catalog_, *schedule_, start, end_term, goal,
                              options, config);
}

}  // namespace coursenav
