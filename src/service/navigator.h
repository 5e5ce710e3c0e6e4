#ifndef COURSENAV_SERVICE_NAVIGATOR_H_
#define COURSENAV_SERVICE_NAVIGATOR_H_

#include <memory>

#include "cache/request_cache.h"
#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "catalog/term.h"
#include "core/counting.h"
#include "core/options.h"
#include "core/pruning.h"
#include "core/ranked_generator.h"
#include "core/ranking.h"
// ExplorationRequest / ExplorationResponse / TaskType live in the plan
// layer (plan/request.h, namespace coursenav) — the service facade is a
// thin shell over the planner/executor pipeline.
#include "plan/request.h"
#include "requirements/goal.h"
#include "util/result.h"

namespace coursenav {

/// The CourseNavigator service facade: wires a registrar dataset (catalog +
/// class schedule) to the Learning Path Generator and exposes the
/// exploration entry points (Figure 2's system model). Requests are lowered
/// and run by the plan layer (`plan::Planner` / `plan::Executor`).
///
/// The catalog and schedule are borrowed and must outlive the navigator.
class CourseNavigator {
 public:
  CourseNavigator(const Catalog* catalog, const OfferingSchedule* schedule)
      : catalog_(catalog), schedule_(schedule) {}

  /// Routes Explore() through `cache` (typically
  /// cache::RequestCache::Global()): complete canonical results are
  /// reused across requests, sessions, and serve workers of the same
  /// catalog epoch. Pass nullptr to detach. A cache hit is the stored
  /// response of the run that filled it (docs/caching.md), so enabling the
  /// cache is purely an operational decision. The cache must outlive the
  /// navigator.
  void EnableCache(cache::RequestCache* cache) { cache_ = cache; }
  bool cache_enabled() const { return cache_ != nullptr; }

  /// Lowers `request` into a plan and executes it. Fails on inconsistent
  /// requests (missing goal/ranking, bad window, foreign course sets).
  /// The response is shared and immutable: a cache hit hands out the
  /// stored object, which the returned pointer keeps alive after the
  /// cache evicts or drops it. Never null on success. `outcome` (optional)
  /// reports how the cache participated — kDisabled when no cache is
  /// wired.
  Result<std::shared_ptr<const ExplorationResponse>> Explore(
      const ExplorationRequest& request,
      cache::CacheOutcome* outcome = nullptr) const;

  /// Convenience wrappers over Explore(). Each returns a pointer into the
  /// shared response, which it keeps alive.
  Result<std::shared_ptr<const GenerationResult>> ExploreDeadline(
      const EnrollmentStatus& start, Term end_term,
      const ExplorationOptions& options) const;
  Result<std::shared_ptr<const GenerationResult>> ExploreGoal(
      const EnrollmentStatus& start, Term end_term, const Goal& goal,
      const ExplorationOptions& options,
      const GoalDrivenConfig& config = {}) const;
  Result<std::shared_ptr<const RankedResult>> ExploreTopK(
      const EnrollmentStatus& start, Term end_term, const Goal& goal,
      const RankingFunction& ranking, int k, const ExplorationOptions& options,
      const GoalDrivenConfig& config = {}) const;

  /// Path counting without materialization (extension; see core/counting.h).
  Result<CountingResult> CountDeadline(const EnrollmentStatus& start,
                                       Term end_term,
                                       const ExplorationOptions& options)
      const;
  Result<CountingResult> CountGoal(const EnrollmentStatus& start,
                                   Term end_term, const Goal& goal,
                                   const ExplorationOptions& options,
                                   const GoalDrivenConfig& config = {}) const;

  const Catalog& catalog() const { return *catalog_; }
  const OfferingSchedule& schedule() const { return *schedule_; }

 private:
  const Catalog* catalog_;
  const OfferingSchedule* schedule_;
  cache::RequestCache* cache_ = nullptr;
};

}  // namespace coursenav

#endif  // COURSENAV_SERVICE_NAVIGATOR_H_
