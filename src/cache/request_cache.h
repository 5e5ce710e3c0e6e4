#ifndef COURSENAV_CACHE_REQUEST_CACHE_H_
#define COURSENAV_CACHE_REQUEST_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "cache/epoch.h"
#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "catalog/term.h"
#include "core/counting.h"
#include "core/enrollment.h"
#include "core/options.h"
#include "obs/metrics.h"
#include "plan/executor.h"
#include "plan/request.h"
#include "requirements/goal.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace coursenav::cache {

/// How the cache participated in answering one request.
enum class CacheOutcome {
  /// Caching is off for this caller (server --cache=off, or no cache wired).
  kDisabled,
  /// The request is not cacheable (unserializable in-memory goal/ranking,
  /// non-OK termination, count-only degradation rung, ...). Executed
  /// directly.
  kBypass,
  /// Cacheable, but no prior result at the current epoch. Executed and
  /// (when it completed) inserted.
  kMiss,
  /// Served from a prior run's canonical result: the stored object itself.
  kHit,
};

/// Wire and log name: "off", "bypass", "miss", "hit".
std::string_view CacheOutcomeName(CacheOutcome outcome);

/// Parses a CacheOutcomeName back to the enum.
Result<CacheOutcome> ParseCacheOutcome(std::string_view name);

/// Capacity bounds of the process-wide tiers. Every tier is LRU within its
/// bound; the result tier is additionally byte-bounded (graphs dominate,
/// charged the arena bytes they allocate).
struct CacheConfig {
  size_t result_capacity = 64;
  size_t result_max_bytes = 256u << 20;  // 256 MiB of cached graphs
  size_t count_capacity = 1024;
};

/// Point-in-time counters, for /statusz and tests.
struct CacheStats {
  int64_t result_hits = 0;
  int64_t result_misses = 0;
  int64_t count_hits = 0;
  int64_t count_misses = 0;
  int64_t bypasses = 0;
  int64_t evictions = 0;
  int64_t epoch_invalidations = 0;
  size_t result_bytes = 0;
  size_t result_entries = 0;
  size_t count_entries = 0;
};

/// The process-wide epoch-keyed request cache: canonical-result and
/// goal-path-count reuse across sessions and serve workers
/// (docs/caching.md). Availability verdicts are not shared: each run's
/// pruning oracles keep their own.
///
/// Correctness rests on two rules:
///   1. Every key includes the dataset's epoch token (cache/epoch.h), so a
///      churn fault, an Invalidate() call, or a different dataset can never
///      surface a stale entry.
///   2. The epoch is captured before a run and re-read after; a result is
///      inserted only when both observations agree. A run that raced an
///      epoch rotation — and might have observed perturbed offerings — is
///      returned to its caller but never cached.
///
/// Determinism: a result hit returns the stored canonical response itself
/// — the object the original (cold) run produced, so graphs, path order,
/// and stats are the cold run's by construction. A response is immutable
/// once stored, and the caller's shared_ptr keeps it alive after it is
/// evicted, or dropped by Clear() or Invalidate(); the byte bound counts
/// only the entries still in the tier. Only complete (termination-OK)
/// runs are stored, which is what makes the thread-count- and
/// wall-clock-budget-free result key sound (see docs/caching.md).
///
/// All methods are thread-safe. The tier mutexes (`result_mu_`,
/// `count_mu_`) are leaf locks, never nested with each other or any other
/// lock, and never held across an exploration run
/// (tools/lint/lock_order.txt).
class RequestCache {
 public:
  explicit RequestCache(CacheConfig config = {});
  RequestCache(const RequestCache&) = delete;
  RequestCache& operator=(const RequestCache&) = delete;

  /// The never-destroyed process-wide instance the serving layer and
  /// sessions share.
  static RequestCache& Global();

  /// Cache-aware replacement for plan::Execute: consults the result tier,
  /// and on a miss lowers and runs `request` against (catalog, schedule).
  /// A hit returns the stored response; a miss returns the fresh run, which
  /// is also the object stored when the run completed at a stable epoch; a
  /// bypass returns the fresh run unstored. Never null on success.
  /// `outcome` (optional) reports how the answer was produced.
  Result<std::shared_ptr<const ExplorationResponse>> Execute(
      const Catalog& catalog, const OfferingSchedule& schedule,
      const ExplorationRequest& request, CacheOutcome* outcome = nullptr);

  /// Cache-aware goal-path count (core/counting.h), shared across
  /// sessions. `goal` is held by shared_ptr: each cached entry pins its
  /// goal alive, so the pointer-identity part of the key can never alias a
  /// recycled address.
  Result<uint64_t> CountGoalPaths(const Catalog& catalog,
                                  const OfferingSchedule& schedule,
                                  const EnrollmentStatus& start, Term deadline,
                                  std::shared_ptr<const Goal> goal,
                                  const ExplorationOptions& options,
                                  const GoalDrivenConfig& config = {},
                                  CacheOutcome* outcome = nullptr);

  /// Explicitly rotates the dataset's epoch (EpochRegistry::Invalidate):
  /// every entry derived from it becomes unreachable.
  void Invalidate(const Catalog& catalog, const OfferingSchedule& schedule);

  /// Drops every entry in every tier (epochs are unaffected).
  void Clear();

  CacheStats Stats() const;

 private:
  struct ResultEntry {
    std::shared_ptr<const ExplorationResponse> response;
    size_t bytes = 0;
  };
  struct CountEntry {
    uint64_t goal_paths = 0;
    /// Keeps the goal object alive while the entry exists, so the raw
    /// pointer embedded in the key stays unique (no address reuse).
    std::shared_ptr<const Goal> pin;
  };
  template <typename Value>
  struct LruMap {
    std::list<std::pair<std::string, Value>> order;  // front = most recent
    std::unordered_map<
        std::string,
        typename std::list<std::pair<std::string, Value>>::iterator>
        index;
  };

  const CacheConfig config_;

  mutable Mutex result_mu_;
  LruMap<ResultEntry> results_ CN_GUARDED_BY(result_mu_);
  size_t result_bytes_ CN_GUARDED_BY(result_mu_) = 0;

  mutable Mutex count_mu_;
  LruMap<CountEntry> counts_ CN_GUARDED_BY(count_mu_);

  /// Per-instance tallies (lock-free), the source of truth for Stats().
  /// Each bump also mirrors into the process-global obs registry's cache_*
  /// series via the handles below, so a test-local cache instance still
  /// reads its own numbers while /metrics aggregates everything.
  struct Tallies {
    obs::Counter result_hits, result_misses;
    obs::Counter count_hits, count_misses;
    obs::Counter bypasses, evictions, epoch_invalidations;
  };
  Tallies tallies_;

  // Interned once at construction from the process-global registry.
  obs::Counter* result_hits_;
  obs::Counter* result_misses_;
  obs::Counter* count_hits_;
  obs::Counter* count_misses_;
  obs::Counter* bypasses_;
  obs::Counter* evictions_;
  obs::Counter* epoch_invalidations_;
  obs::Gauge* result_bytes_gauge_;
};

}  // namespace coursenav::cache

#endif  // COURSENAV_CACHE_REQUEST_CACHE_H_
