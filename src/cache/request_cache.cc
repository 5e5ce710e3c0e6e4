#include "cache/request_cache.h"

#include <cstdio>
#include <optional>
#include <utility>

#include "obs/trace.h"
#include "util/json.h"

namespace coursenav::cache {

namespace {

void SetOutcome(CacheOutcome* out, CacheOutcome value) {
  if (out != nullptr) *out = value;
}

/// Bumps an instance tally and its process-global mirror.
void Bump(obs::Counter& local, obs::Counter* global) {
  local.Increment();
  global->Increment();
}

std::string TokenHex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

/// The canonical cache identity of a request: the JSON dump of a copy with
/// every execution-mechanical field neutralized —
///   - num_threads: the determinism contract makes complete output
///     byte-identical at every thread count, so thread count is not part
///     of *what* is computed;
///   - the cancel token and wall-clock budget: they bound *whether* a run
///     finishes, never what a finished run contains, and only finished
///     runs are cached. Deterministic budgets (max_nodes, max_memory_bytes)
///     stay in the key — they shape truncation deterministically;
///   - the degradation policy: the ladder driver caches per rung-rewritten
///     request, and the policy rides along without affecting any one run.
/// Fails (→ bypass) for in-memory requests with no declarative specs.
Result<std::string> CanonicalRequestKey(const ExplorationRequest& request,
                                        const Catalog& catalog) {
  ExplorationRequest canonical = request;
  canonical.options.num_threads = 0;
  canonical.options.cancel = CancellationToken();
  canonical.options.limits.max_seconds = 0.0;
  canonical.degradation.reset();
  COURSENAV_ASSIGN_OR_RETURN(JsonValue json,
                             ExplorationRequestToJson(canonical, catalog));
  return json.Dump();
}

/// Footprint of a stored response, for the result tier's byte bound.
/// Graph arenas dominate and are charged what they allocate (whole chunks,
/// not the per-element estimate); ranked paths get a flat per-path charge.
size_t ResponseBytes(const ExplorationResponse& response) {
  size_t bytes = sizeof(ExplorationResponse);
  if (response.generation.has_value()) {
    bytes += response.generation->graph.AllocatedBytes();
  }
  if (response.ranked.has_value()) {
    bytes += response.ranked->paths.size() * 512;
  }
  return bytes;
}

}  // namespace

std::string_view CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kDisabled:
      return "off";
    case CacheOutcome::kBypass:
      return "bypass";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kHit:
      return "hit";
  }
  return "off";
}

Result<CacheOutcome> ParseCacheOutcome(std::string_view name) {
  if (name == "off") return CacheOutcome::kDisabled;
  if (name == "bypass") return CacheOutcome::kBypass;
  if (name == "miss") return CacheOutcome::kMiss;
  if (name == "hit") return CacheOutcome::kHit;
  return Status::InvalidArgument("unknown cache outcome: '" +
                                 std::string(name) + "'");
}

RequestCache::RequestCache(CacheConfig config)
    : config_(config),
      result_hits_(
          obs::GlobalMetrics().GetCounter(obs::kMetricCacheResultHits)),
      result_misses_(
          obs::GlobalMetrics().GetCounter(obs::kMetricCacheResultMisses)),
      count_hits_(obs::GlobalMetrics().GetCounter(obs::kMetricCacheCountHits)),
      count_misses_(
          obs::GlobalMetrics().GetCounter(obs::kMetricCacheCountMisses)),
      bypasses_(obs::GlobalMetrics().GetCounter(obs::kMetricCacheBypass)),
      evictions_(obs::GlobalMetrics().GetCounter(obs::kMetricCacheEvictions)),
      epoch_invalidations_(obs::GlobalMetrics().GetCounter(
          obs::kMetricCacheEpochInvalidations)),
      result_bytes_gauge_(
          obs::GlobalMetrics().GetGauge(obs::kMetricCacheResultBytes)) {}

RequestCache& RequestCache::Global() {
  // Leaky singleton: serve workers may finish requests during static
  // destruction.
  static RequestCache* cache = new RequestCache();  // NOLINT(coursenav-raw-new)
  return *cache;
}

Result<std::shared_ptr<const ExplorationResponse>> RequestCache::Execute(
    const Catalog& catalog, const OfferingSchedule& schedule,
    const ExplorationRequest& request, CacheOutcome* outcome) {
  SetOutcome(outcome, CacheOutcome::kBypass);
  std::optional<obs::ScopedSpan> lookup_span(std::in_place,
                                             obs::kSpanCacheLookup);
  Result<std::string> canonical_key = CanonicalRequestKey(request, catalog);
  if (!canonical_key.ok()) {
    // In-memory goal/ranking objects with no declarative spec have no
    // stable identity to key on; execute uncached.
    lookup_span.reset();
    Bump(tallies_.bypasses, bypasses_);
    COURSENAV_ASSIGN_OR_RETURN(ExplorationResponse run,
                               plan::Execute(catalog, schedule, request));
    return std::make_shared<const ExplorationResponse>(std::move(run));
  }

  const CatalogEpoch epoch =
      EpochRegistry::Global().Current(catalog, schedule);
  const std::string result_key = TokenHex(epoch.token) + '|' + *canonical_key;

  // Result tier: a hit hands back the stored canonical response itself —
  // the very object the cold run produced, immutable since it was stored.
  std::shared_ptr<const ExplorationResponse> stored;
  {
    MutexLock lock(result_mu_);
    auto it = results_.index.find(result_key);
    if (it != results_.index.end()) {
      results_.order.splice(results_.order.begin(), results_.order,
                            it->second);
      stored = it->second->second.response;
    }
  }
  if (stored != nullptr) {
    Bump(tallies_.result_hits, result_hits_);
    SetOutcome(outcome, CacheOutcome::kHit);
    return stored;
  }
  Bump(tallies_.result_misses, result_misses_);
  SetOutcome(outcome, CacheOutcome::kMiss);
  lookup_span.reset();

  COURSENAV_ASSIGN_OR_RETURN(ExplorationResponse run,
                             plan::Execute(catalog, schedule, request));
  // One object serves the caller and, when stored, every later hit.
  auto response = std::make_shared<const ExplorationResponse>(std::move(run));

  // Insert only complete runs, and only when the epoch we keyed on is
  // still current: a run that raced a churn fault or an Invalidate() may
  // have observed perturbed offerings and must never be served again.
  const Status* termination = nullptr;
  if (response->generation.has_value()) {
    termination = &response->generation->termination;
  } else if (response->ranked.has_value()) {
    termination = &response->ranked->termination;
  }
  if (termination != nullptr && termination->ok()) {
    const CatalogEpoch after =
        EpochRegistry::Global().Current(catalog, schedule);
    if (after.token == epoch.token) {
      ResultEntry entry;
      entry.response = response;
      entry.bytes = ResponseBytes(*response);
      MutexLock lock(result_mu_);
      if (results_.index.find(result_key) == results_.index.end()) {
        result_bytes_ += entry.bytes;
        results_.order.emplace_front(result_key, std::move(entry));
        results_.index.emplace(result_key, results_.order.begin());
        while (results_.order.size() > config_.result_capacity ||
               (result_bytes_ > config_.result_max_bytes &&
                results_.order.size() > 1)) {
          result_bytes_ -= results_.order.back().second.bytes;
          results_.index.erase(results_.order.back().first);
          results_.order.pop_back();
          Bump(tallies_.evictions, evictions_);
        }
        result_bytes_gauge_->Set(static_cast<int64_t>(result_bytes_));
      }
    }
  }
  return response;
}

Result<uint64_t> RequestCache::CountGoalPaths(
    const Catalog& catalog, const OfferingSchedule& schedule,
    const EnrollmentStatus& start, Term deadline,
    std::shared_ptr<const Goal> goal, const ExplorationOptions& options,
    const GoalDrivenConfig& config, CacheOutcome* outcome) {
  SetOutcome(outcome, CacheOutcome::kBypass);
  if (goal == nullptr) {
    return Status::InvalidArgument("goal-path counting requires a goal");
  }

  const CatalogEpoch epoch =
      EpochRegistry::Global().Current(catalog, schedule);
  // The goal has no declarative spec here (sessions hold resolved Goal
  // objects), so the key uses its address — sound because the cache entry
  // pins the shared_ptr, making address reuse impossible while the entry
  // lives. Wall-clock budget is excluded for the same reason as in
  // CanonicalRequestKey; the deterministic status cap stays.
  std::string key = TokenHex(epoch.token);
  key += '|';
  key += TokenHex(reinterpret_cast<uintptr_t>(goal.get()));
  key += "|t=";
  key += std::to_string(start.term.index());
  key += "|d=";
  key += std::to_string(deadline.index());
  key += "|X=";
  key += start.completed.ToString();
  key += "|m=";
  key += std::to_string(options.max_courses_per_term);
  key += "|avoid=";
  key += options.avoid_courses.has_value() ? options.avoid_courses->ToString()
                                           : std::string("-");
  key += "|skip=";
  key += options.allow_voluntary_skip ? '1' : '0';
  key += "|n=";
  key += std::to_string(options.limits.max_nodes);
  key += "|b=";
  key += std::to_string(options.limits.max_memory_bytes);
  key += "|cfg=";
  key += config.enable_time_pruning ? '1' : '0';
  key += config.enable_availability_pruning ? '1' : '0';
  key += config.enforce_min_selection ? '1' : '0';
  key += config.cache_availability_checks ? '1' : '0';

  std::optional<uint64_t> cached;
  {
    MutexLock lock(count_mu_);
    auto it = counts_.index.find(key);
    if (it != counts_.index.end()) {
      counts_.order.splice(counts_.order.begin(), counts_.order, it->second);
      cached = it->second->second.goal_paths;
    }
  }
  if (cached.has_value()) {
    Bump(tallies_.count_hits, count_hits_);
    SetOutcome(outcome, CacheOutcome::kHit);
    return *cached;
  }
  Bump(tallies_.count_misses, count_misses_);
  SetOutcome(outcome, CacheOutcome::kMiss);

  COURSENAV_ASSIGN_OR_RETURN(
      CountingResult counted,
      CountGoalDrivenPaths(catalog, schedule, start, deadline, *goal, options,
                           config));

  const CatalogEpoch after = EpochRegistry::Global().Current(catalog, schedule);
  if (after.token == epoch.token) {
    MutexLock lock(count_mu_);
    if (counts_.index.find(key) == counts_.index.end()) {
      counts_.order.emplace_front(key,
                                  CountEntry{counted.goal_paths, goal});
      counts_.index.emplace(key, counts_.order.begin());
      while (counts_.order.size() > config_.count_capacity) {
        counts_.index.erase(counts_.order.back().first);
        counts_.order.pop_back();
        Bump(tallies_.evictions, evictions_);
      }
    }
  }
  return counted.goal_paths;
}

void RequestCache::Invalidate(const Catalog& catalog,
                              const OfferingSchedule& schedule) {
  EpochRegistry::Global().Invalidate(catalog, schedule);
  Bump(tallies_.epoch_invalidations, epoch_invalidations_);
}

void RequestCache::Clear() {
  {
    MutexLock lock(result_mu_);
    results_.order.clear();
    results_.index.clear();
    result_bytes_ = 0;
  }
  {
    MutexLock lock(count_mu_);
    counts_.order.clear();
    counts_.index.clear();
  }
  result_bytes_gauge_->Set(0);
}

CacheStats RequestCache::Stats() const {
  CacheStats stats;
  stats.result_hits = tallies_.result_hits.Value();
  stats.result_misses = tallies_.result_misses.Value();
  stats.count_hits = tallies_.count_hits.Value();
  stats.count_misses = tallies_.count_misses.Value();
  stats.bypasses = tallies_.bypasses.Value();
  stats.evictions = tallies_.evictions.Value();
  stats.epoch_invalidations = tallies_.epoch_invalidations.Value();
  {
    MutexLock lock(result_mu_);
    stats.result_bytes = result_bytes_;
    stats.result_entries = results_.order.size();
  }
  {
    MutexLock lock(count_mu_);
    stats.count_entries = counts_.order.size();
  }
  return stats;
}

}  // namespace coursenav::cache
