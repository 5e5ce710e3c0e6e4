#ifndef COURSENAV_OBS_METRICS_H_
#define COURSENAV_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace coursenav::obs {

/// What a metric slot measures. Counters only grow, gauges hold the last
/// (or maximum) observation, histograms bucket observations by log2 value.
enum class MetricKind { kCounter, kGauge, kHistogram };

std::string_view MetricKindName(MetricKind kind);

/// Interned handle for a registered metric name. Ids are indices into the
/// owning registry's per-kind storage; interning is the only operation that
/// takes a lock — everything on the hot path is a relaxed atomic.
struct MetricId {
  MetricKind kind = MetricKind::kCounter;
  int index = -1;

  bool valid() const { return index >= 0; }
};

/// Monotonically increasing count. Lock-free; safe to increment from any
/// number of threads concurrently.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value, plus a monotone high-watermark
/// helper for peak tracking. Lock-free.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  /// Raises the gauge to `value` if it is currently lower.
  void UpdateMax(int64_t value) {
    int64_t seen = value_.load(std::memory_order_relaxed);
    while (seen < value && !value_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed log2-bucketed histogram of non-negative integer observations
/// (typically microseconds or node counts). Bucket `i` counts observations
/// whose value is < UpperBound(i); the last bucket is unbounded. Lock-free.
class Histogram {
 public:
  static constexpr int kNumBuckets = 32;

  /// Upper bound (exclusive) of bucket `i`: 2^i, except the last bucket
  /// which absorbs everything (rendered as +Inf).
  static int64_t UpperBound(int bucket);

  /// Bucket index for a value: 0 for v < 1, else 1 + floor(log2(v)),
  /// clamped to the last bucket. Negative values clamp to bucket 0.
  static int BucketIndex(int64_t value);

  void Observe(int64_t value) {
    buckets_[static_cast<size_t>(BucketIndex(value))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value > 0 ? value : 0, std::memory_order_relaxed);
  }

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t BucketCount(int bucket) const {
    return buckets_[static_cast<size_t>(bucket)].load(
        std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// Point-in-time copy of one metric, for exporters and tests.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// Counter/gauge value; for histograms the observation count.
  int64_t value = 0;
  /// Histogram only.
  int64_t sum = 0;
  std::array<int64_t, Histogram::kNumBuckets> buckets{};
};

/// A named collection of metrics. Interning a name is mutex-protected and
/// returns a stable id/pointer; subsequent updates through the handle are
/// lock-free. Metric names are unique per kind within one registry.
///
/// The process-global registry (`GlobalMetrics()`) is the one the
/// exporters snapshot; a finished exploration adds its tally sheet
/// (`ExplorationStats`) to it once. Sessions and tests build their own.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Interns `name`, returning the existing id when already registered.
  MetricId InternCounter(std::string_view name);
  MetricId InternGauge(std::string_view name);
  MetricId InternHistogram(std::string_view name);

  /// Handle lookup; pointers stay valid for the registry's lifetime.
  Counter* counter(MetricId id);
  Gauge* gauge(MetricId id);
  Histogram* histogram(MetricId id);

  /// Convenience: intern + handle in one call (the common setup pattern).
  Counter* GetCounter(std::string_view name) {
    return counter(InternCounter(name));
  }
  Gauge* GetGauge(std::string_view name) { return gauge(InternGauge(name)); }
  Histogram* GetHistogram(std::string_view name) {
    return histogram(InternHistogram(name));
  }

  /// Point-in-time copy of every metric, sorted by (kind, name) for
  /// deterministic export.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Total interned names across all three kinds. Labeled per-tenant series
  /// intern one name per (metric, label) pair, so this is the number
  /// exporter consumers watch to detect unbounded label cardinality.
  size_t InternedNameCount() const;

 private:
  /// Guards the name maps and the deques' growth; updates through the
  /// returned Counter/Gauge/Histogram pointers are lock-free (the deques
  /// give stable element addresses across growth).
  mutable Mutex mu_;
  std::unordered_map<std::string, int> counter_ids_ CN_GUARDED_BY(mu_);
  std::unordered_map<std::string, int> gauge_ids_ CN_GUARDED_BY(mu_);
  std::unordered_map<std::string, int> histogram_ids_ CN_GUARDED_BY(mu_);
  std::deque<Counter> counters_ CN_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ CN_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ CN_GUARDED_BY(mu_);
  std::deque<std::string> counter_names_ CN_GUARDED_BY(mu_);
  std::deque<std::string> gauge_names_ CN_GUARDED_BY(mu_);
  std::deque<std::string> histogram_names_ CN_GUARDED_BY(mu_);
};

/// The process-wide registry the exporters snapshot. Never destroyed.
MetricRegistry& GlobalMetrics();

/// Encodes one label pair into an interned metric name: `base|key=value`.
/// The registry treats the result as an opaque name; the Prometheus
/// renderer splits it back apart and emits `base{key="value"}` with the
/// value escaped, so hostile label values (quotes, backslashes, newlines)
/// round-trip through the text exposition format.
std::string LabeledMetricName(std::string_view base, std::string_view key,
                              std::string_view value);

// ------------------------------------------------------------------
// Canonical metric names (shared by the engine, exporters, and tests).
// Prometheus rendering prefixes these with "coursenav_".

inline constexpr std::string_view kMetricNodesCreated =
    "exploration_nodes_created_total";
inline constexpr std::string_view kMetricEdgesCreated =
    "exploration_edges_created_total";
inline constexpr std::string_view kMetricNodesExpanded =
    "exploration_nodes_expanded_total";
inline constexpr std::string_view kMetricTerminalPaths =
    "exploration_terminal_paths_total";
inline constexpr std::string_view kMetricGoalPaths =
    "exploration_goal_paths_total";
inline constexpr std::string_view kMetricDeadEndPaths =
    "exploration_dead_end_paths_total";
inline constexpr std::string_view kMetricPrunedTime =
    "exploration_pruned_time_total";
inline constexpr std::string_view kMetricPrunedAvailability =
    "exploration_pruned_availability_total";
inline constexpr std::string_view kMetricBudgetChecks =
    "exploration_budget_checks_total";
inline constexpr std::string_view kMetricRuns = "exploration_runs_total";
inline constexpr std::string_view kMetricRuntimeMicros =
    "exploration_runtime_us";
inline constexpr std::string_view kMetricPeakNodes = "exploration_peak_nodes";
inline constexpr std::string_view kMetricFlowSolves =
    "flow_network_solves_total";
inline constexpr std::string_view kMetricDegradationRungs =
    "degradation_rungs_attempted_total";
inline constexpr std::string_view kMetricDegradationServed =
    "degradation_responses_served_total";
inline constexpr std::string_view kMetricSessionCommits =
    "session_commits_total";
inline constexpr std::string_view kMetricSessionUndos =
    "session_undos_total";
inline constexpr std::string_view kMetricSessionQueries =
    "session_queries_total";
inline constexpr std::string_view kMetricSessionCacheHits =
    "session_goal_path_cache_hits_total";
inline constexpr std::string_view kMetricSessionCacheMisses =
    "session_goal_path_cache_misses_total";

// Observability self-monitoring: consumers watch these to detect
// truncated traces and label-cardinality growth.
inline constexpr std::string_view kMetricTraceDroppedSpans =
    "trace_dropped_spans";
inline constexpr std::string_view kMetricInternedNames =
    "metrics_interned_names";

// Serving layer (src/serve/): admission control, shedding, and client
// retries. Per-tenant series are labeled via LabeledMetricName(base,
// "tenant", name) and render as `base{tenant="..."}`.
inline constexpr std::string_view kMetricServeSubmitted =
    "serve_requests_submitted_total";
inline constexpr std::string_view kMetricServeAdmitted =
    "serve_requests_admitted_total";
inline constexpr std::string_view kMetricServeCompleted =
    "serve_requests_completed_total";
inline constexpr std::string_view kMetricServeShed =
    "serve_requests_shed_total";
inline constexpr std::string_view kMetricServeRejected =
    "serve_requests_rejected_total";
inline constexpr std::string_view kMetricServeDegraded =
    "serve_responses_degraded_total";
inline constexpr std::string_view kMetricServeTimeout =
    "serve_responses_timeout_total";
inline constexpr std::string_view kMetricServeCancelled =
    "serve_responses_cancelled_total";
inline constexpr std::string_view kMetricServeSlowClient =
    "serve_slow_client_total";
inline constexpr std::string_view kMetricServeFaultsInjected =
    "serve_faults_injected_total";
inline constexpr std::string_view kMetricServeClientRetries =
    "serve_client_retries_total";
inline constexpr std::string_view kMetricServeQueueDepth =
    "serve_queue_depth";
inline constexpr std::string_view kMetricServeInflight = "serve_inflight";
inline constexpr std::string_view kMetricServeQueueWaitMicros =
    "serve_queue_wait_us";
inline constexpr std::string_view kMetricServeServiceMicros =
    "serve_service_us";
inline constexpr std::string_view kMetricServeTenantRequests =
    "serve_tenant_requests_total";
inline constexpr std::string_view kMetricServeTenantInflight =
    "serve_tenant_inflight";
inline constexpr std::string_view kMetricServeTenantQueueWaitMicros =
    "serve_tenant_queue_wait_us";
inline constexpr std::string_view kMetricServeTenantServiceMicros =
    "serve_tenant_service_us";
inline constexpr std::string_view kMetricServeTenantDeadlineMet =
    "serve_tenant_deadline_met_total";
inline constexpr std::string_view kMetricServeTenantDeadlineMissed =
    "serve_tenant_deadline_missed_total";

// Process-wide epoch-keyed request cache (src/cache/): shared
// canonical-result and goal-path-count reuse across sessions. Hits/misses
// are per tier; epoch_invalidations counts explicit Invalidate() calls
// plus fault-driven epoch rotations observed.
inline constexpr std::string_view kMetricCacheResultHits =
    "cache_result_hits_total";
inline constexpr std::string_view kMetricCacheResultMisses =
    "cache_result_misses_total";
inline constexpr std::string_view kMetricCacheCountHits =
    "cache_count_hits_total";
inline constexpr std::string_view kMetricCacheCountMisses =
    "cache_count_misses_total";
inline constexpr std::string_view kMetricCacheBypass =
    "cache_bypass_total";
inline constexpr std::string_view kMetricCacheEvictions =
    "cache_evictions_total";
inline constexpr std::string_view kMetricCacheEpochInvalidations =
    "cache_epoch_invalidations_total";
inline constexpr std::string_view kMetricCacheResultBytes =
    "cache_result_bytes";

}  // namespace coursenav::obs

#endif  // COURSENAV_OBS_METRICS_H_
