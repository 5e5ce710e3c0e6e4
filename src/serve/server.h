#ifndef COURSENAV_SERVE_SERVER_H_
#define COURSENAV_SERVE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "catalog/catalog.h"
#include "catalog/schedule.h"
#include "exec/worker_pool.h"
#include "obs/recorder.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "service/navigator.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace coursenav::serve {

/// Tuning for one ExplorationServer instance. Per-request resource clamps
/// are the tenant-isolation mechanism: whatever a request asks for, its
/// node / memory / time budgets are capped here, so one tenant's
/// pathological request degrades into a bounded partial answer instead of
/// exhausting the process.
struct ServerConfig {
  /// Worker threads executing admitted requests (clamped to at least 1).
  int num_workers = 4;
  AdmissionConfig admission;
  /// Hard cap on graph nodes materialized per request (0 = unlimited —
  /// never use 0 in production).
  int64_t max_nodes_per_request = 500'000;
  /// Hard cap on approximate graph heap bytes per request (0 = unlimited).
  size_t max_memory_bytes_per_request = size_t{256} << 20;
  /// Hard cap on per-request execution seconds, independent of deadline.
  double max_seconds_per_request = 5.0;
  /// Requests larger than this many payload bytes are rejected unread.
  size_t max_request_bytes = kDefaultMaxFrameBytes;
  /// When a request does not say, run it through the degradation ladder
  /// (true) or return a plain timeout on budget exhaustion (false).
  bool degrade_by_default = true;
  /// Intra-request parallelism (ExplorationOptions::num_threads clamp).
  /// 0 = serial per request: server throughput comes from concurrent
  /// workers, not from one request monopolizing the machine.
  int threads_per_request = 0;
  /// Server-side trace sampling: every Nth submission keeps its span tree
  /// in the flight recorder even without a client opt-in (0 = only client
  /// opt-ins and non-ok outcomes are kept). Non-ok outcomes always keep
  /// theirs.
  int trace_sample_every = 16;
  /// Span-buffer bound of each request-scoped tracer; overflow increments
  /// the tracer's dropped() count, surfaced as the trace_dropped_spans
  /// gauge.
  size_t max_spans_per_request = 512;
  /// Flight-recorder ring capacity and auto-dump quiet window.
  obs::FlightRecorderConfig recorder;
  /// Per-tenant deadline-attainment target: the fraction of non-rejected
  /// requests that should finish (ok or degraded) inside their deadline.
  /// /statusz flags tenants below it.
  double slo_deadline_target = 0.99;
  /// Routes execution through the process-wide epoch-keyed request cache
  /// (cache::RequestCache::Global()): complete canonical results are
  /// shared across workers, tenants, and any co-resident sessions of the
  /// same catalog epoch. A warm answer is the cold run's stored
  /// response itself (docs/caching.md), so this is purely an operational
  /// switch (`--cache=off` on the CLI).
  bool enable_cache = true;
};

/// A point-in-time snapshot of the server's counters. Every submitted
/// request ends in exactly one terminal bucket, wherever that was decided:
/// once the server is quiescent, submitted == shed + rejected + ok +
/// degraded + timeout + cancelled + slow_client + failed. `admitted` and
/// `completed` are progress counters (admitted requests that have received
/// their final envelope), not extra buckets.
/// Per-tenant deadline-attainment tallies. A request is `met` when it
/// finished ok or degraded within its effective deadline; everything else
/// non-rejected (timeout, shed, cancelled, slow-client, failed, or a late
/// success) is `missed`. Rejected requests are the client's fault and count
/// toward neither.
struct SloCounters {
  int64_t deadline_met = 0;
  int64_t deadline_missed = 0;

  double attainment() const {
    const int64_t total = deadline_met + deadline_missed;
    return total > 0 ? static_cast<double>(deadline_met) /
                           static_cast<double>(total)
                     : 1.0;
  }
};

struct ServerStats {
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t completed = 0;
  int64_t ok = 0;
  int64_t degraded = 0;
  int64_t timeout = 0;
  int64_t shed = 0;
  int64_t rejected = 0;
  int64_t cancelled = 0;
  int64_t slow_client = 0;
  int64_t failed = 0;
  int64_t faults_injected = 0;
  int queue_depth = 0;
  int inflight = 0;
  /// Seconds since Start() (0 before the server started).
  double uptime_seconds = 0.0;
  /// Spans discarded by request-scoped tracers, total across requests.
  int64_t trace_dropped_spans = 0;
  /// How executed requests met the process-wide request cache: served from
  /// a cached canonical result (`cache_hits`), executed and (when
  /// complete) inserted (`cache_misses`), or unable to participate —
  /// non-canonicalizable request or count-only degradation
  /// (`cache_bypass`). All three stay 0 when the cache is disabled.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_bypass = 0;
  std::map<std::string, TenantCounters> tenants;
  std::map<std::string, SloCounters> slo;
};

/// The multi-tenant exploration server core: admission control in front of
/// a worker pool running the CourseNavigator service.
///
/// Transport-agnostic: `Handle()` takes one request payload (the JSON text
/// of a RequestEnvelope) and blocks until its structured response is ready
/// — the socket front end (serve/socket_server.h), the CLI replay mode,
/// and in-process tests all call the same entry point.
///
/// Lifecycle: Start() → Handle()* → Drain() or Shutdown(). Drain stops
/// admission and waits for queued + in-flight work (escalating to
/// cancellation at its timeout); Shutdown cancels everything immediately.
/// Both end in kStopped; all three transitions are idempotent and safe to
/// race with concurrent Handle() calls, which shed with kOverloaded once
/// admission closes.
///
/// The catalog and schedule are borrowed and must outlive the server.
class ExplorationServer {
 public:
  enum class State { kIdle, kServing, kDraining, kStopped };

  ExplorationServer(const Catalog* catalog, const OfferingSchedule* schedule,
                    ServerConfig config = {});
  ~ExplorationServer();

  ExplorationServer(const ExplorationServer&) = delete;
  ExplorationServer& operator=(const ExplorationServer&) = delete;

  /// Spawns the worker pool and begins admitting. Must be called exactly
  /// once, before any Handle().
  void Start();

  /// Serves one request payload end to end: parse → validate → clamp →
  /// admit → execute, blocking the calling (transport) thread until the
  /// response envelope is complete. Never fails: every malformed, shed, or
  /// cancelled request still yields a structured envelope.
  ResponseEnvelope HandleRequest(std::string_view payload);

  /// HandleRequest, serialized to the compact JSON wire form.
  std::string Handle(std::string_view payload);

  /// Stops admission and waits up to `timeout_seconds` for queued and
  /// in-flight work to finish. On timeout the stragglers are cancelled
  /// (cooperatively, via their CancellationTokens) and the call keeps
  /// waiting for them to acknowledge. Returns OK on a clean drain,
  /// DeadlineExceeded when cancellation was needed.
  Status Drain(double timeout_seconds = 5.0);

  /// Immediate stop: sheds the queue (those waiters get kCancelled),
  /// cancels in-flight requests, and joins the workers.
  void Shutdown();

  State state() const { return state_.load(std::memory_order_acquire); }

  ServerStats Stats() const;

  const ServerConfig& config() const { return config_; }

  /// The server's black box: every finished request's summary, plus the
  /// sampled span trees (1-in-N and all non-ok outcomes). The admin plane
  /// and the CLI dump it; tests assert completeness against it.
  const obs::FlightRecorder& recorder() const { return recorder_; }
  obs::FlightRecorder& recorder() { return recorder_; }

 private:
  /// One worker's life: pop admitted tickets until the queue closes.
  void WorkerLoop();

  /// Executes one admitted ticket and completes it.
  void Execute(const std::shared_ptr<Ticket>& ticket);

  /// Builds the shed response for a not-admitted request and counts it.
  ResponseEnvelope ShedResponse(const RequestEnvelope& envelope,
                                AdmitVerdict verdict, double retry_after_ms);

  /// Builds the rejection response for an unacceptable request.
  ResponseEnvelope RejectResponse(std::string_view tenant,
                                  std::string_view request_id,
                                  std::string_view trace_id, Status status);

  /// Mirrors one finished outcome into the global metric registry and the
  /// per-tenant series (`executed` requests additionally feed the latency
  /// histograms).
  void PublishMetrics(const ResponseEnvelope& response, bool executed);

  /// Terminal-outcome bookkeeping shared by every exit path: feeds the
  /// flight recorder (attaching the span tree when this request's trace is
  /// kept), the per-tenant SLO tallies, and the dropped-span total.
  /// `ticket` is null for requests that never reached admission.
  void RecordOutcome(const ResponseEnvelope& response, double deadline_ms,
                     const Ticket* ticket);

  /// Completes a never-executed ticket with kCancelled (shutdown/drain
  /// eviction path).
  void CancelTicket(const std::shared_ptr<Ticket>& ticket);

  const ServerConfig config_;
  CourseNavigator navigator_;

  std::atomic<State> state_{State::kIdle};
  /// Serializes Start/Drain/Shutdown; guards the dispatcher thread handle
  /// (spawned by Start, joined by Drain/Shutdown).
  Mutex lifecycle_mu_;
  std::unique_ptr<AdmissionQueue> queue_;
  std::unique_ptr<exec::WorkerPool> pool_;
  /// Runs the pool's single long fork-join round so Start() can return.
  std::thread dispatcher_ CN_GUARDED_BY(lifecycle_mu_);
  std::atomic<bool> dispatcher_done_{false};

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> admitted_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> ok_{0};
  std::atomic<int64_t> degraded_{0};
  std::atomic<int64_t> timeout_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> cancelled_{0};
  std::atomic<int64_t> slow_client_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> faults_injected_{0};
  std::atomic<int64_t> next_seq_{0};
  std::atomic<int64_t> trace_dropped_{0};
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};
  std::atomic<int64_t> cache_bypass_{0};

  obs::FlightRecorder recorder_;
  Stopwatch started_;

  /// Per-tenant deadline-attainment tallies (bounded by the admission
  /// queue's tenant-table cap, since only named tenants reach here).
  mutable Mutex slo_mu_;
  std::map<std::string, SloCounters, std::less<>> slo_ CN_GUARDED_BY(slo_mu_);
};

}  // namespace coursenav::serve

#endif  // COURSENAV_SERVE_SERVER_H_
