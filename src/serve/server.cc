#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "cache/request_cache.h"
#include "graph/export.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/degradation.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace coursenav::serve {

namespace {

/// The deadline a request is actually held to: its own when it named one,
/// else the server default, never past the hard ceiling.
double EffectiveDeadlineMs(const RequestEnvelope& envelope,
                           const AdmissionConfig& admission) {
  double deadline_ms = envelope.deadline_ms > 0
                           ? envelope.deadline_ms
                           : admission.default_deadline_seconds * 1e3;
  return std::min(deadline_ms, admission.max_deadline_seconds * 1e3);
}

/// Maps an execution error to the response taxonomy: request errors are the
/// client's fault (kRejected), budget errors are a timeout answer, and only
/// Internal is a server failure.
ResponseOutcome OutcomeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kCancelled:
      return ResponseOutcome::kCancelled;
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
      return ResponseOutcome::kTimeout;
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
    case StatusCode::kParseError:
    case StatusCode::kFailedPrecondition:
      return ResponseOutcome::kRejected;
    case StatusCode::kOk:
    case StatusCode::kInternal:
      return ResponseOutcome::kFailed;
  }
  return ResponseOutcome::kFailed;
}

/// The summary (and, when asked, full) payload for a materialized answer to
/// `request`.
JsonValue BuildResultPayload(const ExplorationResponse& response,
                             const ExplorationRequest& request,
                             bool full_payload,
                             const CourseNavigator& navigator) {
  const Catalog& catalog = navigator.catalog();
  JsonValue::Object object;
  if (response.generation.has_value()) {
    const GenerationResult& generation = *response.generation;
    object["nodes"] = JsonValue(generation.stats.nodes_created);
    object["edges"] = JsonValue(generation.stats.edges_created);
    object["terminal_paths"] = JsonValue(generation.stats.terminal_paths);
    object["goal_paths"] = JsonValue(generation.stats.goal_paths);
    if (full_payload) {
      object["graph"] =
          LearningGraphToJson(generation.graph, catalog, navigator.schedule(),
                              request.options.avoid_courses);
    }
  }
  if (response.ranked.has_value()) {
    const RankedResult& ranked = *response.ranked;
    object["paths_returned"] =
        JsonValue(static_cast<int64_t>(ranked.paths.size()));
    if (response.paths_before_filters >= 0) {
      object["paths_before_filters"] = JsonValue(response.paths_before_filters);
      object["filter"] = JsonValue(response.filter_description);
    }
    if (full_payload) {
      object["paths"] = LearningPathsToJson(ranked.paths, catalog);
    }
  }
  return JsonValue(std::move(object));
}

/// The payload for a count-only (fully degraded) answer.
JsonValue BuildCountPayload(const CountingResult& count) {
  JsonValue::Object object;
  object["total_paths"] = JsonValue(static_cast<int64_t>(count.total_paths));
  object["goal_paths"] = JsonValue(static_cast<int64_t>(count.goal_paths));
  object["distinct_statuses"] = JsonValue(count.distinct_statuses);
  object["saturated"] = JsonValue(count.saturated);
  return JsonValue(std::move(object));
}

}  // namespace

ExplorationServer::ExplorationServer(const Catalog* catalog,
                                     const OfferingSchedule* schedule,
                                     ServerConfig config)
    : config_(std::move(config)),
      navigator_(catalog, schedule),
      recorder_(config_.recorder) {
  if (config_.enable_cache) {
    navigator_.EnableCache(&cache::RequestCache::Global());
  }
}

ExplorationServer::~ExplorationServer() {
  if (state() != State::kStopped) Shutdown();
}

void ExplorationServer::Start() {
  MutexLock lifecycle_lock(lifecycle_mu_);
  CN_CHECK(state() == State::kIdle) << "Start() called twice";
  queue_ = std::make_unique<AdmissionQueue>(config_.admission);
  pool_ = std::make_unique<exec::WorkerPool>(std::max(1, config_.num_workers));
  dispatcher_ = std::thread([this] {
    pool_->Run([this](int) { WorkerLoop(); });
    dispatcher_done_.store(true, std::memory_order_release);
  });
  state_.store(State::kServing, std::memory_order_release);
}

void ExplorationServer::WorkerLoop() {
  while (std::shared_ptr<Ticket> ticket = queue_->Pop()) {
    Execute(ticket);
  }
}

ResponseEnvelope ExplorationServer::HandleRequest(std::string_view payload) {
  const int64_t submission = submitted_.fetch_add(1, std::memory_order_relaxed);
  obs::GlobalMetrics().GetCounter(obs::kMetricServeSubmitted)->Increment();

  if (payload.size() > config_.max_request_bytes) {
    return RejectResponse(
        "default", "", "",
        Status::InvalidArgument(StrFormat(
            "request of %zu bytes exceeds the %zu-byte limit", payload.size(),
            config_.max_request_bytes)));
  }
  Result<JsonValue> parsed = JsonValue::Parse(payload);
  if (!parsed.ok()) return RejectResponse("default", "", "", parsed.status());
  Result<RequestEnvelope> envelope_result = ParseRequestEnvelope(*parsed);
  if (!envelope_result.ok()) {
    return RejectResponse("default", "", "", envelope_result.status());
  }
  RequestEnvelope envelope = std::move(*envelope_result);
  if (envelope.trace_id.empty()) {
    // Server-generated correlation id: unique within this process run.
    envelope.trace_id =
        StrFormat("srv-%lld", static_cast<long long>(submission));
  }

  // The serve/overload chaos seam: when it fires, force one of the three
  // overload paths so every shed route is reachable from a seed alone.
  bool forced_queue_full = false;
  bool forced_deadline_exceeded = false;
  bool forced_slow_client = false;
  if (FaultInjector* injector = ActiveFaultInjector();
      injector != nullptr && injector->ShouldInject(kFaultSiteServeOverload)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    obs::GlobalMetrics()
        .GetCounter(obs::kMetricServeFaultsInjected)
        ->Increment();
    switch (injector->Draw(kFaultSiteServeOverload) % 3) {
      case 0:
        forced_queue_full = true;
        break;
      case 1:
        forced_deadline_exceeded = true;
        break;
      default:
        forced_slow_client = true;
        break;
    }
  }
  if (forced_queue_full) {
    return ShedResponse(
        envelope, AdmitVerdict::kQueueFull,
        queue_ != nullptr ? queue_->RetryAfterMsHint() : 50.0);
  }

  Result<ExplorationRequest> request_result =
      ExplorationRequestFromJson(envelope.request, navigator_.catalog());
  if (!request_result.ok()) {
    return RejectResponse(envelope.tenant, envelope.request_id,
                          envelope.trace_id, request_result.status());
  }

  if (state() != State::kServing || queue_ == nullptr) {
    return ShedResponse(
        envelope, AdmitVerdict::kNotServing,
        queue_ != nullptr ? queue_->RetryAfterMsHint() : 100.0);
  }

  auto ticket = std::make_shared<Ticket>();
  ticket->tenant = envelope.tenant;
  ticket->request_id = envelope.request_id;
  ticket->request = std::move(*request_result);
  ticket->degrade = envelope.degrade.value_or(config_.degrade_by_default);
  ticket->full_payload = envelope.full_payload;
  ticket->forced_deadline_exceeded = forced_deadline_exceeded;
  ticket->forced_slow_client = forced_slow_client;
  ticket->trace_id = envelope.trace_id;
  ticket->want_trace = envelope.want_trace;
  ticket->sampled = config_.trace_sample_every > 0 &&
                    submission % config_.trace_sample_every == 0;
#if COURSENAV_TRACING
  // The request-scoped tracer starts its timeline here, on the transport
  // thread: clamping and admission wait happen on it, and the worker
  // installs it before the execution stages.
  ticket->tracer =
      std::make_unique<obs::Tracer>(config_.max_spans_per_request);
#endif
  ticket->deadline_seconds =
      EffectiveDeadlineMs(envelope, config_.admission) / 1e3;

  // Tenant isolation: clamp the request's arena to the per-request caps,
  // whatever it asked for. The graph's soft-capacity limits then turn a
  // hostile request into a bounded partial answer.
  Stopwatch clamp_timer;
  ExplorationLimits& limits = ticket->request.options.limits;
  if (config_.max_nodes_per_request > 0 &&
      (limits.max_nodes <= 0 ||
       limits.max_nodes > config_.max_nodes_per_request)) {
    limits.max_nodes = config_.max_nodes_per_request;
  }
  if (config_.max_memory_bytes_per_request > 0 &&
      (limits.max_memory_bytes == 0 ||
       limits.max_memory_bytes > config_.max_memory_bytes_per_request)) {
    limits.max_memory_bytes = config_.max_memory_bytes_per_request;
  }
  if (config_.max_seconds_per_request > 0 &&
      (limits.max_seconds <= 0 ||
       limits.max_seconds > config_.max_seconds_per_request)) {
    limits.max_seconds = config_.max_seconds_per_request;
  }
  ticket->request.options.num_threads = std::min(
      ticket->request.options.num_threads, config_.threads_per_request);
  ticket->clamp_us = clamp_timer.ElapsedMicros();

  AdmissionQueue::AdmitResult admit = queue_->Admit(ticket);
  if (admit.verdict != AdmitVerdict::kAdmitted) {
    return ShedResponse(envelope, admit.verdict, admit.retry_after_ms);
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  obs::GlobalMetrics().GetCounter(obs::kMetricServeAdmitted)->Increment();

  MutexLock lock(ticket->mu);
  while (!ticket->done) ticket->cv.Wait(ticket->mu);
  return ticket->response;
}

std::string ExplorationServer::Handle(std::string_view payload) {
  return HandleRequest(payload).ToJson().Dump();
}

void ExplorationServer::Execute(const std::shared_ptr<Ticket>& ticket) {
  const double queue_wait_seconds = ticket->queued_at.ElapsedSeconds();
  Stopwatch service_timer;
  double service_seconds = 0.0;

  ResponseEnvelope out;
  out.tenant = ticket->tenant;
  out.request_id = ticket->request_id;
  out.trace_id = ticket->trace_id;
  out.queue_wait_ms = queue_wait_seconds * 1e3;
  out.served_seq = next_seq_.fetch_add(1, std::memory_order_relaxed);

  {
    // Install the request-scoped tracer on this worker thread: the root
    // serve/request span opens here, and every stage span the planner,
    // executor, and degradation ladder emit nests under it via the
    // thread-local tracer.
    std::optional<obs::ScopedTracer> install;
    if (ticket->tracer != nullptr) install.emplace(ticket->tracer.get());
    obs::ScopedSpan span(obs::kSpanServeRequest);
    span.AddString("tenant", ticket->tenant);
    if (ticket->tracer != nullptr) {
      // Replay the pre-worker intervals onto the request timeline as
      // children of the root: the transport-thread clamp (at the timeline
      // origin), then the admission wait that ended just now.
      const int64_t now_us = ticket->tracer->NowMicros();
      const int64_t wait_us = static_cast<int64_t>(queue_wait_seconds * 1e6);
      ticket->tracer->EmitSpan(obs::kSpanServeClamp, 0, ticket->clamp_us);
      ticket->tracer->EmitSpan(obs::kSpanServeAdmissionWait,
                               std::max<int64_t>(now_us - wait_us, 0),
                               wait_us);
    }

  const double remaining_seconds =
      ticket->deadline_seconds - queue_wait_seconds;
  if (ticket->cancel.IsCancelled()) {
    out.outcome = ResponseOutcome::kCancelled;
    out.status = Status::Cancelled("cancelled before execution");
  } else if (ticket->forced_deadline_exceeded || remaining_seconds <= 0) {
    out.outcome = ResponseOutcome::kTimeout;
    out.status = Status::DeadlineExceeded(
        ticket->forced_deadline_exceeded
            ? "deadline exceeded (fault injection)"
            : "deadline expired while queued");
  } else {
    // The execution budget is whatever deadline survives the queue wait,
    // never more than the per-request cap already clamped at admission.
    ExplorationLimits& limits = ticket->request.options.limits;
    if (limits.max_seconds <= 0 || limits.max_seconds > remaining_seconds) {
      limits.max_seconds = remaining_seconds;
    }
    ticket->request.options.cancel = ticket->cancel;

    cache::CacheOutcome cache_outcome = cache::CacheOutcome::kDisabled;
    if (ticket->degrade) {
      Result<DegradedResponse> degraded =
          ExploreWithDegradation(navigator_, ticket->request, &cache_outcome);
      if (degraded.ok()) {
        const DegradedResponse& answer = *degraded;
        out.outcome = (answer.report.degraded || answer.report.exhausted)
                          ? ResponseOutcome::kDegraded
                          : ResponseOutcome::kOk;
        out.degradation = answer.report;
        out.result = answer.count.has_value()
                         ? BuildCountPayload(*answer.count)
                         : BuildResultPayload(*answer.response,
                                              ticket->request,
                                              ticket->full_payload,
                                              navigator_);
      } else {
        out.outcome = OutcomeForStatus(degraded.status());
        out.status = degraded.status();
      }
    } else {
      Result<std::shared_ptr<const ExplorationResponse>> response =
          navigator_.Explore(ticket->request, &cache_outcome);
      if (response.ok()) {
        const ExplorationResponse& answer = **response;
        const Status& termination =
            answer.generation.has_value()
                ? answer.generation->termination
                : (answer.ranked.has_value() ? answer.ranked->termination
                                             : Status::OK());
        if (termination.ok()) {
          out.outcome = ResponseOutcome::kOk;
        } else {
          out.outcome = OutcomeForStatus(termination);
          out.status = termination;
        }
        out.result = BuildResultPayload(answer, ticket->request,
                                        ticket->full_payload, navigator_);
      } else {
        out.outcome = OutcomeForStatus(response.status());
        out.status = response.status();
      }
    }
    out.cache = std::string(cache::CacheOutcomeName(cache_outcome));
    switch (cache_outcome) {
      case cache::CacheOutcome::kHit:
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        break;
      case cache::CacheOutcome::kMiss:
        cache_misses_.fetch_add(1, std::memory_order_relaxed);
        break;
      case cache::CacheOutcome::kBypass:
        cache_bypass_.fetch_add(1, std::memory_order_relaxed);
        break;
      case cache::CacheOutcome::kDisabled:
        break;
    }
  }

  service_seconds = service_timer.ElapsedSeconds();
  out.service_ms = service_seconds * 1e3;

  // The slow-client fault fires after execution: the work was done but the
  // client cannot take delivery, so the payload is dropped.
  if (ticket->forced_slow_client) {
    out.outcome = ResponseOutcome::kSlowClient;
    out.status = Status::DeadlineExceeded(
        "client could not take delivery; result dropped (fault injection)");
    out.result = JsonValue();
    out.degradation.reset();
  }
  span.AddString("outcome", ResponseOutcomeName(out.outcome));
  span.AddDouble("queue_wait_ms", out.queue_wait_ms);
  if (out.result.is_object() && out.result.Has("nodes")) {
    if (Result<JsonValue> nodes = out.result.Get("nodes"); nodes.ok()) {
      if (Result<int64_t> count = nodes->GetInt(); count.ok()) {
        span.AddInt("nodes", *count);
      }
    }
  }

  switch (out.outcome) {
    case ResponseOutcome::kOk:
      ok_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseOutcome::kDegraded:
      degraded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseOutcome::kTimeout:
      timeout_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseOutcome::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseOutcome::kSlowClient:
      slow_client_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseOutcome::kRejected:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseOutcome::kOverloaded:
    case ResponseOutcome::kFailed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  }  // Root span closes; the request's trace is complete.

  queue_->Complete(ticket, service_seconds);
#if COURSENAV_TRACING
  if (ticket->want_trace && ticket->tracer != nullptr) {
    JsonValue::Array spans;
    for (const obs::SpanRecord& record : ticket->tracer->Spans()) {
      spans.push_back(obs::SpanToJson(record));
    }
    out.trace = JsonValue(std::move(spans));
  }
#endif
  RecordOutcome(out, ticket->deadline_seconds * 1e3, ticket.get());
  PublishMetrics(out, /*executed=*/true);
  CompleteTicket(ticket, std::move(out));
}

ResponseEnvelope ExplorationServer::ShedResponse(
    const RequestEnvelope& envelope, AdmitVerdict verdict,
    double retry_after_ms) {
  shed_.fetch_add(1, std::memory_order_relaxed);
  obs::GlobalMetrics().GetCounter(obs::kMetricServeShed)->Increment();
  ResponseEnvelope out;
  out.tenant = envelope.tenant;
  out.request_id = envelope.request_id;
  out.trace_id = envelope.trace_id;
  out.outcome = ResponseOutcome::kOverloaded;
  out.status = Status::ResourceExhausted(
      StrFormat("shed: %s", std::string(AdmitVerdictName(verdict)).c_str()));
  out.retry_after_ms = retry_after_ms;
  RecordOutcome(out, EffectiveDeadlineMs(envelope, config_.admission),
                nullptr);
  PublishMetrics(out, /*executed=*/false);
  return out;
}

ResponseEnvelope ExplorationServer::RejectResponse(std::string_view tenant,
                                                   std::string_view request_id,
                                                   std::string_view trace_id,
                                                   Status status) {
  rejected_.fetch_add(1, std::memory_order_relaxed);
  obs::GlobalMetrics().GetCounter(obs::kMetricServeRejected)->Increment();
  ResponseEnvelope out;
  out.tenant = std::string(tenant);
  out.request_id = std::string(request_id);
  out.trace_id = std::string(trace_id);
  out.outcome = ResponseOutcome::kRejected;
  out.status = std::move(status);
  RecordOutcome(out, 0.0, nullptr);
  return out;
}

void ExplorationServer::PublishMetrics(const ResponseEnvelope& response,
                                       bool executed) {
  obs::MetricRegistry& metrics = obs::GlobalMetrics();
  if (executed) {
    metrics.GetCounter(obs::kMetricServeCompleted)->Increment();
    switch (response.outcome) {
      case ResponseOutcome::kDegraded:
        metrics.GetCounter(obs::kMetricServeDegraded)->Increment();
        break;
      case ResponseOutcome::kTimeout:
        metrics.GetCounter(obs::kMetricServeTimeout)->Increment();
        break;
      case ResponseOutcome::kCancelled:
        metrics.GetCounter(obs::kMetricServeCancelled)->Increment();
        break;
      case ResponseOutcome::kSlowClient:
        metrics.GetCounter(obs::kMetricServeSlowClient)->Increment();
        break;
      default:
        break;
    }
    metrics.GetHistogram(obs::kMetricServeQueueWaitMicros)
        ->Observe(static_cast<int64_t>(response.queue_wait_ms * 1e3));
    metrics.GetHistogram(obs::kMetricServeServiceMicros)
        ->Observe(static_cast<int64_t>(response.service_ms * 1e3));
  }
  if (queue_ == nullptr) return;
  metrics.GetGauge(obs::kMetricServeQueueDepth)->Set(queue_->depth());
  metrics.GetGauge(obs::kMetricServeInflight)->Set(queue_->inflight());

  // Per-tenant labeled series, gated on the queue's bounded tenant table so
  // a hostile stream of fresh tenant names cannot grow the metric registry
  // without bound.
  std::map<std::string, TenantCounters> tenants = queue_->TenantSnapshot();
  auto it = tenants.find(response.tenant);
  if (it == tenants.end()) return;
  metrics
      .GetCounter(obs::LabeledMetricName(obs::kMetricServeTenantRequests,
                                         "tenant", response.tenant))
      ->Increment();
  metrics
      .GetGauge(obs::LabeledMetricName(obs::kMetricServeTenantInflight,
                                       "tenant", response.tenant))
      ->Set(it->second.inflight);
  if (executed) {
    metrics
        .GetHistogram(obs::LabeledMetricName(
            obs::kMetricServeTenantQueueWaitMicros, "tenant", response.tenant))
        ->Observe(static_cast<int64_t>(response.queue_wait_ms * 1e3));
    metrics
        .GetHistogram(obs::LabeledMetricName(
            obs::kMetricServeTenantServiceMicros, "tenant", response.tenant))
        ->Observe(static_cast<int64_t>(response.service_ms * 1e3));
  }
}

void ExplorationServer::RecordOutcome(const ResponseEnvelope& response,
                                      double deadline_ms,
                                      const Ticket* ticket) {
  // Per-tenant SLO tally. Rejected requests are the client's fault and
  // count toward neither bucket; the tenant table is bounded by the
  // admission cap so hostile tenant churn cannot grow it.
  if (response.outcome != ResponseOutcome::kRejected) {
    const bool met = (response.outcome == ResponseOutcome::kOk ||
                      response.outcome == ResponseOutcome::kDegraded) &&
                     (deadline_ms <= 0 ||
                      response.queue_wait_ms + response.service_ms <=
                          deadline_ms);
    bool tracked = false;
    {
      MutexLock lock(slo_mu_);
      auto it = slo_.find(response.tenant);
      if (it == slo_.end() &&
          slo_.size() < static_cast<size_t>(std::max(
                            1, config_.admission.max_tenants))) {
        it = slo_.emplace(response.tenant, SloCounters{}).first;
      }
      if (it != slo_.end()) {
        tracked = true;
        if (met) {
          ++it->second.deadline_met;
        } else {
          ++it->second.deadline_missed;
        }
      }
    }
    if (tracked) {
      obs::GlobalMetrics()
          .GetCounter(obs::LabeledMetricName(
              met ? obs::kMetricServeTenantDeadlineMet
                  : obs::kMetricServeTenantDeadlineMissed,
              "tenant", response.tenant))
          ->Increment();
    }
  }

  obs::RecordedRequest record;
  record.trace_id = response.trace_id;
  record.tenant = response.tenant;
  record.request_id = response.request_id;
  record.outcome = std::string(ResponseOutcomeName(response.outcome));
  if (!response.status.ok()) {
    record.status_message = response.status.message();
  }
  record.deadline_ms = deadline_ms;
  record.queue_wait_ms = response.queue_wait_ms;
  record.service_ms = response.service_ms;
  record.served_seq = response.served_seq;
  if (ticket != nullptr && ticket->tracer != nullptr) {
    trace_dropped_.fetch_add(static_cast<int64_t>(ticket->tracer->dropped()),
                             std::memory_order_relaxed);
    obs::GlobalMetrics()
        .GetGauge(obs::kMetricTraceDroppedSpans)
        ->Set(trace_dropped_.load(std::memory_order_relaxed));
    // The server-side trace sink: 1-in-N samples, every client opt-in, and
    // every non-ok outcome keep their span tree in the recorder.
    const bool keep = ticket->sampled || ticket->want_trace ||
                      response.outcome != ResponseOutcome::kOk;
    if (keep) record.trace = ticket->tracer->Spans();
  }
  recorder_.Record(std::move(record));
}

Status ExplorationServer::Drain(double timeout_seconds) {
  MutexLock lifecycle_lock(lifecycle_mu_);
  State current = state();
  if (current == State::kIdle) {
    state_.store(State::kStopped, std::memory_order_release);
    return Status::OK();
  }
  if (current == State::kStopped) return Status::OK();
  state_.store(State::kDraining, std::memory_order_release);
  queue_->CloseForAdmission();

  Stopwatch timer;
  bool escalated = false;
  while (!dispatcher_done_.load(std::memory_order_acquire)) {
    if (!escalated && timer.ElapsedSeconds() > timeout_seconds) {
      escalated = true;
      // Past the drain budget: shed everything still queued and cancel the
      // in-flight work; the workers acknowledge within one budget check.
      for (const std::shared_ptr<Ticket>& ticket : queue_->Evict()) {
        CancelTicket(ticket);
      }
      for (const std::shared_ptr<Ticket>& ticket :
           queue_->InflightSnapshot()) {
        ticket->cancel.RequestCancel();
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  state_.store(State::kStopped, std::memory_order_release);
  return escalated ? Status::DeadlineExceeded(
                         "drain timed out; remaining work was cancelled")
                   : Status::OK();
}

void ExplorationServer::Shutdown() {
  MutexLock lifecycle_lock(lifecycle_mu_);
  State current = state();
  if (current == State::kIdle || current == State::kStopped) {
    state_.store(State::kStopped, std::memory_order_release);
    return;
  }
  state_.store(State::kDraining, std::memory_order_release);
  queue_->CloseForAdmission();
  for (const std::shared_ptr<Ticket>& ticket : queue_->Evict()) {
    CancelTicket(ticket);
  }
  for (const std::shared_ptr<Ticket>& ticket : queue_->InflightSnapshot()) {
    ticket->cancel.RequestCancel();
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  state_.store(State::kStopped, std::memory_order_release);
}

void ExplorationServer::CancelTicket(const std::shared_ptr<Ticket>& ticket) {
  cancelled_.fetch_add(1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  obs::GlobalMetrics().GetCounter(obs::kMetricServeCancelled)->Increment();
  obs::GlobalMetrics().GetCounter(obs::kMetricServeCompleted)->Increment();
  ResponseEnvelope out;
  out.tenant = ticket->tenant;
  out.request_id = ticket->request_id;
  out.outcome = ResponseOutcome::kCancelled;
  out.status = Status::Cancelled("server shutting down");
  out.queue_wait_ms = ticket->queued_at.ElapsedSeconds() * 1e3;
  out.trace_id = ticket->trace_id;
  ticket->cancel.RequestCancel();
  RecordOutcome(out, ticket->deadline_seconds * 1e3, ticket.get());
  CompleteTicket(ticket, std::move(out));
}

ServerStats ExplorationServer::Stats() const {
  ServerStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.ok = ok_.load(std::memory_order_relaxed);
  stats.degraded = degraded_.load(std::memory_order_relaxed);
  stats.timeout = timeout_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_.load(std::memory_order_relaxed);
  stats.slow_client = slow_client_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.faults_injected = faults_injected_.load(std::memory_order_relaxed);
  stats.uptime_seconds = started_.ElapsedSeconds();
  stats.trace_dropped_spans = trace_dropped_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  stats.cache_bypass = cache_bypass_.load(std::memory_order_relaxed);
  if (queue_ != nullptr) {
    stats.queue_depth = queue_->depth();
    stats.inflight = queue_->inflight();
    stats.tenants = queue_->TenantSnapshot();
  }
  {
    MutexLock lock(slo_mu_);
    stats.slo.insert(slo_.begin(), slo_.end());
  }
  return stats;
}

}  // namespace coursenav::serve
