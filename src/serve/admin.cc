#include "serve/admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "cache/request_cache.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "util/json.h"
#include "util/string_util.h"

namespace coursenav::serve {

namespace {

std::string_view HttpStatusText(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

/// Serializes one response in HTTP/1.0 form. Content-Length + close framing
/// keeps the protocol stateless: one request, one response, one connection.
std::string SerializeHttp(const AdminServer::HttpResponse& response) {
  std::string out;
  out.reserve(response.body.size() + 128);
  out += StrFormat("HTTP/1.0 %d ", response.status_code);
  out += HttpStatusText(response.status_code);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += StrFormat("\r\nContent-Length: %zu", response.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

std::string_view StateName(ExplorationServer::State state) {
  switch (state) {
    case ExplorationServer::State::kIdle:
      return "idle";
    case ExplorationServer::State::kServing:
      return "serving";
    case ExplorationServer::State::kDraining:
      return "draining";
    case ExplorationServer::State::kStopped:
      return "stopped";
  }
  return "unknown";
}

/// True when the query string (already split off the path) asks for the
/// flight-recorder dump. Only `recorder=1` is recognized; everything else
/// is ignored, so scrapers with extra parameters still get /statusz.
bool WantsRecorder(std::string_view query) {
  while (!query.empty()) {
    const size_t amp = query.find('&');
    const std::string_view param = query.substr(0, amp);
    if (param == "recorder=1") return true;
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return false;
}

}  // namespace

AdminServer::AdminServer(const ExplorationServer* core, AdminConfig config)
    : core_(core), config_(std::move(config)) {}

AdminServer::~AdminServer() { Stop(); }

Status AdminServer::Start() {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("admin server already started");
  }
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("socket(): %s", std::strerror(errno)));
  }
  int reuse = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in address;
  std::memset(&address, 0, sizeof(address));
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (inet_pton(AF_INET, config_.bind_address.c_str(), &address.sin_addr) !=
      1) {
    close(fd);
    return Status::InvalidArgument("bad bind address '" +
                                   config_.bind_address + "'");
  }
  if (bind(fd, reinterpret_cast<const sockaddr*>(&address),
           sizeof(address)) != 0) {
    Status status = Status::FailedPrecondition(
        StrFormat("bind(%s:%d): %s", config_.bind_address.c_str(),
                  config_.port, std::strerror(errno)));
    close(fd);
    return status;
  }
  if (listen(fd, config_.backlog) != 0) {
    Status status =
        Status::Internal(StrFormat("listen(): %s", std::strerror(errno)));
    close(fd);
    return status;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    Status status =
        Status::Internal(StrFormat("getsockname(): %s", std::strerror(errno)));
    close(fd);
    return status;
  }
  port_ = static_cast<int>(ntohs(bound.sin_port));
  listen_fd_ = fd;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void AdminServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop()
    }
    if (stopping_.load(std::memory_order_acquire)) {
      close(fd);
      break;
    }
    SetSocketTimeout(fd, SO_RCVTIMEO, config_.recv_timeout_seconds);
    SetSocketTimeout(fd, SO_SNDTIMEO, config_.send_timeout_seconds);
    // Serial service: the next scraper waits in the listen backlog. Worst
    // case Stop() is delayed by one request's recv+send timeouts.
    ServeConnection(fd);
    close(fd);
  }
}

void AdminServer::ServeConnection(int fd) {
  std::string request;
  char chunk[1024];
  // Read until the end of the headers; the admin plane never reads a body.
  while (request.find("\r\n\r\n") == std::string::npos) {
    if (request.size() > config_.max_request_bytes) {
      HttpResponse bad;
      bad.status_code = 400;
      bad.body = "request too large\n";
      (void)WriteFully(fd, SerializeHttp(bad));
      return;
    }
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      request.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return;  // EOF, timeout, or error before a complete request
  }

  // Request line: METHOD SP TARGET SP VERSION.
  const size_t line_end = request.find("\r\n");
  std::string_view line = std::string_view(request).substr(0, line_end);
  const size_t method_end = line.find(' ');
  const size_t target_end =
      method_end == std::string_view::npos
          ? std::string_view::npos
          : line.find(' ', method_end + 1);
  if (method_end == std::string_view::npos ||
      target_end == std::string_view::npos) {
    HttpResponse bad;
    bad.status_code = 400;
    bad.body = "malformed request line\n";
    (void)WriteFully(fd, SerializeHttp(bad));
    return;
  }
  const std::string_view method = line.substr(0, method_end);
  const std::string_view target =
      line.substr(method_end + 1, target_end - method_end - 1);

  HttpResponse response;
  if (method != "GET") {
    response.status_code = 405;
    response.body = "admin plane is GET-only\n";
  } else {
    response = HandleGet(target);
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  (void)WriteFully(fd, SerializeHttp(response));
}

AdminServer::HttpResponse AdminServer::HandleGet(
    std::string_view target) const {
  const size_t question = target.find('?');
  const std::string_view path = target.substr(0, question);
  const std::string_view query =
      question == std::string_view::npos ? std::string_view()
                                         : target.substr(question + 1);
  if (path == "/metrics") return Metrics();
  if (path == "/healthz") return Healthz();
  if (path == "/statusz") return Statusz(WantsRecorder(query));
  HttpResponse response;
  response.status_code = 404;
  response.body = StrFormat(
      "unknown target '%s'; try /metrics, /healthz, or /statusz\n",
      std::string(path).c_str());
  return response;
}

AdminServer::HttpResponse AdminServer::Metrics() const {
  obs::MetricRegistry& metrics = obs::GlobalMetrics();
  // Refresh the self-monitoring gauges so every scrape sees current
  // dropped-span and cardinality numbers even between requests.
  obs::PublishTracerHealth(
      static_cast<size_t>(core_->Stats().trace_dropped_spans), metrics);
  obs::PublishRegistryHealth(metrics);
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = obs::RenderPrometheus(metrics);
  return response;
}

AdminServer::HttpResponse AdminServer::Healthz() const {
  const ExplorationServer::State state = core_->state();
  HttpResponse response;
  response.status_code =
      state == ExplorationServer::State::kServing ? 200 : 503;
  response.body = std::string(StateName(state)) + "\n";
  return response;
}

AdminServer::HttpResponse AdminServer::Statusz(bool include_recorder) const {
  const ServerStats stats = core_->Stats();
  const ServerConfig& config = core_->config();
  const std::vector<obs::MetricSnapshot> snapshot =
      obs::GlobalMetrics().Snapshot();
  // Histogram lookup table for the per-tenant latency quantiles.
  std::map<std::string, const obs::MetricSnapshot*> histograms;
  for (const obs::MetricSnapshot& metric : snapshot) {
    if (metric.kind == obs::MetricKind::kHistogram) {
      histograms.emplace(metric.name, &metric);
    }
  }
  const auto quantile = [&histograms](const std::string& name,
                                      double q) -> int64_t {
    auto it = histograms.find(name);
    return it != histograms.end() ? obs::HistogramQuantile(*it->second, q)
                                  : 0;
  };

  JsonValue::Object root;
  root["state"] = JsonValue(std::string(StateName(core_->state())));
  root["uptime_seconds"] = JsonValue(stats.uptime_seconds);

  JsonValue::Object requests;
  requests["submitted"] = JsonValue(stats.submitted);
  requests["admitted"] = JsonValue(stats.admitted);
  requests["completed"] = JsonValue(stats.completed);
  requests["ok"] = JsonValue(stats.ok);
  requests["degraded"] = JsonValue(stats.degraded);
  requests["timeout"] = JsonValue(stats.timeout);
  requests["shed"] = JsonValue(stats.shed);
  requests["rejected"] = JsonValue(stats.rejected);
  requests["cancelled"] = JsonValue(stats.cancelled);
  requests["slow_client"] = JsonValue(stats.slow_client);
  requests["failed"] = JsonValue(stats.failed);
  requests["faults_injected"] = JsonValue(stats.faults_injected);
  root["requests"] = JsonValue(std::move(requests));

  JsonValue::Object queue;
  queue["depth"] = JsonValue(stats.queue_depth);
  queue["inflight"] = JsonValue(stats.inflight);
  queue["max_queue_depth"] = JsonValue(config.admission.max_queue_depth);
  queue["max_queued_per_tenant"] =
      JsonValue(config.admission.max_queued_per_tenant);
  queue["max_inflight_per_tenant"] =
      JsonValue(config.admission.max_inflight_per_tenant);
  queue["max_tenants"] = JsonValue(config.admission.max_tenants);
  root["queue"] = JsonValue(std::move(queue));

  JsonValue::Object tenants;
  for (const auto& [name, counters] : stats.tenants) {
    JsonValue::Object tenant;
    tenant["queued"] = JsonValue(counters.queued);
    tenant["inflight"] = JsonValue(counters.inflight);
    tenant["admitted_total"] = JsonValue(counters.admitted_total);
    tenant["shed_total"] = JsonValue(counters.shed_total);
    tenant["completed_total"] = JsonValue(counters.completed_total);
    tenants[name] = JsonValue(std::move(tenant));
  }
  root["tenants"] = JsonValue(std::move(tenants));

  JsonValue::Object slo;
  slo["deadline_target"] = JsonValue(config.slo_deadline_target);
  JsonValue::Object slo_tenants;
  for (const auto& [name, counters] : stats.slo) {
    JsonValue::Object tenant;
    tenant["deadline_met"] = JsonValue(counters.deadline_met);
    tenant["deadline_missed"] = JsonValue(counters.deadline_missed);
    tenant["attainment"] = JsonValue(counters.attainment());
    tenant["meets_target"] =
        JsonValue(counters.attainment() >= config.slo_deadline_target);
    tenant["queue_wait_p50_us"] = JsonValue(quantile(
        obs::LabeledMetricName(obs::kMetricServeTenantQueueWaitMicros,
                               "tenant", name),
        0.5));
    tenant["queue_wait_p99_us"] = JsonValue(quantile(
        obs::LabeledMetricName(obs::kMetricServeTenantQueueWaitMicros,
                               "tenant", name),
        0.99));
    tenant["service_p50_us"] = JsonValue(quantile(
        obs::LabeledMetricName(obs::kMetricServeTenantServiceMicros, "tenant",
                               name),
        0.5));
    tenant["service_p99_us"] = JsonValue(quantile(
        obs::LabeledMetricName(obs::kMetricServeTenantServiceMicros, "tenant",
                               name),
        0.99));
    slo_tenants[name] = JsonValue(std::move(tenant));
  }
  slo["tenants"] = JsonValue(std::move(slo_tenants));
  root["slo"] = JsonValue(std::move(slo));

  // The request-cache block: this server's view (hits/misses/bypass of
  // executed requests) plus the process-wide tiers it shares with every
  // other server and session in the process.
  JsonValue::Object cache_info;
  cache_info["enabled"] = JsonValue(config.enable_cache);
  cache_info["hits"] = JsonValue(stats.cache_hits);
  cache_info["misses"] = JsonValue(stats.cache_misses);
  cache_info["bypass"] = JsonValue(stats.cache_bypass);
  if (config.enable_cache) {
    const cache::CacheStats shared = cache::RequestCache::Global().Stats();
    JsonValue::Object process;
    process["result_hits"] = JsonValue(shared.result_hits);
    process["result_misses"] = JsonValue(shared.result_misses);
    process["count_hits"] = JsonValue(shared.count_hits);
    process["count_misses"] = JsonValue(shared.count_misses);
    process["bypasses"] = JsonValue(shared.bypasses);
    process["evictions"] = JsonValue(shared.evictions);
    process["epoch_invalidations"] = JsonValue(shared.epoch_invalidations);
    process["result_entries"] =
        JsonValue(static_cast<int64_t>(shared.result_entries));
    process["count_entries"] =
        JsonValue(static_cast<int64_t>(shared.count_entries));
    process["result_bytes"] =
        JsonValue(static_cast<int64_t>(shared.result_bytes));
    cache_info["process"] = JsonValue(std::move(process));
  }
  root["cache"] = JsonValue(std::move(cache_info));

  JsonValue::Object trace;
  trace["sample_every"] = JsonValue(config.trace_sample_every);
  trace["max_spans_per_request"] =
      JsonValue(static_cast<int64_t>(config.max_spans_per_request));
  trace["dropped_spans"] = JsonValue(stats.trace_dropped_spans);
  root["trace"] = JsonValue(std::move(trace));

  const obs::FlightRecorder& recorder = core_->recorder();
  JsonValue::Object recorder_info;
  recorder_info["capacity"] =
      JsonValue(static_cast<int64_t>(recorder.config().capacity));
  recorder_info["quiet_seconds"] = JsonValue(recorder.config().quiet_seconds);
  recorder_info["total_recorded"] = JsonValue(recorder.total_recorded());
  recorder_info["non_ok_recorded"] = JsonValue(recorder.non_ok_recorded());
  recorder_info["auto_dumps"] = JsonValue(recorder.auto_dumps());
  root["recorder"] = JsonValue(std::move(recorder_info));

  if (include_recorder) {
    JsonValue::Array records;
    for (const obs::RecordedRequest& record : recorder.Snapshot()) {
      records.push_back(record.ToJson());
    }
    root["recorder_records"] = JsonValue(std::move(records));
  }

  HttpResponse response;
  response.content_type = "application/json; charset=utf-8";
  response.body = JsonValue(std::move(root)).Dump();
  response.body += "\n";
  return response;
}

void AdminServer::Stop() {
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    shutdown(listen_fd_, SHUT_RDWR);
    close(listen_fd_);
  }
  // An in-progress request finishes on its own (bounded by the socket
  // timeouts) before the accept loop notices the closed listener.
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
}

Result<AdminServer::HttpResponse> AdminHttpGet(const std::string& host,
                                               int port,
                                               std::string_view target,
                                               double timeout_seconds) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("socket(): %s", std::strerror(errno)));
  }
  SetSocketTimeout(fd, SO_RCVTIMEO, timeout_seconds);
  SetSocketTimeout(fd, SO_SNDTIMEO, timeout_seconds);

  sockaddr_in address;
  std::memset(&address, 0, sizeof(address));
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad admin host '" + host + "'");
  }
  if (connect(fd, reinterpret_cast<const sockaddr*>(&address),
              sizeof(address)) != 0) {
    Status status = Status::FailedPrecondition(StrFormat(
        "connect(%s:%d): %s", host.c_str(), port, std::strerror(errno)));
    close(fd);
    return status;
  }

  std::string request = StrFormat("GET %s HTTP/1.0\r\nHost: %s\r\n\r\n",
                                  std::string(target).c_str(), host.c_str());
  if (!WriteFully(fd, request)) {
    close(fd);
    return Status::DeadlineExceeded("admin request write failed");
  }

  // HTTP/1.0 with Connection: close — the response body ends at EOF.
  std::string raw;
  char chunk[4096];
  for (;;) {
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      raw.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) break;  // orderly EOF
    close(fd);
    return Status::DeadlineExceeded(
        StrFormat("admin response read failed: %s", std::strerror(errno)));
  }
  close(fd);

  const size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) {
    return Status::Internal("malformed admin response: no status line");
  }
  // Status line: HTTP/1.x SP CODE SP TEXT.
  const std::string_view line = std::string_view(raw).substr(0, line_end);
  const size_t code_start = line.find(' ');
  if (code_start == std::string_view::npos ||
      code_start + 4 > line.size()) {
    return Status::Internal("malformed admin status line '" +
                            std::string(line) + "'");
  }
  int code = 0;
  for (size_t i = code_start + 1; i < line.size() && line[i] != ' '; ++i) {
    if (line[i] < '0' || line[i] > '9') {
      return Status::Internal("malformed admin status code in '" +
                              std::string(line) + "'");
    }
    code = code * 10 + (line[i] - '0');
  }

  const size_t headers_end = raw.find("\r\n\r\n");
  if (headers_end == std::string::npos) {
    return Status::Internal("malformed admin response: no header terminator");
  }
  AdminServer::HttpResponse response;
  response.status_code = code;
  const std::string_view headers =
      std::string_view(raw).substr(line_end + 2, headers_end - line_end - 2);
  const size_t type_at = headers.find("Content-Type: ");
  if (type_at != std::string_view::npos) {
    const std::string_view rest = headers.substr(type_at + 14);
    response.content_type = std::string(rest.substr(0, rest.find("\r\n")));
  }
  response.body = raw.substr(headers_end + 4);
  return response;
}

}  // namespace coursenav::serve
