// Request-scoped tracing and admin-plane tests: trace_id propagation, span
// trees returned over a live socket, the admin endpoints (/metrics,
// /healthz, /statusz) both transport-free and over HTTP, and the
// trace <-> serve-metrics reconciliation under concurrent workers. Socket
// tests skip gracefully when the sandbox refuses loopback sockets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/request_cache.h"
#include "data/brandeis_cs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/admin.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket_server.h"
#include "util/json.h"
#include "util/status.h"
#include "util/string_util.h"

namespace coursenav::serve {
namespace {

const data::BrandeisDataset& Dataset() {
  static const data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  return dataset;
}

/// A small deadline-driven exploration document that executes in a few
/// milliseconds (mirrors serve_test's TinyRequestDoc).
JsonValue TinyRequestDoc() {
  JsonValue::Object start;
  start["term"] = JsonValue("Spring 2015");
  JsonValue::Object limits;
  limits["max_nodes"] = JsonValue(static_cast<int64_t>(5000));
  JsonValue::Object options;
  options["limits"] = JsonValue(std::move(limits));
  JsonValue::Object request;
  request["start"] = JsonValue(std::move(start));
  request["end_term"] = JsonValue("Fall 2015");
  request["type"] = JsonValue("deadline");
  request["options"] = JsonValue(std::move(options));
  return JsonValue(std::move(request));
}

std::string TracedPayload(std::string_view tenant, std::string_view id,
                          std::string_view trace_id = "") {
  return MakeRequestEnvelope(tenant, id, 2000.0, TinyRequestDoc(),
                             /*degrade=*/std::nullopt, /*full_payload=*/false,
                             /*want_trace=*/true, trace_id)
      .Dump();
}

/// Collects the span names from a ResponseEnvelope's trace array. Only
/// referenced when tracing is compiled in.
[[maybe_unused]] std::multiset<std::string> SpanNames(const JsonValue& trace) {
  std::multiset<std::string> names;
  if (!trace.is_array()) return names;
  for (const JsonValue& span : trace.array()) {
    Result<JsonValue> name = span.Get("name");
    if (name.ok() && name->is_string()) {
      names.insert(*name->GetString());
    }
  }
  return names;
}

const obs::MetricSnapshot* FindMetric(
    const std::vector<obs::MetricSnapshot>& snapshot, const std::string& name,
    obs::MetricKind kind) {
  for (const obs::MetricSnapshot& metric : snapshot) {
    if (metric.kind == kind && metric.name == name) return &metric;
  }
  return nullptr;
}

int64_t HistogramSum(const std::vector<obs::MetricSnapshot>& snapshot,
                     std::string_view name) {
  const obs::MetricSnapshot* metric = FindMetric(
      snapshot, std::string(name), obs::MetricKind::kHistogram);
  return metric != nullptr ? metric->sum : 0;
}

int64_t HistogramCount(const std::vector<obs::MetricSnapshot>& snapshot,
                       std::string_view name) {
  const obs::MetricSnapshot* metric = FindMetric(
      snapshot, std::string(name), obs::MetricKind::kHistogram);
  return metric != nullptr ? metric->value : 0;
}

TEST(TraceIdTest, ClientSuppliedIdIsEchoed) {
  ExplorationServer server(&Dataset().catalog, &Dataset().schedule);
  server.Start();
  ResponseEnvelope response =
      server.HandleRequest(TracedPayload("alice", "r1", "my-trace.001"));
  EXPECT_EQ(response.outcome, ResponseOutcome::kOk)
      << response.status.ToString();
  EXPECT_EQ(response.trace_id, "my-trace.001");
  server.Shutdown();
}

TEST(TraceIdTest, ServerGeneratesIdWhenAbsent) {
  ExplorationServer server(&Dataset().catalog, &Dataset().schedule);
  server.Start();
  ResponseEnvelope response =
      server.HandleRequest(TracedPayload("alice", "r1"));
  EXPECT_EQ(response.outcome, ResponseOutcome::kOk);
  ASSERT_FALSE(response.trace_id.empty());
  EXPECT_EQ(response.trace_id.substr(0, 4), "srv-");
  server.Shutdown();
}

TEST(TraceIdTest, HostileTraceIdIsRejected) {
  ExplorationServer server(&Dataset().catalog, &Dataset().schedule);
  server.Start();
  JsonValue envelope = MakeRequestEnvelope("alice", "r1", 2000.0,
                                           TinyRequestDoc());
  envelope.object()["trace_id"] = JsonValue("no spaces\nor newlines");
  ResponseEnvelope response = server.HandleRequest(envelope.Dump());
  EXPECT_EQ(response.outcome, ResponseOutcome::kRejected);
  server.Shutdown();
}

TEST(TraceIdTest, RejectedEnvelopesStillCarryTheirTraceId) {
  ExplorationServer server(&Dataset().catalog, &Dataset().schedule);
  server.Start();
  // Schema-invalid inner request: the envelope (and its trace_id) parsed.
  JsonValue envelope = MakeRequestEnvelope("alice", "r1", 2000.0,
                                           JsonValue(JsonValue::Object{}),
                                           std::nullopt, false, false,
                                           "rej-trace");
  ResponseEnvelope response = server.HandleRequest(envelope.Dump());
  EXPECT_EQ(response.outcome, ResponseOutcome::kRejected);
  EXPECT_EQ(response.trace_id, "rej-trace");
  server.Shutdown();
}

/// The servers below share the process-wide request cache; each test starts
/// it empty, so a request an earlier test (in this binary) answered is a
/// miss again and its span tree still shows planning, not just the lookup.
class TraceOptInTest : public ::testing::Test {
 protected:
  void SetUp() override { cache::RequestCache::Global().Clear(); }
};

TEST_F(TraceOptInTest, NoOptInMeansNoSpanTree) {
  ExplorationServer server(&Dataset().catalog, &Dataset().schedule);
  server.Start();
  JsonValue envelope =
      MakeRequestEnvelope("alice", "r1", 2000.0, TinyRequestDoc());
  ResponseEnvelope response = server.HandleRequest(envelope.Dump());
  EXPECT_EQ(response.outcome, ResponseOutcome::kOk);
  EXPECT_TRUE(response.trace.is_null());
  server.Shutdown();
}

TEST_F(TraceOptInTest, OptInReturnsSpanTreeCoveringAllStages) {
  ExplorationServer server(&Dataset().catalog, &Dataset().schedule);
  server.Start();
  ResponseEnvelope response =
      server.HandleRequest(TracedPayload("alice", "r1"));
  ASSERT_EQ(response.outcome, ResponseOutcome::kOk)
      << response.status.ToString();
#if COURSENAV_TRACING
  ASSERT_TRUE(response.trace.is_array());
  const std::multiset<std::string> names = SpanNames(response.trace);
  EXPECT_EQ(names.count(std::string(obs::kSpanServeRequest)), 1u);
  EXPECT_EQ(names.count(std::string(obs::kSpanServeAdmissionWait)), 1u);
  EXPECT_EQ(names.count(std::string(obs::kSpanServeClamp)), 1u);
  EXPECT_GE(names.count(std::string(obs::kSpanPlanLower)), 1u);
  // The admission-wait and clamp intervals are children of the root
  // serve/request span, so the whole request is one connected tree.
  int64_t root_id = 0;
  for (const JsonValue& span : response.trace.array()) {
    if (*span.Get("name")->GetString() == obs::kSpanServeRequest) {
      root_id = *span.Get("span_id")->GetInt();
      EXPECT_EQ(*span.Get("parent_id")->GetInt(), 0);
    }
  }
  ASSERT_GT(root_id, 0);
  for (const JsonValue& span : response.trace.array()) {
    const std::string name = *span.Get("name")->GetString();
    if (name == obs::kSpanServeAdmissionWait ||
        name == obs::kSpanServeClamp) {
      EXPECT_EQ(*span.Get("parent_id")->GetInt(), root_id) << name;
    }
  }
#else
  // Tracing compiled out: the opt-in degrades to the id echo alone.
  EXPECT_TRUE(response.trace.is_null());
  EXPECT_FALSE(response.trace_id.empty());
#endif
  server.Shutdown();
}

TEST_F(TraceOptInTest, CachedRequestsTraceTheCacheLookup) {
  ServerConfig config;
  config.enable_cache = true;
  ExplorationServer server(&Dataset().catalog, &Dataset().schedule, config);
  server.Start();
  // The first ask fills the result tier (or hits an earlier fill); the
  // second is a hit. Both probe the cache under a cache/lookup span.
  for (const char* id : {"r1", "r2"}) {
    ResponseEnvelope response =
        server.HandleRequest(TracedPayload("alice", id));
    ASSERT_EQ(response.outcome, ResponseOutcome::kOk)
        << response.status.ToString();
#if COURSENAV_TRACING
    const std::multiset<std::string> names = SpanNames(response.trace);
    EXPECT_GE(names.count(std::string(obs::kSpanCacheLookup)), 1u) << id;
#endif
  }
  server.Shutdown();
}

TEST_F(TraceOptInTest, SpanTreeRoundTripsOverTheSocket) {
  ExplorationServer core(&Dataset().catalog, &Dataset().schedule);
  core.Start();
  SocketServer transport(&core);
  Status started = transport.Start();
  if (!started.ok()) {
    core.Shutdown();
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }
  Result<ServeClient> client =
      ServeClient::Connect("127.0.0.1", transport.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<ResponseEnvelope> response =
      client->CallEnvelope(TracedPayload("alice", "sock-1", "wire-trace"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->outcome, ResponseOutcome::kOk);
  EXPECT_EQ(response->trace_id, "wire-trace");
#if COURSENAV_TRACING
  const std::multiset<std::string> names = SpanNames(response->trace);
  EXPECT_EQ(names.count(std::string(obs::kSpanServeRequest)), 1u);
  EXPECT_EQ(names.count(std::string(obs::kSpanServeAdmissionWait)), 1u);
  EXPECT_GE(names.count(std::string(obs::kSpanPlanLower)), 1u);
#endif
  transport.Stop();
  core.Shutdown();
}

TEST(AdminPlaneTest, HealthzFollowsTheServerLifecycle) {
  ExplorationServer core(&Dataset().catalog, &Dataset().schedule);
  AdminServer admin(&core);
  EXPECT_EQ(admin.HandleGet("/healthz").status_code, 503);  // idle
  core.Start();
  AdminServer::HttpResponse healthy = admin.HandleGet("/healthz");
  EXPECT_EQ(healthy.status_code, 200);
  EXPECT_EQ(healthy.body, "serving\n");
  core.Shutdown();
  EXPECT_EQ(admin.HandleGet("/healthz").status_code, 503);  // stopped
}

TEST(AdminPlaneTest, MetricsServesPerTenantLatencySeries) {
  // The metric registry is process-wide: count from what earlier runs of
  // this test (--gtest_repeat) left in the series.
  const int64_t before =
      obs::GlobalMetrics()
          .GetHistogram(obs::LabeledMetricName(
              obs::kMetricServeTenantServiceMicros, "tenant",
              "metrics-tenant"))
          ->Count();
  ExplorationServer core(&Dataset().catalog, &Dataset().schedule);
  core.Start();
  for (int i = 0; i < 3; ++i) {
    core.HandleRequest(TracedPayload("metrics-tenant", StrFormat("m%d", i)));
  }
  AdminServer admin(&core);
  AdminServer::HttpResponse response = admin.HandleGet("/metrics");
  EXPECT_EQ(response.status_code, 200);
  EXPECT_NE(response.body.find(
                "coursenav_serve_tenant_service_us_count{tenant=\"metrics-"
                "tenant\"} " +
                std::to_string(before + 3)),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("coursenav_trace_dropped_spans"),
            std::string::npos);
  EXPECT_NE(response.body.find("coursenav_metrics_interned_names"),
            std::string::npos);
  core.Shutdown();
}

TEST(AdminPlaneTest, StatuszReportsSloAndRecorder) {
  ServerConfig config;
  config.trace_sample_every = 1;
  ExplorationServer core(&Dataset().catalog, &Dataset().schedule, config);
  core.Start();
  for (int i = 0; i < 4; ++i) {
    ResponseEnvelope response =
        core.HandleRequest(TracedPayload("statusz-tenant", std::to_string(i)));
    ASSERT_EQ(response.outcome, ResponseOutcome::kOk);
  }
  AdminServer admin(&core);
  AdminServer::HttpResponse plain = admin.HandleGet("/statusz");
  EXPECT_EQ(plain.status_code, 200);
  Result<JsonValue> parsed = JsonValue::Parse(plain.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed->Get("state")->GetString(), "serving");
  EXPECT_GT(*parsed->Get("uptime_seconds")->GetNumber(), 0.0);
  EXPECT_EQ(*parsed->Get("requests")->Get("ok")->GetInt(), 4);
  const JsonValue tenant_slo =
      *parsed->Get("slo")->Get("tenants")->Get("statusz-tenant");
  EXPECT_EQ(*tenant_slo.Get("deadline_met")->GetInt(), 4);
  EXPECT_EQ(*tenant_slo.Get("attainment")->GetNumber(), 1.0);
  EXPECT_TRUE(*tenant_slo.Get("meets_target")->GetBool());
  EXPECT_EQ(*parsed->Get("recorder")->Get("total_recorded")->GetInt(), 4);
  EXPECT_FALSE(parsed->Has("recorder_records"));

  AdminServer::HttpResponse with_records =
      admin.HandleGet("/statusz?recorder=1");
  Result<JsonValue> dumped = JsonValue::Parse(with_records.body);
  ASSERT_TRUE(dumped.ok());
  ASSERT_TRUE(dumped->Has("recorder_records"));
  EXPECT_EQ(dumped->Get("recorder_records")->array().size(), 4u);
  core.Shutdown();
}

TEST(AdminPlaneTest, UnknownTargetIs404) {
  ExplorationServer core(&Dataset().catalog, &Dataset().schedule);
  AdminServer admin(&core);
  EXPECT_EQ(admin.HandleGet("/wrong").status_code, 404);
}

TEST(AdminPlaneTest, ServesHttpOverLoopback) {
  ExplorationServer core(&Dataset().catalog, &Dataset().schedule);
  core.Start();
  // One real request so the serve_* series exist in the global registry
  // even when this test runs in its own process.
  EXPECT_EQ(core.HandleRequest(TracedPayload("admin-tenant", "warm-1")).outcome,
            ResponseOutcome::kOk);
  AdminServer admin(&core);
  Status started = admin.Start();
  if (!started.ok()) {
    core.Shutdown();
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }
  ASSERT_GT(admin.port(), 0);

  Result<AdminServer::HttpResponse> health =
      AdminHttpGet("127.0.0.1", admin.port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status_code, 200);
  EXPECT_EQ(health->body, "serving\n");

  Result<AdminServer::HttpResponse> metrics =
      AdminHttpGet("127.0.0.1", admin.port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status_code, 200);
  EXPECT_NE(metrics->content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(metrics->body.find("coursenav_serve_requests_submitted_total"),
            std::string::npos);

  Result<AdminServer::HttpResponse> missing =
      AdminHttpGet("127.0.0.1", admin.port(), "/missing");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 404);
  EXPECT_EQ(admin.requests_served(), 3);

  admin.Stop();
  core.Shutdown();
}

/// The reconciliation law: with four workers running concurrently, the
/// serve_* histograms must account for every executed request exactly —
/// counts match the number of completions and the sums match the envelope
/// timings (both are derived from the same measured values) — and every
/// returned span tree must cover admission wait through execution.
TEST(ReconciliationTest, SpansAndHistogramsAgreeUnderConcurrency) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;

  const std::vector<obs::MetricSnapshot> before =
      obs::GlobalMetrics().Snapshot();

  ServerConfig config;
  config.num_workers = 4;
  config.trace_sample_every = 1;
  // Uncached: the law below asserts every request's span tree includes the
  // plan-lowering stage, which a request-cache hit legitimately skips.
  config.enable_cache = false;
  ExplorationServer server(&Dataset().catalog, &Dataset().schedule, config);
  server.Start();

  std::mutex mu;
  std::vector<ResponseEnvelope> responses;
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string tenant = t % 2 == 0 ? "tenant-even" : "tenant-odd";
        ResponseEnvelope response = server.HandleRequest(TracedPayload(
            tenant, std::to_string(t) + "-" + std::to_string(i)));
        std::lock_guard<std::mutex> lock(mu);
        responses.push_back(std::move(response));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const ServerStats stats = server.Stats();
  server.Shutdown();

  ASSERT_EQ(responses.size(),
            static_cast<size_t>(kThreads) * kPerThread);
  int64_t expected_service_us = 0;
  int64_t expected_wait_us = 0;
  std::map<std::string, int64_t> per_tenant;
  for (const ResponseEnvelope& response : responses) {
    ASSERT_EQ(response.outcome, ResponseOutcome::kOk)
        << response.status.ToString();
    expected_service_us += static_cast<int64_t>(response.service_ms * 1e3);
    expected_wait_us += static_cast<int64_t>(response.queue_wait_ms * 1e3);
    ++per_tenant[response.tenant];
#if COURSENAV_TRACING
    // Span tree covers the whole request: admission wait, clamp, and the
    // executor ran under the root span.
    const std::multiset<std::string> names = SpanNames(response.trace);
    ASSERT_EQ(names.count(std::string(obs::kSpanServeRequest)), 1u);
    ASSERT_EQ(names.count(std::string(obs::kSpanServeAdmissionWait)), 1u);
    ASSERT_EQ(names.count(std::string(obs::kSpanServeClamp)), 1u);
    ASSERT_GE(names.count(std::string(obs::kSpanPlanLower)), 1u);
    // The admission-wait span and the envelope's queue_wait_ms are two
    // renderings of the same measured interval.
    for (const JsonValue& span : response.trace.array()) {
      if (*span.Get("name")->GetString() == obs::kSpanServeAdmissionWait) {
        const int64_t wait_us = *span.Get("dur_us")->GetInt();
        EXPECT_NEAR(static_cast<double>(wait_us),
                    response.queue_wait_ms * 1e3, 2.0);
      }
    }
#endif
  }

  // Histogram deltas reconcile with the envelopes exactly: PublishMetrics
  // observes the same casts this test recomputes.
  const std::vector<obs::MetricSnapshot> after =
      obs::GlobalMetrics().Snapshot();
  const int64_t total = kThreads * kPerThread;
  EXPECT_EQ(HistogramCount(after, obs::kMetricServeServiceMicros) -
                HistogramCount(before, obs::kMetricServeServiceMicros),
            total);
  EXPECT_EQ(HistogramSum(after, obs::kMetricServeServiceMicros) -
                HistogramSum(before, obs::kMetricServeServiceMicros),
            expected_service_us);
  EXPECT_EQ(HistogramCount(after, obs::kMetricServeQueueWaitMicros) -
                HistogramCount(before, obs::kMetricServeQueueWaitMicros),
            total);
  EXPECT_EQ(HistogramSum(after, obs::kMetricServeQueueWaitMicros) -
                HistogramSum(before, obs::kMetricServeQueueWaitMicros),
            expected_wait_us);

  // Per-tenant labeled histograms carry the same totals, tenant by tenant.
  for (const auto& [tenant, count] : per_tenant) {
    const std::string labeled = obs::LabeledMetricName(
        obs::kMetricServeTenantServiceMicros, "tenant", tenant);
    EXPECT_EQ(HistogramCount(after, labeled) - HistogramCount(before, labeled),
              count)
        << tenant;
  }

  // SLO accounting saw every request: all ok within a generous deadline.
  int64_t slo_total = 0;
  for (const auto& [tenant, counters] : stats.slo) {
    slo_total += counters.deadline_met + counters.deadline_missed;
  }
  EXPECT_EQ(slo_total, total);

  // The server-side sink (sample_every=1) kept every request's summary.
  EXPECT_EQ(stats.completed, total);
}

}  // namespace
}  // namespace coursenav::serve
