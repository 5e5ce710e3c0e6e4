// Serving-layer tests: wire framing, envelope validation, admission-queue
// bounds and EDF ordering, server lifecycle (start → serve → drain →
// shutdown), per-tenant quota shedding, resource clamping with degraded
// answers, and the client's jittered retry loop. Socket tests skip
// gracefully when the sandbox refuses loopback sockets.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/brandeis_cs.h"
#include "graph/export.h"
#include "plan/executor.h"
#include "plan/request.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket_server.h"
#include "util/json.h"
#include "util/status.h"

namespace coursenav::serve {
namespace {

const data::BrandeisDataset& Dataset() {
  static const data::BrandeisDataset dataset = data::BuildBrandeisDataset();
  return dataset;
}

/// A small deadline-driven exploration document (2-semester horizon,
/// bounded nodes) that executes in a few milliseconds.
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

/// The 6-semester blow-up: exhausts any reasonable node budget.
JsonValue HeavyRequestDoc() {
  JsonValue::Object start;
  start["term"] = JsonValue("Fall 2012");
  JsonValue::Object request;
  request["start"] = JsonValue(std::move(start));
  request["end_term"] = JsonValue("Fall 2015");
  request["type"] = JsonValue("deadline");
  return JsonValue(std::move(request));
}

std::string TinyPayload(std::string_view tenant, std::string_view id,
                        double deadline_ms = 2000.0) {
  return MakeRequestEnvelope(tenant, id, deadline_ms, TinyRequestDoc())
      .Dump();
}

std::shared_ptr<Ticket> MakeTicket(std::string tenant,
                                   double deadline_seconds) {
  auto ticket = std::make_shared<Ticket>();
  ticket->tenant = std::move(tenant);
  ticket->deadline_seconds = deadline_seconds;
  return ticket;
}

TEST(FramingTest, RoundTripsPayload) {
  std::string frame = EncodeFrame("hello");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 5);
  unsigned char header[kFrameHeaderBytes];
  for (size_t i = 0; i < kFrameHeaderBytes; ++i) {
    header[i] = static_cast<unsigned char>(frame[i]);
  }
  Result<size_t> length = DecodeFrameHeader(header, kDefaultMaxFrameBytes);
  ASSERT_TRUE(length.ok()) << length.status().ToString();
  EXPECT_EQ(*length, 5u);
  EXPECT_EQ(frame.substr(kFrameHeaderBytes), "hello");
}

TEST(FramingTest, OversizedHeaderIsRejectedWithoutReading) {
  std::string frame = EncodeFrame(std::string(4096, 'x'));
  unsigned char header[kFrameHeaderBytes];
  for (size_t i = 0; i < kFrameHeaderBytes; ++i) {
    header[i] = static_cast<unsigned char>(frame[i]);
  }
  Result<size_t> length = DecodeFrameHeader(header, 1024);
  ASSERT_FALSE(length.ok());
  EXPECT_TRUE(length.status().IsInvalidArgument());
}

TEST(EnvelopeTest, MakeAndParseRoundTrip) {
  JsonValue doc = MakeRequestEnvelope("alice", "req-1", 1500.0,
                                      TinyRequestDoc(), true, true);
  Result<RequestEnvelope> envelope = ParseRequestEnvelope(doc);
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  EXPECT_EQ(envelope->tenant, "alice");
  EXPECT_EQ(envelope->request_id, "req-1");
  EXPECT_EQ(envelope->deadline_ms, 1500.0);
  ASSERT_TRUE(envelope->degrade.has_value());
  EXPECT_TRUE(*envelope->degrade);
  EXPECT_TRUE(envelope->full_payload);
  EXPECT_TRUE(envelope->request.is_object());
}

TEST(EnvelopeTest, BadTenantAndUnknownKeysAreRejected) {
  for (const char* tenant : {"", "has space", "way/slash"}) {
    JsonValue doc = MakeRequestEnvelope(tenant, "r", 0.0, TinyRequestDoc());
    EXPECT_FALSE(ParseRequestEnvelope(doc).ok()) << tenant;
  }
  JsonValue doc = MakeRequestEnvelope("ok", "r", 0.0, TinyRequestDoc());
  JsonValue::Object object = doc.object();
  object["surprise"] = JsonValue(true);
  EXPECT_FALSE(ParseRequestEnvelope(JsonValue(std::move(object))).ok());
}

TEST(EnvelopeTest, ResponseJsonRoundTrip) {
  ResponseEnvelope response;
  response.tenant = "alice";
  response.request_id = "r-9";
  response.outcome = ResponseOutcome::kOverloaded;
  response.status = Status::ResourceExhausted("shed: queue-full");
  response.retry_after_ms = 125.0;
  response.queue_wait_ms = 3.5;
  response.served_seq = 17;
  Result<ResponseEnvelope> parsed = ResponseEnvelope::FromJson(
      response.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tenant, "alice");
  EXPECT_EQ(parsed->outcome, ResponseOutcome::kOverloaded);
  EXPECT_TRUE(parsed->status.IsResourceExhausted());
  EXPECT_EQ(parsed->retry_after_ms, 125.0);
  EXPECT_EQ(parsed->served_seq, 17);
}

TEST(EnvelopeTest, TraceFieldsRoundTripThroughTheWireFormat) {
  JsonValue doc = MakeRequestEnvelope("alice", "req-2", 1000.0,
                                      TinyRequestDoc(), std::nullopt, false,
                                      /*want_trace=*/true, "trace-abc.1");
  Result<RequestEnvelope> envelope = ParseRequestEnvelope(doc);
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  EXPECT_EQ(envelope->trace_id, "trace-abc.1");
  EXPECT_TRUE(envelope->want_trace);

  // Omitted trace fields parse to their defaults.
  JsonValue plain = MakeRequestEnvelope("alice", "req-3", 0.0,
                                        TinyRequestDoc());
  Result<RequestEnvelope> no_trace = ParseRequestEnvelope(plain);
  ASSERT_TRUE(no_trace.ok());
  EXPECT_TRUE(no_trace->trace_id.empty());
  EXPECT_FALSE(no_trace->want_trace);
}

TEST(EnvelopeTest, HostileTraceIdsAreRejectedAtParse) {
  for (const char* trace_id :
       {"has space", "new\nline", "quo\"te", "semi;colon"}) {
    JsonValue doc = MakeRequestEnvelope("alice", "r", 0.0, TinyRequestDoc(),
                                        std::nullopt, false, false, trace_id);
    EXPECT_FALSE(ParseRequestEnvelope(doc).ok()) << trace_id;
  }
  const std::string too_long(65, 'a');
  JsonValue doc = MakeRequestEnvelope("alice", "r", 0.0, TinyRequestDoc(),
                                      std::nullopt, false, false, too_long);
  EXPECT_FALSE(ParseRequestEnvelope(doc).ok());
}

TEST(EnvelopeTest, ResponseTraceRoundTrip) {
  ResponseEnvelope response;
  response.tenant = "alice";
  response.request_id = "r-10";
  response.outcome = ResponseOutcome::kOk;
  response.trace_id = "srv-42";
  JsonValue::Object span;
  span["span_id"] = JsonValue(static_cast<int64_t>(1));
  span["parent_id"] = JsonValue(static_cast<int64_t>(0));
  span["name"] = JsonValue("serve/request");
  JsonValue::Array spans;
  spans.emplace_back(std::move(span));
  response.trace = JsonValue(std::move(spans));

  Result<ResponseEnvelope> parsed =
      ResponseEnvelope::FromJson(response.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->trace_id, "srv-42");
  ASSERT_TRUE(parsed->trace.is_array());
  ASSERT_EQ(parsed->trace.array().size(), 1u);
  EXPECT_EQ(*parsed->trace.array()[0].Get("name")->GetString(),
            "serve/request");

  // Without opt-in, the trace key never appears on the wire.
  ResponseEnvelope bare;
  bare.tenant = "alice";
  bare.request_id = "r-11";
  bare.outcome = ResponseOutcome::kOk;
  bare.trace_id = "srv-43";
  EXPECT_FALSE(bare.ToJson().Has("trace"));
  Result<ResponseEnvelope> bare_parsed =
      ResponseEnvelope::FromJson(bare.ToJson());
  ASSERT_TRUE(bare_parsed.ok());
  EXPECT_TRUE(bare_parsed->trace.is_null());
  EXPECT_EQ(bare_parsed->trace_id, "srv-43");
}

TEST(AdmissionQueueTest, BoundsShedWithRetryHints) {
  AdmissionConfig config;
  config.max_queue_depth = 2;
  config.max_queued_per_tenant = 2;
  config.max_tenants = 2;
  AdmissionQueue queue(config);
  EXPECT_EQ(queue.Admit(MakeTicket("a", 1.0)).verdict,
            AdmitVerdict::kAdmitted);
  EXPECT_EQ(queue.Admit(MakeTicket("b", 1.0)).verdict,
            AdmitVerdict::kAdmitted);
  AdmissionQueue::AdmitResult full = queue.Admit(MakeTicket("a", 1.0));
  EXPECT_EQ(full.verdict, AdmitVerdict::kQueueFull);
  EXPECT_GT(full.retry_after_ms, 0.0);
  EXPECT_EQ(queue.Admit(MakeTicket("c", 1.0)).verdict,
            AdmitVerdict::kTenantTableFull);
  EXPECT_EQ(queue.depth(), 2);
}

TEST(AdmissionQueueTest, PerTenantQueueAndInflightBounds) {
  AdmissionConfig config;
  config.max_queue_depth = 16;
  config.max_queued_per_tenant = 1;
  config.max_inflight_per_tenant = 1;
  AdmissionQueue queue(config);
  EXPECT_EQ(queue.Admit(MakeTicket("a", 1.0)).verdict,
            AdmitVerdict::kAdmitted);
  EXPECT_EQ(queue.Admit(MakeTicket("a", 1.0)).verdict,
            AdmitVerdict::kTenantQueueFull);
  // Move the queued ticket in-flight; the tenant is still saturated.
  std::shared_ptr<Ticket> running = queue.Pop();
  ASSERT_NE(running, nullptr);
  EXPECT_EQ(queue.inflight(), 1);
  EXPECT_EQ(queue.Admit(MakeTicket("a", 1.0)).verdict,
            AdmitVerdict::kTenantInflightFull);
  // Completion frees the quota.
  queue.Complete(running, 0.01);
  EXPECT_EQ(queue.Admit(MakeTicket("a", 1.0)).verdict,
            AdmitVerdict::kAdmitted);
}

TEST(AdmissionQueueTest, PopIsEarliestDeadlineFirst) {
  AdmissionQueue queue(AdmissionConfig{});
  auto late = MakeTicket("a", 8.0);
  auto soon = MakeTicket("b", 0.5);
  auto middle = MakeTicket("c", 3.0);
  ASSERT_EQ(queue.Admit(late).verdict, AdmitVerdict::kAdmitted);
  ASSERT_EQ(queue.Admit(soon).verdict, AdmitVerdict::kAdmitted);
  ASSERT_EQ(queue.Admit(middle).verdict, AdmitVerdict::kAdmitted);
  EXPECT_EQ(queue.Pop()->tenant, "b");
  EXPECT_EQ(queue.Pop()->tenant, "c");
  EXPECT_EQ(queue.Pop()->tenant, "a");
}

TEST(AdmissionQueueTest, CloseShedsNewWorkAndDrainsQueued) {
  AdmissionQueue queue(AdmissionConfig{});
  ASSERT_EQ(queue.Admit(MakeTicket("a", 1.0)).verdict,
            AdmitVerdict::kAdmitted);
  queue.CloseForAdmission();
  EXPECT_EQ(queue.Admit(MakeTicket("a", 1.0)).verdict,
            AdmitVerdict::kNotServing);
  EXPECT_NE(queue.Pop(), nullptr);  // Already-queued work still drains.
  EXPECT_EQ(queue.Pop(), nullptr);  // Then workers are told to exit.
}

TEST(AdmissionQueueTest, EvictReturnsQueuedTickets) {
  AdmissionQueue queue(AdmissionConfig{});
  ASSERT_EQ(queue.Admit(MakeTicket("a", 1.0)).verdict,
            AdmitVerdict::kAdmitted);
  ASSERT_EQ(queue.Admit(MakeTicket("b", 2.0)).verdict,
            AdmitVerdict::kAdmitted);
  std::vector<std::shared_ptr<Ticket>> evicted = queue.Evict();
  EXPECT_EQ(evicted.size(), 2u);
  EXPECT_EQ(queue.depth(), 0);
}

TEST(ServerTest, LifecycleServesThenDrainsClean) {
  ExplorationServer server(&Dataset().catalog, &Dataset().schedule);
  EXPECT_EQ(server.state(), ExplorationServer::State::kIdle);
  server.Start();
  EXPECT_EQ(server.state(), ExplorationServer::State::kServing);

  ResponseEnvelope response = server.HandleRequest(TinyPayload("alice", "r1"));
  EXPECT_EQ(response.outcome, ResponseOutcome::kOk);
  EXPECT_EQ(response.tenant, "alice");
  EXPECT_EQ(response.request_id, "r1");
  EXPECT_GE(response.served_seq, 0);
  EXPECT_TRUE(response.result.is_object());

  EXPECT_TRUE(server.Drain(5.0).ok());
  EXPECT_EQ(server.state(), ExplorationServer::State::kStopped);
  // Requests after drain shed with a structured overload answer.
  ResponseEnvelope late = server.HandleRequest(TinyPayload("alice", "r2"));
  EXPECT_EQ(late.outcome, ResponseOutcome::kOverloaded);

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.ok, 1);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.tenants.at("alice").completed_total, 1);
}

TEST(ServerTest, MalformedAndOversizedRequestsAreRejected) {
  ServerConfig config;
  config.max_request_bytes = 512;
  ExplorationServer server(&Dataset().catalog, &Dataset().schedule, config);
  server.Start();
  EXPECT_EQ(server.HandleRequest("this is not json").outcome,
            ResponseOutcome::kRejected);
  EXPECT_EQ(server.HandleRequest("[1, 2, 3]").outcome,
            ResponseOutcome::kRejected);
  EXPECT_EQ(server.HandleRequest(std::string(600, 'x')).outcome,
            ResponseOutcome::kRejected);
  // Unknown fields inside the exploration document are schema errors.
  JsonValue::Object request = TinyRequestDoc().object();
  request["typo_field"] = JsonValue(1.0);
  std::string payload =
      MakeRequestEnvelope("alice", "r", 0.0, JsonValue(std::move(request)))
          .Dump();
  ResponseEnvelope response = server.HandleRequest(payload);
  EXPECT_EQ(response.outcome, ResponseOutcome::kRejected);
  EXPECT_TRUE(response.status.IsInvalidArgument());

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.rejected, 4);
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_TRUE(server.Drain(5.0).ok());
}

TEST(ServerTest, DeeplyNestedPayloadIsRejected) {
  // 100 KB of '[' fits the default frame limit, so the parser's nesting cap
  // is what must turn it away.
  ExplorationServer server(&Dataset().catalog, &Dataset().schedule);
  server.Start();
  Result<JsonValue> answer =
      JsonValue::Parse(server.Handle(std::string(100'000, '[')));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  Result<ResponseEnvelope> envelope = ResponseEnvelope::FromJson(*answer);
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  EXPECT_EQ(envelope->outcome, ResponseOutcome::kRejected);
  EXPECT_TRUE(envelope->status.IsParseError()) << envelope->status.ToString();
  EXPECT_EQ(server.Stats().rejected, 1);
  EXPECT_TRUE(server.Drain(5.0).ok());
}

TEST(ServerTest, TenantQuotasShedConcurrentFlood) {
  ServerConfig config;
  config.num_workers = 1;
  config.admission.max_queued_per_tenant = 1;
  config.admission.max_inflight_per_tenant = 1;
  ExplorationServer server(&Dataset().catalog, &Dataset().schedule, config);
  server.Start();

  constexpr int kSenders = 8;
  std::atomic<int> overloaded{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> senders;
  senders.reserve(kSenders);
  for (int i = 0; i < kSenders; ++i) {
    senders.emplace_back([&, i] {
      ResponseEnvelope response = server.HandleRequest(
          TinyPayload("flood", "f" + std::to_string(i)));
      ++answered;
      if (response.outcome == ResponseOutcome::kOverloaded) {
        ++overloaded;
        EXPECT_GT(response.retry_after_ms, 0.0);
        EXPECT_TRUE(response.status.IsResourceExhausted());
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  EXPECT_EQ(answered.load(), kSenders);
  // At most 2 requests fit in the tenant's queue+inflight quota at once;
  // with 8 simultaneous senders some must shed.
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_TRUE(server.Drain(5.0).ok());
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, kSenders);
  EXPECT_EQ(stats.shed, overloaded.load());
  EXPECT_EQ(stats.shed + stats.ok + stats.degraded + stats.timeout,
            stats.submitted);
}

TEST(ServerTest, ResourceClampsDegradeHeavyRequests) {
  ServerConfig config;
  config.max_nodes_per_request = 2000;  // Tiny tenant-isolation budget.
  ExplorationServer server(&Dataset().catalog, &Dataset().schedule, config);
  server.Start();
  std::string payload =
      MakeRequestEnvelope("greedy", "g1", 5000.0, HeavyRequestDoc()).Dump();
  ResponseEnvelope response = server.HandleRequest(payload);
  EXPECT_EQ(response.outcome, ResponseOutcome::kDegraded);
  ASSERT_TRUE(response.degradation.has_value());
  EXPECT_TRUE(response.degradation->degraded);
  EXPECT_TRUE(server.Drain(5.0).ok());
}

TEST(ServerTest, DegradeOffYieldsTimeoutWithPartialSummary) {
  ServerConfig config;
  config.max_nodes_per_request = 2000;
  config.degrade_by_default = false;
  ExplorationServer server(&Dataset().catalog, &Dataset().schedule, config);
  server.Start();
  std::string payload =
      MakeRequestEnvelope("greedy", "g1", 5000.0, HeavyRequestDoc()).Dump();
  ResponseEnvelope response = server.HandleRequest(payload);
  EXPECT_EQ(response.outcome, ResponseOutcome::kTimeout);
  EXPECT_FALSE(response.degradation.has_value());
  EXPECT_TRUE(server.Drain(5.0).ok());
}

TEST(ServerTest, FullPayloadDerivesOptionsWithTheRequestsAvoidSet) {
  // COSI11A runs every term and needs nothing, so it is among the root's
  // options unless the request avoids it.
  JsonValue doc = TinyRequestDoc();
  JsonValue::Object request_object = doc.object();
  JsonValue::Object options = request_object.at("options").object();
  options["avoid"] = JsonValue(JsonValue::Array{JsonValue("COSI11A")});
  request_object["options"] = JsonValue(std::move(options));
  doc = JsonValue(std::move(request_object));

  ExplorationServer server(&Dataset().catalog, &Dataset().schedule);
  server.Start();
  std::string payload = MakeRequestEnvelope("alice", "avoid-1", 5000.0, doc,
                                            std::nullopt,
                                            /*full_payload=*/true)
                            .Dump();
  ResponseEnvelope response = server.HandleRequest(payload);
  ASSERT_EQ(response.outcome, ResponseOutcome::kOk)
      << response.status.ToString();
  Result<JsonValue> graph = response.result.Get("graph");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_TRUE(server.Drain(5.0).ok());

  Result<JsonValue> nodes = graph->Get("nodes");
  ASSERT_TRUE(nodes.ok());
  ASSERT_FALSE(nodes->array().empty());
  for (const JsonValue& node : nodes->array()) {
    for (const JsonValue& code : node.object().at("options").array()) {
      EXPECT_NE(code.GetString().value(), "COSI11A");
    }
  }

  // The payload is the export of the same run with the request's avoid set,
  // and that set changes it.
  Result<ExplorationRequest> request =
      ExplorationRequestFromJson(doc, Dataset().catalog);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  ASSERT_TRUE(request->options.avoid_courses.has_value());
  Result<ExplorationResponse> direct =
      plan::Execute(Dataset().catalog, Dataset().schedule, *request);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(direct->generation.has_value());
  const LearningGraph& run = direct->generation->graph;
  const std::string avoiding =
      LearningGraphToJson(run, Dataset().catalog, Dataset().schedule,
                          request->options.avoid_courses)
          .Dump();
  const std::string not_avoiding =
      LearningGraphToJson(run, Dataset().catalog, Dataset().schedule,
                          std::nullopt)
          .Dump();
  EXPECT_EQ(graph->Dump(), avoiding);
  EXPECT_NE(graph->Dump(), not_avoiding);
}

TEST(ServerTest, ShutdownCancelsInflightWork) {
  ServerConfig config;
  config.num_workers = 1;
  config.max_seconds_per_request = 30.0;
  config.admission.max_deadline_seconds = 30.0;
  config.degrade_by_default = false;
  ExplorationServer server(&Dataset().catalog, &Dataset().schedule, config);
  server.Start();
  std::thread client([&] {
    std::string payload =
        MakeRequestEnvelope("slow", "s1", 20000.0, HeavyRequestDoc()).Dump();
    ResponseEnvelope response = server.HandleRequest(payload);
    // Cancelled mid-execution (or finished as a bounded partial first).
    EXPECT_NE(response.outcome, ResponseOutcome::kFailed);
  });
  // Give the request time to be admitted and start executing.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.Shutdown();
  client.join();
  EXPECT_EQ(server.state(), ExplorationServer::State::kStopped);
}

TEST(RetryTest, HonorsRetryAfterHintAndStopsOnSuccess) {
  int calls = 0;
  TransportFn transport = [&calls](std::string_view) {
    ++calls;
    ResponseEnvelope response;
    if (calls < 3) {
      response.outcome = ResponseOutcome::kOverloaded;
      response.retry_after_ms = 40.0;
      return Result<ResponseEnvelope>(response);
    }
    response.outcome = ResponseOutcome::kOk;
    return Result<ResponseEnvelope>(response);
  };
  std::vector<double> sleeps;
  SleepFn sleep = [&sleeps](double ms) { sleeps.push_back(ms); };
  Result<RetryResult> result = CallWithRetry(transport, "x", {}, sleep);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->response.outcome, ResponseOutcome::kOk);
  EXPECT_EQ(result->attempts, 3);
  ASSERT_EQ(sleeps.size(), 2u);
  // The server's 40ms hint floors the exponential schedule; equal jitter
  // never pushes a delay past 2x its step.
  for (double ms : sleeps) {
    EXPECT_GE(ms, 20.0);
    EXPECT_LE(ms, 80.0);
  }
}

TEST(RetryTest, RejectionsAreNeverRetried) {
  int calls = 0;
  TransportFn transport = [&calls](std::string_view) {
    ++calls;
    ResponseEnvelope response;
    response.outcome = ResponseOutcome::kRejected;
    return Result<ResponseEnvelope>(response);
  };
  SleepFn sleep = [](double) {};
  Result<RetryResult> result = CallWithRetry(transport, "x", {}, sleep);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->response.outcome, ResponseOutcome::kRejected);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, JitterIsDeterministicInTheSeed) {
  TransportFn transport = [](std::string_view) {
    ResponseEnvelope response;
    response.outcome = ResponseOutcome::kOverloaded;
    return Result<ResponseEnvelope>(response);
  };
  RetryPolicy policy;
  policy.max_attempts = 4;
  std::vector<double> first, second;
  SleepFn record_first = [&first](double ms) { first.push_back(ms); };
  SleepFn record_second = [&second](double ms) { second.push_back(ms); };
  ASSERT_TRUE(CallWithRetry(transport, "x", policy, record_first).ok());
  ASSERT_TRUE(CallWithRetry(transport, "x", policy, record_second).ok());
  EXPECT_EQ(first, second);
  policy.jitter_seed = 99;
  std::vector<double> other;
  SleepFn record_other = [&other](double ms) { other.push_back(ms); };
  ASSERT_TRUE(CallWithRetry(transport, "x", policy, record_other).ok());
  EXPECT_NE(first, other);
}

TEST(RetryTest, ExhaustedAttemptsReturnTheLastOverload) {
  TransportFn transport = [](std::string_view) {
    ResponseEnvelope response;
    response.outcome = ResponseOutcome::kOverloaded;
    response.retry_after_ms = 5.0;
    return Result<ResponseEnvelope>(response);
  };
  RetryPolicy policy;
  policy.max_attempts = 3;
  SleepFn sleep = [](double) {};
  Result<RetryResult> result = CallWithRetry(transport, "x", policy, sleep);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->response.outcome, ResponseOutcome::kOverloaded);
  EXPECT_EQ(result->attempts, 3);
}

TEST(SocketTest, RoundTripOverLoopback) {
  ExplorationServer core(&Dataset().catalog, &Dataset().schedule);
  core.Start();
  SocketServer transport(&core);
  Status started = transport.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }
  ASSERT_GT(transport.port(), 0);
  Result<ServeClient> client =
      ServeClient::Connect("127.0.0.1", transport.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<ResponseEnvelope> response =
      client->CallEnvelope(TinyPayload("net", "n1"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->outcome, ResponseOutcome::kOk);
  EXPECT_EQ(response->request_id, "n1");
  // A second call on the same connection works too.
  Result<ResponseEnvelope> again =
      client->CallEnvelope(TinyPayload("net", "n2"));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->outcome, ResponseOutcome::kOk);
  client->Close();
  transport.Stop();
  EXPECT_TRUE(core.Drain(5.0).ok());
  EXPECT_EQ(core.Stats().ok, 2);
}

TEST(SocketTest, OversizedFrameGetsStructuredRejection) {
  ExplorationServer core(&Dataset().catalog, &Dataset().schedule);
  core.Start();
  SocketConfig config;
  config.max_frame_bytes = 256;
  SocketServer transport(&core, config);
  Status started = transport.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }
  Result<ServeClient> client =
      ServeClient::Connect("127.0.0.1", transport.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<ResponseEnvelope> response =
      client->CallEnvelope(std::string(1024, 'x'));
  // The server answers with a framed rejection before dropping the
  // connection.
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->outcome, ResponseOutcome::kRejected);
  transport.Stop();
  EXPECT_TRUE(core.Drain(5.0).ok());
}

}  // namespace
}  // namespace coursenav::serve
