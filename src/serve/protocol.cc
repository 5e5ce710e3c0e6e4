#include "serve/protocol.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <cmath>
#include <utility>

#include "util/string_util.h"

namespace coursenav::serve {

namespace {

/// Tenant names become metric labels and log fields, and trace ids become
/// correlation keys, so the charset is deliberately tight for both.
bool IsValidIdentifier(std::string_view id) {
  if (id.empty() || id.size() > 64) return false;
  for (char c : id) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  uint32_t length = static_cast<uint32_t>(payload.size());
  frame.push_back(static_cast<char>((length >> 24) & 0xff));
  frame.push_back(static_cast<char>((length >> 16) & 0xff));
  frame.push_back(static_cast<char>((length >> 8) & 0xff));
  frame.push_back(static_cast<char>(length & 0xff));
  frame.append(payload);
  return frame;
}

Result<size_t> DecodeFrameHeader(const unsigned char header[kFrameHeaderBytes],
                                 size_t max_frame_bytes) {
  uint32_t length = (static_cast<uint32_t>(header[0]) << 24) |
                    (static_cast<uint32_t>(header[1]) << 16) |
                    (static_cast<uint32_t>(header[2]) << 8) |
                    static_cast<uint32_t>(header[3]);
  if (static_cast<size_t>(length) > max_frame_bytes) {
    return Status::InvalidArgument(
        StrFormat("frame of %u bytes exceeds the %zu-byte limit", length,
                  max_frame_bytes));
  }
  return static_cast<size_t>(length);
}

bool ReadFully(int fd, unsigned char* buffer, size_t length) {
  size_t read_so_far = 0;
  while (read_so_far < length) {
    ssize_t n = recv(fd, buffer + read_so_far, length - read_so_far, 0);
    if (n > 0) {
      read_so_far += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF (0), timeout (EAGAIN), or hard error
  }
  return true;
}

bool WriteFully(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = send(fd, data.data() + written, data.size() - written,
                     MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void SetSocketTimeout(int fd, int option, double seconds) {
  if (seconds <= 0) return;
  timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
  (void)setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

std::string_view ResponseOutcomeName(ResponseOutcome outcome) {
  switch (outcome) {
    case ResponseOutcome::kOk:
      return "ok";
    case ResponseOutcome::kDegraded:
      return "degraded";
    case ResponseOutcome::kTimeout:
      return "timeout";
    case ResponseOutcome::kOverloaded:
      return "overloaded";
    case ResponseOutcome::kRejected:
      return "rejected";
    case ResponseOutcome::kCancelled:
      return "cancelled";
    case ResponseOutcome::kSlowClient:
      return "slow-client";
    case ResponseOutcome::kFailed:
      return "failed";
  }
  return "failed";
}

Result<ResponseOutcome> ParseResponseOutcome(std::string_view name) {
  for (ResponseOutcome outcome :
       {ResponseOutcome::kOk, ResponseOutcome::kDegraded,
        ResponseOutcome::kTimeout, ResponseOutcome::kOverloaded,
        ResponseOutcome::kRejected, ResponseOutcome::kCancelled,
        ResponseOutcome::kSlowClient, ResponseOutcome::kFailed}) {
    if (ResponseOutcomeName(outcome) == name) return outcome;
  }
  return Status::InvalidArgument("unknown response outcome '" +
                                 std::string(name) + "'");
}

Result<RequestEnvelope> ParseRequestEnvelope(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request envelope must be a JSON object");
  }
  COURSENAV_RETURN_IF_ERROR(
      CheckObjectKeys(json, "envelope",
                      {"tenant", "request_id", "deadline_ms", "degrade",
                       "payload", "trace", "trace_id", "request"}));
  RequestEnvelope envelope;
  if (json.Has("tenant")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue tenant, json.Get("tenant"));
    COURSENAV_ASSIGN_OR_RETURN(envelope.tenant, tenant.GetString());
  }
  if (!IsValidIdentifier(envelope.tenant)) {
    return Status::InvalidArgument(
        "tenant must be 1-64 characters from [A-Za-z0-9_.-]");
  }
  if (json.Has("request_id")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue id, json.Get("request_id"));
    COURSENAV_ASSIGN_OR_RETURN(envelope.request_id, id.GetString());
    if (envelope.request_id.size() > 128) {
      return Status::InvalidArgument("request_id longer than 128 characters");
    }
  }
  if (json.Has("deadline_ms")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue deadline, json.Get("deadline_ms"));
    COURSENAV_ASSIGN_OR_RETURN(envelope.deadline_ms, deadline.GetNumber());
    if (envelope.deadline_ms < 0) {
      return Status::InvalidArgument("deadline_ms must be >= 0");
    }
  }
  if (json.Has("degrade")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue degrade, json.Get("degrade"));
    COURSENAV_ASSIGN_OR_RETURN(bool value, degrade.GetBool());
    envelope.degrade = value;
  }
  if (json.Has("payload")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue payload, json.Get("payload"));
    COURSENAV_ASSIGN_OR_RETURN(std::string mode, payload.GetString());
    if (mode == "full") {
      envelope.full_payload = true;
    } else if (mode != "summary") {
      return Status::InvalidArgument("payload must be 'summary' or 'full'");
    }
  }
  if (json.Has("trace")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue trace, json.Get("trace"));
    COURSENAV_ASSIGN_OR_RETURN(envelope.want_trace, trace.GetBool());
  }
  if (json.Has("trace_id")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue trace_id, json.Get("trace_id"));
    COURSENAV_ASSIGN_OR_RETURN(envelope.trace_id, trace_id.GetString());
    if (!IsValidIdentifier(envelope.trace_id)) {
      return Status::InvalidArgument(
          "trace_id must be 1-64 characters from [A-Za-z0-9_.-]");
    }
  }
  COURSENAV_ASSIGN_OR_RETURN(envelope.request, json.Get("request"));
  if (!envelope.request.is_object()) {
    return Status::InvalidArgument("'request' must be a JSON object");
  }
  return envelope;
}

JsonValue MakeRequestEnvelope(std::string_view tenant,
                              std::string_view request_id, double deadline_ms,
                              JsonValue request, std::optional<bool> degrade,
                              bool full_payload, bool want_trace,
                              std::string_view trace_id) {
  JsonValue::Object object;
  object["tenant"] = JsonValue(std::string(tenant));
  object["request_id"] = JsonValue(std::string(request_id));
  if (deadline_ms > 0) object["deadline_ms"] = JsonValue(deadline_ms);
  if (degrade.has_value()) object["degrade"] = JsonValue(*degrade);
  if (full_payload) object["payload"] = JsonValue("full");
  if (want_trace) object["trace"] = JsonValue(true);
  if (!trace_id.empty()) object["trace_id"] = JsonValue(std::string(trace_id));
  object["request"] = std::move(request);
  return JsonValue(std::move(object));
}

JsonValue ResponseEnvelope::ToJson() const {
  JsonValue::Object object;
  object["tenant"] = JsonValue(tenant);
  object["request_id"] = JsonValue(request_id);
  object["outcome"] = JsonValue(std::string(ResponseOutcomeName(outcome)));
  object["status"] = StatusToJson(status);
  if (retry_after_ms > 0) object["retry_after_ms"] = JsonValue(retry_after_ms);
  object["queue_wait_ms"] = JsonValue(queue_wait_ms);
  object["service_ms"] = JsonValue(service_ms);
  object["served_seq"] = JsonValue(served_seq);
  if (!trace_id.empty()) object["trace_id"] = JsonValue(trace_id);
  if (!trace.is_null()) object["trace"] = trace;
  if (!cache.empty()) object["cache"] = JsonValue(cache);
  if (degradation.has_value()) {
    object["degradation"] = degradation->ToJson();
  }
  if (!result.is_null()) object["result"] = result;
  return JsonValue(std::move(object));
}

Result<ResponseEnvelope> ResponseEnvelope::FromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("response envelope must be a JSON object");
  }
  ResponseEnvelope envelope;
  COURSENAV_ASSIGN_OR_RETURN(JsonValue tenant, json.Get("tenant"));
  COURSENAV_ASSIGN_OR_RETURN(envelope.tenant, tenant.GetString());
  COURSENAV_ASSIGN_OR_RETURN(JsonValue id, json.Get("request_id"));
  COURSENAV_ASSIGN_OR_RETURN(envelope.request_id, id.GetString());
  COURSENAV_ASSIGN_OR_RETURN(JsonValue outcome_value, json.Get("outcome"));
  COURSENAV_ASSIGN_OR_RETURN(std::string outcome_name,
                             outcome_value.GetString());
  COURSENAV_ASSIGN_OR_RETURN(envelope.outcome,
                             ParseResponseOutcome(outcome_name));
  COURSENAV_ASSIGN_OR_RETURN(JsonValue status_value, json.Get("status"));
  COURSENAV_RETURN_IF_ERROR(StatusFromJson(status_value, &envelope.status));
  if (json.Has("retry_after_ms")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue retry, json.Get("retry_after_ms"));
    COURSENAV_ASSIGN_OR_RETURN(envelope.retry_after_ms, retry.GetNumber());
  }
  if (json.Has("queue_wait_ms")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue wait, json.Get("queue_wait_ms"));
    COURSENAV_ASSIGN_OR_RETURN(envelope.queue_wait_ms, wait.GetNumber());
  }
  if (json.Has("service_ms")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue service, json.Get("service_ms"));
    COURSENAV_ASSIGN_OR_RETURN(envelope.service_ms, service.GetNumber());
  }
  if (json.Has("served_seq")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue seq, json.Get("served_seq"));
    COURSENAV_ASSIGN_OR_RETURN(envelope.served_seq, seq.GetInt());
  }
  if (json.Has("trace_id")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue trace_id, json.Get("trace_id"));
    COURSENAV_ASSIGN_OR_RETURN(envelope.trace_id, trace_id.GetString());
  }
  if (json.Has("trace")) {
    COURSENAV_ASSIGN_OR_RETURN(envelope.trace, json.Get("trace"));
  }
  if (json.Has("cache")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue cache_value, json.Get("cache"));
    COURSENAV_ASSIGN_OR_RETURN(envelope.cache, cache_value.GetString());
  }
  if (json.Has("degradation")) {
    COURSENAV_ASSIGN_OR_RETURN(JsonValue report, json.Get("degradation"));
    COURSENAV_ASSIGN_OR_RETURN(envelope.degradation,
                               DegradationReport::FromJson(report));
  }
  if (json.Has("result")) {
    COURSENAV_ASSIGN_OR_RETURN(envelope.result, json.Get("result"));
  }
  return envelope;
}

}  // namespace coursenav::serve
