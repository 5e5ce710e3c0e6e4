#ifndef COURSENAV_SERVE_PROTOCOL_H_
#define COURSENAV_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "service/degradation.h"
#include "util/json.h"
#include "util/result.h"

namespace coursenav::serve {

/// Wire framing: every message is a 4-byte big-endian payload length
/// followed by that many bytes of UTF-8 JSON. Length-prefixed framing keeps
/// the parser trivial and makes oversized-request rejection a header-only
/// decision — the server never buffers a frame it has already refused.
inline constexpr size_t kFrameHeaderBytes = 4;

/// Default ceiling on one frame's payload. Catalog-scale exploration
/// requests are a few KiB; anything near this limit is hostile or corrupt.
inline constexpr size_t kDefaultMaxFrameBytes = 1 << 20;

/// Prepends the length header to `payload`.
std::string EncodeFrame(std::string_view payload);

/// Decodes a frame header into the payload length. InvalidArgument when the
/// announced length exceeds `max_frame_bytes` — the caller must drop the
/// connection rather than read on.
Result<size_t> DecodeFrameHeader(const unsigned char header[kFrameHeaderBytes],
                                 size_t max_frame_bytes);

/// Reads exactly `length` bytes from socket `fd`, retrying interrupted
/// calls; false on EOF, timeout, or error.
bool ReadFully(int fd, unsigned char* buffer, size_t length);

/// Writes all of `data` to socket `fd` (never raising SIGPIPE), retrying
/// interrupted calls; false on timeout or error.
bool WriteFully(int fd, std::string_view data);

/// Sets socket `fd`'s SO_RCVTIMEO or SO_SNDTIMEO (`option`) to `seconds`;
/// a value <= 0 leaves the socket blocking.
void SetSocketTimeout(int fd, int option, double seconds);

/// How one served request ended. Every request gets exactly one outcome;
/// overload and rejection are answers, not crashes.
enum class ResponseOutcome {
  /// The full answer, inside budget.
  kOk,
  /// A degraded answer (see service/degradation.h); the response carries
  /// the DegradationReport explaining which rung served.
  kDegraded,
  /// The request's deadline or node budget expired and no degradation was
  /// requested; the response summarizes the partial result.
  kTimeout,
  /// Shed at admission (queue full, tenant quota, server draining). The
  /// client should back off `retry_after_ms` and retry.
  kOverloaded,
  /// The request itself is unacceptable (malformed JSON, unknown fields,
  /// oversized, bad tenant). Retrying the same bytes will never succeed.
  kRejected,
  /// Cancelled by server shutdown/drain before or during execution.
  kCancelled,
  /// The client could not take delivery in time; the result was dropped.
  kSlowClient,
  /// An internal execution failure — always a server bug.
  kFailed,
};

std::string_view ResponseOutcomeName(ResponseOutcome outcome);
Result<ResponseOutcome> ParseResponseOutcome(std::string_view name);

/// The parsed request envelope: multi-tenant metadata wrapped around a
/// declarative ExplorationRequest document. The inner `request` is kept as
/// raw JSON here; the server resolves it against its catalog after
/// admission-independent validation.
struct RequestEnvelope {
  /// Quota/accounting identity. Defaults to "default"; must be 1-64 chars
  /// drawn from [A-Za-z0-9_.-].
  std::string tenant = "default";
  /// Echoed verbatim in the response so clients can multiplex.
  std::string request_id;
  /// Total budget for queue wait + execution, in milliseconds. 0 = the
  /// server's default deadline. Clamped to the server's maximum.
  double deadline_ms = 0.0;
  /// Overrides the server's degrade-by-default policy when set.
  std::optional<bool> degrade;
  /// "summary" (default) returns counts only; "full" additionally returns
  /// the materialized paths/graph JSON.
  bool full_payload = false;
  /// Client-supplied trace correlation id (1-64 chars from [A-Za-z0-9_.-]);
  /// empty = the server generates one. Echoed in the response either way.
  std::string trace_id;
  /// When true the client wants the request's span tree returned in the
  /// response ("trace": true on the wire). Span data requires the server
  /// to be built with COURSENAV_TRACING; the id echo always works.
  bool want_trace = false;
  /// The declarative ExplorationRequest document (plan/request.h schema).
  JsonValue request;
};

/// Parses and validates an envelope. InvalidArgument on unknown envelope
/// fields, bad tenant names, or missing `request`.
Result<RequestEnvelope> ParseRequestEnvelope(const JsonValue& json);

/// Builds an envelope document (the client-side constructor).
JsonValue MakeRequestEnvelope(std::string_view tenant,
                              std::string_view request_id, double deadline_ms,
                              JsonValue request,
                              std::optional<bool> degrade = std::nullopt,
                              bool full_payload = false,
                              bool want_trace = false,
                              std::string_view trace_id = "");

/// One response envelope. `result` holds the payload summary (and the full
/// paths/graph JSON when requested); `degradation` is attached whenever the
/// degradation ladder ran.
struct ResponseEnvelope {
  std::string tenant;
  std::string request_id;
  ResponseOutcome outcome = ResponseOutcome::kFailed;
  Status status;
  /// Overload hint: suggested client back-off before retrying. 0 when the
  /// outcome is not kOverloaded.
  double retry_after_ms = 0.0;
  /// Milliseconds spent queued before a worker picked the request up.
  double queue_wait_ms = 0.0;
  /// Milliseconds of execution (admission to completion, excluding queue).
  double service_ms = 0.0;
  /// Server-wide execution sequence number (-1 when never executed); lets
  /// tests and clients observe deadline-aware admission ordering.
  int64_t served_seq = -1;
  /// The request's trace correlation id (client-supplied or
  /// server-generated); empty only for requests rejected before parsing.
  std::string trace_id;
  /// The request's span tree (a JSON array of span objects), present only
  /// when the client opted in with "trace": true and the server was built
  /// with tracing compiled in.
  JsonValue trace;
  /// How the process-wide request cache participated in serving this
  /// request: "hit", "miss", "bypass", or "off" (cache disabled). Empty
  /// for requests that never reached execution (shed, rejected,
  /// cancelled-in-queue); omitted from the wire form then.
  std::string cache;
  std::optional<DegradationReport> degradation;
  JsonValue result;

  JsonValue ToJson() const;
  static Result<ResponseEnvelope> FromJson(const JsonValue& json);
};

}  // namespace coursenav::serve

#endif  // COURSENAV_SERVE_PROTOCOL_H_
