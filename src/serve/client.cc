#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "util/random.h"
#include "util/string_util.h"

namespace coursenav::serve {

namespace {

void DefaultSleep(double ms) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(ms * 1e3)));
}

}  // namespace

Result<RetryResult> CallWithRetry(const TransportFn& transport,
                                  std::string_view payload,
                                  const RetryPolicy& policy,
                                  const SleepFn& sleep) {
  const SleepFn& do_sleep = sleep ? sleep : SleepFn(DefaultSleep);
  Random jitter(policy.jitter_seed);
  RetryResult result;
  double backoff_ms = policy.initial_backoff_ms;
  Status last_transport_error;
  const int attempts = std::max(1, policy.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    Result<ResponseEnvelope> response = transport(payload);
    ++result.attempts;
    if (response.ok()) {
      result.response = std::move(*response);
      if (result.response.outcome != ResponseOutcome::kOverloaded) {
        return result;
      }
      last_transport_error = Status::OK();
    } else {
      // A malformed conversation (InvalidArgument) can never heal; other
      // transport failures (reset, timeout) are worth retrying.
      if (response.status().IsInvalidArgument()) return response.status();
      last_transport_error = response.status();
    }
    if (attempt + 1 == attempts) break;

    // Equal jitter over the exponential step, floored by the server's own
    // retry_after_ms hint when one arrived.
    double step = backoff_ms;
    if (response.ok() && result.response.retry_after_ms > step) {
      step = result.response.retry_after_ms;
    }
    double sleep_ms = step / 2 + jitter.UniformDouble() * (step / 2);
    obs::GlobalMetrics().GetCounter(obs::kMetricServeClientRetries)
        ->Increment();
    do_sleep(sleep_ms);
    result.backoff_ms_total += sleep_ms;
    backoff_ms = std::min(backoff_ms * policy.multiplier,
                          policy.max_backoff_ms);
  }
  if (!last_transport_error.ok()) return last_transport_error;
  return result;  // attempts exhausted; the final kOverloaded answer
}

ServeClient::~ServeClient() { Close(); }

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(other.fd_), max_frame_bytes_(other.max_frame_bytes_) {
  other.fd_ = -1;
}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    max_frame_bytes_ = other.max_frame_bytes_;
    other.fd_ = -1;
  }
  return *this;
}

Result<ServeClient> ServeClient::Connect(std::string_view host, int port,
                                         double timeout_seconds) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("socket(): %s", std::strerror(errno)));
  }
  if (timeout_seconds > 0) {
    timeval tv;
    tv.tv_sec = static_cast<time_t>(timeout_seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeout_seconds - std::floor(timeout_seconds)) * 1e6);
    (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    (void)setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  sockaddr_in address;
  std::memset(&address, 0, sizeof(address));
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, std::string(host).c_str(), &address.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad host '" + std::string(host) + "'");
  }
  if (connect(fd, reinterpret_cast<const sockaddr*>(&address),
              sizeof(address)) != 0) {
    Status status = Status::FailedPrecondition(
        StrFormat("connect(%s:%d): %s", std::string(host).c_str(), port,
                  std::strerror(errno)));
    close(fd);
    return status;
  }
  return ServeClient(fd);
}

Result<std::string> ServeClient::Call(std::string_view payload) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  if (!WriteFully(fd_, EncodeFrame(payload))) {
    Close();
    return Status::DeadlineExceeded("send failed or timed out");
  }
  unsigned char header[kFrameHeaderBytes];
  if (!ReadFully(fd_, header, kFrameHeaderBytes)) {
    Close();
    return Status::DeadlineExceeded("no response (timeout or peer closed)");
  }
  Result<size_t> length = DecodeFrameHeader(header, max_frame_bytes_);
  if (!length.ok()) {
    Close();
    return length.status();
  }
  std::string body(*length, '\0');
  if (*length > 0 &&
      !ReadFully(fd_, reinterpret_cast<unsigned char*>(body.data()),
                 *length)) {
    Close();
    return Status::DeadlineExceeded("truncated response");
  }
  return body;
}

Result<ResponseEnvelope> ServeClient::CallEnvelope(std::string_view payload) {
  COURSENAV_ASSIGN_OR_RETURN(std::string body, Call(payload));
  COURSENAV_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(body));
  return ResponseEnvelope::FromJson(json);
}

TransportFn ServeClient::Transport() {
  return [this](std::string_view payload) { return CallEnvelope(payload); };
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

}  // namespace coursenav::serve
