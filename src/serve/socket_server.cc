#include "serve/socket_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace coursenav::serve {

SocketServer::SocketServer(ExplorationServer* core, SocketConfig config)
    : core_(core), config_(std::move(config)) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("socket server already started");
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

void SocketServer::AcceptLoop() {
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
    ReapFinished();
    if (active_connections_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      // Connection-level shed: refuse service rather than queue unbounded
      // transport state.
      close(fd);
      continue;
    }
    SetSocketTimeout(fd, SO_RCVTIMEO, config_.recv_timeout_seconds);
    SetSocketTimeout(fd, SO_SNDTIMEO, config_.send_timeout_seconds);
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    {
      MutexLock lock(mu_);
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
}

void SocketServer::ServeConnection(Connection* connection) {
  const int fd = connection->fd;
  std::string payload;
  while (!stopping_.load(std::memory_order_acquire)) {
    unsigned char header[kFrameHeaderBytes];
    if (!ReadFully(fd, header, kFrameHeaderBytes)) break;
    Result<size_t> length = DecodeFrameHeader(header, config_.max_frame_bytes);
    if (!length.ok()) {
      // Oversized announcement: answer with a structured rejection, then
      // drop the connection — the stream offset is unrecoverable.
      ResponseEnvelope reject;
      reject.outcome = ResponseOutcome::kRejected;
      reject.status = length.status();
      (void)WriteFully(fd, EncodeFrame(reject.ToJson().Dump()));
      break;
    }
    payload.resize(*length);
    if (*length > 0 &&
        !ReadFully(fd, reinterpret_cast<unsigned char*>(payload.data()),
                   *length)) {
      break;
    }
    std::string response = core_->Handle(payload);
    if (!WriteFully(fd, EncodeFrame(response))) {
      obs::GlobalMetrics().GetCounter(obs::kMetricServeSlowClient)
          ->Increment();
      break;
    }
  }
  // The fd is closed by ReapFinished()/Stop() after this thread is joined,
  // so Stop() can never shutdown() a recycled descriptor.
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  connection->done.store(true, std::memory_order_release);
}

void SocketServer::ReapFinished() {
  MutexLock lock(mu_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      close((*it)->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void SocketServer::Stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  if (listen_fd_ >= 0) {
    shutdown(listen_fd_, SHUT_RDWR);
    close(listen_fd_);
  }
  {
    // Threads never close their own fd, so shutdown() here always hits the
    // descriptor we opened, forcing any blocked recv()/send() to return.
    MutexLock lock(mu_);
    for (const auto& connection : connections_) {
      shutdown(connection->fd, SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  MutexLock lock(mu_);
  for (const auto& connection : connections_) {
    if (connection->thread.joinable()) connection->thread.join();
    close(connection->fd);
  }
  connections_.clear();
  listen_fd_ = -1;
}

}  // namespace coursenav::serve
