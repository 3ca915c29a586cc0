#include "serve/metrics_endpoint.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include "serve/wire.h"
#include "util/logging.h"

namespace probkb {

namespace {

/// Accept-poll granularity: the ceiling on Stop() latency.
constexpr int kAcceptPollMs = 200;

}  // namespace

MetricsEndpoint::MetricsEndpoint(const QueryServer* server,
                                 std::string socket_path)
    : server_(server), socket_path_(std::move(socket_path)) {}

MetricsEndpoint::~MetricsEndpoint() { Stop(); }

Status MetricsEndpoint::Start() {
  if (running_.load(std::memory_order_acquire)) return Status::OK();
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("metrics socket path too long: " +
                                   socket_path_);
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

  listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("metrics socket: socket() failed: " +
                           std::string(std::strerror(errno)));
  }
  // A stale file from a crashed prior run would make bind fail; remove it.
  ::unlink(socket_path_.c_str());
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("metrics socket: bind(" + socket_path_ +
                           ") failed: " + err);
  }
  if (listen(listen_fd_, 4) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(socket_path_.c_str());
    return Status::IOError("metrics socket: listen failed: " + err);
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  PROBKB_SLOG(Obs, Info) << "metrics endpoint listening on "
                         << socket_path_;
  return Status::OK();
}

void MetricsEndpoint::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(socket_path_.c_str());
  running_.store(false, std::memory_order_release);
}

void MetricsEndpoint::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, kAcceptPollMs);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stop flag
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    ServeConnection(fd);
    ::close(fd);
  }
}

void MetricsEndpoint::ServeConnection(int fd) {
  while (!stop_.load(std::memory_order_acquire)) {
    // A short read deadline keeps an idle client from pinning the accept
    // loop past Stop(); the client just reconnects on its next poll.
    Result<wire::Frame> frame =
        wire::ReadFrame(fd, kAcceptPollMs / 1000.0);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kDeadlineExceeded) continue;
      return;  // EOF / reset / garbage: drop the connection
    }
    if (frame->type != wire::FrameType::kMetricsRequest) {
      PROBKB_SLOG(Obs, Warning)
          << "metrics endpoint: unexpected frame type "
          << static_cast<int>(frame->type) << ", dropping connection";
      return;
    }
    const std::string snapshot = server_->PrometheusText();
    // Counted before the reply leaves: a client that has read the reply
    // must observe the poll as served (tests poll-then-check).
    polls_served_.fetch_add(1, std::memory_order_relaxed);
    if (!wire::WriteFrame(fd, wire::FrameType::kMetricsReply, snapshot)
             .ok()) {
      return;
    }
  }
}

}  // namespace probkb
