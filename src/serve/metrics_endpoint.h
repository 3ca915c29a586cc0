#ifndef PROBKB_SERVE_METRICS_ENDPOINT_H_
#define PROBKB_SERVE_METRICS_ENDPOINT_H_

#include <atomic>
#include <string>
#include <thread>

#include "serve/query_server.h"
#include "util/status.h"

namespace probkb {

/// \brief Live telemetry endpoint: a Unix-domain socket serving
/// Prometheus-text-format snapshots of a QueryServer's StatsRegistry over
/// length-prefixed, checksummed frames (serve/wire.h).
///
/// Protocol: a client connects, sends any number of kMetricsRequest frames
/// (empty payload), and receives one kMetricsReply per request whose
/// payload is QueryServer::PrometheusText() captured at reply time.
/// `tools/probkb_top` is the bundled client. One connection is served at a
/// time — telemetry polls are rare and cheap, so a backlog queue suffices
/// and the endpoint never spawns per-connection threads.
///
/// The accept loop runs on a background thread with a short poll timeout,
/// so Stop() (or destruction) joins promptly without needing to poke the
/// socket. The QueryServer must outlive the endpoint.
class MetricsEndpoint {
 public:
  MetricsEndpoint(const QueryServer* server, std::string socket_path);
  ~MetricsEndpoint();

  MetricsEndpoint(const MetricsEndpoint&) = delete;
  MetricsEndpoint& operator=(const MetricsEndpoint&) = delete;

  /// \brief Binds the socket (unlinking any stale file at the path) and
  /// starts the accept thread. InvalidArgument if the path exceeds
  /// sockaddr_un limits, IOError on bind/listen failure.
  Status Start();

  /// \brief Stops the accept thread and unlinks the socket file.
  /// Idempotent.
  void Stop();

  const std::string& socket_path() const { return socket_path_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// \brief Requests served since Start() (across all connections).
  int64_t polls_served() const {
    return polls_served_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  const QueryServer* server_;
  std::string socket_path_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> polls_served_{0};
};

}  // namespace probkb

#endif  // PROBKB_SERVE_METRICS_ENDPOINT_H_
