// probkb_top — live telemetry viewer for a running `probkb serve
// --metrics-socket PATH` process.
//
//   probkb_top SOCKET [--interval-ms N] [--iterations N] [--raw]
//
// Connects to the serve metrics socket, polls one Prometheus-text-format
// snapshot per interval over checksummed frames (serve/wire.h)
// (kMetricsRequest / kMetricsReply), and renders counters + latency
// quantiles as a compact table with per-interval rates. --raw dumps the
// Prometheus text verbatim instead (useful for piping into other tools).
//
// Exit codes: 0 success, 1 connection/protocol failure, 2 usage.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/wire.h"
#include "util/strings.h"
#include "util/timer.h"

namespace {

using namespace probkb;

int Usage() {
  std::fprintf(stderr,
               "usage: probkb_top SOCKET [--interval-ms N] "
               "[--iterations N] [--raw]\n"
               "  polls a `probkb serve --metrics-socket SOCKET` process\n"
               "  --interval-ms N  poll period (default 500)\n"
               "  --iterations N   polls before exiting (default 0 = "
               "forever)\n"
               "  --raw            print the Prometheus text verbatim\n");
  return 2;
}

/// One parsed snapshot: counters, per-series quantiles, and exemplars.
struct Snapshot {
  std::map<std::string, double> counters;  // bare metric name -> value
  /// series -> {quantile label -> seconds}.
  std::map<std::string, std::map<std::string, double>> quantiles;
  std::map<std::string, double> latency_counts;
  std::map<std::string, std::string> exemplars;  // series -> trace id hex
};

/// Pulls `key="value"` out of a Prometheus label set; empty if absent.
std::string LabelValue(const std::string& labels, const std::string& key) {
  const std::string needle = key + "=\"";
  const size_t at = labels.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  const size_t end = labels.find('"', begin);
  if (end == std::string::npos) return "";
  return labels.substr(begin, end - begin);
}

Snapshot Parse(const std::string& text) {
  Snapshot snap;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    std::string name = line.substr(0, sp);
    const double value = std::atof(line.c_str() + sp + 1);
    std::string labels;
    const size_t brace = name.find('{');
    if (brace != std::string::npos) {
      labels = name.substr(brace);
      name = name.substr(0, brace);
    }
    if (name == "probkb_latency_seconds") {
      snap.quantiles[LabelValue(labels, "series")]
                    [LabelValue(labels, "quantile")] = value;
    } else if (name == "probkb_latency_seconds_count") {
      snap.latency_counts[LabelValue(labels, "series")] = value;
    } else if (name == "probkb_latency_tail_exemplar_info") {
      snap.exemplars[LabelValue(labels, "series")] =
          LabelValue(labels, "trace_id");
    } else if (name == "probkb_latency_seconds_sum") {
      // rendered via counts + quantiles; skip
    } else {
      snap.counters[name] = value;
    }
  }
  return snap;
}

void Render(const Snapshot& snap, const Snapshot& prev, double seconds,
            int poll) {
  std::printf("── probkb_top poll %d ──\n", poll);
  std::printf("%-34s %14s %12s\n", "counter", "value", "rate/s");
  for (const auto& [name, value] : snap.counters) {
    double rate = 0.0;
    if (seconds > 0) {
      const auto it = prev.counters.find(name);
      const double before = it == prev.counters.end() ? 0.0 : it->second;
      rate = (value - before) / seconds;
    }
    std::printf("%-34s %14.0f %12.1f\n", name.c_str(), value, rate);
  }
  if (!snap.quantiles.empty()) {
    std::printf("%-22s %8s %10s %10s %10s %s\n", "latency series", "count",
                "p50_ms", "p95_ms", "p99_ms", "tail trace");
    for (const auto& [series, q] : snap.quantiles) {
      auto ms = [&](const char* label) {
        const auto it = q.find(label);
        return it == q.end() ? 0.0 : it->second * 1e3;
      };
      const auto count_it = snap.latency_counts.find(series);
      const auto ex_it = snap.exemplars.find(series);
      std::printf("%-22s %8.0f %10.3f %10.3f %10.3f %s\n", series.c_str(),
                  count_it == snap.latency_counts.end() ? 0.0
                                                        : count_it->second,
                  ms("0.5"), ms("0.95"), ms("0.99"),
                  ex_it == snap.exemplars.end() ? "-"
                                                : ex_it->second.c_str());
    }
  }
  std::fflush(stdout);
}

int Connect(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string socket_path = argv[1];
  int interval_ms = 500;
  int iterations = 0;
  bool raw = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--interval-ms" && i + 1 < argc) {
      interval_ms = std::atoi(argv[++i]);
      if (interval_ms < 1) interval_ms = 1;
    } else if (flag == "--iterations" && i + 1 < argc) {
      iterations = std::atoi(argv[++i]);
    } else if (flag == "--raw") {
      raw = true;
    } else {
      return Usage();
    }
  }

  const int fd = Connect(socket_path);
  if (fd < 0) {
    std::fprintf(stderr, "probkb_top: cannot connect to %s\n",
                 socket_path.c_str());
    return 1;
  }

  Snapshot prev;
  Timer since_prev;
  int failures = 0;
  for (int poll = 1; iterations == 0 || poll <= iterations; ++poll) {
    if (auto st = wire::WriteFrame(fd, wire::FrameType::kMetricsRequest,
                                   std::string_view());
        !st.ok()) {
      std::fprintf(stderr, "probkb_top: %s\n", st.ToString().c_str());
      ::close(fd);
      return 1;
    }
    Result<wire::Frame> reply = wire::ReadFrame(fd, 5.0);
    if (!reply.ok() || reply->type != wire::FrameType::kMetricsReply) {
      // One checksum mismatch is retryable (the frame was consumed); a
      // second failure or a dead peer ends the session.
      if (reply.ok() || ++failures > 1) {
        std::fprintf(stderr, "probkb_top: %s\n",
                     reply.ok() ? "unexpected frame type"
                                : reply.status().ToString().c_str());
        ::close(fd);
        return 1;
      }
      continue;
    }
    failures = 0;
    if (raw) {
      std::printf("%s", reply->payload.c_str());
      std::fflush(stdout);
    } else {
      const Snapshot snap = Parse(reply->payload);
      Render(snap, prev, since_prev.Seconds(), poll);
      prev = snap;
      since_prev = Timer();
    }
    if (iterations == 0 || poll < iterations) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  ::close(fd);
  return 0;
}
