#include "serve/wire.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstring>
#include <ctime>

#include "relational/table_io.h"

namespace probkb {
namespace wire {

namespace {

constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 32;  // 4 GiB sanity cap

double MonotonicSeconds() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Sends exactly `len` bytes; MSG_NOSIGNAL turns a dead peer into EPIPE
/// instead of a process-killing SIGPIPE (a client hanging up mid-reply
/// must not take the server down).
Status SendAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("frame send failed: ") +
                             std::strerror(errno));
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Receives exactly `len` bytes, honoring the absolute deadline (negative
/// disables it). EOF mid-frame means the peer went away.
Status RecvAll(int fd, void* data, size_t len, double deadline_at) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    if (deadline_at >= 0) {
      double remaining = deadline_at - MonotonicSeconds();
      if (remaining <= 0) {
        return Status::DeadlineExceeded("frame read timed out");
      }
      pollfd pfd{fd, POLLIN, 0};
      // Clamp before the int conversion: a large deadline (say, a day) puts
      // remaining*1e3 beyond INT_MAX, and the overflowing cast is UB that in
      // practice produced a negative timeout — poll forever, deadline gone.
      double timeout_ms = remaining * 1e3 + 1;
      if (timeout_ms > static_cast<double>(INT_MAX)) {
        timeout_ms = static_cast<double>(INT_MAX);
      }
      int ready = poll(&pfd, 1, static_cast<int>(timeout_ms));
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("frame poll failed: ") +
                               std::strerror(errno));
      }
      if (ready == 0) {
        return Status::DeadlineExceeded("frame read timed out");
      }
    }
    ssize_t n = recv(fd, p, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("frame recv failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError("peer closed connection mid-frame");
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

uint64_t FrameChecksum(const void* data, size_t len) {
  return ColumnarChecksum(data, len);
}

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  FrameHeader header;
  header.type = static_cast<uint16_t>(type);
  header.payload_len = payload.size();
  header.checksum = FrameChecksum(payload.data(), payload.size());
  PROBKB_RETURN_NOT_OK(SendAll(fd, &header, sizeof(header)));
  return SendAll(fd, payload.data(), payload.size());
}

Result<Frame> ReadFrame(int fd, double deadline_seconds) {
  double deadline_at =
      deadline_seconds > 0 ? MonotonicSeconds() + deadline_seconds : -1.0;
  FrameHeader header;
  PROBKB_RETURN_NOT_OK(RecvAll(fd, &header, sizeof(header), deadline_at));
  if (header.magic != FrameHeader::kMagic) {
    return Status::DataLoss("frame header magic mismatch");
  }
  if (header.payload_len > kMaxPayloadBytes) {
    return Status::DataLoss("frame payload length implausible");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(header.type);
  frame.payload.resize(header.payload_len);
  PROBKB_RETURN_NOT_OK(
      RecvAll(fd, frame.payload.data(), frame.payload.size(), deadline_at));
  uint64_t got = FrameChecksum(frame.payload.data(), frame.payload.size());
  if (got != header.checksum) {
    return Status::DataLoss("frame checksum mismatch");
  }
  return frame;
}

}  // namespace wire
}  // namespace probkb
