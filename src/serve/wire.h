#ifndef PROBKB_SERVE_WIRE_H_
#define PROBKB_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"

namespace probkb {
namespace wire {

/// \brief Frame types of the metrics-socket protocol (see MetricsEndpoint):
/// a client sends kMetricsRequest, the endpoint answers kMetricsReply.
enum class FrameType : uint16_t {
  kMetricsRequest = 1,  // telemetry poll                payload: empty
  kMetricsReply,        // Prometheus text snapshot      payload: text
};

/// \brief Fixed-size header preceding every frame payload.
///
/// `checksum` covers the payload bytes only (FrameChecksum). A receiver
/// recomputes it over the bytes it read and rejects the frame with
/// kDataLoss on mismatch.
struct FrameHeader {
  uint32_t magic = kMagic;
  uint16_t type = 0;
  uint16_t flags = 0;
  uint64_t payload_len = 0;
  uint64_t checksum = 0;

  static constexpr uint32_t kMagic = 0x50424B46;  // "PBKF"
};

/// \brief One parsed frame.
struct Frame {
  FrameType type = FrameType::kMetricsRequest;
  std::string payload;
};

/// \brief Payload checksum: ColumnarChecksum (relational/table_io.h), the
/// same function that guards spill pages. Covers the length, so a
/// truncated-but-zero tail cannot collide with the original.
uint64_t FrameChecksum(const void* data, size_t len);

/// \brief Writes one frame to `fd` (a blocking Unix-domain socket).
Status WriteFrame(int fd, FrameType type, std::string_view payload);

/// \brief Reads one frame, waiting at most `deadline_seconds` (0 disables
/// the deadline) for the first byte and between chunks. Returns
/// kDeadlineExceeded on timeout, IOError on EOF / connection reset, and
/// kDataLoss when the payload checksum mismatches (the frame is consumed
/// either way, so the caller can retry).
Result<Frame> ReadFrame(int fd, double deadline_seconds);

}  // namespace wire
}  // namespace probkb

#endif  // PROBKB_SERVE_WIRE_H_
