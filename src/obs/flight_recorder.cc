#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "util/strings.h"

namespace probkb {

const char* FrEventName(FrEvent event) {
  switch (event) {
    case FrEvent::kMotionBegin:
      return "motion_begin";
    case FrEvent::kFaultInjected:
      return "fault_injected";
    case FrEvent::kRetryAttempt:
      return "retry_attempt";
    case FrEvent::kMotionRecovered:
      return "motion_recovered";
    case FrEvent::kMotionFailed:
      return "motion_failed";
    case FrEvent::kCheckpointCommit:
      return "checkpoint_commit";
    case FrEvent::kIterationBoundary:
      return "iteration_boundary";
    case FrEvent::kGibbsMilestone:
      return "gibbs_milestone";
  }
  return "?";
}

std::string FrRecord::ToText() const {
  std::string line = StrFormat("#%06llu %-18s a=%lld b=%lld c=%lld",
                               static_cast<unsigned long long>(seq),
                               FrEventName(event), static_cast<long long>(a),
                               static_cast<long long>(b),
                               static_cast<long long>(c));
  if (detail[0] != '\0') {
    line += " ";
    line += detail;
  }
  return line;
}

namespace {
std::atomic<uint64_t> g_next_recorder_id{1};
}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(capacity == 0 ? 1 : capacity) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder* FlightRecorder::Global() {
  // Leaked: worker threads may outlive main() teardown order.
  static FlightRecorder* recorder = new FlightRecorder();
  return recorder;
}

FlightRecorder::Ring* FlightRecorder::LocalRing() {
  // One cached Ring* per (thread, recorder instance); keyed by the
  // never-reused id so tests with private recorders can't cross-
  // contaminate the global one or revive a dead recorder's ring.
  struct Cache {
    uint64_t owner_id = 0;
    Ring* ring = nullptr;
  };
  thread_local Cache cache;
  if (cache.owner_id == id_) return cache.ring;
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<Ring>(capacity_));
  cache.owner_id = id_;
  cache.ring = rings_.back().get();
  return cache.ring;
}

void FlightRecorder::Record(FrEvent event, std::string_view detail, int64_t a,
                            int64_t b, int64_t c) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Ring* ring = LocalRing();
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  FrRecord& slot = ring->slots[head % capacity_];
  slot.seq = seq;
  slot.event = event;
  slot.a = a;
  slot.b = b;
  slot.c = c;
  const size_t n = std::min(detail.size(), sizeof(slot.detail) - 1);
  std::memcpy(slot.detail, detail.data(), n);
  slot.detail[n] = '\0';
  // Publish the slot: the release pairs with the acquire in
  // MergedTimeline, so a reader that observes this head sees the record.
  ring->head.store(head + 1, std::memory_order_release);
}

void FlightRecorder::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  // Keep the Ring allocations alive — threads hold cached pointers into
  // them — and just forget their contents.
  for (auto& ring : rings_) {
    ring->head.store(0, std::memory_order_release);
  }
  next_seq_.store(0, std::memory_order_relaxed);
}

std::vector<FrRecord> FlightRecorder::MergedTimeline(size_t last_n) const {
  std::vector<FrRecord> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) {
      const uint64_t head = ring->head.load(std::memory_order_acquire);
      const uint64_t kept = std::min<uint64_t>(head, capacity_);
      for (uint64_t i = head - kept; i < head; ++i) {
        merged.push_back(ring->slots[i % capacity_]);
      }
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const FrRecord& x, const FrRecord& y) { return x.seq < y.seq; });
  if (last_n > 0 && merged.size() > last_n) {
    merged.erase(merged.begin(),
                 merged.end() - static_cast<ptrdiff_t>(last_n));
  }
  return merged;
}

int64_t FlightRecorder::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  for (const auto& ring : rings_) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > capacity_) dropped += static_cast<int64_t>(head - capacity_);
  }
  return dropped;
}

std::string FlightRecorder::DumpText(size_t last_n) const {
  const std::vector<FrRecord> timeline = MergedTimeline(last_n);
  std::string out = "=== flight recorder";
  out += StrFormat(" (%zu events", timeline.size());
  const int64_t dropped = dropped_events();
  if (dropped > 0) {
    out += StrFormat(", %lld older dropped", static_cast<long long>(dropped));
  }
  out += ") ===\n";
  for (const FrRecord& record : timeline) {
    out += record.ToText();
    out += '\n';
  }
  return out;
}

std::string FlightRecorder::DumpJson(size_t last_n) const {
  const std::vector<FrRecord> timeline = MergedTimeline(last_n);
  std::string out = "{\n";
  out += StrFormat("  \"dropped_events\": %lld,\n",
                   static_cast<long long>(dropped_events()));
  out += "  \"events\": [";
  bool first = true;
  for (const FrRecord& record : timeline) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat(
        "    {\"seq\": %llu, \"event\": \"%s\", \"a\": %lld, \"b\": %lld, "
        "\"c\": %lld, \"detail\": \"%s\"}",
        static_cast<unsigned long long>(record.seq), FrEventName(record.event),
        static_cast<long long>(record.a), static_cast<long long>(record.b),
        static_cast<long long>(record.c), record.detail);
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

Status FlightRecorder::WriteDump(const std::string& path,
                                 size_t last_n) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open post-mortem file '" + path +
                           "' for write");
  }
  out << DumpJson(last_n);
  out.close();
  if (!out) {
    return Status::IOError("failed writing post-mortem file '" + path + "'");
  }
  return Status::OK();
}

}  // namespace probkb
