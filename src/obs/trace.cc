#include "obs/trace.h"

#include <time.h>

#include <algorithm>
#include <cstring>
#include <fstream>

#include "util/strings.h"

namespace probkb {

namespace {

std::atomic<uint64_t> g_next_tracer_id{1};

/// splitmix64 finalizer: the bijective mixer all trace/span identity is
/// derived through. Deterministic and seedable.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void CopyTag(char* dst, size_t dst_size, const char* src) {
  const size_t n = std::min(std::strlen(src), dst_size - 1);
  std::memcpy(dst, src, n);
  dst[n] = '\0';
}

/// Per-thread open-span stack. Keyed on the owning tracer's never-reused
/// id (a thread traces into one tracer at a time; switching tracers
/// abandons the old stack, which only tests with private tracers do).
struct OpenEntry {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};
struct ThreadStack {
  uint64_t owner_id = 0;
  std::vector<OpenEntry> stack;
  uint64_t span_ordinal = 0;  // ordinal within the current trace
};
ThreadStack& LocalStack() {
  thread_local ThreadStack state;
  return state;
}

}  // namespace

Tracer::Tracer(uint64_t seed, size_t capacity)
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(capacity == 0 ? 1 : capacity),
      seed_(seed),
      base_us_(NowUs()) {}

Tracer::~Tracer() = default;

Tracer* Tracer::Global() {
  // Leaked: reader threads may outlive main() teardown order.
  static Tracer* tracer = new Tracer();
  return tracer;
}

int64_t Tracer::NowUs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

Tracer::Ring* Tracer::LocalRing() {
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

Tracer::OpenSpan Tracer::PushSpan() {
  ThreadStack& ts = LocalStack();
  if (ts.owner_id != id_) {
    ts.owner_id = id_;
    ts.stack.clear();
    ts.span_ordinal = 0;
  }
  OpenSpan open;
  if (ts.stack.empty()) {
    const uint64_t ordinal =
        next_trace_.fetch_add(1, std::memory_order_relaxed);
    open.trace_id = Mix64(seed_ ^ Mix64(ordinal + 1));
    if (open.trace_id == 0) open.trace_id = 1;
    open.parent_id = 0;
    ts.span_ordinal = 0;
  } else {
    open.trace_id = ts.stack.back().trace_id;
    open.parent_id = ts.stack.back().span_id;
  }
  open.span_id = Mix64(open.trace_id ^ Mix64(++ts.span_ordinal));
  if (open.span_id == 0) open.span_id = 1;
  ts.stack.push_back({open.trace_id, open.span_id});
  return open;
}

void Tracer::PopSpan(const OpenSpan& span, const char* name,
                     const char* category, int64_t a, int64_t b, int64_t c,
                     int64_t start_us, int64_t dur_us) {
  ThreadStack& ts = LocalStack();
  if (ts.owner_id == id_) {
    // RAII spans unwind LIFO; tolerate an out-of-order End() by popping
    // down to (and including) the closing span.
    while (!ts.stack.empty()) {
      const bool match = ts.stack.back().span_id == span.span_id;
      ts.stack.pop_back();
      if (match) break;
    }
  }
  if (!enabled_.load(std::memory_order_relaxed)) return;
  SpanRecord record;
  record.trace_id = span.trace_id;
  record.span_id = span.span_id;
  record.parent_id = span.parent_id;
  record.a = a;
  record.b = b;
  record.c = c;
  record.start_us = start_us < 0 ? 0 : start_us;
  record.dur_us = dur_us < 0 ? 0 : dur_us;
  CopyTag(record.name, sizeof(record.name), name);
  CopyTag(record.category, sizeof(record.category), category);
  Emit(record);
}

void Tracer::Emit(const SpanRecord& record) {
  Ring* ring = LocalRing();
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  SpanRecord& slot = ring->slots[head % capacity_];
  slot = record;
  slot.seq = seq;
  // Publish the slot: pairs with the acquire in CollectSpans.
  ring->head.store(head + 1, std::memory_order_release);
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  // Keep Ring allocations alive — threads hold cached pointers into them.
  for (auto& ring : rings_) {
    ring->head.store(0, std::memory_order_release);
  }
  next_seq_.store(0, std::memory_order_relaxed);
  next_trace_.store(0, std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::CollectSpans() const {
  std::vector<SpanRecord> merged;
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
            [](const SpanRecord& x, const SpanRecord& y) {
              return x.seq < y.seq;
            });
  return merged;
}

int64_t Tracer::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  for (const auto& ring : rings_) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > capacity_) dropped += static_cast<int64_t>(head - capacity_);
  }
  return dropped;
}

std::string Tracer::CanonicalText() const {
  const std::vector<SpanRecord> spans = CollectSpans();
  std::string out;
  size_t line = 0;
  for (const SpanRecord& record : spans) {
    out += StrFormat(
        "#%06zu trace=%016llx span=%016llx parent=%016llx %-20s cat=%-10s "
        "a=%lld b=%lld c=%lld\n",
        line++, static_cast<unsigned long long>(record.trace_id),
        static_cast<unsigned long long>(record.span_id),
        static_cast<unsigned long long>(record.parent_id), record.name,
        record.category, static_cast<long long>(record.a),
        static_cast<long long>(record.b), static_cast<long long>(record.c));
  }
  return out;
}

std::string Tracer::DumpJsonl() const {
  const std::vector<SpanRecord> spans = CollectSpans();
  std::string out;
  for (const SpanRecord& record : spans) {
    out += StrFormat(
        "{\"seq\": %llu, \"trace_id\": \"%016llx\", \"span_id\": "
        "\"%016llx\", \"parent_id\": \"%016llx\", \"name\": \"%s\", "
        "\"category\": \"%s\", \"a\": %lld, \"b\": %lld, \"c\": %lld, "
        "\"start_us\": %lld, \"dur_us\": %lld}\n",
        static_cast<unsigned long long>(record.seq),
        static_cast<unsigned long long>(record.trace_id),
        static_cast<unsigned long long>(record.span_id),
        static_cast<unsigned long long>(record.parent_id), record.name,
        record.category, static_cast<long long>(record.a),
        static_cast<long long>(record.b), static_cast<long long>(record.c),
        static_cast<long long>(record.start_us),
        static_cast<long long>(record.dur_us));
  }
  return out;
}

std::string Tracer::DumpChromeJson() const {
  const std::vector<SpanRecord> spans = CollectSpans();
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const SpanRecord& record : spans) {
    out += first ? "\n" : ",\n";
    first = false;
    const int64_t ts = record.start_us < 0 ? 0 : record.start_us;
    out += StrFormat(
        "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": "
        "%lld, \"dur\": %lld, \"pid\": 0, \"tid\": 0, \"args\": "
        "{\"trace_id\": \"%016llx\", \"span_id\": \"%016llx\", "
        "\"parent_id\": \"%016llx\", \"a\": %lld, \"b\": %lld, \"c\": "
        "%lld}}",
        record.name, record.category, static_cast<long long>(ts),
        static_cast<long long>(record.dur_us),
        static_cast<unsigned long long>(record.trace_id),
        static_cast<unsigned long long>(record.span_id),
        static_cast<unsigned long long>(record.parent_id),
        static_cast<long long>(record.a), static_cast<long long>(record.b),
        static_cast<long long>(record.c));
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

namespace {
Status WriteFileOrError(const std::string& path, const std::string& body,
                        const char* what) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IOError(std::string("cannot open ") + what + " file '" +
                           path + "' for write");
  }
  out << body;
  out.close();
  if (!out) {
    return Status::IOError(std::string("failed writing ") + what + " file '" +
                           path + "'");
  }
  return Status::OK();
}
}  // namespace

Status Tracer::WriteJsonl(const std::string& path) const {
  return WriteFileOrError(path, DumpJsonl(), "trace");
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  return WriteFileOrError(path, DumpChromeJson(), "trace");
}

TraceSpan::TraceSpan(Tracer* tracer, const char* name, const char* category,
                     int64_t a, int64_t b, int64_t c)
    : tracer_(tracer),
      name_(name),
      category_(category),
      a_(a),
      b_(b),
      c_(c) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  open_ = tracer_->PushSpan();
  start_us_ = Tracer::NowUs();
  active_ = true;
}

TraceSpan::~TraceSpan() { End(); }

void TraceSpan::End() {
  if (!active_) return;
  active_ = false;
  const int64_t end_us = Tracer::NowUs();
  tracer_->PopSpan(open_, name_, category_, a_, b_, c_,
                   start_us_ - tracer_->base_us(), end_us - start_us_);
}

}  // namespace probkb
