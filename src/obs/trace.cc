#include "obs/trace.h"

#include <time.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

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

void CopyTag(char* dst, size_t dst_size, std::string_view src) {
  const size_t n = std::min(src.size(), dst_size - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

/// Ring storage grows in blocks of this many records (32 KiB), so a thread
/// that journals a handful of events touches one block, not the whole
/// capacity.
constexpr size_t kRecordsPerBlock = 256;

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

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kMotionBegin:
      return "motion_begin";
    case EventKind::kCheckpointCommit:
      return "checkpoint_commit";
    case EventKind::kIterationBoundary:
      return "iteration_boundary";
    case EventKind::kGibbsMilestone:
      return "gibbs_milestone";
  }
  return "?";
}

Tracer::Ring::Ring(size_t capacity)
    : capacity(capacity),
      block_records(std::min(capacity, kRecordsPerBlock)),
      blocks((capacity + block_records - 1) / block_records) {}

SpanRecord& Tracer::Ring::Slot(uint64_t index) {
  const uint64_t i = index % capacity;
  std::unique_ptr<SpanRecord[]>& block = blocks[i / block_records];
  if (block == nullptr) block.reset(new SpanRecord[block_records]);
  return block[i % block_records];
}

const SpanRecord& Tracer::Ring::Slot(uint64_t index) const {
  const uint64_t i = index % capacity;
  return blocks[i / block_records][i % block_records];
}

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
  // One Ring* per (thread, tracer instance), keyed by the never-reused id
  // so private tracers can't cross-contaminate the global one or revive a
  // dead tracer's ring. A thread may journal into several tracers at once
  // (a benchmark's spans into a private tracer, events into Global()).
  thread_local std::vector<std::pair<uint64_t, Ring*>> cache;
  for (const auto& [owner_id, ring] : cache) {
    if (owner_id == id_) return ring;
  }
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<Ring>(capacity_));
  cache.emplace_back(id_, rings_.back().get());
  return rings_.back().get();
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

void Tracer::Event(EventKind kind, std::string_view detail, int64_t a,
                   int64_t b, int64_t c) {
  SpanRecord record;
  record.kind = RecordKind::kEvent;
  record.event = kind;
  record.a = a;
  record.b = b;
  record.c = c;
  record.start_us = std::max<int64_t>(NowUs() - base_us_, 0);
  CopyTag(record.name, sizeof(record.name), detail);
  events_written_.fetch_add(1, std::memory_order_relaxed);
  Emit(record);
}

void Tracer::Emit(const SpanRecord& record) {
  Ring* ring = LocalRing();
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  SpanRecord& slot = ring->Slot(head);
  slot = record;
  slot.seq = seq;
  // Publish the slot: pairs with the acquire in Collect.
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
  events_written_.store(0, std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::Collect(RecordKind kind) const {
  std::vector<SpanRecord> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) {
      const uint64_t head = ring->head.load(std::memory_order_acquire);
      const uint64_t kept = std::min<uint64_t>(head, capacity_);
      for (uint64_t i = head - kept; i < head; ++i) {
        const SpanRecord& record = ring->Slot(i);
        if (record.kind == kind) merged.push_back(record);
      }
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const SpanRecord& x, const SpanRecord& y) {
              return x.seq < y.seq;
            });
  return merged;
}

std::vector<SpanRecord> Tracer::CollectSpans() const {
  return Collect(RecordKind::kSpan);
}

std::vector<SpanRecord> Tracer::CollectEvents() const {
  return Collect(RecordKind::kEvent);
}

int64_t Tracer::dropped_events() const {
  return static_cast<int64_t>(
             events_written_.load(std::memory_order_relaxed)) -
         static_cast<int64_t>(Collect(RecordKind::kEvent).size());
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
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const SpanRecord& record : CollectSpans()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat(
        "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": "
        "%lld, \"dur\": %lld, \"pid\": 0, \"tid\": 0, \"args\": "
        "{\"trace_id\": \"%016llx\", \"span_id\": \"%016llx\", "
        "\"parent_id\": \"%016llx\", \"a\": %lld, \"b\": %lld, \"c\": "
        "%lld}}",
        record.name, record.category,
        static_cast<long long>(record.start_us),
        static_cast<long long>(record.dur_us),
        static_cast<unsigned long long>(record.trace_id),
        static_cast<unsigned long long>(record.span_id),
        static_cast<unsigned long long>(record.parent_id),
        static_cast<long long>(record.a), static_cast<long long>(record.b),
        static_cast<long long>(record.c));
  }
  for (const SpanRecord& record : CollectEvents()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat(
        "  {\"name\": \"%s\", \"cat\": \"event\", \"ph\": \"i\", "
        "\"s\": \"t\", \"ts\": %lld, \"pid\": 0, \"tid\": 0, \"args\": "
        "{\"detail\": \"%s\", \"a\": %lld, \"b\": %lld, \"c\": %lld}}",
        EventKindName(record.event), static_cast<long long>(record.start_us),
        record.name, static_cast<long long>(record.a),
        static_cast<long long>(record.b), static_cast<long long>(record.c));
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

namespace {
/// Index of the first of the newest `last_n` of `n` events (all when 0).
size_t FirstOfTail(size_t n, size_t last_n) {
  return last_n > 0 && n > last_n ? n - last_n : 0;
}
}  // namespace

std::string Tracer::PostMortemText(size_t last_n) const {
  const std::vector<SpanRecord> events = CollectEvents();
  const size_t first = FirstOfTail(events.size(), last_n);
  std::string out =
      StrFormat("=== event journal (%zu events", events.size() - first);
  const int64_t dropped = dropped_events();
  if (dropped > 0) {
    out += StrFormat(", %lld older dropped", static_cast<long long>(dropped));
  }
  out += ") ===\n";
  for (size_t i = first; i < events.size(); ++i) {
    const SpanRecord& record = events[i];
    out += StrFormat("#%06zu %-18s a=%lld b=%lld c=%lld", i,
                     EventKindName(record.event),
                     static_cast<long long>(record.a),
                     static_cast<long long>(record.b),
                     static_cast<long long>(record.c));
    if (record.name[0] != '\0') {
      out += ' ';
      out += record.name;
    }
    out += '\n';
  }
  return out;
}

std::string Tracer::PostMortemJson(size_t last_n) const {
  const std::vector<SpanRecord> events = CollectEvents();
  const size_t first = FirstOfTail(events.size(), last_n);
  std::string out = "{\n";
  out += StrFormat("  \"dropped_events\": %lld,\n",
                   static_cast<long long>(dropped_events()));
  out += "  \"events\": [";
  for (size_t i = first; i < events.size(); ++i) {
    const SpanRecord& record = events[i];
    out += i == first ? "\n" : ",\n";
    out += StrFormat(
        "    {\"index\": %zu, \"event\": \"%s\", \"a\": %lld, \"b\": "
        "%lld, \"c\": %lld, \"detail\": \"%s\"}",
        i, EventKindName(record.event), static_cast<long long>(record.a),
        static_cast<long long>(record.b), static_cast<long long>(record.c),
        record.name);
  }
  out += first == events.size() ? "]\n" : "\n  ]\n";
  out += "}\n";
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

Status Tracer::WritePostMortem(const std::string& path, size_t last_n) const {
  return WriteFileOrError(path, PostMortemJson(last_n), "post-mortem");
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
