#ifndef PROBKB_OBS_TRACE_H_
#define PROBKB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace probkb {

/// \brief One completed span. Identity and payload fields are exclusively
/// *deterministic* quantities (seeded ids, motion indices, row counts —
/// never wall-clock or thread ids), so the canonical dump of a
/// deterministic run is byte-identical at any thread count. Timing lives
/// in `start_us`/`dur_us` (CLOCK_MONOTONIC microseconds relative to the
/// tracer's base) and is exported to Chrome trace / JSONL but excluded
/// from CanonicalText().
struct SpanRecord {
  uint64_t seq = 0;        // global issue order; the merge key
  uint64_t trace_id = 0;   // one per root span (query / iteration)
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = trace root
  int64_t a = 0;           // span-specific deterministic payloads
  int64_t b = 0;
  int64_t c = 0;
  int64_t start_us = 0;
  int64_t dur_us = 0;
  char name[32] = {0};
  char category[16] = {0};
};

/// \brief Tracer: per-thread lock-free span rings (same
/// registration/publication discipline as the flight recorder) plus
/// deterministic trace/span identity.
///
/// Identity is derived, never drawn from clocks or PIDs: a trace id mixes
/// the tracer seed with a global trace ordinal, and a span id mixes the
/// trace id with the span's ordinal within its trace.
///
/// Span nesting is tracked with a thread-local stack: a TraceSpan opened
/// while another is active becomes its child; opened on an empty stack it
/// starts a new trace and becomes the root.
///
/// Disabled by default (unlike the flight recorder): tracing is opt-in via
/// `--trace`/`--trace_chrome`, and a disabled tracer costs one relaxed
/// load per span site.
class Tracer {
 public:
  // Capacity is per thread; serve query trees are ~6 spans each, so this
  // keeps the last ~2700 queries per reader thread.
  static constexpr size_t kDefaultCapacity = 16384;
  static constexpr uint64_t kDefaultSeed = 0x9E3779B97F4A7C15ULL;

  explicit Tracer(uint64_t seed = kDefaultSeed,
                  size_t capacity = kDefaultCapacity);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// \brief The process-wide tracer instrumentation sites report into.
  static Tracer* Global();

  /// \brief CLOCK_MONOTONIC now, in microseconds: immune to wall-clock
  /// steps, so span intervals never go negative.
  static int64_t NowUs();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// \brief The monotonic instant span timestamps are relative to.
  int64_t base_us() const { return base_us_; }

  /// \brief Drops all spans and restarts sequence/trace numbering. Call
  /// only while no span is open on any thread (between runs).
  void Reset();

  /// \brief All surviving spans, sorted by issue order.
  std::vector<SpanRecord> CollectSpans() const;

  /// \brief Spans overwritten by ring wrap-around (lost to the dump).
  int64_t dropped_spans() const;

  /// \brief Deterministic-fields-only dump: ids, names, payloads — no
  /// timing. Byte-identical across thread counts for a deterministic run.
  std::string CanonicalText() const;

  /// \brief Every span (timing included), one JSON object per line. Input
  /// format of the check_stats_json.py span-tree validator.
  std::string DumpJsonl() const;

  /// \brief Chrome trace ("X" complete events) on one track; ids and
  /// payloads in args.
  std::string DumpChromeJson() const;

  Status WriteJsonl(const std::string& path) const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  friend class TraceSpan;

  struct Ring {
    explicit Ring(size_t capacity) : slots(capacity) {}
    std::vector<SpanRecord> slots;
    std::atomic<uint64_t> head{0};
  };

  /// What TraceSpan needs to close a span: its identity plus the parent
  /// captured at open time.
  struct OpenSpan {
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_id = 0;
  };

  OpenSpan PushSpan();
  void PopSpan(const OpenSpan& span, const char* name, const char* category,
               int64_t a, int64_t b, int64_t c, int64_t start_us,
               int64_t dur_us);
  void Emit(const SpanRecord& record);
  Ring* LocalRing();

  /// Never-reused instance id; thread-local ring and stack caches key on
  /// it (same hazard as FlightRecorder::LocalRing).
  const uint64_t id_;
  const size_t capacity_;
  const uint64_t seed_;
  const int64_t base_us_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> next_trace_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// \brief RAII span. Opens on construction (no-op when tracing is off),
/// closes on End() or destruction. Payload values can be filled in as the
/// work completes:
///
///   TraceSpan span(Tracer::Global(), "local_ground", "serve");
///   ... work ...
///   span.set_values(atoms, depth, truncated);
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, const char* name, const char* category,
            int64_t a = 0, int64_t b = 0, int64_t c = 0);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_values(int64_t a, int64_t b, int64_t c) {
    a_ = a;
    b_ = b;
    c_ = c;
  }

  /// \brief Closes the span now (idempotent).
  void End();

  bool active() const { return active_; }
  uint64_t trace_id() const { return open_.trace_id; }
  uint64_t span_id() const { return open_.span_id; }

 private:
  Tracer* tracer_;
  Tracer::OpenSpan open_;
  const char* name_;
  const char* category_;
  int64_t a_;
  int64_t b_;
  int64_t c_;
  int64_t start_us_ = 0;
  bool active_ = false;
};

}  // namespace probkb

#endif  // PROBKB_OBS_TRACE_H_
