#ifndef PROBKB_OBS_TRACE_H_
#define PROBKB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace probkb {

/// \brief Instant-event taxonomy: the step-level milestones a post-mortem
/// needs to explain why a run produced what it did. See DESIGN.md "Event
/// journal".
enum class EventKind : uint8_t {
  kMotionBegin = 0,    // a=motion index                  detail=label
  kFaultInjected,      // a=motion/op index b=attempt c=victim segment
                       //                                 detail=fault kind
  kRetryAttempt,       // a=motion index b=attempt c=pending victims
  kMotionRecovered,    // a=motion index b=faults recovered c=reshipped
  kMotionFailed,       // a=motion index b=attempts c=stuck segment
  kCheckpointCommit,   // a=iteration b=tables committed c=t_pi rows
  kIterationBoundary,  // a=iteration b=new atoms c=total atoms
                       //                                 detail=grounder
  kGibbsMilestone,     // a=chain b=sweeps done c=1 when the schedule is
                       //   complete
};

const char* EventKindName(EventKind kind);

/// \brief Whether a journal record is a completed span or an instant event.
enum class RecordKind : uint8_t { kSpan = 0, kEvent };

/// \brief One journal record: a completed span or an instant event.
/// Identity and payload fields are exclusively *deterministic* quantities
/// (seeded ids, motion indices, row counts — never wall-clock or thread
/// ids), so the canonical span dump and the event dump of a deterministic
/// run are byte-identical at any thread count. Timing lives in
/// `start_us`/`dur_us` (CLOCK_MONOTONIC microseconds relative to the
/// tracer's base) and is exported to Chrome trace / JSONL but excluded from
/// CanonicalText() and the event dumps. The ids, `dur_us` and `category`
/// are set for spans only, `event` for events only.
struct SpanRecord {
  uint64_t seq = 0;        // global issue order; the merge key
  uint64_t trace_id = 0;   // one per root span (query / iteration)
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = trace root
  int64_t a = 0;           // span- or event-specific deterministic payloads
  int64_t b = 0;
  int64_t c = 0;
  int64_t start_us = 0;
  int64_t dur_us = 0;
  RecordKind kind = RecordKind::kSpan;
  EventKind event = EventKind::kMotionBegin;
  char name[32] = {0};  // span name, or an event's truncated detail tag
  char category[16] = {0};
};

/// \brief The event journal: per-thread lock-free rings of spans and
/// instant events, one global sequence, and deterministic trace/span
/// identity.
///
/// Each thread writes to its own ring (registered on first use;
/// registration is the only locked path), so recording is a relaxed
/// fetch_add for the sequence number plus a store into thread-local slots.
/// A ring's storage grows in blocks as records arrive, up to `capacity`
/// records; after that the oldest are overwritten (the journal keeps the
/// tail of the story, not the whole book). Readers run after the recorded
/// activity settles (end of run, post-mortem on failure); per-ring heads
/// are released/acquired so a settled writer's records are visible.
///
/// Span identity is derived, never drawn from clocks or PIDs: a trace id
/// mixes the tracer seed with a global trace ordinal, and a span id mixes
/// the trace id with the span's ordinal within its trace. Span nesting is
/// tracked with a thread-local stack: a TraceSpan opened while another is
/// active becomes its child; opened on an empty stack it starts a new
/// trace and becomes the root.
///
/// Events are always recorded; the process-global journal is fed by the
/// MPP motions, the fault injector, checkpoint commits, fixpoint iteration
/// boundaries and Gibbs milestones, and the post-mortem dumps read it.
/// Spans are opt-in (`set_enabled`, via `--trace`/`--trace_chrome`); a
/// disabled tracer costs one relaxed load per span site. Nothing reads the
/// journal during execution, so outputs are bit-identical either way.
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

  /// \brief The process-wide journal instrumentation sites report into.
  static Tracer* Global();

  /// \brief CLOCK_MONOTONIC now, in microseconds: immune to wall-clock
  /// steps, so span intervals never go negative.
  static int64_t NowUs();

  /// \brief Switches span recording; events are recorded regardless.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// \brief The monotonic instant record timestamps are relative to.
  int64_t base_us() const { return base_us_; }

  /// \brief Journals one instant event; `detail` is truncated to fit
  /// SpanRecord::name.
  void Event(EventKind kind, std::string_view detail, int64_t a = 0,
             int64_t b = 0, int64_t c = 0);

  /// \brief Drops all records and restarts sequence/trace numbering. Call
  /// only while no span is open on any thread (between runs).
  void Reset();

  /// \brief All surviving spans, sorted by issue order.
  std::vector<SpanRecord> CollectSpans() const;

  /// \brief All surviving events, sorted by issue order.
  std::vector<SpanRecord> CollectEvents() const;

  /// \brief Events lost to ring wrap-around (overwritten by newer spans or
  /// events on the same thread).
  int64_t dropped_events() const;

  /// \brief Deterministic-fields-only span dump: ids, names, payloads — no
  /// timing. Byte-identical across thread counts for a deterministic run.
  std::string CanonicalText() const;

  /// \brief Every span (timing included), one JSON object per line. Input
  /// format of the check_stats_json.py span-tree validator.
  std::string DumpJsonl() const;

  /// \brief Chrome trace on one track: spans as "X" complete events,
  /// events as "i" instants; ids and payloads in args.
  std::string DumpChromeJson() const;

  /// \brief The post-mortem: the newest `last_n` events (all when 0), one
  /// per line. Events are numbered by their position in the event view,
  /// so spans interleaved on other threads never change the dump.
  std::string PostMortemText(size_t last_n = 0) const;

  /// \brief PostMortemText's events as a JSON document.
  std::string PostMortemJson(size_t last_n = 0) const;

  Status WriteJsonl(const std::string& path) const;
  Status WriteChromeTrace(const std::string& path) const;
  Status WritePostMortem(const std::string& path, size_t last_n = 0) const;

 private:
  friend class TraceSpan;

  /// Records are stored in blocks allocated as the owning thread reaches
  /// them. Blocks never move or die before the tracer, so a reader never
  /// sees storage the writer is reallocating.
  struct Ring {
    explicit Ring(size_t capacity);
    SpanRecord& Slot(uint64_t index);
    const SpanRecord& Slot(uint64_t index) const;

    size_t capacity;
    size_t block_records;
    std::vector<std::unique_ptr<SpanRecord[]>> blocks;
    /// Records ever written by the owning thread; the slots hold the last
    /// min(head, capacity) of them.
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
  std::vector<SpanRecord> Collect(RecordKind kind) const;

  /// Never-reused instance id; the thread-local ring and stack caches key
  /// on it so a tracer allocated at a dead tracer's address cannot revive
  /// a stale cached Ring*.
  const uint64_t id_;
  const size_t capacity_;
  const uint64_t seed_;
  const int64_t base_us_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> next_trace_{0};
  std::atomic<uint64_t> events_written_{0};
  /// Registration is append-only and rings are never deallocated before
  /// the tracer itself, so a thread's cached Ring* stays valid across
  /// Reset() (which only zeroes heads).
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
