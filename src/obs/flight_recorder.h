#ifndef PROBKB_OBS_FLIGHT_RECORDER_H_
#define PROBKB_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace probkb {

/// \brief Event taxonomy of the flight recorder: the step-level milestones
/// a post-mortem needs to explain why a run produced what it did. See
/// DESIGN.md "Flight recorder & logging".
enum class FrEvent : uint8_t {
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

const char* FrEventName(FrEvent event);

/// \brief One journal entry. Payloads are exclusively *deterministic*
/// quantities (indices, counts, attempt numbers) — never wall-clock or
/// thread ids — so the merged timeline of a deterministic run is
/// byte-identical at any thread count, and a chaos seed's dump can be
/// diffed across configurations.
struct FrRecord {
  uint64_t seq = 0;  // global issue order; the merge key
  FrEvent event = FrEvent::kMotionBegin;
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
  char detail[32] = {0};  // truncated label / kind tag

  std::string ToText() const;
};

/// \brief Lock-free per-thread ring-buffer journal of pipeline milestones.
///
/// Each thread writes to its own fixed-capacity ring (registered on first
/// use; registration is the only locked path), so recording is a relaxed
/// fetch_add for the global sequence number plus a store into thread-local
/// slots — no contention, no allocation, near-zero cost on hot paths. The
/// last `capacity` events per thread survive; older ones are overwritten
/// (a flight recorder keeps the tail of the story, not the whole book).
///
/// MergedTimeline() collects every ring and sorts by sequence number.
/// Readers are expected to run after the recorded activity settles (end of
/// run, post-mortem on failure); per-ring heads are released/acquired so a
/// settled writer's records are visible.
///
/// The process-global instance (Global()) is enabled by default and fed by
/// the MPP motions, the fault injector, checkpoint commits, fixpoint
/// iteration boundaries, and Gibbs milestones. Purely observational:
/// nothing reads it during execution, so outputs are bit-identical with
/// the recorder on or off.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// \brief The process-wide recorder the pipeline reports into.
  static FlightRecorder* Global();

  /// \brief Cheap kill switch (relaxed atomic load per Record call);
  /// bench_report uses it to measure the recorder's overhead.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// \brief Journals one event; `detail` is truncated to fit FrRecord.
  void Record(FrEvent event, std::string_view detail, int64_t a = 0,
              int64_t b = 0, int64_t c = 0);

  /// \brief Drops all recorded events and restarts sequence numbering.
  /// Call only while no thread is concurrently recording (between runs).
  void Reset();

  /// \brief All surviving events in sequence order; `last_n` > 0 keeps
  /// only the newest n.
  std::vector<FrRecord> MergedTimeline(size_t last_n = 0) const;

  /// \brief Events overwritten by ring wrap-around (lost to the dump).
  int64_t dropped_events() const;

  /// \brief Human-readable timeline (one event per line, sequence-stamped).
  std::string DumpText(size_t last_n = 0) const;

  /// \brief The timeline as a JSON document.
  std::string DumpJson(size_t last_n = 0) const;

  /// \brief Writes DumpJson to `path`.
  Status WriteDump(const std::string& path, size_t last_n = 0) const;

 private:
  struct Ring {
    explicit Ring(size_t capacity) : slots(capacity) {}
    std::vector<FrRecord> slots;
    /// Records ever written by the owning thread; slots hold the last
    /// min(head, capacity) of them.
    std::atomic<uint64_t> head{0};
  };

  Ring* LocalRing();

  /// Never-reused instance id; the thread-local ring cache keys on it so a
  /// recorder allocated at a dead recorder's address cannot resurrect a
  /// stale cached Ring*.
  const uint64_t id_;
  const size_t capacity_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> next_seq_{0};
  /// Registration is append-only and rings are never deallocated before
  /// the recorder itself, so a thread's cached Ring* stays valid across
  /// Reset() (which only zeroes heads).
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

}  // namespace probkb

#endif  // PROBKB_OBS_FLIGHT_RECORDER_H_
