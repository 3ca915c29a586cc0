#ifndef PROBKB_FAULT_FAULT_INJECTOR_H_
#define PROBKB_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace probkb {

/// \brief Failure classes the injector can produce inside the simulator.
///
/// The first three strike motions (Redistribute / Broadcast / Gather) and
/// are recoverable: the motion re-runs the lost work from the surviving
/// materialized inputs. The last two trip an operator's simulated budget
/// and surface as kResourceExhausted / kDeadlineExceeded, which the
/// pipeline degrades into a partial result (or resumes from a checkpoint).
enum class FaultKind {
  /// A segment dies mid-motion; every batch it contributed is lost.
  kSegmentFailure,
  /// One sender->receiver batch of a redistribute is dropped in flight.
  kDropBatch,
  /// One sender->receiver batch is delivered twice.
  kDuplicateBatch,
  /// An operator exceeds its simulated memory budget.
  kMemoryExhausted,
  /// An operator exceeds the simulated deadline.
  kDeadlineTrip,
};

const char* FaultKindToString(FaultKind kind);

/// \brief One scheduled fault. Motions are numbered 0, 1, ... in issue
/// order across a simulation (MppContext assigns the index); `attempt` 0 is
/// the first try of a motion and k > 0 its k-th retry, so a schedule can
/// make the same motion fail repeatedly to exhaust the retry budget.
/// Operator-budget kinds (kMemoryExhausted / kDeadlineTrip) reuse `motion`
/// as a global operator index: the MPP simulator uses the motion index
/// itself, the single-node engine numbers operators consecutively across
/// all statements of a grounding run (one shared counter, see
/// ExecContext::set_shared_op_counter).
struct FaultEvent {
  FaultKind kind = FaultKind::kSegmentFailure;
  int64_t motion = 0;
  int attempt = 0;
  /// Victim source segment; -1 lets the injector pick one deterministically.
  int segment = -1;
  /// Destination segment of a batch fault; -1 lets the injector pick.
  int target = -1;
};

/// \brief Configuration of the deterministic fault injector.
///
/// Faults come from two sources: an explicit `schedule` (chaos tests pin
/// exact failure points) and seeded per-motion coin flips (chaos sweeps
/// explore many schedules from one integer). Both are fully deterministic:
/// the same options against the same workload produce the same faults.
struct FaultInjectionOptions {
  bool enabled = false;
  uint64_t seed = 0xC0FFEE;
  /// Per-motion probability that one source segment fails mid-motion.
  double segment_failure_prob = 0.0;
  /// Per-motion probability that one redistribute batch is dropped.
  double drop_batch_prob = 0.0;
  /// Per-motion probability that one redistribute batch is duplicated.
  double duplicate_batch_prob = 0.0;
  /// Cap on randomly injected faults (scheduled faults always fire).
  int64_t max_random_faults = 1'000'000;
  std::vector<FaultEvent> schedule;
};

/// \brief Retry policy for recoverable motion faults: capped exponential
/// backoff, charged to MppCost as kRecovery steps.
struct RetryPolicy {
  int max_attempts = 4;
  double initial_backoff_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 2.0;

  /// Backoff charged before retry number `attempt` (1-based).
  double BackoffSeconds(int attempt) const;
};

/// \brief Counters accumulated by the injector and the recovery paths.
struct FaultStats {
  int64_t segment_failures = 0;
  int64_t batches_dropped = 0;
  int64_t batches_duplicated = 0;
  int64_t memory_trips = 0;
  int64_t deadline_trips = 0;
  int64_t retries = 0;
  int64_t recovered_faults = 0;
  int64_t unrecovered_motions = 0;
  int64_t tuples_reshipped = 0;
  double backoff_seconds = 0.0;

  int64_t InjectedTotal() const {
    return segment_failures + batches_dropped + batches_duplicated +
           memory_trips + deadline_trips;
  }
  std::string ToString() const;
};

/// \brief Seeded, deterministic fault source threaded through the MPP
/// simulator and the engine's ExecContext.
///
/// The injector only *decides* faults; detection and recovery live in the
/// components (MppContext re-runs lost partitions, the grounders checkpoint
/// and resume). Stats of both sides accumulate here so the pipeline can
/// report per-stage failure counters.
class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectionOptions options)
      : options_(std::move(options)), rng_(options_.seed) {}

  bool enabled() const { return options_.enabled; }

  /// \brief All faults striking attempt `attempt` of motion `motion_index`
  /// over `num_segments` segments. Scheduled events fire on their exact
  /// (motion, attempt); random events fire on attempt 0 only, so a retry of
  /// a randomly failed motion always succeeds (transient-fault model).
  std::vector<FaultEvent> MotionFaults(int64_t motion_index, int attempt,
                                       int num_segments);

  /// \brief Scheduled operator-budget fault for engine operator number
  /// `op_index` (kMemoryExhausted / kDeadlineTrip reuse `motion` as the
  /// operator index); OK status if none fires.
  Status OperatorFault(int64_t op_index, const std::string& label);

  FaultStats* mutable_stats() { return &stats_; }
  const FaultStats& stats() const { return stats_; }
  const FaultInjectionOptions& options() const { return options_; }

 private:
  /// Picks a deterministic victim in [0, n) when the event left it at -1.
  int PickVictim(int event_field, int n);

  FaultInjectionOptions options_;
  Rng rng_;
  FaultStats stats_;
  int64_t random_faults_injected_ = 0;
};

}  // namespace probkb

#endif  // PROBKB_FAULT_FAULT_INJECTOR_H_
