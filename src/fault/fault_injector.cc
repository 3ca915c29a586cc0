#include "fault/fault_injector.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/strings.h"

namespace probkb {

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSegmentFailure:
      return "segment failure";
    case FaultKind::kDropBatch:
      return "dropped batch";
    case FaultKind::kDuplicateBatch:
      return "duplicated batch";
    case FaultKind::kMemoryExhausted:
      return "memory exhausted";
    case FaultKind::kDeadlineTrip:
      return "deadline trip";
  }
  return "unknown";
}

double RetryPolicy::BackoffSeconds(int attempt) const {
  double backoff = initial_backoff_seconds;
  // A non-growing multiplier means flat backoff, and once a growing one
  // reaches the cap further multiplies change nothing: both exits keep an
  // absurd `attempt` (e.g. INT_MAX from a corrupted counter) from spinning
  // the loop or overflowing the product to +inf before the clamp.
  if (backoff_multiplier > 1.0) {
    for (int i = 1; i < attempt && backoff < max_backoff_seconds; ++i) {
      backoff *= backoff_multiplier;
    }
  }
  return std::min(backoff, max_backoff_seconds);
}

std::string FaultStats::ToString() const {
  return StrFormat(
      "faults: %lld segment failures, %lld dropped, %lld duplicated, "
      "%lld memory trips, %lld deadline trips; recovery: %lld retries, "
      "%lld recovered, %lld unrecovered, %lld tuples reshipped, "
      "%.3fs backoff",
      static_cast<long long>(segment_failures),
      static_cast<long long>(batches_dropped),
      static_cast<long long>(batches_duplicated),
      static_cast<long long>(memory_trips),
      static_cast<long long>(deadline_trips),
      static_cast<long long>(retries),
      static_cast<long long>(recovered_faults),
      static_cast<long long>(unrecovered_motions),
      static_cast<long long>(tuples_reshipped), backoff_seconds);
}

int FaultInjector::PickVictim(int event_field, int n) {
  if (event_field >= 0 && event_field < n) return event_field;
  return static_cast<int>(rng_.Uniform(static_cast<uint64_t>(n)));
}

std::vector<FaultEvent> FaultInjector::MotionFaults(int64_t motion_index,
                                                    int attempt,
                                                    int num_segments) {
  std::vector<FaultEvent> fired;
  if (!options_.enabled || num_segments <= 0) return fired;

  for (const FaultEvent& e : options_.schedule) {
    if (e.motion != motion_index || e.attempt != attempt) continue;
    if (e.kind == FaultKind::kMemoryExhausted ||
        e.kind == FaultKind::kDeadlineTrip) {
      continue;  // operator-budget faults fire via OperatorFault
    }
    FaultEvent f = e;
    f.segment = PickVictim(e.segment, num_segments);
    f.target = PickVictim(e.target, num_segments);
    fired.push_back(f);
  }

  // Random faults model transient failures: they strike the first attempt
  // only, so recovery is guaranteed to converge and a chaos sweep can
  // assert bit-identical results against the fault-free baseline.
  if (attempt == 0 && random_faults_injected_ < options_.max_random_faults) {
    auto roll = [&](double prob, FaultKind kind) {
      // Always consume one uniform draw so the random stream (and thus the
      // whole schedule) does not depend on which probabilities are zero.
      bool hit = rng_.UniformDouble() < prob;
      if (!hit || random_faults_injected_ >= options_.max_random_faults) {
        return;
      }
      FaultEvent f;
      f.kind = kind;
      f.motion = motion_index;
      f.segment = PickVictim(-1, num_segments);
      f.target = PickVictim(-1, num_segments);
      fired.push_back(f);
      ++random_faults_injected_;
    };
    roll(options_.segment_failure_prob, FaultKind::kSegmentFailure);
    roll(options_.drop_batch_prob, FaultKind::kDropBatch);
    roll(options_.duplicate_batch_prob, FaultKind::kDuplicateBatch);
  }

  for (const FaultEvent& f : fired) {
    switch (f.kind) {
      case FaultKind::kSegmentFailure:
        ++stats_.segment_failures;
        break;
      case FaultKind::kDropBatch:
        ++stats_.batches_dropped;
        break;
      case FaultKind::kDuplicateBatch:
        ++stats_.batches_duplicated;
        break;
      default:
        break;
    }
    Tracer::Global()->Event(EventKind::kFaultInjected,
                            FaultKindToString(f.kind), motion_index, attempt,
                            f.segment);
  }
  return fired;
}

Status FaultInjector::OperatorFault(int64_t op_index,
                                    const std::string& label) {
  if (!options_.enabled) return Status::OK();
  for (const FaultEvent& e : options_.schedule) {
    if (e.motion != op_index) continue;
    if (e.kind == FaultKind::kMemoryExhausted) {
      ++stats_.memory_trips;
      Tracer::Global()->Event(EventKind::kFaultInjected,
                              FaultKindToString(e.kind), op_index);
      return Status::ResourceExhausted(StrFormat(
          "injected memory budget trip in operator %lld (%s)",
          static_cast<long long>(op_index), label.c_str()));
    }
    if (e.kind == FaultKind::kDeadlineTrip) {
      ++stats_.deadline_trips;
      Tracer::Global()->Event(EventKind::kFaultInjected,
                              FaultKindToString(e.kind), op_index);
      return Status::DeadlineExceeded(StrFormat(
          "injected deadline trip in operator %lld (%s)",
          static_cast<long long>(op_index), label.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace probkb
