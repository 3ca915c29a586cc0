#include "mpp/mpp_context.h"

#include <algorithm>
#include <map>

#include "obs/trace.h"
#include "util/strings.h"

namespace probkb {

namespace {

const char* KindName(MppStep::Kind kind) {
  switch (kind) {
    case MppStep::Kind::kCompute:
      return "compute";
    case MppStep::Kind::kRedistribute:
      return "redistribute";
    case MppStep::Kind::kBroadcast:
      return "broadcast";
    case MppStep::Kind::kGather:
      return "gather";
    case MppStep::Kind::kRecovery:
      return "recovery";
  }
  return "?";
}

}  // namespace

Status MppContext::CheckDeadline() const {
  if (deadline_seconds_ > 0 &&
      cost_.simulated_seconds() > deadline_seconds_) {
    return Status::DeadlineExceeded(
        StrFormat("simulated time %.3fs exceeded the %.3fs deadline",
                  cost_.simulated_seconds(), deadline_seconds_));
  }
  return Status::OK();
}

Status MppContext::BeginMotion(const std::string& label,
                               int64_t* motion_index) {
  *motion_index = next_motion_index_++;
  Tracer::Global()->Event(EventKind::kMotionBegin, label, *motion_index);
  if (injector_ != nullptr) {
    PROBKB_RETURN_NOT_OK(injector_->OperatorFault(*motion_index, label));
  }
  return CheckDeadline();
}

Status MppContext::RecoverMotion(
    int64_t motion_index, const std::string& label,
    const std::vector<FaultEvent>& faults,
    const std::function<int64_t(const FaultEvent&)>& resend_tuples) {
  if (faults.empty()) return Status::OK();
  FaultStats* stats = injector_->mutable_stats();

  double backoff_seconds = 0.0;
  int64_t reshipped = 0;
  int64_t recovered = 0;  // shadow of stats->recovered_faults, this motion

  // Batch-level faults recover in one exchange with the (alive) sender:
  // a dropped batch is retransmitted from the sender's materialized
  // output, a duplicated batch is detected against the sender's declared
  // row count and the extra copy discarded. Applies to first-try faults
  // and to batch faults scheduled on retry attempts alike, so every
  // injected fault is either recovered or charged as unrecovered.
  auto absorb_batch_fault = [&](const FaultEvent& f) {
    switch (f.kind) {
      case FaultKind::kDropBatch:
        backoff_seconds += retry_.BackoffSeconds(1);
        reshipped += resend_tuples(f);
        ++stats->retries;
        ++stats->recovered_faults;
        ++recovered;
        return true;
      case FaultKind::kDuplicateBatch:
        // The duplicate burned interconnect bandwidth before detection.
        reshipped += resend_tuples(f);
        ++stats->recovered_faults;
        ++recovered;
        return true;
      default:
        return false;
    }
  };

  std::vector<FaultEvent> pending;  // segment-loss faults, retried below
  for (const FaultEvent& f : faults) {
    if (!absorb_batch_fault(f) && f.kind == FaultKind::kSegmentFailure) {
      pending.push_back(f);
    }
  }

  // Segment failures: re-run each victim's partition from the surviving
  // materialized-view inputs, under capped exponential backoff. A retry
  // can itself be struck (the injector's schedule decides), so this loops
  // until the pending set drains or the attempt budget runs out.
  for (int attempt = 1; !pending.empty(); ++attempt) {
    if (attempt > retry_.max_attempts) {
      ++stats->unrecovered_motions;
      Tracer::Global()->Event(EventKind::kMotionFailed, label, motion_index,
                              retry_.max_attempts, pending.front().segment);
      // Account what recovery burned before giving up.
      MppStep step;
      step.kind = MppStep::Kind::kRecovery;
      step.label = "recovery " + label + " (failed)";
      step.tuples_shipped = reshipped;
      step.seconds = backoff_seconds + MotionSeconds(reshipped);
      cost_.Add(std::move(step));
      stats->backoff_seconds += backoff_seconds;
      stats->tuples_reshipped += reshipped;
      return Status::ResourceExhausted(StrFormat(
          "motion %lld (%s): segment %d still failed after %d attempts",
          static_cast<long long>(motion_index), label.c_str(),
          pending.front().segment, retry_.max_attempts));
    }
    backoff_seconds += retry_.BackoffSeconds(attempt);
    ++stats->retries;
    Tracer::Global()->Event(EventKind::kRetryAttempt, label, motion_index,
                            attempt, static_cast<int64_t>(pending.size()));

    std::map<int, FaultEvent> failed_again;
    for (const FaultEvent& f :
         injector_->MotionFaults(motion_index, attempt, num_segments_)) {
      if (!absorb_batch_fault(f) && f.kind == FaultKind::kSegmentFailure) {
        failed_again.emplace(f.segment, f);
      }
    }

    std::vector<FaultEvent> still_pending;
    for (const FaultEvent& f : pending) {
      auto it = failed_again.find(f.segment);
      if (it != failed_again.end()) {
        still_pending.push_back(f);
        failed_again.erase(it);
      } else {
        reshipped += resend_tuples(f);
        ++stats->recovered_faults;
        ++recovered;
      }
    }
    // A retry-time segment failure that struck a segment not mid-recovery
    // claims a fresh victim: its contribution is lost too and must be
    // replayed on the next attempt.
    for (const auto& [segment, f] : failed_again) still_pending.push_back(f);
    pending = std::move(still_pending);
  }

  MppStep step;
  step.kind = MppStep::Kind::kRecovery;
  step.label = "recovery " + label;
  step.tuples_shipped = reshipped;
  step.seconds = backoff_seconds + MotionSeconds(reshipped);
  cost_.Add(std::move(step));
  stats->backoff_seconds += backoff_seconds;
  stats->tuples_reshipped += reshipped;
  Tracer::Global()->Event(EventKind::kMotionRecovered, label, motion_index,
                          recovered, reshipped);
  return Status::OK();
}

Status MppContext::AccountMotion(
    MppStep::Kind kind, const std::string& label, int64_t tuples_shipped,
    int num_fields, const std::vector<int64_t>& per_segment_rows,
    const std::function<int64_t(const FaultEvent&)>& resend_tuples) {
  int64_t motion_index = 0;
  PROBKB_RETURN_NOT_OK(BeginMotion(label, &motion_index));
  TraceSpan motion_span(Tracer::Global(), label.c_str(), KindName(kind),
                        motion_index, tuples_shipped, 0);

  if (injector_ != nullptr && tuples_shipped > 0) {
    PROBKB_RETURN_NOT_OK(RecoverMotion(
        motion_index, label,
        injector_->MotionFaults(motion_index, 0, num_segments_),
        resend_tuples));
  }

  MppStep step;
  step.kind = kind;
  step.label = label;
  step.tuples_shipped = tuples_shipped;
  step.seconds = kind == MppStep::Kind::kBroadcast
                     ? BroadcastSeconds(tuples_shipped)
                     : MotionSeconds(tuples_shipped);
  const double seconds = step.seconds;
  cost_.Add(std::move(step));
  if (obs_ != nullptr) {
    obs_->RecordMotion(label, KindName(kind), tuples_shipped,
                       tuples_shipped * num_fields * 8, seconds,
                       per_segment_rows);
  }
  return Status::OK();
}

Result<DistributedTablePtr> MppContext::Redistribute(
    const DistributedTable& input, std::vector<int> key_cols,
    std::string name) {
  for (int c : key_cols) {
    if (c < 0 || c >= input.schema().num_fields()) {
      return Status::InvalidArgument(
          StrFormat("redistribute key column %d out of range", c));
    }
  }
  const std::string label =
      input.name().empty() ? "redistribute" : input.name();
  int64_t motion_index = 0;
  PROBKB_RETURN_NOT_OK(BeginMotion(label, &motion_index));
  TraceSpan motion_span(Tracer::Global(), label.c_str(), "redistribute",
                        motion_index);

  const int n = num_segments_;
  std::vector<TablePtr> segments;
  segments.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) segments.push_back(Table::Make(input.schema()));

  // The scatter kernel assembles targets canonically (sender-major), so a
  // recovered or threaded run is bit-identical to a serial fault-free
  // one. A replicated input has one sender, its copy: each segment keeps
  // the slice that hashes to it, with no traffic (and no motion faults).
  const Distribution dist = Distribution::Hash(key_cols);
  const int senders = input.distribution().is_replicated() ? 1 : n;
  std::vector<const Table*> from;
  for (int s = 0; s < senders; ++s) from.push_back(input.segment(s).get());
  std::vector<SegmentRouting> routes(static_cast<size_t>(senders));
  FanOut(pool_, senders, input.PhysicalRows(), [&](int s) {
    const Table& src = *from[static_cast<size_t>(s)];
    routes[static_cast<size_t>(s)] =
        DistributedTable::Route(src, dist, n, 0, src.NumRows());
  });
  DistributedTable::Scatter(from, routes, segments, pool_);

  // sent(s, t) tuples cross from segment s to t. They double as the
  // recovery bookkeeping: a victim's whole contribution (segment failure)
  // or one batch (drop/duplicate) is replayed from its input partition.
  auto sent = [&](int s, int t) -> int64_t {
    if (senders == 1 || s == t) return 0;
    return routes[static_cast<size_t>(s)].Count(t);
  };
  int64_t shipped = 0;
  for (int s = 0; s < senders; ++s) {
    for (int t = 0; t < n; ++t) shipped += sent(s, t);
  }
  // Like Broadcast/Gather, only a redistribute that actually touched the
  // interconnect can fault: when every row hashed to its home segment
  // there is no traffic to strike.
  if (injector_ != nullptr && shipped > 0) {
    auto resend = [&](const FaultEvent& f) -> int64_t {
      if (f.kind != FaultKind::kSegmentFailure) {
        return sent(f.segment, f.target);
      }
      // Everything the victim shipped anywhere must be replayed.
      int64_t t = 0;
      for (int target = 0; target < n; ++target) t += sent(f.segment, target);
      return t;
    };
    PROBKB_RETURN_NOT_OK(RecoverMotion(
        motion_index, label, injector_->MotionFaults(motion_index, 0, n),
        resend));
  }

  motion_span.set_values(motion_index, shipped, 0);

  MppStep step;
  step.kind = MppStep::Kind::kRedistribute;
  step.label = label;
  step.tuples_shipped = shipped;
  step.seconds = MotionSeconds(shipped);
  cost_.Add(std::move(step));

  if (obs_ != nullptr) {
    std::vector<int64_t> per_segment;
    per_segment.reserve(static_cast<size_t>(n));
    for (const TablePtr& seg : segments) per_segment.push_back(seg->NumRows());
    obs_->RecordMotion(label, "redistribute", shipped,
                       shipped * input.schema().num_fields() * 8,
                       MotionSeconds(shipped), per_segment);
  }

  return std::make_shared<DistributedTable>(
      input.schema(), std::move(segments), dist,
      name.empty() ? input.name() + "_redist" : std::move(name));
}

Result<DistributedTablePtr> MppContext::Broadcast(
    const DistributedTable& input, std::string name) {
  const std::string label = input.name().empty() ? "broadcast" : input.name();
  int64_t motion_index = 0;
  PROBKB_RETURN_NOT_OK(BeginMotion(label, &motion_index));
  TraceSpan motion_span(Tracer::Global(), label.c_str(), "broadcast",
                        motion_index);

  TablePtr full = input.ToLocal();
  int64_t shipped = input.distribution().is_replicated()
                        ? 0
                        : full->NumRows() * (num_segments_ - 1);
  motion_span.set_values(motion_index, shipped, 0);

  if (injector_ != nullptr && shipped > 0) {
    // Any fault on a broadcast costs one full copy re-sent to the victim
    // (the source table survives on its home segments).
    auto resend = [&](const FaultEvent&) { return full->NumRows(); };
    PROBKB_RETURN_NOT_OK(RecoverMotion(
        motion_index, label,
        injector_->MotionFaults(motion_index, 0, num_segments_), resend));
  }

  MppStep step;
  step.kind = MppStep::Kind::kBroadcast;
  step.label = label;
  step.tuples_shipped = shipped;
  step.seconds = BroadcastSeconds(shipped);
  cost_.Add(std::move(step));

  if (obs_ != nullptr) {
    std::vector<int64_t> per_segment(static_cast<size_t>(num_segments_),
                                     full->NumRows());
    obs_->RecordMotion(label, "broadcast", shipped,
                       shipped * input.schema().num_fields() * 8,
                       BroadcastSeconds(shipped), per_segment);
  }

  return std::make_shared<DistributedTable>(
      input.schema(),
      std::vector<TablePtr>(static_cast<size_t>(num_segments_), full),
      Distribution::Replicated(),
      name.empty() ? input.name() + "_bcast" : std::move(name));
}

Result<TablePtr> MppContext::Gather(const DistributedTable& input) {
  const std::string label = input.name().empty() ? "gather" : input.name();
  int64_t motion_index = 0;
  PROBKB_RETURN_NOT_OK(BeginMotion(label, &motion_index));
  TraceSpan motion_span(Tracer::Global(), label.c_str(), "gather",
                        motion_index);

  TablePtr out = input.ToLocal();
  int64_t shipped = out->NumRows();
  motion_span.set_values(motion_index, shipped, 0);

  if (injector_ != nullptr && shipped > 0) {
    // A victim's rows are re-pulled from its (restarted) segment; a batch
    // fault costs the same single-segment replay.
    auto resend = [&](const FaultEvent& f) {
      return f.segment < input.num_segments()
                 ? input.segment(f.segment)->NumRows()
                 : 0;
    };
    PROBKB_RETURN_NOT_OK(RecoverMotion(
        motion_index, label,
        injector_->MotionFaults(motion_index, 0, num_segments_), resend));
  }

  MppStep step;
  step.kind = MppStep::Kind::kGather;
  step.label = input.name();
  step.tuples_shipped = shipped;
  step.seconds = MotionSeconds(shipped);
  cost_.Add(std::move(step));
  if (obs_ != nullptr) {
    std::vector<int64_t> per_segment;
    per_segment.reserve(static_cast<size_t>(input.num_segments()));
    for (int s = 0; s < input.num_segments(); ++s) {
      per_segment.push_back(input.segment(s)->NumRows());
    }
    obs_->RecordMotion(label, "gather", shipped,
                       shipped * input.schema().num_fields() * 8,
                       MotionSeconds(shipped), per_segment);
  }
  return out;
}

void MppContext::RecordCompute(const std::string& label,
                               const std::vector<double>& seg_seconds) {
  TraceSpan span(Tracer::Global(), label.c_str(), "compute",
                 static_cast<int64_t>(seg_seconds.size()));
  MppStep step;
  step.kind = MppStep::Kind::kCompute;
  step.label = label;
  step.seconds =
      seg_seconds.empty()
          ? 0.0
          : *std::max_element(seg_seconds.begin(), seg_seconds.end());
  step.total_work_seconds = 0.0;
  for (double s : seg_seconds) step.total_work_seconds += s;
  if (obs_ != nullptr) {
    obs_->RecordCompute(label, step.seconds, step.total_work_seconds,
                        static_cast<int>(seg_seconds.size()));
  }
  cost_.Add(std::move(step));
}

}  // namespace probkb
