#include "mpp/mpp_context.h"

#include <algorithm>

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
  return CheckDeadline();
}

Status MppContext::AccountMotion(
    MppStep::Kind kind, const std::string& label, int64_t tuples_shipped,
    int num_fields, const std::vector<int64_t>& per_segment_rows) {
  int64_t motion_index = 0;
  PROBKB_RETURN_NOT_OK(BeginMotion(label, &motion_index));
  TraceSpan motion_span(Tracer::Global(), label.c_str(), KindName(kind),
                        motion_index, tuples_shipped, 0);

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
  // threaded run is bit-identical to a serial one. A replicated input has
  // one sender, its copy: each segment keeps the slice that hashes to it,
  // with no traffic.
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

  // Tuples cross the interconnect only from a hash-distributed sender to
  // another segment.
  int64_t shipped = 0;
  if (senders > 1) {
    for (int s = 0; s < senders; ++s) {
      const SegmentRouting& route = routes[static_cast<size_t>(s)];
      shipped += static_cast<int64_t>(route.rows.size()) - route.Count(s);
    }
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
