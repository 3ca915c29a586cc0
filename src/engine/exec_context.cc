#include "engine/exec_context.h"

#include "util/strings.h"

namespace probkb {

std::string ExecStats::ToString() const {
  std::string out;
  for (const auto& n : nodes) {
    out += StrFormat("%-28s rows_in=%-10lld rows_out=%-10lld %.3fms\n",
                     n.label.c_str(), static_cast<long long>(n.rows_in),
                     static_cast<long long>(n.rows_out), n.seconds * 1e3);
  }
  return out;
}

OpRecord ToOpRecord(const NodeStats& stats) {
  OpRecord op;
  op.label = stats.label;
  op.rows_in = stats.rows_in;
  op.rows_out = stats.rows_out;
  op.seconds = stats.seconds;
  op.build_seconds = stats.build_seconds;
  op.probe_seconds = stats.probe_seconds;
  op.rehashes = stats.rehashes;
  op.build_partitions = stats.build_partitions;
  op.num_children = stats.num_children;
  return op;
}

Status ExecContext::Record(NodeStats stats) {
  produced_rows_ += stats.rows_out;
  const std::string label = stats.label;
  if (stats_sink_ != nullptr) {
    stats_sink_->RecordOp(stats_scope_, ToOpRecord(stats));
  }
  stats_.nodes.push_back(std::move(stats));
  return CheckRowBudget(label);
}

Status ExecContext::CheckBudget(const std::string& label) const {
  if (budget_.deadline_seconds > 0 &&
      timer_.Seconds() > budget_.deadline_seconds) {
    return Status::DeadlineExceeded(
        StrFormat("plan exceeded its %.3fs deadline at operator %s",
                  budget_.deadline_seconds, label.c_str()));
  }
  return CheckRowBudget(label);
}

Status ExecContext::CheckRowBudget(const std::string& label) const {
  if (budget_.max_produced_rows > 0 &&
      produced_rows_ > budget_.max_produced_rows) {
    return Status::ResourceExhausted(StrFormat(
        "plan produced %lld rows, over the %lld-row budget, at operator %s",
        static_cast<long long>(produced_rows_),
        static_cast<long long>(budget_.max_produced_rows), label.c_str()));
  }
  return Status::OK();
}

}  // namespace probkb
