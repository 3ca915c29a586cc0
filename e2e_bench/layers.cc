// Per-layer counters read from the library's StatsRegistry, which traced
// runs attach through the grounders' and the Gibbs sampler's public setters.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.h"

namespace e2e {

void AddRegistryMetrics(const probkb::StatsRegistry& registry,
                        Report* report) {
  // Engine: each statement's operators arrive in post-order, so a stack of
  // finished subtrees recovers every hash join's inputs (left = probe side,
  // right = build side).
  for (const probkb::StatementTrace& statement : registry.statements()) {
    std::vector<int64_t> finished;
    for (const probkb::OpRecord& op : statement.ops) {
      std::vector<int64_t> inputs(static_cast<size_t>(op.num_children), 0);
      for (int c = op.num_children - 1; c >= 0 && !finished.empty(); --c) {
        inputs[static_cast<size_t>(c)] = finished.back();
        finished.pop_back();
      }
      if (op.label.rfind("HashJoin", 0) == 0 && inputs.size() == 2) {
        report->Add("engine.probe_rows", static_cast<double>(inputs[0]));
        report->Add("engine.build_rows", static_cast<double>(inputs[1]));
      }
      if (op.label == "HashDistinct") {
        report->Add("engine.distinct_rows", static_cast<double>(op.rows_in));
      }
      report->Add("engine.build_s", op.build_seconds);
      report->Add("engine.probe_s", op.probe_seconds);
      report->Add("engine.rehashes", static_cast<double>(op.rehashes));
      finished.push_back(op.rows_out);
    }
  }

  // MPP motions and per-segment compute.
  for (const probkb::MotionTotals& m : registry.motion_totals()) {
    report->Add("mpp.tuples_shipped", static_cast<double>(m.tuples_shipped));
    report->Add("mpp.bytes_shipped", static_cast<double>(m.bytes_shipped));
    if (m.kind == "broadcast") {
      report->Add("mpp.broadcasts", static_cast<double>(m.count));
    } else if (m.kind == "redistribute") {
      report->Add("mpp.redistributes", static_cast<double>(m.count));
    }
    report->Add("mpp.motion_s", m.seconds);
    report->Set("mpp.max_skew",
                std::max(report->Get("mpp.max_skew"), m.max_skew));
  }
  for (const probkb::ComputeTotals& c : registry.compute_totals()) {
    report->Add("mpp.compute_s", c.seconds);
  }

  // Thread pool: the grounder snapshots its workers at phase ends.
  for (const probkb::WorkerTotals& w : registry.workers()) {
    report->Add("pool.busy_s", w.busy_seconds);
    report->Add("pool.idle_s", w.idle_seconds);
    report->Add("pool.steals", static_cast<double>(w.steals));
  }
}

}  // namespace e2e
