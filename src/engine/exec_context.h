#ifndef PROBKB_ENGINE_EXEC_CONTEXT_H_
#define PROBKB_ENGINE_EXEC_CONTEXT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "obs/stats_registry.h"
#include "relational/spill.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace probkb {

/// \brief Per-operator execution statistics.
///
/// `rows_in` counts tuples flowing into the operator (both join sides, the
/// scan input, ...), `rows_out` the produced tuples. The MPP cost model
/// converts these counts into simulated time, and the bench harnesses print
/// them in Figure-4-style plan annotations.
///
/// Operators record in post-order (children finish before their parent), so
/// `num_children` lets a consumer rebuild the exact plan tree from the flat
/// record stream.
struct NodeStats {
  std::string label;
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  double seconds = 0.0;
  double build_seconds = 0.0;  // hash-join: building the hash index
  double probe_seconds = 0.0;  // hash-join: probing it
  int64_t rehashes = 0;        // mid-build index growths (0 when pre-sized)
  int build_partitions = 0;    // hash-join: build-side partition fan-out
  int spill_partitions = 0;        // grace-hash: partitions that hit disk
  int64_t spill_bytes_written = 0;  // grace-hash: bytes spilled out
  int64_t spill_bytes_read = 0;     // grace-hash: bytes paged back in
  int64_t page_faults_served = 0;   // grace-hash: partition page-ins
  int num_children = 0;
};

/// \brief Accumulated statistics of one plan execution.
struct ExecStats {
  std::vector<NodeStats> nodes;

  int64_t TotalRowsIn() const {
    int64_t t = 0;
    for (const auto& n : nodes) t += n.rows_in;
    return t;
  }
  int64_t TotalRowsOut() const {
    int64_t t = 0;
    for (const auto& n : nodes) t += n.rows_out;
    return t;
  }

  /// \brief Indented plan printout with row counts and timings.
  std::string ToString() const;
};

/// \brief `stats` as the StatsRegistry records it.
OpRecord ToOpRecord(const NodeStats& stats);

/// \brief Resource limits of one plan execution: a wall-clock deadline and
/// a produced-row cap (the simulator's proxy for operator memory). Zero
/// means unlimited.
struct ExecBudget {
  double deadline_seconds = 0.0;
  int64_t max_produced_rows = 0;
};

/// \brief Execution context threaded through a plan; owns the stats sink,
/// the resource budget, and the fault-injection hook.
class ExecContext {
 public:
  ExecContext() = default;

  /// \brief Records one operator's stats and charges its output against the
  /// row budget: kResourceExhausted as soon as the cap is crossed, rather
  /// than before the *next* operator starts (which would let one operator
  /// overshoot arbitrarily and never trip on a statement's last operator).
  Status Record(NodeStats stats);

  /// \brief Arms the budget; the deadline clock starts here.
  void set_budget(ExecBudget budget) {
    budget_ = budget;
    timer_.Reset();
  }
  const ExecBudget& budget() const { return budget_; }

  /// \brief Attaches a fault injector (not owned); operators consult it to
  /// simulate memory/deadline trips at exact, seeded points.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// \brief Points operator numbering at a counter shared across statements
  /// (not owned, must outlive this context). A grounding run threads one
  /// counter into every statement's context, so a scheduled operator-budget
  /// fault addresses a single global execution point instead of "operator k
  /// of every statement".
  void set_shared_op_counter(int64_t* counter) { op_counter_ = counter; }

  /// \brief Attaches a thread pool (not owned; may be nullptr). Operators
  /// with a data-parallel inner loop (the hash-join probe) fan morsels out
  /// over it; a null pool or a pool of one is the exact serial path. The
  /// pool never changes an operator's *output*: morsel results are merged
  /// in morsel order, and budget/fault bookkeeping stays on the thread
  /// executing the plan.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// \brief Attaches the out-of-core spill context (not owned; may be
  /// nullptr = unlimited memory, pure in-memory execution). When set and
  /// its MemoryBudget reports pressure, the hash join switches to the
  /// grace-hash path (ops.h GraceHashJoin) — a pure physical rewrite whose
  /// output is bit-identical to the in-memory path.
  void set_spill(SpillContext* spill) { spill_ = spill; }
  SpillContext* spill() const { return spill_; }

  /// \brief Mirrors every Record into `sink` under `scope` (not owned; may
  /// be nullptr to detach). Purely observational: recording happens after
  /// the budget/fault gates and copies values out, so an attached sink
  /// never changes control flow, row order, or operator numbering.
  void set_stats_sink(StatsRegistry* sink, std::string scope) {
    stats_sink_ = sink;
    stats_scope_ = std::move(scope);
  }

  /// \brief Budget and fault gate called by every operator before it runs:
  /// kDeadlineExceeded past the deadline, kResourceExhausted past the row
  /// cap, or whatever the injector decides for this operator index.
  Status CheckBudget(const std::string& label);

  int64_t produced_rows() const { return produced_rows_; }

  const ExecStats& stats() const { return stats_; }
  ExecStats* mutable_stats() { return &stats_; }

 private:
  Status CheckRowBudget(const std::string& label) const;

  ExecStats stats_;
  ExecBudget budget_;
  Timer timer_;
  StatsRegistry* stats_sink_ = nullptr;
  std::string stats_scope_;
  FaultInjector* injector_ = nullptr;
  ThreadPool* pool_ = nullptr;
  SpillContext* spill_ = nullptr;
  int64_t produced_rows_ = 0;
  int64_t local_op_counter_ = 0;
  int64_t* op_counter_ = &local_op_counter_;
};

}  // namespace probkb

#endif  // PROBKB_ENGINE_EXEC_CONTEXT_H_
