#ifndef PROBKB_MPP_MPP_CONTEXT_H_
#define PROBKB_MPP_MPP_CONTEXT_H_

#include <functional>
#include <string>
#include <vector>

#include "engine/planner.h"
#include "fault/fault_injector.h"
#include "mpp/cost_model.h"
#include "mpp/distributed_table.h"
#include "relational/spill.h"
#include "obs/stats_registry.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace probkb {

/// \brief Execution context of the shared-nothing simulator.
///
/// Owns the segment count, the cost parameters, and the accumulated cost /
/// plan trace. Motion operators (Redistribute, Broadcast, Gather) live here
/// because they are the interconnect; distributed relational operators are
/// free functions in mpp_ops.h that call back into this context to account
/// for their per-segment work.
///
/// With a FaultInjector attached, every motion becomes a detect-and-recover
/// loop: a failed segment's contribution is recomputed from the surviving
/// materialized inputs and re-shipped under capped exponential backoff,
/// with the retry cost charged to MppCost as kRecovery steps. Recovery
/// reassembles outputs in canonical segment order, so a recovered run is
/// bit-identical to a fault-free one. A motion that stays failed past the
/// retry budget returns kResourceExhausted; an injected deadline trip (or
/// an exceeded simulated deadline) returns kDeadlineExceeded.
class MppContext {
 public:
  explicit MppContext(int num_segments, CostParams params = {})
      : num_segments_(num_segments), params_(params) {}

  int num_segments() const { return num_segments_; }
  const CostParams& params() const { return params_; }

  MppCost* mutable_cost() { return &cost_; }
  const MppCost& cost() const { return cost_; }

  /// \brief Attaches the fault source (not owned; may be nullptr).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  void set_retry_policy(RetryPolicy policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// \brief Attaches a thread pool (not owned; may be nullptr) that runs
  /// per-segment operator work and motion preparation concurrently.
  /// Determinism contract: motion indices are assigned and the fault
  /// injector consulted on the orchestrating thread *before* any fan-out,
  /// and parallel results are merged in canonical segment order — so cost
  /// traces, fault schedules, and output tables are bit-identical to the
  /// serial engine's.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// \brief Attaches the out-of-core spill context (not owned; may be
  /// nullptr). Per-segment ExecContexts inherit it, so segment-local
  /// joins spill under the shared memory budget exactly as single-node
  /// statements do. SpillContext is thread-safe; concurrent segment
  /// fan-out charges one shared budget.
  void set_spill(SpillContext* spill) { spill_ = spill; }
  SpillContext* spill() const { return spill_; }

  /// \brief Row cap of every segment plan (0 = unlimited): PerSegment arms
  /// each segment's ExecContext with it, so a segment plan that produces
  /// more rows fails with kResourceExhausted.
  void set_max_rows_per_statement(int64_t rows) {
    max_rows_per_statement_ = rows;
  }
  int64_t max_rows_per_statement() const { return max_rows_per_statement_; }

  /// \brief Attaches an execution-stats registry (not owned; may be
  /// nullptr). Motions then report their shipped tuple/byte volume and
  /// post-motion per-segment row distribution, and compute phases their
  /// per-segment time skew. Recording happens on the orchestrating thread
  /// after the fault-recovery loop settles, so an attached registry never
  /// changes motion indices, fault schedules, or outputs.
  void set_stats_registry(StatsRegistry* registry) { obs_ = registry; }
  StatsRegistry* stats_registry() const { return obs_; }

  /// \brief Attaches the adaptive planner (not owned; may be nullptr).
  /// With a planner attached, MotionPolicy::kAuto joins in mpp_ops ask it
  /// to cost broadcast-vs-redistribute from the actual input sizes instead
  /// of applying the static collocation rule. Decisions only change which
  /// route tuples take, never the joined result; with no planner attached
  /// kAuto behaves exactly like the pre-planner static rule.
  void set_planner(AdaptivePlanner* planner) { planner_ = planner; }
  AdaptivePlanner* planner() const { return planner_; }

  /// \brief Budget on *simulated* elapsed seconds; 0 disables. Checked at
  /// every motion and by CheckDeadline() callers at iteration boundaries.
  void set_deadline_seconds(double seconds) { deadline_seconds_ = seconds; }
  double deadline_seconds() const { return deadline_seconds_; }

  /// \brief kDeadlineExceeded once accumulated simulated time passes the
  /// deadline (deterministic: simulated time is modelled, not measured).
  Status CheckDeadline() const;

  /// \brief Re-hashes `input` onto a new hash distribution. Tuples already
  /// on their target segment do not touch the interconnect (Greenplum
  /// behaviour).
  Result<DistributedTablePtr> Redistribute(const DistributedTable& input,
                                           std::vector<int> key_cols,
                                           std::string name = "");

  /// \brief Replicates `input` onto all segments; ships rows*(N-1) tuples.
  Result<DistributedTablePtr> Broadcast(const DistributedTable& input,
                                        std::string name = "");

  /// \brief Collects all rows on the coordinator.
  Result<TablePtr> Gather(const DistributedTable& input);

  /// \brief Accounts a motion whose data movement the caller performed
  /// itself (e.g. the grounder's incremental view refresh, which appends
  /// delta rows straight into view segments). Consumes a motion index and
  /// runs the same fault gate and recovery loop as the built-in motions,
  /// then charges `tuples_shipped` as a step of `kind`. Like the built-in
  /// motions it reports `tuples_shipped * num_fields * 8` bytes and the
  /// rows each segment received (`per_segment_rows`) to an attached stats
  /// registry. `resend_tuples` follows the RecoverMotion contract.
  Status AccountMotion(MppStep::Kind kind, const std::string& label,
                       int64_t tuples_shipped, int num_fields,
                       const std::vector<int64_t>& per_segment_rows,
                       const std::function<int64_t(const FaultEvent&)>&
                           resend_tuples);

  /// \brief Accounts a per-segment compute phase: `seg_seconds[i]` is the
  /// measured wall-clock of segment i's plan. Simulated elapsed takes the
  /// max (segments run concurrently on real hardware).
  void RecordCompute(const std::string& label,
                     const std::vector<double>& seg_seconds);

  double MotionSeconds(int64_t tuples_shipped) const {
    return params_.motion_latency +
           static_cast<double>(tuples_shipped) *
               params_.seconds_per_shipped_tuple;
  }

  double BroadcastSeconds(int64_t tuples_shipped) const {
    return params_.motion_latency +
           static_cast<double>(tuples_shipped) *
               params_.seconds_per_shipped_tuple *
               params_.broadcast_tuple_discount;
  }

 private:
  /// Deadline / injected-budget gate at the head of every motion; on OK,
  /// returns the motion's index via `motion_index`.
  Status BeginMotion(const std::string& label, int64_t* motion_index);

  /// Runs the detect/retry loop for the segments named in `faults`.
  /// `resend_tuples(segment)` is the interconnect traffic needed to replay
  /// one victim's contribution. Accumulates backoff and re-ship cost into
  /// a kRecovery step and the injector stats; kResourceExhausted when a
  /// segment stays failed past the retry budget.
  Status RecoverMotion(int64_t motion_index, const std::string& label,
                       const std::vector<FaultEvent>& faults,
                       const std::function<int64_t(const FaultEvent&)>&
                           resend_tuples);

  int num_segments_;
  CostParams params_;
  MppCost cost_;
  FaultInjector* injector_ = nullptr;
  StatsRegistry* obs_ = nullptr;
  AdaptivePlanner* planner_ = nullptr;
  ThreadPool* pool_ = nullptr;
  SpillContext* spill_ = nullptr;
  RetryPolicy retry_;
  double deadline_seconds_ = 0.0;
  int64_t max_rows_per_statement_ = 0;
  int64_t next_motion_index_ = 0;
};

}  // namespace probkb

#endif  // PROBKB_MPP_MPP_CONTEXT_H_
