#ifndef PROBKB_OBS_STATS_REGISTRY_H_
#define PROBKB_OBS_STATS_REGISTRY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/histogram.h"
#include "util/status.h"

namespace probkb {

/// \brief One operator execution, as reported by the engine at operator
/// close. Records arrive in post-order (children before parents), so
/// `num_children` is enough to reconstruct the plan tree exactly.
struct OpRecord {
  std::string label;
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  double seconds = 0.0;
  /// Hash-join split: time spent building the hash index vs probing it.
  double build_seconds = 0.0;
  double probe_seconds = 0.0;
  /// Mid-build growths of the operator's hash index (0 when pre-sized).
  int64_t rehashes = 0;
  /// Hash-join build-side partition fan-out (1 = serial build, 0 = n/a).
  int build_partitions = 0;
  int num_children = 0;
};

/// \brief All operators of one statement (one ExecContext), in post-order.
struct StatementTrace {
  std::string scope;
  std::vector<OpRecord> ops;
};

/// \brief Per-label operator aggregate across every statement.
struct OpTotals {
  std::string label;
  int64_t invocations = 0;
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  double seconds = 0.0;
  double build_seconds = 0.0;
  double probe_seconds = 0.0;
  int64_t rehashes = 0;
  /// Widest build-side partition fan-out seen for this label.
  int max_build_partitions = 0;
};

/// \brief One (iteration, partition) cell of the grounding fixpoint: the
/// delta produced by partition M_p in that iteration and the join time it
/// took. Semi-naive runs each partition twice per iteration (delta x full,
/// full x delta); both passes accumulate into the same cell.
struct PartitionIterStats {
  int iteration = 0;
  int partition = 0;  // 1..kNumRuleStructures
  int64_t delta_rows = 0;
  double join_seconds = 0.0;
  int64_t statements = 0;
};

/// \brief Per-label motion aggregate: interconnect volume and skew.
struct MotionTotals {
  std::string label;
  std::string kind;
  int64_t count = 0;
  int64_t tuples_shipped = 0;
  int64_t bytes_shipped = 0;
  double seconds = 0.0;
  /// Worst per-segment row skew observed over this label's motions:
  /// max-segment rows divided by mean-segment rows (1.0 = balanced, 0 when
  /// no per-segment data was reported).
  double max_skew = 0.0;
  int64_t max_segment_tuples = 0;
};

/// \brief Per-label compute-phase aggregate on the MPP simulator.
struct ComputeTotals {
  std::string label;
  int64_t count = 0;
  double seconds = 0.0;       // sum over phases of max-segment seconds
  double total_work_seconds = 0.0;
  /// Worst per-segment time skew: max seg seconds / mean seg seconds.
  double max_skew = 0.0;
};

/// \brief One pool worker's lifetime counters (see ThreadPool::WorkerStats).
struct WorkerTotals {
  int worker = 0;
  int64_t tasks_run = 0;
  int64_t steals = 0;
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
};

/// \brief One Gibbs chain's sampling throughput.
struct GibbsChainStats {
  int chain = 0;
  int64_t sweeps = 0;
  double seconds = 0.0;
  double samples_per_sec = 0.0;  // variable updates per wall-clock second
};

/// \brief Per-run execution-statistics sink: the EXPLAIN ANALYZE substrate.
///
/// One registry is attached to a grounder / MPP context / CLI run and
/// collects operator records (via ExecContext stats sinks), fixpoint
/// partition cells, motion volumes, pool-worker counters, and Gibbs chain
/// throughput. All Record* calls happen on the orchestrating thread —
/// operators close and motions account on the thread executing the plan —
/// so the registry itself needs no locks; the only concurrent counters
/// (pool workers) are per-worker atomics merged at snapshot time by the
/// caller. Recording never influences execution: it runs after every
/// budget/fault gate and only copies values out. The registry keeps
/// aggregates and histograms only; the timeline of a run lives in the
/// event journal (obs/trace.h).
class StatsRegistry {
 public:
  /// \brief Appends one operator record to `scope`'s statement (created on
  /// first use) and folds it into the per-label totals.
  void RecordOp(const std::string& scope, const OpRecord& op);

  /// \brief Accumulates one partition pass of one fixpoint iteration.
  void RecordPartitionIteration(int iteration, int partition,
                                int64_t delta_rows, double join_seconds);

  /// \brief Accumulates one motion. `per_segment_rows` carries the
  /// post-motion per-segment row counts when the motion knows them
  /// (Redistribute/Broadcast/Gather); empty otherwise.
  void RecordMotion(const std::string& label, const std::string& kind,
                    int64_t tuples_shipped, int64_t bytes_shipped,
                    double seconds,
                    const std::vector<int64_t>& per_segment_rows);

  /// \brief Accumulates one per-segment compute phase.
  void RecordCompute(const std::string& label, double max_seconds,
                     double total_work_seconds, int num_segments);

  /// \brief Overwrites the worker-counter snapshot (idempotent; the caller
  /// snapshots the pool at run end).
  void RecordWorkers(const std::vector<WorkerTotals>& workers);

  /// \brief Records one Gibbs chain's throughput; samples/sec counts
  /// variable updates (sweeps x num_variables) per wall-clock second.
  void RecordGibbsChain(int chain, int64_t sweeps, int64_t num_variables,
                        double seconds);

  /// \brief Folds one latency sample into the named HDR histogram
  /// (created on first use). Callers: grounding iterations, motion ship
  /// times, hash-join build/probe, Gibbs sweeps. Same single-threaded
  /// contract as every other Record* call. A non-zero `exemplar_trace`
  /// attaches the sample's distributed-trace id to the histogram's tail
  /// buckets (see LatencyHistogram::Exemplar).
  void RecordLatency(const std::string& name, double seconds,
                     uint64_t exemplar_trace = 0);

  /// \brief Named histograms in first-recorded order.
  const std::vector<std::pair<std::string, LatencyHistogram>>& latencies()
      const {
    return latencies_;
  }

  /// \brief Histogram by name, or nullptr if never recorded.
  const LatencyHistogram* FindLatency(const std::string& name) const;

  /// \brief Adds `delta` to the named monotonic counter (created at zero
  /// on first use). Volumes — queries answered, atoms grounded per query —
  /// land here; unlike latencies they have no duration to histogram.
  void IncrementCounter(const std::string& name, int64_t delta = 1);

  /// \brief Counters in first-recorded order.
  const std::vector<std::pair<std::string, int64_t>>& counters() const {
    return counters_;
  }

  /// \brief Counter value by name, or -1 if never recorded.
  int64_t FindCounter(const std::string& name) const;

  const std::vector<StatementTrace>& statements() const {
    return statements_;
  }
  const std::vector<OpTotals>& op_totals() const { return op_totals_; }
  const std::vector<PartitionIterStats>& partition_iterations() const {
    return partition_iterations_;
  }
  const std::vector<MotionTotals>& motion_totals() const {
    return motion_totals_;
  }
  const std::vector<ComputeTotals>& compute_totals() const {
    return compute_totals_;
  }
  const std::vector<WorkerTotals>& workers() const { return workers_; }
  const std::vector<GibbsChainStats>& gibbs_chains() const {
    return gibbs_chains_;
  }

  /// \brief EXPLAIN ANALYZE rendering: per-statement operator trees with
  /// row counts and timings, then the aggregate sections.
  std::string ToText() const;

  /// \brief The full registry as a JSON object (statements with per-op
  /// records incl. num_children, partition cells, motions, compute, workers,
  /// gibbs chains).
  std::string ToJson() const;

  Status WriteJsonFile(const std::string& path) const;

 private:
  std::vector<StatementTrace> statements_;
  std::unordered_map<std::string, size_t> statement_index_;
  std::vector<OpTotals> op_totals_;
  std::unordered_map<std::string, size_t> op_index_;
  std::vector<PartitionIterStats> partition_iterations_;
  std::unordered_map<int64_t, size_t> partition_index_;
  std::vector<MotionTotals> motion_totals_;
  std::unordered_map<std::string, size_t> motion_index_;
  std::vector<ComputeTotals> compute_totals_;
  std::unordered_map<std::string, size_t> compute_index_;
  std::vector<WorkerTotals> workers_;
  std::vector<GibbsChainStats> gibbs_chains_;
  std::vector<std::pair<std::string, LatencyHistogram>> latencies_;
  std::unordered_map<std::string, size_t> latency_index_;
  std::vector<std::pair<std::string, int64_t>> counters_;
  std::unordered_map<std::string, size_t> counter_index_;
};

}  // namespace probkb

#endif  // PROBKB_OBS_STATS_REGISTRY_H_
