#ifndef PROBKB_MPP_MPP_OPS_H_
#define PROBKB_MPP_MPP_OPS_H_

#include <functional>
#include <string>
#include <vector>

#include "engine/plan.h"
#include "mpp/mpp_context.h"

namespace probkb {

/// \brief How a non-collocated join acquires collocation.
///
/// kAuto consults the context's AdaptivePlanner when one is attached
/// (costing redistribute vs. broadcast from the actual input sizes and
/// placements); without a planner it falls back to kRedistribute — the
/// static rule of the optimized plans of Figure 4: redistribute whichever
/// side is not already hashed on its join keys. kRedistribute /
/// kBroadcastRight / kBroadcastLeft force that motion (broadcast-right is
/// the unoptimized plan Greenplum picks in Figure 4 right, used by the
/// ProbKB-pn configuration); forced policies exist for the paper's static
/// configurations and for plan-equivalence tests.
enum class MotionPolicy { kAuto, kRedistribute, kBroadcastRight, kBroadcastLeft };

/// \brief Full specification of a distributed hash join.
struct MppJoinSpec {
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  JoinType type = JoinType::kInner;
  std::vector<JoinOutputCol> output_cols;  // required for kInner
  RowPredicate residual;                   // optional
  /// Declared distribution of the result (the "planner's" knowledge); must
  /// be consistent with actual row placement — ValidatePlacement() checks.
  Distribution output_dist = Distribution::Random();
  MotionPolicy policy = MotionPolicy::kAuto;
  std::string label = "join";
  /// Optional, one entry per segment of the right input: the join sees
  /// right segment s cut to its first `right_index[s].rows` rows. While the
  /// right input stays in place (a replicated one always does), segment s
  /// probes `right_index[s].index` (on `right_keys`, chains in row order,
  /// covering at least those rows) instead of building one. A right input
  /// that moves, or lacks an index on some segment, is cut by copying first
  /// and then joined exactly as without `right_index`.
  std::vector<PrebuiltIndex> right_index;
};

/// \brief The pool-gated fan-out shared by the per-segment operators and
/// the MPP grounder: FanOut over the context's segments on its pool, gated
/// by `total_rows` summed over every input.
void ForEachSegment(MppContext* ctx, int64_t total_rows,
                    const std::function<void(int)>& body);

/// \brief One segment's plan: runs over segment `segment`'s rows of its
/// inputs under `ec` and returns that segment's output rows.
using SegmentStatement =
    std::function<Result<TablePtr>(int segment, ExecContext* ec)>;

/// \brief The one per-segment statement runner of the MPP layer: runs
/// `statement` on every segment (through ForEachSegment; `input_rows`
/// gates the pool as there) and assembles the outputs into a table
/// distributed as `out_dist`. A replicated `out_dist` runs the statement
/// once, on segment 0, and every segment shares the result.
///
/// Each segment gets its own ExecContext armed from `ctx`: the spill
/// context and the per-statement row cap (`max_rows_per_statement`), so a
/// segment plan trips kResourceExhausted exactly as a single-node
/// statement does. Errors surface in segment order, so a threaded run
/// reports the same first failure as a serial one. The measured segment
/// times are charged as one compute phase under `label`, and with a stats
/// registry attached each segment's operators are recorded under `label`
/// after the fan-out, in segment order, so the record stream is the same
/// at any thread count.
///
/// A segment whose entry of `preset` (empty, or one entry per segment) is
/// set takes that table as its output and runs no plan: it gets no
/// ExecContext, records no operators and is charged no time.
Result<DistributedTablePtr> PerSegment(MppContext* ctx, int64_t input_rows,
                                       Distribution out_dist,
                                       const std::string& label,
                                       const SegmentStatement& statement,
                                       std::vector<TablePtr> preset = {});

/// \brief Distributed hash equi-join with motion planning. A segment whose
/// probe (left) side has no rows runs no plan (see PerSegment's `preset`):
/// its output is an empty table of the join's schema.
Result<DistributedTablePtr> MppHashJoin(MppContext* ctx,
                                        DistributedTablePtr left,
                                        DistributedTablePtr right,
                                        MppJoinSpec spec);

/// \brief Distributed DELETE ... WHERE (cols) IN (keys): broadcasts the
/// (small) key relation unless it is replicated already, and deletes per
/// segment. Returns rows deleted.
Result<int64_t> MppDeleteMatching(MppContext* ctx, DistributedTable* dst,
                                  const std::vector<int>& dst_cols,
                                  const DistributedTable& keys,
                                  const std::vector<int>& key_cols);

}  // namespace probkb

#endif  // PROBKB_MPP_MPP_OPS_H_
