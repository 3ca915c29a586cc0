#ifndef PROBKB_MPP_MPP_OPS_H_
#define PROBKB_MPP_MPP_OPS_H_

#include <functional>
#include <optional>
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
  /// Optional, one entry per segment of a partitioned right input: the
  /// join sees right segment s cut to its first `right_index[s].rows`
  /// rows. While the right input stays in place, segment s probes
  /// `right_index[s].index` (on `right_keys`, chains in row order, covering
  /// at least those rows) instead of building one. A right input that
  /// moves, or lacks an index on some segment, is cut by copying first and
  /// then joined exactly as without `right_index`.
  std::vector<PrebuiltIndex> right_index;
};

/// \brief The pool-gated fan-out shared by the per-segment operators and
/// the MPP grounder: calls `body(s)` for every segment, concurrently when
/// the context carries a pool of more than one thread AND the work touches
/// enough rows (`total_rows`, summed over every input) to amortize the
/// dispatch, serially (in segment order) otherwise. Segments are
/// independent units writing disjoint slots, so both paths produce
/// identical state.
void ForEachSegment(MppContext* ctx, int64_t total_rows,
                    const std::function<void(int)>& body);

/// \brief Distributed hash equi-join with motion planning.
Result<DistributedTablePtr> MppHashJoin(MppContext* ctx,
                                        DistributedTablePtr left,
                                        DistributedTablePtr right,
                                        MppJoinSpec spec);

/// \brief Per-segment filter and/or projection. Filtering preserves the
/// input distribution; when `exprs` is set the caller declares the output
/// distribution in terms of the new column positions.
Result<DistributedTablePtr> MppFilterProject(
    MppContext* ctx, DistributedTablePtr input, RowPredicate pred,
    std::optional<std::vector<ProjectExpr>> exprs, Distribution output_dist,
    const std::string& label);

/// \brief Distributed DISTINCT on `key_cols`; redistributes first unless
/// rows equal on the keys are already collocated.
Result<DistributedTablePtr> MppDistinct(MppContext* ctx,
                                        DistributedTablePtr input,
                                        std::vector<int> key_cols,
                                        const std::string& label);

/// \brief Distributed GROUP BY; redistributes on the group columns unless
/// already collocated. HAVING runs per segment (safe: groups never span
/// segments after collocation).
Result<DistributedTablePtr> MppAggregate(MppContext* ctx,
                                         DistributedTablePtr input,
                                         std::vector<int> group_cols,
                                         std::vector<AggSpec> aggs,
                                         RowPredicate having,
                                         const std::string& label);

/// \brief Distributed DELETE ... WHERE (cols) IN (keys): broadcasts the
/// (small) key relation and deletes per segment. Returns rows deleted.
Result<int64_t> MppDeleteMatching(MppContext* ctx, DistributedTable* dst,
                                  const std::vector<int>& dst_cols,
                                  const DistributedTable& keys,
                                  const std::vector<int>& key_cols);

}  // namespace probkb

#endif  // PROBKB_MPP_MPP_OPS_H_
