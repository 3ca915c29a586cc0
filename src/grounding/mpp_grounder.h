#ifndef PROBKB_GROUNDING_MPP_GROUNDER_H_
#define PROBKB_GROUNDING_MPP_GROUNDER_H_

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "grounding/grounder.h"
#include "mpp/mpp_ops.h"

namespace probkb {

/// \brief MPP execution modes evaluated in the paper:
/// kViews is ProbKB-p (redistributed materialized views, Section 4.4);
/// kNoViews is ProbKB-pn (plain Greenplum plans that must broadcast
/// intermediate join results, Figure 4 right).
enum class MppMode { kNoViews, kViews };

/// \brief ProbKB grounder over the shared-nothing simulator.
///
/// TPi's canonical copy is hash-distributed on (R, C1, C2) — this doubles
/// as the paper's T0 view. Under kViews three more replicates are kept,
/// distributed by (R, C1, x, C2), (R, C1, C2, y) and (R, C1, x, C2, y), so
/// every grounding join finds a collocated TPi instance and only the small
/// M_i / intermediate side moves (Example 5).
///
/// Query 1 honours GroundingOptions::evaluation. Under kSemiNaive (the
/// default) an iteration after the first derives only what uses an atom
/// the previous iteration added (its Δ, each T0 segment's rows past a row
/// mark): Δ meets the rules and probes the full view for body 2, and for
/// length-3 rules the rules' body 2 meets Δ and probes the view for body 1
/// bounded to the rows from before Δ. The merge assigns ids in content
/// order per segment, so only the derived set decides TPi, and both modes
/// produce the same TPi, ids and row order included, and the same TPhi.
///
/// Unless a memory budget is armed, each segment keeps hash indexes for
/// the whole run, extended in row order as rows are appended: Tx's and
/// Ty's view keys (probed by the body joins of Queries 1 and 2) and T0's
/// merge key (the merge dedup). Query 3 deletes and ResumeFrom() drop
/// them. Under a budget every iteration runs the full pass on transient,
/// spillable builds, and the merge index lives for one iteration.
///
/// With a FaultInjector the simulator's motions detect and recover
/// injected segment failures (see MppContext); the grounder adds the
/// layer above: iteration-level checkpoints (options.checkpoint_dir) and
/// ResumeFrom(), so a run aborted by a deadline or an unrecoverable
/// motion restarts from the last completed iteration instead of scratch.
class MppGrounder : public FixpointGrounder {
 public:
  MppGrounder(const RelationalKB& rkb, int num_segments, MppMode mode,
              GroundingOptions options, CostParams cost_params = {},
              FaultInjector* injector = nullptr, RetryPolicy retry = {});

  /// \brief Query 3 on the simulator; keeps the views consistent.
  Result<int64_t> ApplyConstraints() override;

  /// \brief Gathered copy of the current TPi.
  TablePtr TPi() const override { return GatherTPi(); }
  TablePtr GatherTPi() const;

  const MppCost& cost() const { return ctx_.cost(); }
  MppMode mode() const { return mode_; }
  int num_segments() const { return ctx_.num_segments(); }

  /// \brief EXPLAIN text of the distributed statements since the last
  /// iteration boundary: one est/obs cardinality line per join (estimates
  /// are the previous iteration's observation for the same statement, or
  /// the input-size cold-start heuristic), followed by the planner's
  /// motion-decision log (chosen motion + the costed alternatives). Stable
  /// text — no timings — so goldens can pin it. GroundFactors() appends
  /// its joins' lines.
  std::string ExplainPlans() const override;

  /// \brief The grounder-owned adaptive planner (attached to the context;
  /// kAuto joins consult it). Exposed for tests.
  const AdaptivePlanner& planner() const { return planner_; }

  /// \brief Forces every grounding join's motion policy instead of the
  /// cost-based default — the paper's static configurations (e.g.
  /// ProbKB-pn's broadcast plans) and plan-equivalence tests. Whatever the
  /// policy, results are bit-identical: motions only change which route
  /// tuples take, and the TPi merge assigns fact ids in a
  /// route-independent canonical order.
  void set_motion_policy(MotionPolicy policy) { motion_policy_ = policy; }

  /// \brief Also reports the context's motions and compute phases.
  void set_stats_registry(StatsRegistry* registry) override {
    obs_ = registry;
    ctx_.set_stats_registry(registry);
  }

 protected:
  Result<int64_t> RunIteration() override;
  Result<TablePtr> RunFactorStatements() override;
  int64_t NumAtoms() const override { return t_pi_->NumRows(); }
  double ElapsedSeconds() const override {
    return ctx_.cost().simulated_seconds();
  }
  void SaveState(GroundingCheckpoint* cp) const override;
  Status RestoreState(GroundingCheckpoint* cp) override;
  const char* JournalSource() const override { return "mpp_grounder"; }

 private:
  /// Per-segment row counts of T0 and the views.
  struct RowMarks {
    std::vector<int64_t> t0, tx, ty;
  };

  /// Runs one grounding join under the grounder's motion policy, recording
  /// its estimate (the last observation of `spec.label`, else
  /// `cold_estimate`) and its observed rows.
  Result<DistributedTablePtr> Join(DistributedTablePtr left,
                                   DistributedTablePtr right,
                                   MppJoinSpec spec, int64_t cold_estimate);
  /// Runs Query 1-p distributed, the full pass; returns inferred atoms
  /// (distribution Random).
  Result<DistributedTablePtr> GroundAtomsPartition(int p);
  /// Runs Query 1-p Δ-driven: every derivation that uses an atom of
  /// `delta` (T0's rows past `marks`). Returns inferred atoms (distribution
  /// Random).
  Result<DistributedTablePtr> GroundDeltaAtomsPartition(
      int p, const DistributedTablePtr& delta, const RowMarks& marks);
  /// M_p spread round-robin over the segments.
  const DistributedTablePtr& Rules(int p) const {
    return rules_[static_cast<size_t>(p - 1)];
  }
  /// Indexes the rule tables for the Δ-driven statements and places each
  /// on every segment, once per grounder (a no-op after the first call).
  Status PlaceDeltaRules();
  /// The right_index of a Δ statement's join against the replicated M_p:
  /// `index` on every segment, over all of M_p's rows.
  std::vector<PrebuiltIndex> RuleProbe(int p, const FlatRowIndex& index) const;
  /// The per-segment right_index of a join against `t` on `keys`: `t`'s
  /// persistent indexes, if kept, bounded at the last sync, or at `rows`
  /// when given. Empty when there is neither an index nor a bound.
  std::vector<PrebuiltIndex> RightIndex(
      const DistributedTablePtr& t, const std::vector<int>& keys,
      const std::vector<int64_t>* rows = nullptr) const;
  /// Extends the view indexes over the views' rows and pins their bound
  /// (no-op while no indexes are kept).
  Status SyncViewIndexes();
  /// Drops every per-segment index and the Δ marks.
  void ClearIndexes();
  /// Runs Query 2-p distributed.
  Result<DistributedTablePtr> GroundFactorsPartition(int p);
  /// Merges an atom table into the distributed TPi; assigns ids; refreshes
  /// the views with the delta.
  Result<int64_t> MergeAtoms(const DistributedTable& atoms);
  /// Picks the TPi instance collocated with `t_keys` (a view under kViews;
  /// the canonical copy otherwise).
  DistributedTablePtr ProbeFor(const std::vector<int>& t_keys) const;
  RowMarks SegmentRows() const;
  /// Records a statement's estimated/observed cardinality into the planner
  /// history and the explain log.
  void ObserveStatement(const std::string& label, int64_t estimate,
                        int64_t observed);

  mutable MppContext ctx_;
  MppMode mode_;

  /// Cost-based motion planner fed by per-statement observations; attached
  /// to ctx_ so every MotionPolicy::kAuto join consults it. Decisions are
  /// pure functions of the actual input sizes and placements (logical row
  /// counts — identical across thread counts), so plan choice
  /// never breaks bit-identity.
  AdaptivePlanner planner_;
  /// Motion policy stamped on every grounding join spec (see
  /// set_motion_policy).
  MotionPolicy motion_policy_ = MotionPolicy::kAuto;

  std::array<TablePtr, kNumRuleStructures> m_;
  std::array<DistributedTablePtr, kNumRuleStructures> rules_;
  /// The Δ-driven statements' rule tables: the single-node RuleIndexes
  /// (M_p plus its "rule" column, indexed on each body atom's view-T0
  /// key), each table replicated by aliasing it on every segment, so Δ
  /// probes it in place and M never moves. Built by PlaceDeltaRules().
  RuleIndexes rule_indexes_;
  std::array<DistributedTablePtr, kNumRuleStructures> delta_rules_;
  TablePtr t_omega_;
  FactId next_fact_id_;

  DistributedTablePtr t_pi_;                 // hash (R, C1, C2) — the T0 view
  DistributedTablePtr view_tx_;              // hash (R, C1, x, C2)
  DistributedTablePtr view_ty_;              // hash (R, C1, C2, y)
  DistributedTablePtr view_txy_;             // hash (R, C1, x, C2, y)

  /// Per-segment indexes (see the class comment): the Tx and Ty view keys
  /// over the views' segments, and the merge key over T0's. Empty until
  /// first use and after ClearIndexes().
  std::vector<TPiIndexes> tx_indexes_;
  std::vector<TPiIndexes> ty_indexes_;
  std::vector<TPiIndexes> merge_indexes_;
  /// Semi-naive state: the segment row counts when the last iteration
  /// started; rows from there on are its Δ. Empty when the next iteration
  /// must run the full pass (iteration 1, after Query 3 deleted rows or a
  /// failed iteration, or resumed from a checkpoint without marks).
  /// Checkpoints carry them.
  RowMarks delta_marks_;
};

}  // namespace probkb

#endif  // PROBKB_GROUNDING_MPP_GROUNDER_H_
