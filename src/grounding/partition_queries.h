#ifndef PROBKB_GROUNDING_PARTITION_QUERIES_H_
#define PROBKB_GROUNDING_PARTITION_QUERIES_H_

#include <array>
#include <span>
#include <vector>

#include "engine/exec_context.h"
#include "engine/flat_hash.h"
#include "engine/plan.h"
#include "kb/relational_model.h"
#include "relational/table.h"
#include "util/result.h"

namespace probkb {

class TPiIndexes;

/// Inferred-atom schema produced by the groundAtoms queries:
/// (R, x, C1, y, C2).
namespace atom {
inline constexpr int kR = 0;
inline constexpr int kX = 1;
inline constexpr int kC1 = 2;
inline constexpr int kY = 3;
inline constexpr int kC2 = 4;
}  // namespace atom

Schema AtomSchema();

/// Derivation schema of the Δ-driven Query 1: an inferred atom followed by
/// its order key (R, x, C1, y, C2, rule, I2, I3). `rule` is the rule's row
/// in its M table and I2/I3 are the body atoms' fact ids (I3 repeats I2
/// for length-2 rules). Naive evaluation emits derivations in this key's
/// order; see BuildDeltaAtomsPlan.
namespace derivation {
inline constexpr int kRule = 5;
inline constexpr int kI2 = 6;
inline constexpr int kI3 = 7;
}  // namespace derivation

/// \brief Join-key pairings of the batch queries for one MLN partition.
///
/// Each partition's groundAtoms query is one or two hash joins between the
/// partition table M_i and the facts table TPi (the paper's Queries 1-1 ..
/// 1-6); groundFactors adds a third join against TPi to resolve the head
/// atom's id (Queries 2-1 .. 2-6). The right-side key orders are chosen to
/// match the distribution keys of the four redistributed materialized views
/// (Section 4.4), so the MPP path gets collocation for free.
struct PartitionSpec {
  int partition = 1;  // 1..6
  int body_length = 1;
  bool q_swapped = false;  // body1 is q(x,z) rather than q(z,x) (M4, M6)
  bool r_swapped = false;  // body2 is r(y,z) rather than r(z,y) (M5, M6)
  std::vector<int> m_keys1;  // M-side keys of the first join
  std::vector<int> t_keys1;  // TPi-side keys of the first join (view T0)
  std::vector<int> j1_keys2;  // J1-side keys of the second join (len 3)
  std::vector<int> t_keys2;   // TPi-side keys of the second join (Tx or Ty)
  // Δ-driven (old, Δ) pass of a length-3 query: Δ meets body 2 first, so
  // M pairs with T0 on body 2's keys, and the result J2 then probes for
  // body 1 by its shared variable z.
  std::vector<int> m_keys2;   // M-side keys of body 2 (view T0)
  std::vector<int> j2_keys1;  // J2-side keys of the body-1 join
  std::vector<int> t2_keys1;  // TPi-side keys of that join (Tx or Ty)
};

/// \brief Returns the spec for partition `p` in 1..6.
const PartitionSpec& GetPartitionSpec(int p);

/// TPi-side key orders of the four materialized views (Section 4.4):
/// T0 = (R, C1, C2); Tx = (R, C1, x, C2); Ty = (R, C1, C2, y);
/// Txy = (R, C1, x, C2, y).
const std::vector<int>& ViewKeysT0();
const std::vector<int>& ViewKeysTx();
const std::vector<int>& ViewKeysTy();
const std::vector<int>& ViewKeysTxy();

/// Head-join key pairing used by the groundFactors queries: the factor
/// candidate's (R1, C1, xv, C2, yv) against TPi's (R, C1, x, C2, y).
const std::vector<int>& HeadJoinLeftKeys();

/// Output-column builders shared by the single-node and MPP executions of
/// Queries 1-p / 2-p. "J1" is the intermediate of the length-3 queries,
/// schema (R1, R3, C1, C2, C3, w, xv, z, I2); factor candidates have schema
/// (R1, C1, C2, w, xv, yv, I2[, I3]).
std::vector<JoinOutputCol> J1OutputCols(const PartitionSpec& spec);
std::vector<JoinOutputCol> Len2AtomOutputCols(const PartitionSpec& spec);
std::vector<JoinOutputCol> Len3AtomOutputCols(const PartitionSpec& spec);
std::vector<JoinOutputCol> Len2FactorCandidateCols(const PartitionSpec& spec);
std::vector<JoinOutputCol> Len3FactorCandidateCols(const PartitionSpec& spec);
/// TPhi's (I1, I2, I3, w) from the head join; I3 is NULL unless `has_i3`.
std::vector<JoinOutputCol> FactorHeadOutputCols(bool has_i3);

/// Output columns of the Δ-driven joins of Query 1-p, shared by the
/// single-node and MPP executions. Each has the Δ atoms (TPi rows) on its
/// left and the rule table M_p on its right, the sides of the M-driven
/// join exchanged. DeltaJ1Cols is the intermediate of the (Δ, full) pass
/// (a Δ atom matched as body 1) and DeltaLen3Cols its final join against
/// body 2; DeltaJ2Cols and DeltaLen3Body1Cols are the same for the
/// (old, Δ) pass (a Δ atom matched as body 2, then body 1). With
/// `order_key` the atoms carry the derivation order key (namespace
/// derivation) and M_p needs RuleIndexes' trailing "rule" column; without
/// it they are the bare atom schema, all the MPP merge needs, since it
/// orders new atoms by content.
std::vector<JoinOutputCol> DeltaLen2Cols(const PartitionSpec& spec,
                                         bool order_key);
std::vector<JoinOutputCol> DeltaJ1Cols(const PartitionSpec& spec,
                                       bool order_key);
std::vector<JoinOutputCol> DeltaLen3Cols(const PartitionSpec& spec,
                                         bool order_key);
std::vector<JoinOutputCol> DeltaJ2Cols(const PartitionSpec& spec,
                                       bool order_key);
std::vector<JoinOutputCol> DeltaLen3Body1Cols(const PartitionSpec& spec,
                                              bool order_key);

/// \brief Builds (without executing) the Query 1-p plan tree: the one- or
/// two-join pipeline that applies every rule of partition `p` and emits
/// inferred atoms (R, x, C1, y, C2), not yet deduplicated. Exposed
/// separately from GroundAtomsForPartition so the adaptive planner can
/// annotate the tree with cardinality estimates and --explain can render
/// it before/after execution.
///
/// A join whose TPi side has an index in `indexes` (may be null) probes it
/// and sees only the rows pinned by the indexes' last Sync(); every other
/// join builds its own index over the whole table.
PlanNodePtr BuildAtomsPlan(int p, TablePtr m, TablePtr t_probe,
                           TablePtr t_probe2,
                           const TPiIndexes* indexes = nullptr);

/// \brief Indexes every row of `t` on `keys`, in row order, in one pass
/// sized for all of them (chains in row order, as every engine build).
FlatRowIndex IndexRows(const Table& t, std::span<const int> keys);

/// \brief The rule tables M1..M6 prepared for the Δ-driven Query 1: each
/// copied with its row number as a trailing "rule" column and indexed on
/// each body atom's key, the M-side columns a TPi row's view-T0 key
/// (R, C1, C2) meets. Rule tables do not change during a fixpoint, so a
/// grounder builds these once and reuses them every iteration.
class RuleIndexes {
 public:
  struct Partition {
    TablePtr rules;  // M_p plus the "rule" column
    FlatRowIndex body1;
    FlatRowIndex body2;  // length-3 partitions only
  };
  /// Per partition and body atom, the delta rows that atom's index can
  /// match (see Route).
  using DeltaSlices = std::array<std::array<TablePtr, 2>, kNumRuleStructures>;

  /// \brief Indexes `m`, unless these tables (same objects, same row
  /// counts) are already indexed.
  Status Build(const std::array<TablePtr, kNumRuleStructures>& m);

  const Partition& partition(int p) const {
    return parts_[static_cast<size_t>(p - 1)];
  }

  /// \brief Splits the delta, `t_pi`'s rows from `delta_start` on, by body
  /// atom: slice [p-1][b] holds, in row order, the rows whose relation is
  /// body atom b+1 of some rule of M_p. Every other row would probe that
  /// index in vain; a lookup in a per-relation bit mask keeps them out.
  DeltaSlices Route(const Table& t_pi, int64_t delta_start) const;

 private:
  std::array<Partition, kNumRuleStructures> parts_;
  std::array<TablePtr, kNumRuleStructures> sources_;
  std::array<int64_t, kNumRuleStructures> source_rows_{};
  /// Relation id -> bit 2(p-1)+b for every body atom b of a rule of M_p
  /// that has that relation.
  std::vector<uint16_t> relation_slots_;
};

/// \brief Builds (without executing) the Δ-driven Query 1-p plan: every
/// derivation of partition `p` that uses at least one delta atom, the
/// delta being TPi's rows from `delta_start` up to the join bound pinned
/// by `indexes`' last Sync(), split by `rules.Route()`. Output schema: see
/// namespace derivation.
///
/// Delta rows probe the rule index of body 1; the rules they meet probe
/// TPi's persistent index for body 2 (the (Δ, full) pass). A length-3
/// partition adds the (old, Δ) pass: delta rows probe the rule index of
/// body 2, and the rules they meet probe the index for body 1 bounded at
/// `delta_start`. The passes are disjoint, no pass builds a hash table,
/// and both return their derivations in no particular order; the caller
/// sorts them by the order key. `indexes` must hold T0/Tx/Ty for `t_pi`.
PlanNodePtr BuildDeltaAtomsPlan(int p, const RuleIndexes& rules,
                                const RuleIndexes::DeltaSlices& delta,
                                TablePtr t_pi, const TPiIndexes& indexes,
                                int64_t delta_start);

/// \brief Query 1-p: applies every rule of partition `p` in one batch and
/// returns the inferred atoms (R, x, C1, y, C2), not yet deduplicated.
/// Equivalent to executing BuildAtomsPlan(p, ...).
///
/// `t_probe` and `t_probe2` are the TPi instances to probe for the first
/// and second body atoms (identical for single-node execution; different
/// materialized views under MPP). For length-2 partitions `t_probe2` is
/// unused.
Result<TablePtr> GroundAtomsForPartition(int p, TablePtr m, TablePtr t_probe,
                                         TablePtr t_probe2, ExecContext* ctx);

/// \brief Query 2-p: applies every rule of partition `p` and returns the
/// ground factors (I1, I2, I3, w). `t_head` resolves head atom ids.
/// `indexes` (may be null) serves joins as in BuildAtomsPlan.
Result<TablePtr> GroundFactorsForPartition(int p, TablePtr m,
                                           TablePtr t_probe,
                                           TablePtr t_probe2, TablePtr t_head,
                                           ExecContext* ctx,
                                           const TPiIndexes* indexes = nullptr);

/// \brief Singleton factors (I, NULL, NULL, w) for every fact of TPi with a
/// non-NULL weight (Algorithm 1 line 10).
Result<TablePtr> SingletonFactors(TablePtr t_pi, ExecContext* ctx);

/// \brief Id-assignment phase of a TPi merge: appends the selected
/// `atoms` rows to `t_pi` with consecutive ids from `*next_id` and NULL
/// weight. Returns the number of rows appended.
int64_t AppendAtomRows(Table* t_pi, const Table& atoms,
                       const std::vector<int64_t>& rows, FactId* next_id);

/// \brief Query 3 without its deletes: returns the violating entity keys
/// as a table (entity, class, arg) where arg is 1 for Type I (x side) and
/// 2 for Type II (y side). Both grounders delete the facts these keys name
/// (the MPP grounder runs it on each T0 segment), and quality control uses
/// it for ambiguity analysis.
Result<TablePtr> FindConstraintViolators(TablePtr t_pi, TablePtr t_omega,
                                         ExecContext* ctx);

}  // namespace probkb

#endif  // PROBKB_GROUNDING_PARTITION_QUERIES_H_
