#ifndef PROBKB_GROUNDING_LOCAL_GROUNDER_H_
#define PROBKB_GROUNDING_LOCAL_GROUNDER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "engine/flat_hash.h"
#include "grounding/partition_queries.h"
#include "kb/relational_model.h"
#include "relational/table.h"
#include "util/result.h"

namespace probkb {

/// \brief Bounds of the backward-chained proof neighborhood.
struct LocalGroundingOptions {
  /// BFS depth: how many rule applications to follow backward from the
  /// query atoms. Depth 0 grounds only the seed atoms' priors.
  int max_depth = 3;
  /// Stop expanding (but still close over already-collected factor bodies)
  /// once the visited-atom count exceeds this. 0 means unbounded.
  int64_t max_atoms = 65536;
};

/// \brief The query's local ground subgraph: a sub-TPi plus the factors
/// among its atoms, suitable for FactorGraph::FromTables.
struct LocalGrounding {
  /// Visited facts (ascending fact id — deterministic regardless of
  /// expansion order), TPi schema.
  TablePtr sub_t_pi;
  /// Rule factors with heads in the neighborhood plus singleton priors,
  /// TPhi schema.
  TablePtr t_phi;
  /// == sub_t_pi->NumRows(); reported against `total_atoms` for the
  /// locality ("order of magnitude below full grounding") check.
  int64_t grounded_atoms = 0;
  int64_t total_atoms = 0;
  int depth_reached = 0;
  /// True when max_depth/max_atoms cut expansion before closure: boundary
  /// atoms keep their priors but lose their own derivations, so marginals
  /// are an approximation whose error decays with depth.
  bool truncated = false;
  /// Hash-index chain entries the grounding walked: what it read of the
  /// epoch, which grows with the ball, not with TPi.
  int64_t index_probes = 0;
};

/// \brief What local grounding probes, built once over one epoch's TPi and
/// rule tables and then shared read-only by every query at that epoch:
/// - TPi indexed on the Tx, Ty and Txy view keys, each built in one pass
///   sized up front (an epoch's TPi never grows);
/// - each rule table M_p indexed on its body atoms' keys (RuleIndexes) and
///   on its head key (R1, C1, C2);
/// - a fact id -> TPi row lookup: binary search over TPi's id column when
///   ids rise with row order, else over a row permutation sorted by id.
///
/// Every key column must be int64 without NULLs; keys compare as raw
/// words. The tables must not be mutated while the index lives (a pinned
/// snapshot guarantees it).
class LocalGroundingIndex {
 public:
  static Result<std::unique_ptr<const LocalGroundingIndex>> Build(
      TablePtr t_pi, const std::array<TablePtr, kNumRuleStructures>& m);

  const TablePtr& t_pi() const { return t_pi_; }
  /// TPi row of fact `id` (its first row), or -1.
  int64_t RowOf(FactId id) const;

 private:
  friend class LocalGroundingRound;

  /// A hash index and the int64 key columns of the table it indexes, in
  /// key order.
  template <size_t N>
  struct Keyed {
    const FlatRowIndex* index = nullptr;
    std::array<const int64_t*, N> cols{};
  };
  struct RuleKeys {
    Keyed<3> head;   // (R1, C1, C2)
    Keyed<3> body1;  // PartitionSpec::m_keys1
    Keyed<3> body2;  // PartitionSpec::m_keys2, length-3 partitions only
  };

  LocalGroundingIndex() = default;

  TablePtr t_pi_;
  std::array<FlatRowIndex, 3> views_;  // Tx, Ty, Txy
  RuleIndexes rules_;
  std::array<FlatRowIndex, kNumRuleStructures> heads_;
  Keyed<4> tx_;
  Keyed<4> ty_;
  Keyed<5> txy_;
  std::array<RuleKeys, kNumRuleStructures> rule_keys_;
  /// TPi rows sorted by fact id; empty when ids rise with row order.
  std::vector<int64_t> rows_by_id_;
};

/// \brief Maps fact id -> TPi row index, for callers of the five-argument
/// GroundLocalSubgraph; the grounder itself looks ids up in its index.
std::unordered_map<FactId, int64_t> BuildFactRowIndex(const Table& t_pi);

/// \brief Grounds the bounded factor-graph neighborhood of `seed_rows`
/// (TPi row indices) by BFS from the seeds. Each round takes the frontier
/// in each rule slot in turn: as the head (factors *deriving* frontier
/// atoms — backward chaining) and as each body atom (factors *using*
/// frontier atoms — forward incidence). Both directions matter for
/// marginals: an atom's probability is shaped by its derivations and by
/// the rules it feeds, so expanding only the ancestor cone would
/// misestimate even at full depth. Every atom a collected factor
/// references joins the subgraph (the factor set stays closed over
/// sub_t_pi); unvisited ones become the next frontier. A factor can be
/// rediscovered from different endpoints, so factors are deduplicated on
/// (partition, I1, I2, I3, w).
///
/// Each round probes `index` from the frontier and builds no hash table,
/// so a query costs in proportion to its ball, not to TPi. TPhi comes out
/// row for row as the M-driven Query 2-p over the whole TPi would order
/// it (see DESIGN.md §13).
Result<LocalGrounding> GroundLocalSubgraph(
    const LocalGroundingIndex& index, const std::vector<int64_t>& seed_rows,
    const LocalGroundingOptions& opts);

/// \brief The same over `t_pi` and `m` directly: builds a transient
/// LocalGroundingIndex (so each call pays one index build) and grounds on
/// it. `row_of` is not read; the index carries its own id lookup. `t_pi`
/// and `m` must not be mutated during the call.
Result<LocalGrounding> GroundLocalSubgraph(
    TablePtr t_pi, const std::array<TablePtr, kNumRuleStructures>& m,
    const std::unordered_map<FactId, int64_t>& row_of,
    const std::vector<int64_t>& seed_rows, const LocalGroundingOptions& opts);

}  // namespace probkb

#endif  // PROBKB_GROUNDING_LOCAL_GROUNDER_H_
