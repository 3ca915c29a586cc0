#ifndef PROBKB_ENGINE_OPS_H_
#define PROBKB_ENGINE_OPS_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "engine/flat_hash.h"
#include "engine/plan.h"
#include "relational/spill.h"
#include "relational/table.h"

namespace probkb {

/// \brief Hash index over the key columns of a table.
///
/// Supports membership probes and incremental inserts; Tuffy-T uses it to
/// merge newly inferred atoms into a predicate table with set semantics,
/// and constraint application uses it to delete facts keyed by violating
/// entities. Backed by FlatRowIndex (one flat probe array) rather than a
/// node-based map.
class KeyIndex {
 public:
  /// Indexes `table` on `key_cols`. The table must outlive the index; rows
  /// appended to the table after construction are not indexed unless added
  /// via AddRow().
  KeyIndex(const Table* table, std::vector<int> key_cols);

  /// \brief True if some indexed row matches `row` (compared on
  /// `probe_cols`, which must parallel this index's key columns).
  bool Contains(const RowView& row, std::span<const int> probe_cols) const;

  /// \brief Contains() with the probe hash already computed (batched
  /// callers hash whole row ranges with Table::HashRows and reuse them).
  /// `hash` must equal HashRowKey(row, probe_cols).
  bool ContainsHashed(size_t hash, const RowView& row,
                      std::span<const int> probe_cols) const;

  /// \brief Indexes row `i` of the underlying table.
  void AddRow(int64_t i);

  /// \brief Prefetches the slot a later ContainsHashed(hash, ...) will
  /// touch (see FlatRowIndex::PrefetchHash).
  void PrefetchHash(size_t hash) const { index_.PrefetchHash(hash); }

 private:
  const Table* table_;
  std::vector<int> key_cols_;
  FlatRowIndex index_;
};

/// \brief Deletes rows matching `pred`; returns the number deleted.
int64_t DeleteWhere(Table* table, const std::function<bool(const RowView&)>& pred);

/// \brief Deletes rows of `table` whose `table_cols` key appears among
/// `keys`' `key_cols` values (SQL `DELETE ... WHERE (..) IN (SELECT ..)`).
/// Returns the number deleted. `table` is not rewritten when no row
/// matches, nor even hashed when `keys` is empty.
int64_t DeleteMatching(Table* table, const std::vector<int>& table_cols,
                       const Table& keys, const std::vector<int>& key_cols);

/// \brief True if the two tables contain the same bag of rows (order
/// insensitive). Used heavily by equivalence tests (ProbKB vs Tuffy-T,
/// single-node vs MPP).
bool TablesEqualAsBags(const Table& a, const Table& b);

/// \brief True if the two tables contain the same rows in the same order.
/// The parallel-vs-serial equivalence tests use this: the threaded engine
/// must reproduce the serial engine's output bit-identically, not just as
/// a bag.
bool TablesEqualExact(const Table& a, const Table& b);

/// \brief The probe kernel of every hash join: HashJoinNode's in-memory
/// path and the grace-hash leaf join.
///
/// Probe() walks the left rows in order with the batched prefetch pipeline
/// (hash a batch of probe keys, prefetch each one's slot, resolve the batch
/// in row order) and emits match pairs instead of rows: kInner emits one
/// (left row, right row) pair per match in chain order; kLeftSemi /
/// kLeftAnti emit the left row when it has / has no match. The pairs land
/// in two int64 buffers that flush every kJoinFlushPairs pairs, and
/// AppendOutput() turns a flush into output rows one column at a time
/// (Table::AppendColumns). The pairs, and so the rows, come in the order
/// the row-at-a-time loop produced them.
///
/// When every key column on both sides is int64 without NULLs, keys are
/// compared on the raw column words; otherwise with RowKeyEquals, so NULL
/// keys join each other and float keys keep Value semantics (-0.0 == 0.0,
/// NaN matches nothing). A residual predicate sees the concatenated row
/// (the first `left_width` left columns, then the right row) as Values.
class JoinProbe {
 public:
  /// Receives one flush: `right_rows` parallels `left_rows` for kInner
  /// and is empty for kLeftSemi/kLeftAnti.
  using PairSink = std::function<void(std::span<const int64_t> left_rows,
                                      std::span<const int64_t> right_rows)>;

  /// The build side is `index` when set, else the part of `parts` a hash
  /// routes to; either holds the right keys of the right table's first
  /// `build_rows` rows, chains in row order. `left_width` is the number of
  /// logical left columns (the grace leaf's probe side carries a hidden
  /// trailing column): the residual and semi/anti output see only those.
  /// Every argument must outlive the probe.
  JoinProbe(const Table& left, std::span<const int> left_keys,
            const Table& right, std::span<const int> right_keys,
            const FlatRowIndex* index, const PartitionedRowIndex* parts,
            int64_t build_rows, JoinType type,
            std::span<const JoinOutputCol> output_cols,
            const RowPredicate& residual, int left_width);

  /// \brief Probes left rows [begin, end), calling `sink` each time the
  /// pair buffers fill and once at the end. Reads only shared immutable
  /// state, so morsels may probe concurrently.
  void Probe(int64_t begin, int64_t end, const PairSink& sink) const;

  /// \brief Appends the output rows of one flush to `dst`: the output
  /// columns gathered from their sides (kInner), or the first
  /// `left_width` left columns (kLeftSemi/kLeftAnti).
  void AppendOutput(std::span<const int64_t> left_rows,
                    std::span<const int64_t> right_rows, Table* dst) const;

 private:
  template <bool kRawKeys>
  void ProbeImpl(int64_t begin, int64_t end, const PairSink& sink) const;

  const Table& left_;
  const Table& right_;
  std::span<const int> left_keys_;
  std::span<const int> right_keys_;
  const FlatRowIndex* index_;
  const PartitionedRowIndex* parts_;
  int64_t build_rows_;
  JoinType type_;
  std::span<const JoinOutputCol> output_cols_;
  const RowPredicate& residual_;
  int left_width_;
  // Key column words, one pointer per key, when the raw-key path applies.
  std::vector<const int64_t*> left_words_;
  std::vector<const int64_t*> right_words_;
};

/// \brief Inputs of one grace-hash join (the out-of-core rewrite of
/// HashJoinNode::Execute). Field meanings mirror HashJoinNode exactly;
/// `out_schema` is the final join output schema (no row-id column).
struct GraceJoinSpec {
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  JoinType type = JoinType::kInner;
  std::vector<JoinOutputCol> output_cols;  // kInner only
  RowPredicate residual;                   // may be null
  Schema out_schema;
  int num_parts = 8;      // level-0 partition fan-out (power of two)
  std::string label;      // spill-file name stem
};

/// \brief Per-join spill activity, surfaced into NodeStats.
struct GraceJoinStats {
  int partitions = 0;          // level-0 fan-out actually used
  int spill_partitions = 0;    // partitions that hit disk (all levels)
  int64_t spill_bytes_written = 0;
  int64_t spill_bytes_read = 0;
  int64_t page_faults_served = 0;
};

/// \brief Grace-hash equi-join under a memory budget: partitions both
/// sides by the top bits of the row-key hash (the PartitionedRowIndex
/// routing), spills over-budget partitions to `spill`'s directory, then
/// joins partition pairs one at a time with the batched probe pipeline,
/// recursing on the next bit group when a pair still exceeds the budget.
/// Probe-side partitions carry the original row index in a hidden
/// trailing column, and the output is reordered back on it —
/// so the result is bit-identical to HashJoinNode's in-memory path at
/// every thread and partition count (see DESIGN.md "Out-of-core").
/// The join releases `left` and `right` once both are partitioned, so an
/// input no one else holds is freed while the pairs join.
Result<TablePtr> GraceHashJoin(SpillContext* spill, TablePtr left,
                               TablePtr right, const GraceJoinSpec& spec,
                               GraceJoinStats* stats);

}  // namespace probkb

#endif  // PROBKB_ENGINE_OPS_H_
