#ifndef PROBKB_GROUNDING_TPI_INDEXES_H_
#define PROBKB_GROUNDING_TPI_INDEXES_H_

#include <span>
#include <vector>

#include "engine/flat_hash.h"
#include "engine/plan.h"
#include "kb/relational_model.h"
#include "relational/table.h"
#include "util/result.h"

namespace probkb {

/// \brief Persistent hash indexes over TPi, one per view key shape of
/// Section 4.4: T0 = (R, C1, C2), Tx = (R, C1, x, C2), Ty = (R, C1, C2, y)
/// and Txy = (R, C1, x, C2, y).
///
/// The single-node Grounder keeps one instance for its whole run instead of
/// building a hash table over TPi for every join and every merge. TPi only
/// grows during the fixpoint and FlatRowIndex chains are in row order, so
/// an index extended with the rows appended since its last use holds the
/// same chains as a fresh build over the whole table. A join that probes
/// it, bounded to the rows TPi had at the last Sync(), therefore outputs
/// exactly what a freshly built index over those rows would.
///
/// The indexes belong to one table: handing Sync() or MergeAtoms() a
/// different table, or one with fewer rows than indexed, rebuilds them.
/// Callers that delete or rewrite TPi rows in place call Clear().
///
/// The MPP grounder keeps one instance per segment of each TPi instance it
/// probes, each holding only the key shapes probed on that instance.
class TPiIndexes {
 public:
  /// All four view key shapes.
  TPiIndexes();
  /// Only the given key shapes (each one of the four view key shapes).
  explicit TPiIndexes(const std::vector<std::vector<int>>& key_shapes);

  /// \brief Extends every index over all of `t_pi`'s rows and pins the
  /// join bound at its current row count: every Find() until the next
  /// Sync() serves TPi as of this call, however many rows MergeAtoms()
  /// appends meanwhile.
  Status Sync(const Table& t_pi);

  /// \brief The index on `keys` for joins against `t`, bounded to the rows
  /// pinned by the last Sync(); an empty PrebuiltIndex when `t` is not the
  /// synced TPi or `keys` is not a view key shape.
  PrebuiltIndex Find(const Table* t, std::span<const int> keys) const;

  /// \brief The TPi merge (Algorithm 1 line 5, TPi <- TPi U T): appends
  /// the rows of `atoms` (schema AtomSchema()) whose (R, x, C1, y, C2) key
  /// is in neither `t_pi` nor an earlier row of `atoms`, with consecutive
  /// ids from `*next_id` and NULL weight, in row order. Rows for which
  /// `drop` (may be null) holds are skipped. Dedup probes the Txy index,
  /// extended over `t_pi` first, and each new atom enters it at once.
  /// Returns the rows appended.
  Result<int64_t> MergeAtoms(Table* t_pi, const Table& atoms,
                             FactId* next_id, const RowPredicate& drop);

  /// \brief The rows of `atoms` (AtomSchema() columns first) whose
  /// (R, x, C1, y, C2) key `t_pi` does not hold, in row order. Probes the
  /// Txy index, extended over `t_pi` first. MergeAtoms() and AbsentAtoms()
  /// need the Txy key shape.
  Result<std::vector<int64_t>> AbsentAtoms(const Table& t_pi,
                                           const Table& atoms);

  /// \brief True when the fact ids of the rows pinned by the last Sync()
  /// rise with row order, which makes fact ids order derivations the way
  /// row positions do.
  bool ids_ascending() const { return unordered_row_ < 0; }

  /// \brief Forgets every indexed row at or past `rows`, after the caller
  /// cut TPi back to its first `rows` rows (a failed iteration's rollback).
  void Truncate(int64_t rows);

  /// \brief Drops every index; the next Sync() or MergeAtoms() rebuilds
  /// them.
  void Clear();

 private:
  struct View {
    std::vector<int> keys;
    FlatRowIndex index;
    int64_t rows = 0;  // TPi rows indexed so far
  };

  /// Clears the indexes unless they were built over `t_pi` and it has not
  /// shrunk since.
  void Adopt(const Table& t_pi);
  /// Indexes `t_pi`'s rows past view->rows.
  static Status Extend(const Table& t_pi, View* view);
  /// The view on the Txy key shape.
  View& TxyView();

  std::vector<View> views_;
  const Table* table_ = nullptr;
  int64_t synced_rows_ = -1;  // join bound; -1 until Sync()
  int64_t id_checked_rows_ = 0;  // rows whose id order Sync() checked
  int64_t unordered_row_ = -1;   // first row whose id is not above its
                                 // predecessor's; -1 if none
};

}  // namespace probkb

#endif  // PROBKB_GROUNDING_TPI_INDEXES_H_
