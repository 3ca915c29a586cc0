#include "grounding/tpi_indexes.h"

#include <algorithm>

#include "engine/tunables.h"
#include "grounding/partition_queries.h"

namespace probkb {

namespace {

/// The Txy key columns of an inferred atom, in TPi's (R, C1, x, C2, y)
/// order, so an atom hashes exactly like the TPi row it would become.
const std::vector<int>& AtomKeysTxy() {
  static const std::vector<int> keys = {atom::kR, atom::kC1, atom::kX,
                                        atom::kC2, atom::kY};
  return keys;
}

}  // namespace

TPiIndexes::TPiIndexes()
    : TPiIndexes({ViewKeysT0(), ViewKeysTx(), ViewKeysTy(), ViewKeysTxy()}) {}

TPiIndexes::TPiIndexes(const std::vector<std::vector<int>>& key_shapes) {
  for (const std::vector<int>& keys : key_shapes) {
    views_.push_back(View{keys, FlatRowIndex(), 0});
  }
}

TPiIndexes::View& TPiIndexes::TxyView() {
  auto it = std::ranges::find(views_, ViewKeysTxy(), &View::keys);
  PROBKB_CHECK(it != views_.end());
  return *it;
}

void TPiIndexes::Adopt(const Table& t_pi) {
  bool stale = &t_pi != table_;
  for (const View& view : views_) stale |= view.rows > t_pi.NumRows();
  if (!stale) return;
  Clear();
  table_ = &t_pi;
}

Status TPiIndexes::Extend(const Table& t_pi, View* view) {
  const int64_t n = t_pi.NumRows();
  if (view->rows >= n) return Status::OK();
  PROBKB_RETURN_NOT_OK(FlatRowIndex::CheckCapacity(n));
  size_t hashes[kIndexBuildChunkRows];
  for (int64_t base = view->rows; base < n; base += kIndexBuildChunkRows) {
    const int64_t end = std::min(base + kIndexBuildChunkRows, n);
    t_pi.HashRows(view->keys, base, end, hashes);
    for (int64_t i = base; i < end; ++i) {
      view->index.Insert(hashes[i - base], i);
    }
  }
  view->rows = n;
  return Status::OK();
}

Status TPiIndexes::Sync(const Table& t_pi) {
  Adopt(t_pi);
  for (View& view : views_) PROBKB_RETURN_NOT_OK(Extend(t_pi, &view));
  synced_rows_ = t_pi.NumRows();
  const int64_t* ids = t_pi.Int64Data(tpi::kI);
  for (int64_t r = std::max<int64_t>(id_checked_rows_, 1);
       r < synced_rows_ && unordered_row_ < 0; ++r) {
    if (ids[r] <= ids[r - 1]) unordered_row_ = r;
  }
  id_checked_rows_ = synced_rows_;
  return Status::OK();
}

PrebuiltIndex TPiIndexes::Find(const Table* t,
                               std::span<const int> keys) const {
  if (synced_rows_ < 0 || t != table_) return {};
  for (const View& view : views_) {
    if (view.rows >= synced_rows_ && std::ranges::equal(view.keys, keys)) {
      return {&view.index, synced_rows_};
    }
  }
  return {};
}

Result<int64_t> TPiIndexes::MergeAtoms(Table* t_pi, const Table& atoms,
                                       FactId* next_id,
                                       const RowPredicate& drop) {
  Adopt(*t_pi);
  View& txy = TxyView();
  PROBKB_RETURN_NOT_OK(Extend(*t_pi, &txy));
  const int64_t base = t_pi->NumRows();
  PROBKB_RETURN_NOT_OK(
      FlatRowIndex::CheckCapacity(base + atoms.NumRows()));
  // New atoms enter the index under the row ids they get on append, so
  // later rows of the batch dedup against them; a chain row past `base`
  // is still pending and its key is read from `atoms`.
  std::vector<int64_t> selected;
  const std::vector<int>& keys = AtomKeysTxy();
  size_t hashes[kHashBatchRows];
  for (int64_t begin = 0; begin < atoms.NumRows(); begin += kHashBatchRows) {
    const int64_t end = std::min(begin + kHashBatchRows, atoms.NumRows());
    atoms.HashRows(keys, begin, end, hashes);
    for (int64_t i = begin; i < end; ++i) {
      txy.index.PrefetchHash(hashes[i - begin]);
    }
    for (int64_t i = begin; i < end; ++i) {
      RowView row = atoms.row(i);
      if (drop != nullptr && drop(row)) continue;
      const size_t h = hashes[i - begin];
      bool present = false;
      for (int64_t e = txy.index.Head(h); e >= 0 && !present;
           e = txy.index.Next(e)) {
        const int64_t r = txy.index.Row(e);
        present = r < base
                      ? RowKeyEquals(row, t_pi->row(r), keys, txy.keys)
                      : RowKeyEquals(row,
                                     atoms.row(selected[static_cast<size_t>(
                                         r - base)]),
                                     keys, keys);
      }
      if (present) continue;
      txy.index.Insert(h, base + static_cast<int64_t>(selected.size()));
      selected.push_back(i);
    }
  }
  txy.rows = base + static_cast<int64_t>(selected.size());
  return AppendAtomRows(t_pi, atoms, selected, next_id);
}

Result<std::vector<int64_t>> TPiIndexes::AbsentAtoms(const Table& t_pi,
                                                     const Table& atoms) {
  Adopt(t_pi);
  View& txy = TxyView();
  PROBKB_RETURN_NOT_OK(Extend(t_pi, &txy));
  std::vector<int64_t> absent;
  const std::vector<int>& keys = AtomKeysTxy();
  size_t hashes[kHashBatchRows];
  for (int64_t begin = 0; begin < atoms.NumRows(); begin += kHashBatchRows) {
    const int64_t end = std::min(begin + kHashBatchRows, atoms.NumRows());
    atoms.HashRows(keys, begin, end, hashes);
    for (int64_t i = begin; i < end; ++i) {
      txy.index.PrefetchHash(hashes[i - begin]);
    }
    for (int64_t i = begin; i < end; ++i) {
      RowView row = atoms.row(i);
      bool present = false;
      for (int64_t e = txy.index.Head(hashes[i - begin]); e >= 0 && !present;
           e = txy.index.Next(e)) {
        present = RowKeyEquals(row, t_pi.row(txy.index.Row(e)), keys,
                               txy.keys);
      }
      if (!present) absent.push_back(i);
    }
  }
  return absent;
}

void TPiIndexes::Truncate(int64_t rows) {
  for (View& view : views_) {
    if (view.rows <= rows) continue;
    // Every view inserts TPi rows in row order, so entry i is row i.
    view.index.Truncate(rows);
    view.rows = rows;
  }
  if (synced_rows_ > rows) synced_rows_ = rows;
  id_checked_rows_ = std::min(id_checked_rows_, rows);
  if (unordered_row_ >= rows) unordered_row_ = -1;
}

void TPiIndexes::Clear() {
  for (View& view : views_) {
    view.index = FlatRowIndex();
    view.rows = 0;
  }
  table_ = nullptr;
  synced_rows_ = -1;
  id_checked_rows_ = 0;
  unordered_row_ = -1;
}

}  // namespace probkb
