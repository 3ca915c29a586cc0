#include "relational/table.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <sstream>

namespace probkb {

std::string RowView::ToString() const {
  std::string out = "[";
  for (int i = 0; i < width_; ++i) {
    if (i > 0) out += ", ";
    out += (*this)[i].ToString();
  }
  out += "]";
  return out;
}

const Table::ColumnPtr& Table::EmptyColumn(ColumnType type) {
  auto make = [](ColumnType t) {
    auto col = std::make_shared<Column>();
    col->type = t;
    return col;
  };
  // Per thread, so tables made on different threads do not contend for
  // one reference count.
  thread_local const ColumnPtr int64_column = make(ColumnType::kInt64);
  thread_local const ColumnPtr float64_column = make(ColumnType::kFloat64);
  return type == ColumnType::kInt64 ? int64_column : float64_column;
}

void Table::ExtendNullWords(int64_t n) {
  const size_t words = static_cast<size_t>((num_rows_ + n + 63) >> 6);
  for (int ci = 0; ci < width(); ++ci) {
    Column& c = Mut(ci);
    if (c.null_words.size() < words) c.null_words.resize(words, 0);
  }
}

void Table::AppendRow(std::span<const Value> row) {
  PROBKB_DCHECK(static_cast<int>(row.size()) == width());
  ExtendNullWords(1);
  const int64_t r = num_rows_;
  for (size_t ci = 0; ci < cols_.size(); ++ci) {
    Column& c = Mut(static_cast<int>(ci));
    const Value& v = row[ci];
    if (v.is_null()) {
      SetNullBit(&c, r);
      if (c.type == ColumnType::kInt64) {
        c.i64.push_back(0);
      } else {
        c.f64.push_back(0.0);
      }
    } else if (c.type == ColumnType::kInt64) {
      PROBKB_DCHECK(v.is_int64());
      c.i64.push_back(v.i64());
    } else {
      PROBKB_DCHECK(v.is_float64());
      c.f64.push_back(v.f64());
    }
  }
  ++num_rows_;
}

void Table::AppendRow(const RowView& row) {
  const Table* src = row.backing_table();
  if (src != nullptr) {
    AppendRows(*src, row.row_index(), row.row_index() + 1);
    return;
  }
  PROBKB_DCHECK(row.width() == width());
  ExtendNullWords(1);
  const int64_t r = num_rows_;
  for (int ci = 0; ci < width(); ++ci) {
    Column& c = Mut(ci);
    const Value v = row[ci];
    if (v.is_null()) {
      SetNullBit(&c, r);
      if (c.type == ColumnType::kInt64) {
        c.i64.push_back(0);
      } else {
        c.f64.push_back(0.0);
      }
    } else if (c.type == ColumnType::kInt64) {
      PROBKB_DCHECK(v.is_int64());
      c.i64.push_back(v.i64());
    } else {
      PROBKB_DCHECK(v.is_float64());
      c.f64.push_back(v.f64());
    }
  }
  ++num_rows_;
}

void Table::AppendRows(const Table& src, int64_t begin, int64_t end) {
  PROBKB_CHECK(src.width() == width());
  PROBKB_DCHECK(begin >= 0 && begin <= end && end <= src.NumRows());
  const int64_t n = end - begin;
  if (n == 0) return;
  ExtendNullWords(n);
  for (size_t ci = 0; ci < cols_.size(); ++ci) {
    Column& dst = Mut(static_cast<int>(ci));
    const Column& from = *src.cols_[ci];
    PROBKB_DCHECK(dst.type == from.type);
    if (dst.type == ColumnType::kInt64) {
      dst.i64.insert(dst.i64.end(), from.i64.begin() + begin,
                     from.i64.begin() + end);
    } else {
      dst.f64.insert(dst.f64.end(), from.f64.begin() + begin,
                     from.f64.begin() + end);
    }
    if (from.null_count > 0) {
      for (int64_t r = begin; r < end; ++r) {
        if (IsNullBit(from, r)) SetNullBit(&dst, num_rows_ + (r - begin));
      }
    }
  }
  num_rows_ += n;
}

namespace {

/// Appends `n` copies of `fill` to `v`. An empty vector is sized exactly
/// (a one-shot gather or projection); a non-empty one that runs out of room
/// grows to the next power of two, the capacities a push_back loop
/// reaches. Repeated appends (a join's pair flushes) then copy O(total) in
/// all and keep the row-at-a-time footprint, where reserving exactly
/// size + n would reallocate and copy the whole column on every append.
template <typename T>
void AppendFill(std::vector<T>* v, int64_t n, T fill) {
  const size_t size = v->size() + static_cast<size_t>(n);
  if (size > v->capacity() && !v->empty()) v->reserve(std::bit_ceil(size));
  v->resize(size, fill);
}

/// Appends `from[rows[i]]` for i in [0, n) (`from[0 .. n)` when `rows` is
/// null) to `to`.
template <typename T>
void GatherInto(std::vector<T>* to, const std::vector<T>& from,
                const int64_t* rows, int64_t n) {
  const size_t old = to->size();
  AppendFill(to, n, T());
  T* out = to->data() + old;
  if (rows == nullptr) {
    std::copy(from.begin(), from.begin() + n, out);
  } else {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = from[static_cast<size_t>(rows[i])];
    }
  }
}

}  // namespace

void Table::GatherColumn(Column* dst, const Column& from, const int64_t* rows,
                         int64_t n) {
  PROBKB_CHECK(dst->type == from.type);
  if (dst->type == ColumnType::kInt64) {
    GatherInto(&dst->i64, from.i64, rows, n);
  } else {
    GatherInto(&dst->f64, from.f64, rows, n);
  }
  if (from.null_count > 0) {
    for (int64_t i = 0; i < n; ++i) {
      if (IsNullBit(from, rows == nullptr ? i : rows[i])) {
        SetNullBit(dst, num_rows_ + i);
      }
    }
  }
}

void Table::AppendColumns(int64_t n, std::span<const ColumnSource> cols) {
  PROBKB_CHECK(static_cast<int>(cols.size()) == width());
  if (n == 0) return;
  ExtendNullWords(n);
  for (size_t ci = 0; ci < cols_.size(); ++ci) {
    Column& dst = Mut(static_cast<int>(ci));
    const ColumnSource& from = cols[ci];
    if (from.table != nullptr) {
      PROBKB_DCHECK(from.table != this);
      GatherColumn(&dst, *from.table->cols_[static_cast<size_t>(from.column)],
                   from.rows, n);
      continue;
    }
    const Value v = from.value;
    if (dst.type == ColumnType::kInt64) {
      PROBKB_CHECK(v.is_null() || v.is_int64());
      const int64_t first = v.is_null() ? 0 : v.i64();
      const size_t old = dst.i64.size();
      AppendFill(&dst.i64, n, first);
      if (from.sequence) {
        std::iota(dst.i64.begin() + static_cast<ptrdiff_t>(old),
                  dst.i64.end(), first);
      }
    } else {
      PROBKB_CHECK(!from.sequence && (v.is_null() || v.is_float64()));
      AppendFill(&dst.f64, n, v.is_null() ? 0.0 : v.f64());
    }
    if (v.is_null()) {
      for (int64_t i = 0; i < n; ++i) SetNullBit(&dst, num_rows_ + i);
    }
  }
  num_rows_ += n;
}

void Table::AppendGatheredRows(const Table& src,
                               std::span<const int64_t> rows) {
  PROBKB_CHECK(src.width() == width());
  const int64_t n = static_cast<int64_t>(rows.size());
  if (n == 0) return;
  ExtendNullWords(n);
  for (size_t ci = 0; ci < cols_.size(); ++ci) {
    GatherColumn(&Mut(static_cast<int>(ci)), *src.cols_[ci], rows.data(), n);
  }
  num_rows_ += n;
}

void Table::AppendGatheredRowsWithIds(const Table& src,
                                      std::span<const int64_t> rows) {
  PROBKB_CHECK(src.width() + 1 == width());
  const int64_t n = static_cast<int64_t>(rows.size());
  if (n == 0) return;
  ExtendNullWords(n);
  for (int ci = 0; ci < src.width(); ++ci) {
    GatherColumn(&Mut(ci), *src.cols_[static_cast<size_t>(ci)], rows.data(),
                 n);
  }
  Column& ids = Mut(width() - 1);
  PROBKB_CHECK(ids.type == ColumnType::kInt64);
  ids.i64.insert(ids.i64.end(), rows.begin(), rows.end());
  num_rows_ += n;
}

void Table::AppendColumnarRows(int64_t rows,
                               std::span<const ColumnWords> cols) {
  PROBKB_CHECK(static_cast<int>(cols.size()) == width());
  if (rows == 0) return;
  ExtendNullWords(rows);
  for (size_t ci = 0; ci < cols_.size(); ++ci) {
    Column& dst = Mut(static_cast<int>(ci));
    const ColumnWords& from = cols[ci];
    // memcpy, not typed-pointer inserts: the encoded words sit at odd
    // offsets inside a page payload (after 1-byte type tags), so a typed
    // load would be misaligned.
    if (dst.type == ColumnType::kInt64) {
      const size_t old = dst.i64.size();
      dst.i64.resize(old + static_cast<size_t>(rows));
      std::memcpy(dst.i64.data() + old, from.words,
                  static_cast<size_t>(rows) * sizeof(int64_t));
    } else {
      const size_t old = dst.f64.size();
      dst.f64.resize(old + static_cast<size_t>(rows));
      std::memcpy(dst.f64.data() + old, from.words,
                  static_cast<size_t>(rows) * sizeof(double));
    }
    if (from.null_bitmap != nullptr) {
      for (int64_t r = 0; r < rows; ++r) {
        if ((from.null_bitmap[static_cast<size_t>(r >> 6)] >>
             (static_cast<uint64_t>(r) & 63)) &
            1) {
          SetNullBit(&dst, num_rows_ + r);
        }
      }
    }
  }
  num_rows_ += rows;
}

void Table::ReserveRows(int64_t n) {
  const size_t rows = static_cast<size_t>(num_rows_ + n);
  for (int ci = 0; ci < width(); ++ci) {
    Column& c = Mut(ci);
    if (c.type == ColumnType::kInt64) {
      c.i64.reserve(rows);
    } else {
      c.f64.reserve(rows);
    }
    c.null_words.reserve((rows + 63) >> 6);
  }
}

void Table::Clear() {
  // Fresh columns instead of clear-in-place: a shared (snapshotted) column
  // keeps its rows for the readers holding it, and an exclusive one is
  // released rather than detached-then-cleared.
  for (ColumnPtr& p : cols_) p = EmptyColumn(p->type);
  num_rows_ = 0;
}

int64_t Table::FilterInPlace(const std::vector<bool>& keep) {
  PROBKB_CHECK(static_cast<int64_t>(keep.size()) == NumRows());
  const int64_t n = num_rows_;
  int64_t write = 0;
  for (int64_t r = 0; r < n; ++r) {
    if (keep[static_cast<size_t>(r)]) ++write;
  }
  const int64_t kept = write;
  for (int ci = 0; ci < width(); ++ci) {
    Column& c = Mut(ci);
    write = 0;
    if (c.type == ColumnType::kInt64) {
      for (int64_t r = 0; r < n; ++r) {
        if (keep[static_cast<size_t>(r)]) {
          c.i64[static_cast<size_t>(write++)] = c.i64[static_cast<size_t>(r)];
        }
      }
      c.i64.resize(static_cast<size_t>(kept));
    } else {
      for (int64_t r = 0; r < n; ++r) {
        if (keep[static_cast<size_t>(r)]) {
          c.f64[static_cast<size_t>(write++)] = c.f64[static_cast<size_t>(r)];
        }
      }
      c.f64.resize(static_cast<size_t>(kept));
    }
    if (c.null_count > 0) {
      std::vector<uint64_t> words(static_cast<size_t>((kept + 63) >> 6), 0);
      int64_t nulls = 0;
      write = 0;
      for (int64_t r = 0; r < n; ++r) {
        if (!keep[static_cast<size_t>(r)]) continue;
        if (IsNullBit(c, r)) {
          words[static_cast<size_t>(write >> 6)] |=
              uint64_t{1} << (static_cast<uint64_t>(write) & 63);
          ++nulls;
        }
        ++write;
      }
      c.null_words = std::move(words);
      c.null_count = nulls;
    } else {
      c.null_words.resize(static_cast<size_t>((kept + 63) >> 6));
    }
  }
  num_rows_ = kept;
  return n - kept;
}

void Table::PermuteRows(std::span<const int64_t> order) {
  PROBKB_CHECK(static_cast<int64_t>(order.size()) == NumRows());
  for (int ci = 0; ci < width(); ++ci) {
    Column& c = Mut(ci);
    const int64_t n = static_cast<int64_t>(order.size());
    if (c.type == ColumnType::kInt64) {
      std::vector<int64_t> permuted;
      GatherInto(&permuted, c.i64, order.data(), n);
      c.i64 = std::move(permuted);
    } else {
      std::vector<double> permuted;
      GatherInto(&permuted, c.f64, order.data(), n);
      c.f64 = std::move(permuted);
    }
    if (c.null_count > 0) {
      std::vector<uint64_t> words(c.null_words.size(), 0);
      for (size_t i = 0; i < order.size(); ++i) {
        if (IsNullBit(c, order[i])) {
          words[i >> 6] |= uint64_t{1} << (i & 63);
        }
      }
      c.null_words = std::move(words);
    }
  }
}

TablePtr Table::Clone() const {
  // Shares the columns; either table detaches the ones it later mutates
  // (copy-on-write), so the copy has deep-copy semantics at O(width) cost.
  auto out = Table::Make(schema_);
  out->num_rows_ = num_rows_;
  out->cols_ = cols_;
  return out;
}

std::shared_ptr<const Table> Table::Snapshot() const {
  auto out = std::make_shared<Table>(schema_);
  out->num_rows_ = num_rows_;
  out->cols_ = cols_;
  return out;
}

void Table::SetFloat64(int64_t row, int col, double v) {
  PROBKB_DCHECK(row >= 0 && row < NumRows());
  Column& c = Mut(col);
  PROBKB_CHECK(c.type == ColumnType::kFloat64);
  c.f64[static_cast<size_t>(row)] = v;
  if (c.null_count > 0 && IsNullBit(c, row)) {
    c.null_words[static_cast<size_t>(row >> 6)] &=
        ~(uint64_t{1} << (static_cast<uint64_t>(row) & 63));
    --c.null_count;
  }
}

void Table::HashRows(std::span<const int> key_cols, int64_t begin,
                     int64_t end, size_t* out) const {
  PROBKB_DCHECK(begin >= 0 && begin <= end && end <= NumRows());
  const int64_t n = end - begin;
  for (int64_t i = 0; i < n; ++i) out[i] = kRowHashSeed;
  for (int kc : key_cols) {
    const Column& c = *cols_[static_cast<size_t>(kc)];
    if (c.type == ColumnType::kInt64) {
      const int64_t* data = c.i64.data() + begin;
      if (c.null_count == 0) {
        for (int64_t i = 0; i < n; ++i) {
          out[i] = CombineRowHash(out[i], value_hash::OfInt64(data[i]));
        }
      } else {
        for (int64_t i = 0; i < n; ++i) {
          out[i] = CombineRowHash(out[i], IsNullBit(c, begin + i)
                                              ? value_hash::OfNull()
                                              : value_hash::OfInt64(data[i]));
        }
      }
    } else {
      const double* data = c.f64.data() + begin;
      if (c.null_count == 0) {
        for (int64_t i = 0; i < n; ++i) {
          out[i] = CombineRowHash(out[i], value_hash::OfFloat64(data[i]));
        }
      } else {
        for (int64_t i = 0; i < n; ++i) {
          out[i] = CombineRowHash(out[i],
                                  IsNullBit(c, begin + i)
                                      ? value_hash::OfNull()
                                      : value_hash::OfFloat64(data[i]));
        }
      }
    }
  }
}

std::string Table::ToString(int64_t max_rows) const {
  std::ostringstream os;
  os << schema_.ToString() << " rows=" << NumRows() << "\n";
  int64_t n = std::min<int64_t>(NumRows(), max_rows);
  for (int64_t i = 0; i < n; ++i) {
    os << "  " << row(i).ToString() << "\n";
  }
  if (n < NumRows()) os << "  ... (" << (NumRows() - n) << " more)\n";
  return os.str();
}

std::vector<std::vector<Value>> Table::SortedRows() const {
  std::vector<std::vector<Value>> rows;
  rows.reserve(static_cast<size_t>(NumRows()));
  for (int64_t i = 0; i < NumRows(); ++i) {
    std::vector<Value> materialized;
    materialized.reserve(static_cast<size_t>(width()));
    for (int c = 0; c < width(); ++c) materialized.push_back(ValueAt(i, c));
    rows.push_back(std::move(materialized));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

size_t HashRowKey(const RowView& row, std::span<const int> key_cols) {
  size_t h = kRowHashSeed;
  for (int c : key_cols) {
    h = CombineRowHash(h, row[c].Hash());
  }
  return h;
}

bool RowKeyEquals(const RowView& a, const RowView& b,
                  std::span<const int> a_cols, std::span<const int> b_cols) {
  PROBKB_DCHECK(a_cols.size() == b_cols.size());
  for (size_t i = 0; i < a_cols.size(); ++i) {
    if (a[a_cols[i]] != b[b_cols[i]]) return false;
  }
  return true;
}

}  // namespace probkb
