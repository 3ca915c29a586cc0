#ifndef PROBKB_RELATIONAL_TABLE_H_
#define PROBKB_RELATIONAL_TABLE_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/value.h"
#include "util/logging.h"
#include "util/result.h"

namespace probkb {

class Table;
using TablePtr = std::shared_ptr<Table>;
/// Immutable table handle, as produced by Table::Snapshot().
using ConstTablePtr = std::shared_ptr<const Table>;

/// \brief Non-owning view of one row.
///
/// Two backings share this facade: a row of a (columnar) Table, or a raw
/// `Value` buffer materialized by an operator (residual-predicate input,
/// aggregate output). `operator[]` therefore returns a Value by value; the
/// cell itself no longer exists contiguously in memory for table-backed
/// views.
class RowView {
 public:
  RowView(const Value* data, int width) : data_(data), width_(width) {}
  inline RowView(const Table* table, int64_t row);

  int width() const { return width_; }
  inline Value operator[](int col) const;

  /// Table backing this view, or nullptr for buffer-backed views.
  const Table* backing_table() const { return table_; }
  int64_t row_index() const { return row_; }

  bool Equals(const RowView& other) const {
    if (width_ != other.width_) return false;
    for (int i = 0; i < width_; ++i) {
      if ((*this)[i] != other[i]) return false;
    }
    return true;
  }

  std::string ToString() const;

 private:
  const Table* table_ = nullptr;
  int64_t row_ = 0;
  const Value* data_ = nullptr;
  int width_ = 0;
};

/// \brief Columnar in-memory relation: a Schema plus one typed vector
/// (`int64_t` or `double`) and a null bitmap per column.
///
/// Every column is either a dictionary-encoded int64 id or a float64
/// weight (see ColumnType), so storing the 16-byte tagged Value scalar per
/// cell wasted half the bytes and broke the contiguity the join hot loops
/// want. Columns store 8 bytes per cell plus one bit of null bitmap; NULL
/// cells hold a zero sentinel in the typed vector and set their bit.
/// RowView/AppendRow remain as a row-oriented compatibility facade.
///
/// Rows are appended, scanned by index, and deleted in bulk; this matches
/// how the grounding algorithm uses its tables (bulk inserts from joins,
/// bulk deletes from constraint application).
class Table {
 public:
  /// \brief An empty table. Its columns start out shared with every other
  /// fresh table (see EmptyColumn), so making one allocates no column
  /// until a row is appended.
  explicit Table(Schema schema) : schema_(std::move(schema)) {
    cols_.reserve(static_cast<size_t>(schema_.num_fields()));
    for (int c = 0; c < schema_.num_fields(); ++c) {
      cols_.push_back(EmptyColumn(schema_.field(c).type));
    }
  }

  static TablePtr Make(Schema schema) {
    return std::make_shared<Table>(std::move(schema));
  }

  const Schema& schema() const { return schema_; }
  int width() const { return schema_.num_fields(); }
  int64_t NumRows() const { return width() == 0 ? 0 : num_rows_; }

  RowView row(int64_t i) const {
    PROBKB_DCHECK(i >= 0 && i < NumRows());
    return RowView(this, i);
  }

  /// \brief Materializes one cell. NULL bits win over the sentinel stored
  /// in the typed vector.
  Value ValueAt(int64_t row, int col) const {
    PROBKB_DCHECK(row >= 0 && row < NumRows());
    PROBKB_DCHECK(col >= 0 && col < width());
    const Column& c = *cols_[static_cast<size_t>(col)];
    if (c.null_count > 0 && IsNullBit(c, row)) return Value::Null();
    return c.type == ColumnType::kInt64
               ? Value::Int64(c.i64[static_cast<size_t>(row)])
               : Value::Float64(c.f64[static_cast<size_t>(row)]);
  }

  /// \brief Appends one row; `row.size()` must equal the schema width.
  void AppendRow(std::span<const Value> row);
  void AppendRow(std::initializer_list<Value> row) {
    AppendRow(std::span<const Value>(row.begin(), row.size()));
  }
  void AppendRow(const RowView& row);

  /// \brief Appends all rows of `other`; schemas must have equal width.
  void AppendTable(const Table& other) {
    AppendRows(other, 0, other.NumRows());
  }

  /// \brief Appends rows [begin, end) of `src` as contiguous per-column
  /// copies (no per-cell Value materialization). Column types must match.
  void AppendRows(const Table& src, int64_t begin, int64_t end);

  /// \brief Appends the rows of `src` at indices `rows` (in order) as
  /// per-column gathers. Schemas must have equal width and column types.
  /// The spill partitioner's scatter path: one gather per partition beats
  /// a row-wise AppendRow loop by the usual columnar margin.
  void AppendGatheredRows(const Table& src, std::span<const int64_t> rows);

  /// \brief Like AppendGatheredRows, but this table carries one extra
  /// trailing int64 column (width() == src.width() + 1) that receives each
  /// appended row's `rows[i]` value. Spilled probe-side partitions use it
  /// to remember original row indices, so the join output can be
  /// reordered back into the exact serial probe order (see DESIGN.md
  /// "Out-of-core").
  void AppendGatheredRowsWithIds(const Table& src,
                                 std::span<const int64_t> rows);

  /// \brief Where AppendColumns takes one column's cells from: a gather
  /// from another table's column, a constant, or an int64 sequence.
  struct ColumnSource {
    /// Gather: cells of `table`'s column `column` (null bits included) at
    /// rows `rows[i]`, or at rows [0, n) when `rows` is null.
    const Table* table = nullptr;
    int column = 0;
    const int64_t* rows = nullptr;
    /// When `table` is null: `value` in every row, or, with `sequence`,
    /// the int64 `value + i` in row i.
    Value value;
    bool sequence = false;

    static ColumnSource Gather(const Table& src, int col,
                               const int64_t* rows) {
      ColumnSource s;
      s.table = &src;
      s.column = col;
      s.rows = rows;
      return s;
    }
    static ColumnSource Constant(Value v) {
      ColumnSource s;
      s.value = v;
      return s;
    }
    static ColumnSource Sequence(int64_t first) {
      ColumnSource s;
      s.value = Value::Int64(first);
      s.sequence = true;
      return s;
    }
  };

  /// \brief Appends `n` rows one column at a time: column c takes its
  /// cells from `cols[c]`. Gathered columns must match this column's type;
  /// a constant must be NULL or of the column's type. The join output path
  /// (a flush of (left row, right row) pairs gathers each output column
  /// from its side), projections with constants, and the TPi merge.
  void AppendColumns(int64_t n, std::span<const ColumnSource> cols);

  /// \brief One decoded column for AppendColumnarRows: `words` points at
  /// 8-byte cells (int64 or float64 to match the column type; NULL cells
  /// hold the zero sentinel), `null_bitmap` at the packed row bitmap, or
  /// nullptr when the column has no NULLs.
  struct ColumnWords {
    const void* words = nullptr;
    const uint64_t* null_bitmap = nullptr;
  };

  /// \brief Appends `rows` rows from raw columnar words, one ColumnWords
  /// per schema column. The page-decode fast path of the spill codec:
  /// straight vector inserts instead of per-cell Value materialization,
  /// byte-identical to the AppendRow route (the encoder dumped these words
  /// straight from the typed vectors).
  void AppendColumnarRows(int64_t rows, std::span<const ColumnWords> cols);

  /// \brief Reserves space for `n` additional rows.
  void ReserveRows(int64_t n);

  void Clear();

  /// \brief Removes rows for which `keep[i]` is false. `keep.size()` must be
  /// NumRows(). Returns the number of rows removed.
  int64_t FilterInPlace(const std::vector<bool>& keep);

  /// \brief Reorders the rows in place: row i becomes the old row
  /// `order[i]`, and `order` must be a permutation of [0, NumRows()).
  /// Works one column at a time, so it needs one column of scratch, not a
  /// second table.
  void PermuteRows(std::span<const int64_t> order);

  /// \brief Value-semantics copy. O(width): the copy shares this table's
  /// column storage and either side detaches (copies) a column the first
  /// time it mutates it, so the two tables stay independent.
  TablePtr Clone() const;

  /// \brief Cheap copy-on-write snapshot handle: a frozen Table sharing
  /// this table's column storage (O(width) shared_ptr copies, no row data
  /// moved). The snapshot is immutable by type; subsequent mutations of
  /// this table detach only the touched columns, so readers holding the
  /// handle keep seeing exactly the rows that existed at snapshot time.
  /// Must be called from the thread that mutates this table (the writer):
  /// the handle itself may then be handed to any number of reader threads.
  std::shared_ptr<const Table> Snapshot() const;

  /// \brief Exact memory footprint of the column data in bytes: 8 bytes per
  /// cell plus the null-bitmap words (used by the MPP cost model).
  int64_t ByteSize() const {
    int64_t bytes = 0;
    for (const ColumnPtr& p : cols_) {
      const Column& c = *p;
      bytes += static_cast<int64_t>(
          (c.type == ColumnType::kInt64 ? c.i64.size() : c.f64.size()) *
              sizeof(int64_t) +
          c.null_words.size() * sizeof(uint64_t));
    }
    return bytes;
  }

  // Columnar accessors for batch loops. The raw pointers alias the typed
  // vectors: valid until the next append/filter. Null cells hold a zero
  // sentinel; consult IsNull()/ColumnHasNulls() where NULLs can occur.
  const int64_t* Int64Data(int col) const {
    PROBKB_DCHECK(ColType(col) == ColumnType::kInt64);
    return cols_[static_cast<size_t>(col)]->i64.data();
  }
  const double* Float64Data(int col) const {
    PROBKB_DCHECK(ColType(col) == ColumnType::kFloat64);
    return cols_[static_cast<size_t>(col)]->f64.data();
  }
  bool ColumnHasNulls(int col) const {
    return cols_[static_cast<size_t>(col)]->null_count > 0;
  }
  bool IsNull(int64_t row, int col) const {
    const Column& c = *cols_[static_cast<size_t>(col)];
    return c.null_count > 0 && IsNullBit(c, row);
  }

  /// \brief Overwrites a float64 cell in place, clearing its null bit.
  /// Inference writes marginals back into TPi's weight column with this.
  void SetFloat64(int64_t row, int col, double v);

  /// \brief Batch row-key hashing: fills `out[0 .. end-begin)` with
  /// HashRowKey(row(begin + i), key_cols), computed as one tight loop per
  /// key column over the contiguous column data.
  void HashRows(std::span<const int> key_cols, int64_t begin, int64_t end,
                size_t* out) const;

  /// \brief Pretty-prints up to `max_rows` rows (debugging / examples).
  std::string ToString(int64_t max_rows = 20) const;

  /// \brief Sorted copy of the rows (lexicographic), for order-insensitive
  /// comparisons in tests.
  std::vector<std::vector<Value>> SortedRows() const;

 private:
  struct Column {
    ColumnType type = ColumnType::kInt64;
    std::vector<int64_t> i64;         // data when type == kInt64
    std::vector<double> f64;          // data when type == kFloat64
    std::vector<uint64_t> null_words; // bit r set => row r is NULL
    int64_t null_count = 0;
  };
  /// Columns are held by shared_ptr so Snapshot()/Clone() can share them
  /// copy-on-write: a column referenced by more than one table is copied
  /// by the mutating side before the first write (see Mut()).
  using ColumnPtr = std::shared_ptr<Column>;

  /// The calling thread's empty column of `type`. Tables share it like a
  /// snapshotted column: Mut() detaches a private copy before the first
  /// write, because this holder keeps use_count() above 1.
  static const ColumnPtr& EmptyColumn(ColumnType type);

  ColumnType ColType(int col) const {
    PROBKB_DCHECK(col >= 0 && col < width());
    return cols_[static_cast<size_t>(col)]->type;
  }

  /// \brief Mutable access to column `col`, detaching it first when it is
  /// shared with a snapshot or clone. use_count() == 1 proves exclusive
  /// ownership (snapshot handles are created and released under shared_ptr's
  /// atomic control block), so the unshared fast path never copies.
  Column& Mut(int col) {
    ColumnPtr& p = cols_[static_cast<size_t>(col)];
    if (p.use_count() > 1) p = std::make_shared<Column>(*p);
    return *p;
  }

  static bool IsNullBit(const Column& c, int64_t row) {
    return (c.null_words[static_cast<size_t>(row >> 6)] >>
            (static_cast<uint64_t>(row) & 63)) &
           1;
  }
  static void SetNullBit(Column* c, int64_t row) {
    c->null_words[static_cast<size_t>(row >> 6)] |=
        uint64_t{1} << (static_cast<uint64_t>(row) & 63);
    ++c->null_count;
  }
  /// Appends `n` cells of `from` (at `rows`, or [0, n) when null) to
  /// `dst`, setting null bits from row num_rows_ on; callers extend the
  /// bitmaps first and bump num_rows_ after the last column.
  void GatherColumn(Column* dst, const Column& from, const int64_t* rows,
                    int64_t n);
  /// Grows every column's bitmap to cover rows [0, num_rows_ + n).
  void ExtendNullWords(int64_t n);

  Schema schema_;
  int64_t num_rows_ = 0;
  std::vector<ColumnPtr> cols_;
};

inline RowView::RowView(const Table* table, int64_t row)
    : table_(table), row_(row), width_(table->width()) {}

inline Value RowView::operator[](int col) const {
  PROBKB_DCHECK(col >= 0 && col < width_);
  return table_ != nullptr ? table_->ValueAt(row_, col) : data_[col];
}

/// Seed and combine step of the row-key hash; Table::HashRows and
/// HashRowKey share them so batched and scalar hashing agree bit for bit.
inline constexpr size_t kRowHashSeed = 0x243F6A8885A308D3ULL;  // pi digits
inline size_t CombineRowHash(size_t h, size_t value_hash) {
  return h ^ (value_hash + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

/// \brief Hashes the key columns of a row (for joins / distinct / hash
/// distribution).
size_t HashRowKey(const RowView& row, std::span<const int> key_cols);

/// \brief Compares the key columns of two rows for equality.
bool RowKeyEquals(const RowView& a, const RowView& b,
                  std::span<const int> a_cols, std::span<const int> b_cols);

}  // namespace probkb

#endif  // PROBKB_RELATIONAL_TABLE_H_
