#include "engine/ops.h"
#include "engine/tunables.h"
#include "obs/trace.h"

#include <algorithm>
#include <functional>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace probkb {

KeyIndex::KeyIndex(const Table* table, std::vector<int> key_cols)
    : table_(table), key_cols_(std::move(key_cols)) {
  index_.Reserve(table->NumRows());
  // Batched build: hash the key columns in contiguous chunks instead of
  // materializing a Value per cell per row.
  size_t hashes[kIndexBuildChunkRows];
  const int64_t n = table_->NumRows();
  for (int64_t base = 0; base < n; base += kIndexBuildChunkRows) {
    const int64_t end = std::min(base + kIndexBuildChunkRows, n);
    table_->HashRows(key_cols_, base, end, hashes);
    for (int64_t i = base; i < end; ++i) {
      index_.Insert(hashes[i - base], i);
    }
  }
}

bool KeyIndex::Contains(const RowView& row,
                        std::span<const int> probe_cols) const {
  return ContainsHashed(HashRowKey(row, probe_cols), row, probe_cols);
}

bool KeyIndex::ContainsHashed(size_t hash, const RowView& row,
                              std::span<const int> probe_cols) const {
  for (int64_t e = index_.Head(hash); e >= 0; e = index_.Next(e)) {
    if (RowKeyEquals(row, table_->row(index_.Row(e)), probe_cols,
                     key_cols_)) {
      return true;
    }
  }
  return false;
}

void KeyIndex::AddRow(int64_t i) {
  index_.Insert(HashRowKey(table_->row(i), key_cols_), i);
}

int64_t DeleteWhere(Table* table,
                    const std::function<bool(const RowView&)>& pred) {
  std::vector<bool> keep(static_cast<size_t>(table->NumRows()));
  for (int64_t i = 0; i < table->NumRows(); ++i) {
    keep[static_cast<size_t>(i)] = !pred(table->row(i));
  }
  return table->FilterInPlace(keep);
}

int64_t DeleteMatching(Table* table, const std::vector<int>& table_cols,
                       const Table& keys, const std::vector<int>& key_cols) {
  if (keys.NumRows() == 0) return 0;
  KeyIndex index(&keys, key_cols);
  // Batch-hash the probe keys and mark survivors directly; a table with
  // no matching row is left as it is.
  std::vector<bool> keep(static_cast<size_t>(table->NumRows()));
  bool matched = false;
  size_t hashes[kHashBatchRows];
  const int64_t n = table->NumRows();
  for (int64_t base = 0; base < n; base += kHashBatchRows) {
    const int64_t end = std::min(base + kHashBatchRows, n);
    table->HashRows(table_cols, base, end, hashes);
    for (int64_t i = base; i < end; ++i) index.PrefetchHash(hashes[i - base]);
    for (int64_t i = base; i < end; ++i) {
      const bool hit =
          index.ContainsHashed(hashes[i - base], table->row(i), table_cols);
      keep[static_cast<size_t>(i)] = !hit;
      matched = matched || hit;
    }
  }
  return matched ? table->FilterInPlace(keep) : 0;
}

bool TablesEqualAsBags(const Table& a, const Table& b) {
  if (a.width() != b.width() || a.NumRows() != b.NumRows()) return false;
  return a.SortedRows() == b.SortedRows();
}

bool TablesEqualExact(const Table& a, const Table& b) {
  if (a.width() != b.width() || a.NumRows() != b.NumRows()) return false;
  for (int64_t i = 0; i < a.NumRows(); ++i) {
    if (!a.row(i).Equals(b.row(i))) return false;
  }
  return true;
}

// Join probe -----------------------------------------------------------------

JoinProbe::JoinProbe(const Table& left, std::span<const int> left_keys,
                     const Table& right, std::span<const int> right_keys,
                     const FlatRowIndex* index,
                     const PartitionedRowIndex* parts, int64_t build_rows,
                     JoinType type,
                     std::span<const JoinOutputCol> output_cols,
                     const RowPredicate& residual, int left_width)
    : left_(left),
      right_(right),
      left_keys_(left_keys),
      right_keys_(right_keys),
      index_(index),
      parts_(parts),
      build_rows_(build_rows),
      type_(type),
      output_cols_(output_cols),
      residual_(residual),
      left_width_(left_width) {
  PROBKB_CHECK(left_keys.size() == right_keys.size());
  PROBKB_CHECK(index != nullptr || parts != nullptr);
  auto raw = [](const Table& t, int c) {
    return t.schema().field(c).type == ColumnType::kInt64 &&
           !t.ColumnHasNulls(c);
  };
  bool raw_keys = true;
  for (size_t k = 0; k < left_keys.size(); ++k) {
    raw_keys = raw_keys && raw(left, left_keys[k]) &&
               raw(right, right_keys[k]);
  }
  if (!raw_keys) return;
  for (size_t k = 0; k < left_keys.size(); ++k) {
    left_words_.push_back(left.Int64Data(left_keys[k]));
    right_words_.push_back(right.Int64Data(right_keys[k]));
  }
}

void JoinProbe::Probe(int64_t begin, int64_t end,
                      const PairSink& sink) const {
  // An empty key list compares equal either way; it takes the raw path.
  if (left_words_.size() == left_keys_.size()) {
    ProbeImpl<true>(begin, end, sink);
  } else {
    ProbeImpl<false>(begin, end, sink);
  }
}

template <bool kRawKeys>
void JoinProbe::ProbeImpl(int64_t begin, int64_t end,
                          const PairSink& sink) const {
  const bool inner = type_ == JoinType::kInner;
  const size_t num_keys = left_keys_.size();
  std::vector<int64_t> left_rows(static_cast<size_t>(kJoinFlushPairs));
  std::vector<int64_t> right_rows(
      inner ? static_cast<size_t>(kJoinFlushPairs) : 0);
  int64_t pairs = 0;
  auto flush = [&] {
    sink(std::span<const int64_t>(left_rows.data(), pairs),
         std::span<const int64_t>(right_rows.data(), inner ? pairs : 0));
    pairs = 0;
  };
  std::vector<int64_t> left_key(num_keys);
  std::vector<Value> concat;
  size_t hashes[kProbeBatchRows];
  for (int64_t base = begin; base < end; base += kProbeBatchRows) {
    const int64_t batch = std::min(kProbeBatchRows, end - base);
    left_.HashRows(left_keys_, base, base + batch, hashes);
    for (int64_t k = 0; k < batch; ++k) {
      (index_ != nullptr ? *index_ : parts_->PartFor(hashes[k]))
          .PrefetchHash(hashes[k]);
    }
    for (int64_t k = 0; k < batch; ++k) {
      const size_t h = hashes[k];
      const int64_t l = base + k;
      const FlatRowIndex& index =
          index_ != nullptr ? *index_ : parts_->PartFor(h);
      if constexpr (kRawKeys) {
        for (size_t i = 0; i < num_keys; ++i) {
          left_key[i] = left_words_[i][l];
        }
      }
      bool matched = false;
      // Chains are in row order, so a walk stops at the first row past
      // the build bound.
      for (int64_t e = index.Head(h); e >= 0; e = index.Next(e)) {
        const int64_t r = index.Row(e);
        if (r >= build_rows_) break;
        if constexpr (kRawKeys) {
          size_t i = 0;
          while (i < num_keys && right_words_[i][r] == left_key[i]) ++i;
          if (i < num_keys) continue;
        } else {
          if (!RowKeyEquals(left_.row(l), right_.row(r), left_keys_,
                            right_keys_)) {
            continue;
          }
        }
        if (residual_ != nullptr) {
          concat.clear();
          for (int c = 0; c < left_width_; ++c) {
            concat.push_back(left_.ValueAt(l, c));
          }
          for (int c = 0; c < right_.width(); ++c) {
            concat.push_back(right_.ValueAt(r, c));
          }
          if (!residual_(
                  RowView(concat.data(), static_cast<int>(concat.size())))) {
            continue;
          }
        }
        matched = true;
        if (!inner) break;  // semi/anti only need existence
        left_rows[static_cast<size_t>(pairs)] = l;
        right_rows[static_cast<size_t>(pairs)] = r;
        if (++pairs == kJoinFlushPairs) flush();
      }
      if (!inner && matched == (type_ == JoinType::kLeftSemi)) {
        left_rows[static_cast<size_t>(pairs)] = l;
        if (++pairs == kJoinFlushPairs) flush();
      }
    }
  }
  if (pairs > 0) flush();
}

void JoinProbe::AppendOutput(std::span<const int64_t> left_rows,
                             std::span<const int64_t> right_rows,
                             Table* dst) const {
  std::vector<Table::ColumnSource> cols;
  if (type_ == JoinType::kInner) {
    cols.reserve(output_cols_.size());
    for (const JoinOutputCol& oc : output_cols_) {
      switch (oc.side) {
        case JoinOutputCol::Side::kLeft:
          cols.push_back(Table::ColumnSource::Gather(left_, oc.column,
                                                     left_rows.data()));
          break;
        case JoinOutputCol::Side::kRight:
          cols.push_back(Table::ColumnSource::Gather(right_, oc.column,
                                                     right_rows.data()));
          break;
        case JoinOutputCol::Side::kNull:
          cols.push_back(Table::ColumnSource::Constant(Value::Null()));
          break;
      }
    }
  } else {
    for (int c = 0; c < left_width_; ++c) {
      cols.push_back(Table::ColumnSource::Gather(left_, c, left_rows.data()));
    }
  }
  dst->AppendColumns(static_cast<int64_t>(left_rows.size()), cols);
}

// Grace-hash join ------------------------------------------------------------

namespace {

/// Recursion bound. Each level consumes up to 8 routing bits, so four
/// levels cover 32 of the hash's 63 routable bits; a pair still over
/// budget at the bound joins in memory — correct output, merely past the
/// advisory budget.
constexpr int kMaxGraceDepth = 4;

/// Joins one partition pair in memory with JoinProbe, the probe kernel of
/// HashJoinNode's in-memory path. `left_part` carries the hidden orig
/// column (width = left_base_width + 1); every output row is appended to
/// `dst` and its left row's orig value to `origs`.
void ProbePartitionPair(const Table& left_part, int left_base_width,
                        const Table& right_part, const GraceJoinSpec& spec,
                        Table* dst, std::vector<int64_t>* origs) {
  const int64_t build_rows = right_part.NumRows();
  std::vector<size_t> right_hashes(static_cast<size_t>(build_rows));
  if (build_rows > 0) {
    right_part.HashRows(spec.right_keys, 0, build_rows, right_hashes.data());
  }
  // Partition-local serial build: rows insert in partition order, which is
  // the global build order restricted to this partition. Chains are keyed
  // on the full hash, and routing sent every row of a given hash here, so
  // each chain equals the monolithic index's chain for that hash.
  FlatRowIndex index(build_rows);
  for (int64_t i = 0; i < build_rows; ++i) {
    index.Insert(right_hashes[static_cast<size_t>(i)], i);
  }

  const JoinProbe probe(left_part, spec.left_keys, right_part,
                        spec.right_keys, &index, /*parts=*/nullptr,
                        build_rows, spec.type, spec.output_cols,
                        spec.residual, left_base_width);
  const int64_t* orig = left_part.Int64Data(left_base_width);
  probe.Probe(0, left_part.NumRows(),
              [&](std::span<const int64_t> left_rows,
                  std::span<const int64_t> right_rows) {
                probe.AppendOutput(left_rows, right_rows, dst);
                for (int64_t l : left_rows) {
                  origs->push_back(orig[static_cast<size_t>(l)]);
                }
              });
}

/// Streams `src` rows [all] into `dst` partitions, hashing on `keys` in
/// kHashChunkRows chunks.
Status PartitionInto(const Table& src, const std::vector<int>& keys,
                     SpillableTable* dst) {
  std::vector<size_t> hashes;
  const int64_t n = src.NumRows();
  for (int64_t begin = 0; begin < n; begin += kHashChunkRows) {
    const int64_t end = std::min(begin + kHashChunkRows, n);
    hashes.resize(static_cast<size_t>(end - begin));
    src.HashRows(keys, begin, end, hashes.data());
    PROBKB_RETURN_NOT_OK(dst->AppendPartitioned(src, hashes, begin, end));
  }
  return dst->Finish();
}

/// Joins `left_part` x `right_part`, recursing one more partitioning
/// level (next bit group down) when the pair's working set still exceeds
/// the budget. Both inputs are pinned/resident tables; `left_part`
/// carries the orig column. Output rows append to `out` in probe order,
/// their orig values to `origs`.
Status GraceJoinPair(SpillContext* spill, const Table& left_part,
                     const Table& right_part, const GraceJoinSpec& spec,
                     int left_base_width, int bit_offset, int depth,
                     Table* out, std::vector<int64_t>* origs) {
  MemoryBudget* budget = spill->budget();
  // Build cost: the 8-byte hash array, 8 bytes/entry, and 12-byte slots
  // at 10/7..20/7 of the distinct keys.
  const int64_t index_bytes = right_part.NumRows() * 52;
  const int64_t working_bytes =
      left_part.ByteSize() + right_part.ByteSize() + index_bytes;
  const bool over_budget =
      budget != nullptr && budget->enabled() &&
      working_bytes > budget->AvailableBytes();
  if (!over_budget || depth >= kMaxGraceDepth ||
      right_part.NumRows() < kGraceSplitMinRows ||
      bit_offset + 1 > 55) {
    ProbePartitionPair(left_part, left_base_width, right_part, spec, out,
                       origs);
    return Status::OK();
  }

  // Recurse: split this pair on the next bit group. Children route on
  // bits the parent never consulted, so the chain argument applies
  // hierarchically, and a left row's matches all carry its full hash —
  // an orig group can never split across leaves.
  int parts = 2;
  while (parts < 256 && bit_offset + 8 <= 55 &&
         working_bytes > budget->AvailableBytes() * (parts / 2)) {
    parts <<= 1;
  }
  const std::string stem =
      spec.label + ".d" + std::to_string(depth + 1);
  // with_row_ids=false: left_part already carries orig as a payload
  // column; re-tagging would overwrite global ids with local ones.
  SpillableTable lparts(spill, left_part.schema(), parts, bit_offset,
                        stem + ".L", /*with_row_ids=*/false);
  SpillableTable rparts(spill, right_part.schema(), parts, bit_offset,
                        stem + ".R", /*with_row_ids=*/false);
  PROBKB_RETURN_NOT_OK(PartitionInto(left_part, spec.left_keys, &lparts));
  PROBKB_RETURN_NOT_OK(PartitionInto(right_part, spec.right_keys, &rparts));
  const int next_offset = bit_offset + lparts.router().bits();
  for (int p = 0; p < parts; ++p) {
    if (lparts.PartitionRows(p) == 0) continue;
    PROBKB_ASSIGN_OR_RETURN(TablePtr lp, lparts.PinPartition(p));
    PROBKB_ASSIGN_OR_RETURN(TablePtr rp, rparts.PinPartition(p));
    Status st = GraceJoinPair(spill, *lp, *rp, spec, left_base_width,
                              next_offset, depth + 1, out, origs);
    lparts.UnpinPartition(p);
    rparts.UnpinPartition(p);
    PROBKB_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

}  // namespace

Result<TablePtr> GraceHashJoin(SpillContext* spill, TablePtr left,
                               TablePtr right, const GraceJoinSpec& spec,
                               GraceJoinStats* stats) {
  PROBKB_RETURN_NOT_OK(spill->Prepare());
  TraceSpan span(Tracer::Global(), "grace_hash_join", "spill",
                 left->NumRows(), right->NumRows());

  const SpillStats& sstats = spill->stats();
  const int64_t written0 = sstats.bytes_written.load(std::memory_order_relaxed);
  const int64_t read0 = sstats.bytes_read.load(std::memory_order_relaxed);
  const int64_t faults0 =
      sstats.page_faults_served.load(std::memory_order_relaxed);
  const int64_t spilled0 =
      sstats.partitions_spilled.load(std::memory_order_relaxed);

  int parts = spec.num_parts;
  PROBKB_CHECK(parts >= 2 && (parts & (parts - 1)) == 0 && parts <= 256);

  const bool inner = spec.type == JoinType::kInner;
  const int left_base_width = left->width();
  const int64_t left_rows = left->NumRows();
  auto out = Table::Make(inner ? spec.out_schema : left->schema());

  // Level 0: partition both sides on the top hash bits; the probe side is
  // tagged with its row ids (orig) for the final reorder.
  SpillableTable lparts(spill, left->schema(), parts, /*bit_offset=*/0,
                        spec.label + ".L", /*with_row_ids=*/true);
  SpillableTable rparts(spill, right->schema(), parts, /*bit_offset=*/0,
                        spec.label + ".R", /*with_row_ids=*/false);
  PROBKB_RETURN_NOT_OK(PartitionInto(*left, spec.left_keys, &lparts));
  PROBKB_RETURN_NOT_OK(PartitionInto(*right, spec.right_keys, &rparts));
  // Both sides now live in their partitions: drop this join's hold on the
  // inputs, so an intermediate the caller handed over is freed before the
  // pairs join.
  left.reset();
  right.reset();

  // Pair joins run one partition at a time (sequential page-in, bounded
  // working set) and append to the one output in probe order. A left
  // row's matches share its full hash, so every routing level sends them
  // to the same leaf probe, which emits them consecutively in chain order.
  const int next_offset = lparts.router().bits();
  std::vector<int64_t> origs;
  for (int p = 0; p < parts; ++p) {
    if (lparts.PartitionRows(p) == 0) continue;
    PROBKB_ASSIGN_OR_RETURN(TablePtr lp, lparts.PinPartition(p));
    PROBKB_ASSIGN_OR_RETURN(TablePtr rp, rparts.PinPartition(p));
    Status st = GraceJoinPair(spill, *lp, *rp, spec, left_base_width,
                              next_offset, /*depth=*/1, out.get(), &origs);
    lparts.UnpinPartition(p);
    rparts.UnpinPartition(p);
    PROBKB_RETURN_NOT_OK(st);
  }

  // Back to the serial probe order: a stable counting sort on orig keeps
  // left rows in row order and each one's matches in chain order. The
  // rows are reordered in place, one column at a time, so the output is
  // never held twice.
  std::vector<int64_t> order(origs.size());
  {
    std::vector<int64_t> next(static_cast<size_t>(left_rows) + 1, 0);
    for (int64_t o : origs) ++next[static_cast<size_t>(o) + 1];
    for (size_t i = 1; i < next.size(); ++i) next[i] += next[i - 1];
    for (size_t i = 0; i < origs.size(); ++i) {
      order[static_cast<size_t>(next[static_cast<size_t>(origs[i])]++)] =
          static_cast<int64_t>(i);
    }
  }
  std::vector<int64_t>().swap(origs);
  out->PermuteRows(order);
  std::vector<int64_t>().swap(order);
#if defined(__GLIBC__)
  // The pair loop grows the output step by step between page-ins, index
  // builds and reorders; glibc keeps the blocks they free as resident
  // holes in the heap. Hand those pages back, so the resident set of a
  // budgeted run follows its working set rather than its history.
  malloc_trim(0);
#endif

  if (stats != nullptr) {
    stats->partitions = parts;
    stats->spill_partitions = static_cast<int>(
        sstats.partitions_spilled.load(std::memory_order_relaxed) - spilled0);
    stats->spill_bytes_written =
        sstats.bytes_written.load(std::memory_order_relaxed) - written0;
    stats->spill_bytes_read =
        sstats.bytes_read.load(std::memory_order_relaxed) - read0;
    stats->page_faults_served =
        sstats.page_faults_served.load(std::memory_order_relaxed) - faults0;
    span.set_values(out->NumRows(), stats->spill_bytes_written,
                    stats->spill_bytes_read);
  }
  return out;
}

}  // namespace probkb
