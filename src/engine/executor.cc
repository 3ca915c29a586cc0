#include "engine/executor.h"

#include <algorithm>

#include "engine/flat_hash.h"
#include "engine/ops.h"
#include "engine/tunables.h"
#include "util/strings.h"
#include "util/timer.h"

// Execution half of the plan layer: the PlanNode::Execute bodies. The
// structural IR (construction, Explain) lives in plan.cc. All batching /
// parallelism cutoffs are the constants of engine/tunables.h; each only
// moves work between the bit-identical serial and parallel paths, so none
// can change any output.

namespace probkb {

namespace {

NodeStats MakeStats(std::string label, int64_t rows_in, int64_t rows_out,
                    double seconds, int num_children) {
  NodeStats ns;
  ns.label = std::move(label);
  ns.rows_in = rows_in;
  ns.rows_out = rows_out;
  ns.seconds = seconds;
  ns.num_children = num_children;
  return ns;
}

/// Builds a join's transient build-side index over every row of `right`:
/// batch-hash the right keys (tight per-column loops), then insert. With a
/// pool and a big enough input the build is morsel-parallel: the hash
/// array is filled chunk-wise, and the index is hash-partitioned so each
/// partition is built independently from that shared array (see
/// PartitionedRowIndex for the bit-identity argument).
PartitionedRowIndex BuildRightIndex(const Table& right,
                                    const std::vector<int>& right_keys,
                                    ThreadPool* pool) {
  const int64_t build_rows = right.NumRows();
  const bool parallel_build = pool != nullptr && pool->num_threads() > 1 &&
                              build_rows >= kParallelMinRows;
  std::vector<size_t> right_hashes(static_cast<size_t>(build_rows));
  if (parallel_build) {
    const int64_t chunks = (build_rows + kHashChunkRows - 1) / kHashChunkRows;
    pool->ParallelFor(chunks, 1, [&](int64_t cb, int64_t ce) {
      for (int64_t c = cb; c < ce; ++c) {
        const int64_t begin = c * kHashChunkRows;
        const int64_t end = std::min(begin + kHashChunkRows, build_rows);
        right.HashRows(right_keys, begin, end, right_hashes.data() + begin);
      }
    });
  } else if (build_rows > 0) {
    right.HashRows(right_keys, 0, build_rows, right_hashes.data());
  }

  int num_parts = 1;
  if (parallel_build) {
    while (num_parts < pool->num_threads() &&
           num_parts < kMaxBuildPartitions) {
      num_parts <<= 1;
    }
  }
  PartitionedRowIndex build(num_parts);
  if (num_parts == 1) {
    FlatRowIndex& part = build.part(0);
    part.Reserve(build_rows);
    for (int64_t i = 0; i < build_rows; ++i) {
      part.Insert(right_hashes[static_cast<size_t>(i)], i);
    }
  } else {
    // Each partition task scans the shared hash array in row order and
    // keeps only its hash range, so chain order matches the serial build.
    pool->ParallelFor(num_parts, 1, [&](int64_t pb, int64_t pe) {
      for (int64_t p = pb; p < pe; ++p) {
        FlatRowIndex& part = build.part(static_cast<size_t>(p));
        int64_t mine = 0;
        for (size_t h : right_hashes) {
          if (build.PartOf(h) == static_cast<size_t>(p)) ++mine;
        }
        part.Reserve(mine);
        for (int64_t i = 0; i < build_rows; ++i) {
          const size_t h = right_hashes[static_cast<size_t>(i)];
          if (build.PartOf(h) == static_cast<size_t>(p)) part.Insert(h, i);
        }
      }
    });
  }
  return build;
}

/// The key columns' int64 words when every key column is int64 without
/// NULLs, so keys compare as raw words (JoinProbe's rule); empty otherwise,
/// and keys compare with RowKeyEquals: NULL keys meet, -0.0 meets 0.0 and
/// NaN meets nothing. An empty key list takes the raw path.
std::vector<const int64_t*> RawKeyWords(const Table& in,
                                        const std::vector<int>& keys) {
  std::vector<const int64_t*> words;
  for (int c : keys) {
    if (in.schema().field(c).type != ColumnType::kInt64 ||
        in.ColumnHasNulls(c)) {
      return {};
    }
    words.push_back(in.Int64Data(c));
  }
  return words;
}

}  // namespace

Result<TablePtr> ExecutePlan(PlanNode* root, ExecContext* ctx) {
  return root->Execute(ctx);
}

// ScanNode -------------------------------------------------------------------

Result<TablePtr> ScanNode::Execute(ExecContext* ctx) {
  PROBKB_RETURN_NOT_OK(ctx->CheckBudget(Label()));
  const int64_t rows = TableRows();
  PROBKB_RETURN_NOT_OK(ctx->Record(MakeStats(Label(), rows, rows, 0.0, 0)));
  set_obs_rows(rows);
  return table_;
}

// FilterNode -----------------------------------------------------------------

Result<TablePtr> FilterNode::Execute(ExecContext* ctx) {
  PROBKB_RETURN_NOT_OK(ctx->CheckBudget(Label()));
  PROBKB_ASSIGN_OR_RETURN(TablePtr in, children_[0]->Execute(ctx));
  Timer timer;
  std::vector<int64_t> selected;
  for (int64_t i = 0; i < in->NumRows(); ++i) {
    if (pred_(in->row(i))) selected.push_back(i);
  }
  auto out = Table::Make(in->schema());
  out->AppendGatheredRows(*in, selected);
  PROBKB_RETURN_NOT_OK(ctx->Record(
      MakeStats(Label(), in->NumRows(), out->NumRows(), timer.Seconds(), 1)));
  set_obs_rows(out->NumRows());
  return out;
}

// ProjectNode ----------------------------------------------------------------

Result<TablePtr> ProjectNode::Execute(ExecContext* ctx) {
  PROBKB_RETURN_NOT_OK(ctx->CheckBudget(Label()));
  PROBKB_ASSIGN_OR_RETURN(TablePtr in, children_[0]->Execute(ctx));
  Timer timer;
  // One pass per output column: a column copy or a constant fill.
  std::vector<Table::ColumnSource> cols;
  cols.reserve(exprs_.size());
  for (const auto& e : exprs_) {
    if (e.kind == ProjectExpr::Kind::kConstant) {
      if (!e.constant.is_null() &&
          e.constant.is_float64() != (e.type == ColumnType::kFloat64)) {
        return Status::InvalidArgument(StrFormat(
            "projection constant '%s' does not match its declared type %s",
            e.name.c_str(), ColumnTypeToString(e.type)));
      }
      cols.push_back(Table::ColumnSource::Constant(e.constant));
      continue;
    }
    if (e.column < 0 || e.column >= in->width() ||
        in->schema().field(e.column).type != e.type) {
      return Status::InvalidArgument(StrFormat(
          "projection column '%s' is declared %s over input column %d of a "
          "%d-column input",
          e.name.c_str(), ColumnTypeToString(e.type), e.column, in->width()));
    }
    cols.push_back(Table::ColumnSource::Gather(*in, e.column, nullptr));
  }
  auto out = Table::Make(output_schema_);
  out->AppendColumns(in->NumRows(), cols);
  PROBKB_RETURN_NOT_OK(ctx->Record(
      MakeStats(Label(), in->NumRows(), out->NumRows(), timer.Seconds(), 1)));
  set_obs_rows(out->NumRows());
  return out;
}

// HashJoinNode ---------------------------------------------------------------

Result<TablePtr> HashJoinNode::Execute(ExecContext* ctx) {
  PROBKB_RETURN_NOT_OK(ctx->CheckBudget(Label()));
  PROBKB_ASSIGN_OR_RETURN(TablePtr left, children_[0]->Execute(ctx));
  PROBKB_ASSIGN_OR_RETURN(TablePtr right, children_[1]->Execute(ctx));
  Timer timer;
  const int64_t build_rows =
      prebuilt_.index != nullptr ? prebuilt_.rows : right->NumRows();
  PROBKB_RETURN_NOT_OK(FlatRowIndex::CheckCapacity(build_rows));

  if (type_ == JoinType::kInner) {
    if (output_cols_.empty()) {
      return Status::InvalidArgument(
          "inner hash join requires explicit output columns");
    }
    for (const auto& c : output_cols_) {
      if (c.side == JoinOutputCol::Side::kNull) continue;
      const Schema& side = c.side == JoinOutputCol::Side::kLeft
                               ? left->schema()
                               : right->schema();
      if (c.column < 0 || c.column >= side.num_fields()) {
        return Status::InvalidArgument(StrFormat(
            "hash join output column '%s' reads column %d of a %d-column "
            "input",
            c.name.c_str(), c.column, side.num_fields()));
      }
      if (side.field(c.column).type != c.type) {
        return Status::InvalidArgument(StrFormat(
            "hash join output column '%s' is declared %s over %s input "
            "column '%s'",
            c.name.c_str(), ColumnTypeToString(c.type),
            ColumnTypeToString(side.field(c.column).type),
            side.field(c.column).name.c_str()));
      }
    }
  }
  const Schema out_schema =
      JoinOutputSchema(type_, output_cols_, left->schema());
  // An empty probe side joins nothing, whatever the join type: no build.
  if (left->NumRows() == 0) {
    auto out = Table::Make(out_schema);
    PROBKB_RETURN_NOT_OK(
        ctx->Record(MakeStats(Label(), build_rows, 0, timer.Seconds(), 2)));
    set_obs_rows(0);
    return out;
  }
  // Out-of-core path: when a memory budget is armed, no prebuilt index
  // exists, and the headroom cannot hold this join's working set (both
  // inputs plus the build index), rewrite to the grace-hash join:
  // partition both sides to disk, join partition pairs one at a time.
  // Purely physical — the output is bit-identical to the in-memory path
  // below at every thread count (see GraceHashJoin in ops.h and DESIGN.md
  // "Out-of-core").
  SpillContext* spill = ctx->spill();
  MemoryBudget* mem = spill != nullptr ? spill->budget() : nullptr;
  if (prebuilt_.index == nullptr && mem != nullptr && mem->enabled()) {
    // Build cost: the 8-byte hash array, 8 bytes/entry, and 12-byte slots
    // at 10/7..20/7 of the distinct keys.
    const int64_t working_bytes =
        left->ByteSize() + right->ByteSize() + right->NumRows() * 52;
    if (working_bytes > mem->AvailableBytes()) {
      // Fan out until one partition pair fits in ~1/8 of the headroom,
      // capped at 256 (the router's bit budget); skew and misestimates
      // are handled by recursion inside GraceHashJoin.
      const int64_t avail =
          std::max<int64_t>(mem->AvailableBytes(), int64_t{1} << 20);
      int parts = 2;
      while (parts < 256 && working_bytes * 8 > avail * parts) parts <<= 1;
      GraceJoinSpec gspec;
      gspec.left_keys = left_keys_;
      gspec.right_keys = right_keys_;
      gspec.type = type_;
      gspec.output_cols = output_cols_;
      gspec.residual = residual_;
      gspec.out_schema = out_schema;
      gspec.num_parts = parts;
      gspec.label = "grace";
      GraceJoinStats gstats;
      const int64_t input_rows = left->NumRows() + right->NumRows();
      PROBKB_ASSIGN_OR_RETURN(
          TablePtr gout, GraceHashJoin(spill, std::move(left),
                                       std::move(right), gspec, &gstats));
      NodeStats ns = MakeStats(Label(), input_rows, gout->NumRows(),
                               timer.Seconds(), 2);
      ns.build_partitions = gstats.partitions;
      ns.spill_partitions = gstats.spill_partitions;
      ns.spill_bytes_written = gstats.spill_bytes_written;
      ns.spill_bytes_read = gstats.spill_bytes_read;
      ns.page_faults_served = gstats.page_faults_served;
      PROBKB_RETURN_NOT_OK(ctx->Record(std::move(ns)));
      set_obs_rows(gout->NumRows());
      return gout;
    }
  }

  auto out = Table::Make(out_schema);

  ThreadPool* pool = ctx->thread_pool();

  // Build side: a prebuilt index (valid for the right table's first
  // prebuilt_.rows rows) or a transient one over the whole right input.
  Timer build_timer;
  const bool prebuilt = prebuilt_.index != nullptr;
  PartitionedRowIndex built(1);
  if (!prebuilt) built = BuildRightIndex(*right, right_keys_, pool);
  const double build_seconds = build_timer.Seconds();

  // Match pairs come from the shared probe kernel (batched prefetch
  // pipeline, chain walk bounded at build_rows) every kJoinFlushPairs
  // pairs, and are gathered into the output a column at a time.
  const JoinProbe probe(*left, left_keys_, *right, right_keys_,
                        prebuilt ? prebuilt_.index : nullptr, &built,
                        build_rows, type_, output_cols_, residual_,
                        left->width());

  // Morsel-parallel probe: fixed row ranges, each keeping its (left,
  // right) pairs; the pairs are then gathered into `out` in morsel order,
  // so the output is bit-identical to the serial probe loop regardless of
  // scheduling. Small probe sides run serially: morsel dispatch on a tiny
  // delta costs more than it saves.
  Timer probe_timer;
  if (pool != nullptr && pool->num_threads() > 1 &&
      left->NumRows() >= kParallelMinRows) {
    const int64_t morsels = (left->NumRows() + kMorselRows - 1) / kMorselRows;
    struct Pairs {
      std::vector<int64_t> left;
      std::vector<int64_t> right;
    };
    std::vector<Pairs> parts(static_cast<size_t>(morsels));
    pool->ParallelFor(morsels, 1, [&](int64_t m_begin, int64_t m_end) {
      for (int64_t m = m_begin; m < m_end; ++m) {
        Pairs& part = parts[static_cast<size_t>(m)];
        const int64_t begin = m * kMorselRows;
        const int64_t end = std::min(begin + kMorselRows, left->NumRows());
        probe.Probe(begin, end,
                    [&part](std::span<const int64_t> left_rows,
                            std::span<const int64_t> right_rows) {
                      part.left.insert(part.left.end(), left_rows.begin(),
                                       left_rows.end());
                      part.right.insert(part.right.end(), right_rows.begin(),
                                        right_rows.end());
                    });
      }
    });
    int64_t total = 0;
    for (const Pairs& part : parts) {
      total += static_cast<int64_t>(part.left.size());
    }
    out->ReserveRows(total);
    for (Pairs& part : parts) {
      probe.AppendOutput(part.left, part.right, out.get());
      part = Pairs{};
    }
  } else {
    probe.Probe(0, left->NumRows(),
                [&](std::span<const int64_t> left_rows,
                    std::span<const int64_t> right_rows) {
                  probe.AppendOutput(left_rows, right_rows, out.get());
                });
  }

  NodeStats ns = MakeStats(Label(), left->NumRows() + build_rows,
                           out->NumRows(), timer.Seconds(), 2);
  ns.build_seconds = build_seconds;
  ns.probe_seconds = probe_timer.Seconds();
  ns.rehashes = built.rehash_count();
  ns.build_partitions = built.num_parts();
  PROBKB_RETURN_NOT_OK(ctx->Record(std::move(ns)));
  set_obs_rows(out->NumRows());
  return out;
}

// DistinctNode ---------------------------------------------------------------

Result<TablePtr> DistinctNode::Execute(ExecContext* ctx) {
  PROBKB_RETURN_NOT_OK(ctx->CheckBudget(Label()));
  PROBKB_ASSIGN_OR_RETURN(TablePtr in, children_[0]->Execute(ctx));
  Timer timer;
  std::vector<int> keys = key_cols_;
  if (keys.empty()) {
    for (int c = 0; c < in->width(); ++c) keys.push_back(c);
  }
  PROBKB_RETURN_NOT_OK(FlatRowIndex::CheckCapacity(in->NumRows()));
  const std::vector<const int64_t*> words = RawKeyWords(*in, keys);
  const bool raw_keys = words.size() == keys.size();
  // Dedup set over the kept input rows; chains keyed on the row-key hash.
  // Batched prefetch pipeline: `seen` is pre-sized for every input row, so
  // its slot array never moves mid-scan and batch-ahead prefetches stay
  // valid even though rows are inserted during resolution.
  FlatRowIndex seen(in->NumRows());
  std::vector<int64_t> kept;
  size_t hashes[kProbeBatchRows];
  for (int64_t base = 0; base < in->NumRows(); base += kProbeBatchRows) {
    const int64_t batch = std::min(kProbeBatchRows, in->NumRows() - base);
    in->HashRows(keys, base, base + batch, hashes);
    for (int64_t k = 0; k < batch; ++k) seen.PrefetchHash(hashes[k]);
    for (int64_t k = 0; k < batch; ++k) {
      const int64_t i = base + k;
      const size_t h = hashes[k];
      bool dup = false;
      for (int64_t e = seen.Head(h); e >= 0 && !dup; e = seen.Next(e)) {
        const int64_t r = seen.Row(e);
        if (raw_keys) {
          size_t c = 0;
          while (c < words.size() && words[c][r] == words[c][i]) ++c;
          dup = c == words.size();
        } else {
          dup = RowKeyEquals(in->row(i), in->row(r), keys, keys);
        }
      }
      if (!dup) {
        seen.Insert(h, i);
        kept.push_back(i);
      }
    }
  }
  auto out = Table::Make(in->schema());
  out->AppendGatheredRows(*in, kept);
  NodeStats ns = MakeStats(Label(), in->NumRows(), out->NumRows(),
                           timer.Seconds(), 1);
  ns.rehashes = seen.rehash_count();
  PROBKB_RETURN_NOT_OK(ctx->Record(std::move(ns)));
  set_obs_rows(out->NumRows());
  return out;
}

// AggregateNode --------------------------------------------------------------

Result<TablePtr> AggregateNode::Execute(ExecContext* ctx) {
  PROBKB_RETURN_NOT_OK(ctx->CheckBudget(Label()));
  PROBKB_ASSIGN_OR_RETURN(TablePtr in, children_[0]->Execute(ctx));
  Timer timer;

  // Output schema: group columns (same name/type as input) then aggregates.
  std::vector<Field> fields;
  for (int c : group_cols_) fields.push_back(in->schema().field(c));
  for (const auto& a : aggs_) {
    ColumnType t = ColumnType::kInt64;
    if (a.kind == AggKind::kSum ||
        (a.kind != AggKind::kCount &&
         in->schema().field(a.column).type == ColumnType::kFloat64)) {
      t = ColumnType::kFloat64;
    }
    if (a.kind == AggKind::kSum &&
        in->schema().field(a.column).type == ColumnType::kInt64) {
      t = ColumnType::kInt64;
    }
    fields.push_back({a.name, t});
  }
  auto out = Table::Make(Schema(std::move(fields)));

  // Group ids in first-seen order: `groups` chains each group id under its
  // key hash, and first_row[g] is group g's first input row, whose keys
  // the chain walk compares (as Distinct does).
  const int64_t n = in->NumRows();
  PROBKB_RETURN_NOT_OK(FlatRowIndex::CheckCapacity(n));
  const std::vector<const int64_t*> words = RawKeyWords(*in, group_cols_);
  const bool raw_keys = words.size() == group_cols_.size();
  FlatRowIndex groups;
  std::vector<int64_t> first_row;
  std::vector<int32_t> group_of(static_cast<size_t>(n));
  size_t hashes[kProbeBatchRows];
  for (int64_t base = 0; base < n; base += kProbeBatchRows) {
    const int64_t batch = std::min(kProbeBatchRows, n - base);
    in->HashRows(group_cols_, base, base + batch, hashes);
    for (int64_t k = 0; k < batch; ++k) groups.PrefetchHash(hashes[k]);
    for (int64_t k = 0; k < batch; ++k) {
      const int64_t i = base + k;
      int64_t g = -1;
      for (int64_t e = groups.Head(hashes[k]); e >= 0 && g < 0;
           e = groups.Next(e)) {
        const int64_t r = first_row[static_cast<size_t>(groups.Row(e))];
        bool eq;
        if (raw_keys) {
          size_t c = 0;
          while (c < words.size() && words[c][r] == words[c][i]) ++c;
          eq = c == words.size();
        } else {
          eq = RowKeyEquals(in->row(i), in->row(r), group_cols_, group_cols_);
        }
        if (eq) g = groups.Row(e);
      }
      if (g < 0) {
        g = static_cast<int64_t>(first_row.size());
        groups.Insert(hashes[k], g);
        first_row.push_back(i);
      }
      group_of[static_cast<size_t>(i)] = static_cast<int32_t>(g);
    }
  }

  // Accumulators: one flat array per aggregate, indexed by group id, each
  // filled in one pass over the input. Rows fold in row order, so a
  // group's sum adds its cells in the order a row-at-a-time loop did.
  const size_t num_groups = first_row.size();
  std::vector<std::vector<Value>> acc(aggs_.size());
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const AggSpec& spec = aggs_[a];
    std::vector<Value>& values = acc[a];
    if (spec.kind == AggKind::kCount || spec.kind == AggKind::kSum) {
      std::vector<int64_t> count_or_sum(num_groups, 0);
      std::vector<double> sum_f(num_groups, 0.0);
      for (int64_t i = 0; i < n; ++i) {
        const size_t g = static_cast<size_t>(group_of[static_cast<size_t>(i)]);
        if (spec.kind == AggKind::kCount) {
          ++count_or_sum[g];
          continue;
        }
        const Value v = in->ValueAt(i, spec.column);
        if (v.is_float64()) sum_f[g] += v.f64();
        if (v.is_int64()) count_or_sum[g] += v.i64();
      }
      const bool f64 = spec.kind == AggKind::kSum &&
                       in->schema().field(spec.column).type ==
                           ColumnType::kFloat64;
      for (size_t g = 0; g < num_groups; ++g) {
        values.push_back(f64 ? Value::Float64(sum_f[g])
                             : Value::Int64(count_or_sum[g]));
      }
      continue;
    }
    // MIN / MAX: NULL until the group's first non-NULL cell.
    values.assign(num_groups, Value::Null());
    for (int64_t i = 0; i < n; ++i) {
      const Value v = in->ValueAt(i, spec.column);
      if (v.is_null()) continue;
      Value& best =
          values[static_cast<size_t>(group_of[static_cast<size_t>(i)])];
      if (best.is_null() ||
          (spec.kind == AggKind::kMin ? v < best : best < v)) {
        best = v;
      }
    }
  }

  // Output in first-seen group order.
  std::vector<Value> buf;
  for (size_t g = 0; g < num_groups; ++g) {
    buf.clear();
    for (int c : group_cols_) buf.push_back(in->ValueAt(first_row[g], c));
    for (const std::vector<Value>& a : acc) buf.push_back(a[g]);
    RowView out_row(buf.data(), static_cast<int>(buf.size()));
    if (having_ == nullptr || having_(out_row)) out->AppendRow(out_row);
  }

  PROBKB_RETURN_NOT_OK(ctx->Record(
      MakeStats(Label(), in->NumRows(), out->NumRows(), timer.Seconds(), 1)));
  set_obs_rows(out->NumRows());
  return out;
}

// UnionAllNode ---------------------------------------------------------------

Result<TablePtr> UnionAllNode::Execute(ExecContext* ctx) {
  PROBKB_RETURN_NOT_OK(ctx->CheckBudget(Label()));
  PROBKB_ASSIGN_OR_RETURN(TablePtr first, children_[0]->Execute(ctx));
  Timer timer;
  auto out = first->Clone();
  int64_t rows_in = first->NumRows();
  for (size_t i = 1; i < children_.size(); ++i) {
    PROBKB_ASSIGN_OR_RETURN(TablePtr t, children_[i]->Execute(ctx));
    if (t->width() != out->width()) {
      return Status::InvalidArgument("UNION ALL width mismatch");
    }
    rows_in += t->NumRows();
    out->AppendTable(*t);
  }
  PROBKB_RETURN_NOT_OK(ctx->Record(
      MakeStats(Label(), rows_in, out->NumRows(), timer.Seconds(),
                static_cast<int>(children_.size()))));
  set_obs_rows(out->NumRows());
  return out;
}

}  // namespace probkb
