#include "engine/executor.h"

#include <algorithm>
#include <unordered_map>

#include "engine/flat_hash.h"
#include "engine/ops.h"
#include "engine/tunables.h"
#include "util/strings.h"
#include "util/timer.h"

// Execution half of the plan layer: the PlanNode::Execute bodies. The
// structural IR (construction, Explain) lives in plan.cc. All batching /
// parallelism cutoffs come from the Tunables snapshot taken per operator;
// every knob only moves work between the bit-identical serial and parallel
// paths, so no setting can change any output.

namespace probkb {

namespace {

// Concatenated left+right row materialized for residual predicates.
void ConcatRow(const RowView& l, const RowView& r, std::vector<Value>* out) {
  out->clear();
  for (int c = 0; c < l.width(); ++c) out->push_back(l[c]);
  for (int c = 0; c < r.width(); ++c) out->push_back(r[c]);
}

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
                                    ThreadPool* pool, const Tunables& tun) {
  const int64_t build_rows = right.NumRows();
  const bool parallel_build = pool != nullptr && pool->num_threads() > 1 &&
                              build_rows >= tun.parallel_min_rows;
  std::vector<size_t> right_hashes(static_cast<size_t>(build_rows));
  const int64_t hash_chunk_rows = tun.hash_chunk_rows;
  if (parallel_build) {
    const int64_t chunks =
        (build_rows + hash_chunk_rows - 1) / hash_chunk_rows;
    pool->ParallelFor(chunks, 1, [&](int64_t cb, int64_t ce) {
      for (int64_t c = cb; c < ce; ++c) {
        const int64_t begin = c * hash_chunk_rows;
        const int64_t end = std::min(begin + hash_chunk_rows, build_rows);
        right.HashRows(right_keys, begin, end, right_hashes.data() + begin);
      }
    });
  } else if (build_rows > 0) {
    right.HashRows(right_keys, 0, build_rows, right_hashes.data());
  }

  int num_parts = 1;
  if (parallel_build) {
    while (num_parts < pool->num_threads() &&
           num_parts < tun.max_build_partitions) {
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
  auto out = Table::Make(in->schema());
  for (int64_t i = 0; i < in->NumRows(); ++i) {
    RowView row = in->row(i);
    if (pred_(row)) out->AppendRow(row);
  }
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
  auto out = Table::Make(output_schema_);
  // All-column projections with matching types are per-column vector
  // copies; anything with constants (or a type rewrite) materializes rows.
  bool all_columns = !exprs_.empty();
  for (const auto& e : exprs_) {
    if (e.kind != ProjectExpr::Kind::kColumn ||
        in->schema().field(e.column).type != e.type) {
      all_columns = false;
      break;
    }
  }
  if (all_columns) {
    std::vector<int> cols;
    cols.reserve(exprs_.size());
    for (const auto& e : exprs_) cols.push_back(e.column);
    out->AppendProjectedRows(*in, cols);
  } else {
    out->ReserveRows(in->NumRows());
    std::vector<Value> buf(exprs_.size());
    for (int64_t i = 0; i < in->NumRows(); ++i) {
      RowView row = in->row(i);
      for (size_t c = 0; c < exprs_.size(); ++c) {
        const auto& e = exprs_[c];
        buf[c] = e.kind == ProjectExpr::Kind::kColumn ? row[e.column]
                                                      : e.constant;
      }
      out->AppendRow(buf);
    }
  }
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
  const Tunables tun = GetTunables();
  const int64_t build_rows =
      prebuilt_.index != nullptr ? prebuilt_.rows : right->NumRows();
  PROBKB_RETURN_NOT_OK(FlatRowIndex::CheckCapacity(build_rows));

  Schema out_schema;
  if (type_ == JoinType::kInner) {
    if (output_cols_.empty()) {
      return Status::InvalidArgument(
          "inner hash join requires explicit output columns");
    }
    std::vector<Field> fields;
    fields.reserve(output_cols_.size());
    for (const auto& c : output_cols_) {
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
      fields.push_back({c.name, c.type});
    }
    out_schema = Schema(std::move(fields));
  } else {
    out_schema = left->schema();
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
      PROBKB_ASSIGN_OR_RETURN(TablePtr gout,
                              GraceHashJoin(spill, *left, *right, gspec,
                                            &gstats));
      NodeStats ns = MakeStats(Label(), left->NumRows() + right->NumRows(),
                               gout->NumRows(), timer.Seconds(), 2);
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
  if (!prebuilt) built = BuildRightIndex(*right, right_keys_, pool, tun);
  const double build_seconds = build_timer.Seconds();
  auto index_for = [&](size_t h) -> const FlatRowIndex& {
    return prebuilt ? *prebuilt_.index : built.PartFor(h);
  };

  // Probes a left-row range into `dst` with the batched prefetch pipeline:
  // hash a batch of probe keys, prefetch every batch member's slot, then
  // resolve the batch serially in row order — resolution order equals the
  // plain serial loop's, so output stays bit-identical at every thread
  // count. Chains are in row order, so a walk stops at the first row past
  // the build bound. Reads only shared immutable state (inputs, build
  // index, residual), so morsels can run it concurrently.
  auto probe_range = [&](int64_t begin, int64_t end, Table* dst) {
    std::vector<Value> out_buf(type_ == JoinType::kInner ? output_cols_.size()
                                                         : 0);
    std::vector<Value> concat_buf;
    size_t hashes[kProbeBatchRows];
    for (int64_t base = begin; base < end; base += kProbeBatchRows) {
      const int64_t batch = std::min(kProbeBatchRows, end - base);
      left->HashRows(left_keys_, base, base + batch, hashes);
      for (int64_t k = 0; k < batch; ++k) {
        index_for(hashes[k]).PrefetchHash(hashes[k]);
      }
      for (int64_t k = 0; k < batch; ++k) {
        const size_t h = hashes[k];
        RowView lrow = left->row(base + k);
        const FlatRowIndex& index = index_for(h);
        bool matched = false;
        for (int64_t e = index.Head(h); e >= 0; e = index.Next(e)) {
          const int64_t r = index.Row(e);
          if (r >= build_rows) break;
          RowView rrow = right->row(r);
          if (!RowKeyEquals(lrow, rrow, left_keys_, right_keys_)) continue;
          if (residual_ != nullptr) {
            ConcatRow(lrow, rrow, &concat_buf);
            if (!residual_(RowView(concat_buf.data(),
                                   static_cast<int>(concat_buf.size())))) {
              continue;
            }
          }
          matched = true;
          if (type_ == JoinType::kInner) {
            for (size_t c = 0; c < output_cols_.size(); ++c) {
              const auto& oc = output_cols_[c];
              out_buf[c] = oc.side == JoinOutputCol::Side::kLeft
                               ? lrow[oc.column]
                               : rrow[oc.column];
            }
            dst->AppendRow(out_buf);
          } else {
            break;  // semi/anti only need existence
          }
        }
        if (type_ == JoinType::kLeftSemi && matched) dst->AppendRow(lrow);
        if (type_ == JoinType::kLeftAnti && !matched) dst->AppendRow(lrow);
      }
    }
  };

  // Morsel-parallel probe: fixed row ranges, one private output table per
  // morsel, concatenated in morsel order — the output is bit-identical to
  // the serial probe loop regardless of scheduling. Small probe sides run
  // serially: morsel dispatch on a tiny delta costs more than it saves.
  const int64_t morsel_rows = tun.morsel_rows;
  Timer probe_timer;
  if (pool != nullptr && pool->num_threads() > 1 &&
      left->NumRows() >= tun.parallel_min_rows) {
    const int64_t morsels = (left->NumRows() + morsel_rows - 1) / morsel_rows;
    std::vector<TablePtr> parts(static_cast<size_t>(morsels));
    pool->ParallelFor(morsels, 1, [&](int64_t m_begin, int64_t m_end) {
      for (int64_t m = m_begin; m < m_end; ++m) {
        auto part = Table::Make(out_schema);
        int64_t begin = m * morsel_rows;
        int64_t end = std::min(begin + morsel_rows, left->NumRows());
        probe_range(begin, end, part.get());
        parts[static_cast<size_t>(m)] = std::move(part);
      }
    });
    for (const TablePtr& part : parts) out->AppendTable(*part);
  } else {
    probe_range(0, left->NumRows(), out.get());
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
  auto out = Table::Make(in->schema());
  // Dedup set over the output rows; chains keyed on the row-key hash.
  // Batched prefetch pipeline: `seen` is pre-sized for every input row, so
  // its slot array never moves mid-scan and batch-ahead prefetches stay
  // valid even though rows are inserted during resolution.
  FlatRowIndex seen(in->NumRows());
  size_t hashes[kProbeBatchRows];
  for (int64_t base = 0; base < in->NumRows(); base += kProbeBatchRows) {
    const int64_t batch = std::min(kProbeBatchRows, in->NumRows() - base);
    in->HashRows(keys, base, base + batch, hashes);
    for (int64_t k = 0; k < batch; ++k) seen.PrefetchHash(hashes[k]);
    for (int64_t k = 0; k < batch; ++k) {
      RowView row = in->row(base + k);
      const size_t h = hashes[k];
      bool dup = false;
      for (int64_t e = seen.Head(h); e >= 0; e = seen.Next(e)) {
        if (RowKeyEquals(row, out->row(seen.Row(e)), keys, keys)) {
          dup = true;
          break;
        }
      }
      if (!dup) {
        seen.Insert(h, out->NumRows());
        out->AppendRow(row);
      }
    }
  }
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

  struct GroupState {
    std::vector<Value> group;
    std::vector<int64_t> count;
    std::vector<double> sum_f;
    std::vector<int64_t> sum_i;
    std::vector<Value> min;
    std::vector<Value> max;
  };

  std::unordered_map<size_t, std::vector<GroupState>> groups;
  groups.reserve(1024);

  // Group-key hashes for the whole input in one batched pass.
  std::vector<size_t> row_hashes(static_cast<size_t>(in->NumRows()));
  if (in->NumRows() > 0) {
    in->HashRows(group_cols_, 0, in->NumRows(), row_hashes.data());
  }

  for (int64_t i = 0; i < in->NumRows(); ++i) {
    RowView row = in->row(i);
    size_t h = row_hashes[static_cast<size_t>(i)];
    auto& bucket = groups[h];
    GroupState* state = nullptr;
    for (auto& g : bucket) {
      bool eq = true;
      for (size_t k = 0; k < group_cols_.size(); ++k) {
        if (g.group[k] != row[group_cols_[k]]) {
          eq = false;
          break;
        }
      }
      if (eq) {
        state = &g;
        break;
      }
    }
    if (state == nullptr) {
      bucket.emplace_back();
      state = &bucket.back();
      state->group.reserve(group_cols_.size());
      for (int c : group_cols_) state->group.push_back(row[c]);
      state->count.assign(aggs_.size(), 0);
      state->sum_f.assign(aggs_.size(), 0.0);
      state->sum_i.assign(aggs_.size(), 0);
      state->min.assign(aggs_.size(), Value::Null());
      state->max.assign(aggs_.size(), Value::Null());
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const auto& spec = aggs_[a];
      switch (spec.kind) {
        case AggKind::kCount:
          ++state->count[a];
          break;
        case AggKind::kSum: {
          const Value& v = row[spec.column];
          if (v.is_float64()) {
            state->sum_f[a] += v.f64();
          } else if (v.is_int64()) {
            state->sum_i[a] += v.i64();
          }
          ++state->count[a];
          break;
        }
        case AggKind::kMin: {
          const Value& v = row[spec.column];
          if (!v.is_null() &&
              (state->min[a].is_null() || v < state->min[a])) {
            state->min[a] = v;
          }
          break;
        }
        case AggKind::kMax: {
          const Value& v = row[spec.column];
          if (!v.is_null() &&
              (state->max[a].is_null() || state->max[a] < v)) {
            state->max[a] = v;
          }
          break;
        }
      }
    }
  }

  std::vector<Value> buf;
  for (const auto& [h, bucket] : groups) {
    (void)h;
    for (const auto& g : bucket) {
      buf.clear();
      buf.insert(buf.end(), g.group.begin(), g.group.end());
      for (size_t a = 0; a < aggs_.size(); ++a) {
        switch (aggs_[a].kind) {
          case AggKind::kCount:
            buf.push_back(Value::Int64(g.count[a]));
            break;
          case AggKind::kSum:
            if (in->schema().field(aggs_[a].column).type ==
                ColumnType::kFloat64) {
              buf.push_back(Value::Float64(g.sum_f[a]));
            } else {
              buf.push_back(Value::Int64(g.sum_i[a]));
            }
            break;
          case AggKind::kMin:
            buf.push_back(g.min[a]);
            break;
          case AggKind::kMax:
            buf.push_back(g.max[a]);
            break;
        }
      }
      RowView out_row(buf.data(), static_cast<int>(buf.size()));
      if (having_ == nullptr || having_(out_row)) out->AppendRow(out_row);
    }
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
