#include "mpp/mpp_ops.h"

#include <algorithm>

#include "engine/ops.h"
#include "engine/tunables.h"
#include "util/timer.h"

namespace probkb {

namespace {

/// True if rows that agree on the paired join keys are guaranteed to be on
/// the same segment for both inputs: each side is hash-distributed on a
/// subsequence of its join keys and the subsequences are paired positionally
/// (so the hash inputs are equal across sides).
bool CollocatedOn(const Distribution& left, const Distribution& right,
                  const std::vector<int>& left_keys,
                  const std::vector<int>& right_keys) {
  if (!left.is_hash() || !right.is_hash()) return false;
  if (left.key_cols.size() != right.key_cols.size()) return false;
  if (left.key_cols.empty()) return false;
  size_t pos = 0;
  for (size_t i = 0; i < left.key_cols.size(); ++i) {
    bool found = false;
    while (pos < left_keys.size()) {
      if (left_keys[pos] == left.key_cols[i] &&
          right_keys[pos] == right.key_cols[i]) {
        found = true;
        ++pos;
        break;
      }
      ++pos;
    }
    if (!found) return false;
  }
  return true;
}

/// Runs `make_plan(segment_table_a, segment_table_b)` on every segment pair,
/// measuring per-segment time, and assembles a DistributedTable with the
/// declared distribution. Segments fan out onto the context's thread pool;
/// each gets a fresh ExecContext (no injector, no nested pool), and error
/// statuses surface in canonical segment order, so the threaded path reports
/// the same first failure as the serial one. With a stats registry attached,
/// each segment's operators are recorded under `label` after the fan-out,
/// in segment order, so the record stream is the same at any thread count.
template <typename MakePlan>
Result<DistributedTablePtr> PerSegment(MppContext* ctx, int num_segments,
                                       int64_t input_rows,
                                       const Schema* out_schema_hint,
                                       Distribution out_dist,
                                       const std::string& label,
                                       MakePlan make_plan) {
  std::vector<TablePtr> out_segments(static_cast<size_t>(num_segments));
  std::vector<double> seg_seconds(static_cast<size_t>(num_segments), 0.0);
  std::vector<Status> statuses(static_cast<size_t>(num_segments));
  StatsRegistry* registry = ctx->stats_registry();
  std::vector<std::vector<NodeStats>> seg_nodes(
      registry != nullptr ? static_cast<size_t>(num_segments) : 0);
  ForEachSegment(ctx, input_rows, [&](int s) {
    ExecContext ec;
    ec.set_spill(ctx->spill());
    Timer timer;
    PlanNodePtr plan = make_plan(s);
    Result<TablePtr> result = plan->Execute(&ec);
    seg_seconds[static_cast<size_t>(s)] = timer.Seconds();
    if (registry != nullptr) {
      seg_nodes[static_cast<size_t>(s)] = std::move(ec.mutable_stats()->nodes);
    }
    if (result.ok()) {
      out_segments[static_cast<size_t>(s)] = result.MoveValueOrDie();
    } else {
      statuses[static_cast<size_t>(s)] = result.status();
    }
  });
  for (const std::vector<NodeStats>& nodes : seg_nodes) {
    for (const NodeStats& node : nodes) {
      registry->RecordOp(label, ToOpRecord(node));
    }
  }
  for (const Status& st : statuses) PROBKB_RETURN_NOT_OK(st);
  ctx->RecordCompute(label, seg_seconds);
  Schema schema =
      out_schema_hint != nullptr ? *out_schema_hint : out_segments[0]->schema();
  return std::make_shared<DistributedTable>(schema, std::move(out_segments),
                                            std::move(out_dist), label);
}

/// `t` with segment s cut to its first `bounds[s].rows` rows; segments
/// within their bound are shared, not copied.
DistributedTablePtr CutRows(const DistributedTable& t,
                            const std::vector<PrebuiltIndex>& bounds) {
  std::vector<TablePtr> segments;
  for (int s = 0; s < t.num_segments(); ++s) {
    const TablePtr& seg = t.segment(s);
    const int64_t rows = bounds[static_cast<size_t>(s)].rows;
    if (rows >= seg->NumRows()) {
      segments.push_back(seg);
      continue;
    }
    auto cut = Table::Make(seg->schema());
    cut->AppendRows(*seg, 0, rows);
    segments.push_back(std::move(cut));
  }
  return std::make_shared<DistributedTable>(t.schema(), std::move(segments),
                                            t.distribution(), t.name());
}

}  // namespace

void ForEachSegment(MppContext* ctx, int64_t total_rows,
                    const std::function<void(int)>& body) {
  const int n = ctx->num_segments();
  ThreadPool* pool = ctx->thread_pool();
  if (pool != nullptr && pool->num_threads() > 1 && n > 1 &&
      total_rows >= kSerialFanoutRowCutoff) {
    pool->ParallelFor(n, 1, [&](int64_t begin, int64_t end) {
      for (int64_t s = begin; s < end; ++s) body(static_cast<int>(s));
    });
  } else {
    for (int s = 0; s < n; ++s) body(s);
  }
}

Result<DistributedTablePtr> MppHashJoin(MppContext* ctx,
                                        DistributedTablePtr left,
                                        DistributedTablePtr right,
                                        MppJoinSpec spec) {
  if (spec.left_keys.size() != spec.right_keys.size()) {
    return Status::InvalidArgument("join key arity mismatch");
  }
  const int n = ctx->num_segments();
  const bool bounded = !spec.right_index.empty();
  if (bounded && (static_cast<int>(spec.right_index.size()) != n ||
                  right->distribution().is_replicated())) {
    return Status::InvalidArgument(
        "right_index needs one entry per segment of a partitioned right "
        "input");
  }
  // The right input as the join sees it: cut to its bounds, copied before
  // it moves (or up front when a segment has no index to probe).
  const DistributedTablePtr right_in = right;
  auto cut_right = [&] {
    if (bounded && right == right_in) right = CutRows(*right, spec.right_index);
  };
  int64_t right_rows = right->NumRows();
  if (bounded) {
    right_rows = 0;
    for (const PrebuiltIndex& bound : spec.right_index) {
      right_rows += bound.rows;
    }
    if (std::ranges::any_of(spec.right_index, [](const PrebuiltIndex& p) {
          return p.index == nullptr;
        })) {
      cut_right();
    }
  }

  // Semi/anti joins need every probe (left) row to see the *entire* build
  // side relevant to its key. A replicated left with a partitioned right
  // would test each left copy against a fragment only; force a broadcast
  // of the right side in that case.
  if (left->distribution().is_replicated() &&
      !right->distribution().is_replicated()) {
    if (spec.type != JoinType::kInner) {
      cut_right();
      PROBKB_ASSIGN_OR_RETURN(right, ctx->Broadcast(*right));
    }
  }

  // Motion planning: establish collocation.
  if (!right->distribution().is_replicated() &&
      !left->distribution().is_replicated() &&
      !CollocatedOn(left->distribution(), right->distribution(),
                    spec.left_keys, spec.right_keys)) {
    // Resolve the policy to a concrete motion. kAuto asks the attached
    // planner to cost the candidates from the actual input sizes; with no
    // planner it is the static redistribute rule (the pre-planner
    // behavior, so kAuto stays byte-for-byte compatible by default).
    MotionChoice choice = MotionChoice::kRedistribute;
    switch (spec.policy) {
      case MotionPolicy::kAuto: {
        if (AdaptivePlanner* planner = ctx->planner(); planner != nullptr) {
          JoinMotionQuery q;
          q.statement = spec.label;
          q.left_rows = left->NumRows();
          q.right_rows = right_rows;
          q.left_collocated = left->distribution().IsHashOn(spec.left_keys);
          q.right_collocated = right->distribution().IsHashOn(spec.right_keys);
          q.inner_join = spec.type == JoinType::kInner;
          choice = planner->DecideJoinMotion(q).choice;
        }
        break;
      }
      case MotionPolicy::kRedistribute:
        choice = MotionChoice::kRedistribute;
        break;
      case MotionPolicy::kBroadcastRight:
        choice = MotionChoice::kBroadcastRight;
        break;
      case MotionPolicy::kBroadcastLeft:
        choice = MotionChoice::kBroadcastLeft;
        break;
    }
    switch (choice) {
      case MotionChoice::kRedistribute: {
        if (!left->distribution().IsHashOn(spec.left_keys)) {
          PROBKB_ASSIGN_OR_RETURN(left,
                                  ctx->Redistribute(*left, spec.left_keys));
        }
        if (!right->distribution().IsHashOn(spec.right_keys)) {
          cut_right();
          PROBKB_ASSIGN_OR_RETURN(right,
                                  ctx->Redistribute(*right, spec.right_keys));
        }
        break;
      }
      case MotionChoice::kBroadcastRight: {
        cut_right();
        PROBKB_ASSIGN_OR_RETURN(right, ctx->Broadcast(*right));
        break;
      }
      case MotionChoice::kBroadcastLeft: {
        if (spec.type != JoinType::kInner) {
          return Status::InvalidArgument(
              "broadcast-left is only valid for inner joins");
        }
        PROBKB_ASSIGN_OR_RETURN(left, ctx->Broadcast(*left));
        break;
      }
    }
  }

  // Both replicated: run the join once and replicate the result.
  const bool both_replicated = left->distribution().is_replicated() &&
                               right->distribution().is_replicated();

  // If only the left is replicated (inner join), each left copy must join
  // against its local right fragment exactly once — that already works per
  // segment because the right side is partitioned.

  Distribution out_dist = both_replicated ? Distribution::Replicated()
                                          : spec.output_dist;

  if (both_replicated) {
    ExecContext ec;
    ec.set_spill(ctx->spill());
    Timer timer;
    auto plan = HashJoin(Scan(left->segment(0), left->name()),
                         Scan(right->segment(0), right->name()),
                         spec.left_keys, spec.right_keys, spec.type,
                         spec.output_cols, spec.residual);
    PROBKB_ASSIGN_OR_RETURN(TablePtr result, plan->Execute(&ec));
    ctx->RecordCompute(spec.label, {timer.Seconds()});
    std::vector<TablePtr> segments(static_cast<size_t>(n), result);
    return std::make_shared<DistributedTable>(result->schema(),
                                              std::move(segments),
                                              std::move(out_dist), spec.label);
  }

  // Still in place and bounded: every segment has an index to probe.
  const bool probe_index = bounded && right == right_in;
  auto left_ref = left;
  auto right_ref = right;
  return PerSegment(
      ctx, n, left->PhysicalRows() + (probe_index ? 0 : right->PhysicalRows()),
      nullptr, std::move(out_dist), spec.label, [&](int s) {
        const PrebuiltIndex index =
            probe_index ? spec.right_index[static_cast<size_t>(s)]
                        : PrebuiltIndex{};
        return HashJoin(
            Scan(left_ref->segment(s), left_ref->name()),
            Scan(right_ref->segment(s), right_ref->name(),
                 probe_index ? index.rows : -1),
            spec.left_keys, spec.right_keys, spec.type, spec.output_cols,
            spec.residual, index);
      });
}

Result<DistributedTablePtr> MppFilterProject(
    MppContext* ctx, DistributedTablePtr input, RowPredicate pred,
    std::optional<std::vector<ProjectExpr>> exprs, Distribution output_dist,
    const std::string& label) {
  return PerSegment(
      ctx, ctx->num_segments(), input->PhysicalRows(), nullptr,
      std::move(output_dist), label, [&](int s) {
        PlanNodePtr plan = Scan(input->segment(s), input->name());
        if (pred != nullptr) plan = Filter(std::move(plan), pred);
        if (exprs.has_value()) plan = Project(std::move(plan), *exprs);
        return plan;
      });
}

Result<DistributedTablePtr> MppDistinct(MppContext* ctx,
                                        DistributedTablePtr input,
                                        std::vector<int> key_cols,
                                        const std::string& label) {
  if (!input->distribution().is_replicated() &&
      !input->distribution().HashKeySubsetOf(key_cols)) {
    PROBKB_ASSIGN_OR_RETURN(input, ctx->Redistribute(*input, key_cols));
  }
  if (input->distribution().is_replicated()) {
    // Distinct of a replicated table stays replicated; run once.
    ExecContext ec;
    ec.set_spill(ctx->spill());
    Timer timer;
    auto plan = Distinct(Scan(input->segment(0), input->name()), key_cols);
    PROBKB_ASSIGN_OR_RETURN(TablePtr result, plan->Execute(&ec));
    ctx->RecordCompute(label, {timer.Seconds()});
    std::vector<TablePtr> segments(
        static_cast<size_t>(ctx->num_segments()), result);
    return std::make_shared<DistributedTable>(result->schema(),
                                              std::move(segments),
                                              Distribution::Replicated(),
                                              label);
  }
  Distribution out_dist = input->distribution();
  auto input_ref = input;
  return PerSegment(ctx, ctx->num_segments(), input->PhysicalRows(), nullptr,
                    std::move(out_dist), label, [&](int s) {
                      return Distinct(
                          Scan(input_ref->segment(s), input_ref->name()),
                          key_cols);
                    });
}

Result<DistributedTablePtr> MppAggregate(MppContext* ctx,
                                         DistributedTablePtr input,
                                         std::vector<int> group_cols,
                                         std::vector<AggSpec> aggs,
                                         RowPredicate having,
                                         const std::string& label) {
  if (!input->distribution().is_replicated() &&
      !input->distribution().HashKeySubsetOf(group_cols)) {
    PROBKB_ASSIGN_OR_RETURN(input, ctx->Redistribute(*input, group_cols));
  }
  if (input->distribution().is_replicated()) {
    return Status::InvalidArgument(
        "MppAggregate over a replicated input is not supported; gather it");
  }
  // Output groups keyed by group columns 0..k-1 of the output schema.
  std::vector<int> out_keys;
  for (size_t i = 0; i < group_cols.size(); ++i) {
    out_keys.push_back(static_cast<int>(i));
  }
  // The input hash key (a subset of group_cols) maps to output positions.
  std::vector<int> out_dist_keys;
  for (int k : input->distribution().key_cols) {
    for (size_t i = 0; i < group_cols.size(); ++i) {
      if (group_cols[i] == k) {
        out_dist_keys.push_back(static_cast<int>(i));
        break;
      }
    }
  }
  auto input_ref = input;
  return PerSegment(
      ctx, ctx->num_segments(), input->PhysicalRows(), nullptr,
      out_dist_keys.empty() ? Distribution::Random()
                            : Distribution::Hash(out_dist_keys),
      label, [&](int s) {
        return Aggregate(Scan(input_ref->segment(s), input_ref->name()),
                         group_cols, aggs, having);
      });
}

Result<int64_t> MppDeleteMatching(MppContext* ctx, DistributedTable* dst,
                                  const std::vector<int>& dst_cols,
                                  const DistributedTable& keys,
                                  const std::vector<int>& key_cols) {
  DistributedTablePtr keys_ready;
  if (keys.distribution().is_replicated()) {
    keys_ready = std::make_shared<DistributedTable>(keys);
  } else {
    PROBKB_ASSIGN_OR_RETURN(keys_ready, ctx->Broadcast(keys));
  }
  // Broadcast keys share one TablePtr across segments — concurrent const
  // reads are safe; each segment deletes from its own partition.
  const int n = ctx->num_segments();
  std::vector<double> seg_seconds(static_cast<size_t>(n));
  std::vector<int64_t> seg_deleted(static_cast<size_t>(n), 0);
  ForEachSegment(ctx, dst->PhysicalRows() + keys_ready->PhysicalRows(),
                 [&](int s) {
    Timer timer;
    seg_deleted[static_cast<size_t>(s)] =
        DeleteMatching(dst->mutable_segment(s).get(), dst_cols,
                       *keys_ready->segment(s), key_cols);
    seg_seconds[static_cast<size_t>(s)] = timer.Seconds();
  });
  int64_t deleted = 0;
  for (int64_t d : seg_deleted) deleted += d;
  ctx->RecordCompute("delete from " + dst->name(), seg_seconds);
  return deleted;
}

}  // namespace probkb
