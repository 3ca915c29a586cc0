#include "mpp/mpp_ops.h"

#include <algorithm>
#include <optional>

#include "engine/ops.h"
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
  FanOut(ctx->thread_pool(), ctx->num_segments(), total_rows, body);
}

Result<DistributedTablePtr> PerSegment(MppContext* ctx, int64_t input_rows,
                                       Distribution out_dist,
                                       const std::string& label,
                                       const SegmentStatement& statement,
                                       std::vector<TablePtr> preset) {
  PROBKB_CHECK(preset.empty() ||
               static_cast<int>(preset.size()) == ctx->num_segments());
  const bool once = out_dist.is_replicated();
  const size_t n = once ? 1 : static_cast<size_t>(ctx->num_segments());
  std::vector<TablePtr> out_segments = std::move(preset);
  out_segments.resize(n);
  std::vector<double> seg_seconds(n, 0.0);
  std::vector<Status> statuses(n);
  StatsRegistry* registry = ctx->stats_registry();
  std::vector<std::vector<NodeStats>> seg_nodes(registry != nullptr ? n : 0);
  auto run = [&](int s) {
    const size_t i = static_cast<size_t>(s);
    if (out_segments[i] != nullptr) return;
    ExecContext ec;
    ec.set_spill(ctx->spill());
    if (ctx->max_rows_per_statement() > 0) {
      ExecBudget budget;
      budget.max_produced_rows = ctx->max_rows_per_statement();
      ec.set_budget(budget);
    }
    Timer timer;
    Result<TablePtr> result = statement(s, &ec);
    seg_seconds[i] = timer.Seconds();
    if (registry != nullptr) {
      seg_nodes[i] = std::move(ec.mutable_stats()->nodes);
    }
    if (result.ok()) {
      out_segments[i] = result.MoveValueOrDie();
    } else {
      statuses[i] = result.status();
    }
  };
  if (once) {
    run(0);
  } else {
    ForEachSegment(ctx, input_rows, run);
  }
  for (const std::vector<NodeStats>& nodes : seg_nodes) {
    for (const NodeStats& node : nodes) {
      registry->RecordOp(label, ToOpRecord(node));
    }
  }
  for (const Status& st : statuses) PROBKB_RETURN_NOT_OK(st);
  ctx->RecordCompute(label, seg_seconds);
  if (once) {
    out_segments.assign(static_cast<size_t>(ctx->num_segments()),
                        out_segments[0]);
  }
  Schema schema = out_segments[0]->schema();
  return std::make_shared<DistributedTable>(std::move(schema),
                                            std::move(out_segments),
                                            std::move(out_dist), label);
}

Result<DistributedTablePtr> MppHashJoin(MppContext* ctx,
                                        DistributedTablePtr left,
                                        DistributedTablePtr right,
                                        MppJoinSpec spec) {
  if (spec.left_keys.size() != spec.right_keys.size()) {
    return Status::InvalidArgument("join key arity mismatch");
  }
  const bool bounded = !spec.right_index.empty();
  if (bounded &&
      static_cast<int>(spec.right_index.size()) != ctx->num_segments()) {
    return Status::InvalidArgument(
        "right_index needs one entry per segment of the right input");
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

  // Both replicated: PerSegment runs the join once and replicates the
  // result. If only the left is replicated (inner join), each left copy
  // joins its local right fragment exactly once, since the right side is
  // partitioned.
  const bool both_replicated = left->distribution().is_replicated() &&
                               right->distribution().is_replicated();
  Distribution out_dist = both_replicated ? Distribution::Replicated()
                                          : spec.output_dist;

  // Still in place and bounded: every segment has an index to probe.
  const bool probe_index = bounded && right == right_in;
  // A segment with no probe rows joins nothing: it runs no plan.
  std::vector<TablePtr> idle(static_cast<size_t>(ctx->num_segments()));
  std::optional<Schema> out_schema;
  for (int s = 0; s < ctx->num_segments(); ++s) {
    if (left->segment(s)->NumRows() > 0) continue;
    if (!out_schema) {
      out_schema = JoinOutputSchema(spec.type, spec.output_cols,
                                    left->schema());
    }
    idle[static_cast<size_t>(s)] = Table::Make(*out_schema);
  }
  return PerSegment(
      ctx, left->PhysicalRows() + (probe_index ? 0 : right->PhysicalRows()),
      std::move(out_dist), spec.label, [&](int s, ExecContext* ec) {
        const PrebuiltIndex index =
            probe_index ? spec.right_index[static_cast<size_t>(s)]
                        : PrebuiltIndex{};
        return HashJoin(Scan(left->segment(s), left->name()),
                        Scan(right->segment(s), right->name(),
                             probe_index ? index.rows : -1),
                        spec.left_keys, spec.right_keys, spec.type,
                        spec.output_cols, spec.residual, index)
            ->Execute(ec);
      },
      std::move(idle));
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
