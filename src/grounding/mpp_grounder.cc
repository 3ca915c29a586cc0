#include "grounding/mpp_grounder.h"

#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "engine/ops.h"
#include "util/strings.h"
#include "util/timer.h"

namespace probkb {

namespace {

// Atom-table columns holding (R, C1, C2) — the values TPi's canonical
// distribution hashes, so redistributing atoms on these keys collocates
// them with their TPi segment.
const std::vector<int> kAtomDistKeys = {atom::kR, atom::kC1, atom::kC2};

}  // namespace

MppGrounder::MppGrounder(const RelationalKB& rkb, int num_segments,
                         MppMode mode, GroundingOptions options,
                         CostParams cost_params)
    : FixpointGrounder(std::move(options), rkb.t_pi->NumRows()),
      ctx_(num_segments, cost_params),
      mode_(mode),
      planner_(MotionCostModel{cost_params.seconds_per_shipped_tuple,
                               cost_params.broadcast_tuple_discount,
                               cost_params.motion_latency, num_segments}),
      m_(rkb.m),
      t_omega_(rkb.t_omega),
      next_fact_id_(rkb.next_fact_id) {
  ctx_.set_planner(&planner_);
  ctx_.set_deadline_seconds(options_.deadline_seconds);
  ctx_.set_max_rows_per_statement(options_.max_rows_per_statement);
  // Motions and per-segment operators run on the shared pool and spill
  // session; results merge in canonical segment order, so the thread count
  // never changes any output.
  ctx_.set_thread_pool(pool_.get());
  ctx_.set_spill(spill_session_->context());
  auto distribute = [&](const Table& t, Distribution dist, std::string name) {
    return DistributedTable::Distribute(t, num_segments, std::move(dist),
                                        std::move(name));
  };
  t_pi_ = distribute(*rkb.t_pi, Distribution::Hash(ViewKeysT0()), "T0");
  if (mode_ == MppMode::kViews) {
    view_tx_ = distribute(*rkb.t_pi, Distribution::Hash(ViewKeysTx()), "Tx");
    view_ty_ = distribute(*rkb.t_pi, Distribution::Hash(ViewKeysTy()), "Ty");
    view_txy_ =
        distribute(*rkb.t_pi, Distribution::Hash(ViewKeysTxy()), "Txy");
  }
  // M never changes during the fixpoint: spread each M_p round-robin once.
  for (int p = 1; p <= kNumRuleStructures; ++p) {
    rules_[static_cast<size_t>(p - 1)] =
        distribute(*rkb.m[static_cast<size_t>(p - 1)], Distribution::Random(),
                   "M" + std::to_string(p));
  }
}

DistributedTablePtr MppGrounder::ProbeFor(
    const std::vector<int>& t_keys) const {
  if (mode_ == MppMode::kViews) {
    if (t_keys == ViewKeysTx()) return view_tx_;
    if (t_keys == ViewKeysTy()) return view_ty_;
    if (t_keys == ViewKeysTxy()) return view_txy_;
  }
  return t_pi_;
}

MppGrounder::RowMarks MppGrounder::SegmentRows() const {
  auto rows = [](const DistributedTablePtr& t) {
    std::vector<int64_t> out;
    if (t == nullptr) return out;
    for (int s = 0; s < t->num_segments(); ++s) {
      out.push_back(t->segment(s)->NumRows());
    }
    return out;
  };
  return {rows(t_pi_), rows(view_tx_), rows(view_ty_)};
}

void MppGrounder::ObserveStatement(const std::string& label, int64_t estimate,
                                   int64_t observed) {
  planner_.ObserveRows(label, observed);
  explain_lines_.push_back(
      StrFormat("%s: est=%lld obs=%lld\n", label.c_str(),
                static_cast<long long>(estimate),
                static_cast<long long>(observed)));
}

std::string MppGrounder::ExplainPlans() const {
  return FixpointGrounder::ExplainPlans() + planner_.ExplainDecisions();
}

Result<DistributedTablePtr> MppGrounder::Join(DistributedTablePtr left,
                                              DistributedTablePtr right,
                                              MppJoinSpec spec,
                                              int64_t cold_estimate) {
  spec.policy = motion_policy_;
  const int64_t estimate = planner_.ObservedRows(spec.label, cold_estimate);
  PROBKB_ASSIGN_OR_RETURN(
      DistributedTablePtr out,
      MppHashJoin(&ctx_, std::move(left), std::move(right), spec));
  ObserveStatement(spec.label, estimate, out->NumRows());
  return out;
}

std::vector<PrebuiltIndex> MppGrounder::RightIndex(
    const DistributedTablePtr& t, const std::vector<int>& keys,
    const std::vector<int64_t>* rows) const {
  const std::vector<TPiIndexes>* indexes =
      t == view_tx_ ? &tx_indexes_ : t == view_ty_ ? &ty_indexes_ : nullptr;
  if (indexes != nullptr && indexes->empty()) indexes = nullptr;
  if (indexes == nullptr && rows == nullptr) return {};
  std::vector<PrebuiltIndex> out;
  for (int s = 0; s < t->num_segments(); ++s) {
    const size_t i = static_cast<size_t>(s);
    PrebuiltIndex index = indexes != nullptr
                              ? (*indexes)[i].Find(t->segment(s).get(), keys)
                              : PrebuiltIndex{};
    if (rows != nullptr) {
      index.rows = (*rows)[i];
    } else if (index.index == nullptr) {
      index.rows = t->segment(s)->NumRows();
    }
    out.push_back(index);
  }
  return out;
}

Status MppGrounder::SyncViewIndexes() {
  if (!KeepsIndexes() || mode_ != MppMode::kViews) return Status::OK();
  const size_t n = static_cast<size_t>(ctx_.num_segments());
  if (tx_indexes_.empty()) {
    tx_indexes_.assign(n, TPiIndexes({ViewKeysTx()}));
    ty_indexes_.assign(n, TPiIndexes({ViewKeysTy()}));
  }
  // Each segment extends its own indexes over the rows the view refresh
  // appended since the last sync.
  std::vector<Status> statuses(n);
  ForEachSegment(&ctx_, view_tx_->PhysicalRows() + view_ty_->PhysicalRows(),
                 [&](int s) {
                   const size_t i = static_cast<size_t>(s);
                   statuses[i] = tx_indexes_[i].Sync(*view_tx_->segment(s));
                   if (statuses[i].ok()) {
                     statuses[i] = ty_indexes_[i].Sync(*view_ty_->segment(s));
                   }
                 });
  for (const Status& st : statuses) PROBKB_RETURN_NOT_OK(st);
  return Status::OK();
}

void MppGrounder::ClearIndexes() {
  tx_indexes_.clear();
  ty_indexes_.clear();
  merge_indexes_.clear();
  delta_marks_ = {};
}

Status MppGrounder::PlaceDeltaRules() {
  if (delta_rules_[0] != nullptr) return Status::OK();
  PROBKB_RETURN_NOT_OK(rule_indexes_.Build(m_));
  // Placement is free in the model, like T0's and the views' at
  // construction: every segment aliases the one indexed copy.
  for (int p = 1; p <= kNumRuleStructures; ++p) {
    const TablePtr& rules = rule_indexes_.partition(p).rules;
    delta_rules_[static_cast<size_t>(p - 1)] =
        std::make_shared<DistributedTable>(
            rules->schema(),
            std::vector<TablePtr>(static_cast<size_t>(ctx_.num_segments()),
                                  rules),
            Distribution::Replicated(), "M" + std::to_string(p));
  }
  return Status::OK();
}

std::vector<PrebuiltIndex> MppGrounder::RuleProbe(
    int p, const FlatRowIndex& index) const {
  return std::vector<PrebuiltIndex>(
      static_cast<size_t>(ctx_.num_segments()),
      {&index, rule_indexes_.partition(p).rules->NumRows()});
}

Result<DistributedTablePtr> MppGrounder::GroundAtomsPartition(int p) {
  const PartitionSpec& spec = GetPartitionSpec(p);
  MppJoinSpec js1;
  js1.left_keys = spec.m_keys1;
  js1.right_keys = spec.t_keys1;
  js1.output_cols = spec.body_length == 1 ? Len2AtomOutputCols(spec)
                                          : J1OutputCols(spec);
  js1.label = StrFormat("Query1-%d join1", p);
  // Cold start estimates the join at the (small) M_i side's size — the
  // paper-§5 assumption that rules, not facts, bound the intermediate;
  // warm iterations reuse the previous iteration's observation.
  PROBKB_ASSIGN_OR_RETURN(
      DistributedTablePtr j,
      Join(Rules(p), ProbeFor(spec.t_keys1), std::move(js1),
           Rules(p)->NumRows()));
  if (spec.body_length == 1) return j;

  DistributedTablePtr probe2 = ProbeFor(spec.t_keys2);
  MppJoinSpec js2;
  js2.left_keys = spec.j1_keys2;
  js2.right_keys = spec.t_keys2;
  js2.output_cols = Len3AtomOutputCols(spec);
  js2.label = StrFormat("Query1-%d join2", p);
  js2.right_index = RightIndex(probe2, spec.t_keys2);
  const int64_t rows = j->NumRows();
  return Join(std::move(j), std::move(probe2), std::move(js2), rows);
}

Result<DistributedTablePtr> MppGrounder::GroundDeltaAtomsPartition(
    int p, const DistributedTablePtr& delta, const RowMarks& marks) {
  const PartitionSpec& spec = GetPartitionSpec(p);
  const RuleIndexes::Partition& part = rule_indexes_.partition(p);
  const DistributedTablePtr& rules = delta_rules_[static_cast<size_t>(p - 1)];
  // (Δ, full): Δ atoms matched as body 1 meet their rules, which probe
  // body 2 over the whole view. Δ stays on its T0 segment and probes the
  // replicated rules' body-1 index in place: nothing moves.
  MppJoinSpec js1;
  js1.left_keys = ViewKeysT0();
  js1.right_keys = spec.m_keys1;
  js1.output_cols = spec.body_length == 1
                        ? DeltaLen2Cols(spec, /*order_key=*/false)
                        : DeltaJ1Cols(spec, /*order_key=*/false);
  js1.label = StrFormat("Query1-%d delta join1", p);
  js1.right_index = RuleProbe(p, part.body1);
  PROBKB_ASSIGN_OR_RETURN(DistributedTablePtr j1,
                          Join(delta, rules, std::move(js1), delta->NumRows()));
  if (spec.body_length == 1) return j1;

  DistributedTablePtr body2 = ProbeFor(spec.t_keys2);
  MppJoinSpec js2;
  js2.left_keys = spec.j1_keys2;
  js2.right_keys = spec.t_keys2;
  js2.output_cols = DeltaLen3Cols(spec, /*order_key=*/false);
  js2.label = StrFormat("Query1-%d delta join2", p);
  js2.right_index = RightIndex(body2, spec.t_keys2);
  const int64_t j1_rows = j1->NumRows();
  PROBKB_ASSIGN_OR_RETURN(
      DistributedTablePtr delta_full,
      Join(std::move(j1), std::move(body2), std::move(js2), j1_rows));

  // (old, Δ): Δ atoms matched as body 2 meet their rules, which probe body
  // 1 over the rows from before Δ only, so no derivation comes from both
  // passes.
  MppJoinSpec js3;
  js3.left_keys = ViewKeysT0();
  js3.right_keys = spec.m_keys2;
  js3.output_cols = DeltaJ2Cols(spec, /*order_key=*/false);
  js3.label = StrFormat("Query1-%d old-delta join1", p);
  js3.right_index = RuleProbe(p, part.body2);
  PROBKB_ASSIGN_OR_RETURN(DistributedTablePtr j2,
                          Join(delta, rules, std::move(js3), delta->NumRows()));
  DistributedTablePtr body1 = ProbeFor(spec.t2_keys1);
  const std::vector<int64_t>& old_rows = body1 == view_tx_   ? marks.tx
                                         : body1 == view_ty_ ? marks.ty
                                                             : marks.t0;
  MppJoinSpec js4;
  js4.left_keys = spec.j2_keys1;
  js4.right_keys = spec.t2_keys1;
  js4.output_cols = DeltaLen3Body1Cols(spec, /*order_key=*/false);
  js4.label = StrFormat("Query1-%d old-delta join2", p);
  js4.right_index = RightIndex(body1, spec.t2_keys1, &old_rows);
  const int64_t j2_rows = j2->NumRows();
  PROBKB_ASSIGN_OR_RETURN(
      DistributedTablePtr old_delta,
      Join(std::move(j2), std::move(body1), std::move(js4), j2_rows));

  // Both passes' atoms per segment; a pass whose segment is empty leaves
  // the other's as it is.
  std::vector<TablePtr> segments;
  for (int s = 0; s < ctx_.num_segments(); ++s) {
    const TablePtr& full = delta_full->segment(s);
    const TablePtr& old = old_delta->segment(s);
    if (old->NumRows() == 0 || full->NumRows() == 0) {
      segments.push_back(old->NumRows() == 0 ? full : old);
      continue;
    }
    auto both = Table::Make(full->schema());
    both->AppendTable(*full);
    both->AppendTable(*old);
    segments.push_back(std::move(both));
  }
  return std::make_shared<DistributedTable>(
      delta_full->schema(), std::move(segments), Distribution::Random(),
      delta_full->name());
}

namespace {

/// Sorts `rows` of `atoms` by content (R, x, C1, y, C2) and drops each row
/// equal to its predecessor.
void SortUniqueByContent(const Table& atoms, std::vector<int64_t>* rows) {
  std::array<const int64_t*, 5> cols;
  for (int c = atom::kR; c <= atom::kC2; ++c) {
    cols[static_cast<size_t>(c)] = atoms.Int64Data(c);
  }
  std::sort(rows->begin(), rows->end(), [&cols](int64_t a, int64_t b) {
    for (const int64_t* col : cols) {
      if (col[a] != col[b]) return col[a] < col[b];
    }
    return false;
  });
  auto last = std::unique(rows->begin(), rows->end(),
                          [&cols](int64_t a, int64_t b) {
                            for (const int64_t* col : cols) {
                              if (col[a] != col[b]) return false;
                            }
                            return true;
                          });
  rows->erase(last, rows->end());
}

}  // namespace

Result<int64_t> MppGrounder::MergeAtoms(const DistributedTable& atoms) {
  PROBKB_ASSIGN_OR_RETURN(
      DistributedTablePtr collocated,
      ctx_.Redistribute(atoms, kAtomDistKeys, "inferred_atoms"));

  const int n = ctx_.num_segments();
  if (merge_indexes_.empty()) {
    merge_indexes_.assign(static_cast<size_t>(n), TPiIndexes({ViewKeysTxy()}));
  }
  const bool bans = !bans_.empty();

  // Two-phase merge. Phase 1 (parallel): each segment drops the atoms
  // keyed by banned entities (segments only read the shared ban sets),
  // then selects the atoms its T0 segment lacks by probing the segment's
  // merge index, first extended over the rows appended since its last
  // use. Phase 2 (serial): append the selections in canonical segment
  // order, drawing fact ids from the shared counter — ids come out
  // identical regardless of thread count.
  std::vector<double> seg_seconds(static_cast<size_t>(n));
  std::vector<std::vector<int64_t>> selected(static_cast<size_t>(n));
  std::vector<Status> statuses(static_cast<size_t>(n));
  ForEachSegment(&ctx_, t_pi_->PhysicalRows() + collocated->PhysicalRows(),
                 [&](int s) {
    const size_t i = static_cast<size_t>(s);
    Timer timer;
    Table* seg = collocated->mutable_segment(s).get();
    if (bans) {
      DeleteWhere(seg, [this](const RowView& row) {
        return bans_.IsBanned(row);
      });
    }
    Result<std::vector<int64_t>> absent =
        merge_indexes_[i].AbsentAtoms(*t_pi_->segment(s), *seg);
    if (!absent.ok()) {
      statuses[i] = absent.status();
      return;
    }
    // Canonical append order: the atoms a segment lacks, deduplicated, in
    // content order. They are a policy-independent *set* (matches land on
    // the stationary side's segment no matter how the other side moved,
    // and Δ-driven and full passes derive the same new atoms), but their
    // arrival order depends on the plan — sorting makes the fact-id
    // assignment, and hence TPi, bit-identical across motion choices and
    // evaluation modes.
    selected[i] = absent.MoveValueOrDie();
    SortUniqueByContent(*seg, &selected[i]);
    seg_seconds[i] = timer.Seconds();
  });
  for (const Status& st : statuses) PROBKB_RETURN_NOT_OK(st);
  std::vector<int64_t> old_sizes(static_cast<size_t>(n));
  int64_t added = 0;
  for (int s = 0; s < n; ++s) {
    old_sizes[static_cast<size_t>(s)] = t_pi_->segment(s)->NumRows();
    added += AppendAtomRows(t_pi_->mutable_segment(s).get(),
                            *collocated->segment(s),
                            selected[static_cast<size_t>(s)],
                            &next_fact_id_);
  }
  ctx_.RecordCompute("union into T0", seg_seconds);

  if (mode_ == MppMode::kViews && added > 0) {
    // Incremental view maintenance: each T0 segment ships only its new rows
    // to each view.
    std::vector<const Table*> senders;
    for (int s = 0; s < n; ++s) senders.push_back(t_pi_->segment(s).get());
    for (const DistributedTablePtr& view : {view_tx_, view_ty_, view_txy_}) {
      std::vector<SegmentRouting> routes(static_cast<size_t>(n));
      ForEachSegment(&ctx_, added, [&](int s) {
        const size_t i = static_cast<size_t>(s);
        routes[i] = DistributedTable::Route(*senders[i], view->distribution(),
                                            n, old_sizes[i],
                                            senders[i]->NumRows());
      });
      std::vector<int64_t> received(static_cast<size_t>(n), 0);
      for (const SegmentRouting& route : routes) {
        for (int t = 0; t < n; ++t) {
          received[static_cast<size_t>(t)] += route.Count(t);
        }
      }
      // The refresh is a real motion: it consumes a motion index, checks
      // the deadline, and only mutates the view once that check passed.
      PROBKB_RETURN_NOT_OK(ctx_.AccountMotion(
          MppStep::Kind::kRedistribute, "refresh " + view->name(), added,
          t_pi_->schema().num_fields(), received));
      std::vector<TablePtr> segments;
      for (int t = 0; t < n; ++t) segments.push_back(view->mutable_segment(t));
      DistributedTable::Scatter(senders, routes, segments, ctx_.thread_pool());
    }
  }
  return added;
}

Result<int64_t> MppGrounder::RunIteration() {
  const int iteration = stats_.iterations + 1;
  // Fresh decision log per iteration, like the explain lines. The
  // observation history persists — it is what makes iteration N+1's
  // estimates warm.
  planner_.ClearDecisionLog();
  // Semi-naive: every derivation over rows before the marks ran in an
  // earlier iteration, so a new atom's derivations all use a Δ atom. The
  // full pass runs instead with no earlier iteration to lean on (no marks)
  // and under a memory budget. Taking the marks leaves a failed iteration's
  // successor to the full pass.
  const RowMarks marks = std::exchange(delta_marks_, RowMarks{});
  const RowMarks start = SegmentRows();
  const bool delta_driven = KeepsIndexes() &&
                            options_.evaluation == EvaluationMode::kSemiNaive &&
                            !marks.t0.empty();
  PROBKB_RETURN_NOT_OK(SyncViewIndexes());
  DistributedTablePtr delta;
  if (delta_driven) {
    PROBKB_RETURN_NOT_OK(PlaceDeltaRules());
    std::vector<TablePtr> segments;
    for (int s = 0; s < ctx_.num_segments(); ++s) {
      const Table& seg = *t_pi_->segment(s);
      auto rows = Table::Make(seg.schema());
      rows->AppendRows(seg, marks.t0[static_cast<size_t>(s)], seg.NumRows());
      segments.push_back(std::move(rows));
    }
    delta = std::make_shared<DistributedTable>(
        TPiSchema(), std::move(segments), Distribution::Hash(ViewKeysT0()),
        "Delta");
  }
  std::vector<DistributedTablePtr> inferred;
  for (int p = 1; p <= kNumRuleStructures; ++p) {
    if (Rules(p)->NumRows() == 0) continue;
    const double partition_start = ctx_.cost().simulated_seconds();
    PROBKB_ASSIGN_OR_RETURN(DistributedTablePtr atoms,
                            delta_driven
                                ? GroundDeltaAtomsPartition(p, delta, marks)
                                : GroundAtomsPartition(p));
    if (obs_ != nullptr) {
      obs_->RecordPartitionIteration(
          iteration, p, atoms->NumRows(),
          ctx_.cost().simulated_seconds() - partition_start);
    }
    inferred.push_back(std::move(atoms));
    ++stats_.statements;
  }
  int64_t added = 0;
  for (const DistributedTablePtr& atoms : inferred) {
    PROBKB_ASSIGN_OR_RETURN(int64_t merged, MergeAtoms(*atoms));
    added += merged;
  }
  delta_marks_ = start;
  // Under a memory budget the merge index lives for one iteration only.
  if (!KeepsIndexes()) merge_indexes_.clear();
  return added;
}

void MppGrounder::SaveState(GroundingCheckpoint* cp) const {
  cp->next_fact_id = next_fact_id_;
  cp->num_segments = ctx_.num_segments();
  // The gathered copy is informational (and lets the single-node reader
  // inspect it); the per-segment files are what resume restores.
  cp->t_pi = t_pi_->ToLocal();
  for (int s = 0; s < ctx_.num_segments(); ++s) {
    cp->t0_segments.push_back(t_pi_->segment(s));
  }
  if (mode_ == MppMode::kViews) {
    for (int s = 0; s < ctx_.num_segments(); ++s) {
      cp->tx_segments.push_back(view_tx_->segment(s));
      cp->ty_segments.push_back(view_ty_->segment(s));
      cp->txy_segments.push_back(view_txy_->segment(s));
    }
  }
  if (!delta_marks_.t0.empty()) {
    cp->delta_marks = Table::Make(DeltaMarksSchema());
    const bool views = !delta_marks_.tx.empty();
    for (size_t s = 0; s < delta_marks_.t0.size(); ++s) {
      cp->delta_marks->AppendRow(
          {Value::Int64(delta_marks_.t0[s]),
           Value::Int64(views ? delta_marks_.tx[s] : 0),
           Value::Int64(views ? delta_marks_.ty[s] : 0)});
    }
  }
}

Status MppGrounder::RestoreState(GroundingCheckpoint* cp) {
  if (cp->num_segments != ctx_.num_segments()) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint was taken with %d segments but the grounder has %d",
        cp->num_segments, ctx_.num_segments()));
  }
  const bool has_views = !cp->tx_segments.empty();
  if ((mode_ == MppMode::kViews) != has_views) {
    return Status::InvalidArgument(
        "checkpoint view mode does not match the grounder's MppMode");
  }
  t_pi_ = std::make_shared<DistributedTable>(
      TPiSchema(), cp->t0_segments, Distribution::Hash(ViewKeysT0()), "T0");
  if (mode_ == MppMode::kViews) {
    view_tx_ = std::make_shared<DistributedTable>(
        TPiSchema(), cp->tx_segments, Distribution::Hash(ViewKeysTx()), "Tx");
    view_ty_ = std::make_shared<DistributedTable>(
        TPiSchema(), cp->ty_segments, Distribution::Hash(ViewKeysTy()), "Ty");
    view_txy_ = std::make_shared<DistributedTable>(
        TPiSchema(), cp->txy_segments, Distribution::Hash(ViewKeysTxy()),
        "Txy");
  }
  next_fact_id_ = cp->next_fact_id;
  // The indexes are rebuilt on first use. With its Δ marks restored, the
  // first resumed iteration stays Δ-driven; a checkpoint without them
  // resumes through the full pass.
  ClearIndexes();
  const Table* marks = cp->delta_marks.get();
  for (int64_t s = 0; marks != nullptr && s < marks->NumRows(); ++s) {
    delta_marks_.t0.push_back(marks->ValueAt(s, 0).i64());
    if (mode_ == MppMode::kViews) {
      delta_marks_.tx.push_back(marks->ValueAt(s, 1).i64());
      delta_marks_.ty.push_back(marks->ValueAt(s, 2).i64());
    }
  }
  return Status::OK();
}

Result<DistributedTablePtr> MppGrounder::GroundFactorsPartition(int p) {
  const PartitionSpec& spec = GetPartitionSpec(p);
  const bool has_i3 = spec.body_length == 2;
  MppJoinSpec js1;
  js1.left_keys = spec.m_keys1;
  js1.right_keys = spec.t_keys1;
  js1.output_cols = spec.body_length == 1 ? Len2FactorCandidateCols(spec)
                                          : J1OutputCols(spec);
  js1.label = StrFormat("Query2-%d join1", p);
  PROBKB_ASSIGN_OR_RETURN(
      DistributedTablePtr candidates,
      Join(Rules(p), ProbeFor(spec.t_keys1), std::move(js1),
           Rules(p)->NumRows()));

  if (spec.body_length == 2) {
    DistributedTablePtr probe2 = ProbeFor(spec.t_keys2);
    MppJoinSpec js2;
    js2.left_keys = spec.j1_keys2;
    js2.right_keys = spec.t_keys2;
    js2.output_cols = Len3FactorCandidateCols(spec);
    js2.label = StrFormat("Query2-%d join2", p);
    js2.right_index = RightIndex(probe2, spec.t_keys2);
    const int64_t rows = candidates->NumRows();
    PROBKB_ASSIGN_OR_RETURN(
        candidates,
        Join(std::move(candidates), std::move(probe2), std::move(js2), rows));
  }

  MppJoinSpec js3;
  js3.left_keys = HeadJoinLeftKeys();
  js3.right_keys = ViewKeysTxy();
  js3.output_cols = FactorHeadOutputCols(has_i3);
  js3.label = StrFormat("Query2-%d head", p);
  const int64_t rows = candidates->NumRows();
  return Join(std::move(candidates), ProbeFor(ViewKeysTxy()), std::move(js3),
              rows);
}

Result<TablePtr> MppGrounder::RunFactorStatements() {
  PROBKB_RETURN_NOT_OK(SyncViewIndexes());
  auto t_phi = Table::Make(TPhiSchema());
  for (int p = 1; p <= kNumRuleStructures; ++p) {
    if (Rules(p)->NumRows() == 0) continue;
    PROBKB_ASSIGN_OR_RETURN(DistributedTablePtr factors,
                            GroundFactorsPartition(p));
    PROBKB_ASSIGN_OR_RETURN(TablePtr local, ctx_.Gather(*factors));
    t_phi->AppendTable(*local);
    ++stats_.statements;
  }
  {
    PROBKB_ASSIGN_OR_RETURN(
        DistributedTablePtr singles,
        PerSegment(&ctx_, t_pi_->PhysicalRows(), Distribution::Random(),
                   "singleton factors", [this](int s, ExecContext* ec) {
                     return SingletonFactors(t_pi_->segment(s), ec);
                   }));
    PROBKB_ASSIGN_OR_RETURN(TablePtr local, ctx_.Gather(*singles));
    t_phi->AppendTable(*local);
    ++stats_.statements;
  }
  return t_phi;
}

Result<int64_t> MppGrounder::ApplyConstraints() {
  ++stats_.statements;
  // T0 is hashed on (R, C1, C2), which lies inside both of Query 3's group
  // keys (R, e, Ce, Cother), so every group sits on one segment and each
  // segment runs the single-node statement over its own rows.
  PROBKB_ASSIGN_OR_RETURN(
      DistributedTablePtr violators,
      PerSegment(&ctx_, t_pi_->PhysicalRows(), Distribution::Random(),
                 "query3", [this](int s, ExecContext* ec) {
                   return FindConstraintViolators(t_pi_->segment(s),
                                                  t_omega_, ec);
                 }));
  // Record permanent bans so deleted entities are not re-derived, and
  // split the keys by side. A key may come from several segments; bans are
  // a set and the deletes only test membership, so repeats change nothing.
  std::vector<TablePtr> x_keys, y_keys;
  for (int s = 0; s < ctx_.num_segments(); ++s) {
    const Table& seg = *violators->segment(s);
    x_keys.push_back(Table::Make(seg.schema()));
    y_keys.push_back(Table::Make(seg.schema()));
    for (int64_t i = 0; i < seg.NumRows(); ++i) {
      RowView row = seg.row(i);
      const bool x_side = row[2].i64() == 1;
      bans_.Add(x_side, row[0].i64(), row[1].i64());
      (x_side ? x_keys : y_keys).back()->AppendRow(row);
    }
  }
  int64_t deleted = 0;
  for (const bool x_side : {true, false}) {
    // One broadcast per side serves T0 and every view.
    const DistributedTable side_keys(
        violators->schema(), x_side ? x_keys : y_keys, Distribution::Random(),
        x_side ? "violators x" : "violators y");
    PROBKB_ASSIGN_OR_RETURN(DistributedTablePtr keys,
                            ctx_.Broadcast(side_keys));
    const std::vector<int> dst_cols =
        x_side ? std::vector<int>{tpi::kX, tpi::kC1}
               : std::vector<int>{tpi::kY, tpi::kC2};
    PROBKB_ASSIGN_OR_RETURN(
        int64_t n,
        MppDeleteMatching(&ctx_, t_pi_.get(), dst_cols, *keys, {0, 1}));
    deleted += n;
    if (mode_ == MppMode::kViews) {
      for (const DistributedTablePtr& view : {view_tx_, view_ty_, view_txy_}) {
        PROBKB_RETURN_NOT_OK(
            MppDeleteMatching(&ctx_, view.get(), dst_cols, *keys, {0, 1})
                .status());
      }
    }
  }
  // Deletes compact the segments' row ids, so the indexes are rebuilt on
  // next use, and the next iteration runs the full pass.
  if (deleted > 0) ClearIndexes();
  return deleted;
}

TablePtr MppGrounder::GatherTPi() const { return t_pi_->ToLocal(); }

}  // namespace probkb
