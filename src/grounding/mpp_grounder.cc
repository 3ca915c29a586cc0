#include "grounding/mpp_grounder.h"

#include <algorithm>
#include <memory>

#include "engine/ops.h"
#include "engine/tunables.h"
#include "obs/trace.h"
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
                         CostParams cost_params, FaultInjector* injector,
                         RetryPolicy retry)
    : ctx_(num_segments, cost_params),
      mode_(mode),
      options_(options),
      planner_(MotionCostModel{cost_params.seconds_per_shipped_tuple,
                               cost_params.broadcast_tuple_discount,
                               cost_params.motion_latency, num_segments}),
      m_(rkb.m),
      t_omega_(rkb.t_omega),
      next_fact_id_(rkb.next_fact_id) {
  ctx_.set_planner(&planner_);
  ctx_.set_fault_injector(injector);
  ctx_.set_retry_policy(retry);
  ctx_.set_deadline_seconds(options_.deadline_seconds);
  const int threads = ThreadPool::ResolveThreads(options_.num_threads);
  if (threads > 1) {
    pool_ = std::make_unique<ThreadPool>(threads);
    ctx_.set_thread_pool(pool_.get());
  }
  spill_session_ = std::make_unique<SpillSession>(options_.mem_budget_bytes,
                                                  options_.spill_dir);
  ctx_.set_spill(spill_session_->context());
  stats_.initial_atoms = rkb.t_pi->NumRows();
  t_pi_ = DistributedTable::Distribute(*rkb.t_pi, num_segments,
                                       Distribution::Hash(ViewKeysT0()), "T0");
  if (mode_ == MppMode::kViews) {
    view_tx_ = DistributedTable::Distribute(
        *rkb.t_pi, num_segments, Distribution::Hash(ViewKeysTx()), "Tx");
    view_ty_ = DistributedTable::Distribute(
        *rkb.t_pi, num_segments, Distribution::Hash(ViewKeysTy()), "Ty");
    view_txy_ = DistributedTable::Distribute(
        *rkb.t_pi, num_segments, Distribution::Hash(ViewKeysTxy()), "Txy");
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

void MppGrounder::ObserveStatement(const std::string& label, int64_t estimate,
                                   int64_t observed) {
  planner_.ObserveRows(label, observed);
  explain_lines_.push_back(
      StrFormat("%s: est=%lld obs=%lld\n", label.c_str(),
                static_cast<long long>(estimate),
                static_cast<long long>(observed)));
}

std::string MppGrounder::ExplainPlans() const {
  std::string out;
  for (const std::string& line : explain_lines_) out += line;
  out += planner_.ExplainDecisions();
  return out;
}

Result<DistributedTablePtr> MppGrounder::GroundAtomsPartition(int p) {
  const PartitionSpec& spec = GetPartitionSpec(p);
  TablePtr m_local = m_[static_cast<size_t>(p - 1)];
  auto m_dist =
      DistributedTable::Distribute(*m_local, ctx_.num_segments(),
                                   Distribution::Random(),
                                   "M" + std::to_string(p));
  DistributedTablePtr probe1 = ProbeFor(spec.t_keys1);

  MppJoinSpec js1;
  js1.left_keys = spec.m_keys1;
  js1.right_keys = spec.t_keys1;
  js1.type = JoinType::kInner;
  js1.output_cols = spec.body_length == 1 ? Len2AtomOutputCols(spec)
                                          : J1OutputCols(spec);
  js1.output_dist = Distribution::Random();
  js1.label = StrFormat("Query1-%d join1", p);
  js1.policy = motion_policy_;
  // Cold start estimates the join at the (small) M_i side's size — the
  // paper-§5 assumption that rules, not facts, bound the intermediate;
  // warm iterations reuse the previous iteration's observation.
  const int64_t est1 = planner_.ObservedRows(js1.label, m_local->NumRows());
  PROBKB_ASSIGN_OR_RETURN(DistributedTablePtr j,
                          MppHashJoin(&ctx_, m_dist, probe1, js1));
  ObserveStatement(js1.label, est1, j->NumRows());
  if (spec.body_length == 1) return j;

  DistributedTablePtr probe2 = ProbeFor(spec.t_keys2);
  MppJoinSpec js2;
  js2.left_keys = spec.j1_keys2;
  js2.right_keys = spec.t_keys2;
  js2.type = JoinType::kInner;
  js2.output_cols = Len3AtomOutputCols(spec);
  js2.output_dist = Distribution::Random();
  js2.label = StrFormat("Query1-%d join2", p);
  js2.policy = motion_policy_;
  const int64_t est2 = planner_.ObservedRows(js2.label, j->NumRows());
  PROBKB_ASSIGN_OR_RETURN(DistributedTablePtr j2,
                          MppHashJoin(&ctx_, j, probe2, js2));
  ObserveStatement(js2.label, est2, j2->NumRows());
  return j2;
}

namespace {

uint64_t BanKey(int64_t entity, int64_t cls) {
  PROBKB_DCHECK(cls >= 0 && cls < (1 << 20));
  return (static_cast<uint64_t>(entity) << 20) | static_cast<uint64_t>(cls);
}

}  // namespace

Result<int64_t> MppGrounder::MergeAtoms(const DistributedTable& atoms) {
  PROBKB_ASSIGN_OR_RETURN(
      DistributedTablePtr collocated,
      ctx_.Redistribute(atoms, kAtomDistKeys, "inferred_atoms"));

  const int n = ctx_.num_segments();
  // Fan-out gated on the rows the phase actually touches: per-iteration
  // deltas are often tiny, and dispatching n segment tasks for a few
  // hundred rows costs more than the work (the fig6c regression).
  auto for_each_segment = [&](int64_t total_rows,
                              const std::function<void(int)>& body) {
    if (pool_ != nullptr && pool_->num_threads() > 1 && n > 1 &&
        total_rows >= kSerialFanoutRowCutoff) {
      pool_->ParallelFor(n, 1, [&](int64_t begin, int64_t end) {
        for (int64_t s = begin; s < end; ++s) body(static_cast<int>(s));
      });
    } else {
      for (int s = 0; s < n; ++s) body(s);
    }
  };

  // Drop atoms keyed by banned entities (per-segment, no motion needed;
  // segments only read the shared ban sets, so the fan-out is safe).
  if (!banned_x_keys_.empty() || !banned_y_keys_.empty()) {
    for_each_segment(collocated->PhysicalRows(), [&](int s) {
      DeleteWhere(collocated->mutable_segment(s).get(),
                  [this](const RowView& row) {
                    return banned_x_keys_.count(BanKey(
                               row[atom::kX].i64(), row[atom::kC1].i64())) >
                               0 ||
                           banned_y_keys_.count(BanKey(
                               row[atom::kY].i64(), row[atom::kC2].i64())) >
                               0;
                  });
    });
  }

  // Two-phase merge. Phase 1 (parallel): per-segment read-only dedup
  // selecting the new atom rows. Phase 2 (serial): append the selections
  // in canonical segment order, drawing fact ids from the shared counter —
  // ids come out identical to the serial engine's regardless of thread
  // count.
  std::vector<int64_t> old_sizes(static_cast<size_t>(n));
  std::vector<double> seg_seconds(static_cast<size_t>(n));
  std::vector<std::vector<int64_t>> selected(static_cast<size_t>(n));
  for_each_segment(t_pi_->PhysicalRows() + collocated->PhysicalRows(),
                   [&](int s) {
    Timer timer;
    std::vector<int64_t>& rows = selected[static_cast<size_t>(s)];
    rows = SelectNewAtomRows(*t_pi_->segment(s), *collocated->segment(s));
    // Canonical append order: sort the selection by atom content. The
    // selected rows of a segment are a policy-independent *set* (matches
    // land on the stationary side's segment no matter how the other side
    // moved), but their arrival order depends on the motions the planner
    // chose — sorting makes the fact-id assignment, and hence TPi,
    // bit-identical across broadcast/redistribute plan choices. Rows are
    // unique after dedup, so the order is total.
    const Table& seg = *collocated->segment(s);
    std::sort(rows.begin(), rows.end(), [&seg](int64_t a, int64_t b) {
      for (int c = atom::kR; c <= atom::kC2; ++c) {
        const int64_t va = seg.row(a)[c].i64();
        const int64_t vb = seg.row(b)[c].i64();
        if (va != vb) return va < vb;
      }
      return false;
    });
    seg_seconds[static_cast<size_t>(s)] = timer.Seconds();
  });
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
    // Incremental view maintenance: ship only the delta rows to each view.
    // Each delta row remembers its T0 origin segment so an injected fault
    // can replay exactly the victim's contribution.
    Table delta(TPiSchema());
    std::vector<int> origin;
    for (int s = 0; s < n; ++s) {
      const Table& seg = *t_pi_->segment(s);
      const int64_t from = old_sizes[static_cast<size_t>(s)];
      delta.AppendRows(seg, from, seg.NumRows());
      origin.insert(origin.end(), static_cast<size_t>(seg.NumRows() - from),
                    s);
    }
    for (DistributedTablePtr view : {view_tx_, view_ty_, view_txy_}) {
      const auto& keys = view->distribution().key_cols;
      std::vector<int> targets(static_cast<size_t>(delta.NumRows()));
      if (delta.NumRows() > 0) {
        DistributedTable::TargetSegments(delta, keys, n, 0, delta.NumRows(),
                                         targets.data());
      }
      std::vector<std::vector<int64_t>> sent(
          static_cast<size_t>(n),
          std::vector<int64_t>(static_cast<size_t>(n)));
      std::vector<int64_t> received(static_cast<size_t>(n), 0);
      for (int64_t r = 0; r < delta.NumRows(); ++r) {
        const int target = targets[static_cast<size_t>(r)];
        ++sent[static_cast<size_t>(origin[static_cast<size_t>(r)])]
              [static_cast<size_t>(target)];
        ++received[static_cast<size_t>(target)];
      }
      auto resend = [&](const FaultEvent& f) -> int64_t {
        if (f.kind == FaultKind::kSegmentFailure) {
          int64_t t = 0;
          for (int64_t batch : sent[static_cast<size_t>(f.segment)]) {
            t += batch;
          }
          return t;
        }
        return sent[static_cast<size_t>(f.segment)][
            static_cast<size_t>(f.target)];
      };
      // The refresh is a real motion: it consumes a motion index, can be
      // struck by injected faults, and only mutates the view once the
      // (possibly recovered) shipment succeeded.
      PROBKB_RETURN_NOT_OK(ctx_.AccountMotion(
          MppStep::Kind::kRedistribute, "refresh " + view->name(),
          delta.NumRows(), delta.schema().num_fields(), received, resend));
      for (int64_t r = 0; r < delta.NumRows(); ++r) {
        view->mutable_segment(targets[static_cast<size_t>(r)])
            ->AppendRows(delta, r, r + 1);
      }
    }
  }
  return added;
}

Result<int64_t> MppGrounder::GroundAtomsIteration() {
  const double start_cost = ctx_.cost().simulated_seconds();
  const int iteration = stats_.iterations + 1;
  // Root span of the iteration's trace: every motion span nests under it.
  TraceSpan span(Tracer::Global(), "iteration", "grounding", iteration);
  // Fresh explain/decision log per iteration: ExplainPlans() reports the
  // plans the *latest* deltas produced. The observation history persists —
  // it is what makes iteration N+1's estimates warm.
  explain_lines_.clear();
  planner_.ClearDecisionLog();
  std::vector<DistributedTablePtr> inferred;
  for (int p = 1; p <= kNumRuleStructures; ++p) {
    if (m_[static_cast<size_t>(p - 1)]->NumRows() == 0) continue;
    const double partition_start = ctx_.cost().simulated_seconds();
    PROBKB_ASSIGN_OR_RETURN(DistributedTablePtr atoms,
                            GroundAtomsPartition(p));
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
  if (options_.apply_constraints_each_iteration) {
    PROBKB_ASSIGN_OR_RETURN(int64_t deleted, ApplyConstraints());
    stats_.constraint_deleted += deleted;
  }
  double secs = ctx_.cost().simulated_seconds() - start_cost;
  stats_.iteration_seconds.push_back(secs);
  stats_.iteration_new_atoms.push_back(added);
  stats_.ground_atoms_seconds += secs;
  ++stats_.iterations;
  if (obs_ != nullptr) obs_->RecordLatency("grounding_iteration", secs);
  span.set_values(stats_.iterations, added, t_pi_->NumRows());
  Tracer::Global()->Event(EventKind::kIterationBoundary, "mpp_grounder",
                          stats_.iterations, added, t_pi_->NumRows());
  return added;
}

Status MppGrounder::GroundAtoms() {
  // `stats_.iterations` starts above zero after ResumeFrom, so a resumed
  // run honours the same iteration cap as an uninterrupted one. A deadline
  // or fault error propagates out of the iteration with the last completed
  // iteration's checkpoint intact on disk.
  while (stats_.iterations < options_.max_iterations) {
    PROBKB_RETURN_NOT_OK(ctx_.CheckDeadline());
    PROBKB_ASSIGN_OR_RETURN(int64_t added, GroundAtomsIteration());
    PROBKB_RETURN_NOT_OK(MaybeCheckpoint());
    if (added == 0) break;
  }
  stats_.final_atoms = t_pi_->NumRows();
  SnapshotWorkerStats();
  return Status::OK();
}

void MppGrounder::SnapshotWorkerStats() {
  // Phase boundary: surface spill-layer counter deltas alongside the
  // worker totals (no-op without a registry or a budget).
  spill_session_->FlushCountersInto(obs_);
  if (obs_ != nullptr && pool_ != nullptr) {
    std::vector<WorkerTotals> totals;
    for (const PoolWorkerStats& w : pool_->WorkerStats()) {
      WorkerTotals t;
      t.worker = w.worker;
      t.tasks_run = w.tasks_run;
      t.steals = w.steals;
      t.busy_seconds = w.busy_seconds;
      t.idle_seconds = w.idle_seconds;
      totals.push_back(t);
    }
    obs_->RecordWorkers(totals);
  }
}

Status MppGrounder::MaybeCheckpoint() {
  if (options_.checkpoint_dir.empty()) return Status::OK();
  const int every =
      options_.checkpoint_every > 0 ? options_.checkpoint_every : 1;
  if (stats_.iterations % every != 0) return Status::OK();
  GroundingCheckpoint cp;
  cp.iteration = stats_.iterations;
  cp.next_fact_id = next_fact_id_;
  cp.num_segments = ctx_.num_segments();
  // The gathered copy is informational (and lets the single-node reader
  // inspect it); the per-segment files are what resume restores.
  cp.t_pi = t_pi_->ToLocal();
  for (int s = 0; s < ctx_.num_segments(); ++s) {
    cp.t0_segments.push_back(t_pi_->segment(s));
  }
  if (mode_ == MppMode::kViews) {
    for (int s = 0; s < ctx_.num_segments(); ++s) {
      cp.tx_segments.push_back(view_tx_->segment(s));
      cp.ty_segments.push_back(view_ty_->segment(s));
      cp.txy_segments.push_back(view_txy_->segment(s));
    }
  }
  cp.banned_x = Table::Make(BannedEntitySchema());
  cp.banned_y = Table::Make(BannedEntitySchema());
  auto dump = [](const std::unordered_set<uint64_t>& keys, Table* out) {
    std::vector<uint64_t> sorted(keys.begin(), keys.end());
    std::sort(sorted.begin(), sorted.end());
    for (uint64_t k : sorted) {
      out->AppendRow({Value::Int64(static_cast<int64_t>(k >> 20)),
                      Value::Int64(static_cast<int64_t>(
                          k & ((uint64_t{1} << 20) - 1)))});
    }
  };
  dump(banned_x_keys_, cp.banned_x.get());
  dump(banned_y_keys_, cp.banned_y.get());
  return WriteGroundingCheckpoint(cp, options_.checkpoint_dir);
}

Status MppGrounder::ResumeFrom(const std::string& checkpoint_dir) {
  PROBKB_ASSIGN_OR_RETURN(
      GroundingCheckpoint cp,
      ReadGroundingCheckpoint(TPiSchema(), checkpoint_dir));
  if (cp.num_segments != ctx_.num_segments()) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint was taken with %d segments but the grounder has %d",
        cp.num_segments, ctx_.num_segments()));
  }
  const bool has_views = !cp.tx_segments.empty();
  if ((mode_ == MppMode::kViews) != has_views) {
    return Status::InvalidArgument(
        "checkpoint view mode does not match the grounder's MppMode");
  }
  t_pi_ = std::make_shared<DistributedTable>(
      TPiSchema(), cp.t0_segments, Distribution::Hash(ViewKeysT0()), "T0");
  if (mode_ == MppMode::kViews) {
    view_tx_ = std::make_shared<DistributedTable>(
        TPiSchema(), cp.tx_segments, Distribution::Hash(ViewKeysTx()), "Tx");
    view_ty_ = std::make_shared<DistributedTable>(
        TPiSchema(), cp.ty_segments, Distribution::Hash(ViewKeysTy()), "Ty");
    view_txy_ = std::make_shared<DistributedTable>(
        TPiSchema(), cp.txy_segments, Distribution::Hash(ViewKeysTxy()),
        "Txy");
  }
  next_fact_id_ = cp.next_fact_id;
  stats_.iterations = cp.iteration;
  banned_x_keys_.clear();
  banned_y_keys_.clear();
  for (int64_t i = 0; i < cp.banned_x->NumRows(); ++i) {
    RowView row = cp.banned_x->row(i);
    banned_x_keys_.insert(BanKey(row[0].i64(), row[1].i64()));
  }
  for (int64_t i = 0; i < cp.banned_y->NumRows(); ++i) {
    RowView row = cp.banned_y->row(i);
    banned_y_keys_.insert(BanKey(row[0].i64(), row[1].i64()));
  }
  return Status::OK();
}

Result<DistributedTablePtr> MppGrounder::GroundFactorsPartition(int p) {
  const PartitionSpec& spec = GetPartitionSpec(p);
  const bool has_i3 = spec.body_length == 2;
  TablePtr m_local = m_[static_cast<size_t>(p - 1)];
  auto m_dist =
      DistributedTable::Distribute(*m_local, ctx_.num_segments(),
                                   Distribution::Random(),
                                   "M" + std::to_string(p));

  DistributedTablePtr probe1 = ProbeFor(spec.t_keys1);
  MppJoinSpec js1;
  js1.left_keys = spec.m_keys1;
  js1.right_keys = spec.t_keys1;
  js1.type = JoinType::kInner;
  js1.output_cols = spec.body_length == 1 ? Len2FactorCandidateCols(spec)
                                          : J1OutputCols(spec);
  js1.output_dist = Distribution::Random();
  js1.label = StrFormat("Query2-%d join1", p);
  js1.policy = motion_policy_;
  const int64_t est1 = planner_.ObservedRows(js1.label, m_local->NumRows());
  PROBKB_ASSIGN_OR_RETURN(DistributedTablePtr candidates,
                          MppHashJoin(&ctx_, m_dist, probe1, js1));
  ObserveStatement(js1.label, est1, candidates->NumRows());

  if (spec.body_length == 2) {
    DistributedTablePtr probe2 = ProbeFor(spec.t_keys2);
    MppJoinSpec js2;
    js2.left_keys = spec.j1_keys2;
    js2.right_keys = spec.t_keys2;
    js2.type = JoinType::kInner;
    js2.output_cols = Len3FactorCandidateCols(spec);
    js2.output_dist = Distribution::Random();
    js2.label = StrFormat("Query2-%d join2", p);
    js2.policy = motion_policy_;
    const int64_t est2 =
        planner_.ObservedRows(js2.label, candidates->NumRows());
    PROBKB_ASSIGN_OR_RETURN(candidates,
                            MppHashJoin(&ctx_, candidates, probe2, js2));
    ObserveStatement(js2.label, est2, candidates->NumRows());
  }

  DistributedTablePtr head = ProbeFor(ViewKeysTxy());
  MppJoinSpec js3;
  js3.left_keys = HeadJoinLeftKeys();
  js3.right_keys = ViewKeysTxy();
  js3.type = JoinType::kInner;
  js3.output_cols = FactorHeadOutputCols(has_i3);
  js3.output_dist = Distribution::Random();
  js3.label = StrFormat("Query2-%d head", p);
  js3.policy = motion_policy_;
  const int64_t est3 = planner_.ObservedRows(js3.label, candidates->NumRows());
  PROBKB_ASSIGN_OR_RETURN(DistributedTablePtr factors,
                          MppHashJoin(&ctx_, candidates, head, js3));
  ObserveStatement(js3.label, est3, factors->NumRows());
  if (!has_i3) {
    PROBKB_ASSIGN_OR_RETURN(
        factors,
        MppFilterProject(&ctx_, factors, nullptr, NullI3Projection(),
                         Distribution::Random(),
                         StrFormat("Query2-%d null I3", p)));
  }
  return factors;
}

Result<TablePtr> MppGrounder::GroundFactors() {
  const double start_cost = ctx_.cost().simulated_seconds();
  TraceSpan span(Tracer::Global(), "ground_factors", "grounding");
  auto t_phi = Table::Make(TPhiSchema());
  for (int p = 1; p <= kNumRuleStructures; ++p) {
    if (m_[static_cast<size_t>(p - 1)]->NumRows() == 0) continue;
    PROBKB_ASSIGN_OR_RETURN(DistributedTablePtr factors,
                            GroundFactorsPartition(p));
    PROBKB_ASSIGN_OR_RETURN(TablePtr local, ctx_.Gather(*factors));
    t_phi->AppendTable(*local);
    ++stats_.statements;
  }
  {
    PROBKB_ASSIGN_OR_RETURN(
        DistributedTablePtr singles,
        MppFilterProject(
            &ctx_, t_pi_,
            [](const RowView& row) { return !row[tpi::kW].is_null(); },
            std::vector<ProjectExpr>{
                ProjectExpr::Column(tpi::kI, "I1"),
                ProjectExpr::Constant(Value::Null(), "I2"),
                ProjectExpr::Constant(Value::Null(), "I3"),
                ProjectExpr::Column(tpi::kW, "w", ColumnType::kFloat64)},
            Distribution::Random(), "singleton factors"));
    PROBKB_ASSIGN_OR_RETURN(TablePtr local, ctx_.Gather(*singles));
    t_phi->AppendTable(*local);
    ++stats_.statements;
  }
  stats_.ground_factors_seconds +=
      ctx_.cost().simulated_seconds() - start_cost;
  stats_.factors = t_phi->NumRows();
  stats_.final_atoms = t_pi_->NumRows();
  SnapshotWorkerStats();
  return t_phi;
}

Result<int64_t> MppGrounder::ApplyConstraints() {
  ++stats_.statements;
  auto omega_dist = DistributedTable::Distribute(
      *t_omega_, ctx_.num_segments(), Distribution::Replicated(), "FC");

  int64_t deleted = 0;
  for (FunctionalityType type :
       {FunctionalityType::kTypeI, FunctionalityType::kTypeII}) {
    const bool type1 = type == FunctionalityType::kTypeI;
    const int64_t arg = type1 ? 1 : 2;
    PROBKB_ASSIGN_OR_RETURN(
        DistributedTablePtr fc_filtered,
        MppFilterProject(&ctx_, omega_dist,
                         [arg](const RowView& row) {
                           return row[tomega::kArg].i64() == arg;
                         },
                         std::nullopt, Distribution::Replicated(),
                         type1 ? "FC arg=1" : "FC arg=2"));

    MppJoinSpec js;
    js.left_keys = {tpi::kR};
    js.right_keys = {tomega::kR};
    js.type = JoinType::kInner;
    js.output_cols = {
        JoinOutputCol::Left(tpi::kR, "R"),
        JoinOutputCol::Left(type1 ? tpi::kX : tpi::kY, "e"),
        JoinOutputCol::Left(type1 ? tpi::kC1 : tpi::kC2, "Ce"),
        JoinOutputCol::Left(type1 ? tpi::kC2 : tpi::kC1, "Cother"),
        JoinOutputCol::Right(tomega::kDeg, "deg"),
    };
    // Rows stay on their TPi segment, which hashed (R, C1, C2) — those
    // values live at output positions (0, 2, 3) for Type I and (0, 3, 2)
    // for Type II.
    js.output_dist = type1 ? Distribution::Hash({0, 2, 3})
                           : Distribution::Hash({0, 3, 2});
    js.policy = MotionPolicy::kAuto;  // right side replicated: no motion
    js.label = type1 ? "Query3 join (Type I)" : "Query3 join (Type II)";
    PROBKB_ASSIGN_OR_RETURN(DistributedTablePtr joined,
                            MppHashJoin(&ctx_, t_pi_, fc_filtered, js));

    PROBKB_ASSIGN_OR_RETURN(
        DistributedTablePtr grouped,
        MppAggregate(&ctx_, joined, {0, 1, 2, 3},
                     {{AggKind::kCount, 0, "cnt"},
                      {AggKind::kMin, 4, "mindeg"}},
                     [](const RowView& row) {
                       return row[4].i64() > row[5].i64();
                     },
                     "Query3 group/having"));
    PROBKB_ASSIGN_OR_RETURN(
        DistributedTablePtr projected,
        MppFilterProject(&ctx_, grouped, nullptr,
                         std::vector<ProjectExpr>{
                             ProjectExpr::Column(1, "e"),
                             ProjectExpr::Column(2, "Ce")},
                         Distribution::Random(), "Query3 project"));
    PROBKB_ASSIGN_OR_RETURN(
        DistributedTablePtr violators,
        MppDistinct(&ctx_, projected, {0, 1}, "Query3 distinct"));

    // Record permanent bans (same convergence argument as the single-node
    // grounder).
    auto& banned = type1 ? banned_x_keys_ : banned_y_keys_;
    for (int s = 0; s < ctx_.num_segments(); ++s) {
      const Table& seg = *violators->segment(s);
      for (int64_t i = 0; i < seg.NumRows(); ++i) {
        banned.insert(BanKey(seg.row(i)[0].i64(), seg.row(i)[1].i64()));
      }
    }

    const std::vector<int> dst_cols =
        type1 ? std::vector<int>{tpi::kX, tpi::kC1}
              : std::vector<int>{tpi::kY, tpi::kC2};
    PROBKB_ASSIGN_OR_RETURN(
        int64_t n, MppDeleteMatching(&ctx_, t_pi_.get(), dst_cols,
                                     *violators, {0, 1}));
    deleted += n;
    if (mode_ == MppMode::kViews) {
      for (DistributedTablePtr view : {view_tx_, view_ty_, view_txy_}) {
        PROBKB_ASSIGN_OR_RETURN(
            int64_t ignored, MppDeleteMatching(&ctx_, view.get(), dst_cols,
                                               *violators, {0, 1}));
        (void)ignored;
      }
    }
  }
  return deleted;
}

TablePtr MppGrounder::GatherTPi() const { return t_pi_->ToLocal(); }

}  // namespace probkb
