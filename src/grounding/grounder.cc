#include "grounding/grounder.h"

#include <algorithm>

#include "engine/ops.h"
#include "obs/trace.h"

#include "util/strings.h"
#include "util/timer.h"

namespace probkb {

namespace {

uint64_t BanKey(int64_t entity, int64_t cls) {
  PROBKB_DCHECK(cls >= 0 && cls < (1 << 20));
  return (static_cast<uint64_t>(entity) << 20) | static_cast<uint64_t>(cls);
}

}  // namespace

std::string GroundingStats::ToString() const {
  std::string out = StrFormat(
      "grounding: %d iterations, atoms %lld -> %lld, %lld factors, "
      "%lld statements, atoms %.3fs, factors %.3fs\n",
      iterations, static_cast<long long>(initial_atoms),
      static_cast<long long>(final_atoms), static_cast<long long>(factors),
      static_cast<long long>(statements), ground_atoms_seconds,
      ground_factors_seconds);
  for (size_t i = 0; i < iteration_seconds.size(); ++i) {
    out += StrFormat("  iter %zu: %.3fs, +%lld atoms\n", i + 1,
                     iteration_seconds[i],
                     static_cast<long long>(iteration_new_atoms[i]));
  }
  return out;
}

Grounder::Grounder(RelationalKB* rkb, GroundingOptions options)
    : rkb_(rkb), options_(options) {
  stats_.initial_atoms = rkb_->t_pi->NumRows();
  const int threads = ThreadPool::ResolveThreads(options_.num_threads);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  spill_session_ = std::make_unique<SpillSession>(options_.mem_budget_bytes,
                                                  options_.spill_dir);
}

std::string Grounder::ExplainPlans() const {
  std::string out;
  for (const std::string& tree : explain_lines_) out += tree;
  return out;
}

Status Grounder::ArmStatement(ExecContext* ec) {
  ec->set_fault_injector(injector_);
  ec->set_shared_op_counter(&op_counter_);
  ec->set_thread_pool(pool_.get());
  ec->set_spill(spill_session_->context());
  if (options_.deadline_seconds > 0 || options_.max_rows_per_statement > 0) {
    ExecBudget budget;
    budget.max_produced_rows = options_.max_rows_per_statement;
    if (options_.deadline_seconds > 0) {
      budget.deadline_seconds =
          options_.deadline_seconds - lifetime_timer_.Seconds();
      if (budget.deadline_seconds <= 0) {
        return Status::DeadlineExceeded(StrFormat(
            "grounding exceeded its %.3fs deadline",
            options_.deadline_seconds));
      }
    }
    ec->set_budget(budget);
  }
  return Status::OK();
}

Status Grounder::RunQuery1(TablePtr probe1, TablePtr probe2,
                           bool skip_length2,
                           const std::function<Status(TablePtr)>& sink) {
  const int iteration = stats_.iterations + 1;
  const TPiIndexes* indexes = KeepsIndexes() ? &indexes_ : nullptr;
  for (int p = 1; p <= kNumRuleStructures; ++p) {
    if (skip_length2 && GetPartitionSpec(p).body_length == 1) continue;
    TablePtr m = rkb_->m[static_cast<size_t>(p - 1)];
    if (m->NumRows() == 0) continue;
    ExecContext ec;
    PROBKB_RETURN_NOT_OK(ArmStatement(&ec));
    if (obs_ != nullptr) {
      ec.set_stats_sink(obs_, StrFormat("iter%d/M%d", iteration, p));
    }
    Timer join_timer;
    const std::string stmt = StrFormat("Query1-%d", p);
    PlanNodePtr plan = BuildAtomsPlan(p, m, probe1, probe2, indexes);
    // Warm estimate: the previous iteration's observed output for this
    // statement; cold start falls back to the tree's structural heuristic.
    AnnotatePlanEstimates(plan.get(), &planner_, stmt);
    PROBKB_ASSIGN_OR_RETURN(TablePtr atoms, plan->Execute(&ec));
    planner_.ObserveRows(stmt, atoms->NumRows());
    explain_lines_.push_back(StrFormat("%s (iter %d):\n", stmt.c_str(),
                                       iteration) +
                             plan->Explain(1));
    if (obs_ != nullptr) {
      // Semi-naive's second probe order lands in the same (iteration,
      // partition) cell; the registry accumulates both passes.
      obs_->RecordPartitionIteration(iteration, p, atoms->NumRows(),
                                     join_timer.Seconds());
    }
    ++stats_.statements;
    PROBKB_RETURN_NOT_OK(sink(std::move(atoms)));
  }
  return Status::OK();
}

Status Grounder::MergeInferred(const Table& atoms, int64_t* added) {
  RowPredicate drop;
  if (!banned_x_keys_.empty() || !banned_y_keys_.empty()) {
    drop = [this](const RowView& row) { return IsBanned(row); };
  }
  PROBKB_ASSIGN_OR_RETURN(
      int64_t merged, indexes_.MergeAtoms(rkb_->t_pi.get(), atoms,
                                          &rkb_->next_fact_id, drop));
  *added += merged;
  return Status::OK();
}

Status Grounder::RunIterationStatements(int64_t* added) {
  // Every statement sees TPi as of the iteration start, matching Algorithm
  // 1, which unions all T_j after the partition loop. With the indexes
  // kept, that bound lives in the joins (indexes_.Sync pins it), so each
  // statement's atoms merge as soon as it returns and are freed before
  // the next statement runs. Without them, joins read the whole table and
  // the merges wait for the last statement.
  const bool eager = KeepsIndexes();
  if (eager) PROBKB_RETURN_NOT_OK(indexes_.Sync(*rkb_->t_pi));
  std::vector<TablePtr> deferred;
  auto sink = [&](TablePtr atoms) {
    if (eager) return MergeInferred(*atoms, added);
    deferred.push_back(std::move(atoms));
    return Status::OK();
  };
  if (options_.evaluation == EvaluationMode::kNaive ||
      stats_.iterations == 0) {
    PROBKB_RETURN_NOT_OK(RunQuery1(rkb_->t_pi, rkb_->t_pi, false, sink));
  } else {
    // Semi-naive: a new derivation must use at least one delta atom.
    // Queries run as (delta, full) and (full, delta); the overlap
    // (delta, delta) is produced twice and removed by the set-merge.
    auto delta = Table::Make(TPiSchema());
    delta->AppendRows(*rkb_->t_pi, delta_start_, rkb_->t_pi->NumRows());
    PROBKB_RETURN_NOT_OK(RunQuery1(delta, rkb_->t_pi, false, sink));
    // Length-2 rules have one body atom, so the delta pass above already
    // covers them; length-3 rules also need (full, delta). Both probe
    // orders of a partition would be one SQL statement (a UNION ALL), so
    // the second pass is not counted again.
    int64_t statements_before = stats_.statements;
    PROBKB_RETURN_NOT_OK(RunQuery1(rkb_->t_pi, delta, true, sink));
    stats_.statements = statements_before;
  }
  for (const TablePtr& atoms : deferred) {
    PROBKB_RETURN_NOT_OK(MergeInferred(*atoms, added));
  }
  // Under a memory budget the merge index lives for one iteration only.
  if (!eager) indexes_.Clear();
  return Status::OK();
}

Result<int64_t> Grounder::GroundAtomsIteration() {
  if (options_.evaluation == EvaluationMode::kSemiNaive &&
      options_.apply_constraints_each_iteration) {
    return Status::InvalidArgument(
        "semi-naive evaluation assumes no mid-run deletions; disable "
        "apply_constraints_each_iteration");
  }
  Timer timer;
  TraceSpan span(Tracer::Global(), "iteration", "grounding",
                 stats_.iterations + 1);
  explain_lines_.clear();
  const int64_t start_rows = rkb_->t_pi->NumRows();
  const FactId start_id = rkb_->next_fact_id;
  int64_t added = 0;
  if (Status st = RunIterationStatements(&added); !st.ok()) {
    // Roll back the merges of the statements that did complete.
    Table* t_pi = rkb_->t_pi.get();
    if (t_pi->NumRows() > start_rows) {
      std::vector<bool> keep(static_cast<size_t>(t_pi->NumRows()), false);
      std::fill(keep.begin(), keep.begin() + start_rows, true);
      t_pi->FilterInPlace(keep);
    }
    rkb_->next_fact_id = start_id;
    indexes_.Truncate(start_rows);
    return st;
  }
  delta_start_ = start_rows;
  if (options_.apply_constraints_each_iteration) {
    PROBKB_ASSIGN_OR_RETURN(int64_t deleted, ApplyConstraints());
    stats_.constraint_deleted += deleted;
  }
  double secs = timer.Seconds();
  stats_.iteration_seconds.push_back(secs);
  stats_.iteration_new_atoms.push_back(added);
  stats_.ground_atoms_seconds += secs;
  ++stats_.iterations;
  if (obs_ != nullptr) obs_->RecordLatency("grounding_iteration", secs);
  span.set_values(stats_.iterations, added, rkb_->t_pi->NumRows());
  Tracer::Global()->Event(EventKind::kIterationBoundary, "grounder",
                          stats_.iterations, added, rkb_->t_pi->NumRows());
  return added;
}

Status Grounder::MaybeCheckpoint() {
  if (options_.checkpoint_dir.empty()) return Status::OK();
  const int every = options_.checkpoint_every > 0 ? options_.checkpoint_every
                                                  : 1;
  if (stats_.iterations % every != 0) return Status::OK();
  GroundingCheckpoint cp;
  cp.iteration = stats_.iterations;
  cp.next_fact_id = rkb_->next_fact_id;
  cp.delta_start = delta_start_;
  cp.t_pi = rkb_->t_pi;
  cp.banned_x = Table::Make(BannedEntitySchema());
  cp.banned_y = Table::Make(BannedEntitySchema());
  for (const auto& [e, c] : banned_x_) {
    cp.banned_x->AppendRow({Value::Int64(e), Value::Int64(c)});
  }
  for (const auto& [e, c] : banned_y_) {
    cp.banned_y->AppendRow({Value::Int64(e), Value::Int64(c)});
  }
  return WriteGroundingCheckpoint(cp, options_.checkpoint_dir);
}

Status Grounder::ResumeFrom(const std::string& checkpoint_dir) {
  PROBKB_ASSIGN_OR_RETURN(GroundingCheckpoint cp,
                          ReadGroundingCheckpoint(TPiSchema(),
                                                  checkpoint_dir));
  *rkb_->t_pi = std::move(*cp.t_pi);
  rkb_->next_fact_id = cp.next_fact_id;
  indexes_.Clear();
  delta_start_ = cp.delta_start;
  stats_.iterations = cp.iteration;
  banned_x_.clear();
  banned_y_.clear();
  banned_x_keys_.clear();
  banned_y_keys_.clear();
  for (int64_t i = 0; i < cp.banned_x->NumRows(); ++i) {
    RowView row = cp.banned_x->row(i);
    banned_x_.emplace_back(row[0].i64(), row[1].i64());
    banned_x_keys_.insert(BanKey(row[0].i64(), row[1].i64()));
  }
  for (int64_t i = 0; i < cp.banned_y->NumRows(); ++i) {
    RowView row = cp.banned_y->row(i);
    banned_y_.emplace_back(row[0].i64(), row[1].i64());
    banned_y_keys_.insert(BanKey(row[0].i64(), row[1].i64()));
  }
  return Status::OK();
}

Status Grounder::GroundAtoms() {
  // `stats_.iterations` starts above zero after ResumeFrom, so a resumed
  // run honours the same iteration cap as an uninterrupted one.
  while (stats_.iterations < options_.max_iterations) {
    PROBKB_ASSIGN_OR_RETURN(int64_t added, GroundAtomsIteration());
    PROBKB_RETURN_NOT_OK(MaybeCheckpoint());
    if (added == 0) break;
    if (options_.deadline_seconds > 0 &&
        lifetime_timer_.Seconds() > options_.deadline_seconds) {
      stats_.final_atoms = rkb_->t_pi->NumRows();
      return Status::DeadlineExceeded(StrFormat(
          "grounding exceeded its %.3fs deadline after iteration %d",
          options_.deadline_seconds, stats_.iterations));
    }
  }
  stats_.final_atoms = rkb_->t_pi->NumRows();
  SnapshotWorkerStats();
  return Status::OK();
}

void Grounder::SnapshotWorkerStats() {
  // Phase boundary: surface spill-layer counter deltas alongside the
  // worker totals (no-op without a registry or a budget).
  spill_session_->FlushCountersInto(obs_);
  if (obs_ != nullptr && pool_ != nullptr) {
    const std::vector<PoolWorkerStats> workers = pool_->WorkerStats();
    std::vector<WorkerTotals> totals;
    totals.reserve(workers.size());
    for (const PoolWorkerStats& w : workers) {
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

Result<TablePtr> Grounder::GroundFactors() {
  Timer timer;
  TraceSpan span(Tracer::Global(), "ground_factors", "grounding");
  auto t_phi = Table::Make(TPhiSchema());
  const TPiIndexes* indexes = nullptr;
  if (KeepsIndexes()) {
    PROBKB_RETURN_NOT_OK(indexes_.Sync(*rkb_->t_pi));
    indexes = &indexes_;
  }
  for (int p = 1; p <= kNumRuleStructures; ++p) {
    TablePtr m = rkb_->m[static_cast<size_t>(p - 1)];
    if (m->NumRows() == 0) continue;
    ExecContext ec;
    PROBKB_RETURN_NOT_OK(ArmStatement(&ec));
    if (obs_ != nullptr) {
      ec.set_stats_sink(obs_, StrFormat("query2/M%d", p));
    }
    PROBKB_ASSIGN_OR_RETURN(
        TablePtr factors,
        GroundFactorsForPartition(p, m, rkb_->t_pi, rkb_->t_pi, rkb_->t_pi,
                                  &ec, indexes));
    // Bag union: Proposition 1 guarantees no duplicates within a
    // partition; duplicates across partitions are distinct deductions.
    t_phi->AppendTable(*factors);
    ++stats_.statements;
  }
  {
    ExecContext ec;
    PROBKB_RETURN_NOT_OK(ArmStatement(&ec));
    if (obs_ != nullptr) ec.set_stats_sink(obs_, "query2/singletons");
    PROBKB_ASSIGN_OR_RETURN(TablePtr singletons,
                            SingletonFactors(rkb_->t_pi, &ec));
    t_phi->AppendTable(*singletons);
    ++stats_.statements;
  }
  stats_.ground_factors_seconds += timer.Seconds();
  stats_.factors = t_phi->NumRows();
  stats_.final_atoms = rkb_->t_pi->NumRows();
  SnapshotWorkerStats();
  return t_phi;
}

bool Grounder::IsBanned(const RowView& atom) const {
  return banned_x_keys_.count(
             BanKey(atom[atom::kX].i64(), atom[atom::kC1].i64())) > 0 ||
         banned_y_keys_.count(
             BanKey(atom[atom::kY].i64(), atom[atom::kC2].i64())) > 0;
}

Result<int64_t> Grounder::ApplyConstraints() {
  ExecContext ec;
  PROBKB_RETURN_NOT_OK(ArmStatement(&ec));
  if (obs_ != nullptr) ec.set_stats_sink(obs_, "query3");
  ++stats_.statements;
  PROBKB_ASSIGN_OR_RETURN(
      TablePtr violators,
      FindConstraintViolators(rkb_->t_pi, rkb_->t_omega, &ec));
  // Record permanent bans so deleted entities are not re-derived.
  auto viol_x = Table::Make(violators->schema());
  auto viol_y = Table::Make(violators->schema());
  for (int64_t i = 0; i < violators->NumRows(); ++i) {
    RowView row = violators->row(i);
    EntityId e = row[0].i64();
    ClassId c = row[1].i64();
    if (row[2].i64() == 1) {
      if (banned_x_keys_.insert(BanKey(e, c)).second) {
        banned_x_.emplace_back(e, c);
      }
      viol_x->AppendRow(row);
    } else {
      if (banned_y_keys_.insert(BanKey(e, c)).second) {
        banned_y_.emplace_back(e, c);
      }
      viol_y->AppendRow(row);
    }
  }
  int64_t deleted = 0;
  deleted += DeleteMatching(rkb_->t_pi.get(), {tpi::kX, tpi::kC1}, *viol_x,
                            {0, 1});
  deleted += DeleteMatching(rkb_->t_pi.get(), {tpi::kY, tpi::kC2}, *viol_y,
                            {0, 1});
  // Deletes compact TPi's row ids, so the indexes are rebuilt on next use.
  if (deleted > 0) indexes_.Clear();
  return deleted;
}

}  // namespace probkb
