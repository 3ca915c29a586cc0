#include "grounding/grounder.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "engine/ops.h"
#include "obs/trace.h"

#include "util/strings.h"
#include "util/timer.h"

namespace probkb {

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

void GroundingStats::RecordIteration(double seconds, int64_t new_atoms) {
  iteration_seconds.push_back(seconds);
  iteration_new_atoms.push_back(new_atoms);
  ground_atoms_seconds += seconds;
  ++iterations;
}

bool BanSet::IsBanned(const RowView& atom) const {
  return x_.count(Key(atom[atom::kX].i64(), atom[atom::kC1].i64())) > 0 ||
         y_.count(Key(atom[atom::kY].i64(), atom[atom::kC2].i64())) > 0;
}

void BanSet::Dump(GroundingCheckpoint* cp) const {
  auto rows = [](const std::unordered_set<uint64_t>& keys) {
    std::vector<uint64_t> sorted(keys.begin(), keys.end());
    std::sort(sorted.begin(), sorted.end());
    auto out = Table::Make(BannedEntitySchema());
    for (uint64_t k : sorted) {
      out->AppendRow({Value::Int64(static_cast<int64_t>(k >> 20)),
                      Value::Int64(static_cast<int64_t>(
                          k & ((uint64_t{1} << 20) - 1)))});
    }
    return out;
  };
  cp->banned_x = rows(x_);
  cp->banned_y = rows(y_);
}

void BanSet::Restore(const GroundingCheckpoint& cp) {
  x_.clear();
  y_.clear();
  for (const bool x_side : {true, false}) {
    const Table& rows = x_side ? *cp.banned_x : *cp.banned_y;
    for (int64_t i = 0; i < rows.NumRows(); ++i) {
      Add(x_side, rows.row(i)[0].i64(), rows.row(i)[1].i64());
    }
  }
}

FixpointGrounder::FixpointGrounder(GroundingOptions options,
                                   int64_t initial_atoms)
    : options_(std::move(options)) {
  stats_.initial_atoms = initial_atoms;
  const int threads = ThreadPool::ResolveThreads(options_.num_threads);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  spill_session_ = std::make_unique<SpillSession>(options_.mem_budget_bytes,
                                                  options_.spill_dir);
}

std::string FixpointGrounder::ExplainPlans() const {
  std::string out;
  for (const std::string& line : explain_lines_) out += line;
  return out;
}

Status FixpointGrounder::CheckDeadline() const {
  if (options_.deadline_seconds > 0 &&
      ElapsedSeconds() > options_.deadline_seconds) {
    return Status::DeadlineExceeded(StrFormat(
        "grounding exceeded its %.3fs deadline", options_.deadline_seconds));
  }
  return Status::OK();
}

Status FixpointGrounder::GroundAtoms() {
  // `stats_.iterations` starts above zero after ResumeFrom, so a resumed
  // run honours the same iteration cap as an uninterrupted one. A budget
  // error propagates out of the iteration with the last completed
  // iteration's checkpoint intact on disk.
  while (stats_.iterations < options_.max_iterations) {
    PROBKB_RETURN_NOT_OK(CheckDeadline());
    PROBKB_ASSIGN_OR_RETURN(int64_t added, GroundAtomsIteration());
    PROBKB_RETURN_NOT_OK(MaybeCheckpoint());
    if (added == 0) break;
  }
  stats_.final_atoms = NumAtoms();
  SnapshotWorkerStats();
  return Status::OK();
}

Result<int64_t> FixpointGrounder::GroundAtomsIteration() {
  const double start = wall_timer_.Seconds();
  // Every statement and motion span of the iteration nests under this one.
  TraceSpan span(Tracer::Global(), "iteration", "grounding",
                 stats_.iterations + 1);
  // Fresh explain log per iteration: ExplainPlans() reports the plans the
  // latest deltas produced.
  explain_lines_.clear();
  PROBKB_ASSIGN_OR_RETURN(int64_t added, RunIteration());
  if (options_.apply_constraints_each_iteration) {
    PROBKB_ASSIGN_OR_RETURN(int64_t deleted, ApplyConstraints());
    stats_.constraint_deleted += deleted;
  }
  const double secs = wall_timer_.Seconds() - start;
  stats_.RecordIteration(secs, added);
  if (obs_ != nullptr) obs_->RecordLatency("grounding_iteration", secs);
  span.set_values(stats_.iterations, added, NumAtoms());
  Tracer::Global()->Event(EventKind::kIterationBoundary, JournalSource(),
                          stats_.iterations, added, NumAtoms());
  return added;
}

Result<TablePtr> FixpointGrounder::GroundFactors() {
  const double start = wall_timer_.Seconds();
  TraceSpan span(Tracer::Global(), "ground_factors", "grounding");
  PROBKB_ASSIGN_OR_RETURN(TablePtr t_phi, RunFactorStatements());
  stats_.ground_factors_seconds += wall_timer_.Seconds() - start;
  stats_.factors = t_phi->NumRows();
  stats_.final_atoms = NumAtoms();
  SnapshotWorkerStats();
  return t_phi;
}

Status FixpointGrounder::ResumeFrom(const std::string& checkpoint_dir) {
  PROBKB_ASSIGN_OR_RETURN(GroundingCheckpoint cp,
                          ReadGroundingCheckpoint(TPiSchema(),
                                                  checkpoint_dir));
  PROBKB_RETURN_NOT_OK(RestoreState(&cp));
  stats_.iterations = cp.iteration;
  bans_.Restore(cp);
  return Status::OK();
}

Status FixpointGrounder::MaybeCheckpoint() {
  if (options_.checkpoint_dir.empty()) return Status::OK();
  const int every = options_.checkpoint_every > 0 ? options_.checkpoint_every
                                                  : 1;
  if (stats_.iterations % every != 0) return Status::OK();
  GroundingCheckpoint cp;
  cp.iteration = stats_.iterations;
  SaveState(&cp);
  bans_.Dump(&cp);
  return WriteGroundingCheckpoint(cp, options_.checkpoint_dir);
}

void FixpointGrounder::SnapshotWorkerStats() {
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

Grounder::Grounder(RelationalKB* rkb, GroundingOptions options)
    : FixpointGrounder(std::move(options), rkb->t_pi->NumRows()), rkb_(rkb) {}

Status Grounder::ArmStatement(ExecContext* ec) {
  ec->set_thread_pool(pool_.get());
  ec->set_spill(spill_session_->context());
  if (options_.deadline_seconds > 0 || options_.max_rows_per_statement > 0) {
    ExecBudget budget;
    budget.max_produced_rows = options_.max_rows_per_statement;
    if (options_.deadline_seconds > 0) {
      budget.deadline_seconds =
          options_.deadline_seconds - ElapsedSeconds();
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

Status Grounder::MergeInferred(const Table& atoms, int64_t* added) {
  RowPredicate drop;
  if (!bans_.empty()) {
    drop = [this](const RowView& row) { return bans_.IsBanned(row); };
  }
  PROBKB_ASSIGN_OR_RETURN(
      int64_t merged, indexes_.MergeAtoms(rkb_->t_pi.get(), atoms,
                                          &rkb_->next_fact_id, drop));
  *added += merged;
  return Status::OK();
}

Result<TablePtr> Grounder::NewDerivationsInNaiveOrder(
    const Table& derivations) {
  PROBKB_ASSIGN_OR_RETURN(std::vector<int64_t> rows,
                          indexes_.AbsentAtoms(*rkb_->t_pi, derivations));
  // Naive evaluation emits a statement's derivations ordered by (rule
  // row, body-1 row, body-2 row), and fact ids rise with rows. Keys are
  // unique: one derivation per (rule, body atoms).
  const int64_t* rule = derivations.Int64Data(derivation::kRule);
  const int64_t* i2 = derivations.Int64Data(derivation::kI2);
  const int64_t* i3 = derivations.Int64Data(derivation::kI3);
  std::sort(rows.begin(), rows.end(), [&](int64_t a, int64_t b) {
    return std::tie(rule[a], i2[a], i3[a]) < std::tie(rule[b], i2[b], i3[b]);
  });
  auto ordered = Table::Make(derivations.schema());
  ordered->AppendGatheredRows(derivations, rows);
  return ordered;
}

Status Grounder::RunIterationStatements(int64_t* added) {
  // Every statement sees TPi as of the iteration start, matching Algorithm
  // 1, which unions all T_j after the partition loop. With the indexes
  // kept, that bound lives in the joins (indexes_.Sync pins it), so each
  // statement's atoms merge as soon as it returns and are freed before
  // the next statement runs. Without them, joins read the whole table and
  // the merges wait for the last statement; each statement's atoms are
  // cut to the ones TPi lacks before they wait.
  const bool eager = KeepsIndexes();
  if (eager) PROBKB_RETURN_NOT_OK(indexes_.Sync(*rkb_->t_pi));
  // Semi-naive: every derivation over rows before delta_start_ ran in an
  // earlier iteration, so a new atom's derivations all use a delta atom.
  // The full pass runs instead with no earlier iteration to lean on
  // (iteration 1, or after Query 3 deleted rows), under a memory budget
  // (the delta passes need the persistent indexes), and when fact ids do
  // not rise with row order (the order key would not match naive's).
  const bool delta_driven =
      eager && options_.evaluation == EvaluationMode::kSemiNaive &&
      delta_start_ > 0 && indexes_.ids_ascending();
  RuleIndexes::DeltaSlices delta;
  if (delta_driven) {
    PROBKB_RETURN_NOT_OK(rule_indexes_.Build(rkb_->m));
    delta = rule_indexes_.Route(*rkb_->t_pi, delta_start_);
  }
  const int iteration = stats_.iterations + 1;
  const TPiIndexes* indexes = eager ? &indexes_ : nullptr;
  std::vector<TablePtr> deferred;
  for (int p = 1; p <= kNumRuleStructures; ++p) {
    TablePtr m = rkb_->m[static_cast<size_t>(p - 1)];
    if (m->NumRows() == 0) continue;
    ExecContext ec;
    PROBKB_RETURN_NOT_OK(ArmStatement(&ec));
    if (obs_ != nullptr) {
      ec.set_stats_sink(obs_, StrFormat("iter%d/M%d", iteration, p));
    }
    Timer join_timer;
    const std::string stmt = StrFormat("Query1-%d", p);
    PlanNodePtr plan =
        delta_driven ? BuildDeltaAtomsPlan(p, rule_indexes_, delta,
                                           rkb_->t_pi, indexes_, delta_start_)
                     : BuildAtomsPlan(p, m, rkb_->t_pi, rkb_->t_pi, indexes);
    // Warm estimate: the previous iteration's observed output for this
    // statement; cold start falls back to the tree's structural heuristic.
    AnnotatePlanEstimates(plan.get(), &planner_, stmt);
    PROBKB_ASSIGN_OR_RETURN(TablePtr atoms, plan->Execute(&ec));
    planner_.ObserveRows(stmt, atoms->NumRows());
    explain_lines_.push_back(StrFormat("%s (iter %d):\n", stmt.c_str(),
                                       iteration) +
                             plan->Explain(1));
    if (obs_ != nullptr) {
      obs_->RecordPartitionIteration(iteration, p, atoms->NumRows(),
                                     join_timer.Seconds());
    }
    ++stats_.statements;
    if (delta_driven) {
      PROBKB_ASSIGN_OR_RETURN(atoms, NewDerivationsInNaiveOrder(*atoms));
    }
    if (eager) {
      PROBKB_RETURN_NOT_OK(MergeInferred(*atoms, added));
    } else {
      // Defer only the atoms TPi lacked at the iteration start (it does
      // not grow before the merges below, which would skip the rest).
      PROBKB_ASSIGN_OR_RETURN(std::vector<int64_t> rows,
                              indexes_.AbsentAtoms(*rkb_->t_pi, *atoms));
      auto absent = Table::Make(atoms->schema());
      absent->AppendGatheredRows(*atoms, rows);
      deferred.push_back(std::move(absent));
    }
  }
  for (const TablePtr& atoms : deferred) {
    PROBKB_RETURN_NOT_OK(MergeInferred(*atoms, added));
  }
  // Under a memory budget the merge index lives for one iteration only.
  if (!eager) indexes_.Clear();
  return Status::OK();
}

Result<int64_t> Grounder::RunIteration() {
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
  return added;
}

void Grounder::SaveState(GroundingCheckpoint* cp) const {
  cp->next_fact_id = rkb_->next_fact_id;
  cp->delta_start = delta_start_;
  cp->t_pi = rkb_->t_pi;
}

Status Grounder::RestoreState(GroundingCheckpoint* cp) {
  *rkb_->t_pi = std::move(*cp->t_pi);
  rkb_->next_fact_id = cp->next_fact_id;
  indexes_.Clear();
  delta_start_ = cp->delta_start;
  return Status::OK();
}

Result<TablePtr> Grounder::RunFactorStatements() {
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
  return t_phi;
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
    const bool x_side = row[2].i64() == 1;
    bans_.Add(x_side, row[0].i64(), row[1].i64());
    (x_side ? viol_x : viol_y)->AppendRow(row);
  }
  int64_t deleted = 0;
  deleted += DeleteMatching(rkb_->t_pi.get(), {tpi::kX, tpi::kC1}, *viol_x,
                            {0, 1});
  deleted += DeleteMatching(rkb_->t_pi.get(), {tpi::kY, tpi::kC2}, *viol_y,
                            {0, 1});
  // Deletes compact TPi's row ids, so the indexes are rebuilt on next use,
  // and the next iteration runs the full pass.
  if (deleted > 0) {
    indexes_.Clear();
    delta_start_ = 0;
  }
  return deleted;
}

}  // namespace probkb
