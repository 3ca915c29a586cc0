#ifndef PROBKB_GROUNDING_GROUNDER_H_
#define PROBKB_GROUNDING_GROUNDER_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/planner.h"
#include "fault/checkpoint.h"
#include "fault/fault_injector.h"
#include "grounding/partition_queries.h"
#include "grounding/spill_session.h"
#include "grounding/tpi_indexes.h"
#include "kb/relational_model.h"
#include "obs/stats_registry.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace probkb {

/// \brief Fixpoint evaluation strategies of the single-node and MPP
/// grounders. Both produce the same TPi, fact ids and row order included,
/// and the same TPhi.
///
/// kNaive re-applies every rule to the whole TPi each iteration — exactly
/// the paper's Algorithm 1 (its SQL re-joins the full facts table); Table
/// 3 and the semi-naive ablation time it. kSemiNaive, the default, runs
/// the full pass only when no earlier iteration covers the old rows
/// (iteration 1, or after Query 3 deleted rows) and otherwise derives only
/// what uses an atom added by the previous iteration, driving every join
/// from that delta (DESIGN.md "Semi-naive evaluation").
enum class EvaluationMode { kNaive, kSemiNaive };

/// \brief Knobs of the grounding algorithm (Algorithm 1).
struct GroundingOptions {
  /// Fixpoint cap; the paper reports 15 iterations ground most facts.
  int max_iterations = 15;
  EvaluationMode evaluation = EvaluationMode::kSemiNaive;
  /// Run Query 3 after each iteration (Algorithm 1 line 6). The paper's
  /// Section 6.1 performance runs disable this and apply Query 3 once
  /// before inference instead.
  bool apply_constraints_each_iteration = false;
  /// Modelled cost per issued SQL statement (parse / optimize / round
  /// trip). Charged identically to ProbKB and Tuffy-T; see DESIGN.md. Set
  /// to 0 to report raw engine time only.
  double per_statement_seconds = 0.0;
  /// Iteration-level checkpointing: when non-empty, a complete snapshot of
  /// the fixpoint state lands here after every `checkpoint_every`-th
  /// iteration; ResumeFrom() restarts a grounder from it.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  /// Grounding deadline in seconds; 0 = unlimited. The single-node
  /// grounder measures wall-clock, the MPP grounder simulated time; on
  /// expiry GroundAtoms returns kDeadlineExceeded with the last completed
  /// iteration checkpointed (when checkpointing is on).
  double deadline_seconds = 0.0;
  /// Memory proxy: kResourceExhausted once a single statement's operators
  /// have produced this many rows. On MPP the cap applies to each
  /// segment's plan. 0 = unlimited.
  int64_t max_rows_per_statement = 0;
  /// Executor threads for per-segment / morsel parallelism. 0 = auto
  /// (PROBKB_THREADS, else hardware_concurrency); 1 = the exact serial
  /// path. Any setting produces bit-identical outputs — see DESIGN.md
  /// "Threading model".
  int num_threads = 0;
  /// Transient-memory budget for out-of-core execution in bytes
  /// (`--mem-budget`): 0 disables spilling, > 0 is a byte limit. Like
  /// num_threads, any setting produces bit-identical outputs — the budget
  /// only decides where bytes live (DESIGN.md "Out-of-core").
  int64_t mem_budget_bytes = 0;
  /// Spill directory; empty resolves to a per-grounder directory under
  /// the system temp dir, removed when the grounder ends (SpillSession).
  std::string spill_dir;
};

/// \brief Execution record of one grounding run.
struct GroundingStats {
  int iterations = 0;
  int64_t initial_atoms = 0;
  int64_t final_atoms = 0;
  int64_t factors = 0;
  int64_t statements = 0;
  int64_t constraint_deleted = 0;
  std::vector<double> iteration_seconds;  // measured, per iteration
  std::vector<int64_t> iteration_new_atoms;
  double ground_atoms_seconds = 0.0;    // measured total, all iterations
  double ground_factors_seconds = 0.0;  // measured

  /// Measured plus modelled per-statement overhead.
  double ModeledSeconds(double per_statement_seconds) const {
    return ground_atoms_seconds + ground_factors_seconds +
           static_cast<double>(statements) * per_statement_seconds;
  }

  /// Books one completed fixpoint iteration.
  void RecordIteration(double seconds, int64_t new_atoms);

  std::string ToString() const;
};

/// \brief Entities banned by constraint application, as (entity, class)
/// keys on the x side (Type I) and the y side (Type II). Atoms keyed by a
/// banned entity are never merged back into TPi — without this, a
/// violating fact deleted by Query 3 would be re-derived by the same rule
/// in the next iteration and grounding would never converge.
class BanSet {
 public:
  /// Bans `entity` of class `cls` on the x side, or else the y side.
  void Add(bool x_side, EntityId entity, ClassId cls) {
    (x_side ? x_ : y_).insert(Key(entity, cls));
  }
  bool empty() const { return x_.empty() && y_.empty(); }
  /// True when an atom-table row (see namespace atom) has a banned x or y.
  bool IsBanned(const RowView& atom) const;
  const std::unordered_set<uint64_t>& x() const { return x_; }
  const std::unordered_set<uint64_t>& y() const { return y_; }

  /// Writes both sides into `cp` as (e, c) rows in ascending key order.
  void Dump(GroundingCheckpoint* cp) const;
  /// Replaces the bans with the ones `cp` holds.
  void Restore(const GroundingCheckpoint& cp);

 private:
  static uint64_t Key(int64_t entity, int64_t cls) {
    PROBKB_DCHECK(cls >= 0 && cls < (1 << 20));
    return (static_cast<uint64_t>(entity) << 20) | static_cast<uint64_t>(cls);
  }

  std::unordered_set<uint64_t> x_;
  std::unordered_set<uint64_t> y_;
};

/// \brief What both ProbKB engines share of Algorithm 1: the fixpoint
/// loop, the constraint bans, iteration checkpoints and resume, the run's
/// thread pool and out-of-core session, and the stats bookkeeping. An
/// engine supplies its Query 1/2/3 statements, its TPi storage and its
/// deadline clock (wall clock for Grounder, simulated time for
/// MppGrounder).
class FixpointGrounder {
 public:
  virtual ~FixpointGrounder() = default;
  FixpointGrounder(const FixpointGrounder&) = delete;
  FixpointGrounder& operator=(const FixpointGrounder&) = delete;

  /// \brief Runs groundAtoms to the transitive closure (or the iteration
  /// cap): Algorithm 1 lines 2-7. Each iteration starts only inside the
  /// deadline, and a checkpoint lands after every `checkpoint_every`-th
  /// one, so a run stopped by a budget resumes from the last completed
  /// iteration.
  Status GroundAtoms();

  /// \brief One iteration over all partitions (Query 3 after it when
  /// options call for it); returns the number of new atoms merged into
  /// TPi.
  Result<int64_t> GroundAtomsIteration();

  /// \brief Algorithm 1 lines 8-10: builds the factor table TPhi
  /// (I1, I2, I3, w), including singleton factors.
  Result<TablePtr> GroundFactors();

  /// \brief Query 3 over the current TPi. Returns facts deleted.
  virtual Result<int64_t> ApplyConstraints() = 0;

  /// \brief Restores the fixpoint state (TPi, fact-id counter, bans,
  /// iteration count) from a checkpoint written by a previous run; call
  /// before GroundAtoms() to continue where that run stopped.
  Status ResumeFrom(const std::string& checkpoint_dir);

  /// \brief The current facts table (the MPP engine gathers its segments).
  virtual TablePtr TPi() const = 0;

  /// \brief EXPLAIN text of the last iteration's statements, with
  /// estimated and observed cardinalities. Stable text — no timings — so
  /// goldens can pin it.
  virtual std::string ExplainPlans() const;

  /// \brief Attaches an execution-stats registry (not owned; may be
  /// nullptr). Statements report their operators, the fixpoint its
  /// per-iteration per-partition delta sizes and join times, and the
  /// pool's worker counters are snapshotted at the end of each phase.
  /// Purely observational — outputs are bit-identical with or without it.
  virtual void set_stats_registry(StatsRegistry* registry) {
    obs_ = registry;
  }

  const GroundingStats& stats() const { return stats_; }

  /// \brief Banned (entity, class) keys on the x and y side (see BanSet).
  const std::unordered_set<uint64_t>& banned_x() const { return bans_.x(); }
  const std::unordered_set<uint64_t>& banned_y() const { return bans_.y(); }

 protected:
  FixpointGrounder(GroundingOptions options, int64_t initial_atoms);

  /// The engine's iteration: every Query 1 statement plus the merges into
  /// TPi. Returns the atoms added.
  virtual Result<int64_t> RunIteration() = 0;
  /// The engine's Query 2 statements, singleton factors included.
  virtual Result<TablePtr> RunFactorStatements() = 0;
  /// Rows in TPi.
  virtual int64_t NumAtoms() const = 0;
  /// The deadline clock, in seconds since construction.
  virtual double ElapsedSeconds() const = 0;
  /// The engine's part of a checkpoint: TPi, the fact-id counter and the
  /// semi-naive state.
  virtual void SaveState(GroundingCheckpoint* cp) const = 0;
  /// Restores the engine's part; an error leaves the grounder unchanged.
  virtual Status RestoreState(GroundingCheckpoint* cp) = 0;
  /// Source name of the journal's iteration-boundary events.
  virtual const char* JournalSource() const = 0;

  /// True while the engine keeps its TPi indexes across statements (no
  /// memory budget armed).
  bool KeepsIndexes() const { return !spill_session_->enabled(); }

  /// kDeadlineExceeded once the deadline clock passed the deadline.
  Status CheckDeadline() const;

  GroundingOptions options_;
  GroundingStats stats_;
  StatsRegistry* obs_ = nullptr;
  /// Morsel-parallel / per-segment executor; null on the serial path
  /// (options_.num_threads resolves to 1). Any thread count produces
  /// bit-identical outputs.
  std::unique_ptr<ThreadPool> pool_;
  /// Out-of-core state (budget + spill context); disabled when no memory
  /// budget resolves.
  std::unique_ptr<SpillSession> spill_session_;
  BanSet bans_;
  /// Rendered plans / cardinality lines of the statements since the last
  /// iteration boundary (see ExplainPlans).
  std::vector<std::string> explain_lines_;

 private:
  /// Writes an iteration checkpoint when options call for one.
  Status MaybeCheckpoint();
  /// Snapshots the pool's worker counters and the spill counters into the
  /// registry (no-op without a registry).
  void SnapshotWorkerStats();
};

/// \brief Single-node ProbKB grounder: applies all rules of each MLN
/// partition in one batch query (6 queries per iteration regardless of the
/// number of rules), per Section 4.3.
///
/// The grounder keeps one persistent hash index per TPi key shape
/// (TPiIndexes), extended as TPi grows and shared by every Query 1 join,
/// the merge dedup and every Query 2 join. Deleting TPi rows (Query 3) or
/// resuming drops the indexes; they are rebuilt on next use. Under an
/// armed memory budget the grounder keeps none: joins build transient
/// indexes (grace-hash included) and the merge builds its Txy index per
/// iteration. A failed iteration leaves TPi, the fact-id counter and the
/// TPi indexes as they were when it started. ExplainPlans() renders one
/// Query 1 plan tree per partition, estimated from the previous
/// iteration's observation for the same statement (cold start: the
/// tree's structural heuristic).
class Grounder : public FixpointGrounder {
 public:
  /// `rkb` must outlive the grounder; TPi is expanded in place.
  Grounder(RelationalKB* rkb, GroundingOptions options);

  Result<int64_t> ApplyConstraints() override;
  TablePtr TPi() const override { return rkb_->t_pi; }

  /// \brief Threads a fault injector into every statement's ExecContext
  /// (simulated operator memory/deadline trips). Not owned.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  const RelationalKB& rkb() const { return *rkb_; }

 protected:
  Result<int64_t> RunIteration() override;
  Result<TablePtr> RunFactorStatements() override;
  int64_t NumAtoms() const override { return rkb_->t_pi->NumRows(); }
  double ElapsedSeconds() const override {
    return lifetime_timer_.Seconds();
  }
  void SaveState(GroundingCheckpoint* cp) const override;
  Status RestoreState(GroundingCheckpoint* cp) override;
  const char* JournalSource() const override { return "grounder"; }

 private:
  /// All Query 1 statements of one iteration plus their merges; adds the
  /// merged row count to `*added`.
  Status RunIterationStatements(int64_t* added);
  /// The derivations (see namespace derivation) of atoms TPi does not
  /// hold yet, sorted into naive evaluation's order.
  Result<TablePtr> NewDerivationsInNaiveOrder(const Table& derivations);
  /// Merges one statement's atoms into TPi, skipping banned entities.
  Status MergeInferred(const Table& atoms, int64_t* added);
  /// Arms a statement's ExecContext with the remaining deadline, the row
  /// budget, and the fault injector; kDeadlineExceeded if none remains.
  Status ArmStatement(ExecContext* ec);

  RelationalKB* rkb_;
  /// Semi-naive state: TPi row count at the start of the last iteration's
  /// merge (rows from here on are the delta); 0 when the next iteration
  /// must run the full pass.
  int64_t delta_start_ = 0;
  /// Persistent TPi indexes (see the class comment).
  TPiIndexes indexes_;
  /// The rule tables indexed for the delta-driven passes, built on first
  /// use.
  RuleIndexes rule_indexes_;
  FaultInjector* injector_ = nullptr;
  /// Operator numbering shared by every statement's ExecContext, so a
  /// scheduled operator-budget fault addresses one global execution point
  /// of the run instead of "operator k of every statement".
  int64_t op_counter_ = 0;
  /// Wall-clock since construction; the deadline budget counts from here.
  Timer lifetime_timer_;
  /// Cardinality-observation history: statement label -> last observed
  /// output rows. Single-node runs have no motions to plan, so only the
  /// feedback half of the planner is used (estimates for --explain).
  AdaptivePlanner planner_{MotionCostModel{}};
};

}  // namespace probkb

#endif  // PROBKB_GROUNDING_GROUNDER_H_
