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
  /// have produced this many rows. 0 = unlimited.
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
  /// Spill directory; empty resolves to <system temp>/probkb_spill.<pid>.
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

  std::string ToString() const;
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
/// iteration.
class Grounder {
 public:
  /// `rkb` must outlive the grounder; TPi is expanded in place.
  Grounder(RelationalKB* rkb, GroundingOptions options);

  /// \brief Runs groundAtoms to the transitive closure (or the iteration
  /// cap): Algorithm 1 lines 2-7.
  Status GroundAtoms();

  /// \brief One iteration over all partitions; returns the number of new
  /// atoms merged into TPi. When a Query 1 statement fails, TPi, the
  /// fact-id counter and the TPi indexes are left as they were when the
  /// iteration started.
  Result<int64_t> GroundAtomsIteration();

  /// \brief Algorithm 1 lines 8-10: builds the factor table TPhi
  /// (I1, I2, I3, w), including singleton factors.
  Result<TablePtr> GroundFactors();

  /// \brief Query 3 over the current TPi. Returns facts deleted.
  Result<int64_t> ApplyConstraints();

  /// \brief Restores the fixpoint state (TPi, fact-id counter, bans,
  /// iteration count) from a checkpoint written by a previous run; call
  /// before GroundAtoms() to continue where that run stopped.
  Status ResumeFrom(const std::string& checkpoint_dir);

  /// \brief Threads a fault injector into every statement's ExecContext
  /// (simulated operator memory/deadline trips). Not owned.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// \brief Attaches an execution-stats registry (not owned; may be
  /// nullptr). Every statement's operators then report into it under an
  /// "iter<i>/M<p>" / "query2/..." / "query3" scope, the fixpoint reports
  /// per-iteration per-partition delta sizes and join times, and the pool's
  /// worker counters are snapshotted at the end of each phase. Purely
  /// observational — outputs are bit-identical with or without it.
  void set_stats_registry(StatsRegistry* registry) { obs_ = registry; }

  const GroundingStats& stats() const { return stats_; }
  const RelationalKB& rkb() const { return *rkb_; }

  /// \brief EXPLAIN text of the last iteration's Query 1 plans: one tree
  /// per partition with estimated (cold start: heuristic; warm: previous
  /// iteration's observation for the same statement) and observed
  /// cardinalities. Stable text — no timings — so goldens can pin it.
  std::string ExplainPlans() const;

  /// \brief Entities banned by constraint application, as (entity, class)
  /// keys on the x side (Type I) and y side (Type II). Atoms keyed by a
  /// banned entity are never merged back into TPi — without this, a
  /// violating fact deleted by Query 3 would be re-derived by the same
  /// rule in the next iteration and grounding would never converge.
  const std::vector<std::pair<EntityId, ClassId>>& banned_x() const {
    return banned_x_;
  }
  const std::vector<std::pair<EntityId, ClassId>>& banned_y() const {
    return banned_y_;
  }

 private:
  bool IsBanned(const RowView& atom) const;
  /// True while the grounder keeps its TPi indexes across statements (no
  /// memory budget armed).
  bool KeepsIndexes() const { return !spill_session_->enabled(); }
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
  /// Writes an iteration checkpoint when options call for one.
  Status MaybeCheckpoint();

  /// Snapshots the pool's worker counters into the registry (no-op without
  /// a registry or a pool).
  void SnapshotWorkerStats();

  RelationalKB* rkb_;
  StatsRegistry* obs_ = nullptr;
  /// Morsel-parallel executor for the statement plans; null on the serial
  /// path (options_.num_threads resolves to 1).
  std::unique_ptr<ThreadPool> pool_;
  /// Out-of-core state (budget + spill context); disabled when no memory
  /// budget resolves. Statements get it via ExecContext::set_spill.
  std::unique_ptr<SpillSession> spill_session_;
  /// Semi-naive state: TPi row count at the start of the last iteration's
  /// merge (rows from here on are the delta); 0 when the next iteration
  /// must run the full pass.
  int64_t delta_start_ = 0;
  /// Persistent TPi indexes (see the class comment).
  TPiIndexes indexes_;
  /// The rule tables indexed for the delta-driven passes, built on first
  /// use.
  RuleIndexes rule_indexes_;
  GroundingOptions options_;
  GroundingStats stats_;
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
  /// Rendered Query 1 plan trees of the last iteration (see ExplainPlans).
  std::vector<std::string> explain_lines_;
  std::vector<std::pair<EntityId, ClassId>> banned_x_;
  std::vector<std::pair<EntityId, ClassId>> banned_y_;
  std::unordered_set<uint64_t> banned_x_keys_;
  std::unordered_set<uint64_t> banned_y_keys_;
};

}  // namespace probkb

#endif  // PROBKB_GROUNDING_GROUNDER_H_
