#ifndef PROBKB_CORE_PROBKB_H_
#define PROBKB_CORE_PROBKB_H_

#include <memory>
#include <string>

#include "factor/factor_graph.h"
#include "grounding/grounder.h"
#include "grounding/mpp_grounder.h"
#include "infer/gibbs.h"
#include "kb/kb_query.h"
#include "kb/knowledge_base.h"
#include "obs/stats_registry.h"
#include "util/result.h"

namespace probkb {

/// \brief One-call configuration of the full ProbKB pipeline (Figure 1):
/// quality control -> batched grounding -> factor graph -> marginal
/// inference -> write-back.
struct ExpansionOptions {
  /// Rule cleaning: keep the top fraction of rules by learner score
  /// (Section 5.3); 1.0 keeps everything.
  double rule_cleaning_theta = 1.0;
  /// Apply Query 3 to the extracted facts before grounding (Section 6.1).
  bool constraints_upfront = true;
  GroundingOptions grounding;
  /// Run Gibbs marginal inference and write probabilities back into the
  /// facts table. When false, inferred facts keep NULL weights.
  bool run_inference = true;
  GibbsOptions gibbs;
  /// Execute grounding on the shared-nothing simulator instead of the
  /// single-node engine.
  bool use_mpp = false;
  int mpp_segments = 32;
  MppMode mpp_mode = MppMode::kViews;
  /// Resume grounding from grounding.checkpoint_dir when that directory
  /// holds a complete checkpoint from an earlier (interrupted) run.
  bool resume_from_checkpoint = false;
  /// Execution-stats sink (not owned; may be nullptr) for the grounder's
  /// statements and, unless gibbs.stats names its own, the sampler.
  /// Purely observational — outputs are bit-identical with or without it.
  StatsRegistry* stats = nullptr;
};

/// \brief How many statements each pipeline stage abandoned to a budget
/// failure (deadline, row cap, cancellation). All zero unless
/// ExpansionResult::partial.
struct StageFailureCounters {
  int grounding = 0;
  int factor_grounding = 0;
  int inference = 0;
  int Total() const { return grounding + factor_grounding + inference; }
  std::string ToString() const;
};

/// \brief Everything the pipeline produces.
struct ExpansionResult {
  /// The expanded facts table (I, R, x, C1, y, C2, w); inferred facts
  /// carry their marginal probability in w after inference.
  TablePtr t_pi;
  /// The ground factor table (I1, I2, I3, w).
  TablePtr t_phi;
  /// The factor graph over t_pi/t_phi (lineage queries, re-inference).
  std::shared_ptr<FactorGraph> graph;
  /// Fact ids >= this are inferred; below are extracted.
  FactId first_inferred_id = 0;
  int64_t constraints_deleted_upfront = 0;
  GroundingStats grounding_stats;
  /// The grounder's ExplainPlans() after factor grounding.
  std::string explain_plans;
  /// Inference record (marginals indexed by graph variable); default-
  /// constructed when run_inference was false.
  GibbsResult inference;
  /// Graceful degradation: true when a budget failure stopped the
  /// pipeline early. t_pi then holds every fact expanded before the stop,
  /// `failures` counts what each stage abandoned, and `stop_reason` is
  /// the status that ended the run. Later stages (factor grounding,
  /// inference) are skipped once a stage goes partial.
  bool partial = false;
  StageFailureCounters failures;
  Status stop_reason;
};

/// \brief Runs the whole ProbKB pipeline over `kb` and returns the
/// expanded knowledge base artifacts. `kb` is not modified. With the
/// global tracer on, the run is one `expand` span with `rule_cleaning`,
/// `load`, `query3`, `factor_graph`, `gibbs` and `writeback` children; the
/// grounder's `iteration` and `ground_factors` spans nest under it too.
///
///   auto kb = ParseMlnFile("program.mln");
///   auto result = ExpandKnowledgeBase(*kb);
///   KbQuery query = MakeQuery(*kb, *result);
///   for (auto& f : query.Find("live_in", "Ann", std::nullopt)) ...
Result<ExpansionResult> ExpandKnowledgeBase(
    const KnowledgeBase& kb, const ExpansionOptions& options = {});

/// \brief Convenience: a query view over an expansion's facts.
KbQuery MakeQuery(const KnowledgeBase& kb, const ExpansionResult& result);

}  // namespace probkb

#endif  // PROBKB_CORE_PROBKB_H_
