#include "core/probkb.h"

#include "infer/writeback.h"
#include "obs/trace.h"
#include "quality/rule_cleaning.h"
#include "util/logging.h"
#include "util/strings.h"

namespace probkb {

std::string StageFailureCounters::ToString() const {
  return StrFormat(
      "stage failures: grounding %d, factor grounding %d, inference %d",
      grounding, factor_grounding, inference);
}

namespace {

/// Converts a budget failure into a partial result; any other error
/// propagates. `counter` is the stage's failure counter.
bool MakePartial(const Status& st, int* counter, ExpansionResult* result) {
  if (!IsBudgetFailure(st.code())) return false;
  result->partial = true;
  result->stop_reason = st;
  ++*counter;
  return true;
}

}  // namespace

Result<ExpansionResult> ExpandKnowledgeBase(const KnowledgeBase& kb,
                                            const ExpansionOptions& options) {
  if (options.rule_cleaning_theta < 0) {
    return Status::InvalidArgument("rule_cleaning_theta must be >= 0");
  }
  if (options.use_mpp && options.mpp_segments < 1) {
    return Status::InvalidArgument("mpp_segments must be >= 1");
  }

  ExpansionResult result;
  Tracer* tracer = Tracer::Global();
  TraceSpan root(tracer, "expand", "pipeline");

  // Quality control: rule cleaning, then the up-front Query 3 pass.
  const bool clean = options.rule_cleaning_theta < 1.0;
  std::vector<HornRule> kept;
  if (clean) {
    TraceSpan span(tracer, "rule_cleaning", "pipeline");
    kept = TopThetaRules(kb.rules(), options.rule_cleaning_theta);
  }
  RelationalKB rkb;
  {
    TraceSpan span(tracer, "load", "pipeline");
    rkb = BuildRelationalModel(kb, clean ? kept : kb.rules());
  }
  result.first_inferred_id = rkb.next_fact_id;
  if (options.constraints_upfront) {
    TraceSpan span(tracer, "query3", "pipeline");
    Grounder pre(&rkb, options.grounding);
    pre.set_stats_registry(options.stats);
    PROBKB_ASSIGN_OR_RETURN(result.constraints_deleted_upfront,
                            pre.ApplyConstraints());
  }

  // Grounding (Algorithm 1) on the chosen engine. A budget failure here
  // degrades to a partial result carrying the facts expanded so far; any
  // other error still propagates.
  std::unique_ptr<FixpointGrounder> grounder;
  {
    // The MPP engine distributes TPi (and its views) as it is built.
    TraceSpan span(tracer, "load", "pipeline");
    if (options.use_mpp) {
      grounder = std::make_unique<MppGrounder>(
          rkb, options.mpp_segments, options.mpp_mode, options.grounding);
    } else {
      grounder = std::make_unique<Grounder>(&rkb, options.grounding);
    }
  }
  grounder->set_stats_registry(options.stats);
  const std::string& ckpt_dir = options.grounding.checkpoint_dir;
  if (options.resume_from_checkpoint && !ckpt_dir.empty() &&
      GroundingCheckpointExists(ckpt_dir)) {
    PROBKB_RETURN_NOT_OK(grounder->ResumeFrom(ckpt_dir));
    PROBKB_SLOG(Grounding, Info) << "resumed from " << ckpt_dir
                                 << " at iteration "
                                 << grounder->stats().iterations;
  }
  if (Status st = grounder->GroundAtoms(); !st.ok()) {
    if (!MakePartial(st, &result.failures.grounding, &result)) return st;
  } else {
    Result<TablePtr> factors = grounder->GroundFactors();
    if (factors.ok()) {
      result.t_phi = factors.MoveValueOrDie();
    } else if (!MakePartial(factors.status(),
                            &result.failures.factor_grounding, &result)) {
      return factors.status();
    }
  }
  result.grounding_stats = grounder->stats();
  result.explain_plans = grounder->ExplainPlans();
  result.t_pi = grounder->TPi();
  // The engine's indexes and views are not needed past this point; free
  // them before the factor graph and the sampler allocate.
  grounder.reset();
  if (result.partial) {
    // Partially expanded KB: inferred facts keep NULL weights; no factor
    // graph (t_phi may be missing or incomplete).
    if (result.t_phi == nullptr) result.t_phi = Table::Make(TPhiSchema());
    return result;
  }

  // Factor graph + marginal inference + write-back.
  {
    TraceSpan span(tracer, "factor_graph", "pipeline");
    PROBKB_ASSIGN_OR_RETURN(FactorGraph graph,
                            FactorGraph::FromTables(*result.t_pi,
                                                    *result.t_phi));
    result.graph = std::make_shared<FactorGraph>(std::move(graph));
  }
  if (!options.run_inference) return result;
  GibbsOptions gibbs = options.gibbs;
  if (gibbs.stats == nullptr) gibbs.stats = options.stats;
  {
    TraceSpan span(tracer, "gibbs", "pipeline");
    // With max_sweeps_per_call set, sampling advances in resumable slices
    // (the checkpoint carries exact chain state between calls).
    GibbsCheckpoint sampler_state;
    Result<GibbsResult> inference =
        GibbsMarginals(*result.graph, gibbs, &sampler_state);
    while (inference.ok() && !inference->complete) {
      inference = GibbsMarginals(*result.graph, gibbs, &sampler_state);
    }
    if (!inference.ok()) {
      if (!MakePartial(inference.status(), &result.failures.inference,
                       &result)) {
        return inference.status();
      }
      return result;
    }
    result.inference = inference.MoveValueOrDie();
  }
  TraceSpan span(tracer, "writeback", "pipeline");
  PROBKB_ASSIGN_OR_RETURN(
      int64_t written,
      WriteMarginalsToTPi(result.t_pi.get(), *result.graph,
                          result.inference.marginals));
  (void)written;
  return result;
}

KbQuery MakeQuery(const KnowledgeBase& kb, const ExpansionResult& result) {
  return KbQuery(&kb, result.t_pi, result.first_inferred_id);
}

}  // namespace probkb
