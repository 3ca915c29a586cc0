#include "core/probkb.h"

#include "infer/writeback.h"
#include "quality/rule_cleaning.h"
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
  FaultInjector injector(options.fault_injection);
  FaultInjector* inj =
      options.fault_injection.enabled ? &injector : nullptr;

  // Quality control: rule cleaning, then the up-front Query 3 pass.
  const bool clean = options.rule_cleaning_theta < 1.0;
  const std::vector<HornRule> kept =
      clean ? TopThetaRules(kb.rules(), options.rule_cleaning_theta)
            : std::vector<HornRule>{};
  RelationalKB rkb = BuildRelationalModel(kb, clean ? kept : kb.rules());
  result.first_inferred_id = rkb.next_fact_id;
  if (options.constraints_upfront) {
    Grounder pre(&rkb, options.grounding);
    PROBKB_ASSIGN_OR_RETURN(result.constraints_deleted_upfront,
                            pre.ApplyConstraints());
  }

  // Grounding (Algorithm 1) on the chosen engine. A budget failure here
  // degrades to a partial result carrying the facts expanded so far; any
  // other error still propagates.
  const std::string& ckpt_dir = options.grounding.checkpoint_dir;
  const bool resume = options.resume_from_checkpoint && !ckpt_dir.empty() &&
                      GroundingCheckpointExists(ckpt_dir);
  if (options.use_mpp) {
    MppGrounder grounder(rkb, options.mpp_segments, options.mpp_mode,
                         options.grounding, CostParams{}, inj,
                         options.retry);
    if (resume) PROBKB_RETURN_NOT_OK(grounder.ResumeFrom(ckpt_dir));
    Status st = grounder.GroundAtoms();
    result.grounding_stats = grounder.stats();
    if (!st.ok()) {
      if (!MakePartial(st, &result.failures.grounding, &result)) return st;
    } else {
      Result<TablePtr> factors = grounder.GroundFactors();
      if (factors.ok()) {
        result.t_phi = factors.MoveValueOrDie();
      } else if (!MakePartial(factors.status(),
                              &result.failures.factor_grounding, &result)) {
        return factors.status();
      }
      result.grounding_stats = grounder.stats();
    }
    result.t_pi = grounder.GatherTPi();
    result.fault_stats = injector.stats();
  } else {
    Grounder grounder(&rkb, options.grounding);
    grounder.set_fault_injector(inj);
    if (resume) PROBKB_RETURN_NOT_OK(grounder.ResumeFrom(ckpt_dir));
    Status st = grounder.GroundAtoms();
    result.grounding_stats = grounder.stats();
    if (!st.ok()) {
      if (!MakePartial(st, &result.failures.grounding, &result)) return st;
    } else {
      Result<TablePtr> factors = grounder.GroundFactors();
      if (factors.ok()) {
        result.t_phi = factors.MoveValueOrDie();
      } else if (!MakePartial(factors.status(),
                              &result.failures.factor_grounding, &result)) {
        return factors.status();
      }
      result.grounding_stats = grounder.stats();
    }
    result.t_pi = rkb.t_pi;
    result.fault_stats = injector.stats();
  }
  if (result.partial) {
    // Partially expanded KB: inferred facts keep NULL weights; no factor
    // graph (t_phi may be missing or incomplete).
    if (result.t_phi == nullptr) result.t_phi = Table::Make(TPhiSchema());
    return result;
  }

  // Factor graph + marginal inference + write-back.
  PROBKB_ASSIGN_OR_RETURN(FactorGraph graph,
                          FactorGraph::FromTables(*result.t_pi,
                                                  *result.t_phi));
  result.graph = std::make_shared<FactorGraph>(std::move(graph));
  if (options.run_inference) {
    // With max_sweeps_per_call set, sampling advances in resumable slices
    // (the checkpoint carries exact chain state between calls).
    GibbsCheckpoint sampler_state;
    Result<GibbsResult> inference =
        GibbsMarginals(*result.graph, options.gibbs, &sampler_state);
    while (inference.ok() && !inference->complete) {
      inference = GibbsMarginals(*result.graph, options.gibbs,
                                 &sampler_state);
    }
    if (!inference.ok()) {
      if (!MakePartial(inference.status(), &result.failures.inference,
                       &result)) {
        return inference.status();
      }
      return result;
    }
    result.inference = inference.MoveValueOrDie();
    PROBKB_ASSIGN_OR_RETURN(
        int64_t written,
        WriteMarginalsToTPi(result.t_pi.get(), *result.graph,
                            result.inference.marginals));
    (void)written;
  }
  return result;
}

KbQuery MakeQuery(const KnowledgeBase& kb, const ExpansionResult& result) {
  return KbQuery(&kb, result.t_pi, result.first_inferred_id);
}

}  // namespace probkb
