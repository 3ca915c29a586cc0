#include "infer/subgraph.h"

namespace probkb {

Result<SubgraphMarginals> ComputeSubgraphMarginals(
    const Table& sub_t_pi, const Table& t_phi,
    const SubgraphInferenceOptions& opts) {
  SubgraphMarginals out;
  if (sub_t_pi.NumRows() == 0) return out;
  PROBKB_ASSIGN_OR_RETURN(FactorGraph graph,
                          FactorGraph::FromTables(sub_t_pi, t_phi));
  out.num_variables = graph.num_variables();
  out.num_factors = graph.num_factors();

  std::vector<double> marginals;
  if (opts.use_exact_when_small &&
      graph.num_variables() <= opts.exact_max_vars) {
    PROBKB_ASSIGN_OR_RETURN(marginals,
                            ExactMarginals(graph, opts.exact_max_vars));
    out.exact = true;
  } else {
    // Sample on the calling thread: the serve path's readers already
    // supply the parallelism.
    GibbsOptions gibbs_options = opts.gibbs;
    gibbs_options.num_threads = 1;
    PROBKB_ASSIGN_OR_RETURN(GibbsResult gibbs,
                            GibbsMarginals(graph, gibbs_options));
    marginals = std::move(gibbs.marginals);
  }
  out.probability.reserve(marginals.size());
  for (int32_t v = 0; v < graph.num_variables(); ++v) {
    out.probability.emplace(graph.fact_id(v),
                            marginals[static_cast<size_t>(v)]);
  }
  return out;
}

}  // namespace probkb
