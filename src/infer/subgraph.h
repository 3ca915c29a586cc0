#ifndef PROBKB_INFER_SUBGRAPH_H_
#define PROBKB_INFER_SUBGRAPH_H_

#include <unordered_map>

#include "infer/gibbs.h"
#include "kb/relational_model.h"
#include "relational/table.h"
#include "util/result.h"

namespace probkb {

struct SubgraphInferenceOptions {
  /// Seed et al. are fixed by the caller; with identical inputs the
  /// marginals are bit-identical across calls and threads.
  GibbsOptions gibbs;
  /// Enumerate exactly instead of sampling when the subgraph has at most
  /// `exact_max_vars` variables — tiny query neighborhoods get exact
  /// answers for free.
  bool use_exact_when_small = true;
  int exact_max_vars = 16;
};

struct SubgraphMarginals {
  /// P(fact = true) keyed by fact id, covering every row of the sub-TPi.
  std::unordered_map<FactId, double> probability;
  /// True when ExactMarginals answered instead of Gibbs.
  bool exact = false;
  int num_variables = 0;
  int64_t num_factors = 0;
};

/// \brief Marginal inference over one query's local subgraph: builds the
/// factor graph from (sub_t_pi, t_phi) and runs exact enumeration or
/// GibbsMarginals, exact on acyclic components. The serve path calls this
/// per query against a pinned snapshot's neighborhood.
Result<SubgraphMarginals> ComputeSubgraphMarginals(
    const Table& sub_t_pi, const Table& t_phi,
    const SubgraphInferenceOptions& opts);

}  // namespace probkb

#endif  // PROBKB_INFER_SUBGRAPH_H_
