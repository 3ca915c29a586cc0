#ifndef PROBKB_INFER_MAP_INFERENCE_H_
#define PROBKB_INFER_MAP_INFERENCE_H_

#include <vector>

#include "factor/factor_graph.h"
#include "util/random.h"
#include "util/result.h"

namespace probkb {

/// \brief A MAP (most-likely-world) solution: an assignment and its
/// unnormalized log-probability under Eq. (4).
struct MapSolution {
  std::vector<uint8_t> assignment;
  double log_score = 0.0;
};

/// \brief Change in LogScore from flipping variable `v` of assignment `a`
/// (indexed by variable, ending with the graph's true slot). Per incidence
/// record it subtracts the factor's current value and then adds its
/// flipped one, bit-identical to flipping x_v in place between two
/// GroundFactor::LogValue calls.
double FlipDelta(const FactorGraph& graph, int32_t v, const uint8_t* a);

/// \brief Exact MAP by enumeration (test oracle, <= `max_variables`).
Result<MapSolution> ExactMap(const FactorGraph& graph,
                             int max_variables = 20);

struct IcmOptions {
  int restarts = 8;
  int max_sweeps_per_restart = 100;
  uint64_t seed = 42;
};

/// \brief Iterated conditional modes: coordinate ascent on the log-score
/// with random restarts. Handles arbitrary (including negative) weights.
///
/// The paper performs marginal inference so results can be stored in the
/// KB; MAP is the "other inference type" it names (Section 2.2) — this
/// completes the inference API for clients that want the most likely
/// world instead.
Result<MapSolution> IcmMap(const FactorGraph& graph,
                           const IcmOptions& options = {});

struct MaxWalkSatOptions {
  int max_tries = 8;
  int max_flips = 20000;
  /// Probability of a random walk (flip a random variable of the chosen
  /// unsatisfied clause) instead of a greedy flip.
  double noise = 0.2;
  uint64_t seed = 42;
};

/// \brief MaxWalkSAT (Kautz et al.) over the ground Horn clauses: local
/// search that targets unsatisfied weighted clauses. Requires non-negative
/// weights (MLN clause weights from rule learners are).
Result<MapSolution> MaxWalkSatMap(const FactorGraph& graph,
                                  const MaxWalkSatOptions& options = {});

}  // namespace probkb

#endif  // PROBKB_INFER_MAP_INFERENCE_H_
