#ifndef PROBKB_INFER_GIBBS_H_
#define PROBKB_INFER_GIBBS_H_

#include <cstdint>
#include <vector>

#include "factor/factor_graph.h"
#include "util/result.h"

namespace probkb {

/// \brief Variable-update schedules of the Gibbs sampler.
///
/// Both names now run the same sampler: the chromatic schedule of
/// Gonzalez et al. [14] that the paper uses via GraphLab, over the graph's
/// color-major numbering, where same-color variables share no factor and
/// update concurrently. The choice no longer changes the sample path; the
/// enum stays only because callers (the serve benchmark) still name it.
enum class GibbsSchedule { kSequential, kChromatic };

class StatsRegistry;

/// Smallest share of the largest color worth a thread of its own: below
/// it the barrier after each color costs more than the thread saves.
inline constexpr int kGibbsVariablesPerThread = 2048;

struct GibbsOptions {
  int burn_in_sweeps = 200;
  int sample_sweeps = 800;
  /// Ignored; see GibbsSchedule.
  GibbsSchedule schedule = GibbsSchedule::kSequential;
  /// Independent chains (different seeds). More than one enables the
  /// Gelman-Rubin convergence diagnostic; marginals average the chains.
  int num_chains = 1;
  uint64_t seed = 42;
  /// Fault tolerance: advance each chain by at most this many sweeps per
  /// call, persisting progress in the caller's GibbsCheckpoint (0 runs to
  /// completion in one call). A run split across calls is bit-identical
  /// to an uninterrupted one, at any thread counts, as long as the other
  /// options stay the same: every draw is keyed on (seed, chain, sweep,
  /// variable), so the checkpoint needs no RNG state.
  int max_sweeps_per_call = 0;
  /// Threads sweeping each color, the caller included; 0 resolves through
  /// ThreadPool::ResolveThreads (PROBKB_THREADS, else all cores). The
  /// marginals are bit-identical at any thread count. The sampler uses at
  /// most one thread per kGibbsVariablesPerThread variables of the
  /// largest color.
  int num_threads = 0;
  /// Optional execution-stats sink: per-chain throughput plus a
  /// "gibbs_sweep" latency histogram (per-sweep timing is only taken when
  /// attached). Never affects the sample path.
  StatsRegistry* stats = nullptr;
};

/// \brief Resumable state of one Gibbs chain at a sweep boundary.
struct GibbsChainState {
  int sweeps_done = 0;
  std::vector<uint8_t> assignment;
  /// Per-variable count of post-burn-in sweeps that sampled 1.
  std::vector<int64_t> ones;
};

/// \brief Sampler state across chains; pass an empty one to start fresh.
struct GibbsCheckpoint {
  std::vector<GibbsChainState> chains;
  int sweeps_done() const {
    return chains.empty() ? 0 : chains.front().sweeps_done;
  }
};

struct GibbsResult {
  /// Marginal P(X_v = 1) per variable (averaged over chains).
  std::vector<double> marginals;
  /// Measured wall-clock seconds (all chains).
  double seconds = 0.0;
  int num_colors = 1;
  /// Threads that swept each color (see GibbsOptions::num_threads).
  int threads = 1;
  /// Max potential-scale-reduction factor (Gelman-Rubin R-hat) over
  /// variables; ~1.0 indicates the chains mixed. 1.0 when num_chains == 1.
  double max_psrf = 1.0;
  /// False when max_sweeps_per_call stopped the run early; call again with
  /// the same checkpoint to continue. Marginals then cover only the
  /// post-burn-in sweeps completed so far.
  bool complete = true;
  int sweeps_done = 0;
  /// Per-chain throughput of *this call*: wall-clock seconds spent
  /// advancing chain i and its sampling rate in variable updates per
  /// second (sweeps_run x num_variables / seconds).
  std::vector<double> chain_seconds;
  std::vector<double> chain_samples_per_sec;
};

/// \brief Gibbs sampling for marginal inference over the ground factor
/// graph (the MLN marginal-inference step, Eq. (4)).
///
/// With a non-null `checkpoint` the sampler initializes from (and updates)
/// that state, enabling interrupted-and-resumed runs; with
/// options.max_sweeps_per_call set it returns after that many additional
/// sweeps with result.complete == false until the schedule finishes.
Result<GibbsResult> GibbsMarginals(const FactorGraph& graph,
                                   const GibbsOptions& options,
                                   GibbsCheckpoint* checkpoint = nullptr);

/// \brief Conditional log-odds of X_v = 1 given the rest of assignment
/// `a` (indexed by variable, ending with the graph's true slot): the sum
/// over v's incidence records of log phi(x_v=1) - log phi(x_v=0), taken in
/// incidence order and bit-identical to flipping x_v in place and
/// evaluating each incident factor with GroundFactor::LogValue.
double ConditionalLogOdds(const FactorGraph& graph, int32_t v,
                          const uint8_t* a);

/// \brief Exact marginals by enumeration; the test oracle. Fails for more
/// than `max_variables` variables.
Result<std::vector<double>> ExactMarginals(const FactorGraph& graph,
                                           int max_variables = 20);

}  // namespace probkb

#endif  // PROBKB_INFER_GIBBS_H_
