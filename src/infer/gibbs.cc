#include "infer/gibbs.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/stats_registry.h"
#include "obs/trace.h"
#include "util/strings.h"
#include "util/timer.h"

namespace probkb {

double ConditionalLogOdds(const FactorGraph& graph, int32_t v,
                          const uint8_t* a) {
  // Each record adds v1 and then subtracts v0: the same two operations,
  // in the same order, as evaluating the factor with x_v = 1 and then 0.
  double delta = 0.0;
  for (const Incidence& r : graph.IncidencesOf(v)) {
    const FlipValues x = r.LogValues(a);
    delta += x.v1;
    delta -= x.v0;
  }
  return delta;
}

namespace {

double Sigmoid(double x) {
  if (x >= 0) {
    return 1.0 / (1.0 + std::exp(-x));
  }
  double e = std::exp(x);
  return e / (1.0 + e);
}

/// A variable's last conditional and its probability: a repeated
/// conditional (always, for a variable with only singleton factors)
/// skips the exp().
struct ConditionalMemo {
  double log_odds = std::numeric_limits<double>::quiet_NaN();
  double p1 = 0.0;
};

/// Fresh chain state: zero assignment, seeded RNG, zero sample counts.
GibbsChainState InitChain(int num_variables, uint64_t seed) {
  GibbsChainState st;
  st.assignment.assign(static_cast<size_t>(num_variables), 0);
  st.ones.assign(static_cast<size_t>(num_variables), 0);
  st.rng_state = Rng(seed).State();
  return st;
}

/// Advances one chain from its saved state up to sweep `end_sweep`
/// (exclusive). Restoring the RNG words makes the continuation replay the
/// exact sample path an uninterrupted run would take.
void AdvanceChain(const FactorGraph& graph, const GibbsOptions& options,
                  const std::vector<int32_t>& order, int end_sweep,
                  std::vector<ConditionalMemo>* memo, GibbsChainState* st) {
  const int n = graph.num_variables();
  Rng rng(0);
  rng.SetState(st->rng_state);
  // The kernel's working copy of the assignment carries the true slot.
  std::vector<uint8_t> a(st->assignment);
  a.push_back(1);
  // Per-sweep latencies are only recorded with a stats sink attached.
  const bool timed = options.stats != nullptr;
  for (int sweep = st->sweeps_done; sweep < end_sweep; ++sweep) {
    Timer sweep_timer;
    for (int32_t v : order) {
      const double log_odds = ConditionalLogOdds(graph, v, a.data());
      ConditionalMemo& m = (*memo)[static_cast<size_t>(v)];
      if (log_odds != m.log_odds) m = {log_odds, Sigmoid(log_odds)};
      a[static_cast<size_t>(v)] = rng.Bernoulli(m.p1) ? 1 : 0;
    }
    if (sweep >= options.burn_in_sweeps) {
      for (int32_t v = 0; v < n; ++v) {
        st->ones[static_cast<size_t>(v)] += a[static_cast<size_t>(v)];
      }
    }
    if (timed) {
      options.stats->RecordLatency("gibbs_sweep", sweep_timer.Seconds());
    }
  }
  a.pop_back();
  st->assignment = std::move(a);
  st->sweeps_done = end_sweep;
  st->rng_state = rng.State();
}

/// Gelman-Rubin potential scale reduction factor for one variable given
/// the per-chain one-counts over `samples` draws of a binary indicator.
double Psrf(const std::vector<int64_t>& chain_ones, int64_t samples) {
  const size_t chains = chain_ones.size();
  if (chains < 2 || samples < 2) return 1.0;
  const double n = static_cast<double>(samples);
  double grand_mean = 0.0;
  std::vector<double> means(chains);
  std::vector<double> within(chains);
  for (size_t c = 0; c < chains; ++c) {
    double m = static_cast<double>(chain_ones[c]) / n;
    means[c] = m;
    // Sample variance of a binary sequence with k ones.
    within[c] = n / (n - 1.0) * m * (1.0 - m);
    grand_mean += m;
  }
  grand_mean /= static_cast<double>(chains);
  double b = 0.0;  // between-chain variance x n
  for (double m : means) b += (m - grand_mean) * (m - grand_mean);
  b *= n / (static_cast<double>(chains) - 1.0);
  double w = 0.0;
  for (double v : within) w += v;
  w /= static_cast<double>(chains);
  if (w <= 1e-12) return 1.0;  // chains agree exactly (e.g. frozen var)
  double var_hat = (n - 1.0) / n * w + b / n;
  return std::sqrt(var_hat / w);
}

}  // namespace

Result<GibbsResult> GibbsMarginals(const FactorGraph& graph,
                                   const GibbsOptions& options,
                                   GibbsCheckpoint* checkpoint) {
  if (options.burn_in_sweeps < 0 || options.sample_sweeps <= 0) {
    return Status::InvalidArgument("sweep counts must be positive");
  }
  if (options.num_chains < 1) {
    return Status::InvalidArgument("num_chains must be >= 1");
  }
  const int n = graph.num_variables();
  Timer timer;

  // Update order: plain index order for sequential; grouped by color for
  // chromatic. Within a color no two variables share a factor, so the
  // sequential in-color update below produces exactly what a parallel
  // update would.
  std::vector<int32_t> order(static_cast<size_t>(n));
  int num_colors = 1;
  if (options.schedule == GibbsSchedule::kChromatic) {
    std::vector<int> colors = graph.ColorVariables();
    num_colors =
        colors.empty() ? 1 : *std::max_element(colors.begin(), colors.end()) + 1;
    size_t pos = 0;
    for (int c = 0; c < num_colors; ++c) {
      for (int32_t v = 0; v < n; ++v) {
        if (colors[static_cast<size_t>(v)] == c) order[pos++] = v;
      }
    }
  } else {
    for (int32_t v = 0; v < n; ++v) order[static_cast<size_t>(v)] = v;
  }

  // Chain state lives in the caller's checkpoint when one is supplied, so
  // an interrupted run continues from its last sweep boundary; otherwise
  // in a local that starts fresh and completes in this call.
  GibbsCheckpoint local_state;
  GibbsCheckpoint* state = checkpoint ? checkpoint : &local_state;
  const int total_sweeps = options.burn_in_sweeps + options.sample_sweeps;
  if (state->chains.empty()) {
    state->chains.reserve(static_cast<size_t>(options.num_chains));
    for (int chain = 0; chain < options.num_chains; ++chain) {
      state->chains.push_back(InitChain(
          n, options.seed +
                 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(chain)));
    }
  } else if (static_cast<int>(state->chains.size()) != options.num_chains ||
             static_cast<int>(state->chains.front().assignment.size()) != n) {
    return Status::InvalidArgument(
        "Gibbs checkpoint does not match num_chains / the factor graph");
  }

  const int sweeps_before = state->sweeps_done();
  int end_sweep = total_sweeps;
  if (options.max_sweeps_per_call > 0) {
    end_sweep = std::min(total_sweeps,
                         sweeps_before + options.max_sweeps_per_call);
  }
  std::vector<double> chain_seconds;
  chain_seconds.reserve(state->chains.size());
  std::vector<ConditionalMemo> memo(static_cast<size_t>(n));
  for (size_t chain = 0; chain < state->chains.size(); ++chain) {
    GibbsChainState& st = state->chains[chain];
    Timer chain_timer;
    AdvanceChain(graph, options, order, end_sweep, &memo, &st);
    chain_seconds.push_back(chain_timer.Seconds());
    if (options.stats != nullptr) {
      options.stats->RecordGibbsChain(static_cast<int>(chain),
                                      end_sweep - sweeps_before, n,
                                      chain_seconds.back());
    }
    Tracer::Global()->Event(EventKind::kGibbsMilestone, "sweeps",
                            static_cast<int64_t>(chain), st.sweeps_done,
                            end_sweep == total_sweeps ? 1 : 0);
  }

  GibbsResult result;
  result.chain_seconds = chain_seconds;
  {
    const double updates =
        static_cast<double>(end_sweep - sweeps_before) *
        static_cast<double>(n);
    result.chain_samples_per_sec.reserve(chain_seconds.size());
    for (double s : chain_seconds) {
      result.chain_samples_per_sec.push_back(s > 0 ? updates / s : 0.0);
    }
  }
  result.sweeps_done = end_sweep;
  result.complete = end_sweep == total_sweeps;
  result.marginals.assign(static_cast<size_t>(n), 0.0);
  const int64_t sampled =
      std::max(0, end_sweep - options.burn_in_sweeps);
  const double denom = static_cast<double>(sampled) *
                       static_cast<double>(options.num_chains);
  if (sampled > 0) {
    for (int32_t v = 0; v < n; ++v) {
      int64_t total = 0;
      for (const GibbsChainState& st : state->chains) {
        total += st.ones[static_cast<size_t>(v)];
      }
      result.marginals[static_cast<size_t>(v)] =
          static_cast<double>(total) / denom;
    }
  }

  // Convergence diagnostic across chains.
  result.max_psrf = 1.0;
  if (options.num_chains > 1 && sampled > 0) {
    std::vector<int64_t> chain_ones(static_cast<size_t>(options.num_chains));
    for (int32_t v = 0; v < n; ++v) {
      for (int c = 0; c < options.num_chains; ++c) {
        chain_ones[static_cast<size_t>(c)] =
            state->chains[static_cast<size_t>(c)].ones[static_cast<size_t>(v)];
      }
      result.max_psrf =
          std::max(result.max_psrf, Psrf(chain_ones, sampled));
    }
  }

  result.seconds = timer.Seconds();
  result.num_colors = num_colors;
  return result;
}

Result<std::vector<double>> ExactMarginals(const FactorGraph& graph,
                                           int max_variables) {
  const int n = graph.num_variables();
  if (n > max_variables) {
    return Status::InvalidArgument(StrFormat(
        "%d variables exceed the exact-enumeration cap of %d", n,
        max_variables));
  }
  std::vector<uint8_t> assignment(static_cast<size_t>(n), 0);
  std::vector<double> numer(static_cast<size_t>(n), 0.0);
  double z = 0.0;
  const uint64_t total = 1ULL << n;
  for (uint64_t bits = 0; bits < total; ++bits) {
    for (int v = 0; v < n; ++v) {
      assignment[static_cast<size_t>(v)] =
          static_cast<uint8_t>((bits >> v) & 1);
    }
    double weight = std::exp(graph.LogScore(assignment));
    z += weight;
    for (int v = 0; v < n; ++v) {
      if (assignment[static_cast<size_t>(v)]) {
        numer[static_cast<size_t>(v)] += weight;
      }
    }
  }
  for (int v = 0; v < n; ++v) numer[static_cast<size_t>(v)] /= z;
  return numer;
}

}  // namespace probkb
