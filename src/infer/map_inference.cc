#include "infer/map_inference.h"

#include <algorithm>

#include "util/strings.h"

namespace probkb {

double FlipDelta(const FactorGraph& graph, int32_t v, const uint8_t* a) {
  const bool old_value = a[static_cast<size_t>(v)] != 0;
  double delta = 0.0;
  for (const Incidence& r : graph.IncidencesOf(v)) {
    const FlipValues x = r.LogValues(a);
    delta -= old_value ? x.v1 : x.v0;
    delta += old_value ? x.v0 : x.v1;
  }
  return delta;
}

namespace {

/// Keeps `assignment` (without its true slot) in `best` when `score` beats
/// it.
void KeepIfBetter(const std::vector<uint8_t>& assignment, double score,
                  MapSolution* best) {
  if (score > best->log_score) {
    best->log_score = score;
    best->assignment.assign(assignment.begin(), assignment.end() - 1);
  }
}

}  // namespace

Result<MapSolution> ExactMap(const FactorGraph& graph, int max_variables) {
  const int n = graph.num_variables();
  if (n > max_variables) {
    return Status::InvalidArgument(
        StrFormat("%d variables exceed the exact-MAP cap of %d", n,
                  max_variables));
  }
  MapSolution best;
  best.assignment.assign(static_cast<size_t>(n), 0);
  best.log_score = graph.LogScore(best.assignment);
  std::vector<uint8_t> assignment(static_cast<size_t>(n), 0);
  const uint64_t total = n == 0 ? 1 : (1ULL << n);
  for (uint64_t bits = 0; bits < total; ++bits) {
    for (int v = 0; v < n; ++v) {
      assignment[static_cast<size_t>(v)] =
          static_cast<uint8_t>((bits >> v) & 1);
    }
    double score = graph.LogScore(assignment);
    if (score > best.log_score) {
      best.log_score = score;
      best.assignment = assignment;
    }
  }
  return best;
}

Result<MapSolution> IcmMap(const FactorGraph& graph,
                           const IcmOptions& options) {
  if (options.restarts < 1 || options.max_sweeps_per_restart < 1) {
    return Status::InvalidArgument("ICM needs positive restart/sweep counts");
  }
  const int n = graph.num_variables();
  Rng rng(options.seed);
  MapSolution best;
  best.assignment.assign(static_cast<size_t>(n), 0);
  best.log_score = graph.LogScore(best.assignment);

  std::vector<uint8_t> assignment(static_cast<size_t>(n) + 1, 1);
  for (int restart = 0; restart < options.restarts; ++restart) {
    for (int32_t v = 0; v < n; ++v) {
      // First restart from the all-true world (usually strong for Horn
      // MLNs); later restarts randomize.
      assignment[static_cast<size_t>(v)] =
          restart == 0 ? 1 : (rng.Bernoulli(0.5) ? 1 : 0);
    }
    for (int sweep = 0; sweep < options.max_sweeps_per_restart; ++sweep) {
      bool changed = false;
      for (int32_t v = 0; v < n; ++v) {
        if (FlipDelta(graph, v, assignment.data()) > 0) {
          assignment[static_cast<size_t>(v)] ^= 1;
          changed = true;
        }
      }
      if (!changed) break;  // local optimum
    }
    KeepIfBetter(assignment, graph.LogScore(assignment), &best);
  }
  return best;
}

Result<MapSolution> MaxWalkSatMap(const FactorGraph& graph,
                                  const MaxWalkSatOptions& options) {
  for (const GroundFactor& f : graph.factors()) {
    if (f.weight < 0) {
      return Status::InvalidArgument(
          "MaxWalkSAT requires non-negative clause weights; use IcmMap");
    }
  }
  if (options.max_tries < 1 || options.max_flips < 1) {
    return Status::InvalidArgument("MaxWalkSAT needs positive try/flip caps");
  }
  const int n = graph.num_variables();
  Rng rng(options.seed);
  MapSolution best;
  best.assignment.assign(static_cast<size_t>(n), 0);
  best.log_score = graph.LogScore(best.assignment);

  std::vector<uint8_t> assignment(static_cast<size_t>(n) + 1, 1);
  std::vector<int32_t> unsat;  // indices of unsatisfied factors
  for (int attempt = 0; attempt < options.max_tries; ++attempt) {
    for (int32_t v = 0; v < n; ++v) {
      assignment[static_cast<size_t>(v)] = rng.Bernoulli(0.5) ? 1 : 0;
    }
    double score = graph.LogScore(assignment);
    KeepIfBetter(assignment, score, &best);
    for (int flip = 0; flip < options.max_flips; ++flip) {
      // Collect unsatisfied (weight-losing) factors.
      unsat.clear();
      for (size_t fi = 0; fi < graph.factors().size(); ++fi) {
        const GroundFactor& f = graph.factors()[fi];
        if (f.weight > 0 && f.LogValue(assignment) == 0.0) {
          unsat.push_back(static_cast<int32_t>(fi));
        }
      }
      if (unsat.empty()) break;  // all clauses satisfied: global optimum
      const GroundFactor& f = graph.factors()[static_cast<size_t>(
          unsat[rng.Uniform(unsat.size())])];
      std::vector<int32_t> vars;
      for (int32_t v : {f.head, f.body1, f.body2}) {
        if (v >= 0) vars.push_back(v);
      }
      int32_t to_flip;
      if (rng.Bernoulli(options.noise)) {
        to_flip = vars[rng.Uniform(vars.size())];
      } else {
        // Greedy: the variable whose flip increases the score most.
        to_flip = vars[0];
        double best_delta = FlipDelta(graph, vars[0], assignment.data());
        for (size_t i = 1; i < vars.size(); ++i) {
          double delta = FlipDelta(graph, vars[i], assignment.data());
          if (delta > best_delta) {
            best_delta = delta;
            to_flip = vars[i];
          }
        }
      }
      score += FlipDelta(graph, to_flip, assignment.data());
      assignment[static_cast<size_t>(to_flip)] ^= 1;
      KeepIfBetter(assignment, score, &best);
    }
  }
  return best;
}

}  // namespace probkb
