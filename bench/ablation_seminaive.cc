// Ablation: naive vs semi-naive fixpoint evaluation. The paper's SQL
// grounding re-joins the *entire* TPi every iteration (naive evaluation);
// the classic Datalog delta optimization joins only last iteration's new
// atoms; it is the grounder's default. This bench quantifies the
// per-iteration cost difference at the same closure.

#include <cstdio>

#include "bench/bench_util.h"
#include "datagen/synthetic_kb.h"
#include "grounding/grounder.h"

int main() {
  using namespace probkb;
  const double scale = bench::BenchScale();
  bench::PrintHeader("Ablation: naive vs semi-naive evaluation");
  std::printf("scale=%.3f\n", scale);

  SyntheticKbConfig config;
  config.scale = scale;
  auto skb = GenerateReverbSherlockKb(config);
  if (!skb.ok()) return 1;
  std::printf("%s\n\n", skb->kb.StatsString().c_str());

  GroundingStats stats[2];
  TablePtr t_pi[2];
  for (EvaluationMode mode :
       {EvaluationMode::kNaive, EvaluationMode::kSemiNaive}) {
    RelationalKB rkb = BuildRelationalModel(skb->kb);
    GroundingOptions options;
    options.max_iterations = 10;
    options.evaluation = mode;
    Grounder grounder(&rkb, options);
    if (!grounder.GroundAtoms().ok()) return 1;
    stats[mode == EvaluationMode::kSemiNaive] = grounder.stats();
    t_pi[mode == EvaluationMode::kSemiNaive] = rkb.t_pi;
  }

  // Both modes must build the same TPi, ids and row order included.
  bool identical = t_pi[0]->NumRows() == t_pi[1]->NumRows();
  for (int64_t i = 0; identical && i < t_pi[0]->NumRows(); ++i) {
    identical = t_pi[0]->row(i).Equals(t_pi[1]->row(i));
  }
  if (!identical) {
    std::fprintf(stderr, "TPi mismatch: %lld vs %lld rows\n",
                 static_cast<long long>(t_pi[0]->NumRows()),
                 static_cast<long long>(t_pi[1]->NumRows()));
    return 1;
  }

  std::printf("%6s %14s %14s\n", "iter", "naive (ms)", "semi-naive (ms)");
  size_t iterations =
      std::max(stats[0].iteration_seconds.size(),
               stats[1].iteration_seconds.size());
  for (size_t i = 0; i < iterations; ++i) {
    auto at = [&](const GroundingStats& s) {
      return i < s.iteration_seconds.size() ? s.iteration_seconds[i] * 1e3
                                            : 0.0;
    };
    std::printf("%6zu %14.2f %14.2f\n", i + 1, at(stats[0]), at(stats[1]));
  }
  const double speedup =
      stats[0].ground_atoms_seconds / stats[1].ground_atoms_seconds;
  std::printf(
      "\ntotal: naive %.3fs, semi-naive %.3fs (%.2fx) at an identical TPi "
      "of %lld atoms\n",
      stats[0].ground_atoms_seconds, stats[1].ground_atoms_seconds, speedup,
      static_cast<long long>(t_pi[0]->NumRows()));
  std::printf(
      "\nFinding: the delta rewrite %s here (%.2fx). Iteration 1 is the "
      "same full pass in both modes; after it, semi-naive probes the rule "
      "indexes from the delta and TPi only with what the delta reached, "
      "while naive re-joins M x TPi in full.\n",
      speedup > 1.0 ? "pays" : "does not pay", speedup);
  return 0;
}
