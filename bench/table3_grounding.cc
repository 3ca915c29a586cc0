// Table 3: Tuffy-T vs ProbKB vs ProbKB-p on the ReVerb-Sherlock KB —
// bulk-load time, four grounding iterations (Query 1), and factor
// construction (Query 2), plus result sizes.
//
// Reported numbers are "modeled" = measured engine time + a per-SQL-
// statement overhead charged identically to all systems (see DESIGN.md);
// raw measured engine time follows in parentheses. ProbKB-p times are the
// shared-nothing simulator's simulated elapsed time (32 segments).
//
// Out-of-core flags:
//   --scale-facts N    extend the generated KB to N facts (ScaleKbFacts;
//                      power-law relation/entity usage) before grounding
//   --mem-budget SIZE  grounding memory budget (e.g. 64M); over-budget
//                      joins take the grace-hash spill path
//   --spill-dir DIR    spill-file directory (default: system temp)
//   --oocore-check     correctness mode instead of the benchmark: grounds
//                      once in memory, then under the budget at 1/2/4/8
//                      threads; exit 1 unless every budgeted run spills,
//                      reproduces TPi / TPhi bit for bit, and keeps its
//                      peak-RSS delta inside the budget envelope and below
//                      an in-memory run at the same thread count (see
//                      RssEnvelopeOk). All runs take the full pass
//                      (EvaluationMode::kNaive). Without --mem-budget the
//                      budget is max(1-thread in-memory peak-RSS delta / 4,
//                      8 MiB).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/synthetic_kb.h"
#include "grounding/grounder.h"
#include "grounding/mpp_grounder.h"
#include "obs/stats_registry.h"
#include "tuffy/tuffy_grounder.h"
#include "util/mem_budget.h"
#include "util/timer.h"

namespace {

using namespace probkb;

struct PhaseResult {
  double modeled = 0;
  double measured = 0;
};

struct SystemRun {
  std::string name;
  PhaseResult load;
  std::vector<PhaseResult> iterations;
  PhaseResult query2;
  std::vector<int64_t> result_sizes;  // atoms after each iteration
  int64_t factors = 0;
};

void PrintColumn(const PhaseResult& phase) {
  std::printf(" %9.2fs (%8.3fs)", phase.modeled, phase.measured);
}

bool TablesIdentical(const Table& a, const Table& b) {
  if (a.NumRows() != b.NumRows()) return false;
  for (int64_t i = 0; i < a.NumRows(); ++i) {
    if (!a.row(i).Equals(b.row(i))) return false;
  }
  return true;
}

/// The peak-RSS envelope a budgeted grounding must hold: 1.2x the budget
/// of join working set, plus what any join must retain regardless of
/// spilling — the answer tables themselves and up to one transient copy of
/// them while the k-way merge drains leaf runs into the output (runs are
/// freed as they empty, capping the duplication at ~1x output). 8 MiB of
/// allocator slack covers glibc arena granularity at bench scales. The
/// budgeted peak must also undercut the in-memory peak outright, so the
/// envelope can never degenerate into a vacuous bound.
bool RssEnvelopeOk(int64_t budgeted_delta, int64_t in_memory_delta,
                   int64_t budget_bytes, int64_t output_bytes) {
  const int64_t envelope =
      static_cast<int64_t>(1.2 * static_cast<double>(budget_bytes)) +
      2 * output_bytes + (8LL << 20);
  return budgeted_delta <= envelope && budgeted_delta < in_memory_delta;
}

/// One grounding run (Query 1 to the iteration cap, then Query 2) with its
/// peak-RSS delta. The window opens after BuildRelationalModel, so the delta
/// measures the engine's working set, not the resident KB the budget
/// deliberately excludes.
struct OocoreRun {
  RelationalKB rkb;
  TablePtr t_phi;
  int64_t peak_delta = 0;
  int64_t spill_bytes = 0;
};

bool GroundMeasured(const KnowledgeBase& kb, const GroundingOptions& options,
                    OocoreRun* run) {
  run->rkb = BuildRelationalModel(kb);
  StatsRegistry registry;
  Grounder grounder(&run->rkb, options);
  grounder.set_stats_registry(&registry);
  bench::TryResetPeakRss();
  const int64_t rss0 = bench::PeakRssBytes();
  if (!grounder.GroundAtoms().ok()) return false;
  auto phi = grounder.GroundFactors();
  if (!phi.ok()) return false;
  run->peak_delta = bench::PeakRssBytes() - rss0;
  run->t_phi = *phi;
  run->spill_bytes = registry.FindCounter("spill_bytes_written");
  return true;
}

/// Out-of-core oracle (see the --oocore-check flag above). `budget_bytes`
/// 0 derives the budget from the 1-thread in-memory run.
int RunOutOfCoreCheck(const KnowledgeBase& kb, GroundingOptions base,
                      int64_t budget_bytes, const std::string& spill_dir) {
  base.spill_dir = spill_dir;
  // Under a budget the Grounder always runs the full M-driven pass, so the
  // in-memory runs it is measured against run that pass too.
  base.evaluation = EvaluationMode::kNaive;

  // The 1-thread in-memory run: the tables every budgeted run must
  // reproduce, and the peak the budget is derived from.
  GroundingOptions in_mem = base;
  in_mem.mem_budget_bytes = 0;
  in_mem.num_threads = 1;
  OocoreRun ref;
  if (!GroundMeasured(kb, in_mem, &ref)) return 1;
  if (budget_bytes <= 0) {
    budget_bytes = std::max<int64_t>(ref.peak_delta / 4, int64_t{8} << 20);
  }
  const int64_t output_bytes = ref.rkb.t_pi->ByteSize() + ref.t_phi->ByteSize();
  std::printf(
      "oocore reference (in-memory): %lld atoms, %lld factors, output %s\n",
      static_cast<long long>(ref.rkb.t_pi->NumRows()),
      static_cast<long long>(ref.t_phi->NumRows()),
      FormatByteSize(output_bytes).c_str());

  int failures = 0;
  for (int threads : {1, 2, 4, 8}) {
    // Each budgeted run's peak is held against the in-memory peak at its
    // own thread count.
    int64_t in_memory_delta = ref.peak_delta;
    if (threads > 1) {
      in_mem.num_threads = threads;
      OocoreRun mem_run;
      if (!GroundMeasured(kb, in_mem, &mem_run)) return 1;
      in_memory_delta = mem_run.peak_delta;
    }
    GroundingOptions budgeted = base;
    budgeted.mem_budget_bytes = budget_bytes;
    budgeted.num_threads = threads;
    OocoreRun run;
    if (!GroundMeasured(kb, budgeted, &run)) return 1;
    const bool tpi_ok = TablesIdentical(*ref.rkb.t_pi, *run.rkb.t_pi);
    const bool phi_ok = TablesIdentical(*ref.t_phi, *run.t_phi);
    const bool spilled_ok = run.spill_bytes > 0;
    const bool rss_ok = RssEnvelopeOk(run.peak_delta, in_memory_delta,
                                      budget_bytes, output_bytes);
    if (!tpi_ok || !phi_ok || !spilled_ok || !rss_ok) ++failures;
    std::printf(
        "oocore threads=%d budget=%s: %lld spill bytes, peak RSS +%s "
        "(in-memory +%s) -> TPi %s, TPhi %s%s%s\n",
        threads, FormatByteSize(budget_bytes).c_str(),
        static_cast<long long>(run.spill_bytes),
        FormatByteSize(run.peak_delta).c_str(),
        FormatByteSize(in_memory_delta).c_str(),
        tpi_ok ? "identical" : "DIVERGED", phi_ok ? "identical" : "DIVERGED",
        spilled_ok ? "" : " [no spill — budget too loose]",
        rss_ok ? "" : " [PEAK RSS OVER THE BUDGET ENVELOPE]");
  }
  if (failures == 0) {
    std::printf(
        "oocore: budgeted grace-hash grounding is bit-identical to the "
        "in-memory path and inside its peak-RSS envelope\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::JsonPathFromArgs(argc, argv);
  const std::string stats_json_path =
      bench::ArgValue(argc, argv, "--stats_json");
  const double scale = bench::BenchScale();
  const double stmt = bench::StatementSeconds();
  const int kIterations = 4;
  const int kSegments = 32;

  bench::PrintHeader("Table 3: grounding the ReVerb-Sherlock KB");
  std::printf(
      "scale=%.3f, statement overhead=%.1fms, %d segments for ProbKB-p\n",
      scale, stmt * 1e3, kSegments);

  SyntheticKbConfig config;
  config.scale = scale;
  auto skb = GenerateReverbSherlockKb(config);
  if (!skb.ok()) {
    std::fprintf(stderr, "%s\n", skb.status().ToString().c_str());
    return 1;
  }

  // Out-of-core knobs (see header comment).
  const std::string scale_facts_arg = bench::ArgValue(argc, argv, "--scale-facts");
  if (!scale_facts_arg.empty()) {
    const int64_t target = std::atoll(scale_facts_arg.c_str());
    if (auto st = ScaleKbFacts(&skb->kb, target, /*seed=*/config.seed + 1);
        !st.ok()) {
      std::fprintf(stderr, "--scale-facts: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("scaled KB to %zu facts (--scale-facts %lld)\n",
                skb->kb.facts().size(), static_cast<long long>(target));
  }
  int64_t mem_budget = 0;  // 0: in-memory (--oocore-check derives one)
  const std::string mem_budget_arg = bench::ArgValue(argc, argv, "--mem-budget");
  if (!mem_budget_arg.empty()) {
    auto bytes = ParseByteSize(mem_budget_arg);
    if (!bytes.ok() || *bytes < 0) {
      std::fprintf(stderr, "--mem-budget wants a size like 64M or 2G\n");
      return 1;
    }
    mem_budget = *bytes;
  }
  const std::string spill_dir = bench::ArgValue(argc, argv, "--spill-dir");

  if (bench::HasFlag(argc, argv, "--oocore-check")) {
    GroundingOptions check_options;
    check_options.max_iterations = kIterations;
    return RunOutOfCoreCheck(skb->kb, check_options, mem_budget, spill_dir);
  }

  // "We run Query 3 once before inference starts and do not perform any
  // further quality control during inference" (Section 6.1.1).
  KnowledgeBase kb = skb->kb;
  {
    RelationalKB rkb = BuildRelationalModel(kb);
    Grounder pre(&rkb, GroundingOptions{});
    auto deleted = pre.ApplyConstraints();
    if (!deleted.ok()) return 1;
    std::vector<Fact> cleaned;
    cleaned.reserve(static_cast<size_t>(rkb.t_pi->NumRows()));
    for (int64_t i = 0; i < rkb.t_pi->NumRows(); ++i) {
      cleaned.push_back(FactFromRow(rkb.t_pi->row(i)));
    }
    std::printf("Query 3 removed %lld facts up front; %zu remain\n",
                static_cast<long long>(*deleted), cleaned.size());
    *kb.mutable_facts() = std::move(cleaned);
  }

  GroundingOptions options;
  options.max_iterations = kIterations;
  // Table 3 times Algorithm 1 verbatim: every iteration re-joins all of TPi.
  options.evaluation = EvaluationMode::kNaive;
  options.mem_budget_bytes = mem_budget;
  options.spill_dir = spill_dir;
  std::vector<SystemRun> runs;

  // Execution-stats registries for the two ProbKB systems, attached only
  // when `--stats_json` asks for them so the default bench numbers stay
  // instrumentation-free.
  StatsRegistry mpp_registry;
  StatsRegistry single_registry;
  const bool want_stats = !stats_json_path.empty();

  // --- ProbKB-p (MPP simulator with views) ----------------------------------
  {
    SystemRun run;
    run.name = "ProbKB-p";
    Timer timer;
    RelationalKB rkb = BuildRelationalModel(kb);
    MppGrounder grounder(rkb, kSegments, MppMode::kViews, options);
    if (want_stats) grounder.set_stats_registry(&mpp_registry);
    // Loading distributes one facts table (+ views); one COPY statement.
    run.load = {timer.Seconds() / kSegments + 2 * stmt, timer.Seconds()};
    int64_t prev_stmts = 0;
    for (int iter = 0; iter < kIterations; ++iter) {
      auto added = grounder.GroundAtomsIteration();
      if (!added.ok()) return 1;
      double secs = grounder.stats().iteration_seconds.back();
      int64_t stmts = grounder.stats().statements - prev_stmts;
      prev_stmts = grounder.stats().statements;
      run.iterations.push_back(
          {secs + static_cast<double>(stmts) * stmt, secs});
      run.result_sizes.push_back(grounder.GatherTPi()->NumRows());
    }
    double before = grounder.cost().simulated_seconds();
    auto phi = grounder.GroundFactors();
    if (!phi.ok()) return 1;
    double q2 = grounder.cost().simulated_seconds() - before;
    int64_t stmts = grounder.stats().statements - prev_stmts;
    run.query2 = {q2 + static_cast<double>(stmts) * stmt, q2};
    run.factors = (*phi)->NumRows();
    runs.push_back(std::move(run));
  }

  // --- ProbKB (single node) ---------------------------------------------------
  {
    SystemRun run;
    run.name = "ProbKB";
    Timer timer;
    RelationalKB rkb = BuildRelationalModel(kb);
    run.load = {timer.Seconds() + 2 * stmt, timer.Seconds()};
    Grounder grounder(&rkb, options);
    if (want_stats) grounder.set_stats_registry(&single_registry);
    int64_t prev_stmts = 0;
    for (int iter = 0; iter < kIterations; ++iter) {
      auto added = grounder.GroundAtomsIteration();
      if (!added.ok()) return 1;
      double secs = grounder.stats().iteration_seconds.back();
      int64_t stmts = grounder.stats().statements - prev_stmts;
      prev_stmts = grounder.stats().statements;
      run.iterations.push_back(
          {secs + static_cast<double>(stmts) * stmt, secs});
      run.result_sizes.push_back(rkb.t_pi->NumRows());
    }
    Timer q2_timer;
    auto phi = grounder.GroundFactors();
    if (!phi.ok()) return 1;
    double q2 = q2_timer.Seconds();
    int64_t stmts = grounder.stats().statements - prev_stmts;
    run.query2 = {q2 + static_cast<double>(stmts) * stmt, q2};
    run.factors = (*phi)->NumRows();
    runs.push_back(std::move(run));
  }

  // --- Tuffy-T -----------------------------------------------------------------
  {
    SystemRun run;
    run.name = "Tuffy-T";
    TuffyGrounder grounder(kb, options);
    Timer timer;
    if (!grounder.Load().ok()) return 1;
    double load = timer.Seconds();
    run.load = {load + static_cast<double>(grounder.stats().statements) *
                           stmt,
                load};
    int64_t prev_stmts = grounder.stats().statements;
    for (int iter = 0; iter < kIterations; ++iter) {
      auto added = grounder.GroundAtomsIteration();
      if (!added.ok()) return 1;
      double secs = grounder.stats().iteration_seconds.back();
      int64_t stmts = grounder.stats().statements - prev_stmts;
      prev_stmts = grounder.stats().statements;
      run.iterations.push_back(
          {secs + static_cast<double>(stmts) * stmt, secs});
      run.result_sizes.push_back(grounder.ToTPi()->NumRows());
    }
    Timer q2_timer;
    auto phi = grounder.GroundFactors();
    if (!phi.ok()) return 1;
    double q2 = q2_timer.Seconds();
    int64_t stmts = grounder.stats().statements - prev_stmts;
    run.query2 = {q2 + static_cast<double>(stmts) * stmt, q2};
    run.factors = (*phi)->NumRows();
    runs.push_back(std::move(run));
  }

  // --- Report ------------------------------------------------------------------
  std::printf("\n%-14s", "Queries");
  for (const auto& run : runs) std::printf(" %22s", run.name.c_str());
  std::printf("\n%-14s", "Load");
  for (const auto& run : runs) PrintColumn(run.load);
  for (int iter = 0; iter < kIterations; ++iter) {
    std::printf("\nQuery1 iter %d ", iter + 1);
    for (const auto& run : runs) {
      PrintColumn(run.iterations[static_cast<size_t>(iter)]);
    }
  }
  std::printf("\n%-14s", "Query 2");
  for (const auto& run : runs) PrintColumn(run.query2);
  std::printf("\n\nResult sizes (atoms after each iteration / factors):\n");
  for (const auto& run : runs) {
    std::printf("  %-10s", run.name.c_str());
    for (int64_t n : run.result_sizes) {
      std::printf(" %10lld", static_cast<long long>(n));
    }
    std::printf("  | %lld factors\n", static_cast<long long>(run.factors));
  }

  // Headline ratios (paper: load ~607x; Query-1 iterations >100x by iter
  // 2-4; ProbKB-p speedup 4x over ProbKB).
  auto total = [](const SystemRun& run) {
    double t = 0;
    for (const auto& i : run.iterations) t += i.modeled;
    return t;
  };
  std::printf(
      "\nLoad ratio Tuffy-T/ProbKB: %.0fx | Query1 ratio Tuffy-T/ProbKB: "
      "%.1fx | ProbKB/ProbKB-p: %.1fx\n",
      runs[2].load.modeled / runs[1].load.modeled,
      total(runs[2]) / total(runs[1]), total(runs[1]) / total(runs[0]));

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"table3_grounding\",\n"
                 "  \"scale\": %g,\n  \"statement_ms\": %g,\n"
                 "  \"segments\": %d,\n  \"systems\": [\n",
                 scale, stmt * 1e3, kSegments);
    for (size_t i = 0; i < runs.size(); ++i) {
      const SystemRun& run = runs[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"load_modeled_s\": %g, "
                   "\"load_measured_s\": %g,\n     \"query1_modeled_s\": [",
                   run.name.c_str(), run.load.modeled, run.load.measured);
      for (size_t j = 0; j < run.iterations.size(); ++j) {
        std::fprintf(f, "%s%g", j == 0 ? "" : ", ",
                     run.iterations[j].modeled);
      }
      std::fprintf(f, "],\n     \"query1_measured_s\": [");
      for (size_t j = 0; j < run.iterations.size(); ++j) {
        std::fprintf(f, "%s%g", j == 0 ? "" : ", ",
                     run.iterations[j].measured);
      }
      std::fprintf(f, "],\n     \"query2_modeled_s\": %g, \"atoms\": [",
                   run.query2.modeled);
      for (size_t j = 0; j < run.result_sizes.size(); ++j) {
        std::fprintf(f, "%s%lld", j == 0 ? "" : ", ",
                     static_cast<long long>(run.result_sizes[j]));
      }
      std::fprintf(f, "], \"factors\": %lld}%s\n",
                   static_cast<long long>(run.factors),
                   i + 1 == runs.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!stats_json_path.empty()) {
    std::FILE* f = std::fopen(stats_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", stats_json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"table3_grounding\",\n  \"systems\": {\n"
                 "    \"ProbKB-p\": %s,\n    \"ProbKB\": %s\n  }\n}\n",
                 mpp_registry.ToJson().c_str(),
                 single_registry.ToJson().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", stats_json_path.c_str());
  }
  return 0;
}
