// bench_report — perf-tracking harness for the threaded grounding engine.
//
//   bench_report [--json BENCH_parallel.json]
//
// Runs the table3-style grounding workload (single node) and the fig6c
// MPP-views workload at 1, 2, 4 and 8 worker threads, verifies that every
// thread count produces bit-identical outputs to the serial run, and
// writes a JSON document with the measured wall-clock times and speedups.
// CI keeps the JSON so thread-scaling regressions show up as diffs.
//
// Times here are *measured* engine seconds (no modelled per-statement
// overhead): thread scaling is about real compute, and the modelled
// overhead is thread-count independent by construction.
//
// `--out-of-core [FACTS]` appends a budgeted-grounding workload (default
// 200000 facts via ScaleKbFacts): an in-memory baseline measures the
// engine's transient peak-RSS delta, then the same grounding re-runs under
// a budget of a quarter of that delta. Gates: the budgeted TPi is
// bit-identical, the run actually spilled, and its peak-RSS delta stays
// within 1.2x the budget plus the output tables (output growth is product,
// not working set). The extra section only appears in the JSON when the
// flag is passed, so bench_compare baselines are unaffected.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/synthetic_kb.h"
#include "engine/ops.h"
#include "engine/tunables.h"
#include "grounding/grounder.h"
#include "grounding/mpp_grounder.h"
#include "obs/stats_registry.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace {

using namespace probkb;

constexpr int kIterations = 4;
constexpr int kSegments = 32;
const std::vector<int> kThreadCounts = {1, 2, 4, 8};

struct ThreadPoint {
  int threads = 1;
  double seconds = 0;
  bool identical = false;  // output bit-identical to the serial run
};

struct WorkloadReport {
  std::string name;
  double serial_seconds = 0;
  /// Peak RSS of the serial run in bytes (high-water mark reset right
  /// before it where the kernel allows; whole-process peak otherwise).
  long long peak_rss_bytes = 0;
  /// Interconnect traffic and motion mix of the serial stats-on MPP run
  /// (all zero for single-node workloads). bench_compare gates
  /// shipped_bytes; the mix records which motions the planner chose so a
  /// plan flip is visible in the baseline diff.
  long long shipped_bytes = 0;
  long long broadcast_motions = 0;
  long long redistribute_motions = 0;
  std::vector<ThreadPoint> points;
  /// StatsRegistry::ToJson() of a serial stats-on run; "" when skipped.
  std::string breakdown;
};

/// hardware_concurrency() may legitimately return 0 ("unknown"); every
/// consumer here wants a positive count.
unsigned HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Single-node grounding: 4 iterations + factor construction, like
/// table3_grounding's ProbKB column. Returns the final TPi for the
/// equivalence check.
bool RunSingleNode(const KnowledgeBase& kb, int threads, double* seconds,
                   TablePtr* t_pi_out, StatsRegistry* stats) {
  RelationalKB rkb = BuildRelationalModel(kb);
  GroundingOptions options;
  options.max_iterations = kIterations;
  options.num_threads = threads;
  Grounder grounder(&rkb, options);
  if (stats != nullptr) grounder.set_stats_registry(stats);
  Timer timer;
  for (int i = 0; i < kIterations; ++i) {
    if (!grounder.GroundAtomsIteration().ok()) return false;
  }
  if (!grounder.GroundFactors().ok()) return false;
  *seconds = timer.Seconds();
  *t_pi_out = rkb.t_pi;
  return true;
}

/// MPP grounding with views (fig6c's ProbKB-p configuration); the time is
/// real wall clock of the simulator, which is where the thread pool works.
bool RunMppViews(const KnowledgeBase& kb, int threads, double* seconds,
                 TablePtr* t_pi_out, StatsRegistry* stats) {
  RelationalKB rkb = BuildRelationalModel(kb);
  GroundingOptions options;
  options.max_iterations = kIterations;
  options.num_threads = threads;
  MppGrounder grounder(rkb, kSegments, MppMode::kViews, options);
  if (stats != nullptr) grounder.set_stats_registry(stats);
  Timer timer;
  for (int i = 0; i < kIterations; ++i) {
    if (!grounder.GroundAtomsIteration().ok()) return false;
  }
  if (!grounder.GroundFactors().ok()) return false;
  *seconds = timer.Seconds();
  *t_pi_out = grounder.GatherTPi();
  return true;
}

struct OutOfCoreReport {
  long long facts = 0;
  long long budget_bytes = 0;
  long long baseline_delta_bytes = 0;  // in-memory transient peak-RSS delta
  long long budgeted_delta_bytes = 0;  // same window under the budget
  long long output_bytes = 0;          // final TPi + TPhi (product, allowed)
  long long spill_bytes_written = 0;
  double baseline_seconds = 0;
  double budgeted_seconds = 0;
  bool identical = false;
  bool spilled = false;
  bool rss_ok = false;
};

/// Budgeted-grounding workload (see header comment). The peak-RSS window
/// opens *after* BuildRelationalModel so the deltas measure the engine's
/// working set, not the resident KB the budget deliberately excludes.
bool RunOutOfCore(const KnowledgeBase& kb, OutOfCoreReport* report) {
  report->facts = static_cast<long long>(kb.facts().size());
  GroundingOptions options;
  options.max_iterations = kIterations;
  options.num_threads = 1;
  options.mem_budget_bytes = 0;

  RelationalKB rkb_base = BuildRelationalModel(kb);
  Grounder baseline(&rkb_base, options);
  bench::TryResetPeakRss();
  const long long rss0 = bench::PeakRssBytes();
  Timer base_timer;
  if (!baseline.GroundAtoms().ok()) return false;
  auto phi_base = baseline.GroundFactors();
  if (!phi_base.ok()) return false;
  report->baseline_seconds = base_timer.Seconds();
  report->baseline_delta_bytes = bench::PeakRssBytes() - rss0;

  report->budget_bytes =
      std::max(report->baseline_delta_bytes / 4, 8LL << 20);

  RelationalKB rkb = BuildRelationalModel(kb);
  options.mem_budget_bytes = report->budget_bytes;
  StatsRegistry stats;
  Grounder budgeted(&rkb, options);
  budgeted.set_stats_registry(&stats);
  bench::TryResetPeakRss();
  const long long rss1 = bench::PeakRssBytes();
  Timer budget_timer;
  if (!budgeted.GroundAtoms().ok()) return false;
  auto phi = budgeted.GroundFactors();
  if (!phi.ok()) return false;
  report->budgeted_seconds = budget_timer.Seconds();
  report->budgeted_delta_bytes = bench::PeakRssBytes() - rss1;

  report->output_bytes = static_cast<long long>(rkb.t_pi->ByteSize()) +
                         static_cast<long long>((*phi)->ByteSize());
  report->spill_bytes_written = stats.FindCounter("spill_bytes_written");
  report->identical = TablesEqualExact(*rkb_base.t_pi, *rkb.t_pi) &&
                      TablesEqualExact(**phi_base, **phi);
  report->spilled = report->spill_bytes_written > 0;
  // The envelope the budget must hold: 1.2x the budget of join working
  // set, plus what any join must retain regardless of spilling — the
  // answer tables themselves and up to one transient copy of them while
  // the k-way merge drains leaf runs into the output (runs are freed as
  // they empty, capping the duplication at ~1x output). 8 MiB of
  // allocator slack covers glibc arena granularity at bench scales. The
  // budgeted peak must also undercut the unbudgeted peak outright, so the
  // envelope can never degenerate into a vacuous bound.
  report->rss_ok = report->budgeted_delta_bytes <=
                       static_cast<long long>(
                           1.2 * static_cast<double>(report->budget_bytes)) +
                           2 * report->output_bytes + (8LL << 20) &&
                   report->budgeted_delta_bytes < report->baseline_delta_bytes;
  return true;
}

template <typename RunFn>
bool RunWorkload(const std::string& name, const KnowledgeBase& kb,
                 RunFn run, WorkloadReport* report) {
  report->name = name;
  TablePtr serial_t_pi;
  bench::TryResetPeakRss();
  if (!run(kb, 1, &report->serial_seconds, &serial_t_pi)) {
    std::fprintf(stderr, "%s: serial run failed\n", name.c_str());
    return false;
  }
  report->peak_rss_bytes = bench::PeakRssBytes();
  for (int threads : kThreadCounts) {
    ThreadPoint point;
    point.threads = threads;
    TablePtr t_pi;
    if (!run(kb, threads, &point.seconds, &t_pi)) {
      std::fprintf(stderr, "%s: %d-thread run failed\n", name.c_str(),
                   threads);
      return false;
    }
    point.identical = TablesEqualExact(*serial_t_pi, *t_pi);
    if (!point.identical) {
      std::fprintf(stderr,
                   "%s: %d-thread output DIFFERS from the serial run\n",
                   name.c_str(), threads);
    }
    report->points.push_back(point);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = bench::JsonPathFromArgs(argc, argv);
  if (json_path.empty()) json_path = "BENCH_parallel.json";
  const double scale = bench::BenchScale();

  bench::PrintHeader("bench_report: thread scaling");
  std::printf("scale=%.3f, hardware threads=%u\n", scale,
              HardwareThreads());

  // Calibrated execution knobs: measure (or read from cache) this host's
  // serial-vs-parallel crossover so the bench numbers reflect what a tuned
  // deployment would see — on a 1-core host this disables fan-out
  // entirely, which is exactly the fig6c multi-thread fix. Env vars still
  // win over calibration.
  SetTunables(ApplyTunablesEnv(AutoTuneTunables()));
  std::printf("tunables: %s\n", GetTunables().ToString().c_str());

  SyntheticKbConfig config;
  config.scale = scale;
  auto skb = GenerateReverbSherlockKb(config);
  if (!skb.ok()) {
    std::fprintf(stderr, "%s\n", skb.status().ToString().c_str());
    return 1;
  }

  auto single_node = [](const KnowledgeBase& kb, int threads,
                        double* seconds, TablePtr* t_pi) {
    return RunSingleNode(kb, threads, seconds, t_pi, nullptr);
  };
  auto mpp_views = [](const KnowledgeBase& kb, int threads, double* seconds,
                      TablePtr* t_pi) {
    return RunMppViews(kb, threads, seconds, t_pi, nullptr);
  };
  std::vector<WorkloadReport> reports(2);
  if (!RunWorkload("table3_grounding", skb->kb, single_node, &reports[0]) ||
      !RunWorkload("fig6c_mpp_views", skb->kb, mpp_views, &reports[1])) {
    return 1;
  }

  // Optional budgeted-grounding workload (see header comment).
  const bool want_oocore = bench::HasFlag(argc, argv, "--out-of-core");
  OutOfCoreReport oocore;
  if (want_oocore) {
    long long target_facts = 200000;
    const std::string arg = bench::ArgValue(argc, argv, "--out-of-core");
    if (!arg.empty() && arg.rfind("--", 0) != 0) {
      target_facts = std::atoll(arg.c_str());
    }
    KnowledgeBase scaled = skb->kb;
    if (auto st = ScaleKbFacts(&scaled, target_facts, config.seed + 1);
        !st.ok()) {
      std::fprintf(stderr, "--out-of-core: %s\n", st.ToString().c_str());
      return 1;
    }
    if (!RunOutOfCore(scaled, &oocore)) {
      std::fprintf(stderr, "--out-of-core: budgeted run failed\n");
      return 1;
    }
  }

  // Stats overhead + per-workload breakdowns: a serial stats-off run and a
  // serial stats-on run back to back on the single-node workload measure
  // what the observability layer costs (budget: < 5%); the stats-on
  // registries become each workload's "breakdown" JSON section.
  double stats_off_seconds = 0.0;
  double stats_on_seconds = 0.0;
  StatsRegistry single_stats;
  StatsRegistry mpp_stats;
  {
    TablePtr ignored_t_pi;
    double ignored_seconds = 0.0;
    if (!RunSingleNode(skb->kb, 1, &stats_off_seconds, &ignored_t_pi,
                       nullptr) ||
        !RunSingleNode(skb->kb, 1, &stats_on_seconds, &ignored_t_pi,
                       &single_stats) ||
        !RunMppViews(skb->kb, 1, &ignored_seconds, &ignored_t_pi,
                     &mpp_stats)) {
      std::fprintf(stderr, "stats-overhead runs failed\n");
      return 1;
    }
  }
  reports[0].breakdown = single_stats.ToJson();
  reports[1].breakdown = mpp_stats.ToJson();
  for (const MotionTotals& motion : mpp_stats.motion_totals()) {
    reports[1].shipped_bytes += motion.bytes_shipped;
    if (motion.kind == "broadcast") {
      reports[1].broadcast_motions += motion.count;
    } else if (motion.kind == "redistribute") {
      reports[1].redistribute_motions += motion.count;
    }
  }
  const double overhead_pct =
      stats_off_seconds > 0
          ? (stats_on_seconds - stats_off_seconds) / stats_off_seconds * 100.0
          : 0.0;

  // Structured-logging overhead on table3_grounding: a serial run without
  // a log sink vs one with a JSONL log sink attached (the event journal is
  // always on in both). Budget: < 5%.
  double obs_off_seconds = 0.0;
  double obs_on_seconds = 0.0;
  {
    const char* log_path = "BENCH_log.jsonl";
    TablePtr ignored_t_pi;
    bool ok = RunSingleNode(skb->kb, 1, &obs_off_seconds, &ignored_t_pi,
                            nullptr);
    ok = ok && EnableJsonLogSink(log_path).ok() &&
         RunSingleNode(skb->kb, 1, &obs_on_seconds, &ignored_t_pi, nullptr);
    DisableJsonLogSink();
    std::remove(log_path);
    if (!ok) {
      std::fprintf(stderr, "logging-overhead runs failed\n");
      return 1;
    }
  }
  const double obs_overhead_pct =
      obs_off_seconds > 0
          ? (obs_on_seconds - obs_off_seconds) / obs_off_seconds * 100.0
          : 0.0;

  // Distributed-tracing overhead on table3_grounding: a serial run with
  // the tracer dark vs one recording the full span stream (what --trace
  // or --metrics-socket costs the engine). The trace-off run's TPi must
  // stay bit-identical to the baseline serial run — the dark tracer is a
  // couple of relaxed atomic loads on the hot path and nothing else.
  // Budget: < 5%.
  double trace_off_seconds = 0.0;
  double trace_on_seconds = 0.0;
  bool trace_off_identical = false;
  {
    Tracer* tracer = Tracer::Global();
    TablePtr trace_off_t_pi;
    TablePtr ignored_t_pi;
    tracer->set_enabled(false);
    bool ok = RunSingleNode(skb->kb, 1, &trace_off_seconds, &trace_off_t_pi,
                            nullptr);
    tracer->Reset();
    tracer->set_enabled(true);
    ok = ok && RunSingleNode(skb->kb, 1, &trace_on_seconds, &ignored_t_pi,
                             nullptr);
    tracer->set_enabled(false);
    tracer->Reset();
    if (!ok) {
      std::fprintf(stderr, "trace-overhead runs failed\n");
      return 1;
    }
    trace_off_identical = TablesEqualExact(*trace_off_t_pi, *ignored_t_pi);
    if (!trace_off_identical) {
      std::fprintf(stderr,
                   "trace-off output DIFFERS from the trace-on run\n");
    }
  }
  const double trace_overhead_pct =
      trace_off_seconds > 0
          ? (trace_on_seconds - trace_off_seconds) / trace_off_seconds * 100.0
          : 0.0;

  bool all_identical = true;
  for (const WorkloadReport& report : reports) {
    std::printf("\n%-18s serial %.3fs  peak RSS %.1f MiB\n",
                report.name.c_str(), report.serial_seconds,
                static_cast<double>(report.peak_rss_bytes) / (1024.0 * 1024.0));
    for (const ThreadPoint& point : report.points) {
      std::printf("  --threads %d: %.3fs  speedup %.2fx  %s\n",
                  point.threads, point.seconds,
                  point.seconds > 0 ? report.serial_seconds / point.seconds
                                    : 0.0,
                  point.identical ? "bit-identical" : "MISMATCH");
      all_identical = all_identical && point.identical;
    }
  }
  if (want_oocore) {
    const double mib = 1024.0 * 1024.0;
    std::printf(
        "\nout-of-core (%lld facts): baseline %.3fs, peak delta %.1f MiB; "
        "budget %.1f MiB -> budgeted %.3fs, peak delta %.1f MiB, "
        "%.1f MiB spilled\n"
        "  gates: %s, %s, %s\n",
        oocore.facts, oocore.baseline_seconds,
        static_cast<double>(oocore.baseline_delta_bytes) / mib,
        static_cast<double>(oocore.budget_bytes) / mib,
        oocore.budgeted_seconds,
        static_cast<double>(oocore.budgeted_delta_bytes) / mib,
        static_cast<double>(oocore.spill_bytes_written) / mib,
        oocore.identical ? "bit-identical" : "MISMATCH",
        oocore.spilled ? "spilled" : "NO SPILL",
        oocore.rss_ok ? "peak within budget envelope" : "PEAK OVER BUDGET");
    all_identical = all_identical && oocore.identical && oocore.spilled &&
                    oocore.rss_ok;
  }

  std::printf("\nstats overhead: off %.3fs, on %.3fs (%+.1f%%)\n",
              stats_off_seconds, stats_on_seconds, overhead_pct);
  std::printf("logging overhead: off %.3fs, on %.3fs (%+.1f%%)\n",
              obs_off_seconds, obs_on_seconds, obs_overhead_pct);
  std::printf("tracing+metrics overhead: off %.3fs, on %.3fs (%+.1f%%)  %s\n",
              trace_off_seconds, trace_on_seconds, trace_overhead_pct,
              trace_off_identical ? "bit-identical" : "MISMATCH");
  all_identical = all_identical && trace_off_identical;

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"bench_report\",\n  \"scale\": %g,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"stats_overhead\": {\"off_seconds\": %g, "
               "\"on_seconds\": %g, \"overhead_pct\": %g},\n"
               "  \"obs_overhead\": {\"off_seconds\": %g, "
               "\"on_seconds\": %g, \"overhead_pct\": %g},\n"
               "  \"trace_overhead\": {\"off_seconds\": %g, "
               "\"on_seconds\": %g, \"overhead_pct\": %g, "
               "\"identical\": %s},\n"
               "  \"workloads\": [\n",
               scale, HardwareThreads(), stats_off_seconds, stats_on_seconds,
               overhead_pct, obs_off_seconds, obs_on_seconds,
               obs_overhead_pct, trace_off_seconds, trace_on_seconds,
               trace_overhead_pct, trace_off_identical ? "true" : "false");
  for (size_t i = 0; i < reports.size(); ++i) {
    const WorkloadReport& report = reports[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"serial_s\": %g, "
                 "\"peak_rss_bytes\": %lld, \"shipped_bytes\": %lld, "
                 "\"broadcast_motions\": %lld, "
                 "\"redistribute_motions\": %lld, \"points\": [\n",
                 report.name.c_str(), report.serial_seconds,
                 report.peak_rss_bytes, report.shipped_bytes,
                 report.broadcast_motions, report.redistribute_motions);
    for (size_t j = 0; j < report.points.size(); ++j) {
      const ThreadPoint& point = report.points[j];
      std::fprintf(f,
                   "      {\"threads\": %d, \"seconds\": %g, "
                   "\"speedup\": %g, \"identical\": %s}%s\n",
                   point.threads, point.seconds,
                   point.seconds > 0 ? report.serial_seconds / point.seconds
                                     : 0.0,
                   point.identical ? "true" : "false",
                   j + 1 == report.points.size() ? "" : ",");
    }
    std::fprintf(f, "    ],\n     \"breakdown\": %s}%s\n",
                 report.breakdown.empty() ? "null"
                                          : report.breakdown.c_str(),
                 i + 1 == reports.size() ? "" : ",");
  }
  std::fprintf(f, "  ]");
  if (want_oocore) {
    std::fprintf(f,
                 ",\n  \"out_of_core\": {\"facts\": %lld, "
                 "\"mem_budget_bytes\": %lld,\n"
                 "    \"baseline_seconds\": %g, "
                 "\"baseline_delta_bytes\": %lld,\n"
                 "    \"budgeted_seconds\": %g, "
                 "\"budgeted_delta_bytes\": %lld,\n"
                 "    \"output_bytes\": %lld, \"spill_bytes_written\": %lld,\n"
                 "    \"identical\": %s, \"spilled\": %s, \"rss_ok\": %s}",
                 oocore.facts, oocore.budget_bytes, oocore.baseline_seconds,
                 oocore.baseline_delta_bytes, oocore.budgeted_seconds,
                 oocore.budgeted_delta_bytes, oocore.output_bytes,
                 oocore.spill_bytes_written,
                 oocore.identical ? "true" : "false",
                 oocore.spilled ? "true" : "false",
                 oocore.rss_ok ? "true" : "false");
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  return all_identical ? 0 : 1;
}
