// Shared pieces of the end-to-end benchmark program: the workload spec, the
// run report (metrics + output checks), span sums for traced runs, and
// order-independent digests of the pipeline's output tables.
#ifndef PROBKB_E2E_BENCH_BENCH_H_
#define PROBKB_E2E_BENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/probkb.h"
#include "kb/knowledge_base.h"
#include "obs/stats_registry.h"
#include "obs/trace.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Modelled per-statement charge shown beside the raw Query 1 time.
constexpr double kPerStatementSeconds = 0.005;
/// A fixpoint iteration whose delta is below this share of TPi is "tail".
constexpr double kTailDeltaShare = 0.01;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Quality control of every workload: keep the top 70% of rules by learner
/// score before grounding. It keeps the closures of generated KBs from
/// running away.
constexpr double kRuleCleaningTheta = 0.7;

/// The workload that serves queries beside a writer; the others are batch.
constexpr const char* kServeWorkload = "serve_mixed";

/// One run: the arguments every invocation carries, plus the settings that
/// differ between the workloads of workloads.json (run.py turns them into
/// flags).
struct Spec {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;

  // Input: `kbs` independent ReVerb-Sherlock-like KBs at `scale`, each
  // generated from a seed derived from `seed`.
  double scale = 0.02;
  int kbs = 1;

  // Batch pipeline (ExpandKnowledgeBase).
  bool inference = true;
  int segments = 0;  // > 0: MPP grounding with views on this many segments
  // Compare KB 0's TPi keys and factor count with the other grounding
  // engine: single-node when `segments` > 0, else MPP.
  bool cross_check = false;
  bool tuffy_reference = false;  // Tuffy-T Query 1 reference (traced runs)

  // Test hook: grounding deadline in seconds (0 = none). A tiny value makes
  // every expansion stop partial, which must count as a failure.
  double deadline_seconds = 0.0;
};

/// Metric name and unit, in report order.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (printed by untraced runs) and per-layer metrics
/// (printed by traced runs). BENCHMARK.json lists the same names and units.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// Metrics, output checks and the attempted/failed counts of one run.
/// Human-readable lines go to stdout as the run proceeds; PrintResult()
/// prints the one-line JSON result last.
class Report {
 public:
  void Set(const std::string& name, double value);
  void Add(const std::string& name, double value);
  double Get(const std::string& name) const;

  /// Prints "check <what>: ok|FAILED"; a failed check fails the run.
  void Check(bool ok, const std::string& what);
  /// Counts one attempted operation; `failed` ones feed error_rate.
  void Attempt(bool failed);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  /// Prints "error_rate: <failed/attempted> (<failed> of <attempted> <what>
  /// failed)".
  void PrintErrorRate(const std::string& what) const;

  /// Prints every metric of `defs` (missing ones as 0), then the JSON
  /// result line with exactly those metrics.
  void PrintResult(const std::vector<MetricDef>& defs) const;

 private:
  std::map<std::string, double> values_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

/// Seconds per span name over the spans of a private probkb::Tracer:
/// `total` sums durations, `self` sums each span's duration minus those of
/// its direct children.
struct SpanSeconds {
  std::map<std::string, double> total;
  std::map<std::string, double> self;
  double Total(const std::string& name) const;
};

inline double Seconds(const probkb::SpanRecord& span) {
  return 1e-6 * static_cast<double>(span.dur_us);
}

void AddSpans(const std::vector<probkb::SpanRecord>& spans, SpanSeconds* into);

/// Adds the Query 1 metrics of every "query1" span, whose payload is (new
/// atoms, TPi rows before the iteration, statements run).
void AddQuery1Metrics(const std::vector<probkb::SpanRecord>& spans,
                      Report* report);

/// Order-independent digests of an expansion's outputs.
struct Digest {
  uint64_t tpi_keys = 0;   // (R, x, C1, y, C2) of every TPi row
  uint64_t tpi_rows = 0;   // every TPi column, weights by bit pattern
  uint64_t tphi_rows = 0;  // every TPhi column
  int64_t atoms = 0;
  int64_t factors = 0;
};

Digest DigestOf(const probkb::Table& t_pi, const probkb::Table& t_phi);

/// True when every inferred fact (id >= first_inferred) of `t_pi` carries a
/// non-NULL marginal in [0, 1].
bool MarginalsValid(const probkb::Table& t_pi, probkb::FactId first_inferred);

/// Generates KB `k` of the run from a seed derived from spec.seed, and its
/// generation time without steal. False on failure.
bool GenerateKb(const Spec& spec, int k, probkb::KnowledgeBase* kb,
                double* seconds);

/// A generated KB whose grounding runs a statement producing more rows than
/// this is replaced by another. About one KB in 240 at scale 0.02 has a
/// runaway closure (4.3M factors; minutes of Gibbs sampling) and would push
/// a run past its time limit.
constexpr int64_t kScreenMaxRows = 1000000;

/// Generates every KB of the run, with each one's generation time, and
/// replaces runaway KBs (untimed screening grounding). Empty on failure.
std::vector<probkb::KnowledgeBase> GenerateKbs(
    const Spec& spec, std::vector<double>* seconds_per_kb);

/// Untraced runs repeat one KB's set-up this many times, spread over the
/// measured time, besides the initial set-up of every KB. The initial
/// set-ups all fall in the run's first second, so on a shared machine they
/// share its speed; spread samples do not.
constexpr int kSetupSamples = 20;

/// Quality control as ExpandKnowledgeBase applies it: a copy of `kb` that
/// keeps the top `theta` fraction of rules by learner score.
probkb::KnowledgeBase CleanRules(const probkb::KnowledgeBase& kb,
                                 double theta);

/// Median (mean of the two middle values for even sizes), mean without the
/// lowest and highest eighth, and nearest-rank quantile of `values`; 0
/// when empty.
double Median(std::vector<double> values);
double TrimmedMean(std::vector<double> values);
double Quantile(std::vector<double> values, double q);

/// Process resource probes: resident-set high-water mark in MB (ResetPeakRss
/// trims the heap and resets it through /proc/self/clear_refs), and CPU
/// seconds of the process and of the calling thread.
void ResetPeakRss();
double PeakRssMb();
double CurrentRssMb();
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// Machine-wide CPU ticks from /proc/stat: busy (user, nice, system, irq,
/// softirq) and stolen by the hypervisor.
struct CpuTicks {
  uint64_t busy = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Share of the CPU time this machine wanted between two readings that the
/// hypervisor gave to other guests. On a shared VM it swings from ~2% to
/// ~50% over minutes and stretches wall time by 1 / (1 - share); timings
/// multiply by (1 - share) to remove it. 0 without steal accounting.
double StealShare(const CpuTicks& before, const CpuTicks& after);

/// A fixed reference kernel that uses nothing of the library: random
/// probes into an 8 MB open-addressing hash table with one exp() per probe,
/// the mix of the expansion's hash joins and Gibbs updates. On a shared
/// host the work one CPU second does drifts by a fifth within a minute,
/// and the benchmark's times drift with it; timing this kernel in the same
/// run lets them be reported at one reference speed.
///
/// Sample() times `bursts` bursts of probes (about 5 ms each) on the calling
/// thread's CPU clock. Scale() is kReferenceNs over the median ns per probe
/// of every burst so far: a time multiplied by it reads as on a machine
/// where a probe takes kReferenceNs.
///
/// Timed alone, the kernel does not follow the program: its speed depends
/// on what else runs on the host's cores, and the program's own threads
/// are part of that. serve_mixed therefore times a short burst every
/// kReferencePeriod beside its serving threads (about 4% of one core).
class ReferenceKernel {
 public:
  ReferenceKernel();
  void Sample(int bursts);
  double Scale() const;
  /// Prints the median burst and the scale.
  void Print() const;

 private:
  std::vector<uint64_t> slots_;
  std::vector<double> ns_per_probe_;
  uint64_t next_ = 0;
  double sink_ = 0.0;
};

/// About the kernel's ns per probe beside serve_mixed's threads on the
/// 4-vCPU Xeon VM the benchmark was written on.
constexpr double kReferenceNs = 60.0;
constexpr std::chrono::milliseconds kReferencePeriod{150};

/// Runs `work` in a forked child and copies the `size` bytes it writes to
/// its argument back into `result` (plain data only). Every expansion then
/// starts from the same parent heap, and its resident-set growth is its
/// own. Call only while this process runs no other thread. False when the
/// child failed to run or to report.
bool RunInChild(const std::function<void(void* result)>& work, void* result,
                size_t size);

/// Folds a StatsRegistry (engine operators, motions, compute phases, pool
/// workers) into the per-layer metrics of `report`.
void AddRegistryMetrics(const probkb::StatsRegistry& registry,
                        Report* report);

int RunBatch(const Spec& spec, Report* report);
int RunServe(const Spec& spec, Report* report);

}  // namespace e2e

#endif  // PROBKB_E2E_BENCH_BENCH_H_
