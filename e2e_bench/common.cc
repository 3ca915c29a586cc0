#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <string>

#include "bench.h"
#include "datagen/synthetic_kb.h"
#include "kb/relational_model.h"
#include "quality/rule_cleaning.h"

namespace e2e {

using probkb::FactId;
using probkb::Table;
using probkb::Value;

// --- metric schema ---------------------------------------------------------

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"expand_ns_per_row_pass", "ns"},
      {"peak_rss_bytes_per_row", "B"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"quality.rule_cleaning_s", "s"},
      {"kb.load_s", "s"},
      {"grounding.query3_s", "s"},
      {"grounding.query1_s", "s"},
      {"grounding.query1_modeled_s", "s"},
      {"grounding.query1_tail_s", "s"},
      {"grounding.query2_s", "s"},
      {"grounding.iterations", "count"},
      {"grounding.new_atoms", "count"},
      {"grounding.statements", "count"},
      {"engine.build_rows", "count"},
      {"engine.probe_rows", "count"},
      {"engine.build_s", "s"},
      {"engine.probe_s", "s"},
      {"engine.rehashes", "count"},
      {"engine.distinct_rows", "count"},
      {"pool.busy_s", "s"},
      {"pool.idle_s", "s"},
      {"pool.steals", "count"},
      {"process.cpu_s", "s"},
      {"mpp.tuples_shipped", "count"},
      {"mpp.bytes_shipped", "B"},
      {"mpp.broadcasts", "count"},
      {"mpp.redistributes", "count"},
      {"mpp.motion_s", "s"},
      {"mpp.compute_s", "s"},
      {"mpp.max_skew", "ratio"},
      {"mpp.gather_s", "s"},
      {"mpp.simulated_s", "s"},
      {"factor.build_s", "s"},
      {"factor.variables", "count"},
      {"factor.factors", "count"},
      {"infer.gibbs_s", "s"},
      {"infer.updates_per_s", "1/s"},
      {"infer.writeback_s", "s"},
      {"serve.publish_ms", "ms"},
      {"serve.first_answer_after_publish_ms", "ms"},
      {"serve.local_ground_ms", "ms"},
      {"serve.subgraph_infer_ms", "ms"},
      {"serve.grounded_atoms", "count"},
      {"serve.exact_share", "share"},
      {"serve.truncated_share", "share"},
      {"serve.answer_p50_ms", "ms"},
      {"serve.answer_p95_ms", "ms"},
      {"serve.writer_epoch_s", "s"},
      {"tuffy.query1_iter_s", "s"},
      {"probkb_vs_tuffy_raw", "ratio"},
      {"trace.untraced_s", "s"},
      {"trace.traced_s", "s"},
      {"trace.unattributed_share", "share"},
  };
  return defs;
}

// --- report ----------------------------------------------------------------

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::Add(const std::string& name, double value) {
  values_[name] += value;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::Check(bool ok, const std::string& what) {
  std::printf("check %s: %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) correct_ = false;
}

void Report::Attempt(bool failed) {
  ++attempted_;
  if (failed) ++failed_;
}

void Report::PrintErrorRate(const std::string& what) const {
  std::printf("error_rate: %.4f (%lld of %lld %s failed)\n",
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0,
              static_cast<long long>(failed_),
              static_cast<long long>(attempted_), what.c_str());
}

void Report::PrintResult(const std::vector<MetricDef>& defs) const {
  for (const MetricDef& d : defs) {
    std::printf("metric %-36s %.6g %s\n", d.name, Get(d.name), d.unit);
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct_ ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    double v = Get(defs[i].name);
    if (!std::isfinite(v)) v = 0.0;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + defs[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- spans ---------------------------------------------------------------

double SpanSeconds::Total(const std::string& name) const {
  auto it = total.find(name);
  return it == total.end() ? 0.0 : it->second;
}

void AddSpans(const std::vector<probkb::SpanRecord>& spans,
              SpanSeconds* into) {
  // Span ids are unique within a trace; key children by (trace, parent).
  auto key = [](uint64_t trace, uint64_t span) {
    return std::make_pair(trace, span);
  };
  std::map<std::pair<uint64_t, uint64_t>, double> child_seconds;
  for (const probkb::SpanRecord& s : spans) {
    if (s.parent_id != 0) {
      child_seconds[key(s.trace_id, s.parent_id)] += Seconds(s);
    }
  }
  for (const probkb::SpanRecord& s : spans) {
    auto it = child_seconds.find(key(s.trace_id, s.span_id));
    into->total[s.name] += Seconds(s);
    into->self[s.name] +=
        Seconds(s) - (it == child_seconds.end() ? 0.0 : it->second);
  }
}

void AddQuery1Metrics(const std::vector<probkb::SpanRecord>& spans,
                      Report* report) {
  for (const probkb::SpanRecord& s : spans) {
    if (std::strcmp(s.name, "query1") != 0) continue;
    report->Add("grounding.query1_s", Seconds(s));
    report->Add("grounding.query1_modeled_s",
                Seconds(s) + kPerStatementSeconds * static_cast<double>(s.c));
    if (static_cast<double>(s.a) <
        kTailDeltaShare * static_cast<double>(s.b)) {
      report->Add("grounding.query1_tail_s", Seconds(s));
    }
    report->Add("grounding.iterations", 1);
    report->Add("grounding.new_atoms", static_cast<double>(s.a));
  }
}

// --- digests ---------------------------------------------------------------

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t Bits(const Value& v) {
  if (v.is_null()) return 0x6E756C6CULL;  // "null"
  if (v.is_int64()) return static_cast<uint64_t>(v.i64());
  double d = v.f64();
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

uint64_t RowHash(const Table& t, int64_t row, const std::vector<int>& cols) {
  uint64_t h = 0;
  for (int c : cols) h = Mix(h ^ Bits(t.ValueAt(row, c)));
  return h;
}

}  // namespace

Digest DigestOf(const Table& t_pi, const Table& t_phi) {
  namespace tpi = probkb::tpi;
  const std::vector<int> keys = {tpi::kR, tpi::kX, tpi::kC1, tpi::kY,
                                 tpi::kC2};
  std::vector<int> all_pi(static_cast<size_t>(t_pi.width()));
  for (int c = 0; c < t_pi.width(); ++c) all_pi[static_cast<size_t>(c)] = c;
  std::vector<int> all_phi(static_cast<size_t>(t_phi.width()));
  for (int c = 0; c < t_phi.width(); ++c) all_phi[static_cast<size_t>(c)] = c;
  Digest d;
  d.atoms = t_pi.NumRows();
  d.factors = t_phi.NumRows();
  for (int64_t r = 0; r < t_pi.NumRows(); ++r) {
    d.tpi_keys += RowHash(t_pi, r, keys);
    d.tpi_rows += RowHash(t_pi, r, all_pi);
  }
  for (int64_t r = 0; r < t_phi.NumRows(); ++r) {
    d.tphi_rows += RowHash(t_phi, r, all_phi);
  }
  return d;
}

bool MarginalsValid(const Table& t_pi, FactId first_inferred) {
  namespace tpi = probkb::tpi;
  for (int64_t r = 0; r < t_pi.NumRows(); ++r) {
    if (t_pi.ValueAt(r, tpi::kI).i64() < first_inferred) continue;
    const Value w = t_pi.ValueAt(r, tpi::kW);
    if (!w.is_float64()) return false;
    const double p = w.f64();
    if (!(p >= 0.0 && p <= 1.0)) return false;
  }
  return true;
}

// --- inputs ----------------------------------------------------------------

bool GenerateKb(const Spec& spec, int k, probkb::KnowledgeBase* kb,
                double* seconds) {
  probkb::SyntheticKbConfig config;
  config.scale = spec.scale;
  config.seed = Mix(spec.seed * 1000003ULL + static_cast<uint64_t>(k)) &
                0x7FFFFFFFULL;
  const CpuTicks ticks = ReadCpuTicks();
  const Clock::time_point start = Clock::now();
  auto generated = probkb::GenerateReverbSherlockKb(config);
  *seconds = SecondsSince(start) * (1.0 - StealShare(ticks, ReadCpuTicks()));
  if (!generated.ok()) {
    std::fprintf(stderr, "KB generation failed: %s\n",
                 generated.status().ToString().c_str());
    return false;
  }
  *kb = std::move(generated->kb);
  return true;
}

namespace {

/// True when single-node grounding of `kb` (rule cleaning, Query 3, the
/// fixpoint, Query 2) finishes with no statement above kScreenMaxRows rows.
/// Runs in a child process, so a runaway closure costs no memory here.
bool GroundsWithinCap(const probkb::KnowledgeBase& kb) {
  probkb::ExpansionOptions o;
  o.rule_cleaning_theta = kRuleCleaningTheta;
  o.run_inference = false;
  o.grounding.num_threads = 4;
  o.grounding.max_rows_per_statement = kScreenMaxRows;
  bool ok = false;
  auto work = [&](void* out) {
    probkb::Result<probkb::ExpansionResult> r =
        probkb::ExpandKnowledgeBase(kb, o);
    *static_cast<bool*>(out) = r.ok() && !r->partial;
  };
  return RunInChild(work, &ok, sizeof(ok)) && ok;
}

}  // namespace

std::vector<probkb::KnowledgeBase> GenerateKbs(
    const Spec& spec, std::vector<double>* seconds_per_kb) {
  std::vector<probkb::KnowledgeBase> kbs(static_cast<size_t>(spec.kbs));
  seconds_per_kb->assign(kbs.size(), 0.0);
  int next_replacement = spec.kbs;
  for (int k = 0; k < spec.kbs; ++k) {
    probkb::KnowledgeBase& kb = kbs[static_cast<size_t>(k)];
    double& seconds = (*seconds_per_kb)[static_cast<size_t>(k)];
    if (!GenerateKb(spec, k, &kb, &seconds)) return {};
    while (!GroundsWithinCap(kb)) {
      std::printf("KB %d: grounding exceeds %lld rows in one statement; "
                  "replaced by generated KB %d\n",
                  k, static_cast<long long>(kScreenMaxRows), next_replacement);
      if (!GenerateKb(spec, next_replacement++, &kb, &seconds)) return {};
    }
  }
  return kbs;
}

probkb::KnowledgeBase CleanRules(const probkb::KnowledgeBase& kb,
                                 double theta) {
  probkb::KnowledgeBase cleaned = kb;
  if (theta < 1.0) {
    *cleaned.mutable_rules() = probkb::TopThetaRules(cleaned.rules(), theta);
  }
  return cleaned;
}

// --- statistics ------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double TrimmedMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t trim = values.size() / 8;
  double sum = 0.0;
  for (size_t i = trim; i < values.size() - trim; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * trim);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

// --- process probes --------------------------------------------------------

namespace {

double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace

void ResetPeakRss() {
  // Return freed heap first, so the new high-water mark starts from live
  // memory rather than from what an earlier, larger job left cached.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() { return StatusFieldMb("VmHWM:"); }
double CurrentRssMb() { return StatusFieldMb("VmRSS:"); }

bool RunInChild(const std::function<void(void* result)>& work, void* result,
                size_t size) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    close(fds[0]);
    std::vector<char> buffer(size);
    work(buffer.data());
    size_t done = 0;
    while (done < size) {
      const ssize_t n = write(fds[1], buffer.data() + done, size - done);
      if (n <= 0) _exit(1);
      done += static_cast<size_t>(n);
    }
    std::fflush(stdout);
    _exit(0);
  }
  close(fds[1]);
  size_t done = 0;
  while (pid > 0 && done < size) {
    const ssize_t n =
        read(fds[0], static_cast<char*>(result) + done, size - done);
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  close(fds[0]);
  if (pid < 0) return false;
  int status = 0;
  waitpid(pid, &status, 0);
  return done == size && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {
constexpr size_t kReferenceSlots = size_t{1} << 20;  // 8 MB of keys
constexpr int kReferenceProbes = 100000;             // one burst, ~5 ms
}  // namespace

ReferenceKernel::ReferenceKernel() : slots_(kReferenceSlots, 0) {
  // Half full, so probes that miss walk a short run of occupied slots.
  for (uint64_t i = 0; i < kReferenceSlots / 2; ++i) {
    const uint64_t key = Mix(i) | 1;
    size_t s = key & (kReferenceSlots - 1);
    while (slots_[s] != 0) s = (s + 1) & (kReferenceSlots - 1);
    slots_[s] = key;
  }
}

void ReferenceKernel::Sample(int bursts) {
  for (int b = 0; b < bursts; ++b) {
    const double start = ThreadCpuSeconds();
    int64_t found = 0;
    double acc = 0.0;
    for (int p = 0; p < kReferenceProbes; ++p) {
      const uint64_t key = Mix(next_++ % kReferenceSlots) | 1;
      size_t s = key & (kReferenceSlots - 1);
      while (slots_[s] != 0 && slots_[s] != key) {
        s = (s + 1) & (kReferenceSlots - 1);
      }
      found += slots_[s] == key ? 1 : 0;
      acc += std::exp(-1e-3 * static_cast<double>(key & 1023));
    }
    sink_ += acc + static_cast<double>(found);
    ns_per_probe_.push_back((ThreadCpuSeconds() - start) * 1e9 /
                            kReferenceProbes);
  }
}

double ReferenceKernel::Scale() const {
  const double median = Median(ns_per_probe_);
  return median > 0 ? kReferenceNs / median : 1.0;
}

void ReferenceKernel::Print() const {
  std::printf("reference kernel: median %.3f ns per probe over %zu bursts; "
              "times scaled by %.4f to %.0f ns per probe (sink %.0f)\n",
              Median(ns_per_probe_), ns_per_probe_.size(), Scale(),
              kReferenceNs, sink_);
}

CpuTicks ReadCpuTicks() {
  // First line: cpu user nice system idle iowait irq softirq steal ...
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  in >> cpu;
  for (uint64_t& x : v) in >> x;
  CpuTicks t;
  if (!in || cpu != "cpu") return t;
  t.busy = v[0] + v[1] + v[2] + v[5] + v[6];
  t.steal = v[7];
  return t;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  const double busy = static_cast<double>(after.busy - before.busy);
  const double steal = static_cast<double>(after.steal - before.steal);
  return busy + steal > 0 ? steal / (busy + steal) : 0.0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

}  // namespace e2e
