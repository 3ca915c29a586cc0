// serve_mixed: reader threads answer `rel(x, *)` queries in a closed loop
// against the newest epoch while one writer thread runs one fixpoint
// iteration and publishes an epoch on a fixed open-loop schedule,
// restarting from the extracted facts after convergence.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "grounding/grounder.h"
#include "grounding/local_grounder.h"
#include "infer/subgraph.h"
#include "kb/kb_query.h"
#include "kb/relational_model.h"
#include "serve/query_server.h"

namespace e2e {

namespace {

using probkb::KnowledgeBase;
using probkb::PinnedSnapshot;
using probkb::QueryPattern;
using probkb::Result;
using probkb::ServeAnswer;
using probkb::TablePtr;

/// The writer restarts from the extracted facts after convergence or after
/// this many iterations (the batch fixpoint cap).
constexpr int kMaxWriterIterations = 15;
/// Traffic mix: closed-loop readers cycling over a seeded query list, and
/// an open-loop writer publishing epochs on a fixed schedule.
constexpr int kReaders = 2;
constexpr int kQueries = 64;
constexpr double kEpochsPerSecond = 4.0;
/// Gibbs sweeps per answer, as `probkb serve` runs them (chromatic). Depth,
/// atom cap and top-k are the ServeOptions defaults.
constexpr int kServeSweeps = 2000;

probkb::ServeOptions ServeOptionsFor() {
  probkb::ServeOptions serve;
  serve.inference.gibbs.schedule = probkb::GibbsSchedule::kChromatic;
  serve.inference.gibbs.sample_sweeps = kServeSweeps;
  return serve;
}

/// A seeded sample of `rel(x, *)` patterns over the KB's extracted facts.
std::vector<QueryPattern> SampleQueries(const KnowledgeBase& kb, int count,
                                        uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<QueryPattern> out;
  const auto& facts = kb.facts();
  if (facts.empty()) return out;
  std::uniform_int_distribution<size_t> pick(0, facts.size() - 1);
  for (int i = 0; i < count; ++i) {
    const probkb::Fact& f = facts[pick(rng)];
    QueryPattern p;
    p.relation = kb.relations().NameOrPlaceholder(f.relation);
    p.x = kb.entities().NameOrPlaceholder(f.x);
    out.push_back(std::move(p));
  }
  return out;
}

bool SameAnswer(const ServeAnswer& a, const ServeAnswer& b) {
  if (a.entries.size() != b.entries.size() ||
      a.grounded_atoms != b.grounded_atoms || a.exact != b.exact) {
    return false;
  }
  for (size_t e = 0; e < a.entries.size(); ++e) {
    if (a.entries[e].id != b.entries[e].id ||
        a.entries[e].probability != b.entries[e].probability) {
      return false;
    }
  }
  return true;
}

/// Traced readers re-answer each query through the layers directly:
/// KbQuery::SeedRows, GroundLocalSubgraph, ComputeSubgraphMarginals over
/// the pinned epoch's tables.
struct EpochTables {
  int64_t epoch = -1;
  TablePtr t_pi;
  std::array<TablePtr, probkb::kNumRuleStructures> m;
  std::unique_ptr<probkb::KbQuery> query;
  std::unordered_map<probkb::FactId, int64_t> row_of;
};

bool LoadEpoch(const KnowledgeBase& kb, probkb::FactId first_inferred,
               const PinnedSnapshot& pin, EpochTables* tables) {
  if (tables->epoch == pin.epoch) return true;
  // Epoch tables are immutable; the layers take mutable handles but only
  // read them.
  auto get = [&pin](const std::string& name) -> TablePtr {
    Result<probkb::ConstTablePtr> t = pin.catalog->Get(name);
    return t.ok() ? std::const_pointer_cast<probkb::Table>(*t) : nullptr;
  };
  tables->t_pi = get("t_pi");
  for (int p = 1; p <= probkb::kNumRuleStructures; ++p) {
    tables->m[static_cast<size_t>(p - 1)] = get("m" + std::to_string(p));
    if (tables->m[static_cast<size_t>(p - 1)] == nullptr) return false;
  }
  if (tables->t_pi == nullptr) return false;
  tables->query =
      std::make_unique<probkb::KbQuery>(&kb, tables->t_pi, first_inferred);
  tables->row_of = probkb::BuildFactRowIndex(*tables->t_pi);
  tables->epoch = pin.epoch;
  return true;
}

/// What one reader thread saw.
struct ReaderLog {
  std::vector<double> latency;     // seconds per answered query
  std::vector<std::pair<int64_t, double>> completions;  // (epoch, time)
  // CPU nanoseconds of each answer's PinNewest + AnswerAt calls per TPi row
  // of the epoch it was answered at (every answer joins against the whole
  // epoch TPi), for exactly enumerated and for sampled answers apart.
  std::vector<double> exact_ns_per_row;
  std::vector<double> sampled_ns_per_row;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t exact = 0;
  int64_t truncated = 0;
  double grounded_atoms = 0.0;
  bool decomposition_matches = true;
};

/// What the writer thread saw.
struct WriterLog {
  std::vector<double> lateness;  // due -> published, seconds
  std::vector<std::pair<int64_t, double>> publishes;  // (epoch, time)
  // CPU time of the (single-threaded) writer and the TPi rows its
  // iterations and restarts passed over.
  double busy_seconds = 0.0;
  double row_passes = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  double statements = 0.0;
  int64_t max_tpi_rows = 0;
};

/// Accumulated over the run's KBs.
struct ServeTotals {
  std::vector<double> latency;
  std::vector<double> lateness;
  std::vector<double> first_answer;
  std::vector<double> publish;
  std::vector<double> local_ground;
  std::vector<double> subgraph_infer;
  int64_t answered = 0;
  int64_t exact = 0;
  int64_t truncated = 0;
  double grounded_atoms = 0.0;
  double wall_seconds = 0.0;
  // Writer CPU and the row passes it made; the readers' per-answer CPU per
  // epoch row; peak RSS growth per TPi row the writer reached, per KB.
  double writer_busy_seconds = 0.0;
  double writer_row_passes = 0.0;
  std::vector<double> exact_ns_per_row;
  std::vector<double> sampled_ns_per_row;
  std::vector<double> bytes_per_row;
};

class ServePhase {
 public:
  ServePhase(const Spec& spec, const KnowledgeBase& kb, uint64_t query_seed)
      : spec_(spec),
        kb_(CleanRules(kb, kRuleCleaningTheta)),
        options_(ServeOptionsFor()),
        queries_(SampleQueries(kb_, kQueries, query_seed)) {
    grounding_.num_threads = 1;
    Restart();
    server_ = std::make_unique<probkb::QueryServer>(&kb_, rkb_.next_fact_id,
                                                    options_);
    first_inferred_ = rkb_.next_fact_id;
  }

  /// First publish (part of set-up).
  bool PublishInitial() { return server_->PublishEpoch(rkb_).ok(); }

  /// Serves for `seconds`; meanwhile the calling thread times a burst of
  /// `reference` every kReferencePeriod.
  void Run(double seconds, ReferenceKernel* reference,
           probkb::StatsRegistry* registry, Report* report,
           ServeTotals* totals);

  /// Every reader re-answers the whole query list at one pinned epoch.
  bool ReadersAgree();

 private:
  void Restart() {
    grounder_.reset();
    rkb_ = probkb::BuildRelationalModel(kb_);
    grounder_ = std::make_unique<probkb::Grounder>(&rkb_, grounding_);
    grounder_->set_stats_registry(registry_);
    tpi_rows_ = rkb_.t_pi->NumRows();
  }
  void WriterLoop(Clock::time_point start, WriterLog* log);
  void ReaderLoop(int reader, Clock::time_point start, ReaderLog* log);

  const Spec& spec_;
  const KnowledgeBase kb_;  // the generated KB after rule cleaning
  probkb::ServeOptions options_;
  std::vector<QueryPattern> queries_;
  probkb::GroundingOptions grounding_;
  probkb::RelationalKB rkb_;
  std::unique_ptr<probkb::Grounder> grounder_;
  probkb::StatsRegistry* registry_ = nullptr;
  probkb::Tracer* tracer_ = nullptr;  // set by traced runs
  int64_t tpi_rows_ = 0;
  probkb::FactId first_inferred_ = 0;
  std::unique_ptr<probkb::QueryServer> server_;
  std::atomic<bool> stop_{false};
};

void ServePhase::WriterLoop(Clock::time_point start, WriterLog* log) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kEpochsPerSecond));
  for (int64_t i = 1; !stop_.load(); ++i) {
    const Clock::time_point due = start + i * period;
    while (!stop_.load() && Clock::now() < due) {
      std::this_thread::sleep_for(std::min<Clock::duration>(
          due - Clock::now(), std::chrono::milliseconds(5)));
    }
    if (stop_.load()) break;
    const double cpu_start = ThreadCpuSeconds();
    ++log->attempted;
    const int64_t statements_before = grounder_->stats().statements;
    probkb::TraceSpan iteration(tracer_, "query1", "grounding");
    Result<int64_t> added = grounder_->GroundAtomsIteration();
    if (!added.ok()) {
      ++log->failed;
      std::printf("writer iteration failed: %s\n",
                  added.status().ToString().c_str());
      break;
    }
    const int64_t statements =
        grounder_->stats().statements - statements_before;
    iteration.set_values(*added, tpi_rows_, statements);
    iteration.End();
    log->statements += static_cast<double>(statements);
    log->row_passes += static_cast<double>(tpi_rows_);
    tpi_rows_ += *added;
    log->max_tpi_rows = std::max(log->max_tpi_rows, tpi_rows_);
    probkb::TraceSpan publish(tracer_, "publish", "serve");
    Result<int64_t> epoch = server_->PublishEpoch(rkb_);
    publish.End();
    const Clock::time_point published = Clock::now();
    if (!epoch.ok()) {
      ++log->failed;
      break;
    }
    log->lateness.push_back(
        std::chrono::duration<double>(published - due).count());
    log->publishes.emplace_back(
        *epoch, std::chrono::duration<double>(published - start).count());
    if (*added == 0 ||
        grounder_->stats().iterations >= kMaxWriterIterations) {
      probkb::TraceSpan load(tracer_, "load", "kb");
      Restart();
      log->row_passes += static_cast<double>(tpi_rows_);
    }
    log->busy_seconds += ThreadCpuSeconds() - cpu_start;
  }
}

void ServePhase::ReaderLoop(int reader, Clock::time_point start,
                            ReaderLog* log) {
  EpochTables tables;
  const size_t n = queries_.size();
  if (n == 0) return;
  size_t next = static_cast<size_t>(reader) * n / kReaders;
  while (!stop_.load()) {
    const QueryPattern& pattern = queries_[next++ % n];
    ++log->attempted;
    const Clock::time_point t0 = Clock::now();
    const double cpu_start = ThreadCpuSeconds();
    Result<PinnedSnapshot> pin = server_->PinNewest();
    if (!pin.ok()) {
      ++log->failed;
      continue;
    }
    probkb::TraceSpan answer_span(tracer_, "answer", "serve");
    Result<ServeAnswer> answer = server_->AnswerAt(pattern, *pin);
    answer_span.End();
    const double cpu_seconds = ThreadCpuSeconds() - cpu_start;
    const Clock::time_point t1 = Clock::now();
    if (!answer.ok()) {
      ++log->failed;
      continue;
    }
    if (answer->total_atoms > 0) {
      (answer->exact ? log->exact_ns_per_row : log->sampled_ns_per_row)
          .push_back(cpu_seconds * 1e9 /
                     static_cast<double>(answer->total_atoms));
    }
    log->latency.push_back(std::chrono::duration<double>(t1 - t0).count());
    log->completions.emplace_back(
        answer->epoch, std::chrono::duration<double>(t1 - start).count());
    log->exact += answer->exact ? 1 : 0;
    log->truncated += answer->truncated ? 1 : 0;
    log->grounded_atoms += static_cast<double>(answer->grounded_atoms);
    if (tracer_ == nullptr) continue;

    // Traced: the same answer through the layers, one span per call.
    if (!LoadEpoch(kb_, first_inferred_, *pin, &tables)) {
      log->decomposition_matches = false;
      continue;
    }
    const std::vector<int64_t> seeds = tables.query->SeedRows(pattern);
    probkb::TraceSpan ground_span(tracer_, "local_ground", "grounding");
    Result<probkb::LocalGrounding> local = probkb::GroundLocalSubgraph(
        tables.t_pi, tables.m, tables.row_of, seeds, options_.grounding);
    ground_span.End();
    if (!local.ok()) {
      log->decomposition_matches = false;
      continue;
    }
    probkb::TraceSpan infer_span(tracer_, "subgraph_infer", "infer");
    Result<probkb::SubgraphMarginals> marginals =
        probkb::ComputeSubgraphMarginals(*local->sub_t_pi, *local->t_phi,
                                         options_.inference);
    infer_span.End();
    if (!marginals.ok() || local->grounded_atoms != answer->grounded_atoms) {
      log->decomposition_matches = false;
      continue;
    }
    for (const ServeAnswer::Entry& e : answer->entries) {
      auto it = marginals->probability.find(e.id);
      if (it == marginals->probability.end() || it->second != e.probability) {
        log->decomposition_matches = false;
      }
    }
  }
}

void ServePhase::Run(double seconds, ReferenceKernel* reference,
                     probkb::StatsRegistry* registry, Report* report,
                     ServeTotals* totals) {
  registry_ = registry;
  grounder_->set_stats_registry(registry);
  std::unique_ptr<probkb::Tracer> tracer;
  if (spec_.trace) {
    tracer = std::make_unique<probkb::Tracer>();
    tracer->set_enabled(true);
  }
  tracer_ = tracer.get();
  WriterLog writer_log;
  std::vector<ReaderLog> reader_logs(kReaders);
  stop_.store(false);
  ResetPeakRss();
  const double base_rss = CurrentRssMb();
  const Clock::time_point start = Clock::now();
  std::thread writer([&] { WriterLoop(start, &writer_log); });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(
        [&, r] { ReaderLoop(r, start, &reader_logs[static_cast<size_t>(r)]); });
  }
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    std::this_thread::sleep_for(
        std::min<Clock::duration>(end - Clock::now(), kReferencePeriod));
    if (Clock::now() < end) reference->Sample(1);
  }
  stop_.store(true);
  writer.join();
  for (std::thread& t : readers) t.join();
  totals->wall_seconds += SecondsSince(start);
  if (writer_log.max_tpi_rows > 0) {
    const double rows = static_cast<double>(writer_log.max_tpi_rows);
    totals->bytes_per_row.push_back((PeakRssMb() - base_rss) * 1048576.0 /
                                    rows);
  }

  for (int64_t i = 0; i < writer_log.attempted; ++i) {
    report->Attempt(i < writer_log.failed);
  }
  totals->lateness.insert(totals->lateness.end(), writer_log.lateness.begin(),
                          writer_log.lateness.end());
  std::unordered_map<int64_t, double> published_at;
  for (const auto& [epoch, t] : writer_log.publishes) published_at[epoch] = t;
  std::unordered_map<int64_t, double> first_completion;
  bool decomposition_matches = true;
  size_t answered = 0;
  for (ReaderLog& log : reader_logs) {
    for (int64_t i = 0; i < log.attempted; ++i) {
      report->Attempt(i < log.failed);
    }
    totals->latency.insert(totals->latency.end(), log.latency.begin(),
                           log.latency.end());
    totals->exact_ns_per_row.insert(totals->exact_ns_per_row.end(),
                                    log.exact_ns_per_row.begin(),
                                    log.exact_ns_per_row.end());
    totals->sampled_ns_per_row.insert(totals->sampled_ns_per_row.end(),
                                      log.sampled_ns_per_row.begin(),
                                      log.sampled_ns_per_row.end());
    answered += log.latency.size();
    totals->answered += static_cast<int64_t>(log.latency.size());
    totals->exact += log.exact;
    totals->truncated += log.truncated;
    totals->grounded_atoms += log.grounded_atoms;
    decomposition_matches = decomposition_matches && log.decomposition_matches;
    for (const auto& [epoch, t] : log.completions) {
      auto it = first_completion.find(epoch);
      if (it == first_completion.end() || t < it->second) {
        first_completion[epoch] = t;
      }
    }
  }
  for (const auto& [epoch, t] : first_completion) {
    auto it = published_at.find(epoch);
    if (it != published_at.end()) {
      totals->first_answer.push_back(t - it->second);
    }
  }
  totals->writer_busy_seconds += writer_log.busy_seconds;
  totals->writer_row_passes += writer_log.row_passes;
  std::printf("KB phase: %zu epochs, %zu answers\n",
              writer_log.publishes.size(), answered);
  if (tracer == nullptr) return;

  report->Check(decomposition_matches,
                "answers re-derived through GroundLocalSubgraph and "
                "ComputeSubgraphMarginals match AnswerAt");
  const std::vector<probkb::SpanRecord> spans = tracer->CollectSpans();
  tracer_ = nullptr;
  for (const probkb::SpanRecord& span : spans) {
    const std::string name = span.name;
    if (name == "publish") totals->publish.push_back(Seconds(span));
    if (name == "local_ground") totals->local_ground.push_back(Seconds(span));
    if (name == "subgraph_infer") {
      totals->subgraph_infer.push_back(Seconds(span));
    }
    if (name == "load") report->Add("kb.load_s", Seconds(span));
  }
  AddQuery1Metrics(spans, report);
  report->Add("grounding.statements", writer_log.statements);
}

bool ServePhase::ReadersAgree() {
  Result<PinnedSnapshot> pin = server_->PinNewest();
  if (!pin.ok()) return false;
  std::vector<std::vector<ServeAnswer>> answers(kReaders);
  std::vector<bool> ok(kReaders, true);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (const QueryPattern& pattern : queries_) {
        Result<ServeAnswer> a = server_->AnswerAt(pattern, *pin);
        if (!a.ok()) {
          ok[static_cast<size_t>(r)] = false;
          return;
        }
        answers[static_cast<size_t>(r)].push_back(std::move(*a));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  bool identical = true;
  for (int r = 0; r < kReaders; ++r) {
    identical = identical && ok[static_cast<size_t>(r)] &&
                answers[static_cast<size_t>(r)].size() == queries_.size();
  }
  for (int r = 1; identical && r < kReaders; ++r) {
    for (size_t q = 0; identical && q < queries_.size(); ++q) {
      identical = SameAnswer(answers[0][q], answers[static_cast<size_t>(r)][q]);
    }
  }
  std::printf("readers re-answered %zu queries at epoch %lld\n",
              queries_.size(), static_cast<long long>(pin->epoch));
  return identical;
}

/// Sets up KB `k` for serving after its generation: rule cleaning, the
/// server and its first publish. Adds the time it took, without steal, to
/// `seconds`. Null when the first publish fails.
std::unique_ptr<ServePhase> SetUp(const Spec& spec, const KnowledgeBase& kb,
                                  size_t k, double* seconds) {
  const CpuTicks ticks = ReadCpuTicks();
  const Clock::time_point start = Clock::now();
  auto phase = std::make_unique<ServePhase>(
      spec, kb, spec.seed * 7919ULL + static_cast<uint64_t>(k));
  if (!phase->PublishInitial()) {
    std::printf("first publish failed\n");
    return nullptr;
  }
  *seconds += SecondsSince(start) * (1.0 - StealShare(ticks, ReadCpuTicks()));
  return phase;
}

}  // namespace

int RunServe(const Spec& spec, Report* report) {
  // Set-up per KB: generation, then SetUp.
  std::vector<double> setup_seconds;
  const std::vector<KnowledgeBase> kbs = GenerateKbs(spec, &setup_seconds);
  if (kbs.empty()) return 1;
  std::vector<std::unique_ptr<ServePhase>> phases;
  for (size_t k = 0; k < kbs.size(); ++k) {
    phases.push_back(SetUp(spec, kbs[k], k, &setup_seconds[k]));
    if (phases.back() == nullptr) return 1;
  }
  // Set-up samples: the median initial set-up, then the set-up of the KB
  // that just served, repeated after each KB's phase.
  std::vector<double> setup = {Median(setup_seconds)};
  const size_t samples_per_phase = static_cast<size_t>(
      std::max<size_t>(1, kSetupSamples / phases.size()));

  ServeTotals totals;
  ReferenceKernel reference;
  const double cpu_start = ProcessCpuSeconds();
  // Each KB serves an equal slice of the run, long enough for the writer
  // to publish at least once.
  const double phase_seconds =
      std::max(spec.seconds / static_cast<double>(phases.size()),
               1.5 / kEpochsPerSecond);
  for (size_t k = 0; k < phases.size(); ++k) {
    probkb::StatsRegistry registry;
    phases[k]->Run(phase_seconds, &reference, spec.trace ? &registry : nullptr, report,
                   &totals);
    if (spec.trace) {
      AddRegistryMetrics(registry, report);
      continue;
    }
    for (size_t i = 0; i < samples_per_phase; ++i) {
      KnowledgeBase kb;
      double seconds = 0.0;
      if (GenerateKb(spec, static_cast<int>(k), &kb, &seconds) &&
          SetUp(spec, kb, k, &seconds) != nullptr) {
        setup.push_back(seconds);
      }
    }
  }
  // Times at the reference speed: the kernel ran beside the serving
  // threads, between the set-up samples, so it saw the same host.
  reference.Print();
  const double scale = reference.Scale();
  const double setup_s =
      Median(setup) * static_cast<double>(kbs.size()) * scale;
  report->Set("setup_s", setup_s);
  std::printf("setup_s: %.4f s at the reference speed to set up %zu KB(s) (median per KB %.4f s "
              "over %zu samples)\n",
              setup_s, kbs.size(), Median(setup), setup.size());
  const double cpu = ProcessCpuSeconds() - cpu_start;
  report->Check(phases.back()->ReadersAgree(),
                "readers re-answering the query list at one pinned epoch "
                "are bit-identical");

  const double answered = static_cast<double>(totals.answered);
  const double p50_ms = Median(totals.latency) * 1e3;
  const double p95_ms = Quantile(totals.latency, 0.95) * 1e3;
  const double qps = totals.wall_seconds > 0 ? answered / totals.wall_seconds
                                             : 0.0;
  const double epoch_s = Median(totals.lateness);
  std::printf("serve_p50_ms: %.3f ms, serve_p95_ms: %.3f ms (%lld queries)\n",
              p50_ms, p95_ms, static_cast<long long>(totals.answered));
  std::printf("serve_qps: %.2f queries/s over %.2f s, %d readers\n", qps,
              totals.wall_seconds, kReaders);
  std::printf("writer_epoch_s: median %.4f s, p95 %.4f s (%zu epochs at "
              "%.1f/s)\n",
              epoch_s, Quantile(totals.lateness, 0.95), totals.lateness.size(),
              kEpochsPerSecond);
  report->PrintErrorRate("queries and writer iterations");
  // The writer's CPU per row pass plus the readers' median CPU per epoch row
  // of an exact and of a sampled answer, so that a change to the writer, to
  // the query path or to either inference path moves the figure. Medians per
  // kind of answer keep it from following each KB's query mix.
  const double writer_ns =
      totals.writer_row_passes > 0
          ? totals.writer_busy_seconds / totals.writer_row_passes * 1e9
          : 0.0;
  const double exact_ns = Median(totals.exact_ns_per_row);
  const double sampled_ns = Median(totals.sampled_ns_per_row);
  std::printf("expand_ns_per_row_pass: writer %.1f ns per row pass, readers "
              "%.1f ns per epoch row per exact answer (median of %zu) and "
              "%.1f per sampled answer (median of %zu)\n",
              writer_ns, exact_ns, totals.exact_ns_per_row.size(), sampled_ns,
              totals.sampled_ns_per_row.size());
  report->Set("expand_ns_per_row_pass",
              (writer_ns + exact_ns + sampled_ns) * scale);
  report->Set("peak_rss_bytes_per_row", TrimmedMean(totals.bytes_per_row));

  report->Set("process.cpu_s", cpu);
  report->Set("serve.answer_p50_ms", p50_ms);
  report->Set("serve.answer_p95_ms", p95_ms);
  report->Set("serve.writer_epoch_s", epoch_s);
  report->Set("serve.publish_ms", Median(totals.publish) * 1e3);
  report->Set("serve.first_answer_after_publish_ms",
              Median(totals.first_answer) * 1e3);
  report->Set("serve.local_ground_ms", Median(totals.local_ground) * 1e3);
  report->Set("serve.subgraph_infer_ms", Median(totals.subgraph_infer) * 1e3);
  if (answered > 0) {
    report->Set("serve.grounded_atoms", totals.grounded_atoms / answered);
    report->Set("serve.exact_share", static_cast<double>(totals.exact) /
                                         answered);
    report->Set("serve.truncated_share",
                static_cast<double>(totals.truncated) / answered);
  }
  return 0;
}

}  // namespace e2e
