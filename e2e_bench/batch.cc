// Batch workloads: ExpandKnowledgeBase over the run's KBs, round after
// round, untraced; or once per KB phase by phase with spans and the
// StatsRegistry attached (traced).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "factor/factor_graph.h"
#include "grounding/grounder.h"
#include "grounding/mpp_grounder.h"
#include "infer/gibbs.h"
#include "infer/writeback.h"
#include "kb/relational_model.h"
#include "tuffy/tuffy_grounder.h"

namespace e2e {

namespace {

using probkb::ExpansionOptions;
using probkb::ExpansionResult;
using probkb::FactId;
using probkb::KnowledgeBase;
using probkb::Result;
using probkb::Status;
using probkb::TablePtr;

/// Tuffy-T reference: the first iterations of the fixpoint.
constexpr int kTuffyIterations = 4;
/// Traced runs expand at most this many of the run's KBs (each twice:
/// untraced and traced); per-layer numbers need no more, and it bounds the
/// run when a KB's factor count runs away.
constexpr size_t kMaxTracedKbs = 8;
/// Grounding threads of every batch expansion: this host's nproc and the
/// CLI default, fixed so results do not depend on the machine.
constexpr int kGroundingThreads = 4;
/// Traced expansions must attribute all but this share of their time to a
/// phase span.
constexpr double kMaxUnattributedShare = 0.05;

ExpansionOptions OptionsFor(const Spec& spec) {
  ExpansionOptions o;
  o.rule_cleaning_theta = kRuleCleaningTheta;
  o.grounding.num_threads = kGroundingThreads;
  o.grounding.deadline_seconds = spec.deadline_seconds;
  o.run_inference = spec.inference;
  if (spec.segments > 0) {
    o.use_mpp = true;
    o.mpp_segments = spec.segments;
    o.mpp_mode = probkb::MppMode::kViews;
  }
  return o;
}

int64_t SweepsPerRun(const probkb::GibbsOptions& g) {
  return static_cast<int64_t>(g.burn_in_sweeps + g.sample_sweeps) *
         g.num_chains;
}

/// Work of one expansion in row passes: every fact or factor one pipeline
/// pass touches. Query 3 and each Query 1 iteration pass over the TPi they
/// start from, Query 2 produces TPhi, and each Gibbs sweep visits every
/// variable and factor. Deterministic for a given KB, so time per row pass
/// compares KBs of different closure sizes.
double RowPasses(const ExpansionResult& r, const ExpansionOptions& o) {
  const probkb::GroundingStats& g = r.grounding_stats;
  double rows = o.constraints_upfront ? static_cast<double>(g.initial_atoms)
                                      : 0.0;
  int64_t tpi = g.initial_atoms;
  for (int64_t added : g.iteration_new_atoms) {
    rows += static_cast<double>(tpi);
    tpi += added;
  }
  rows += static_cast<double>(r.t_phi->NumRows());
  if (o.run_inference && r.graph != nullptr) {
    rows += static_cast<double>(SweepsPerRun(o.gibbs)) *
            static_cast<double>(r.graph->num_variables() +
                                r.graph->num_factors());
  }
  return rows;
}

/// One untraced ExpandKnowledgeBase call and its resident-set growth;
/// outputs are digested after the clock stops. Plain data, so a forked
/// child can hand it back through a pipe.
struct Job {
  bool ok = false;
  char error[200] = {};
  double seconds = 0.0;      // wall clock
  double steal_share = 0.0;  // of the machine's CPU time, see StealShare
  double row_passes = 0.0;
  double rss_growth_mb = 0.0;
  Digest digest;
  bool marginals_ok = true;
};

Job RunJob(const KnowledgeBase& kb, const ExpansionOptions& o) {
  Job job;
  ResetPeakRss();
  const double base_rss = CurrentRssMb();
  const CpuTicks ticks = ReadCpuTicks();
  const Clock::time_point start = Clock::now();
  Result<ExpansionResult> r = probkb::ExpandKnowledgeBase(kb, o);
  job.seconds = SecondsSince(start);
  job.steal_share = StealShare(ticks, ReadCpuTicks());
  job.rss_growth_mb = PeakRssMb() - base_rss;
  auto fail = [&job](const std::string& why) {
    std::snprintf(job.error, sizeof(job.error), "%s", why.c_str());
    return job;
  };
  if (!r.ok()) return fail(r.status().ToString());
  if (r->partial) {
    return fail("partial expansion: " + r->stop_reason.ToString());
  }
  job.ok = true;
  job.row_passes = RowPasses(*r, o);
  job.digest = DigestOf(*r->t_pi, *r->t_phi);
  if (o.run_inference) {
    job.marginals_ok = MarginalsValid(*r->t_pi, r->first_inferred_id);
  }
  return job;
}

bool SameKeys(const Digest& a, const Digest& b) {
  return a.tpi_keys == b.tpi_keys && a.atoms == b.atoms &&
         a.factors == b.factors;
}

bool SameRows(const Digest& a, const Digest& b) {
  return SameKeys(a, b) && a.tpi_rows == b.tpi_rows &&
         a.tphi_rows == b.tphi_rows;
}

/// Outputs of one traced expansion.
struct Traced {
  bool ok = false;
  std::string error;
  Digest digest;
  bool marginals_ok = true;
};

/// Runs the Query 1 fixpoint one GroundAtomsIteration at a time (the loop
/// GroundAtoms runs), one "query1" span per iteration carrying (new atoms,
/// TPi rows before, statements).
template <typename GrounderT>
Status TracedFixpoint(GrounderT* g, int max_iterations,
                      probkb::Tracer* tracer) {
  int64_t tpi = g->stats().initial_atoms;
  while (g->stats().iterations < max_iterations) {
    const int64_t statements_before = g->stats().statements;
    probkb::TraceSpan span(tracer, "query1", "grounding");
    Result<int64_t> added = g->GroundAtomsIteration();
    if (!added.ok()) return added.status();
    span.set_values(*added, tpi, g->stats().statements - statements_before);
    span.End();
    tpi += *added;
    if (*added == 0) break;
  }
  return Status::OK();
}

/// ExpandKnowledgeBase phase by phase through the layers' public functions,
/// one span per call, with `registry` attached wherever a setter exists.
Traced TracedExpand(const KnowledgeBase& kb, const ExpansionOptions& o,
                    probkb::Tracer* tracer, probkb::StatsRegistry* registry,
                    Report* report) {
  Traced out;
  auto fail = [&out](const Status& st) {
    out.error = st.ToString();
    return out;
  };
  probkb::TraceSpan root(tracer, "expand", "pipeline");
  probkb::RelationalKB rkb;
  {
    probkb::TraceSpan span(tracer, "load", "pipeline");
    KnowledgeBase working;
    {
      probkb::TraceSpan cleaning(tracer, "rule_cleaning", "pipeline");
      working = CleanRules(kb, o.rule_cleaning_theta);
    }
    rkb = probkb::BuildRelationalModel(working);
  }
  const FactId first_inferred = rkb.next_fact_id;
  if (o.constraints_upfront) {
    probkb::TraceSpan span(tracer, "query3", "pipeline");
    probkb::Grounder pre(&rkb, o.grounding);
    pre.set_stats_registry(registry);
    Result<int64_t> deleted = pre.ApplyConstraints();
    if (!deleted.ok()) return fail(deleted.status());
    report->Add("grounding.statements",
                static_cast<double>(pre.stats().statements));
  }

  TablePtr t_pi;
  TablePtr t_phi;
  if (o.use_mpp) {
    std::unique_ptr<probkb::MppGrounder> g;
    {
      probkb::TraceSpan span(tracer, "load", "pipeline");
      g = std::make_unique<probkb::MppGrounder>(rkb, o.mpp_segments,
                                                o.mpp_mode, o.grounding);
    }
    g->set_stats_registry(registry);
    Status st = TracedFixpoint(g.get(), o.grounding.max_iterations, tracer);
    if (!st.ok()) return fail(st);
    {
      probkb::TraceSpan span(tracer, "query2", "pipeline");
      Result<TablePtr> factors = g->GroundFactors();
      if (!factors.ok()) return fail(factors.status());
      t_phi = *factors;
    }
    {
      probkb::TraceSpan span(tracer, "gather", "pipeline");
      t_pi = g->GatherTPi();
    }
    report->Add("mpp.simulated_s", g->cost().simulated_seconds());
    report->Add("grounding.statements",
                static_cast<double>(g->stats().statements));
  } else {
    std::unique_ptr<probkb::Grounder> g;
    {
      probkb::TraceSpan span(tracer, "load", "pipeline");
      g = std::make_unique<probkb::Grounder>(&rkb, o.grounding);
    }
    g->set_stats_registry(registry);
    Status st = TracedFixpoint(g.get(), o.grounding.max_iterations, tracer);
    if (!st.ok()) return fail(st);
    {
      probkb::TraceSpan span(tracer, "query2", "pipeline");
      Result<TablePtr> factors = g->GroundFactors();
      if (!factors.ok()) return fail(factors.status());
      t_phi = *factors;
    }
    t_pi = rkb.t_pi;
    report->Add("grounding.statements",
                static_cast<double>(g->stats().statements));
  }

  std::optional<probkb::FactorGraph> graph;
  {
    probkb::TraceSpan span(tracer, "factor_graph", "pipeline");
    Result<probkb::FactorGraph> built =
        probkb::FactorGraph::FromTables(*t_pi, *t_phi);
    if (!built.ok()) return fail(built.status());
    graph.emplace(std::move(*built));
  }
  report->Add("factor.variables", graph->num_variables());
  report->Add("factor.factors", static_cast<double>(graph->num_factors()));
  if (o.run_inference) {
    probkb::GibbsOptions gibbs = o.gibbs;
    gibbs.stats = registry;
    probkb::TraceSpan span(tracer, "gibbs", "pipeline");
    Result<probkb::GibbsResult> inference =
        probkb::GibbsMarginals(*graph, gibbs);
    span.End();
    if (!inference.ok()) return fail(inference.status());
    // Variable updates, the numerator of infer.updates_per_s.
    report->Add("infer.updates",
                static_cast<double>(SweepsPerRun(gibbs)) *
                    graph->num_variables());
    probkb::TraceSpan writeback(tracer, "writeback", "pipeline");
    Result<int64_t> written = probkb::WriteMarginalsToTPi(
        t_pi.get(), *graph, inference->marginals);
    writeback.End();
    if (!written.ok()) return fail(written.status());
  }
  root.End();
  if (o.run_inference) out.marginals_ok = MarginalsValid(*t_pi, first_inferred);
  out.digest = DigestOf(*t_pi, *t_phi);
  out.ok = true;
  return out;
}

/// Raw Tuffy-T Query 1 seconds per iteration over the first iterations.
double TuffyQuery1IterSeconds(const KnowledgeBase& kb,
                              const ExpansionOptions& o, Report* report) {
  const KnowledgeBase cleaned = CleanRules(kb, o.rule_cleaning_theta);
  probkb::TuffyGrounder tuffy(cleaned, o.grounding);
  Status st = tuffy.Load();
  for (int i = 0; st.ok() && i < kTuffyIterations; ++i) {
    Result<int64_t> added = tuffy.GroundAtomsIteration();
    st = added.status();
    if (st.ok() && *added == 0) break;
  }
  report->Check(st.ok(), "Tuffy-T reference grounding runs");
  const std::vector<double>& iters = tuffy.stats().iteration_seconds;
  double total = 0.0;
  for (double s : iters) total += s;
  return iters.empty() ? 0.0 : total / static_cast<double>(iters.size());
}

void CrossCheck(const Spec& spec, const KnowledgeBase& kb,
                const Digest& reference, Report* report) {
  ExpansionOptions other = OptionsFor(spec);
  other.run_inference = false;
  other.use_mpp = spec.segments == 0;
  other.mpp_segments = ExpansionOptions().mpp_segments;
  const Job job = RunJob(kb, other);
  std::printf("cross-check: %s grounding of KB 0: %lld atoms, %lld factors\n",
              other.use_mpp ? "MPP" : "single-node",
              static_cast<long long>(job.digest.atoms),
              static_cast<long long>(job.digest.factors));
  report->Check(job.ok && SameKeys(job.digest, reference),
                "single-node and MPP grounding agree on TPi keys and "
                "factor count");
}

void MeasureUntraced(const Spec& spec,
                     const std::vector<KnowledgeBase>& kbs,
                     const std::vector<double>& generate_seconds,
                     Report* report) {
  const ExpansionOptions o = OptionsFor(spec);
  const size_t n = kbs.size();
  std::vector<std::vector<double>> kb_seconds(n);
  std::vector<std::vector<double>> kb_ns_per_row(n);
  std::vector<std::vector<double>> kb_growth(n);
  std::vector<std::vector<double>> kb_bytes_per_row(n);
  std::vector<std::optional<Digest>> digests(n);
  std::vector<double> steal_shares;
  int repeats = 0;
  bool repeatable = true;
  bool marginals_ok = true;
  auto expand = [&](size_t k) {
    Job job;
    auto work = [&](void* out) {
      *static_cast<Job*>(out) = RunJob(kbs[k], o);
    };
    if (!RunInChild(work, &job, sizeof(job))) {
      std::snprintf(job.error, sizeof(job.error), "child process failed");
    }
    report->Attempt(!job.ok);
    return job;
  };

  // Set-up samples: the median initial generation, then one KB generated
  // again kSetupSamples times across the run.
  std::vector<double> setup = {Median(generate_seconds)};
  Clock::time_point last_setup = Clock::now();

  // Expand the KBs in turn until the time is up, each at least once.
  const Clock::time_point start = Clock::now();
  for (size_t jobs = 0; jobs < n || SecondsSince(start) < spec.seconds;
       ++jobs) {
    const size_t k = jobs % n;
    if (SecondsSince(last_setup) >= spec.seconds / kSetupSamples) {
      KnowledgeBase again;
      double seconds = 0.0;
      if (GenerateKb(spec, static_cast<int>(k), &again, &seconds)) {
        setup.push_back(seconds);
      }
      last_setup = Clock::now();
    }
    const Job job = expand(k);
    if (!job.ok) {
      if (kb_seconds[k].empty() && jobs < n) {
        std::printf("expansion of KB %zu failed: %s\n", k, job.error);
      }
      continue;
    }
    kb_seconds[k].push_back(job.seconds);
    kb_ns_per_row[k].push_back(job.seconds * (1.0 - job.steal_share) /
                               job.row_passes * 1e9);
    steal_shares.push_back(job.steal_share);
    kb_growth[k].push_back(job.rss_growth_mb);
    kb_bytes_per_row[k].push_back(
        job.rss_growth_mb * 1048576.0 /
        static_cast<double>(job.digest.atoms + job.digest.factors));
    marginals_ok = marginals_ok && job.marginals_ok;
    if (!digests[k].has_value()) {
      digests[k] = job.digest;
    } else {
      ++repeats;
      repeatable = repeatable && SameRows(*digests[k], job.digest);
    }
  }
  // When the time allowed only one expansion per KB, expand the quickest KB
  // once more, untimed, so the repeat check compares at least one pair.
  std::optional<size_t> quickest;
  for (size_t k = 0; k < n && repeats == 0; ++k) {
    if (digests[k].has_value() &&
        (!quickest || kb_seconds[k][0] < kb_seconds[*quickest][0])) {
      quickest = k;
    }
  }
  if (quickest) {
    const Job again = expand(*quickest);
    ++repeats;
    repeatable = repeatable && again.ok &&
                 SameRows(*digests[*quickest], again.digest);
  }

  // Per KB, the median over its expansions; across KBs, a trimmed mean, so
  // the result averages over many KBs without one odd KB dominating.
  std::vector<double> ns_per_row;
  std::vector<double> bytes_per_row;
  std::vector<double> all_seconds;
  for (size_t k = 0; k < n; ++k) {
    if (!digests[k].has_value()) continue;
    ns_per_row.push_back(Median(kb_ns_per_row[k]));
    bytes_per_row.push_back(Median(kb_bytes_per_row[k]));
    all_seconds.insert(all_seconds.end(), kb_seconds[k].begin(),
                       kb_seconds[k].end());
    std::printf("KB %zu: %lld atoms, %lld factors, expand_s %.4f, %.2f ns "
                "per row pass without steal, peak RSS +%.1f MB (medians of "
                "%zu runs)\n",
                k, static_cast<long long>(digests[k]->atoms),
                static_cast<long long>(digests[k]->factors),
                Median(kb_seconds[k]), ns_per_row.back(),
                Median(kb_growth[k]), kb_seconds[k].size());
  }
  std::printf("expand_s: median %.4f s per expansion (%zu expansions of "
              "%zu KBs); hypervisor steal %.1f%% of CPU time (median)\n",
              Median(all_seconds), all_seconds.size(), n,
              100.0 * Median(steal_shares));
  report->PrintErrorRate("expansions");
  const double setup_s = Median(setup) * static_cast<double>(n);
  std::printf("setup_s: %.4f s to generate %zu KB(s) (median per KB %.4f s "
              "over %zu samples)\n",
              setup_s, n, Median(setup), setup.size());
  report->Set("setup_s", setup_s);
  report->Set("expand_ns_per_row_pass", TrimmedMean(ns_per_row));
  report->Set("peak_rss_bytes_per_row", TrimmedMean(bytes_per_row));

  if (report->failed() == report->attempted()) {
    std::printf("no expansion completed; output checks skipped\n");
    return;
  }
  report->Check(repeats > 0 && repeatable,
                std::to_string(repeats) +
                    " repeated expansions reproduce their KB's TPi and TPhi");
  if (o.run_inference) {
    report->Check(marginals_ok,
                  "every inferred fact carries a marginal in [0, 1]");
  }
  if (spec.cross_check && digests[0].has_value()) {
    CrossCheck(spec, kbs[0], *digests[0], report);
  }
}

void MeasureTraced(const Spec& spec, const std::vector<KnowledgeBase>& kbs,
                   Report* report) {
  const ExpansionOptions o = OptionsFor(spec);
  SpanSeconds spans;
  double untraced = 0.0;
  std::vector<double> probkb_first_iters;
  for (size_t k = 0; k < std::min(kbs.size(), kMaxTracedKbs); ++k) {
    Job plain = RunJob(kbs[k], o);
    report->Attempt(!plain.ok);
    probkb::StatsRegistry registry;
    probkb::Tracer tracer;
    tracer.set_enabled(true);
    const double cpu_start = ProcessCpuSeconds();
    Traced traced = TracedExpand(kbs[k], o, &tracer, &registry, report);
    report->Add("process.cpu_s", ProcessCpuSeconds() - cpu_start);
    report->Attempt(!traced.ok);
    if (!plain.ok || !traced.ok) {
      std::printf("KB %zu failed: %s%s\n", k, plain.error,
                  traced.error.c_str());
      continue;
    }
    untraced += plain.seconds;
    AddRegistryMetrics(registry, report);
    const std::vector<probkb::SpanRecord> records = tracer.CollectSpans();
    AddSpans(records, &spans);
    AddQuery1Metrics(records, report);
    if (o.run_inference) {
      report->Check(SameRows(plain.digest, traced.digest),
                    "KB " + std::to_string(k) +
                        ": traced run reproduces the untraced TPi (keys and "
                        "weights) and TPhi");
      report->Check(traced.marginals_ok,
                    "KB " + std::to_string(k) +
                        ": every inferred fact carries a marginal in [0, 1]");
    } else {
      report->Check(SameKeys(plain.digest, traced.digest),
                    "KB " + std::to_string(k) +
                        ": traced run reproduces the untraced TPi keys and "
                        "factor count");
    }
    if (k == 0) {
      for (const probkb::SpanRecord& r : records) {
        if (std::string(r.name) == "query1") {
          probkb_first_iters.push_back(Seconds(r));
        }
      }
      if (spec.cross_check) CrossCheck(spec, kbs[0], plain.digest, report);
    }
  }

  report->Set("kb.load_s", spans.Total("load") - spans.Total("rule_cleaning"));
  report->Set("quality.rule_cleaning_s", spans.Total("rule_cleaning"));
  report->Set("grounding.query3_s", spans.Total("query3"));
  report->Set("grounding.query2_s", spans.Total("query2"));
  report->Set("factor.build_s", spans.Total("factor_graph"));
  report->Set("infer.gibbs_s", spans.Total("gibbs"));
  report->Set("infer.writeback_s", spans.Total("writeback"));
  report->Set("mpp.gather_s", spans.Total("gather"));
  if (spans.Total("gibbs") > 0) {
    report->Set("infer.updates_per_s",
                report->Get("infer.updates") / spans.Total("gibbs"));
  }

  // Tracing overhead, and the share of the traced total that no phase span
  // covers (the root span's self time).
  const double traced_total = spans.Total("expand");
  const double unattributed =
      traced_total > 0 ? spans.self["expand"] / traced_total : 1.0;
  report->Set("trace.untraced_s", untraced);
  report->Set("trace.traced_s", traced_total);
  report->Set("trace.unattributed_share", unattributed);
  std::printf("tracing: traced total %.4f s vs untraced expand_s total "
              "%.4f s (%+.1f%%)\n",
              traced_total, untraced,
              untraced > 0 ? 100.0 * (traced_total / untraced - 1.0) : 0.0);
  std::printf("phase self times:");
  for (const auto& [name, seconds] : spans.self) {
    std::printf(" %s=%.4f", name.c_str(), seconds);
  }
  std::printf("\n");
  char what[96];
  std::snprintf(what, sizeof(what),
                "phase spans cover all but %.2f%% (under %.0f%%) of the "
                "traced total",
                100.0 * unattributed, 100.0 * kMaxUnattributedShare);
  report->Check(unattributed < kMaxUnattributedShare, what);

  std::printf("raw vs modelled: grounding.query1_s %.4f s, "
              "grounding.query1_modeled_s %.4f s (+%.0f ms per statement)\n",
              report->Get("grounding.query1_s"),
              report->Get("grounding.query1_modeled_s"),
              kPerStatementSeconds * 1e3);
  if (spec.segments > 0) {
    std::printf("raw vs modelled: traced MPP expansion %.4f s raw, "
                "mpp.simulated_s %.4f s\n",
                traced_total, report->Get("mpp.simulated_s"));
  }
  if (spec.tuffy_reference && !probkb_first_iters.empty()) {
    const double tuffy = TuffyQuery1IterSeconds(kbs[0], o, report);
    double probkb = 0.0;
    const size_t iters =
        std::min(probkb_first_iters.size(),
                 static_cast<size_t>(kTuffyIterations));
    for (size_t i = 0; i < iters; ++i) probkb += probkb_first_iters[i];
    probkb /= static_cast<double>(iters);
    report->Set("tuffy.query1_iter_s", tuffy);
    report->Set("probkb_vs_tuffy_raw", tuffy > 0 ? probkb / tuffy : 0.0);
    std::printf("raw Query 1 per iteration (first %zu, KB 0): ProbKB %.4f s, "
                "Tuffy-T %.4f s, ratio %.3f\n",
                iters, probkb, tuffy, tuffy > 0 ? probkb / tuffy : 0.0);
  }
}

}  // namespace

int RunBatch(const Spec& spec, Report* report) {
  std::vector<double> generate_seconds;
  const std::vector<KnowledgeBase> kbs = GenerateKbs(spec, &generate_seconds);
  if (kbs.empty()) return 1;
  if (spec.trace) {
    MeasureTraced(spec, kbs, report);
  } else {
    MeasureUntraced(spec, kbs, generate_seconds, report);
  }
  return 0;
}

}  // namespace e2e
