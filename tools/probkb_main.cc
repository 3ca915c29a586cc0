// probkb — command-line front end for the ProbKB library.
//
//   probkb stats   program.mln
//   probkb ground  program.mln [--iterations N] [--constraints]
//                  [--rule-theta F] [--deadline S]
//                  [--max-rows N] [--checkpoint DIR] [--resume]
//                  [--threads N] [--mem-budget SIZE] [--spill-dir DIR]
//                  [--tpi out.tsv] [--tphi out.tsv]
//   probkb infer   program.mln [--sweeps N] [--map] [same grounding flags]
//   probkb explain program.mln --fact 'rel(x, y)'
//   probkb serve   program.mln --query 'rel(x, y)' [--query ...]
//                  [--serve-depth N] [--serve-max-atoms N] [--topk K]
//                  [--readers N] [--verify-batch] [--tolerance F]
//
// Grounds an MLN program with the batched algorithm and optionally runs
// marginal (Gibbs) or MAP inference, printing facts with probabilities.
// `serve` instead answers the queries on demand while a background thread
// expands the KB, publishing each fixpoint iteration as a new snapshot
// epoch; queries ground only their local proof neighborhood.
//
// Exit codes: 0 success, 1 error, 2 usage, and — for budget failures that
// end a run early with a partial (checkpointed) expansion — 4 deadline
// exceeded, 5 resource exhausted, 6 cancelled.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/probkb.h"
#include "infer/map_inference.h"
#include "mln/parser.h"
#include "obs/stats_registry.h"
#include "obs/trace.h"
#include "quality/rule_cleaning.h"
#include "relational/table_io.h"
#include "serve/query_server.h"
#include "util/logging.h"
#include "util/mem_budget.h"
#include "util/strings.h"

namespace {

using namespace probkb;

struct CliOptions {
  std::string command;
  std::string program_path;
  int iterations = 15;
  bool constraints = false;
  double rule_theta = 1.0;
  int sweeps = 2000;
  bool map_inference = false;
  double deadline_seconds = 0.0;
  int64_t max_rows = 0;
  int num_threads = 0;
  int num_segments = 0;
  std::string checkpoint_dir;
  bool resume = false;
  int64_t mem_budget = 0;  // 0 disables spilling
  std::string spill_dir;
  std::string tpi_out;
  std::string tphi_out;
  std::string fact_query;
  bool explain_plans = false;
  bool stats = false;
  std::string stats_json;
  std::string log_level;
  std::string log_json;
  std::string post_mortem;
  std::string trace_jsonl;
  std::string trace_chrome;
  // serve
  std::vector<std::string> queries;
  int serve_depth = 3;
  int64_t serve_max_atoms = 65536;
  int topk = 10;
  int readers = 2;
  bool verify_batch = false;
  double tolerance = 0.05;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: probkb <stats|ground|infer|explain|serve> <program.mln> "
      "[flags]\n"
      "  --iterations N    grounding iteration cap (default 15)\n"
      "  --constraints     apply functional constraints each iteration\n"
      "  --rule-theta F    keep the top-F fraction of rules by score\n"
      "  --deadline S      grounding deadline in seconds (exit 4 past it)\n"
      "  --max-rows N      per-statement produced-row cap (exit 5 past it)\n"
      "  --checkpoint DIR  write an iteration checkpoint into DIR\n"
      "  --resume          resume grounding from --checkpoint DIR\n"
      "  --threads N       worker threads for grounding and Gibbs sampling\n"
      "                    (default: all cores; 1 = serial; output is\n"
      "                    identical either way)\n"
      "  --mem-budget SIZE out-of-core memory budget for grounding joins\n"
      "                    (e.g. 256M, 2G; default 0 = in-memory only).\n"
      "                    Over-budget joins run grace-hash with disk\n"
      "                    spill; output is bit-identical either way\n"
      "  --spill-dir DIR   spill-file directory (default: a per-run\n"
      "                    directory under the system temp dir, removed\n"
      "                    at exit)\n"
      "  --segments N      ground on the N-segment MPP engine instead of\n"
      "                    the single-node grounder (ProbKB-p views plan)\n"
      "  --sweeps N        Gibbs sample sweeps (infer; default 2000)\n"
      "  --map             MAP (most likely world) instead of marginals\n"
      "  --tpi FILE        dump the grounded facts table as TSV\n"
      "  --tphi FILE       dump the factor table as TSV\n"
      "  --fact 'r(a, b)'  fact to explain (explain)\n"
      "  --explain         dump the chosen plan trees / motion decisions of\n"
      "                    the last grounding iteration (est vs observed\n"
      "                    cardinalities)\n"
      "  --stats           print an EXPLAIN ANALYZE execution report\n"
      "  --stats_json FILE write the execution stats as JSON\n"
      "  --log_level L     debug|info|warning|error or 0-3 (default info;\n"
      "                    env PROBKB_LOG_LEVEL)\n"
      "  --log_json FILE   mirror log lines into FILE as JSONL\n"
      "                    (env PROBKB_LOG)\n"
      "  --post_mortem FILE  write the event journal's last events as JSON\n"
      "  --trace FILE      write trace spans as JSONL\n"
      "  --trace_chrome FILE  write spans and journal events as\n"
      "                    chrome://tracing JSON\n"
      "  --query 'r(a, b)'   serve: query to answer (* wildcards, or a bare\n"
      "                    entity name; repeatable)\n"
      "  --serve-depth N   serve: backward-chaining depth bound (default 3)\n"
      "  --serve-max-atoms N  serve: per-query grounded-atom cap\n"
      "  --topk K          serve: answers reported per query (default 10)\n"
      "  --readers N       serve: concurrent reader threads for the final\n"
      "                    bit-identity check (default 2)\n"
      "  --verify-batch    serve: cross-check answers against full batch\n"
      "                    grounding + inference at the same epoch\n"
      "  --tolerance F     serve: max |serve - batch| marginal difference\n"
      "                    allowed by --verify-batch (default 0.05)\n");
  return 2;
}

// Every flag that names an output file, so duplicate paths can be
// rejected up front. Without this, --post_mortem and --trace_chrome
// pointed at the same file would each open it independently and silently
// interleave / clobber each other's JSON.
bool CheckOutputPathCollisions(const CliOptions& options) {
  const std::vector<std::pair<const char*, std::string>> outputs = {
      {"--tpi", options.tpi_out},
      {"--tphi", options.tphi_out},
      {"--stats_json", options.stats_json},
      {"--log_json", options.log_json},
      {"--post_mortem", options.post_mortem},
      {"--trace", options.trace_jsonl},
      {"--trace_chrome", options.trace_chrome},
  };
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].second.empty()) continue;
    for (size_t j = i + 1; j < outputs.size(); ++j) {
      if (outputs[i].second != outputs[j].second) continue;
      std::fprintf(stderr,
                   "%s and %s both write to '%s'; their outputs would "
                   "interleave — give each a distinct path\n",
                   outputs[i].first, outputs[j].first,
                   outputs[i].second.c_str());
      return false;
    }
  }
  return true;
}

/// Distinct process exit codes per budget-failure kind, so wrapper scripts
/// can tell "ran out of time" from "ran out of memory" from a crash.
int ExitCodeFor(const Status& st) {
  switch (st.code()) {
    case StatusCode::kDeadlineExceeded:
      return 4;
    case StatusCode::kResourceExhausted:
      return 5;
    case StatusCode::kCancelled:
      return 6;
    default:
      return st.ok() ? 0 : 1;
  }
}

// Hardened numeric-flag intake: garbage falls back to the default,
// out-of-range values clamp to the nearer bound, both with a stderr
// warning — a typo'd knob must not crash the server or run unbounded
// (same policy ResolveThreads applies to env vars).
int64_t FlagInt64(const char* flag, const char* text, int64_t fallback,
                  int64_t lo, int64_t hi) {
  BoundedInt64 parsed = ParseBoundedInt64(text, fallback, lo, hi);
  if (parsed.malformed) {
    std::fprintf(stderr, "%s: unparseable value '%s'; using %lld\n", flag,
                 text, static_cast<long long>(parsed.value));
  } else if (parsed.clamped) {
    std::fprintf(stderr,
                 "%s: value '%s' outside [%lld, %lld]; clamped to %lld\n",
                 flag, text, static_cast<long long>(lo),
                 static_cast<long long>(hi),
                 static_cast<long long>(parsed.value));
  }
  return parsed.value;
}

// Strict intake for the run's own knobs: a malformed or out-of-range
// value is a usage error (exit 2), never a silent default ("--max-rows
// 1e6" must not read as a 1-row cap, nor "--deadline abc" as none).
template <typename T>
bool IntFlag(const char* flag, const char* text, int64_t lo, int64_t hi,
             T* out) {
  int64_t v = 0;
  if (text == nullptr) return false;
  if (!ParseInt64(text, &v) || v < lo || v > hi) {
    std::fprintf(stderr, "%s wants an integer in [%lld, %lld], got '%s'\n",
                 flag, static_cast<long long>(lo), static_cast<long long>(hi),
                 text);
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

bool RealFlag(const char* flag, const char* text, double lo, double hi,
              double* out) {
  double v = 0.0;
  if (text == nullptr) return false;
  if (!ParseDouble(text, &v) || !(v >= lo && v <= hi)) {
    std::fprintf(stderr, "%s wants a number in [%g, %g], got '%s'\n", flag,
                 lo, hi, text);
    return false;
  }
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
  if (argc < 3) return false;
  options->command = argv[1];
  options->program_path = argv[2];
  for (int i = 3; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--iterations") {
      if (!IntFlag(flag.c_str(), next(), 0, kMaxInt, &options->iterations)) {
        return false;
      }
    } else if (flag == "--constraints") {
      options->constraints = true;
    } else if (flag == "--rule-theta") {
      if (!RealFlag(flag.c_str(), next(), 0.0, 1.0, &options->rule_theta)) {
        return false;
      }
    } else if (flag == "--deadline") {
      if (!RealFlag(flag.c_str(), next(), 0.0,
                    std::numeric_limits<double>::max(),
                    &options->deadline_seconds)) {
        return false;
      }
    } else if (flag == "--max-rows") {
      if (!IntFlag(flag.c_str(), next(), 0,
                   std::numeric_limits<int64_t>::max(), &options->max_rows)) {
        return false;
      }
    } else if (flag == "--checkpoint") {
      const char* v = next();
      if (v == nullptr) return false;
      options->checkpoint_dir = v;
    } else if (flag == "--resume") {
      options->resume = true;
    } else if (flag == "--mem-budget") {
      const char* v = next();
      if (v == nullptr) return false;
      auto bytes = probkb::ParseByteSize(v);
      if (!bytes.ok() || *bytes < 0) {
        std::fprintf(stderr,
                     "--mem-budget wants a byte size like 512M or 2G\n");
        return false;
      }
      options->mem_budget = *bytes;
    } else if (flag == "--spill-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      options->spill_dir = v;
    } else if (flag == "--threads") {
      if (!IntFlag(flag.c_str(), next(), 1, kMaxInt, &options->num_threads)) {
        return false;
      }
    } else if (flag == "--segments") {
      if (!IntFlag(flag.c_str(), next(), 1, kMaxInt,
                   &options->num_segments)) {
        return false;
      }
    } else if (flag == "--sweeps") {
      // Burn-in plus sample sweeps must fit in an int.
      if (!IntFlag(flag.c_str(), next(), 1,
                   kMaxInt - GibbsOptions{}.burn_in_sweeps,
                   &options->sweeps)) {
        return false;
      }
    } else if (flag == "--map") {
      options->map_inference = true;
    } else if (flag == "--tpi") {
      const char* v = next();
      if (v == nullptr) return false;
      options->tpi_out = v;
    } else if (flag == "--tphi") {
      const char* v = next();
      if (v == nullptr) return false;
      options->tphi_out = v;
    } else if (flag == "--fact") {
      const char* v = next();
      if (v == nullptr) return false;
      options->fact_query = v;
    } else if (flag == "--explain") {
      options->explain_plans = true;
    } else if (flag == "--stats") {
      options->stats = true;
    } else if (flag == "--stats_json") {
      const char* v = next();
      if (v == nullptr) return false;
      options->stats_json = v;
    } else if (flag == "--log_level") {
      const char* v = next();
      if (v == nullptr) return false;
      options->log_level = v;
    } else if (flag == "--log_json") {
      const char* v = next();
      if (v == nullptr) return false;
      options->log_json = v;
    } else if (flag == "--post_mortem") {
      const char* v = next();
      if (v == nullptr) return false;
      options->post_mortem = v;
    } else if (flag == "--trace") {
      const char* v = next();
      if (v == nullptr) return false;
      options->trace_jsonl = v;
    } else if (flag == "--trace_chrome") {
      const char* v = next();
      if (v == nullptr) return false;
      options->trace_chrome = v;
    } else if (flag == "--query") {
      const char* v = next();
      if (v == nullptr) return false;
      options->queries.push_back(v);
    } else if (flag == "--serve-depth") {
      const char* v = next();
      if (v == nullptr) return false;
      options->serve_depth = static_cast<int>(
          FlagInt64("--serve-depth", v, 3, 0, 64));
    } else if (flag == "--serve-max-atoms") {
      const char* v = next();
      if (v == nullptr) return false;
      options->serve_max_atoms =
          FlagInt64("--serve-max-atoms", v, 65536, 0, int64_t{1} << 40);
    } else if (flag == "--topk") {
      const char* v = next();
      if (v == nullptr) return false;
      options->topk =
          static_cast<int>(FlagInt64("--topk", v, 10, 0, 1000000));
    } else if (flag == "--readers") {
      const char* v = next();
      if (v == nullptr) return false;
      options->readers =
          static_cast<int>(FlagInt64("--readers", v, 2, 1, 256));
    } else if (flag == "--verify-batch") {
      options->verify_batch = true;
    } else if (flag == "--tolerance") {
      const char* v = next();
      if (v == nullptr) return false;
      double parsed = 0.0;
      if (!ParseDouble(v, &parsed)) {
        std::fprintf(stderr,
                     "--tolerance: unparseable value '%s'; using 0.05\n", v);
        parsed = 0.05;
      } else if (parsed < 0.0 || parsed > 1.0) {
        double clamped = parsed < 0.0 ? 0.0 : 1.0;
        std::fprintf(stderr,
                     "--tolerance: value '%s' outside [0, 1]; clamped to "
                     "%.2f\n",
                     v, clamped);
        parsed = clamped;
      }
      options->tolerance = parsed;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

// Row `row` of the expanded facts table as grounded: an inferred fact's
// written-back marginal is its P= column, not a weight.
std::string GroundedFact(const KnowledgeBase& kb, const ExpansionResult& r,
                         int64_t row) {
  Fact fact = FactFromRow(r.t_pi->row(row));
  if (r.t_pi->row(row)[tpi::kI].i64() >= r.first_inferred_id) {
    fact.weight = std::nan("");
  }
  return kb.FactToString(fact);
}

std::string DescribeFact(const KnowledgeBase& kb, const ExpansionResult& r,
                         FactId id) {
  for (int64_t j = 0; j < r.t_pi->NumRows(); ++j) {
    if (r.t_pi->row(j)[tpi::kI].i64() == id) return GroundedFact(kb, r, j);
  }
  return "?";
}

// On-demand serving: publish the base KB as epoch 0, expand in a
// background writer thread that publishes a snapshot epoch per fixpoint
// iteration, and answer the --query list live against whatever epoch is
// newest. After expansion, --readers concurrent threads re-answer at one
// pinned epoch and must agree bit-for-bit; --verify-batch additionally
// cross-checks against full-KB grounding + inference at that same epoch.
int RunServe(const CliOptions& options, const KnowledgeBase& kb,
             RelationalKB* rkb, const GroundingOptions& grounding) {
  if (options.queries.empty()) {
    std::fprintf(stderr, "serve requires at least one --query 'rel(x, y)'\n");
    return 2;
  }
  std::vector<QueryPattern> patterns;
  for (const std::string& q : options.queries) {
    auto pattern = ParseQueryPattern(q);
    if (!pattern.ok()) {
      std::fprintf(stderr, "--query %s\n",
                   pattern.status().ToString().c_str());
      return 2;
    }
    patterns.push_back(*pattern);
  }

  ServeOptions serve;
  serve.grounding.max_depth = options.serve_depth;
  serve.grounding.max_atoms = options.serve_max_atoms;
  serve.top_k = options.topk;
  serve.inference.gibbs.sample_sweeps = options.sweeps;
  QueryServer server(&kb, rkb->next_fact_id, serve);
  if (auto epoch = server.PublishEpoch(*rkb); !epoch.ok()) {
    std::fprintf(stderr, "%s\n", epoch.status().ToString().c_str());
    return 1;
  }

  std::unique_ptr<FixpointGrounder> grounder;
  if (options.num_segments > 0) {
    grounder = std::make_unique<MppGrounder>(*rkb, options.num_segments,
                                             MppMode::kViews, grounding);
  } else {
    grounder = std::make_unique<Grounder>(rkb, grounding);
  }

  // Writer thread: one fixpoint iteration, gather (MPP), publish, repeat.
  // `writer_status` is only written before `done` flips and only read
  // after join — no lock needed.
  std::atomic<bool> done{false};
  Status writer_status;
  std::thread writer([&] {
    while (true) {
      Result<int64_t> added = grounder->GroundAtomsIteration();
      if (!added.ok()) {
        writer_status = added.status();
        break;
      }
      // The single-node grounder expands rkb->t_pi in place.
      rkb->t_pi = grounder->TPi();
      if (auto epoch = server.PublishEpoch(*rkb); !epoch.ok()) {
        writer_status = epoch.status();
        break;
      }
      if (*added == 0 || grounder->stats().iterations >= options.iterations) {
        break;
      }
    }
    done.store(true);
  });

  // Live serving while the writer expands: answer the query list once per
  // newly observed epoch.
  int64_t live_queries = 0;
  int64_t last_epoch = -2;
  while (!done.load()) {
    const int64_t epoch = server.current_epoch();
    if (epoch == last_epoch) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    last_epoch = epoch;
    for (const QueryPattern& pattern : patterns) {
      auto pin = server.PinNewest();
      if (pin.ok() && server.AnswerAt(pattern, *pin).ok()) ++live_queries;
    }
  }
  writer.join();
  if (!writer_status.ok()) {
    // Snapshot isolation makes a dead writer non-fatal: readers keep the
    // last published epoch. Report it and serve what we have.
    std::fprintf(stderr, "expansion stopped: %s\n",
                 writer_status.ToString().c_str());
  }

  auto pin = server.PinNewest();
  if (!pin.ok()) {
    std::fprintf(stderr, "%s\n", pin.status().ToString().c_str());
    return 1;
  }
  std::printf("serving at epoch %lld (%lld atoms); %lld live queries "
              "answered during expansion\n",
              static_cast<long long>(pin->epoch),
              static_cast<long long>(rkb->t_pi->NumRows()),
              static_cast<long long>(live_queries));

  // Concurrent readers at one pinned epoch must agree bit-for-bit.
  const int readers = options.readers;
  std::vector<std::vector<ServeAnswer>> per_reader(
      static_cast<size_t>(readers));
  std::vector<Status> reader_status(static_cast<size_t>(readers),
                                    Status::OK());
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(readers));
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      for (const QueryPattern& pattern : patterns) {
        auto answer = server.AnswerAt(pattern, *pin);
        if (!answer.ok()) {
          reader_status[static_cast<size_t>(r)] = answer.status();
          return;
        }
        per_reader[static_cast<size_t>(r)].push_back(std::move(*answer));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int r = 0; r < readers; ++r) {
    if (!reader_status[static_cast<size_t>(r)].ok()) {
      std::fprintf(stderr, "reader %d: %s\n", r,
                   reader_status[static_cast<size_t>(r)].ToString().c_str());
      return 1;
    }
  }
  bool identical = true;
  for (int r = 1; r < readers && identical; ++r) {
    const auto& a = per_reader[0];
    const auto& b = per_reader[static_cast<size_t>(r)];
    if (a.size() != b.size()) {
      identical = false;
      break;
    }
    for (size_t q = 0; q < a.size() && identical; ++q) {
      if (a[q].entries.size() != b[q].entries.size() ||
          a[q].grounded_atoms != b[q].grounded_atoms) {
        identical = false;
        break;
      }
      for (size_t e = 0; e < a[q].entries.size(); ++e) {
        if (a[q].entries[e].id != b[q].entries[e].id ||
            a[q].entries[e].probability != b[q].entries[e].probability) {
          identical = false;
          break;
        }
      }
    }
  }
  std::printf("readers: %d concurrent, %s\n", readers,
              identical ? "bit-identical" : "MISMATCH");
  if (!identical) return 1;

  for (size_t q = 0; q < patterns.size(); ++q) {
    std::printf("query '%s'\n%s", options.queries[q].c_str(),
                per_reader[0][q].ToString().c_str());
  }

  if (options.verify_batch) {
    Result<TablePtr> t_phi = grounder->GroundFactors();
    if (!t_phi.ok()) {
      std::fprintf(stderr, "%s\n", t_phi.status().ToString().c_str());
      return 1;
    }
    auto graph = FactorGraph::FromTables(*rkb->t_pi, **t_phi);
    if (!graph.ok()) {
      std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
      return 1;
    }
    std::vector<double> batch;
    if (graph->num_variables() <= 20) {
      auto exact = ExactMarginals(*graph, 20);
      if (!exact.ok()) {
        std::fprintf(stderr, "%s\n", exact.status().ToString().c_str());
        return 1;
      }
      batch = std::move(*exact);
    } else {
      GibbsOptions gibbs;
      gibbs.sample_sweeps = options.sweeps;
      gibbs.num_threads = options.num_threads;
      auto sampled = GibbsMarginals(*graph, gibbs);
      if (!sampled.ok()) {
        std::fprintf(stderr, "%s\n", sampled.status().ToString().c_str());
        return 1;
      }
      batch = std::move(sampled->marginals);
    }
    double max_diff = 0.0;
    int compared = 0;
    for (const std::vector<ServeAnswer>& answers : {per_reader[0]}) {
      for (const ServeAnswer& answer : answers) {
        for (const ServeAnswer::Entry& entry : answer.entries) {
          const int32_t v = graph->VariableOf(entry.id);
          if (v < 0) continue;
          const double diff = std::fabs(
              entry.probability - batch[static_cast<size_t>(v)]);
          if (diff > max_diff) max_diff = diff;
          ++compared;
        }
      }
    }
    const bool pass = max_diff <= options.tolerance;
    std::printf("serve-vs-batch: %d answers compared, max |delta| %.4f "
                "(tolerance %.4f) %s\n",
                compared, max_diff, options.tolerance,
                pass ? "PASS" : "FAIL");
    if (!pass) return 1;
  }

  if (options.stats) std::printf("%s", server.StatsText().c_str());
  if (!options.stats_json.empty()) {
    if (auto st = server.WriteStatsJson(options.stats_json); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", options.stats_json.c_str());
  }
  return writer_status.ok() ? 0 : ExitCodeFor(writer_status);
}

int Run(const CliOptions& options) {
  auto kb = ParseMlnFile(options.program_path);
  if (!kb.ok()) {
    std::fprintf(stderr, "%s\n", kb.status().ToString().c_str());
    return 1;
  }
  if (options.command == "stats") {
    std::printf("%s\n", kb->StatsString().c_str());
    return 0;
  }

  if (options.rule_theta < 1.0) {
    *kb->mutable_rules() = TopThetaRules(kb->rules(), options.rule_theta);
    std::printf("rule cleaning kept %zu rules\n", kb->rules().size());
  }

  GroundingOptions grounding;
  grounding.max_iterations = options.iterations;
  grounding.apply_constraints_each_iteration = options.constraints;
  grounding.deadline_seconds = options.deadline_seconds;
  grounding.max_rows_per_statement = options.max_rows;
  grounding.checkpoint_dir = options.checkpoint_dir;
  grounding.num_threads = options.num_threads;
  grounding.mem_budget_bytes = options.mem_budget;
  grounding.spill_dir = options.spill_dir;

  if (options.command == "serve") {
    RelationalKB rkb = BuildRelationalModel(*kb);
    return RunServe(options, *kb, &rkb, grounding);
  }

  // One registry per run collects operator/motion/partition stats; it is
  // only attached (and thus only fed) when some output was requested, so
  // the default path keeps its zero-instrumentation behavior.
  StatsRegistry registry;
  const bool want_stats = options.stats || !options.stats_json.empty();
  auto emit_stats = [&]() -> int {
    if (!want_stats) return 0;
    if (options.stats) std::printf("%s", registry.ToText().c_str());
    if (!options.stats_json.empty()) {
      if (auto st = registry.WriteJsonFile(options.stats_json); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s\n", options.stats_json.c_str());
    }
    return 0;
  };

  if (options.resume && options.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint DIR\n");
    return 2;
  }
  if (options.command == "explain" && options.fact_query.empty()) {
    std::fprintf(stderr, "explain requires --fact 'relation(x, y)'\n");
    return 2;
  }

  // The pipeline. Rules were cleaned above; Query 3 runs only inside the
  // fixpoint (--constraints).
  ExpansionOptions expansion;
  expansion.constraints_upfront = false;
  expansion.grounding = grounding;
  expansion.run_inference =
      options.command == "infer" && !options.map_inference;
  expansion.gibbs.sample_sweeps = options.sweeps;
  expansion.gibbs.num_threads = options.num_threads;
  expansion.use_mpp = options.num_segments > 0;
  expansion.mpp_segments = options.num_segments;
  expansion.resume_from_checkpoint = options.resume;
  if (want_stats) expansion.stats = &registry;
  Result<ExpansionResult> expanded = ExpandKnowledgeBase(*kb, expansion);
  if (!expanded.ok()) {
    std::fprintf(stderr, "%s\n", expanded.status().ToString().c_str());
    return ExitCodeFor(expanded.status());
  }
  const ExpansionResult& r = *expanded;

  // Budget failures degrade to a partial expansion: the counters say which
  // stage gave up, the dumps still happen, and the exit code tells callers
  // why the run stopped short.
  std::printf("grounded: %lld atoms, %lld factors, %d iterations%s\n",
              static_cast<long long>(r.t_pi->NumRows()),
              static_cast<long long>(r.t_phi->NumRows()),
              r.grounding_stats.iterations, r.partial ? " (partial)" : "");
  if (options.explain_plans) std::printf("%s", r.explain_plans.c_str());
  if (r.partial) {
    std::printf("partial expansion: %s\n", r.stop_reason.ToString().c_str());
    std::printf("stage failures: grounding %d, factor grounding %d\n",
                r.failures.grounding, r.failures.factor_grounding);
  }
  for (const auto& [path, table] :
       {std::pair{&options.tpi_out, r.t_pi},
        std::pair{&options.tphi_out, r.t_phi}}) {
    if (path->empty()) continue;
    if (auto st = WriteTableTsvFile(*table, *path); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", path->c_str());
  }
  if (r.partial) {
    emit_stats();
    return ExitCodeFor(r.stop_reason);
  }
  if (options.command == "ground") return emit_stats();

  const FactorGraph& graph = *r.graph;
  if (options.command == "explain") {
    for (int64_t i = 0; i < r.t_pi->NumRows(); ++i) {
      if (GroundedFact(*kb, r, i).find(options.fact_query) ==
          std::string::npos) {
        continue;
      }
      int32_t v = graph.VariableOf(r.t_pi->row(i)[tpi::kI].i64());
      std::printf("%s\n", graph
                              .ExplainLineage(v, 6,
                                              [&](FactId id) {
                                                return DescribeFact(*kb, r,
                                                                    id);
                                              })
                              .c_str());
      return emit_stats();
    }
    std::fprintf(stderr, "no fact matching '%s'\n",
                 options.fact_query.c_str());
    return 1;
  }

  if (options.map_inference) {
    auto map = IcmMap(graph);
    if (!map.ok()) {
      std::fprintf(stderr, "%s\n", map.status().ToString().c_str());
      return 1;
    }
    std::printf("MAP log-score %.3f\n", map->log_score);
    for (int64_t i = 0; i < r.t_pi->NumRows(); ++i) {
      int32_t v = graph.VariableOf(r.t_pi->row(i)[tpi::kI].i64());
      std::printf("  %d  %s\n", map->assignment[static_cast<size_t>(v)],
                  GroundedFact(*kb, r, i).c_str());
    }
    return emit_stats();
  }
  for (int64_t i = 0; i < r.t_pi->NumRows(); ++i) {
    int32_t v = graph.VariableOf(r.t_pi->row(i)[tpi::kI].i64());
    std::printf("  P=%.3f  %s\n",
                r.inference.marginals[static_cast<size_t>(v)],
                GroundedFact(*kb, r, i).c_str());
  }
  return emit_stats();
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) return Usage();
  if (options.command != "stats" && options.command != "ground" &&
      options.command != "infer" && options.command != "explain" &&
      options.command != "serve") {
    return Usage();
  }
  SetLogLevel(ResolveLogLevel(
      options.log_level.empty() ? nullptr : options.log_level.c_str()));
  if (auto st = ResolveJsonLogSink(
          options.log_json.empty() ? nullptr : options.log_json.c_str());
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  if (!CheckOutputPathCollisions(options)) return 2;
  if (!options.trace_jsonl.empty() || !options.trace_chrome.empty()) {
    Tracer::Global()->set_enabled(true);
  }

  const int code = Run(options);

  if (!options.trace_jsonl.empty()) {
    if (auto st = Tracer::Global()->WriteJsonl(options.trace_jsonl);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return code != 0 ? code : 1;
    }
    std::printf("wrote %s\n", options.trace_jsonl.c_str());
  }
  if (!options.trace_chrome.empty()) {
    if (auto st = Tracer::Global()->WriteChromeTrace(options.trace_chrome);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return code != 0 ? code : 1;
    }
    std::printf("wrote %s\n", options.trace_chrome.c_str());
  }

  // Post-mortem: the journal's last events go to stderr whenever the
  // pipeline exits non-OK (usage errors excluded — nothing ran), and to
  // --post_mortem FILE as JSON whenever one was requested.
  constexpr size_t kPostMortemEvents = 256;
  const Tracer* journal = Tracer::Global();
  if (code != 0 && code != 2) {
    std::fputs(journal->PostMortemText(kPostMortemEvents).c_str(), stderr);
  }
  if (!options.post_mortem.empty()) {
    if (auto st = journal->WritePostMortem(options.post_mortem,
                                           kPostMortemEvents);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return code != 0 ? code : 1;
    }
    std::printf("wrote %s\n", options.post_mortem.c_str());
  }
  return code;
}
