#include "obs/stats_registry.h"

#include <fstream>

#include "util/strings.h"

namespace probkb {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

double SkewOf(const std::vector<int64_t>& per_segment) {
  if (per_segment.empty()) return 0.0;
  int64_t max = 0;
  int64_t sum = 0;
  for (int64_t v : per_segment) {
    if (v > max) max = v;
    sum += v;
  }
  if (sum == 0) return 0.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(per_segment.size());
  return static_cast<double>(max) / mean;
}

}  // namespace

void StatsRegistry::RecordOp(const std::string& scope, const OpRecord& op) {
  auto [it, inserted] = statement_index_.emplace(scope, statements_.size());
  if (inserted) {
    statements_.push_back({scope, {}});
  }
  statements_[it->second].ops.push_back(op);

  auto [tot_it, tot_inserted] = op_index_.emplace(op.label, op_totals_.size());
  if (tot_inserted) {
    OpTotals t;
    t.label = op.label;
    op_totals_.push_back(std::move(t));
  }
  OpTotals& t = op_totals_[tot_it->second];
  ++t.invocations;
  t.rows_in += op.rows_in;
  t.rows_out += op.rows_out;
  t.seconds += op.seconds;
  t.build_seconds += op.build_seconds;
  t.probe_seconds += op.probe_seconds;
  t.rehashes += op.rehashes;
  if (op.build_partitions > t.max_build_partitions) {
    t.max_build_partitions = op.build_partitions;
  }

  if (op.build_seconds > 0) {
    RecordLatency("join_build", op.build_seconds);
  }
  if (op.probe_seconds > 0) {
    RecordLatency("join_probe", op.probe_seconds);
  }
}

void StatsRegistry::RecordPartitionIteration(int iteration, int partition,
                                             int64_t delta_rows,
                                             double join_seconds) {
  const int64_t key =
      static_cast<int64_t>(iteration) * 64 + static_cast<int64_t>(partition);
  auto [it, inserted] =
      partition_index_.emplace(key, partition_iterations_.size());
  if (inserted) {
    PartitionIterStats cell;
    cell.iteration = iteration;
    cell.partition = partition;
    partition_iterations_.push_back(cell);
  }
  PartitionIterStats& cell = partition_iterations_[it->second];
  cell.delta_rows += delta_rows;
  cell.join_seconds += join_seconds;
  ++cell.statements;
}

void StatsRegistry::RecordMotion(const std::string& label,
                                 const std::string& kind,
                                 int64_t tuples_shipped, int64_t bytes_shipped,
                                 double seconds,
                                 const std::vector<int64_t>& per_segment_rows) {
  const std::string key = kind + "/" + label;
  auto [it, inserted] = motion_index_.emplace(key, motion_totals_.size());
  if (inserted) {
    MotionTotals t;
    t.label = label;
    t.kind = kind;
    motion_totals_.push_back(std::move(t));
  }
  MotionTotals& t = motion_totals_[it->second];
  ++t.count;
  t.tuples_shipped += tuples_shipped;
  t.bytes_shipped += bytes_shipped;
  t.seconds += seconds;
  const double skew = SkewOf(per_segment_rows);
  if (skew > t.max_skew) t.max_skew = skew;
  for (int64_t v : per_segment_rows) {
    if (v > t.max_segment_tuples) t.max_segment_tuples = v;
  }
  RecordLatency("motion_ship", seconds);
}

void StatsRegistry::RecordCompute(const std::string& label,
                                  double max_seconds,
                                  double total_work_seconds,
                                  int num_segments) {
  auto [it, inserted] = compute_index_.emplace(label, compute_totals_.size());
  if (inserted) {
    ComputeTotals t;
    t.label = label;
    compute_totals_.push_back(std::move(t));
  }
  ComputeTotals& t = compute_totals_[it->second];
  ++t.count;
  t.seconds += max_seconds;
  t.total_work_seconds += total_work_seconds;
  if (num_segments > 0 && total_work_seconds > 0) {
    const double mean = total_work_seconds / num_segments;
    const double skew = mean > 0 ? max_seconds / mean : 0.0;
    if (skew > t.max_skew) t.max_skew = skew;
  }
}

void StatsRegistry::RecordWorkers(const std::vector<WorkerTotals>& workers) {
  workers_ = workers;
}

void StatsRegistry::RecordGibbsChain(int chain, int64_t sweeps,
                                     int64_t num_variables, double seconds) {
  GibbsChainStats s;
  s.chain = chain;
  s.sweeps = sweeps;
  s.seconds = seconds;
  s.samples_per_sec =
      seconds > 0 ? static_cast<double>(sweeps) *
                        static_cast<double>(num_variables) / seconds
                  : 0.0;
  gibbs_chains_.push_back(s);
}

void StatsRegistry::RecordLatency(const std::string& name, double seconds,
                                  uint64_t exemplar_trace) {
  auto [it, inserted] = latency_index_.emplace(name, latencies_.size());
  if (inserted) {
    latencies_.emplace_back(name, LatencyHistogram());
  }
  latencies_[it->second].second.Record(seconds, exemplar_trace);
}

const LatencyHistogram* StatsRegistry::FindLatency(
    const std::string& name) const {
  auto it = latency_index_.find(name);
  return it == latency_index_.end() ? nullptr
                                    : &latencies_[it->second].second;
}

void StatsRegistry::IncrementCounter(const std::string& name,
                                     int64_t delta) {
  auto [it, inserted] = counter_index_.emplace(name, counters_.size());
  if (inserted) {
    counters_.emplace_back(name, 0);
  }
  counters_[it->second].second += delta;
}

int64_t StatsRegistry::FindCounter(const std::string& name) const {
  auto it = counter_index_.find(name);
  return it == counter_index_.end() ? -1 : counters_[it->second].second;
}

std::string StatsRegistry::ToText() const {
  std::string out = "=== execution statistics ===\n";

  if (!op_totals_.empty()) {
    out += "operators (aggregated over all statements):\n";
    out += StrFormat("  %-34s %5s %12s %12s %10s %9s %9s %4s\n", "operator",
                     "calls", "rows_in", "rows_out", "seconds", "build",
                     "probe", "reh");
    for (const OpTotals& t : op_totals_) {
      out += StrFormat(
          "  %-34s %5lld %12lld %12lld %10.4f %9.4f %9.4f %4lld\n",
          t.label.c_str(), static_cast<long long>(t.invocations),
          static_cast<long long>(t.rows_in),
          static_cast<long long>(t.rows_out), t.seconds, t.build_seconds,
          t.probe_seconds, static_cast<long long>(t.rehashes));
    }
  }

  if (!partition_iterations_.empty()) {
    out += "fixpoint partitions (delta rows / join seconds):\n";
    for (const PartitionIterStats& c : partition_iterations_) {
      out += StrFormat("  iter %-3d M%d  +%-10lld %8.4fs\n", c.iteration,
                       c.partition, static_cast<long long>(c.delta_rows),
                       c.join_seconds);
    }
  }

  if (!motion_totals_.empty()) {
    out += "motions:\n";
    for (const MotionTotals& t : motion_totals_) {
      out += StrFormat(
          "  %-12s %-28s x%-4lld %12lld tuples %12lld bytes %8.4fs"
          " skew %.2f\n",
          t.kind.c_str(), t.label.c_str(), static_cast<long long>(t.count),
          static_cast<long long>(t.tuples_shipped),
          static_cast<long long>(t.bytes_shipped), t.seconds, t.max_skew);
    }
  }

  if (!compute_totals_.empty()) {
    out += "segment compute phases:\n";
    for (const ComputeTotals& t : compute_totals_) {
      out += StrFormat(
          "  %-40s x%-4lld %8.4fs elapsed %8.4fs work  skew %.2f\n",
          t.label.c_str(), static_cast<long long>(t.count), t.seconds,
          t.total_work_seconds, t.max_skew);
    }
  }

  if (!workers_.empty()) {
    out += "pool workers:\n";
    for (const WorkerTotals& w : workers_) {
      out += StrFormat(
          "  worker %-3d %8lld tasks %6lld steals %8.3fs busy %8.3fs idle\n",
          w.worker, static_cast<long long>(w.tasks_run),
          static_cast<long long>(w.steals), w.busy_seconds, w.idle_seconds);
    }
  }

  if (!gibbs_chains_.empty()) {
    out += "gibbs chains:\n";
    for (const GibbsChainStats& c : gibbs_chains_) {
      out += StrFormat(
          "  chain %-3d %10lld samples %8.3fs  %12.0f samples/s\n", c.chain,
          static_cast<long long>(c.sweeps), c.seconds, c.samples_per_sec);
    }
  }

  if (!latencies_.empty()) {
    out += "latency histograms:\n";
    out += StrFormat("  %-22s %10s %10s %10s %10s %10s %10s\n", "series",
                     "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
                     "max_ms");
    for (const auto& [name, hist] : latencies_) {
      const double mean_ms =
          hist.count() > 0
              ? hist.sum_seconds() / static_cast<double>(hist.count()) * 1e3
              : 0.0;
      out += StrFormat(
          "  %-22s %10lld %10.3f %10.3f %10.3f %10.3f %10.3f", name.c_str(),
          static_cast<long long>(hist.count()), mean_ms,
          hist.Percentile(50) * 1e3, hist.Percentile(95) * 1e3,
          hist.Percentile(99) * 1e3, hist.max_seconds() * 1e3);
      if (hist.tail_exemplar() != 0) {
        out += StrFormat("  trace=%016llx",
                         static_cast<unsigned long long>(
                             hist.tail_exemplar()));
      }
      out += '\n';
    }
  }

  if (!counters_.empty()) {
    out += "counters:\n";
    for (const auto& [name, value] : counters_) {
      out += StrFormat("  %-22s %lld\n", name.c_str(),
                       static_cast<long long>(value));
    }
  }

  if (!statements_.empty()) {
    out += "statement plans (EXPLAIN ANALYZE):\n";
    for (const StatementTrace& st : statements_) {
      out += "  [" + st.scope + "]\n";
      // Records are post-order with child counts; rebuild the tree and
      // print it parent-first. `subtree[i]` is the rendered text of the
      // subtree rooted at record i, built bottom-up over a stack.
      std::vector<std::string> stack;
      for (const OpRecord& op : st.ops) {
        std::string node = StrFormat(
            "%s  rows_in=%lld rows_out=%lld %.3fms", op.label.c_str(),
            static_cast<long long>(op.rows_in),
            static_cast<long long>(op.rows_out), op.seconds * 1e3);
        if (op.build_seconds > 0 || op.probe_seconds > 0 || op.rehashes > 0) {
          node += StrFormat(" (build %.3fms, probe %.3fms, rehashes %lld)",
                            op.build_seconds * 1e3, op.probe_seconds * 1e3,
                            static_cast<long long>(op.rehashes));
        }
        if (op.build_partitions > 1) {
          node += StrFormat(" [build x%d]", op.build_partitions);
        }
        node += "\n";
        int children = op.num_children;
        if (children > static_cast<int>(stack.size())) {
          children = static_cast<int>(stack.size());  // malformed; clamp
        }
        std::string rendered = node;
        for (size_t k = stack.size() - static_cast<size_t>(children);
             k < stack.size(); ++k) {
          // Indent the child subtree by two spaces per line.
          const std::string& sub = stack[k];
          size_t pos = 0;
          while (pos < sub.size()) {
            size_t eol = sub.find('\n', pos);
            if (eol == std::string::npos) eol = sub.size();
            rendered += "  " + sub.substr(pos, eol - pos) + "\n";
            pos = eol + 1;
          }
        }
        stack.resize(stack.size() - static_cast<size_t>(children));
        stack.push_back(std::move(rendered));
      }
      for (const std::string& root : stack) {
        size_t pos = 0;
        while (pos < root.size()) {
          size_t eol = root.find('\n', pos);
          if (eol == std::string::npos) eol = root.size();
          out += "    " + root.substr(pos, eol - pos) + "\n";
          pos = eol + 1;
        }
      }
    }
  }
  return out;
}

std::string StatsRegistry::ToJson() const {
  std::string out = "{\n  \"statements\": [";
  for (size_t i = 0; i < statements_.size(); ++i) {
    const StatementTrace& st = statements_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"scope\": \"" + JsonEscape(st.scope) + "\", \"ops\": [";
    for (size_t j = 0; j < st.ops.size(); ++j) {
      const OpRecord& op = st.ops[j];
      out += j == 0 ? "\n" : ",\n";
      out += StrFormat(
          "      {\"label\": \"%s\", \"rows_in\": %lld, \"rows_out\": %lld,"
          " \"seconds\": %.6f, \"build_seconds\": %.6f,"
          " \"probe_seconds\": %.6f, \"rehashes\": %lld,"
          " \"build_partitions\": %d, \"num_children\": %d}",
          JsonEscape(op.label).c_str(), static_cast<long long>(op.rows_in),
          static_cast<long long>(op.rows_out), op.seconds, op.build_seconds,
          op.probe_seconds, static_cast<long long>(op.rehashes),
          op.build_partitions, op.num_children);
    }
    out += st.ops.empty() ? "]}" : "\n    ]}";
  }
  out += statements_.empty() ? "],\n" : "\n  ],\n";

  out += "  \"operators\": [";
  for (size_t i = 0; i < op_totals_.size(); ++i) {
    const OpTotals& t = op_totals_[i];
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat(
        "    {\"label\": \"%s\", \"invocations\": %lld, \"rows_in\": %lld,"
        " \"rows_out\": %lld, \"seconds\": %.6f, \"build_seconds\": %.6f,"
        " \"probe_seconds\": %.6f, \"rehashes\": %lld,"
        " \"max_build_partitions\": %d}",
        JsonEscape(t.label).c_str(), static_cast<long long>(t.invocations),
        static_cast<long long>(t.rows_in), static_cast<long long>(t.rows_out),
        t.seconds, t.build_seconds, t.probe_seconds,
        static_cast<long long>(t.rehashes), t.max_build_partitions);
  }
  out += op_totals_.empty() ? "],\n" : "\n  ],\n";

  out += "  \"partitions\": [";
  for (size_t i = 0; i < partition_iterations_.size(); ++i) {
    const PartitionIterStats& c = partition_iterations_[i];
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat(
        "    {\"iteration\": %d, \"partition\": %d, \"delta_rows\": %lld,"
        " \"join_seconds\": %.6f, \"statements\": %lld}",
        c.iteration, c.partition, static_cast<long long>(c.delta_rows),
        c.join_seconds, static_cast<long long>(c.statements));
  }
  out += partition_iterations_.empty() ? "],\n" : "\n  ],\n";

  out += "  \"motions\": [";
  for (size_t i = 0; i < motion_totals_.size(); ++i) {
    const MotionTotals& t = motion_totals_[i];
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat(
        "    {\"label\": \"%s\", \"kind\": \"%s\", \"count\": %lld,"
        " \"tuples_shipped\": %lld, \"bytes_shipped\": %lld,"
        " \"seconds\": %.6f, \"max_skew\": %.4f,"
        " \"max_segment_tuples\": %lld}",
        JsonEscape(t.label).c_str(), JsonEscape(t.kind).c_str(),
        static_cast<long long>(t.count),
        static_cast<long long>(t.tuples_shipped),
        static_cast<long long>(t.bytes_shipped), t.seconds, t.max_skew,
        static_cast<long long>(t.max_segment_tuples));
  }
  out += motion_totals_.empty() ? "],\n" : "\n  ],\n";

  out += "  \"compute\": [";
  for (size_t i = 0; i < compute_totals_.size(); ++i) {
    const ComputeTotals& t = compute_totals_[i];
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat(
        "    {\"label\": \"%s\", \"count\": %lld, \"seconds\": %.6f,"
        " \"total_work_seconds\": %.6f, \"max_skew\": %.4f}",
        JsonEscape(t.label).c_str(), static_cast<long long>(t.count),
        t.seconds, t.total_work_seconds, t.max_skew);
  }
  out += compute_totals_.empty() ? "],\n" : "\n  ],\n";

  out += "  \"workers\": [";
  for (size_t i = 0; i < workers_.size(); ++i) {
    const WorkerTotals& w = workers_[i];
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat(
        "    {\"worker\": %d, \"tasks_run\": %lld, \"steals\": %lld,"
        " \"busy_seconds\": %.6f, \"idle_seconds\": %.6f}",
        w.worker, static_cast<long long>(w.tasks_run),
        static_cast<long long>(w.steals), w.busy_seconds, w.idle_seconds);
  }
  out += workers_.empty() ? "],\n" : "\n  ],\n";

  out += "  \"gibbs_chains\": [";
  for (size_t i = 0; i < gibbs_chains_.size(); ++i) {
    const GibbsChainStats& c = gibbs_chains_[i];
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat(
        "    {\"chain\": %d, \"sweeps\": %lld, \"seconds\": %.6f,"
        " \"samples_per_sec\": %.2f}",
        c.chain, static_cast<long long>(c.sweeps), c.seconds,
        c.samples_per_sec);
  }
  out += gibbs_chains_.empty() ? "],\n" : "\n  ],\n";

  out += "  \"latencies\": [";
  for (size_t i = 0; i < latencies_.size(); ++i) {
    const auto& [name, hist] = latencies_[i];
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat(
        "    {\"name\": \"%s\", \"count\": %lld, \"sum_seconds\": %.6f,"
        " \"p50_s\": %.6f, \"p95_s\": %.6f, \"p99_s\": %.6f,"
        " \"max_s\": %.6f, \"tail_exemplar\": \"%016llx\"}",
        JsonEscape(name).c_str(), static_cast<long long>(hist.count()),
        hist.sum_seconds(), hist.Percentile(50), hist.Percentile(95),
        hist.Percentile(99), hist.max_seconds(),
        static_cast<unsigned long long>(hist.tail_exemplar()));
  }
  out += latencies_.empty() ? "],\n" : "\n  ],\n";

  out += "  \"counters\": [";
  for (size_t i = 0; i < counters_.size(); ++i) {
    const auto& [name, value] = counters_[i];
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat("    {\"name\": \"%s\", \"value\": %lld}",
                     JsonEscape(name).c_str(),
                     static_cast<long long>(value));
  }
  out += counters_.empty() ? "]\n" : "\n  ]\n";

  out += "}\n";
  return out;
}

Status StatsRegistry::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open stats file '" + path + "' for write");
  }
  out << ToJson();
  if (!out.good()) return Status::IOError("stats write to '" + path +
                                          "' failed");
  return Status::OK();
}

}  // namespace probkb
