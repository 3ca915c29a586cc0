// Micro-benchmarks of the substrate operators (google-benchmark): the
// set-oriented primitives whose batch execution underlies the Section
// 4.3.1 analysis, plus the motion operators of the MPP simulator and a
// Gibbs sweep.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "engine/flat_hash.h"
#include "engine/ops.h"
#include "engine/plan.h"
#include "factor/factor_graph.h"
#include "grounding/grounder.h"
#include "datagen/synthetic_kb.h"
#include "infer/gibbs.h"
#include "mpp/mpp_context.h"
#include "util/random.h"

namespace probkb {
namespace {

Schema AB() {
  return Schema({{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64}});
}

TablePtr RandomTable(int64_t rows, int64_t domain, uint64_t seed) {
  Rng rng(seed);
  auto t = Table::Make(AB());
  t->ReserveRows(rows);
  for (int64_t i = 0; i < rows; ++i) {
    t->AppendRow({Value::Int64(rng.UniformInt(0, domain)),
                  Value::Int64(rng.UniformInt(0, domain))});
  }
  return t;
}

void BM_HashJoin(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto left = RandomTable(rows, rows / 4, 1);
  auto right = RandomTable(rows, rows / 4, 2);
  for (auto _ : state) {
    ExecContext ctx;
    auto plan = HashJoin(Scan(left), Scan(right), {0}, {0}, JoinType::kInner,
                         {JoinOutputCol::Left(1, "lb"),
                          JoinOutputCol::Right(1, "rb")});
    auto result = plan->Execute(&ctx);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * rows * 2);
}
BENCHMARK(BM_HashJoin)->Arg(1 << 12)->Arg(1 << 15);

// The grounding joins' shape: a small probe side whose rows each match
// about 50 build rows, so the cost is the output, not the probes. Items
// are output rows.
void BM_HashJoinFanout(benchmark::State& state) {
  const int64_t probe_rows = state.range(0);
  const int64_t keys = probe_rows / 8;
  auto left = RandomTable(probe_rows, keys - 1, 4);
  auto right = RandomTable(keys * 50, keys - 1, 5);
  int64_t out_rows = 0;
  for (auto _ : state) {
    ExecContext ctx;
    auto plan = HashJoin(Scan(left), Scan(right), {0}, {0}, JoinType::kInner,
                         {JoinOutputCol::Left(0, "a"),
                          JoinOutputCol::Left(1, "lb"),
                          JoinOutputCol::Right(1, "rb")});
    auto result = plan->Execute(&ctx);
    out_rows = (*result)->NumRows();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * out_rows);
}
BENCHMARK(BM_HashJoinFanout)->Arg(1 << 10)->Arg(1 << 13);

void BM_HashDistinct(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto t = RandomTable(rows, rows / 8, 3);
  for (auto _ : state) {
    ExecContext ctx;
    auto result = Distinct(Scan(t))->Execute(&ctx);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_HashDistinct)->Arg(1 << 12)->Arg(1 << 15);

void BM_HashAggregate(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto t = RandomTable(rows, 256, 4);
  for (auto _ : state) {
    ExecContext ctx;
    auto result = Aggregate(Scan(t), {0},
                            {{AggKind::kCount, 0, "cnt"},
                             {AggKind::kMax, 1, "max"}})
                      ->Execute(&ctx);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_HashAggregate)->Arg(1 << 12)->Arg(1 << 15);

// The factor-graph build over a grounded scale-0.01 KB (Query 3 up front,
// two Query 1 iterations): TPi/TPhi columns to the colored CSR. Items are
// TPhi rows, so items/s is factors compiled per second.
void BM_FactorGraphFromTables(benchmark::State& state) {
  SyntheticKbConfig config;
  config.scale = 0.01;
  auto skb = GenerateReverbSherlockKb(config);
  if (!skb.ok()) {
    state.SkipWithError("generator failed");
    return;
  }
  RelationalKB rkb = BuildRelationalModel(skb->kb);
  GroundingOptions options;
  options.max_iterations = 2;
  Grounder grounder(&rkb, options);
  if (!grounder.ApplyConstraints().ok() || !grounder.GroundAtoms().ok()) {
    state.SkipWithError("grounding failed");
    return;
  }
  auto phi = grounder.GroundFactors();
  if (!phi.ok()) {
    state.SkipWithError("grounding failed");
    return;
  }
  for (auto _ : state) {
    auto graph = FactorGraph::FromTables(*rkb.t_pi, **phi);
    benchmark::DoNotOptimize(graph);
  }
  state.SetItemsProcessed(state.iterations() * (*phi)->NumRows());
  state.counters["variables"] = static_cast<double>(rkb.t_pi->NumRows());
}
BENCHMARK(BM_FactorGraphFromTables);

// The Reserve() contract of FlatRowIndex: sizing from the input
// cardinality up front skips every mid-build rehash. The pair below
// measures exactly what the KeyIndex pre-reserve buys.
void BM_FlatIndexInsertReserved(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto t = RandomTable(rows, rows / 2, 9);
  std::vector<size_t> hashes(static_cast<size_t>(rows));
  const std::vector<int> cols = {0, 1};
  for (int64_t i = 0; i < rows; ++i) {
    hashes[static_cast<size_t>(i)] = HashRowKey(t->row(i), cols);
  }
  for (auto _ : state) {
    FlatRowIndex index;
    index.Reserve(rows);
    for (int64_t i = 0; i < rows; ++i) {
      index.Insert(hashes[static_cast<size_t>(i)], i);
    }
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_FlatIndexInsertReserved)->Arg(1 << 12)->Arg(1 << 15);

void BM_FlatIndexInsertUnreserved(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto t = RandomTable(rows, rows / 2, 9);
  std::vector<size_t> hashes(static_cast<size_t>(rows));
  const std::vector<int> cols = {0, 1};
  for (int64_t i = 0; i < rows; ++i) {
    hashes[static_cast<size_t>(i)] = HashRowKey(t->row(i), cols);
  }
  for (auto _ : state) {
    FlatRowIndex index;  // grows through every doubling
    for (int64_t i = 0; i < rows; ++i) {
      index.Insert(hashes[static_cast<size_t>(i)], i);
    }
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_FlatIndexInsertUnreserved)->Arg(1 << 12)->Arg(1 << 15);

// Scalar vs batched-prefetch probe over the same prebuilt index: the pair
// isolates what the DRAMHiT-style pipeline (hash a batch, prefetch every
// home slot, then resolve serially) buys on an index too large for cache.
// Matches per probe and output order are identical in both variants.
void BM_ScalarProbe(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const std::vector<int> cols = {0, 1};
  auto build = RandomTable(rows, rows / 4, 10);
  auto probe = RandomTable(rows, rows / 4, 11);
  FlatRowIndex index(rows);
  {
    std::vector<size_t> hashes(static_cast<size_t>(rows));
    build->HashRows(cols, 0, rows, hashes.data());
    for (int64_t i = 0; i < rows; ++i) {
      index.Insert(hashes[static_cast<size_t>(i)], i);
    }
  }
  for (auto _ : state) {
    int64_t matches = 0;
    for (int64_t i = 0; i < rows; ++i) {
      RowView row = probe->row(i);
      const size_t h = HashRowKey(row, cols);
      for (int64_t e = index.Head(h); e >= 0; e = index.Next(e)) {
        if (RowKeyEquals(build->row(index.Row(e)), row, cols, cols)) {
          ++matches;
        }
      }
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ScalarProbe)->Arg(1 << 15)->Arg(1 << 18);

void BM_BatchedPrefetchProbe(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const std::vector<int> cols = {0, 1};
  auto build = RandomTable(rows, rows / 4, 10);
  auto probe = RandomTable(rows, rows / 4, 11);
  FlatRowIndex index(rows);
  {
    std::vector<size_t> hashes(static_cast<size_t>(rows));
    build->HashRows(cols, 0, rows, hashes.data());
    for (int64_t i = 0; i < rows; ++i) {
      index.Insert(hashes[static_cast<size_t>(i)], i);
    }
  }
  constexpr int64_t kBatch = 32;
  size_t hashes[kBatch];
  for (auto _ : state) {
    int64_t matches = 0;
    for (int64_t base = 0; base < rows; base += kBatch) {
      const int64_t end = std::min(base + kBatch, rows);
      probe->HashRows(cols, base, end, hashes);
      for (int64_t i = base; i < end; ++i) {
        index.PrefetchHash(hashes[i - base]);
      }
      for (int64_t i = base; i < end; ++i) {
        const size_t h = hashes[i - base];
        RowView row = probe->row(i);
        for (int64_t e = index.Head(h); e >= 0; e = index.Next(e)) {
          if (RowKeyEquals(build->row(index.Row(e)), row, cols, cols)) {
            ++matches;
          }
        }
      }
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_BatchedPrefetchProbe)->Arg(1 << 15)->Arg(1 << 18);

// Row-major vs columnar scan of the same table: the RowView facade
// materializes a Value per cell, the columnar loop reads the contiguous
// int64 array directly — the difference is the tax every batch loop in the
// engine stopped paying when Table went columnar.
void BM_ScanRowMajor(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto t = RandomTable(rows, rows, 12);
  for (auto _ : state) {
    int64_t sum = 0;
    for (int64_t i = 0; i < rows; ++i) {
      RowView row = t->row(i);
      sum += row[0].i64() + row[1].i64();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * rows * 2);
}
BENCHMARK(BM_ScanRowMajor)->Arg(1 << 15)->Arg(1 << 18);

void BM_ScanColumnar(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto t = RandomTable(rows, rows, 12);
  for (auto _ : state) {
    int64_t sum = 0;
    const int64_t* a = t->Int64Data(0);
    const int64_t* b = t->Int64Data(1);
    for (int64_t i = 0; i < rows; ++i) sum += a[i] + b[i];
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * rows * 2);
}
BENCHMARK(BM_ScanColumnar)->Arg(1 << 15)->Arg(1 << 18);

void BM_RedistributeMotion(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto local = RandomTable(rows, rows, 7);
  auto dist = DistributedTable::Distribute(*local, 32,
                                           Distribution::Random());
  for (auto _ : state) {
    MppContext ctx(32);
    auto result = ctx.Redistribute(*dist, {0});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
// 16 rows leave most (sender, target) pairs empty, as the tail
// iterations' small statements do; 1 << 8 is a tail-iteration Δ; 1 << 14
// a full-pass intermediate.
BENCHMARK(BM_RedistributeMotion)->Arg(16)->Arg(1 << 8)->Arg(1 << 14);

// Placement of a local table on 32 segments: the view builds of every
// MppGrounder (hash) and the rule tables (round-robin). Arguments: rows,
// hash (1) or round-robin (0).
void BM_DistributeTable(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto local = RandomTable(rows, rows, 9);
  const Distribution dist = state.range(1) != 0 ? Distribution::Hash({0, 1})
                                                : Distribution::Random();
  for (auto _ : state) {
    auto result = DistributedTable::Distribute(*local, 32, dist);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_DistributeTable)->Args({1 << 16, 1})->Args({1 << 16, 0});

void BM_BroadcastMotion(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto local = RandomTable(rows, rows, 8);
  auto dist = DistributedTable::Distribute(*local, 32,
                                           Distribution::Random());
  for (auto _ : state) {
    MppContext ctx(32);
    auto result = ctx.Broadcast(*dist);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_BroadcastMotion)->Arg(1 << 14);

void BM_GroundAtomsIteration(benchmark::State& state) {
  SyntheticKbConfig config;
  config.scale = 0.01;
  auto skb = GenerateReverbSherlockKb(config);
  if (!skb.ok()) {
    state.SkipWithError("generator failed");
    return;
  }
  for (auto _ : state) {
    RelationalKB rkb = BuildRelationalModel(skb->kb);
    GroundingOptions options;
    options.max_iterations = 1;
    Grounder grounder(&rkb, options);
    auto added = grounder.GroundAtomsIteration();
    benchmark::DoNotOptimize(added);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(skb->kb.facts().size()));
}
BENCHMARK(BM_GroundAtomsIteration);

/// The factor graph of a scale-0.02 KB after two grounding iterations,
/// built once: its largest color gives four threads work each.
const FactorGraph* GibbsBenchGraph() {
  static const std::unique_ptr<FactorGraph> graph =
      []() -> std::unique_ptr<FactorGraph> {
    SyntheticKbConfig config;
    config.scale = 0.02;
    auto skb = GenerateReverbSherlockKb(config);
    if (!skb.ok()) return nullptr;
    RelationalKB rkb = BuildRelationalModel(skb->kb);
    GroundingOptions options;
    options.max_iterations = 2;
    Grounder grounder(&rkb, options);
    if (!grounder.GroundAtoms().ok()) return nullptr;
    auto phi = grounder.GroundFactors();
    if (!phi.ok()) return nullptr;
    auto built = FactorGraph::FromTables(*rkb.t_pi, **phi);
    if (!built.ok()) return nullptr;
    return std::make_unique<FactorGraph>(std::move(*built));
  }();
  return graph.get();
}

/// `sweeps` sweeps per GibbsMarginals call on GibbsBenchGraph(), at
/// state.range(0) threads; items are variable updates, the solved
/// variables included: exact_share is their share, so the sampled
/// updates/s are items/s x (1 - exact_share).
void RunGibbs(benchmark::State& state, int sweeps) {
  const FactorGraph* graph = GibbsBenchGraph();
  if (graph == nullptr) {
    state.SkipWithError("building the graph failed");
    return;
  }
  int threads = 0;
  int exact = 0;
  for (auto _ : state) {
    GibbsOptions gibbs;
    gibbs.burn_in_sweeps = 0;
    gibbs.sample_sweeps = sweeps;
    gibbs.num_threads = static_cast<int>(state.range(0));
    auto result = GibbsMarginals(*graph, gibbs);
    if (result.ok()) {
      threads = result->threads;
      exact = result->exact_variables;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * sweeps *
                          graph->num_variables());
  state.counters["threads"] = threads;
  state.counters["variables"] = graph->num_variables();
  state.counters["exact_share"] =
      static_cast<double>(exact) / std::max(1, graph->num_variables());
}

// Argument: GibbsOptions::num_threads. 50 sweeps per call: items/s is
// the sampler's updates/s, the per-call set-up that BM_GibbsOneSweep
// isolates included.
void BM_GibbsSweep(benchmark::State& state) { RunGibbs(state, 50); }
BENCHMARK(BM_GibbsSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Argument: GibbsOptions::num_threads. One sweep per call, so the time
// per call is mostly the per-call set-up: the exact component solve,
// the conditional tables (filled by the team), the cuts and the team.
void BM_GibbsOneSweep(benchmark::State& state) { RunGibbs(state, 1); }
BENCHMARK(BM_GibbsOneSweep)->Arg(1)->Arg(4)->UseRealTime();

}  // namespace
}  // namespace probkb

BENCHMARK_MAIN();
