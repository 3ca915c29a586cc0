// Micro-benchmarks of the substrate operators (google-benchmark): the
// set-oriented primitives whose batch execution underlies the Section
// 4.3.1 analysis, plus the motion operators of the MPP simulator and a
// Gibbs sweep.

#include <benchmark/benchmark.h>

#include <algorithm>
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

void BM_SetUnionInto(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto src = RandomTable(rows, rows / 2, 5);
  for (auto _ : state) {
    state.PauseTiming();
    auto dst = RandomTable(rows, rows / 2, 6);
    state.ResumeTiming();
    int64_t added = SetUnionInto(dst.get(), *src, {0, 1});
    benchmark::DoNotOptimize(added);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_SetUnionInto)->Arg(1 << 12)->Arg(1 << 15);

// The Reserve() contract of FlatRowIndex: sizing from the input
// cardinality up front skips every mid-build rehash. The pair below
// measures exactly what the SetUnionInto / KeyIndex pre-reserve fix buys.
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
BENCHMARK(BM_RedistributeMotion)->Arg(1 << 14);

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

// Argument: GibbsOptions::num_threads. The KB is large enough (scale
// 0.02) that its largest color gives four threads work each.
void BM_GibbsSweep(benchmark::State& state) {
  SyntheticKbConfig config;
  config.scale = 0.02;
  auto skb = GenerateReverbSherlockKb(config);
  if (!skb.ok()) {
    state.SkipWithError("generator failed");
    return;
  }
  RelationalKB rkb = BuildRelationalModel(skb->kb);
  GroundingOptions options;
  options.max_iterations = 2;
  Grounder grounder(&rkb, options);
  if (!grounder.GroundAtoms().ok()) {
    state.SkipWithError("grounding failed");
    return;
  }
  auto phi = grounder.GroundFactors();
  auto graph = FactorGraph::FromTables(*rkb.t_pi, **phi);
  // Enough sweeps per call that the kernel, not per-call set-up, dominates;
  // items are variable updates, so items/s is the kernel's updates/s.
  constexpr int kSweeps = 50;
  int threads = 0;
  for (auto _ : state) {
    GibbsOptions gibbs;
    gibbs.burn_in_sweeps = 0;
    gibbs.sample_sweeps = kSweeps;
    gibbs.num_threads = static_cast<int>(state.range(0));
    auto result = GibbsMarginals(*graph, gibbs);
    if (result.ok()) threads = result->threads;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * kSweeps *
                          graph->num_variables());
  state.counters["threads"] = threads;
  state.counters["variables"] = graph->num_variables();
}
BENCHMARK(BM_GibbsSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace
}  // namespace probkb

BENCHMARK_MAIN();
