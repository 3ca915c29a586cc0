// Parallel-vs-serial equivalence: the threaded engine must reproduce the
// serial engine bit-for-bit — same rows in the same order, same fact ids,
// same fault schedule — at every thread count. Plus unit coverage for the
// ThreadPool and FlatRowIndex primitives underneath.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "datagen/synthetic_kb.h"
#include "engine/exec_context.h"
#include "engine/flat_hash.h"
#include "engine/ops.h"
#include "engine/plan.h"
#include "fault/fault_injector.h"
#include "grounding/grounder.h"
#include "grounding/mpp_grounder.h"
#include "obs/stats_registry.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace probkb {
namespace {

constexpr int kSegments = 4;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/probkb_parallel_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// --- ThreadPool ----------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr int64_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, 64, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, PoolOfOneRunsInlineWithNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const auto caller = std::this_thread::get_id();
  int64_t sum = 0;
  pool.ParallelFor(100, 7, [&](int64_t begin, int64_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    for (int64_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(8, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      pool.ParallelFor(100, 10, [&](int64_t b, int64_t e) {
        total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 100);
}

TEST(ThreadPoolTest, ZeroAndNegativeIterationCountsAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, 1, [&](int64_t, int64_t) { ++calls; });
  pool.ParallelFor(-5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ResolveThreadsPrecedence) {
  EXPECT_EQ(ThreadPool::ResolveThreads(3), 3);
  setenv("PROBKB_THREADS", "5", 1);
  EXPECT_EQ(ThreadPool::ResolveThreads(0), 5);
  EXPECT_EQ(ThreadPool::ResolveThreads(2), 2);  // explicit beats env
  unsetenv("PROBKB_THREADS");
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1);  // hardware fallback
}

TEST(ThreadPoolTest, ResolveThreadsRejectsGarbageEnvValues) {
  const int hardware = [] {
    unsetenv("PROBKB_THREADS");
    return ThreadPool::ResolveThreads(0);
  }();
  // Non-numeric, empty, trailing-junk, negative, and zero values must all
  // fall back to the hardware count instead of crashing or going absurd.
  for (const char* garbage :
       {"abc", "", "  ", "4x", "1e9", "-3", "0", "2 4", "0x10"}) {
    setenv("PROBKB_THREADS", garbage, 1);
    EXPECT_EQ(ThreadPool::ResolveThreads(0), hardware)
        << "PROBKB_THREADS='" << garbage << "'";
  }
  // Surrounding whitespace around a sane value is tolerated.
  setenv("PROBKB_THREADS", "  6  ", 1);
  EXPECT_EQ(ThreadPool::ResolveThreads(0), 6);
  // Absurdly large values clamp to the documented ceiling.
  setenv("PROBKB_THREADS", "999999", 1);
  EXPECT_EQ(ThreadPool::ResolveThreads(0), ThreadPool::kMaxEnvThreads);
  // An explicit request still beats even a garbage env value.
  setenv("PROBKB_THREADS", "abc", 1);
  EXPECT_EQ(ThreadPool::ResolveThreads(7), 7);
  unsetenv("PROBKB_THREADS");
}

TEST(ThreadPoolTest, WorkerStatsCountTasks) {
  ThreadPool pool(4);
  pool.ParallelFor(1000, 10, [](int64_t, int64_t) {});
  const std::vector<PoolWorkerStats> stats = pool.WorkerStats();
  ASSERT_EQ(stats.size(), 3u);  // workers only; the caller is the 4th lane
  int64_t tasks = 0;
  for (const PoolWorkerStats& w : stats) {
    EXPECT_GE(w.tasks_run, 0);
    EXPECT_GE(w.steals, 0);
    EXPECT_GE(w.busy_seconds, 0.0);
    EXPECT_GE(w.idle_seconds, 0.0);
    tasks += w.tasks_run;
  }
  // ParallelFor submits one drainer helper per worker; by snapshot time
  // each worker has run at most its share of them.
  EXPECT_LE(tasks, 3);

  ThreadPool serial(1);
  serial.ParallelFor(100, 10, [](int64_t, int64_t) {});
  EXPECT_TRUE(serial.WorkerStats().empty());
}

// --- FlatRowIndex --------------------------------------------------------------

TEST(FlatRowIndexTest, ChainsPreserveInsertionOrder) {
  FlatRowIndex index;
  index.Insert(42, 7);
  index.Insert(99, 1);
  index.Insert(42, 3);
  index.Insert(42, 11);
  std::vector<int64_t> chain;
  for (int64_t e = index.Head(42); e >= 0; e = index.Next(e)) {
    chain.push_back(index.Row(e));
  }
  EXPECT_EQ(chain, (std::vector<int64_t>{7, 3, 11}));
  EXPECT_EQ(index.Head(1234), -1);
  EXPECT_EQ(index.size(), 4);
}

TEST(FlatRowIndexTest, CollidingHashesProbeToDistinctSlots) {
  FlatRowIndex index;
  // Hashes equal mod any power-of-two slot count collide on the home slot;
  // linear probing must still keep their chains separate.
  const size_t a = 16, b = 32, c = 48;
  index.Insert(a, 1);
  index.Insert(b, 2);
  index.Insert(c, 3);
  index.Insert(a, 4);
  std::vector<int64_t> chain_a;
  for (int64_t e = index.Head(a); e >= 0; e = index.Next(e)) {
    chain_a.push_back(index.Row(e));
  }
  EXPECT_EQ(chain_a, (std::vector<int64_t>{1, 4}));
  ASSERT_GE(index.Head(b), 0);
  EXPECT_EQ(index.Row(index.Head(b)), 2);
  ASSERT_GE(index.Head(c), 0);
  EXPECT_EQ(index.Row(index.Head(c)), 3);
}

TEST(FlatRowIndexTest, GrowthKeepsEveryChainReachable) {
  FlatRowIndex index;
  constexpr int64_t kKeys = 5000;
  for (int64_t i = 0; i < kKeys; ++i) {
    index.Insert(static_cast<size_t>(i) * 0x9E3779B97F4A7C15ull, i);
  }
  EXPECT_EQ(index.size(), kKeys);
  for (int64_t i = 0; i < kKeys; ++i) {
    int64_t e = index.Head(static_cast<size_t>(i) * 0x9E3779B97F4A7C15ull);
    ASSERT_GE(e, 0) << "key " << i << " lost in growth";
    EXPECT_EQ(index.Row(e), i);
  }
}

TEST(FlatRowIndexTest, ReservePreventsMidBuildRehash) {
  FlatRowIndex reserved;
  reserved.Reserve(4000);
  const size_t capacity_before = reserved.slot_capacity();
  for (int64_t i = 0; i < 4000; ++i) {
    reserved.Insert(static_cast<size_t>(i) * 0x9E3779B97F4A7C15ull, i);
  }
  EXPECT_EQ(reserved.slot_capacity(), capacity_before);

  FlatRowIndex unreserved;
  for (int64_t i = 0; i < 4000; ++i) {
    unreserved.Insert(static_cast<size_t>(i) * 0x9E3779B97F4A7C15ull, i);
  }
  EXPECT_EQ(unreserved.slot_capacity(), reserved.slot_capacity());
}

TEST(FlatRowIndexTest, ReserveOnPartialIndexKeepsCapacityAndChainOrder) {
  FlatRowIndex index;
  // Partially fill with four hash-colliding chains: multiples of 1<<20 all
  // land on home slot 0 at any power-of-two slot count up to 2^20, so the
  // chains only stay distinct through linear probing.
  constexpr size_t kStride = size_t{1} << 20;
  constexpr int64_t kPrefill = 64;
  for (int64_t i = 0; i < kPrefill; ++i) {
    index.Insert(static_cast<size_t>(i % 4) * kStride, i);
  }
  const int64_t rehashes_before = index.rehash_count();

  // Reserving for the remaining bulk insert on the partially built index
  // must grow exactly once (the Reserve itself) and then hold capacity
  // steady through the insert.
  constexpr int64_t kTotal = 4000;
  index.Reserve(kTotal - kPrefill);
  EXPECT_EQ(index.rehash_count(), rehashes_before + 1);
  const size_t capacity = index.slot_capacity();
  for (int64_t i = kPrefill; i < kTotal; ++i) {
    index.Insert(static_cast<size_t>(i) * 0x9E3779B97F4A7C15ull, i);
  }
  EXPECT_EQ(index.slot_capacity(), capacity);
  EXPECT_EQ(index.rehash_count(), rehashes_before + 1);
  EXPECT_EQ(index.size(), kTotal);

  // The Reserve's rehash re-probed every colliding chain; insertion order
  // within each chain must have survived it.
  for (int64_t k = 0; k < 4; ++k) {
    std::vector<int64_t> chain;
    for (int64_t e = index.Head(static_cast<size_t>(k) * kStride); e >= 0;
         e = index.Next(e)) {
      chain.push_back(index.Row(e));
    }
    std::vector<int64_t> expected;
    for (int64_t i = k; i < kPrefill; i += 4) expected.push_back(i);
    EXPECT_EQ(chain, expected) << "chain " << k;
  }
}

/// Chain rows of `hash` in `index`, in chain order.
std::vector<int64_t> ChainOf(const FlatRowIndex& index, size_t hash) {
  std::vector<int64_t> rows;
  for (int64_t e = index.Head(hash); e >= 0; e = index.Next(e)) {
    rows.push_back(index.Row(e));
  }
  return rows;
}

TEST(FlatRowIndexTest, ExtendedIndexEqualsFreshBuild) {
  // Rows over a small key space (long chains), inserted in row order:
  // once in one pass, once across several appends separated by probes.
  Rng rng(17);
  std::vector<size_t> hashes(5000);
  for (size_t& h : hashes) {
    h = static_cast<size_t>(rng.Uniform(300)) * 0x9E3779B97F4A7C15ull;
  }
  FlatRowIndex fresh(static_cast<int64_t>(hashes.size()));
  for (size_t i = 0; i < hashes.size(); ++i) {
    fresh.Insert(hashes[i], static_cast<int64_t>(i));
  }
  FlatRowIndex extended;
  for (size_t end : {size_t{7}, size_t{700}, size_t{701}, size_t{3000},
                     hashes.size()}) {
    for (size_t i = static_cast<size_t>(extended.size()); i < end; ++i) {
      extended.Insert(hashes[i], static_cast<int64_t>(i));
    }
    ASSERT_GE(extended.Head(hashes[0]), 0);
  }
  ASSERT_EQ(extended.size(), fresh.size());
  for (size_t h : hashes) EXPECT_EQ(ChainOf(extended, h), ChainOf(fresh, h));

  // Truncating back to a prefix leaves the chains a fresh build of that
  // prefix holds, and the truncated index extends like one.
  FlatRowIndex prefix;
  for (size_t i = 0; i < 1234; ++i) {
    prefix.Insert(hashes[i], static_cast<int64_t>(i));
  }
  extended.Truncate(1234);
  ASSERT_EQ(extended.size(), 1234);
  for (size_t h : hashes) EXPECT_EQ(ChainOf(extended, h), ChainOf(prefix, h));
  for (size_t i = 1234; i < hashes.size(); ++i) {
    extended.Insert(hashes[i], static_cast<int64_t>(i));
  }
  for (size_t h : hashes) EXPECT_EQ(ChainOf(extended, h), ChainOf(fresh, h));
}

TEST(FlatRowIndexTest, Low32BitCollisionsReturnOnlyTheirOwnRows) {
  // Brute-force two int64 keys whose row-key hashes agree in the low 32
  // bits (the slot tag) but differ as keys.
  Schema schema({{"k", ColumnType::kInt64}});
  const std::vector<int> key = {0};
  auto probe_keys = Table::Make(schema);
  std::unordered_map<uint32_t, int64_t> seen;
  int64_t a = -1, b = -1;
  for (int64_t k = 0; a < 0; ++k) {
    auto one = Table::Make(schema);
    one->AppendRow({Value::Int64(k)});
    const size_t h = HashRowKey(one->row(0), key);
    auto [it, fresh] = seen.emplace(static_cast<uint32_t>(h), k);
    if (!fresh) {
      a = it->second;
      b = k;
    }
  }
  // Interleave the two keys' rows in one build table (key, row id).
  auto build = Table::Make(Schema({{"k", ColumnType::kInt64},
                                   {"row", ColumnType::kInt64}}));
  std::vector<int64_t> rows_a, rows_b;
  for (int64_t i = 0; i < 12; ++i) {
    const bool is_a = i % 3 != 1;
    build->AppendRow({Value::Int64(is_a ? a : b), Value::Int64(i)});
    (is_a ? rows_a : rows_b).push_back(i);
  }
  probe_keys->AppendRow({Value::Int64(b)});
  probe_keys->AppendRow({Value::Int64(a)});
  ExecContext ec;
  auto joined = HashJoin(Scan(probe_keys), Scan(build), {0}, {0},
                         JoinType::kInner,
                         {JoinOutputCol::Left(0, "key"),
                          JoinOutputCol::Right(1, "row")})
                    ->Execute(&ec);
  ASSERT_TRUE(joined.ok());
  std::vector<int64_t> got_a, got_b;
  for (int64_t i = 0; i < (*joined)->NumRows(); ++i) {
    RowView row = (*joined)->row(i);
    (row[0].i64() == a ? got_a : got_b).push_back(row[1].i64());
  }
  EXPECT_EQ(got_a, rows_a);
  EXPECT_EQ(got_b, rows_b);
}

TEST(FlatRowIndexTest, BoundedProbeEqualsJoinOverPrefix) {
  // A prebuilt index over all 3000 rows, probed with bound 1800, must give
  // exactly the join against a table holding only the first 1800 rows —
  // serially and with a morsel-parallel probe.
  Rng rng(23);
  Schema schema({{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}});
  auto build = Table::Make(schema);
  for (int64_t i = 0; i < 3000; ++i) {
    build->AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(400))),
                      Value::Int64(i)});
  }
  auto probe = Table::Make(schema);
  for (int64_t i = 0; i < 20000; ++i) {
    probe->AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(500))),
                      Value::Int64(i)});
  }
  constexpr int64_t kBound = 1800;
  auto prefix = Table::Make(schema);
  prefix->AppendRows(*build, 0, kBound);
  FlatRowIndex index;
  std::vector<size_t> hashes(static_cast<size_t>(build->NumRows()));
  build->HashRows(std::vector<int>{0}, 0, build->NumRows(), hashes.data());
  for (int64_t i = 0; i < build->NumRows(); ++i) {
    index.Insert(hashes[static_cast<size_t>(i)], i);
  }
  const std::vector<JoinOutputCol> cols = {JoinOutputCol::Left(1, "l"),
                                           JoinOutputCol::Right(1, "r")};
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    ExecContext fresh_ec, bounded_ec;
    fresh_ec.set_thread_pool(p);
    bounded_ec.set_thread_pool(p);
    auto fresh = HashJoin(Scan(probe), Scan(prefix), {0}, {0},
                          JoinType::kInner, cols)
                     ->Execute(&fresh_ec);
    auto bounded =
        HashJoin(Scan(probe), Scan(build, "T", kBound), {0}, {0},
                 JoinType::kInner, cols, nullptr,
                 PrebuiltIndex{&index, kBound})
            ->Execute(&bounded_ec);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(bounded.ok());
    ASSERT_GT((*fresh)->NumRows(), 0);
    EXPECT_TRUE(TablesEqualExact(**fresh, **bounded));
    // The bounded scan reports the bound, as a scan of the prefix would.
    EXPECT_EQ(bounded_ec.stats().nodes[1].rows_out, kBound);
  }
}

// --- TablesEqualExact ----------------------------------------------------------

TEST(TablesEqualExactTest, DistinguishesOrderUnlikeBagEquality) {
  Schema s({{"a", ColumnType::kInt64}});
  auto t1 = Table::Make(s);
  auto t2 = Table::Make(s);
  t1->AppendRow({Value::Int64(1)});
  t1->AppendRow({Value::Int64(2)});
  t2->AppendRow({Value::Int64(2)});
  t2->AppendRow({Value::Int64(1)});
  EXPECT_TRUE(TablesEqualAsBags(*t1, *t2));
  EXPECT_FALSE(TablesEqualExact(*t1, *t2));
  EXPECT_TRUE(TablesEqualExact(*t1, *t1));
}

// --- Morsel-parallel hash join -------------------------------------------------

TablePtr RandomPairs(int64_t rows, int64_t domain, uint64_t seed) {
  Rng rng(seed);
  auto t = Table::Make(
      Schema({{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}}));
  t->ReserveRows(rows);
  for (int64_t i = 0; i < rows; ++i) {
    t->AppendRow({Value::Int64(rng.UniformInt(0, domain)),
                  Value::Int64(rng.UniformInt(0, domain))});
  }
  return t;
}

TEST(ParallelJoinTest, MorselProbeIsBitIdenticalToSerial) {
  // Big enough that the morsel path actually engages (>= 2 x 2048 probe
  // rows) and produces multi-match chains.
  auto left = RandomPairs(3 * 2048, 512, 11);
  auto right = RandomPairs(4096, 512, 12);
  for (JoinType type :
       {JoinType::kInner, JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    std::vector<JoinOutputCol> cols;
    if (type == JoinType::kInner) {
      cols = {JoinOutputCol::Left(0, "k"), JoinOutputCol::Left(1, "lv"),
              JoinOutputCol::Right(1, "rv")};
    }
    ExecContext serial_ctx;
    auto serial = HashJoin(Scan(left), Scan(right), {0}, {0}, type, cols)
                      ->Execute(&serial_ctx);
    ASSERT_TRUE(serial.ok());

    ThreadPool pool(4);
    ExecContext parallel_ctx;
    parallel_ctx.set_thread_pool(&pool);
    auto parallel = HashJoin(Scan(left), Scan(right), {0}, {0}, type, cols)
                        ->Execute(&parallel_ctx);
    ASSERT_TRUE(parallel.ok());
    EXPECT_TRUE(TablesEqualExact(**serial, **parallel))
        << "join type " << static_cast<int>(type);
  }
}

// --- Grounding fixpoint equivalence --------------------------------------------

/// A KB big enough to push several statements past the morsel threshold.
KnowledgeBase BiggishKB() {
  SyntheticKbConfig config;
  config.scale = 0.01;
  auto skb = GenerateReverbSherlockKb(config);
  EXPECT_TRUE(skb.ok());
  KnowledgeBase kb = skb->kb;
  EXPECT_TRUE(AddRandomFacts(&kb, 6000, 333).ok());
  return kb;
}

TEST(ParallelGroundingTest, FixpointBitIdenticalAcrossThreadCounts) {
  KnowledgeBase kb = BiggishKB();
  GroundingOptions serial_options;
  serial_options.max_iterations = 3;
  serial_options.apply_constraints_each_iteration = true;
  serial_options.num_threads = 1;
  RelationalKB rkb_serial = BuildRelationalModel(kb);
  Grounder serial(&rkb_serial, serial_options);
  ASSERT_TRUE(serial.GroundAtoms().ok());
  auto phi_serial = serial.GroundFactors();
  ASSERT_TRUE(phi_serial.ok());

  for (int threads : {2, 4}) {
    GroundingOptions options = serial_options;
    options.num_threads = threads;
    RelationalKB rkb = BuildRelationalModel(kb);
    Grounder grounder(&rkb, options);
    ASSERT_TRUE(grounder.GroundAtoms().ok());
    auto phi = grounder.GroundFactors();
    ASSERT_TRUE(phi.ok());
    EXPECT_TRUE(TablesEqualExact(*rkb_serial.t_pi, *rkb.t_pi))
        << threads << " threads: TPi differs from serial";
    EXPECT_TRUE(TablesEqualExact(**phi_serial, **phi))
        << threads << " threads: TPhi differs from serial";
    EXPECT_EQ(serial.stats().iterations, grounder.stats().iterations);
  }
}

TEST(ParallelGroundingTest, StatsOnIsBitIdenticalAcrossThreadCounts) {
  // Acceptance gate for the observability layer: attaching a StatsRegistry,
  // with Tracer::Global() recording spans or dark, must not perturb any
  // output at any thread count — both only copy values out after the fact.
  KnowledgeBase kb = BiggishKB();
  GroundingOptions baseline_options;
  baseline_options.max_iterations = 3;
  baseline_options.apply_constraints_each_iteration = true;
  baseline_options.num_threads = 1;
  RelationalKB rkb_baseline = BuildRelationalModel(kb);
  Grounder baseline(&rkb_baseline, baseline_options);  // stats OFF
  ASSERT_TRUE(baseline.GroundAtoms().ok());
  auto phi_baseline = baseline.GroundFactors();
  ASSERT_TRUE(phi_baseline.ok());

  Tracer* tracer = Tracer::Global();
  for (bool traced : {false, true}) {
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(traced ? "tracer on" : "tracer off");
      tracer->set_enabled(traced);
      // Turns the global tracer off and empties it however this pass
      // exits, so a failed assertion leaves no spans to later tests.
      struct DisableTracer {
        Tracer* tracer;
        ~DisableTracer() {
          tracer->set_enabled(false);
          tracer->Reset();
        }
      } disable{tracer};
      GroundingOptions options = baseline_options;
      options.num_threads = threads;
      RelationalKB rkb = BuildRelationalModel(kb);
      Grounder grounder(&rkb, options);
      StatsRegistry registry;
      grounder.set_stats_registry(&registry);
      ASSERT_TRUE(grounder.GroundAtoms().ok());
      auto phi = grounder.GroundFactors();
      EXPECT_EQ(tracer->CollectSpans().empty(), !traced);
      ASSERT_TRUE(phi.ok());
      EXPECT_TRUE(TablesEqualExact(*rkb_baseline.t_pi, *rkb.t_pi))
          << threads << " threads with stats on: TPi differs";
      EXPECT_TRUE(TablesEqualExact(**phi_baseline, **phi))
          << threads << " threads with stats on: TPhi differs";

      // And the registry actually observed the run: partition cells for
      // every iteration, operator records, and (threads > 1) worker slots.
      EXPECT_FALSE(registry.partition_iterations().empty());
      EXPECT_FALSE(registry.statements().empty());
      int max_iter = 0;
      for (const PartitionIterStats& cell : registry.partition_iterations()) {
        EXPECT_GE(cell.partition, 1);
        EXPECT_LE(cell.partition, kNumRuleStructures);
        EXPECT_GE(cell.delta_rows, 0);
        EXPECT_GE(cell.join_seconds, 0.0);
        if (cell.iteration > max_iter) max_iter = cell.iteration;
      }
      EXPECT_EQ(max_iter, grounder.stats().iterations);
      if (threads > 1) {
        EXPECT_EQ(registry.workers().size(),
                  static_cast<size_t>(threads - 1));
      } else {
        EXPECT_TRUE(registry.workers().empty());
      }
    }
  }
}

TEST(ParallelMppTest, StatsOnMppIsBitIdenticalAndRecordsMotions) {
  KnowledgeBase kb = BiggishKB();
  GroundingOptions options;
  options.max_iterations = 3;
  options.num_threads = 1;
  RelationalKB rkb_baseline = BuildRelationalModel(kb);
  MppGrounder baseline(rkb_baseline, kSegments, MppMode::kViews, options);
  ASSERT_TRUE(baseline.GroundAtoms().ok());
  auto phi_baseline = baseline.GroundFactors();
  ASSERT_TRUE(phi_baseline.ok());
  TablePtr tpi_baseline = baseline.GatherTPi();

  for (int threads : {1, 4}) {
    GroundingOptions opts = options;
    opts.num_threads = threads;
    RelationalKB rkb = BuildRelationalModel(kb);
    MppGrounder grounder(rkb, kSegments, MppMode::kViews, opts);
    StatsRegistry registry;
    grounder.set_stats_registry(&registry);
    ASSERT_TRUE(grounder.GroundAtoms().ok());
    auto phi = grounder.GroundFactors();
    ASSERT_TRUE(phi.ok());
    EXPECT_TRUE(TablesEqualExact(*tpi_baseline, *grounder.GatherTPi()))
        << threads << " threads with stats on: gathered TPi differs";
    EXPECT_TRUE(TablesEqualExact(**phi_baseline, **phi))
        << threads << " threads with stats on: TPhi differs";

    // Motion totals must reconcile with the cost model's step log.
    int64_t steps_shipped = 0;
    for (const MppStep& step : grounder.cost().steps()) {
      if (step.kind != MppStep::Kind::kCompute) {
        steps_shipped += step.tuples_shipped;
      }
    }
    int64_t motions_shipped = 0;
    for (const MotionTotals& m : registry.motion_totals()) {
      EXPECT_GE(m.tuples_shipped, 0);
      EXPECT_GE(m.max_skew, 0.0);
      motions_shipped += m.tuples_shipped;
    }
    EXPECT_EQ(motions_shipped, steps_shipped)
        << threads << " threads: registry and cost log disagree";
    EXPECT_FALSE(registry.compute_totals().empty());
  }
}

TEST(ParallelMppTest, MotionsBitIdenticalAcrossThreadCounts) {
  KnowledgeBase kb = BiggishKB();
  GroundingOptions serial_options;
  serial_options.max_iterations = 3;
  serial_options.num_threads = 1;
  RelationalKB rkb_serial = BuildRelationalModel(kb);
  MppGrounder serial(rkb_serial, kSegments, MppMode::kViews,
                     serial_options);
  ASSERT_TRUE(serial.GroundAtoms().ok());
  auto phi_serial = serial.GroundFactors();
  ASSERT_TRUE(phi_serial.ok());
  TablePtr tpi_serial = serial.GatherTPi();

  for (int threads : {2, 4}) {
    GroundingOptions options = serial_options;
    options.num_threads = threads;
    RelationalKB rkb = BuildRelationalModel(kb);
    MppGrounder grounder(rkb, kSegments, MppMode::kViews, options);
    ASSERT_TRUE(grounder.GroundAtoms().ok());
    auto phi = grounder.GroundFactors();
    ASSERT_TRUE(phi.ok());
    EXPECT_TRUE(TablesEqualExact(*tpi_serial, *grounder.GatherTPi()))
        << threads << " threads: gathered TPi differs from serial";
    EXPECT_TRUE(TablesEqualExact(**phi_serial, **phi))
        << threads << " threads: TPhi differs from serial";
    // Same motions in the same order ship the same tuple counts: the
    // injector-facing schedule is thread-count independent.
    ASSERT_EQ(serial.cost().steps().size(), grounder.cost().steps().size());
    for (size_t i = 0; i < serial.cost().steps().size(); ++i) {
      EXPECT_EQ(serial.cost().steps()[i].kind,
                grounder.cost().steps()[i].kind);
      EXPECT_EQ(serial.cost().steps()[i].tuples_shipped,
                grounder.cost().steps()[i].tuples_shipped);
    }
  }
}

TEST(ParallelMppTest, InjectedFaultsRecoverIdenticallyAcrossThreadCounts) {
  KnowledgeBase kb = BiggishKB();
  FaultInjectionOptions fault_options;
  fault_options.enabled = true;
  fault_options.seed = 104729;
  fault_options.segment_failure_prob = 0.25;
  fault_options.drop_batch_prob = 0.25;
  fault_options.duplicate_batch_prob = 0.1;

  GroundingOptions serial_options;
  serial_options.max_iterations = 3;
  serial_options.num_threads = 1;
  RelationalKB rkb_serial = BuildRelationalModel(kb);
  FaultInjector serial_injector(fault_options);
  MppGrounder serial(rkb_serial, kSegments, MppMode::kViews, serial_options,
                     CostParams{}, &serial_injector);
  ASSERT_TRUE(serial.GroundAtoms().ok());
  ASSERT_GT(serial_injector.stats().InjectedTotal(), 0)
      << "fault schedule never fired; the test is vacuous";
  TablePtr tpi_serial = serial.GatherTPi();

  for (int threads : {2, 4}) {
    GroundingOptions options = serial_options;
    options.num_threads = threads;
    RelationalKB rkb = BuildRelationalModel(kb);
    FaultInjector injector(fault_options);
    MppGrounder grounder(rkb, kSegments, MppMode::kViews, options,
                         CostParams{}, &injector);
    ASSERT_TRUE(grounder.GroundAtoms().ok());
    EXPECT_TRUE(TablesEqualExact(*tpi_serial, *grounder.GatherTPi()))
        << threads << " threads under faults: TPi differs from serial";
    // The deterministic fault schedule is keyed on motion indices, which
    // are assigned on the orchestrator thread before any fan-out — so the
    // same faults fire and recover regardless of thread count.
    EXPECT_EQ(serial_injector.stats().InjectedTotal(),
              injector.stats().InjectedTotal());
    EXPECT_EQ(serial_injector.stats().recovered_faults,
              injector.stats().recovered_faults);
    EXPECT_EQ(serial_injector.stats().retries, injector.stats().retries);
  }
}

TEST(ParallelMppTest, CheckpointResumeWithThreadsMatchesSerialRun) {
  KnowledgeBase kb = BiggishKB();

  GroundingOptions full_options;
  full_options.max_iterations = 4;
  full_options.num_threads = 1;
  RelationalKB rkb_full = BuildRelationalModel(kb);
  MppGrounder full(rkb_full, kSegments, MppMode::kViews, full_options);
  ASSERT_TRUE(full.GroundAtoms().ok());
  TablePtr tpi_full = full.GatherTPi();

  // Threaded run interrupted after 2 iterations, checkpointing each one...
  const std::string dir = FreshDir("resume");
  GroundingOptions interrupted_options = full_options;
  interrupted_options.max_iterations = 2;
  interrupted_options.num_threads = 4;
  interrupted_options.checkpoint_dir = dir;
  RelationalKB rkb_cut = BuildRelationalModel(kb);
  MppGrounder interrupted(rkb_cut, kSegments, MppMode::kViews,
                          interrupted_options);
  ASSERT_TRUE(interrupted.GroundAtoms().ok());

  // ... then resumed with a different thread count must land exactly where
  // the uninterrupted serial run did.
  GroundingOptions resumed_options = full_options;
  resumed_options.num_threads = 2;
  RelationalKB rkb_resume = BuildRelationalModel(kb);
  MppGrounder resumed(rkb_resume, kSegments, MppMode::kViews,
                      resumed_options);
  ASSERT_TRUE(resumed.ResumeFrom(dir).ok());
  ASSERT_TRUE(resumed.GroundAtoms().ok());
  EXPECT_TRUE(TablesEqualExact(*tpi_full, *resumed.GatherTPi()));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace probkb
