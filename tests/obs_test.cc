// StatsRegistry unit tests: post-order tree reconstruction, per-label
// aggregation, motion/partition merging, JSON shape, and the ExecContext
// stats-sink plumbing on a real plan.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/exec_context.h"
#include "engine/ops.h"
#include "engine/plan.h"
#include "obs/histogram.h"
#include "obs/stats_registry.h"
#include "tests/test_util.h"

namespace probkb {
namespace {

OpRecord MakeOp(const std::string& label, int64_t rows_in, int64_t rows_out,
                int num_children) {
  OpRecord op;
  op.label = label;
  op.rows_in = rows_in;
  op.rows_out = rows_out;
  op.seconds = 0.001;
  op.num_children = num_children;
  return op;
}

TEST(StatsRegistryTest, PostOrderRecordsRebuildThePlanTree) {
  StatsRegistry registry;
  // Post-order for: Join(Scan A, Scan B), as the engine emits it.
  registry.RecordOp("q", MakeOp("Scan A", 10, 10, 0));
  registry.RecordOp("q", MakeOp("Scan B", 5, 5, 0));
  registry.RecordOp("q", MakeOp("Join", 15, 7, 2));

  const std::string text = registry.ToText();
  // Parent first, children indented beneath it.
  const size_t join = text.find("Join  rows_in=15 rows_out=7");
  const size_t a = text.find("Scan A  rows_in=10");
  const size_t b = text.find("Scan B  rows_in=5");
  ASSERT_NE(join, std::string::npos) << text;
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(join, a);
  EXPECT_LT(a, b);

  ASSERT_EQ(registry.statements().size(), 1u);
  EXPECT_EQ(registry.statements()[0].scope, "q");
  ASSERT_EQ(registry.statements()[0].ops.size(), 3u);
  EXPECT_EQ(registry.statements()[0].ops[2].num_children, 2);
}

TEST(StatsRegistryTest, SameScopeTwiceRendersAForest) {
  // Semi-naive evaluation runs a partition twice per iteration; both plan
  // trees land in the same statement scope and must both render.
  StatsRegistry registry;
  registry.RecordOp("iter1/M1", MakeOp("Scan d", 2, 2, 0));
  registry.RecordOp("iter1/M1", MakeOp("Pass1", 2, 1, 1));
  registry.RecordOp("iter1/M1", MakeOp("Scan f", 3, 3, 0));
  registry.RecordOp("iter1/M1", MakeOp("Pass2", 3, 2, 1));

  ASSERT_EQ(registry.statements().size(), 1u);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("Pass1"), std::string::npos);
  EXPECT_NE(text.find("Pass2"), std::string::npos);
  // Both roots at the same indentation depth.
  EXPECT_NE(text.find("\n    Pass1"), std::string::npos) << text;
  EXPECT_NE(text.find("\n    Pass2"), std::string::npos) << text;
}

TEST(StatsRegistryTest, OpTotalsAggregateAcrossStatements) {
  StatsRegistry registry;
  registry.RecordOp("s1", MakeOp("Scan T", 4, 4, 0));
  registry.RecordOp("s2", MakeOp("Scan T", 6, 6, 0));
  ASSERT_EQ(registry.op_totals().size(), 1u);
  EXPECT_EQ(registry.op_totals()[0].label, "Scan T");
  EXPECT_EQ(registry.op_totals()[0].invocations, 2);
  EXPECT_EQ(registry.op_totals()[0].rows_in, 10);
  EXPECT_EQ(registry.statements().size(), 2u);
}

TEST(StatsRegistryTest, PartitionCellsAccumulateBothSemiNaivePasses) {
  StatsRegistry registry;
  registry.RecordPartitionIteration(1, 3, 10, 0.5);
  registry.RecordPartitionIteration(1, 3, 4, 0.25);  // second pass
  registry.RecordPartitionIteration(2, 3, 1, 0.125);
  ASSERT_EQ(registry.partition_iterations().size(), 2u);
  const PartitionIterStats& cell = registry.partition_iterations()[0];
  EXPECT_EQ(cell.iteration, 1);
  EXPECT_EQ(cell.partition, 3);
  EXPECT_EQ(cell.delta_rows, 14);
  EXPECT_DOUBLE_EQ(cell.join_seconds, 0.75);
  EXPECT_EQ(cell.statements, 2);
}

TEST(StatsRegistryTest, MotionsMergeByKindAndTrackWorstSkew) {
  StatsRegistry registry;
  // Balanced first, then a skewed one; the label keeps the worst skew.
  registry.RecordMotion("delta", "redistribute", 8, 64, 0.1, {2, 2, 2, 2});
  registry.RecordMotion("delta", "redistribute", 8, 64, 0.1, {8, 0, 0, 0});
  registry.RecordMotion("delta", "gather", 3, 24, 0.05, {});
  ASSERT_EQ(registry.motion_totals().size(), 2u);  // split by kind
  const MotionTotals& redist = registry.motion_totals()[0];
  EXPECT_EQ(redist.kind, "redistribute");
  EXPECT_EQ(redist.count, 2);
  EXPECT_EQ(redist.tuples_shipped, 16);
  EXPECT_EQ(redist.bytes_shipped, 128);
  EXPECT_DOUBLE_EQ(redist.max_skew, 4.0);  // 8 / mean(2)
  EXPECT_EQ(redist.max_segment_tuples, 8);
}

TEST(StatsRegistryTest, ComputeSkewIsMaxOverMeanSegmentSeconds) {
  StatsRegistry registry;
  // max 0.4s, total work 0.8s over 4 segments -> mean 0.2s -> skew 2.0.
  registry.RecordCompute("Query1-1 probe", 0.4, 0.8, 4);
  ASSERT_EQ(registry.compute_totals().size(), 1u);
  EXPECT_DOUBLE_EQ(registry.compute_totals()[0].max_skew, 2.0);
}

TEST(StatsRegistryTest, GibbsSamplesPerSecCountsVariableUpdates) {
  StatsRegistry registry;
  registry.RecordGibbsChain(0, 100, 50, 2.0);
  ASSERT_EQ(registry.gibbs_chains().size(), 1u);
  EXPECT_DOUBLE_EQ(registry.gibbs_chains()[0].samples_per_sec, 2500.0);
  registry.RecordGibbsChain(1, 100, 50, 0.0);  // too fast to time
  EXPECT_DOUBLE_EQ(registry.gibbs_chains()[1].samples_per_sec, 0.0);
}

TEST(StatsRegistryTest, WorkersSnapshotOverwritesNotAppends) {
  StatsRegistry registry;
  registry.RecordWorkers({{0, 1, 0, 0.1, 0.9}});
  registry.RecordWorkers({{0, 5, 2, 0.5, 0.5}, {1, 3, 1, 0.2, 0.8}});
  ASSERT_EQ(registry.workers().size(), 2u);
  EXPECT_EQ(registry.workers()[0].tasks_run, 5);
}

TEST(StatsRegistryTest, JsonCarriesEverySectionAndEscapes) {
  StatsRegistry registry;
  registry.RecordOp("scope \"x\"", MakeOp("Filter (w IS NOT NULL)", 3, 1, 0));
  registry.RecordPartitionIteration(1, 2, 5, 0.01);
  registry.RecordMotion("m", "broadcast", 7, 56, 0.02, {7, 7});
  registry.RecordCompute("c", 0.1, 0.2, 2);
  registry.RecordWorkers({{0, 4, 1, 0.3, 0.7}});
  registry.RecordGibbsChain(0, 10, 3, 0.5);
  const std::string json = registry.ToJson();
  for (const char* key :
       {"\"statements\"", "\"operators\"", "\"partitions\"", "\"motions\"",
        "\"compute\"", "\"workers\"", "\"gibbs_chains\"",
        "\"num_children\"", "\"tuples_shipped\"", "\"delta_rows\"",
        "\"samples_per_sec\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  // The quote inside the scope must arrive escaped.
  EXPECT_NE(json.find("scope \\\"x\\\""), std::string::npos) << json;
  EXPECT_EQ(json.find("scope \"x\""), std::string::npos);
}

// --- ExecContext sink plumbing -------------------------------------------------

TEST(StatsSinkTest, HashJoinPlanReportsRowsAndBuildProbeSplit) {
  auto left = Table::Make(
      Schema({{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}}));
  auto right = Table::Make(
      Schema({{"k", ColumnType::kInt64}, {"w", ColumnType::kInt64}}));
  for (int64_t i = 0; i < 100; ++i) {
    left->AppendRow({Value::Int64(i % 10), Value::Int64(i)});
  }
  for (int64_t i = 0; i < 50; ++i) {
    right->AppendRow({Value::Int64(i % 10), Value::Int64(i)});
  }

  StatsRegistry registry;
  ExecContext ctx;
  ctx.set_stats_sink(&registry, "join_test");
  auto plan = HashJoin(Scan(left), Scan(right), {0}, {0}, JoinType::kInner,
                       {JoinOutputCol::Left(0, "k"),
                        JoinOutputCol::Left(1, "v"),
                        JoinOutputCol::Right(1, "w")});
  auto out = plan->Execute(&ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->NumRows(), 500);  // 10 keys x 10 left x 5 right

  ASSERT_EQ(registry.statements().size(), 1u);
  const std::vector<OpRecord>& ops = registry.statements()[0].ops;
  ASSERT_EQ(ops.size(), 3u);  // post-order: scan, scan, join
  EXPECT_EQ(ops[0].num_children, 0);
  EXPECT_EQ(ops[1].num_children, 0);
  const OpRecord& join = ops[2];
  EXPECT_EQ(join.num_children, 2);
  EXPECT_EQ(join.rows_in, 150);  // left + right
  EXPECT_EQ(join.rows_out, 500);
  // Pipeline-edge consistency: parent rows_in == sum of children rows_out.
  EXPECT_EQ(join.rows_in, ops[0].rows_out + ops[1].rows_out);
  EXPECT_GE(join.build_seconds, 0.0);
  EXPECT_GE(join.probe_seconds, 0.0);
  EXPECT_LE(join.build_seconds + join.probe_seconds, join.seconds + 1e-3);

  // The sink observes; it never changes the result.
  ExecContext plain_ctx;
  auto plain = HashJoin(Scan(left), Scan(right), {0}, {0}, JoinType::kInner,
                        {JoinOutputCol::Left(0, "k"),
                         JoinOutputCol::Left(1, "v"),
                         JoinOutputCol::Right(1, "w")})
                   ->Execute(&plain_ctx);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(TablesEqualExact(**out, **plain));
}

TEST(StatsSinkTest, DistinctReportsPreSizedBuildAsRehashFree) {
  auto t = Table::Make(Schema({{"a", ColumnType::kInt64}}));
  for (int64_t i = 0; i < 10000; ++i) {
    t->AppendRow({Value::Int64(i)});
  }
  StatsRegistry registry;
  ExecContext ctx;
  ctx.set_stats_sink(&registry, "distinct_test");
  auto out = Distinct(Scan(t))->Execute(&ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->NumRows(), 10000);
  const std::vector<OpRecord>& ops = registry.statements()[0].ops;
  const OpRecord& distinct = ops.back();
  EXPECT_EQ(distinct.rows_in, 10000);
  EXPECT_EQ(distinct.num_children, 1);
  // Distinct pre-sizes its dedup index for the input row count, so the
  // reported counter must show a rehash-free build (the counter itself is
  // exercised by the FlatRowIndex unit tests).
  EXPECT_EQ(distinct.rehashes, 0);
}

// --- LatencyHistogram ----------------------------------------------------------

TEST(LatencyHistogramTest, EmptyHistogramIsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum_seconds(), 0.0);
  EXPECT_EQ(h.max_seconds(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.Percentile(99), 0.0);
  EXPECT_NE(h.Summary().find("n=0"), std::string::npos);
}

TEST(LatencyHistogramTest, PercentilesTrackRecordedDistribution) {
  LatencyHistogram h;
  // 100 samples: 1ms..100ms.
  for (int i = 1; i <= 100; ++i) h.Record(i * 1e-3);
  EXPECT_EQ(h.count(), 100);
  EXPECT_NEAR(h.sum_seconds(), 5.050, 1e-9);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 0.100);

  // Bucket midpoints are within ~6% of the true value (1/16 sub-bucketing)
  // so percentile estimates carry the same tolerance.
  EXPECT_NEAR(h.Percentile(50), 0.050, 0.050 * 0.07);
  EXPECT_NEAR(h.Percentile(95), 0.095, 0.095 * 0.07);
  // The top percentile never exceeds the exactly tracked max.
  EXPECT_LE(h.Percentile(99), h.max_seconds());
  EXPECT_DOUBLE_EQ(h.Percentile(100), 0.100);
}

TEST(LatencyHistogramTest, HandlesExtremesWithoutOverflow) {
  LatencyHistogram h;
  h.Record(-1.0);     // clamps to 0
  h.Record(0.0);      // sub-microsecond bucket
  h.Record(1e-7);     // below 1us resolution
  h.Record(7200.0);   // two hours: beyond the top octave, clamped bucket
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 7200.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 7200.0);
  EXPECT_GE(h.Percentile(99), 0.0);
}

TEST(LatencyHistogramTest, SummaryIsHumanReadable) {
  LatencyHistogram h;
  for (int i = 0; i < 5; ++i) h.Record(0.002);
  const std::string s = h.Summary();
  EXPECT_NE(s.find("n=5"), std::string::npos);
  EXPECT_NE(s.find("p50="), std::string::npos);
  EXPECT_NE(s.find("p95="), std::string::npos);
  EXPECT_NE(s.find("p99="), std::string::npos);
  EXPECT_NE(s.find("max="), std::string::npos);
}

// --- StatsRegistry latency integration -----------------------------------------

TEST(StatsRegistryTest, NamedLatenciesAppearInTextAndJson) {
  StatsRegistry registry;
  registry.RecordLatency("grounding_iteration", 0.010);
  registry.RecordLatency("grounding_iteration", 0.020);
  registry.RecordLatency("gibbs_sweep", 0.001);

  const LatencyHistogram* grounding =
      registry.FindLatency("grounding_iteration");
  ASSERT_NE(grounding, nullptr);
  EXPECT_EQ(grounding->count(), 2);
  EXPECT_EQ(registry.FindLatency("no_such_metric"), nullptr);
  ASSERT_EQ(registry.latencies().size(), 2u);
  // Registration order is preserved (deterministic reports).
  EXPECT_EQ(registry.latencies()[0].first, "grounding_iteration");
  EXPECT_EQ(registry.latencies()[1].first, "gibbs_sweep");

  const std::string text = registry.ToText();
  EXPECT_NE(text.find("latency histograms:"), std::string::npos);
  EXPECT_NE(text.find("p50_ms"), std::string::npos);
  // The grounding_iteration row reports both samples in the count column.
  const size_t row = text.find("grounding_iteration");
  ASSERT_NE(row, std::string::npos);
  EXPECT_NE(text.find(" 2 ", row), std::string::npos);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"latencies\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"gibbs_sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"p95_s\""), std::string::npos);
}

TEST(StatsRegistryTest, OpAndMotionRecordsFeedLatencyHistograms) {
  StatsRegistry registry;
  OpRecord op = MakeOp("HashJoin", 100, 50, 2);
  op.build_seconds = 0.003;
  op.probe_seconds = 0.004;
  registry.RecordOp("q", op);
  registry.RecordMotion("redistribute t_pi", "Redistribute", 100, 800,
                        0.005, {});

  const LatencyHistogram* build = registry.FindLatency("join_build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->count(), 1);
  const LatencyHistogram* probe = registry.FindLatency("join_probe");
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->count(), 1);
  const LatencyHistogram* ship = registry.FindLatency("motion_ship");
  ASSERT_NE(ship, nullptr);
  EXPECT_EQ(ship->count(), 1);
  EXPECT_NEAR(ship->sum_seconds(), 0.005, 1e-9);
}

TEST(StatsRegistryTest, CounterSeriesAccumulateAndRender) {
  StatsRegistry stats;
  EXPECT_EQ(stats.FindCounter("serve_queries"), -1);
  stats.IncrementCounter("serve_queries");
  stats.IncrementCounter("serve_queries");
  stats.IncrementCounter("serve_answers", 5);
  EXPECT_EQ(stats.FindCounter("serve_queries"), 2);
  EXPECT_EQ(stats.FindCounter("serve_answers"), 5);
  ASSERT_EQ(stats.counters().size(), 2u);

  std::string text = stats.ToText();
  EXPECT_NE(text.find("serve_queries"), std::string::npos);
  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"serve_answers\""), std::string::npos);
}

}  // namespace
}  // namespace probkb
