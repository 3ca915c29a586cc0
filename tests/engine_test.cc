#include <gtest/gtest.h>

#include "engine/ops.h"
#include "engine/plan.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace probkb {
namespace {

using testutil::MakeTable;

Schema AB() {
  return Schema({{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64}});
}
Schema CD() {
  return Schema({{"c", ColumnType::kInt64}, {"d", ColumnType::kInt64}});
}

TablePtr Exec(PlanNodePtr plan) {
  ExecContext ctx;
  auto result = plan->Execute(&ctx);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? *result : nullptr;
}

TEST(ScanTest, ReturnsInputAndRecordsStats) {
  auto t = MakeTable(AB(), {{1, 2}, {3, 4}});
  ExecContext ctx;
  auto result = Scan(t, "t")->Execute(&ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result).get(), t.get());
  ASSERT_EQ(ctx.stats().nodes.size(), 1u);
  EXPECT_EQ(ctx.stats().nodes[0].rows_out, 2);
  EXPECT_EQ(ctx.stats().nodes[0].label, "SeqScan on t");
}

TEST(FilterTest, KeepsMatchingRows) {
  auto t = MakeTable(AB(), {{1, 2}, {3, 4}, {5, 6}});
  auto out = Exec(Filter(Scan(t), [](const RowView& r) {
    return r[0].i64() >= 3;
  }));
  ASSERT_EQ(out->NumRows(), 2);
  EXPECT_EQ(out->row(0)[0].i64(), 3);
}

TEST(ProjectTest, ColumnsAndConstants) {
  auto t = MakeTable(AB(), {{1, 2}});
  auto out = Exec(Project(Scan(t), {ProjectExpr::Column(1, "b"),
                                   ProjectExpr::Constant(Value::Int64(9), "k"),
                                   ProjectExpr::Constant(Value::Null(), "n")}));
  ASSERT_EQ(out->NumRows(), 1);
  EXPECT_EQ(out->row(0)[0].i64(), 2);
  EXPECT_EQ(out->row(0)[1].i64(), 9);
  EXPECT_TRUE(out->row(0)[2].is_null());
  EXPECT_EQ(out->schema().GetFieldIndex("k"), 1);
}

TEST(HashJoinTest, InnerJoinBasic) {
  auto left = MakeTable(AB(), {{1, 10}, {2, 20}, {3, 30}});
  auto right = MakeTable(CD(), {{2, 200}, {3, 300}, {3, 301}, {4, 400}});
  auto out = Exec(HashJoin(Scan(left), Scan(right), {0}, {0}, JoinType::kInner,
                          {JoinOutputCol::Left(1, "b"),
                           JoinOutputCol::Right(1, "d")}));
  auto expected = MakeTable(AB(), {{20, 200}, {30, 300}, {30, 301}});
  EXPECT_TRUE(TablesEqualAsBags(*out, *expected));
}

TEST(HashJoinTest, MultiKeyJoin) {
  auto left = MakeTable(AB(), {{1, 1}, {1, 2}});
  auto right = MakeTable(CD(), {{1, 1}, {1, 2}});
  auto out = Exec(HashJoin(Scan(left), Scan(right), {0, 1}, {0, 1},
                          JoinType::kInner,
                          {JoinOutputCol::Left(0, "a"),
                           JoinOutputCol::Left(1, "b")}));
  EXPECT_EQ(out->NumRows(), 2);  // exact (a,b) matches only
}

TEST(HashJoinTest, SemiAndAntiJoin) {
  auto left = MakeTable(AB(), {{1, 0}, {2, 0}, {3, 0}});
  auto right = MakeTable(CD(), {{2, 0}, {2, 1}});
  auto semi = Exec(HashJoin(Scan(left), Scan(right), {0}, {0},
                           JoinType::kLeftSemi));
  ASSERT_EQ(semi->NumRows(), 1);  // row 2 matched once despite 2 build rows
  EXPECT_EQ(semi->row(0)[0].i64(), 2);
  auto anti = Exec(HashJoin(Scan(left), Scan(right), {0}, {0},
                           JoinType::kLeftAnti));
  auto expected = MakeTable(AB(), {{1, 0}, {3, 0}});
  EXPECT_TRUE(TablesEqualAsBags(*anti, *expected));
}

TEST(HashJoinTest, ResidualPredicate) {
  auto left = MakeTable(AB(), {{1, 5}, {1, 50}});
  auto right = MakeTable(CD(), {{1, 10}});
  // Join on a==c, keep only pairs where b < d (residual sees concatenated
  // left+right rows).
  auto out = Exec(HashJoin(
      Scan(left), Scan(right), {0}, {0}, JoinType::kInner,
      {JoinOutputCol::Left(1, "b"), JoinOutputCol::Right(1, "d")},
      [](const RowView& r) { return r[1].i64() < r[3].i64(); }));
  ASSERT_EQ(out->NumRows(), 1);
  EXPECT_EQ(out->row(0)[0].i64(), 5);
}

TEST(HashJoinTest, InnerJoinRejectsMissingOrMistypedOutputCols) {
  auto t = MakeTable(AB(), {{1, 2}});
  ExecContext ctx;
  auto plan = HashJoin(Scan(t), Scan(t), {0}, {0}, JoinType::kInner);
  EXPECT_FALSE(plan->Execute(&ctx).ok());

  // A declared output type must match the input column it copies: an
  // int64 output over a float64 column is a bad plan, not a bad row.
  auto floats = Table::Make(
      Schema({{"c", ColumnType::kInt64}, {"w", ColumnType::kFloat64}}));
  floats->AppendRow({Value::Int64(1), Value::Float64(0.5)});
  auto mistyped = HashJoin(Scan(t), Scan(floats), {0}, {0}, JoinType::kInner,
                           {JoinOutputCol::Left(0, "a"),
                            JoinOutputCol::Right(1, "w")});
  auto result = mistyped->Execute(&ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status();

  // Declared as float64, the same plan runs.
  auto out = Exec(HashJoin(
      Scan(t), Scan(floats), {0}, {0}, JoinType::kInner,
      {JoinOutputCol::Left(0, "a"),
       JoinOutputCol::Right(1, "w", ColumnType::kFloat64)}));
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->NumRows(), 1);
  EXPECT_EQ(out->row(0)[1].f64(), 0.5);
}

TEST(HashJoinTest, NullKeysJoinEachOther) {
  // NULL == NULL under our key semantics (distinct-style); grounding never
  // joins on nullable columns, but the engine behaviour must be defined.
  auto left = Table::Make(AB());
  left->AppendRow({Value::Null(), Value::Int64(1)});
  auto right = Table::Make(CD());
  right->AppendRow({Value::Null(), Value::Int64(2)});
  auto out = Exec(HashJoin(Scan(left), Scan(right), {0}, {0}, JoinType::kInner,
                          {JoinOutputCol::Left(1, "b"),
                           JoinOutputCol::Right(1, "d")}));
  EXPECT_EQ(out->NumRows(), 1);
}

TEST(DistinctTest, AllColumnsDefault) {
  auto t = MakeTable(AB(), {{1, 2}, {1, 2}, {1, 3}});
  auto out = Exec(Distinct(Scan(t)));
  EXPECT_EQ(out->NumRows(), 2);
}

TEST(DistinctTest, KeySubsetKeepsFirst) {
  auto t = MakeTable(AB(), {{1, 10}, {1, 20}, {2, 30}});
  auto out = Exec(Distinct(Scan(t), {0}));
  ASSERT_EQ(out->NumRows(), 2);
  EXPECT_EQ(out->row(0)[1].i64(), 10);  // first occurrence wins
}

TEST(AggregateTest, CountSumMinMax) {
  auto t = MakeTable(AB(), {{1, 5}, {1, 7}, {2, 3}});
  auto out = Exec(Aggregate(Scan(t), {0},
                           {{AggKind::kCount, 0, "cnt"},
                            {AggKind::kSum, 1, "sum"},
                            {AggKind::kMin, 1, "min"},
                            {AggKind::kMax, 1, "max"}}));
  ASSERT_EQ(out->NumRows(), 2);
  auto rows = out->SortedRows();
  EXPECT_EQ(rows[0][0].i64(), 1);
  EXPECT_EQ(rows[0][1].i64(), 2);   // count
  EXPECT_EQ(rows[0][2].i64(), 12);  // sum
  EXPECT_EQ(rows[0][3].i64(), 5);   // min
  EXPECT_EQ(rows[0][4].i64(), 7);   // max
}

TEST(AggregateTest, HavingFiltersGroups) {
  auto t = MakeTable(AB(), {{1, 0}, {1, 0}, {2, 0}});
  auto out = Exec(Aggregate(Scan(t), {0}, {{AggKind::kCount, 0, "cnt"}},
                           [](const RowView& r) { return r[1].i64() > 1; }));
  ASSERT_EQ(out->NumRows(), 1);
  EXPECT_EQ(out->row(0)[0].i64(), 1);
}

TEST(AggregateTest, GlobalAggregateNoGroups) {
  auto t = MakeTable(AB(), {{1, 5}, {2, 6}});
  auto out = Exec(Aggregate(Scan(t), {}, {{AggKind::kCount, 0, "cnt"}}));
  ASSERT_EQ(out->NumRows(), 1);
  EXPECT_EQ(out->row(0)[0].i64(), 2);
}

TEST(AggregateTest, FloatSum) {
  auto t = Table::Make(Schema({{"g", ColumnType::kInt64},
                               {"v", ColumnType::kFloat64}}));
  t->AppendRow({Value::Int64(1), Value::Float64(0.5)});
  t->AppendRow({Value::Int64(1), Value::Float64(0.25)});
  auto out = Exec(Aggregate(Scan(t), {0}, {{AggKind::kSum, 1, "s"}}));
  ASSERT_EQ(out->NumRows(), 1);
  EXPECT_DOUBLE_EQ(out->row(0)[1].f64(), 0.75);
}

TEST(UnionAllTest, ConcatenatesBags) {
  auto a = MakeTable(AB(), {{1, 1}});
  auto b = MakeTable(AB(), {{1, 1}, {2, 2}});
  std::vector<PlanNodePtr> inputs;
  inputs.push_back(Scan(a));
  inputs.push_back(Scan(b));
  auto out = Exec(UnionAll(std::move(inputs)));
  EXPECT_EQ(out->NumRows(), 3);  // duplicates kept
}

TEST(UnionAllTest, WidthMismatchFails) {
  auto a = MakeTable(AB(), {{1, 1}});
  auto b = MakeTable(Schema({{"x", ColumnType::kInt64}}), {{1}});
  ExecContext ctx;
  std::vector<PlanNodePtr> inputs;
  inputs.push_back(Scan(a));
  inputs.push_back(Scan(b));
  auto plan = UnionAll(std::move(inputs));
  EXPECT_FALSE(plan->Execute(&ctx).ok());
}

TEST(ExplainTest, RendersTree) {
  auto t = MakeTable(AB(), {{1, 2}});
  auto plan = Filter(Scan(t, "facts"), [](const RowView&) { return true; });
  std::string explain = plan->Explain();
  EXPECT_NE(explain.find("Filter"), std::string::npos);
  EXPECT_NE(explain.find("SeqScan on facts"), std::string::npos);
}

TEST(KeyIndexTest, ContainsAndIncrementalAdd) {
  auto t = MakeTable(AB(), {{1, 2}, {3, 4}});
  KeyIndex index(t.get(), {0});
  auto probe = MakeTable(AB(), {{3, 99}, {5, 99}});
  std::vector<int> key = {0};
  EXPECT_TRUE(index.Contains(probe->row(0), key));
  EXPECT_FALSE(index.Contains(probe->row(1), key));
  t->AppendRow({Value::Int64(5), Value::Int64(6)});
  index.AddRow(2);
  EXPECT_TRUE(index.Contains(probe->row(1), key));
}

TEST(SetUnionIntoTest, DedupesOnKey) {
  auto dst = MakeTable(AB(), {{1, 10}});
  auto src = MakeTable(AB(), {{1, 99}, {2, 20}, {2, 21}});
  // Key is column 0 only: {1,99} is a duplicate of {1,10}; {2,21} dups
  // {2,20} within the batch.
  EXPECT_EQ(SetUnionInto(dst.get(), *src, {0}), 1);
  EXPECT_EQ(dst->NumRows(), 2);
}

TEST(DeleteTest, DeleteWhereAndMatching) {
  auto t = MakeTable(AB(), {{1, 0}, {2, 0}, {3, 0}});
  EXPECT_EQ(DeleteWhere(t.get(),
                        [](const RowView& r) { return r[0].i64() == 2; }),
            1);
  EXPECT_EQ(t->NumRows(), 2);
  auto keys = MakeTable(Schema({{"k", ColumnType::kInt64}}), {{3}});
  EXPECT_EQ(DeleteMatching(t.get(), {0}, *keys, {0}), 1);
  ASSERT_EQ(t->NumRows(), 1);
  EXPECT_EQ(t->row(0)[0].i64(), 1);
}

// Property test: HashJoin agrees with a nested-loop reference on random
// inputs, across join types.
class JoinPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinPropertyTest, MatchesNestedLoopReference) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  auto random_table = [&](int64_t rows, int64_t domain) {
    auto t = Table::Make(AB());
    for (int64_t i = 0; i < rows; ++i) {
      t->AppendRow({Value::Int64(rng.UniformInt(0, domain)),
                    Value::Int64(rng.UniformInt(0, domain))});
    }
    return t;
  };
  auto left = random_table(rng.UniformInt(0, 40), 8);
  auto right = random_table(rng.UniformInt(0, 40), 8);

  // Reference: nested loops.
  auto ref_inner = Table::Make(AB());
  auto ref_semi = Table::Make(AB());
  auto ref_anti = Table::Make(AB());
  for (int64_t i = 0; i < left->NumRows(); ++i) {
    bool matched = false;
    for (int64_t j = 0; j < right->NumRows(); ++j) {
      if (left->row(i)[0] == right->row(j)[0]) {
        matched = true;
        ref_inner->AppendRow({left->row(i)[1], right->row(j)[1]});
      }
    }
    if (matched) {
      ref_semi->AppendRow(left->row(i));
    } else {
      ref_anti->AppendRow(left->row(i));
    }
  }

  auto inner = Exec(HashJoin(Scan(left), Scan(right), {0}, {0},
                            JoinType::kInner,
                            {JoinOutputCol::Left(1, "lb"),
                             JoinOutputCol::Right(1, "rb")}));
  auto semi = Exec(HashJoin(Scan(left), Scan(right), {0}, {0},
                           JoinType::kLeftSemi));
  auto anti = Exec(HashJoin(Scan(left), Scan(right), {0}, {0},
                           JoinType::kLeftAnti));
  EXPECT_TRUE(TablesEqualAsBags(*inner, *ref_inner));
  EXPECT_TRUE(TablesEqualAsBags(*semi, *ref_semi));
  EXPECT_TRUE(TablesEqualAsBags(*anti, *ref_anti));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, JoinPropertyTest,
                         ::testing::Range(0, 20));

// Property test: Distinct output has unique keys and preserves membership.
class DistinctPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DistinctPropertyTest, UniqueAndComplete) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  auto t = Table::Make(AB());
  for (int i = 0; i < 60; ++i) {
    t->AppendRow({Value::Int64(rng.UniformInt(0, 6)),
                  Value::Int64(rng.UniformInt(0, 6))});
  }
  auto out = Exec(Distinct(Scan(t)));
  auto rows = out->SortedRows();
  EXPECT_EQ(std::unique(rows.begin(), rows.end()), rows.end());
  // Every input row appears in the output.
  KeyIndex index(out.get(), {0, 1});
  std::vector<int> key = {0, 1};
  for (int64_t i = 0; i < t->NumRows(); ++i) {
    EXPECT_TRUE(index.Contains(t->row(i), key));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DistinctPropertyTest,
                         ::testing::Range(0, 10));


TEST(ExecStatsTest, RendersPerNodeRows) {
  auto t = MakeTable(AB(), {{1, 2}, {3, 4}});
  ExecContext ctx;
  auto plan = Filter(Scan(t, "facts"),
                     [](const RowView& r) { return r[0].i64() > 1; });
  ASSERT_TRUE(plan->Execute(&ctx).ok());
  const ExecStats& stats = ctx.stats();
  ASSERT_EQ(stats.nodes.size(), 2u);  // scan + filter
  EXPECT_EQ(stats.TotalRowsIn(), 4);   // 2 into scan, 2 into filter
  EXPECT_EQ(stats.TotalRowsOut(), 3);  // 2 out of scan, 1 out of filter
  std::string rendered = stats.ToString();
  EXPECT_NE(rendered.find("SeqScan on facts"), std::string::npos);
  EXPECT_NE(rendered.find("rows_out"), std::string::npos);
}

}  // namespace
}  // namespace probkb
