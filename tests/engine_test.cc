#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <map>

#include "engine/ops.h"
#include "engine/plan.h"
#include "engine/tunables.h"
#include "util/strings.h"
#include "util/thread_pool.h"
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

// The inner probe emits (left row, right row) pairs and gathers the output
// a column at a time; semi/anti gather the left rows. Checked row by row
// (order included, cells bit for bit) against nested loops over Value ==,
// on the raw-int64-key path and the RowKeyEquals fallback (float keys with
// +-0.0 and NaN, NULL keys), with a transient build and with a prebuilt
// index that holds more rows than its bound, serially and on 4 threads.
TEST(HashJoinTest, PairGatherMatchesNestedLoopReference) {
  // (k int64, f float64 key, n nullable int64 key, p nullable int64,
  //  q nullable float64)
  const Schema schema({{"k", ColumnType::kInt64},
                       {"f", ColumnType::kFloat64},
                       {"n", ColumnType::kInt64},
                       {"p", ColumnType::kInt64},
                       {"q", ColumnType::kFloat64}});
  const double kFloats[] = {0.0, -0.0, 1.5, 2.5,
                            std::numeric_limits<double>::quiet_NaN()};
  Rng rng(20);
  auto random_table = [&](int64_t rows) {
    auto t = Table::Make(schema);
    for (int64_t i = 0; i < rows; ++i) {
      auto maybe_null = [&](Value v) {
        return rng.UniformInt(0, 5) == 0 ? Value::Null() : v;
      };
      t->AppendRow({Value::Int64(rng.UniformInt(0, 39)),
                    Value::Float64(kFloats[rng.UniformInt(0, 4)]),
                    maybe_null(Value::Int64(rng.UniformInt(0, 3))),
                    maybe_null(Value::Int64(rng.UniformInt(-1000, 1000))),
                    maybe_null(Value::Float64(rng.UniformDouble()))});
    }
    return t;
  };
  const auto left = random_table(kParallelMinRows + 501);
  const auto right = random_table(300);
  const int64_t bound = 241;

  const std::vector<JoinOutputCol> out_cols = {
      JoinOutputCol::Left(3, "lp"),
      JoinOutputCol::Right(4, "rq", ColumnType::kFloat64),
      JoinOutputCol::Right(1, "rf", ColumnType::kFloat64),
      JoinOutputCol::Left(0, "lk"),
      JoinOutputCol::Right(3, "rp"),
      JoinOutputCol::Left(4, "lq", ColumnType::kFloat64)};
  std::vector<Field> out_fields;
  for (const auto& c : out_cols) out_fields.push_back({c.name, c.type});
  const Schema out_schema(out_fields);

  auto reference = [&](const std::vector<int>& keys, JoinType type,
                       int64_t right_rows) {
    auto ref = Table::Make(type == JoinType::kInner ? out_schema : schema);
    for (int64_t i = 0; i < left->NumRows(); ++i) {
      bool matched = false;
      for (int64_t j = 0; j < right_rows; ++j) {
        bool eq = true;
        for (int k : keys) eq = eq && left->row(i)[k] == right->row(j)[k];
        if (!eq) continue;
        matched = true;
        if (type != JoinType::kInner) break;
        std::vector<Value> row;
        for (const auto& c : out_cols) {
          row.push_back(c.side == JoinOutputCol::Side::kLeft
                            ? left->row(i)[c.column]
                            : right->row(j)[c.column]);
        }
        ref->AppendRow(row);
      }
      if (type != JoinType::kInner &&
          matched == (type == JoinType::kLeftSemi)) {
        ref->AppendRow(left->row(i));
      }
    }
    return ref;
  };
  // Cells compare bit for bit, so NaN and -0.0 outputs count too.
  auto expect_same_rows = [](const Table& got, const Table& want,
                             const std::string& what) {
    ASSERT_EQ(got.NumRows(), want.NumRows()) << what;
    ASSERT_EQ(got.width(), want.width()) << what;
    for (int64_t i = 0; i < want.NumRows(); ++i) {
      for (int c = 0; c < want.width(); ++c) {
        const Value g = got.ValueAt(i, c);
        const Value w = want.ValueAt(i, c);
        const bool same =
            g.is_null() || w.is_null()
                ? g.is_null() == w.is_null()
                : g.is_int64() ? w.is_int64() && g.i64() == w.i64()
                               : w.is_float64() &&
                                     std::bit_cast<uint64_t>(g.f64()) ==
                                         std::bit_cast<uint64_t>(w.f64());
        ASSERT_TRUE(same) << what << ": row " << i << " col " << c << " is "
                          << g << ", want " << w;
      }
    }
  };

  ThreadPool pool(4);
  // {k} takes the raw-key path; {k, f} and {n} fall back to RowKeyEquals.
  for (const std::vector<int>& keys :
       {std::vector<int>{0}, std::vector<int>{0, 1}, std::vector<int>{2}}) {
    FlatRowIndex index(right->NumRows());
    std::vector<size_t> hashes(static_cast<size_t>(right->NumRows()));
    right->HashRows(keys, 0, right->NumRows(), hashes.data());
    for (int64_t r = 0; r < right->NumRows(); ++r) {
      index.Insert(hashes[static_cast<size_t>(r)], r);
    }
    for (JoinType type :
         {JoinType::kInner, JoinType::kLeftSemi, JoinType::kLeftAnti}) {
      const auto want_full = reference(keys, type, right->NumRows());
      const auto want_bounded = reference(keys, type, bound);
      if (type == JoinType::kInner) {
        ASSERT_GT(want_bounded->NumRows(), left->NumRows());
      }
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        for (bool prebuilt : {false, true}) {
          ExecContext ctx;
          ctx.set_thread_pool(p);
          auto plan = HashJoin(
              Scan(left), Scan(right), keys, keys, type,
              type == JoinType::kInner ? out_cols
                                       : std::vector<JoinOutputCol>{},
              nullptr,
              prebuilt ? PrebuiltIndex{&index, bound} : PrebuiltIndex{});
          auto result = plan->Execute(&ctx);
          ASSERT_TRUE(result.ok()) << result.status();
          expect_same_rows(
              **result, prebuilt ? *want_bounded : *want_full,
              StrFormat("keys=%zu type=%s threads=%d prebuilt=%d",
                        keys.size(), JoinTypeToString(type),
                        p == nullptr ? 1 : p->num_threads(), prebuilt));
        }
      }
    }
  }
}

// An empty probe (left) side returns an empty output without building,
// for every join type, with a transient build and with a prebuilt index;
// rows_in still counts the build rows.
TEST(HashJoinTest, EmptyProbeSideSkipsTheBuild) {
  auto left = Table::Make(AB());
  auto right = MakeTable(CD(), {{1, 10}, {2, 20}, {2, 21}});
  FlatRowIndex index(right->NumRows());
  std::vector<size_t> hashes(static_cast<size_t>(right->NumRows()));
  const std::vector<int> key = {0};
  right->HashRows(key, 0, right->NumRows(), hashes.data());
  for (int64_t r = 0; r < right->NumRows(); ++r) {
    index.Insert(hashes[static_cast<size_t>(r)], r);
  }
  for (JoinType type :
       {JoinType::kInner, JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    for (bool prebuilt : {false, true}) {
      SCOPED_TRACE(StrFormat("%s prebuilt=%d", JoinTypeToString(type),
                             prebuilt));
      ExecContext ctx;
      auto plan = HashJoin(
          Scan(left), Scan(right), {0}, {0}, type,
          type == JoinType::kInner
              ? std::vector<JoinOutputCol>{JoinOutputCol::Left(1, "b"),
                                           JoinOutputCol::Right(1, "d")}
              : std::vector<JoinOutputCol>{},
          nullptr, prebuilt ? PrebuiltIndex{&index, 2} : PrebuiltIndex{});
      auto result = plan->Execute(&ctx);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ((*result)->NumRows(), 0);
      EXPECT_EQ((*result)->width(), 2);
      const NodeStats& join = ctx.stats().nodes.back();
      EXPECT_EQ(join.rows_in, prebuilt ? 2 : 3);
      EXPECT_EQ(join.rows_out, 0);
      EXPECT_EQ(join.build_partitions, 0);  // no index was built
      EXPECT_EQ(join.build_seconds, 0.0);
    }
  }
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

/// Distinct over float and nullable keys keeps exactly the rows the
/// Value-semantics scan keeps: NULL meets NULL, -0.0 meets 0.0, and NaN
/// meets nothing, so every NaN row stays. The reference compares each row
/// with the rows kept before it, as Distinct did before it compared input
/// rows; the int64 key takes the raw-word path.
TEST(DistinctTest, MatchesValueSemanticsOnNullSignedZeroAndNaNKeys) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Value cells[] = {Value::Null(),         Value::Float64(0.0),
                         Value::Float64(-0.0),  Value::Float64(nan),
                         Value::Float64(-nan),  Value::Float64(1.5)};
  auto t = Table::Make(Schema({{"f", ColumnType::kFloat64},
                               {"i", ColumnType::kInt64},
                               {"tag", ColumnType::kInt64}}));
  Rng rng(7);
  for (int64_t row = 0; row < 300; ++row) {
    const Value f = cells[rng.UniformInt(0, 5)];
    const Value i = rng.UniformInt(0, 4) == 0
                        ? Value::Null()
                        : Value::Int64(rng.UniformInt(0, 3));
    t->AppendRow({f, i, Value::Int64(row)});
  }
  auto ints = Table::Make(AB());
  for (int row = 0; row < 300; ++row) {
    ints->AppendRow({Value::Int64(rng.UniformInt(0, 5)),
                     Value::Int64(rng.UniformInt(0, 5))});
  }
  const std::vector<std::pair<TablePtr, std::vector<int>>> cases = {
      {t, {0}}, {t, {1}}, {t, {0, 1}}, {ints, {0}}, {ints, {}}};
  for (const auto& [in, keys] : cases) {
    std::vector<int> cols = keys;
    if (cols.empty()) {
      for (int c = 0; c < in->width(); ++c) cols.push_back(c);
    }
    auto want = Table::Make(in->schema());
    for (int64_t r = 0; r < in->NumRows(); ++r) {
      bool dup = false;
      for (int64_t k = 0; k < want->NumRows() && !dup; ++k) {
        dup = RowKeyEquals(in->row(r), want->row(k), cols, cols);
      }
      if (!dup) want->AppendRow(in->row(r));
    }
    auto got = Exec(Distinct(Scan(in), keys));
    // Bit patterns, not ==, so NaN cells compare equal to themselves.
    EXPECT_EQ(testutil::TableDigest(*want), testutil::TableDigest(*got))
        << keys.size() << " key(s): " << want->NumRows() << " vs "
        << got->NumRows() << " rows";
  }
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

/// The hash group-by as the unordered_map implementation computed it:
/// groups bucketed by key hash and matched with Value ==, accumulated row
/// at a time. Output order is not part of it; callers compare sorted.
std::vector<std::vector<Value>> ReferenceGroupBy(
    const Table& in, const std::vector<int>& group_cols,
    const std::vector<AggSpec>& aggs) {
  struct Group {
    std::vector<Value> key;
    std::vector<int64_t> count;
    std::vector<double> sum_f;
    std::vector<int64_t> sum_i;
    std::vector<Value> min, max;
  };
  std::map<size_t, std::vector<Group>> buckets;
  for (int64_t i = 0; i < in.NumRows(); ++i) {
    RowView row = in.row(i);
    auto& bucket = buckets[HashRowKey(row, group_cols)];
    Group* g = nullptr;
    for (Group& cand : bucket) {
      bool eq = true;
      for (size_t k = 0; k < group_cols.size(); ++k) {
        eq = eq && cand.key[k] == row[group_cols[k]];
      }
      if (eq) {
        g = &cand;
        break;
      }
    }
    if (g == nullptr) {
      g = &bucket.emplace_back();
      for (int c : group_cols) g->key.push_back(row[c]);
      g->count.assign(aggs.size(), 0);
      g->sum_f.assign(aggs.size(), 0.0);
      g->sum_i.assign(aggs.size(), 0);
      g->min.assign(aggs.size(), Value::Null());
      g->max.assign(aggs.size(), Value::Null());
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      const Value v = aggs[a].kind == AggKind::kCount
                          ? Value::Null()
                          : row[aggs[a].column];
      ++g->count[a];
      if (v.is_float64()) g->sum_f[a] += v.f64();
      if (v.is_int64()) g->sum_i[a] += v.i64();
      if (!v.is_null() && (g->min[a].is_null() || v < g->min[a])) {
        g->min[a] = v;
      }
      if (!v.is_null() && (g->max[a].is_null() || g->max[a] < v)) {
        g->max[a] = v;
      }
    }
  }
  std::vector<std::vector<Value>> rows;
  for (const auto& [h, bucket] : buckets) {
    for (const Group& g : bucket) {
      std::vector<Value> row = g.key;
      for (size_t a = 0; a < aggs.size(); ++a) {
        switch (aggs[a].kind) {
          case AggKind::kCount:
            row.push_back(Value::Int64(g.count[a]));
            break;
          case AggKind::kSum:
            row.push_back(in.schema().field(aggs[a].column).type ==
                                  ColumnType::kFloat64
                              ? Value::Float64(g.sum_f[a])
                              : Value::Int64(g.sum_i[a]));
            break;
          case AggKind::kMin:
            row.push_back(g.min[a]);
            break;
          case AggKind::kMax:
            row.push_back(g.max[a]);
            break;
        }
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

/// Each row as its cells' bit patterns (NULL as a marker), sorted, so NaN
/// and -0.0 cells compare exactly.
std::vector<std::vector<uint64_t>> SortedBits(
    const std::vector<std::vector<Value>>& rows) {
  std::vector<std::vector<uint64_t>> out;
  for (const auto& row : rows) {
    std::vector<uint64_t>& bits = out.emplace_back();
    for (const Value& v : row) {
      bits.push_back(v.is_null() ? 1 : 0);
      bits.push_back(v.is_null()    ? 0
                     : v.is_int64() ? static_cast<uint64_t>(v.i64())
                                    : std::bit_cast<uint64_t>(v.f64()));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<Value>> RowsOf(const Table& t) {
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < t.NumRows(); ++i) {
    std::vector<Value>& row = rows.emplace_back();
    for (int c = 0; c < t.width(); ++c) row.push_back(t.row(i)[c]);
  }
  return rows;
}

TEST(AggregateTest, NullSignedZeroAndNanKeysGroupAsBefore) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto t = Table::Make(Schema({{"k", ColumnType::kInt64},
                               {"f", ColumnType::kFloat64},
                               {"v", ColumnType::kInt64},
                               {"w", ColumnType::kFloat64}}));
  Rng rng(17);
  const Value floats[] = {Value::Float64(0.0), Value::Float64(-0.0),
                          Value::Float64(nan), Value::Float64(-nan),
                          Value::Float64(1.5), Value::Null()};
  for (int i = 0; i < 3000; ++i) {
    const int64_t k = static_cast<int64_t>(rng.Next() % 7);
    t->AppendRow({k == 6 ? Value::Null() : Value::Int64(k),
                  floats[rng.Next() % 6],
                  rng.Next() % 5 == 0
                      ? Value::Null()
                      : Value::Int64(static_cast<int64_t>(rng.Next() % 100)),
                  rng.Next() % 9 == 0 ? Value::Float64(nan)
                                      : Value::Float64(static_cast<double>(
                                            rng.Next() % 1000) / 8.0)});
  }
  const std::vector<AggSpec> aggs = {
      {AggKind::kCount, 0, "cnt"}, {AggKind::kSum, 2, "si"},
      {AggKind::kSum, 3, "sf"},    {AggKind::kMin, 2, "mini"},
      {AggKind::kMax, 3, "maxf"},  {AggKind::kMin, 1, "minf"}};
  for (const std::vector<int>& keys :
       {std::vector<int>{0}, std::vector<int>{1}, std::vector<int>{0, 1},
        std::vector<int>{1, 0}, std::vector<int>{2}, std::vector<int>{}}) {
    auto out = Exec(Aggregate(Scan(t), keys, aggs));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(SortedBits(RowsOf(*out)),
              SortedBits(ReferenceGroupBy(*t, keys, aggs)))
        << keys.size() << " key(s)";
  }
}

TEST(AggregateTest, GroupsComeOutInFirstSeenOrder) {
  auto t = MakeTable(AB(), {{5, 1}, {3, 2}, {5, 3}, {9, 4}, {3, 5}, {1, 6}});
  auto out = Exec(Aggregate(Scan(t), {0},
                           {{AggKind::kCount, 0, "cnt"},
                            {AggKind::kSum, 1, "sum"}}));
  ASSERT_EQ(out->NumRows(), 4);
  const int64_t want[][3] = {{5, 2, 4}, {3, 2, 7}, {9, 1, 4}, {1, 1, 6}};
  for (int64_t i = 0; i < 4; ++i) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(out->row(i)[c].i64(), want[i][c]) << i << "," << c;
    }
  }
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

// With no key rows, or no row matching one, DeleteMatching leaves the
// table unwritten: its columns stay shared with a snapshot taken before.
TEST(DeleteTest, NoMatchLeavesTableUnwritten) {
  auto t = MakeTable(AB(), {{1, 0}, {2, 0}, {3, 0}});
  const Schema k({{"k", ColumnType::kInt64}});
  const ConstTablePtr before = t->Snapshot();
  EXPECT_EQ(DeleteMatching(t.get(), {0}, Table(k), {0}), 0);
  EXPECT_EQ(DeleteMatching(t.get(), {0}, *MakeTable(k, {{7}, {8}}), {0}), 0);
  EXPECT_EQ(t->NumRows(), 3);
  EXPECT_EQ(t->Int64Data(0), before->Int64Data(0));
  // A match rewrites the table; the snapshot keeps its rows.
  EXPECT_EQ(DeleteMatching(t.get(), {0}, *MakeTable(k, {{2}}), {0}), 1);
  EXPECT_NE(t->Int64Data(0), before->Int64Data(0));
  EXPECT_EQ(before->NumRows(), 3);
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
