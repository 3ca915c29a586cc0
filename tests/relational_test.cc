#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "relational/catalog.h"
#include "relational/schema.h"
#include "relational/table.h"
#include "relational/value.h"
#include "tests/test_util.h"

namespace probkb {
namespace {

TEST(ValueTest, NullSemantics) {
  Value n = Value::Null();
  EXPECT_TRUE(n.is_null());
  EXPECT_EQ(n, Value::Null());  // DISTINCT-style: NULL == NULL
  EXPECT_NE(n, Value::Int64(0));
  EXPECT_EQ(n.ToString(), "NULL");
}

TEST(ValueTest, Int64AndFloat64) {
  EXPECT_EQ(Value::Int64(7).i64(), 7);
  EXPECT_DOUBLE_EQ(Value::Float64(2.5).f64(), 2.5);
  EXPECT_EQ(Value::Int64(7), Value::Int64(7));
  EXPECT_NE(Value::Int64(7), Value::Int64(8));
  // Cross-type values are never equal, even when numerically equal.
  EXPECT_NE(Value::Int64(1), Value::Float64(1.0));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int64(42).Hash(), Value::Int64(42).Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
  EXPECT_EQ(Value::Float64(0.0).Hash(), Value::Float64(-0.0).Hash());
}

TEST(ValueTest, HashNormalizesNaNPayloads) {
  // Every NaN bit pattern hashes identically (like -0.0 vs 0.0), so the
  // batched column hasher and the scalar Value path can both canonicalize
  // without disagreeing on chain placement.
  const double quiet = std::numeric_limits<double>::quiet_NaN();
  const double negated = -quiet;  // differs in the sign bit
  double payload = quiet;
  uint64_t bits;
  std::memcpy(&bits, &payload, sizeof(bits));
  bits |= 0x5ULL;  // perturb mantissa payload bits, still a NaN
  std::memcpy(&payload, &bits, sizeof(bits));
  ASSERT_TRUE(std::isnan(negated));
  ASSERT_TRUE(std::isnan(payload));
  EXPECT_EQ(Value::Float64(quiet).Hash(), Value::Float64(negated).Hash());
  EXPECT_EQ(Value::Float64(quiet).Hash(), Value::Float64(payload).Hash());
  // NaN is still not equal to a non-NaN, and hashes apart from one.
  EXPECT_NE(Value::Float64(quiet).Hash(), Value::Float64(1.0).Hash());
}

TEST(ValueTest, Ordering) {
  EXPECT_LT(Value::Int64(1), Value::Int64(2));
  EXPECT_LT(Value::Null(), Value::Int64(-100));  // NULL sorts first
  EXPECT_LT(Value::Int64(5), Value::Float64(0.1));  // ints before floats
}

TEST(SchemaTest, FieldLookup) {
  Schema s({{"a", ColumnType::kInt64}, {"b", ColumnType::kFloat64}});
  EXPECT_EQ(s.num_fields(), 2);
  EXPECT_EQ(s.GetFieldIndex("b"), 1);
  EXPECT_EQ(s.GetFieldIndex("missing"), -1);
  auto idx = s.GetFieldIndexChecked("missing");
  EXPECT_FALSE(idx.ok());
  EXPECT_EQ(idx.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "(a INT64, b FLOAT64)");
}

TEST(SchemaTest, Equals) {
  Schema a({{"x", ColumnType::kInt64}});
  Schema b({{"x", ColumnType::kInt64}});
  Schema c({{"x", ColumnType::kFloat64}});
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
}

Schema TwoCol() {
  return Schema({{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64}});
}

TEST(TableTest, AppendAndRead) {
  Table t(TwoCol());
  EXPECT_EQ(t.NumRows(), 0);
  t.AppendRow({Value::Int64(1), Value::Int64(2)});
  t.AppendRow({Value::Int64(3), Value::Int64(4)});
  EXPECT_EQ(t.NumRows(), 2);
  EXPECT_EQ(t.row(1)[0].i64(), 3);
  EXPECT_EQ(t.row(0).ToString(), "[1, 2]");
}

TEST(TableTest, AppendTableAndClone) {
  auto a = testutil::MakeTable(TwoCol(), {{1, 2}, {3, 4}});
  auto b = testutil::MakeTable(TwoCol(), {{5, 6}});
  a->AppendTable(*b);
  EXPECT_EQ(a->NumRows(), 3);
  auto c = a->Clone();
  c->AppendRow({Value::Int64(9), Value::Int64(9)});
  EXPECT_EQ(a->NumRows(), 3);  // clone is deep
  EXPECT_EQ(c->NumRows(), 4);
}

TEST(TableTest, FilterInPlace) {
  auto t = testutil::MakeTable(TwoCol(), {{1, 0}, {2, 0}, {3, 0}, {4, 0}});
  std::vector<bool> keep = {true, false, false, true};
  EXPECT_EQ(t->FilterInPlace(keep), 2);
  ASSERT_EQ(t->NumRows(), 2);
  EXPECT_EQ(t->row(0)[0].i64(), 1);
  EXPECT_EQ(t->row(1)[0].i64(), 4);
}

TEST(TableTest, PermuteRowsMovesValuesAndNulls) {
  Schema schema({{"a", ColumnType::kInt64}, {"w", ColumnType::kFloat64}});
  auto t = Table::Make(schema);
  t->AppendRow({Value::Int64(10), Value::Float64(0.5)});
  t->AppendRow({Value::Int64(11), Value::Null()});
  t->AppendRow({Value::Null(), Value::Float64(2.5)});
  const std::vector<int64_t> order = {2, 0, 1};
  t->PermuteRows(order);
  ASSERT_EQ(t->NumRows(), 3);
  EXPECT_TRUE(t->row(0)[0].is_null());
  EXPECT_EQ(t->row(0)[1].f64(), 2.5);
  EXPECT_EQ(t->row(1)[0].i64(), 10);
  EXPECT_EQ(t->row(1)[1].f64(), 0.5);
  EXPECT_EQ(t->row(2)[0].i64(), 11);
  EXPECT_TRUE(t->row(2)[1].is_null());
}

TEST(TableTest, SortedRowsIsOrderInsensitive) {
  auto a = testutil::MakeTable(TwoCol(), {{3, 4}, {1, 2}});
  auto b = testutil::MakeTable(TwoCol(), {{1, 2}, {3, 4}});
  EXPECT_EQ(a->SortedRows(), b->SortedRows());
}

TEST(TableTest, RowKeyHashAndEquality) {
  auto t = testutil::MakeTable(TwoCol(), {{1, 2}, {1, 3}, {2, 2}});
  std::vector<int> col0 = {0};
  EXPECT_EQ(HashRowKey(t->row(0), col0), HashRowKey(t->row(1), col0));
  EXPECT_TRUE(RowKeyEquals(t->row(0), t->row(1), col0, col0));
  EXPECT_FALSE(RowKeyEquals(t->row(0), t->row(2), col0, col0));
  // Key order matters: (1,2) hashed as (a,b) differs from (2,1).
  std::vector<int> ab = {0, 1}, ba = {1, 0};
  EXPECT_FALSE(RowKeyEquals(t->row(0), t->row(0), ab, ba));
}

TEST(TableTest, ByteSizeGrowsWithRows) {
  Table t(TwoCol());
  int64_t empty = t.ByteSize();
  t.AppendRow({Value::Int64(1), Value::Int64(2)});
  EXPECT_GT(t.ByteSize(), empty);
}

Schema MixedCol() {
  return Schema({{"a", ColumnType::kInt64}, {"w", ColumnType::kFloat64}});
}

TEST(TableTest, ColumnarAccessorsAndNulls) {
  Table t(MixedCol());
  t.AppendRow({Value::Int64(7), Value::Float64(0.5)});
  t.AppendRow({Value::Null(), Value::Null()});
  t.AppendRow({Value::Int64(9), Value::Float64(1.5)});
  // Raw column data: null cells hold the zero sentinel, the bitmap decides.
  EXPECT_EQ(t.Int64Data(0)[0], 7);
  EXPECT_EQ(t.Int64Data(0)[1], 0);
  EXPECT_EQ(t.Int64Data(0)[2], 9);
  EXPECT_DOUBLE_EQ(t.Float64Data(1)[2], 1.5);
  EXPECT_TRUE(t.ColumnHasNulls(0));
  EXPECT_TRUE(t.IsNull(1, 0));
  EXPECT_FALSE(t.IsNull(0, 0));
  // RowView reads through the facade agree with the raw columns.
  EXPECT_TRUE(t.row(1)[0].is_null());
  EXPECT_TRUE(t.row(1)[1].is_null());
  EXPECT_EQ(t.row(2)[0].i64(), 9);
  // A null int cell is not Int64(0): the sentinel never leaks.
  EXPECT_NE(t.row(1)[0], Value::Int64(0));
}

TEST(TableTest, SetFloat64PatchesInPlace) {
  Table t(MixedCol());
  t.AppendRow({Value::Int64(1), Value::Null()});
  t.AppendRow({Value::Int64(2), Value::Float64(0.25)});
  EXPECT_TRUE(t.row(0)[1].is_null());
  t.SetFloat64(0, 1, 0.75);
  EXPECT_FALSE(t.row(0)[1].is_null());
  EXPECT_DOUBLE_EQ(t.row(0)[1].f64(), 0.75);
  EXPECT_DOUBLE_EQ(t.row(1)[1].f64(), 0.25);  // neighbours untouched
  EXPECT_FALSE(t.ColumnHasNulls(1));
}

TEST(TableTest, BatchHashMatchesScalarHash) {
  Table t(MixedCol());
  t.AppendRow({Value::Int64(3), Value::Float64(-0.0)});
  t.AppendRow({Value::Null(), Value::Float64(2.5)});
  t.AppendRow({Value::Int64(-8), Value::Null()});
  const std::vector<int> keys = {0, 1};
  std::vector<size_t> batched(static_cast<size_t>(t.NumRows()));
  t.HashRows(keys, 0, t.NumRows(), batched.data());
  for (int64_t i = 0; i < t.NumRows(); ++i) {
    EXPECT_EQ(batched[static_cast<size_t>(i)], HashRowKey(t.row(i), keys))
        << "row " << i;
  }
}

TEST(TableTest, AppendRowsRange) {
  auto src = testutil::MakeTable(TwoCol(), {{1, 2}, {3, 4}, {5, 6}, {7, 8}});
  Table dst(TwoCol());
  dst.AppendRows(*src, 1, 3);
  ASSERT_EQ(dst.NumRows(), 2);
  EXPECT_EQ(dst.row(0)[0].i64(), 3);
  EXPECT_EQ(dst.row(1)[0].i64(), 5);
}

TEST(CatalogTest, RegisterGetDrop) {
  Catalog catalog;
  auto t = Table::Make(TwoCol());
  ASSERT_TRUE(catalog.Register("t1", t).ok());
  EXPECT_TRUE(catalog.Contains("t1"));
  EXPECT_EQ(catalog.Register("t1", t).code(), StatusCode::kAlreadyExists);
  auto got = catalog.Get("t1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->get(), t.get());
  EXPECT_EQ(catalog.Get("nope").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(catalog.Drop("t1").ok());
  EXPECT_FALSE(catalog.Contains("t1"));
  EXPECT_EQ(catalog.Drop("t1").code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace probkb
