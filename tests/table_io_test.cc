#include "relational/table_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "engine/ops.h"
#include "fault/checkpoint.h"
#include "kb/relational_model.h"
#include "tests/test_util.h"

namespace probkb {
namespace {

TablePtr SampleTable() {
  auto t = Table::Make(Schema({{"I", ColumnType::kInt64},
                               {"w", ColumnType::kFloat64}}));
  t->AppendRow({Value::Int64(1), Value::Float64(0.5)});
  t->AppendRow({Value::Int64(-7), Value::Null()});
  t->AppendRow({Value::Null(), Value::Float64(1e-300)});
  return t;
}

TEST(TableIoTest, RoundTripPreservesValues) {
  auto t = SampleTable();
  std::ostringstream out;
  ASSERT_TRUE(WriteTableTsv(*t, &out).ok());
  std::istringstream in(out.str());
  auto back = ReadTableTsv(t->schema(), &in);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(TablesEqualAsBags(**back, *t));
}

TEST(TableIoTest, NullEncodedAsBackslashN) {
  auto t = SampleTable();
  std::ostringstream out;
  ASSERT_TRUE(WriteTableTsv(*t, &out).ok());
  EXPECT_NE(out.str().find("\\N"), std::string::npos);
}

TEST(TableIoTest, HeaderValidated) {
  auto t = SampleTable();
  std::ostringstream out;
  ASSERT_TRUE(WriteTableTsv(*t, &out).ok());
  Schema other({{"X", ColumnType::kInt64}, {"w", ColumnType::kFloat64}});
  std::istringstream in(out.str());
  auto result = ReadTableTsv(other, &in);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(TableIoTest, MalformedRowsRejected) {
  Schema schema({{"a", ColumnType::kInt64}});
  {
    std::istringstream in("# a INT64\nnot_a_number\n");
    EXPECT_FALSE(ReadTableTsv(schema, &in).ok());
  }
  {
    std::istringstream in("# a INT64\n1\t2\n");  // too many fields
    EXPECT_FALSE(ReadTableTsv(schema, &in).ok());
  }
  {
    std::istringstream in("");  // missing header
    EXPECT_FALSE(ReadTableTsv(schema, &in).ok());
  }
}

TEST(TableIoTest, EmptyTableRoundTrips) {
  Table t(TPiSchema());
  std::ostringstream out;
  ASSERT_TRUE(WriteTableTsv(t, &out).ok());
  std::istringstream in(out.str());
  auto back = ReadTableTsv(TPiSchema(), &in);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->NumRows(), 0);
}

TEST(TableIoTest, FileRoundTrip) {
  auto t = SampleTable();
  std::string path = ::testing::TempDir() + "/probkb_io_test.tsv";
  ASSERT_TRUE(WriteTableTsvFile(*t, path).ok());
  auto back = ReadTableTsvFile(t->schema(), path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(TablesEqualAsBags(**back, *t));
  EXPECT_FALSE(ReadTableTsvFile(t->schema(), "/nonexistent.tsv").ok());
}

TEST(TableIoTest, DoublePrecisionSurvives) {
  auto t = Table::Make(Schema({{"w", ColumnType::kFloat64}}));
  t->AppendRow({Value::Float64(0.1 + 0.2)});  // not exactly representable
  t->AppendRow({Value::Float64(1.0 / 3.0)});
  std::ostringstream out;
  ASSERT_TRUE(WriteTableTsv(*t, &out).ok());
  std::istringstream in(out.str());
  auto back = ReadTableTsv(t->schema(), &in);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ((*back)->row(0)[0].f64(), 0.1 + 0.2);
  EXPECT_DOUBLE_EQ((*back)->row(1)[0].f64(), 1.0 / 3.0);
}

// A TSV fixture captured verbatim from the row-major Table era. The
// columnar Table must parse it and re-serialize it byte-identically: the
// on-disk interchange format is a compatibility contract, not an
// implementation detail.
TEST(TableIoTest, PreColumnarFixtureRoundTripsByteIdentically) {
  const std::string fixture =
      "# I INT64 w FLOAT64\n"
      "1\t0.5\n"
      "-7\t\\N\n"
      "\\N\t0.25\n";
  Schema schema({{"I", ColumnType::kInt64}, {"w", ColumnType::kFloat64}});
  std::istringstream in(fixture);
  auto table = ReadTableTsv(schema, &in);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ((*table)->NumRows(), 3);
  EXPECT_EQ((*table)->row(0)[0], Value::Int64(1));
  EXPECT_TRUE((*table)->row(1)[1].is_null());
  EXPECT_TRUE((*table)->row(2)[0].is_null());
  std::ostringstream out;
  ASSERT_TRUE(WriteTableTsv(**table, &out).ok());
  EXPECT_EQ(out.str(), fixture);
}

// Full checkpoint cycle through the columnar Table: a PR-1-style
// GroundingCheckpoint (TPi + ban sets + MPP segments) written and read
// back must restore every table bit-exactly — row order included, since
// it determines fact-id assignment on resume.
TEST(TableIoTest, GroundingCheckpointRoundTripsThroughColumnarTable) {
  GroundingCheckpoint cp;
  cp.iteration = 3;
  cp.next_fact_id = 41;
  cp.delta_start = 2;
  cp.t_pi = Table::Make(TPiSchema());
  cp.t_pi->AppendRow({Value::Int64(40), Value::Int64(1), Value::Int64(2),
                      Value::Int64(3), Value::Int64(4), Value::Int64(5),
                      Value::Float64(0.5)});
  cp.t_pi->AppendRow({Value::Int64(39), Value::Int64(1), Value::Int64(6),
                      Value::Int64(3), Value::Int64(7), Value::Int64(5),
                      Value::Null()});
  cp.banned_x = Table::Make(BannedEntitySchema());
  cp.banned_x->AppendRow({Value::Int64(2), Value::Int64(3)});
  cp.banned_y = Table::Make(BannedEntitySchema());
  cp.num_segments = 2;
  for (int s = 0; s < 2; ++s) {
    auto seg = Table::Make(TPiSchema());
    seg->AppendRow({Value::Int64(10 + s), Value::Int64(1), Value::Int64(s),
                    Value::Int64(3), Value::Int64(s), Value::Int64(5),
                    Value::Float64(0.25 * (s + 1))});
    cp.t0_segments.push_back(seg);
    cp.tx_segments.push_back(seg->Clone());
    cp.ty_segments.push_back(Table::Make(TPiSchema()));
    cp.txy_segments.push_back(Table::Make(TPiSchema()));
  }
  const std::string dir = ::testing::TempDir() + "/probkb_cp_columnar";
  ASSERT_TRUE(WriteGroundingCheckpoint(cp, dir).ok());
  ASSERT_TRUE(GroundingCheckpointExists(dir));
  auto back = ReadGroundingCheckpoint(TPiSchema(), dir);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->iteration, cp.iteration);
  EXPECT_EQ(back->next_fact_id, cp.next_fact_id);
  EXPECT_EQ(back->delta_start, cp.delta_start);
  EXPECT_EQ(back->num_segments, 2);
  EXPECT_TRUE(TablesEqualExact(*back->t_pi, *cp.t_pi));
  EXPECT_TRUE(TablesEqualExact(*back->banned_x, *cp.banned_x));
  EXPECT_TRUE(TablesEqualExact(*back->banned_y, *cp.banned_y));
  for (int s = 0; s < 2; ++s) {
    EXPECT_TRUE(
        TablesEqualExact(*back->t0_segments[s], *cp.t0_segments[s]));
    EXPECT_TRUE(
        TablesEqualExact(*back->tx_segments[s], *cp.tx_segments[s]));
    EXPECT_TRUE(
        TablesEqualExact(*back->ty_segments[s], *cp.ty_segments[s]));
  }
}

// --- Columnar encoding (spill pages) ---------------------------------------------

Schema MixedSchema() {
  return Schema({{"k", ColumnType::kInt64}, {"w", ColumnType::kFloat64}});
}

TablePtr MixedTable(int rows) {
  auto t = Table::Make(MixedSchema());
  for (int i = 0; i < rows; ++i) {
    // Exercise NULLs on both column types and a non-trivial double.
    t->AppendRow({i % 5 == 3 ? Value::Null() : Value::Int64(i * 7 - 3),
                  i % 4 == 1 ? Value::Null() : Value::Float64(0.1 * i - 2.5)});
  }
  return t;
}

TEST(ColumnarEncodingTest, RoundTripsBitIdentically) {
  TablePtr t = MixedTable(37);
  std::string bytes;
  EncodeTableColumnar(*t, &bytes);
  auto back = DecodeTableColumnar(t->schema(), bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(TablesEqualExact(**back, *t));
  // NULLs survive as NULLs, not as zero values.
  EXPECT_TRUE((*back)->IsNull(3, 0));
  EXPECT_TRUE((*back)->IsNull(1, 1));
  EXPECT_FALSE((*back)->IsNull(0, 0));
}

TEST(ColumnarEncodingTest, EmptyTableRoundTrips) {
  TablePtr t = Table::Make(MixedSchema());
  std::string bytes;
  EncodeTableColumnar(*t, &bytes);
  auto back = DecodeTableColumnar(t->schema(), bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ((*back)->NumRows(), 0);
}

TEST(ColumnarEncodingTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeTableColumnar(MixedSchema(), "short").ok());
  std::string bytes;
  EncodeTableColumnar(*MixedTable(4), &bytes);
  bytes.push_back('x');  // trailing junk
  EXPECT_FALSE(DecodeTableColumnar(MixedSchema(), bytes).ok());
}

}  // namespace
}  // namespace probkb
