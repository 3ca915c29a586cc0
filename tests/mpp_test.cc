#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <string>
#include <vector>

#include "datagen/synthetic_kb.h"
#include "engine/ops.h"
#include "grounding/mpp_grounder.h"
#include "mpp/mpp_ops.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "util/strings.h"
#include "util/timer.h"

namespace probkb {
namespace {

using testutil::MakeTable;

Schema AB() {
  return Schema({{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64}});
}

TablePtr RandomTable(Rng* rng, int64_t rows, int64_t domain) {
  auto t = Table::Make(AB());
  for (int64_t i = 0; i < rows; ++i) {
    t->AppendRow({Value::Int64(rng->UniformInt(0, domain)),
                  Value::Int64(rng->UniformInt(0, domain))});
  }
  return t;
}

// --- DistributedTable ---------------------------------------------------------

TEST(DistributedTableTest, HashPlacementIsValidAndComplete) {
  Rng rng(1);
  auto local = RandomTable(&rng, 200, 50);
  auto dist =
      DistributedTable::Distribute(*local, 8, Distribution::Hash({0}));
  EXPECT_TRUE(dist->ValidatePlacement().ok());
  EXPECT_EQ(dist->NumRows(), 200);
  EXPECT_TRUE(TablesEqualAsBags(*dist->ToLocal(), *local));
}

TEST(DistributedTableTest, ReplicatedCountsOnceLogically) {
  auto local = MakeTable(AB(), {{1, 2}, {3, 4}});
  auto dist =
      DistributedTable::Distribute(*local, 4, Distribution::Replicated());
  EXPECT_EQ(dist->NumRows(), 2);
  EXPECT_EQ(dist->PhysicalRows(), 8);
  EXPECT_TRUE(TablesEqualAsBags(*dist->ToLocal(), *local));
}

TEST(DistributedTableTest, RandomRoundRobinBalances) {
  Rng rng(2);
  auto local = RandomTable(&rng, 100, 10);
  auto dist = DistributedTable::Distribute(*local, 4, Distribution::Random());
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(dist->segment(s)->NumRows(), 25);
  }
}

TEST(DistributionTest, KeyPredicates) {
  Distribution h = Distribution::Hash({1, 3});
  std::vector<int> same = {1, 3};
  std::vector<int> super = {0, 1, 3};
  std::vector<int> other = {3, 1};
  EXPECT_TRUE(h.IsHashOn(same));
  EXPECT_FALSE(h.IsHashOn(super));
  EXPECT_FALSE(h.IsHashOn(other));  // order matters
}

// --- Motions -------------------------------------------------------------------

TEST(MotionTest, RedistributePreservesRowsAndChargesShipping) {
  Rng rng(3);
  auto local = RandomTable(&rng, 300, 40);
  auto dist = DistributedTable::Distribute(*local, 8, Distribution::Random());
  MppContext ctx(8);
  auto redist = ctx.Redistribute(*dist, {1});
  ASSERT_TRUE(redist.ok());
  EXPECT_TRUE((*redist)->ValidatePlacement().ok());
  EXPECT_TRUE(TablesEqualAsBags(*(*redist)->ToLocal(), *local));
  // Roughly 7/8 of rows move on average; definitely some, never more than
  // all.
  EXPECT_GT(ctx.cost().tuples_shipped(), 0);
  EXPECT_LE(ctx.cost().tuples_shipped(), 300);
  ASSERT_EQ(ctx.cost().steps().size(), 1u);
  EXPECT_EQ(ctx.cost().steps()[0].kind, MppStep::Kind::kRedistribute);
}

TEST(MotionTest, RedistributeAlreadyPlacedShipsNothingAcross) {
  Rng rng(4);
  auto local = RandomTable(&rng, 300, 40);
  auto dist = DistributedTable::Distribute(*local, 8,
                                           Distribution::Hash({0}));
  MppContext ctx(8);
  auto redist = ctx.Redistribute(*dist, {0});
  ASSERT_TRUE(redist.ok());
  EXPECT_EQ(ctx.cost().tuples_shipped(), 0);  // all rows stay put
}

TEST(MotionTest, BroadcastShipsRowsTimesSegmentsMinusOne) {
  Rng rng(5);
  auto local = RandomTable(&rng, 100, 10);
  auto dist = DistributedTable::Distribute(*local, 4, Distribution::Random());
  MppContext ctx(4);
  auto bcast = ctx.Broadcast(*dist);
  ASSERT_TRUE(bcast.ok());
  EXPECT_TRUE((*bcast)->distribution().is_replicated());
  EXPECT_EQ(ctx.cost().tuples_shipped(), 100 * 3);
  EXPECT_TRUE(TablesEqualAsBags(*(*bcast)->ToLocal(), *local));
}

TEST(MotionTest, BroadcastCostsMoreThanRedistribute) {
  // The Figure 4 phenomenon: broadcasting a large input is far more
  // expensive than redistributing it.
  Rng rng(6);
  auto local = RandomTable(&rng, 10000, 1000);
  auto dist =
      DistributedTable::Distribute(*local, 32, Distribution::Random());
  MppContext ctx_r(32), ctx_b(32);
  ASSERT_TRUE(ctx_r.Redistribute(*dist, {0}).ok());
  ASSERT_TRUE(ctx_b.Broadcast(*dist).ok());
  EXPECT_GT(ctx_b.cost().simulated_seconds(),
            3 * ctx_r.cost().simulated_seconds());
}

TEST(MotionTest, GatherCollectsEverything) {
  Rng rng(7);
  auto local = RandomTable(&rng, 64, 8);
  auto dist = DistributedTable::Distribute(*local, 4,
                                           Distribution::Hash({0, 1}));
  MppContext ctx(4);
  auto gathered = ctx.Gather(*dist);
  ASSERT_TRUE(gathered.ok());
  EXPECT_TRUE(TablesEqualAsBags(**gathered, *local));
}

// --- Scatter kernel ----------------------------------------------------------

// The row-at-a-time loops the scatter kernel replaced, kept as its
// reference: Distribute's placement loop, and Redistribute's routing and
// per-target assembly with its per-sender batch counts sent[s][t].
std::vector<TablePtr> ReferenceDistribute(const Table& local, int n,
                                          const Distribution& dist) {
  std::vector<TablePtr> segments;
  for (int i = 0; i < n; ++i) segments.push_back(Table::Make(local.schema()));
  std::vector<int> targets(static_cast<size_t>(local.NumRows()));
  if (dist.is_hash()) {
    DistributedTable::TargetSegments(local, dist.key_cols, n, 0,
                                     local.NumRows(), targets.data());
  }
  for (int64_t r = 0; r < local.NumRows(); ++r) {
    const int t = dist.is_hash() ? targets[static_cast<size_t>(r)]
                                 : static_cast<int>(r % n);
    segments[static_cast<size_t>(t)]->AppendRows(local, r, r + 1);
  }
  return segments;
}

struct ReferenceRedistribution {
  std::vector<TablePtr> segments;
  std::vector<std::vector<int64_t>> sent;
};

ReferenceRedistribution ReferenceRedistribute(const DistributedTable& input,
                                              const std::vector<int>& keys,
                                              int n) {
  if (input.distribution().is_replicated()) {
    return {ReferenceDistribute(*input.segment(0), n, Distribution::Hash(keys)),
            {}};
  }
  ReferenceRedistribution out;
  out.sent.assign(static_cast<size_t>(n),
                  std::vector<int64_t>(static_cast<size_t>(n)));
  std::vector<std::vector<int>> targets(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    const Table& src = *input.segment(s);
    std::vector<int>& tgt = targets[static_cast<size_t>(s)];
    tgt.resize(static_cast<size_t>(src.NumRows()));
    DistributedTable::TargetSegments(src, keys, n, 0, src.NumRows(),
                                     tgt.data());
    for (int64_t r = 0; r < src.NumRows(); ++r) {
      const int target = tgt[static_cast<size_t>(r)];
      if (target != s) {
        ++out.sent[static_cast<size_t>(s)][static_cast<size_t>(target)];
      }
    }
  }
  for (int t = 0; t < n; ++t) {
    auto dst = Table::Make(input.schema());
    for (int s = 0; s < n; ++s) {
      const Table& src = *input.segment(s);
      for (int64_t r = 0; r < src.NumRows(); ++r) {
        if (targets[static_cast<size_t>(s)][static_cast<size_t>(r)] == t) {
          dst->AppendRows(src, r, r + 1);
        }
      }
    }
    out.segments.push_back(std::move(dst));
  }
  return out;
}

/// Cell-for-cell equality of two segment lists: NULL bits, int64 values
/// and float64 bit patterns, in row order.
void ExpectSameSegments(const std::vector<TablePtr>& got,
                        const std::vector<TablePtr>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t s = 0; s < want.size(); ++s) {
    const Table& g = *got[s];
    const Table& w = *want[s];
    ASSERT_EQ(g.NumRows(), w.NumRows()) << what << ": segment " << s;
    for (int64_t r = 0; r < w.NumRows(); ++r) {
      for (int c = 0; c < w.width(); ++c) {
        const Value gv = g.ValueAt(r, c);
        const Value wv = w.ValueAt(r, c);
        const bool same =
            gv.is_null() || wv.is_null() ? gv.is_null() == wv.is_null()
            : gv.is_int64()
                ? wv.is_int64() && gv.i64() == wv.i64()
                : wv.is_float64() && std::bit_cast<uint64_t>(gv.f64()) ==
                                         std::bit_cast<uint64_t>(wv.f64());
        ASSERT_TRUE(same) << what << ": segment " << s << " row " << r
                          << " col " << c;
      }
    }
  }
}

/// (k int64 with NULLs, f float64, n int64 with NULLs); `domain` distinct
/// k values, so a small domain leaves segments empty.
TablePtr MixedTable(Rng* rng, int64_t rows, int64_t domain) {
  auto t = Table::Make(Schema({{"k", ColumnType::kInt64},
                               {"f", ColumnType::kFloat64},
                               {"n", ColumnType::kInt64}}));
  for (int64_t i = 0; i < rows; ++i) {
    const Value key = rng->Bernoulli(0.1)
                          ? Value::Null()
                          : Value::Int64(rng->UniformInt(0, domain));
    t->AppendRow({key,
                  Value::Float64(rng->UniformDouble(-1.0, 1.0)),
                  rng->Bernoulli(0.3) ? Value::Null() : Value::Int64(i)});
  }
  return t;
}

std::vector<TablePtr> Segments(const DistributedTable& t) {
  std::vector<TablePtr> out;
  for (int s = 0; s < t.num_segments(); ++s) out.push_back(t.segment(s));
  return out;
}

// Distribute and Redistribute through the scatter kernel place every row
// on the same segment, in the same in-segment order, as the row-at-a-time
// loops; Redistribute's per-sender batch counts and tuples_shipped are the
// reference's. Hash keys with NULLs and float64 columns, empty segments,
// 1 and 32 segments; Redistribute serial and pooled (the large tables
// cross the pool's row cutoff).
TEST(ScatterKernelTest, MatchesRowAtATimeReference) {
  ThreadPool pool(4);
  Rng rng(17);
  const std::vector<std::vector<int>> key_sets = {{0}, {1, 2}};
  for (int64_t rows : {int64_t{0}, int64_t{5}, int64_t{20000}}) {
    for (int64_t domain : {int64_t{3}, int64_t{1000}}) {
      const TablePtr local = MixedTable(&rng, rows, domain);
      for (int n : {1, 32}) {
        const std::string table =
            StrFormat("rows=%lld domain=%lld segments=%d",
                      static_cast<long long>(rows),
                      static_cast<long long>(domain), n);
        for (const Distribution& dist :
             {Distribution::Random(), Distribution::Hash({0}),
              Distribution::Hash({1, 2})}) {
          ExpectSameSegments(
              Segments(*DistributedTable::Distribute(*local, n, dist)),
              ReferenceDistribute(*local, n, dist),
              table + " distribute " + dist.ToString());
        }
        const DistributedTable partitioned(
            local->schema(),
            ReferenceDistribute(*local, n, Distribution::Random()),
            Distribution::Random(), "in");
        const DistributedTablePtr replicated =
            DistributedTable::Distribute(*local, n, Distribution::Replicated(),
                                         "in");
        const DistributedTable* const inputs[] = {&partitioned,
                                                  replicated.get()};
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          const std::string config =
              StrFormat("%s threads=%d", table.c_str(),
                        p == nullptr ? 1 : p->num_threads());
          for (const std::vector<int>& keys : key_sets) {
            for (const DistributedTable* input : inputs) {
              const std::string what =
                  config + " redistribute " +
                  input->distribution().ToString() + " on " +
                  Distribution::Hash(keys).ToString();
              MppContext ctx(n);
              ctx.set_thread_pool(p);
              auto redist = ctx.Redistribute(*input, keys);
              ASSERT_TRUE(redist.ok()) << redist.status();
              const ReferenceRedistribution want =
                  ReferenceRedistribute(*input, keys, n);
              ExpectSameSegments(Segments(**redist), want.segments, what);
              int64_t shipped = 0;
              for (int s = 0; s < n && !want.sent.empty(); ++s) {
                const Table& src = *input->segment(s);
                const SegmentRouting route = DistributedTable::Route(
                    src, Distribution::Hash(keys), n, 0, src.NumRows());
                for (int t = 0; t < n; ++t) {
                  const int64_t batch =
                      want.sent[static_cast<size_t>(s)][static_cast<size_t>(t)];
                  EXPECT_EQ(t == s ? 0 : route.Count(t), batch) << what;
                  shipped += batch;
                }
              }
              EXPECT_EQ(ctx.cost().tuples_shipped(), shipped) << what;
            }
          }
        }
      }
    }
  }
}

// --- Distributed operators vs single-node reference ----------------------------

class MppOpsEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(MppOpsEquivalenceTest, JoinMatchesSingleNode) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 10);
  auto left_local = RandomTable(&rng, 120, 12);
  auto right_local = RandomTable(&rng, 150, 12);

  ExecContext ec;
  auto expected =
      HashJoin(Scan(left_local), Scan(right_local), {0}, {0},
               JoinType::kInner,
               {JoinOutputCol::Left(1, "lb"), JoinOutputCol::Right(1, "rb")})
          ->Execute(&ec);
  ASSERT_TRUE(expected.ok());

  for (MotionPolicy policy :
       {MotionPolicy::kAuto, MotionPolicy::kBroadcastRight,
        MotionPolicy::kBroadcastLeft}) {
    MppContext ctx(5);
    auto left = DistributedTable::Distribute(*left_local, 5,
                                             Distribution::Random());
    auto right = DistributedTable::Distribute(*right_local, 5,
                                              Distribution::Hash({1}));
    MppJoinSpec spec;
    spec.left_keys = {0};
    spec.right_keys = {0};
    spec.type = JoinType::kInner;
    spec.output_cols = {JoinOutputCol::Left(1, "lb"),
                        JoinOutputCol::Right(1, "rb")};
    spec.policy = policy;
    auto result = MppHashJoin(&ctx, left, right, spec);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(TablesEqualAsBags(*(*result)->ToLocal(), **expected))
        << "policy " << static_cast<int>(policy);
  }
}

TEST_P(MppOpsEquivalenceTest, SemiAntiJoinMatchesSingleNode) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 40);
  auto left_local = RandomTable(&rng, 80, 10);
  auto right_local = RandomTable(&rng, 60, 10);
  for (JoinType type : {JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    ExecContext ec;
    auto expected = HashJoin(Scan(left_local), Scan(right_local), {0}, {0},
                             type)
                        ->Execute(&ec);
    ASSERT_TRUE(expected.ok());
    MppContext ctx(4);
    auto left = DistributedTable::Distribute(*left_local, 4,
                                             Distribution::Hash({0}));
    auto right = DistributedTable::Distribute(*right_local, 4,
                                              Distribution::Random());
    MppJoinSpec spec;
    spec.left_keys = {0};
    spec.right_keys = {0};
    spec.type = type;
    auto result = MppHashJoin(&ctx, left, right, spec);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(TablesEqualAsBags(*(*result)->ToLocal(), **expected));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MppOpsEquivalenceTest, ::testing::Range(0, 8));

TEST(MppOpsTest, DeleteMatchingMatchesSingleNode) {
  Rng rng(11);
  auto local = RandomTable(&rng, 100, 10);
  auto keys = MakeTable(Schema({{"k", ColumnType::kInt64}}), {{3}, {7}});
  auto expected = local->Clone();
  DeleteMatching(expected.get(), {0}, *keys, {0});

  MppContext ctx(4);
  auto dist = DistributedTable::Distribute(*local, 4,
                                           Distribution::Hash({0}));
  auto keys_dist =
      DistributedTable::Distribute(*keys, 4, Distribution::Random());
  auto deleted = MppDeleteMatching(&ctx, dist.get(), {0}, *keys_dist, {0});
  ASSERT_TRUE(deleted.ok());
  EXPECT_TRUE(TablesEqualAsBags(*dist->ToLocal(), *expected));
}

// --- MppGrounder vs single-node Grounder ---------------------------------------

class MppGrounderEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<MppMode, int>> {};

TEST_P(MppGrounderEquivalenceTest, MatchesSingleNodeOnPaperExample) {
  auto [mode, segments] = GetParam();
  KnowledgeBase kb = testutil::BuildPaperExampleKB();

  RelationalKB rkb_single = BuildRelationalModel(kb);
  Grounder single(&rkb_single, GroundingOptions{});
  ASSERT_TRUE(single.GroundAtoms().ok());
  auto phi_single = single.GroundFactors();
  ASSERT_TRUE(phi_single.ok());

  RelationalKB rkb_mpp = BuildRelationalModel(kb);
  MppGrounder mpp(rkb_mpp, segments, mode, GroundingOptions{});
  ASSERT_TRUE(mpp.GroundAtoms().ok());
  auto phi_mpp = mpp.GroundFactors();
  ASSERT_TRUE(phi_mpp.ok()) << phi_mpp.status();

  TablePtr tpi_mpp = mpp.GatherTPi();
  EXPECT_EQ(testutil::TPiAtomSet(*tpi_mpp),
            testutil::TPiAtomSet(*rkb_single.t_pi));
  EXPECT_EQ(testutil::CanonicalizeFactors(**phi_mpp, *tpi_mpp),
            testutil::CanonicalizeFactors(**phi_single, *rkb_single.t_pi));
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSegments, MppGrounderEquivalenceTest,
    ::testing::Combine(::testing::Values(MppMode::kNoViews, MppMode::kViews),
                       ::testing::Values(1, 3, 8)));

TEST(MppGrounderCostTest, ViewsShipFewerTuplesThanNoViews) {
  // ProbKB-p vs ProbKB-pn (Figure 6(c) mechanism): with the materialized
  // views, the second join of each length-3 query redistributes a small
  // intermediate instead of broadcasting it.
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  // Blow the example up a bit so there is actual data volume.
  for (int i = 0; i < 200; ++i) {
    kb.AddFactByName("born_in", "w" + std::to_string(i), "Writer",
                     "c" + std::to_string(i % 20), "City", 0.9);
    kb.AddFactByName("born_in", "w" + std::to_string(i), "Writer",
                     "p" + std::to_string(i % 20), "Place", 0.9);
  }
  RelationalKB rkb1 = BuildRelationalModel(kb);
  MppGrounder with_views(rkb1, 8, MppMode::kViews, GroundingOptions{});
  ASSERT_TRUE(with_views.GroundAtoms().ok());
  ASSERT_TRUE(with_views.GroundFactors().ok());

  RelationalKB rkb2 = BuildRelationalModel(kb);
  MppGrounder no_views(rkb2, 8, MppMode::kNoViews, GroundingOptions{});
  ASSERT_TRUE(no_views.GroundAtoms().ok());
  ASSERT_TRUE(no_views.GroundFactors().ok());

  // Same logical result...
  EXPECT_EQ(testutil::TPiAtomSet(*with_views.GatherTPi()),
            testutil::TPiAtomSet(*no_views.GatherTPi()));
  // ...but the no-views plan broadcasts intermediates.
  int64_t bcast_views = 0, bcast_noviews = 0;
  for (const auto& s : with_views.cost().steps()) {
    if (s.kind == MppStep::Kind::kBroadcast) bcast_views += s.tuples_shipped;
  }
  for (const auto& s : no_views.cost().steps()) {
    if (s.kind == MppStep::Kind::kBroadcast) {
      bcast_noviews += s.tuples_shipped;
    }
  }
  EXPECT_EQ(bcast_views, 0);
  EXPECT_GT(bcast_noviews, 0);
}

TEST(MppGrounderTest, ConstraintApplicationMatchesSingleNode) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  // Add a conflicting born_in City fact so Ruth Gruber violates.
  kb.AddFactByName("born_in", "Ruth Gruber", "Writer", "Chicago", "City",
                   0.5);
  RelationalKB rkb_single = BuildRelationalModel(kb);
  Grounder single(&rkb_single, GroundingOptions{});
  auto deleted_single = single.ApplyConstraints();
  ASSERT_TRUE(deleted_single.ok());

  RelationalKB rkb_mpp = BuildRelationalModel(kb);
  MppGrounder mpp(rkb_mpp, 4, MppMode::kViews, GroundingOptions{});
  auto deleted_mpp = mpp.ApplyConstraints();
  ASSERT_TRUE(deleted_mpp.ok()) << deleted_mpp.status();
  EXPECT_EQ(*deleted_mpp, *deleted_single);
  EXPECT_EQ(testutil::TPiAtomSet(*mpp.GatherTPi()),
            testutil::TPiAtomSet(*rkb_single.t_pi));
}

// An MppGrounder that exposes its per-segment state (T0 and the views).
class SegmentStateProbe : public MppGrounder {
 public:
  using MppGrounder::MppGrounder;
  GroundingCheckpoint State() const {
    GroundingCheckpoint cp;
    SaveState(&cp);
    return cp;
  }
};

TablePtr Concat(const std::vector<TablePtr>& segments) {
  auto out = Table::Make(TPiSchema());
  for (const TablePtr& seg : segments) out->AppendTable(*seg);
  return out;
}

// Query 3 runs the single-node statement on each T0 segment: after two
// iterations on a generated KB it deletes the same rows, records the same
// bans and leaves the same TPi as the single-node grounder, on any segment
// count and in both view modes, and the views keep T0's rows.
class MppGrounderConstraintTest : public ::testing::TestWithParam<int> {};

TEST_P(MppGrounderConstraintTest, ConstraintApplicationMatchesSingleNode) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.004;
  cfg.seed = static_cast<uint64_t>(GetParam()) * 7919 + 3;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());
  GroundingOptions options;
  options.max_iterations = 2;

  RelationalKB rkb_single = BuildRelationalModel(skb->kb);
  Grounder single(&rkb_single, options);
  ASSERT_TRUE(single.GroundAtoms().ok());
  auto deleted_single = single.ApplyConstraints();
  ASSERT_TRUE(deleted_single.ok());
  EXPECT_GT(*deleted_single, 0);

  for (MppMode mode : {MppMode::kNoViews, MppMode::kViews}) {
    for (int segments : {1, 3, 5}) {
      SCOPED_TRACE(StrFormat("%s, %d segments",
                             mode == MppMode::kViews ? "views" : "no views",
                             segments));
      RelationalKB rkb_mpp = BuildRelationalModel(skb->kb);
      SegmentStateProbe mpp(rkb_mpp, segments, mode, options);
      ASSERT_TRUE(mpp.GroundAtoms().ok());
      auto deleted_mpp = mpp.ApplyConstraints();
      ASSERT_TRUE(deleted_mpp.ok()) << deleted_mpp.status();
      EXPECT_EQ(*deleted_mpp, *deleted_single);
      EXPECT_EQ(mpp.banned_x(), single.banned_x());
      EXPECT_EQ(mpp.banned_y(), single.banned_y());
      EXPECT_EQ(testutil::TPiAtomSet(*mpp.GatherTPi()),
                testutil::TPiAtomSet(*rkb_single.t_pi));
      const GroundingCheckpoint state = mpp.State();
      const TablePtr t0 = Concat(state.t0_segments);
      for (const auto* view :
           {&state.tx_segments, &state.ty_segments, &state.txy_segments}) {
        EXPECT_EQ(view->empty(), mode == MppMode::kNoViews);
        if (!view->empty()) {
          EXPECT_TRUE(TablesEqualAsBags(*Concat(*view), *t0));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MppGrounderConstraintTest,
                         ::testing::Range(0, 3));

// Property: MPP and single-node grounders agree on random synthetic KBs
// (both modes), including the factor multiset.
class MppGrounderRandomKbTest : public ::testing::TestWithParam<int> {};

TEST_P(MppGrounderRandomKbTest, MatchesSingleNode) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.002;
  cfg.seed = static_cast<uint64_t>(GetParam()) * 271 + 5;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());

  GroundingOptions options;
  options.max_iterations = 3;

  RelationalKB rkb_single = BuildRelationalModel(skb->kb);
  Grounder single(&rkb_single, options);
  ASSERT_TRUE(single.GroundAtoms().ok());
  auto phi_single = single.GroundFactors();
  ASSERT_TRUE(phi_single.ok());

  for (MppMode mode : {MppMode::kNoViews, MppMode::kViews}) {
    RelationalKB rkb_mpp = BuildRelationalModel(skb->kb);
    MppGrounder mpp(rkb_mpp, 5, mode, options);
    ASSERT_TRUE(mpp.GroundAtoms().ok());
    auto phi_mpp = mpp.GroundFactors();
    ASSERT_TRUE(phi_mpp.ok());
    TablePtr tpi_mpp = mpp.GatherTPi();
    EXPECT_EQ(testutil::TPiAtomSet(*tpi_mpp),
              testutil::TPiAtomSet(*rkb_single.t_pi));
    EXPECT_EQ(testutil::CanonicalizeFactors(**phi_mpp, *tpi_mpp),
              testutil::CanonicalizeFactors(**phi_single,
                                            *rkb_single.t_pi));
  }
}

// Semi-naive MPP grounding reproduces naive MPP grounding exactly (TPi
// with its ids and row order, and TPhi) to the fixpoint, in both modes.
TEST_P(MppGrounderRandomKbTest, SemiNaiveMatchesNaiveExactly) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.002;
  cfg.seed = static_cast<uint64_t>(GetParam()) * 271 + 5;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());
  for (MppMode mode : {MppMode::kNoViews, MppMode::kViews}) {
    std::vector<TablePtr> outputs;
    for (EvaluationMode evaluation :
         {EvaluationMode::kNaive, EvaluationMode::kSemiNaive}) {
      GroundingOptions options;
      options.evaluation = evaluation;
      options.max_iterations = 100;
      RelationalKB rkb = BuildRelationalModel(skb->kb);
      MppGrounder mpp(rkb, 5, mode, options);
      ASSERT_TRUE(mpp.GroundAtoms().ok());
      EXPECT_LT(mpp.stats().iterations, options.max_iterations);
      auto phi = mpp.GroundFactors();
      ASSERT_TRUE(phi.ok());
      outputs.push_back(mpp.GatherTPi());
      outputs.push_back(*phi);
    }
    EXPECT_TRUE(TablesEqualExact(*outputs[0], *outputs[2]));
    EXPECT_TRUE(TablesEqualExact(*outputs[1], *outputs[3]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MppGrounderRandomKbTest,
                         ::testing::Range(0, 4));

TEST(MppGrounderTest, InLoopConstraintsMatchSingleNode) {
  // With constraints applied each iteration, the banned-entity sets must
  // behave identically on both engines (convergence + same closure).
  SyntheticKbConfig cfg;
  cfg.scale = 0.004;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());

  GroundingOptions options;
  options.max_iterations = 6;
  options.apply_constraints_each_iteration = true;

  RelationalKB rkb_single = BuildRelationalModel(skb->kb);
  Grounder single(&rkb_single, options);
  ASSERT_TRUE(single.GroundAtoms().ok());

  RelationalKB rkb_mpp = BuildRelationalModel(skb->kb);
  MppGrounder mpp(rkb_mpp, 4, MppMode::kViews, options);
  ASSERT_TRUE(mpp.GroundAtoms().ok());

  EXPECT_EQ(testutil::TPiAtomSet(*mpp.GatherTPi()),
            testutil::TPiAtomSet(*rkb_single.t_pi));
  EXPECT_EQ(mpp.stats().iterations, single.stats().iterations);
}

// --- Pinned outputs ----------------------------------------------------------

/// Grounds a seeded generated KB on the simulator to the fixpoint (or the
/// iteration cap), resuming from `resume_dir` when non-empty, and digests
/// GatherTPi() (ids and row order included) then TPhi.
uint64_t MppGroundedDigest(MppMode mode, int segments,
                           const GroundingOptions& options,
                           const std::string& resume_dir = "") {
  SyntheticKbConfig cfg;
  cfg.scale = 0.01;
  cfg.seed = 5;
  auto skb = GenerateReverbSherlockKb(cfg);
  EXPECT_TRUE(skb.ok());
  RelationalKB rkb = BuildRelationalModel(skb->kb);
  MppGrounder grounder(rkb, segments, mode, options);
  if (!resume_dir.empty()) {
    EXPECT_TRUE(grounder.ResumeFrom(resume_dir).ok());
  }
  Status st = grounder.GroundAtoms();
  EXPECT_TRUE(st.ok()) << st;
  auto t_phi = grounder.GroundFactors();
  EXPECT_TRUE(t_phi.ok());
  if (!t_phi.ok()) return 0;
  return testutil::TableDigest(**t_phi,
                               testutil::TableDigest(*grounder.GatherTPi()));
}

struct PinnedMppRun {
  MppMode mode;
  int segments;
  bool constraints_in_loop;
  uint64_t digest;
};

// Digests of MppGroundedDigest recorded with the naive MPP Query 1 and the
// per-merge dedup index it used, so any change to the derived sets, the
// merge's content order or the id assignment moves them.
constexpr PinnedMppRun kPinnedMppRuns[] = {
    {MppMode::kViews, 5, false, 0x18fc0627822232d5ULL},
    {MppMode::kViews, 5, true, 0xec6c0291a6d34556ULL},
    {MppMode::kViews, 32, false, 0xf7b853f88c3f00c5ULL},
    {MppMode::kViews, 32, true, 0xcb1058683821a64fULL},
    {MppMode::kNoViews, 5, false, 0xb413e3893067373bULL},
    {MppMode::kNoViews, 5, true, 0x2397f5ecde2640ccULL},
    {MppMode::kNoViews, 32, false, 0xe33c2d1e76709021ULL},
    {MppMode::kNoViews, 32, true, 0x2a201256f14ff02bULL},
};

// Pins TPi and TPhi of the MPP grounder: both view modes, 5 and 32
// segments, 1 and 4 threads, Query 3 in the loop off and on, naive and
// semi-naive, and a checkpoint after iteration 2 resumed to the fixpoint.
TEST(MppGrounderTest, OutputsMatchPinnedDigest) {
  for (const PinnedMppRun& run : kPinnedMppRuns) {
    const std::string config = StrFormat(
        "%s, %d segments, constraints %s",
        run.mode == MppMode::kViews ? "views" : "no views", run.segments,
        run.constraints_in_loop ? "on" : "off");
    for (int threads : {1, 4}) {
      for (EvaluationMode evaluation :
           {EvaluationMode::kNaive, EvaluationMode::kSemiNaive}) {
        GroundingOptions options;
        options.num_threads = threads;
        options.evaluation = evaluation;
        options.apply_constraints_each_iteration = run.constraints_in_loop;
        const uint64_t digest =
            MppGroundedDigest(run.mode, run.segments, options);
        EXPECT_EQ(digest, run.digest)
            << config << ", " << threads << " threads, "
            << (evaluation == EvaluationMode::kNaive ? "naive" : "semi-naive")
            << ": 0x" << std::hex << digest;
      }
    }
    for (EvaluationMode first_mode :
         {EvaluationMode::kNaive, EvaluationMode::kSemiNaive}) {
      const std::string dir =
          ::testing::TempDir() + "/probkb_mpp_pinned_digest";
      std::filesystem::remove_all(dir);
      GroundingOptions first;
      first.max_iterations = 2;
      first.checkpoint_dir = dir;
      first.evaluation = first_mode;
      first.apply_constraints_each_iteration = run.constraints_in_loop;
      MppGroundedDigest(run.mode, run.segments, first);
      GroundingOptions rest;
      rest.apply_constraints_each_iteration = run.constraints_in_loop;
      const uint64_t digest =
          MppGroundedDigest(run.mode, run.segments, rest, dir);
      EXPECT_EQ(digest, run.digest)
          << config << ", resumed from a "
          << (first_mode == EvaluationMode::kNaive ? "naive" : "semi-naive")
          << " checkpoint: 0x" << std::hex << digest;
      std::filesystem::remove_all(dir);
    }
  }
}

// The Δ-driven statements probe the rule tables where they were placed,
// once, on every segment. Iteration 1 runs the full pass, whose join1
// moves M_p; no later iteration ships an M<p> table.
TEST(MppGrounderTest, DeltaIterationsMoveNoRuleTables) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.01;
  cfg.seed = 5;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());
  auto moves_rules = [](const MppStep& step) {
    return step.kind != MppStep::Kind::kCompute && step.label.size() == 2 &&
           step.label[0] == 'M' && step.label[1] >= '1' &&
           step.label[1] <= '6';
  };
  for (MppMode mode : {MppMode::kViews, MppMode::kNoViews}) {
    for (int segments : {5, 32}) {
      SCOPED_TRACE(StrFormat("%s, %d segments",
                             mode == MppMode::kViews ? "views" : "no views",
                             segments));
      RelationalKB rkb = BuildRelationalModel(skb->kb);
      MppGrounder grounder(rkb, segments, mode, GroundingOptions{});
      ASSERT_TRUE(grounder.GroundAtomsIteration().ok());
      const size_t first = grounder.cost().steps().size();
      EXPECT_TRUE(std::ranges::any_of(grounder.cost().steps(), moves_rules));
      int delta_iterations = 0;
      for (;;) {
        Result<int64_t> added = grounder.GroundAtomsIteration();
        ASSERT_TRUE(added.ok()) << added.status();
        ++delta_iterations;
        if (*added == 0) break;
      }
      EXPECT_GE(delta_iterations, 2);
      const std::vector<MppStep>& steps = grounder.cost().steps();
      int motions = 0;
      for (size_t i = first; i < steps.size(); ++i) {
        if (steps[i].kind != MppStep::Kind::kCompute) ++motions;
        EXPECT_FALSE(moves_rules(steps[i])) << steps[i].label;
      }
      EXPECT_GT(motions, 0);
    }
  }
}

TEST(MppCostTest, TraceRendersFigure4Style) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  MppGrounder grounder(rkb, 4, MppMode::kViews, GroundingOptions{});
  auto added = grounder.GroundAtomsIteration();
  ASSERT_TRUE(added.ok());

  const MppCost& cost = grounder.cost();
  EXPECT_FALSE(cost.steps().empty());
  EXPECT_GT(cost.simulated_seconds(), 0.0);
  // Sum of step seconds equals the accumulated simulated time.
  double sum = 0;
  for (const auto& step : cost.steps()) sum += step.seconds;
  EXPECT_NEAR(sum, cost.simulated_seconds(), 1e-12);

  std::string trace = cost.ToString();
  EXPECT_NE(trace.find("Redistribute Motion"), std::string::npos);
  EXPECT_NE(trace.find("Compute"), std::string::npos);
  EXPECT_NE(trace.find("total:"), std::string::npos);
}

TEST(MppGrounderStatsTest, StatementsCountedPerPartition) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  MppGrounder grounder(rkb, 4, MppMode::kViews, GroundingOptions{});
  ASSERT_TRUE(grounder.GroundAtoms().ok());
  // Two non-empty partitions x two iterations, same as the single-node
  // grounder (one SQL-equivalent statement per partition per iteration).
  EXPECT_EQ(grounder.stats().statements, 4);
  EXPECT_EQ(grounder.stats().iterations, 2);
  std::string rendered = grounder.stats().ToString();
  EXPECT_NE(rendered.find("2 iterations"), std::string::npos);
}

// GroundingStats' seconds are measured on MPP too; the modelled seconds
// stay in cost(). A 1 s motion latency makes the two impossible to confuse:
// the simulated total dwarfs the wall-clock of the whole call.
TEST(MppGrounderStatsTest, IterationSecondsAreWallClock) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  CostParams slow_motions;
  slow_motions.motion_latency = 1.0;
  MppGrounder grounder(rkb, 32, MppMode::kViews, GroundingOptions{},
                       slow_motions);
  Timer timer;
  ASSERT_TRUE(grounder.GroundAtoms().ok());
  const double wall = timer.Seconds();
  double summed = 0.0;
  for (double seconds : grounder.stats().iteration_seconds) summed += seconds;
  EXPECT_LE(summed, wall);
  EXPECT_DOUBLE_EQ(grounder.stats().ground_atoms_seconds, summed);
  EXPECT_GT(grounder.cost().simulated_seconds(), wall);
}

TEST(MppGrounderStatsTest, EveryMotionReportsBytesAndSkew) {
  // View refreshes move rows the grounder appends itself; they must report
  // bytes and per-segment rows like the built-in motions do.
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  MppGrounder grounder(rkb, 4, MppMode::kViews, GroundingOptions{});
  StatsRegistry registry;
  grounder.set_stats_registry(&registry);
  ASSERT_TRUE(grounder.GroundAtoms().ok());
  ASSERT_TRUE(grounder.GroundFactors().ok());

  int refreshes = 0;
  for (const MotionTotals& m : registry.motion_totals()) {
    SCOPED_TRACE(m.kind + "/" + m.label);
    if (m.tuples_shipped == 0) {
      EXPECT_EQ(m.bytes_shipped, 0);
      continue;
    }
    // Every label ships one schema, so its bytes are a whole number of
    // 8-byte cells per tuple.
    ASSERT_EQ(m.bytes_shipped % (m.tuples_shipped * 8), 0);
    const int64_t num_fields = m.bytes_shipped / (m.tuples_shipped * 8);
    EXPECT_GE(num_fields, 1);
    EXPECT_GT(m.max_skew, 0.0);
    if (m.label.rfind("refresh ", 0) == 0) {
      ++refreshes;
      EXPECT_EQ(m.bytes_shipped,
                m.tuples_shipped * TPiSchema().num_fields() * 8);
    }
  }
  EXPECT_EQ(refreshes, 3);  // Tx, Ty, Txy
}

// Segment joins run under fresh per-segment ExecContexts; with a registry
// attached their operators are recorded under the fan-out's label, in
// segment order, so the record stream does not depend on the thread count.
TEST(MppGrounderStatsTest, SegmentJoinsReportOperatorStats) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.01;
  cfg.seed = 5;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());
  std::vector<std::vector<std::string>> op_labels;
  std::vector<int64_t> probe_rows;
  for (int threads : {1, 4}) {
    GroundingOptions options;
    options.num_threads = threads;
    RelationalKB rkb = BuildRelationalModel(skb->kb);
    MppGrounder grounder(rkb, 5, MppMode::kViews, options);
    StatsRegistry registry;
    grounder.set_stats_registry(&registry);
    ASSERT_TRUE(grounder.GroundAtoms().ok());
    ASSERT_TRUE(grounder.GroundFactors().ok());
    std::vector<std::string> labels;
    int64_t probed = 0;
    for (const StatementTrace& statement : registry.statements()) {
      // Post-order: a hash join's first child (the probe side) is the
      // subtree finished just before its second.
      std::vector<int64_t> finished;
      for (const OpRecord& op : statement.ops) {
        labels.push_back(statement.scope + "/" + op.label);
        if (op.label.rfind("HashJoin", 0) == 0 && op.num_children == 2 &&
            finished.size() >= 2) {
          probed += finished[finished.size() - 2];
        }
        finished.resize(finished.size() -
                        std::min<size_t>(finished.size(), op.num_children));
        finished.push_back(op.rows_out);
      }
    }
    op_labels.push_back(std::move(labels));
    probe_rows.push_back(probed);
  }
  EXPECT_GT(probe_rows[0], 0);
  EXPECT_EQ(probe_rows[1], probe_rows[0]);
  EXPECT_EQ(op_labels[1], op_labels[0]);
}


TEST(MppOpsErrorTest, BroadcastLeftInvalidForSemiJoin) {
  auto t = MakeTable(AB(), {{1, 2}});
  MppContext ctx(2);
  auto left = DistributedTable::Distribute(*t, 2, Distribution::Random());
  auto right = DistributedTable::Distribute(*t, 2, Distribution::Random());
  MppJoinSpec spec;
  spec.left_keys = {0};
  spec.right_keys = {0};
  spec.type = JoinType::kLeftSemi;
  spec.policy = MotionPolicy::kBroadcastLeft;
  EXPECT_FALSE(MppHashJoin(&ctx, left, right, spec).ok());
}

TEST(MppOpsErrorTest, RedistributeKeyOutOfRange) {
  auto t = MakeTable(AB(), {{1, 2}});
  MppContext ctx(2);
  auto dist = DistributedTable::Distribute(*t, 2, Distribution::Random());
  EXPECT_FALSE(ctx.Redistribute(*dist, {5}).ok());
}

// The join of replicated inputs runs once, through the per-segment runner
// like every segment join, so it also records its operators.
TEST(MppOpsTest, JoinOfReplicatedInputsStaysReplicated) {
  auto left = MakeTable(AB(), {{1, 10}, {2, 20}});
  auto right = MakeTable(AB(), {{1, 100}});
  MppContext ctx(3);
  StatsRegistry registry;
  ctx.set_stats_registry(&registry);
  auto dl = DistributedTable::Distribute(*left, 3, Distribution::Replicated());
  auto dr = DistributedTable::Distribute(*right, 3,
                                         Distribution::Replicated());
  MppJoinSpec spec;
  spec.left_keys = {0};
  spec.right_keys = {0};
  spec.type = JoinType::kInner;
  spec.output_cols = {JoinOutputCol::Left(1, "lb"),
                      JoinOutputCol::Right(1, "rb")};
  auto result = MppHashJoin(&ctx, dl, dr, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE((*result)->distribution().is_replicated());
  EXPECT_EQ((*result)->NumRows(), 1);  // logical count, not x3
  EXPECT_EQ(ctx.cost().tuples_shipped(), 0);
  // One plan, run once: two scans, then the join over them.
  ASSERT_EQ(registry.statements().size(), 1u);
  const StatementTrace& statement = registry.statements()[0];
  EXPECT_EQ(statement.scope, spec.label);
  ASSERT_EQ(statement.ops.size(), 3u);
  EXPECT_EQ(statement.ops[2].num_children, 2);
  EXPECT_EQ(statement.ops[2].rows_out, 1);
}

// A segment whose probe side has no rows runs no plan: its output is an
// empty table of the join's schema, and only the one segment with probe
// rows records operators. The output equals running the join's plan on
// every segment.
TEST(MppOpsTest, EmptyProbeSegmentsRunNoPlan) {
  constexpr int kSegments = 32;
  auto left = Table::Make(AB());
  for (int64_t i = 0; i < 10; ++i) {
    left->AppendRow({Value::Int64(7), Value::Int64(i)});
  }
  Rng rng(17);
  auto right = RandomTable(&rng, 400, 20);
  right->AppendRow({Value::Int64(7), Value::Int64(-1)});
  auto dl = DistributedTable::Distribute(*left, kSegments,
                                         Distribution::Hash({0}), "L");
  auto dr = DistributedTable::Distribute(*right, kSegments,
                                         Distribution::Hash({0}), "R");
  int probed = 0;
  for (int s = 0; s < kSegments; ++s) {
    if (dl->segment(s)->NumRows() > 0) ++probed;
  }
  ASSERT_EQ(probed, 1);

  MppJoinSpec spec;
  spec.left_keys = {0};
  spec.right_keys = {0};
  spec.output_cols = {JoinOutputCol::Left(1, "lb"),
                      JoinOutputCol::Right(1, "rb")};
  spec.output_dist = Distribution::Hash({0});
  spec.label = "sparse join";
  MppContext ctx(kSegments);
  StatsRegistry registry;
  ctx.set_stats_registry(&registry);
  auto skipped = MppHashJoin(&ctx, dl, dr, spec);
  ASSERT_TRUE(skipped.ok()) << skipped.status();
  EXPECT_EQ(ctx.cost().tuples_shipped(), 0);
  ASSERT_EQ((*skipped)->num_segments(), kSegments);
  ASSERT_EQ(registry.statements().size(), 1u);
  EXPECT_EQ(registry.statements()[0].ops.size(), 3u);  // 2 scans, 1 join

  // The unskipped path: the join's plan on every segment.
  MppContext full_ctx(kSegments);
  StatsRegistry full_registry;
  full_ctx.set_stats_registry(&full_registry);
  auto full = PerSegment(
      &full_ctx, dl->PhysicalRows() + dr->PhysicalRows(), spec.output_dist,
      spec.label, [&](int s, ExecContext* ec) {
        return HashJoin(Scan(dl->segment(s), "L"), Scan(dr->segment(s), "R"),
                        spec.left_keys, spec.right_keys, spec.type,
                        spec.output_cols)
            ->Execute(ec);
      });
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_EQ(full_registry.statements().size(), 1u);
  EXPECT_EQ(full_registry.statements()[0].ops.size(), 3u * kSegments);
  EXPECT_GE((*skipped)->NumRows(), 10);  // every left row meets (7, -1)
  for (int s = 0; s < kSegments; ++s) {
    const Table& got = *(*skipped)->segment(s);
    const Table& want = *(*full)->segment(s);
    EXPECT_TRUE(got.schema().Equals(want.schema())) << "segment " << s;
    EXPECT_EQ(got.NumRows(), want.NumRows()) << "segment " << s;
    EXPECT_EQ(testutil::TableDigest(got), testutil::TableDigest(want))
        << "segment " << s;
  }
}

}  // namespace
}  // namespace probkb
