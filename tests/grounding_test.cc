#include "grounding/grounder.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "datagen/synthetic_kb.h"
#include "engine/ops.h"
#include "grounding/partition_queries.h"
#include "grounding/tpi_indexes.h"
#include "tests/test_util.h"

namespace probkb {
namespace {

using testutil::BuildPaperExampleKB;
using testutil::TableDigest;
using testutil::TPiAtomSet;

class PaperExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kb_ = BuildPaperExampleKB();
    ASSERT_TRUE(kb_.Validate().ok());
    rkb_ = BuildRelationalModel(kb_);
    rg_ = kb_.entities().Lookup("Ruth Gruber");
    nyc_ = kb_.entities().Lookup("New York City");
    br_ = kb_.entities().Lookup("Brooklyn");
    w_ = kb_.classes().Lookup("Writer");
    c_ = kb_.classes().Lookup("City");
    p_ = kb_.classes().Lookup("Place");
    born_ = kb_.relations().Lookup("born_in");
    live_ = kb_.relations().Lookup("live_in");
    grow_ = kb_.relations().Lookup("grow_up_in");
    located_ = kb_.relations().Lookup("located_in");
  }

  KnowledgeBase kb_;
  RelationalKB rkb_;
  EntityId rg_, nyc_, br_;
  ClassId w_, c_, p_;
  RelationId born_, live_, grow_, located_;
};

TEST_F(PaperExampleTest, RelationalModelShapes) {
  EXPECT_EQ(rkb_.t_pi->NumRows(), 2);
  EXPECT_EQ(rkb_.m[0]->NumRows(), 4);  // M1
  EXPECT_EQ(rkb_.m[1]->NumRows(), 0);  // M2
  EXPECT_EQ(rkb_.m[2]->NumRows(), 2);  // M3
  EXPECT_EQ(rkb_.t_omega->NumRows(), 1);
  EXPECT_EQ(rkb_.next_fact_id, 2);
}

TEST_F(PaperExampleTest, FirstIterationInfersM1AndM3Atoms) {
  Grounder grounder(&rkb_, GroundingOptions{});
  auto added = grounder.GroundAtomsIteration();
  ASSERT_TRUE(added.ok()) << added.status();
  // Four M1 conclusions plus located_in(Brooklyn, NYC) from the born_in
  // pair (both partitions are applied against the initial snapshot).
  EXPECT_EQ(*added, 5);

  auto atoms = TPiAtomSet(*rkb_.t_pi);
  EXPECT_TRUE(atoms.count({live_, rg_, w_, nyc_, c_}));
  EXPECT_TRUE(atoms.count({live_, rg_, w_, br_, p_}));
  EXPECT_TRUE(atoms.count({grow_, rg_, w_, nyc_, c_}));
  EXPECT_TRUE(atoms.count({grow_, rg_, w_, br_, p_}));
  EXPECT_TRUE(atoms.count({located_, br_, p_, nyc_, c_}));
}

TEST_F(PaperExampleTest, ClosureReachesFixpoint) {
  Grounder grounder(&rkb_, GroundingOptions{});
  ASSERT_TRUE(grounder.GroundAtoms().ok());
  // 2 base facts + 5 inferred; the second iteration re-derives
  // located_in from live_in, which is already present -> fixpoint.
  EXPECT_EQ(rkb_.t_pi->NumRows(), 7);
  EXPECT_EQ(grounder.stats().iterations, 2);
  EXPECT_EQ(grounder.stats().iteration_new_atoms.back(), 0);
}

TEST_F(PaperExampleTest, GroundFactorsMatchesFigure3) {
  Grounder grounder(&rkb_, GroundingOptions{});
  ASSERT_TRUE(grounder.GroundAtoms().ok());
  auto t_phi = grounder.GroundFactors();
  ASSERT_TRUE(t_phi.ok()) << t_phi.status();

  // Figure 3(e): 4 M1 factors, 2 M3 factors (one per rule), 2 singletons.
  EXPECT_EQ((*t_phi)->NumRows(), 8);

  auto canon = testutil::CanonicalizeFactors(**t_phi, *rkb_.t_pi);
  using testutil::AtomKey;
  AtomKey born_nyc{born_, rg_, w_, nyc_, c_};
  AtomKey born_br{born_, rg_, w_, br_, p_};
  AtomKey live_nyc{live_, rg_, w_, nyc_, c_};
  AtomKey live_br{live_, rg_, w_, br_, p_};
  AtomKey loc{located_, br_, p_, nyc_, c_};

  auto contains = [&](const testutil::CanonicalFactor& f) {
    for (const auto& g : canon) {
      if (g == f) return true;
    }
    return false;
  };
  // live_in(RG, NYC) <- born_in(RG, NYC), weight 1.53.
  EXPECT_TRUE(contains({live_nyc, {born_nyc}, 1530}));
  // live_in(RG, Br) <- born_in(RG, Br), weight 1.40.
  EXPECT_TRUE(contains({live_br, {born_br}, 1400}));
  // located_in <- born_in(RG, Br) & born_in(RG, NYC), weight 0.52.
  EXPECT_TRUE(contains({loc, {born_br, born_nyc}, 520}));
  // located_in <- live_in(RG, Br) & live_in(RG, NYC), weight 0.32.
  EXPECT_TRUE(contains({loc, {live_br, live_nyc}, 320}));
  // Singletons for the two extracted facts.
  EXPECT_TRUE(contains({born_nyc, {}, 960}));
  EXPECT_TRUE(contains({born_br, {}, 930}));
}

TEST_F(PaperExampleTest, FactorsHaveNoDuplicatesWithinPartition) {
  // Proposition 1: Query 2-i emits no duplicate (I1, I2, I3).
  Grounder grounder(&rkb_, GroundingOptions{});
  ASSERT_TRUE(grounder.GroundAtoms().ok());
  for (int p = 1; p <= kNumRuleStructures; ++p) {
    if (rkb_.m[static_cast<size_t>(p - 1)]->NumRows() == 0) continue;
    ExecContext ec;
    auto factors = GroundFactorsForPartition(
        p, rkb_.m[static_cast<size_t>(p - 1)], rkb_.t_pi, rkb_.t_pi,
        rkb_.t_pi, &ec);
    ASSERT_TRUE(factors.ok());
    auto rows = (*factors)->SortedRows();
    auto unique_end = std::unique(rows.begin(), rows.end());
    EXPECT_EQ(unique_end, rows.end())
        << "duplicate factor in partition " << p;
  }
}

TEST_F(PaperExampleTest, ConstraintRemovesAmbiguousBornIn) {
  // born_in is Type-I functional with degree 1; Ruth Gruber is born in two
  // places *of different classes* (City and Place), which Query 3 groups
  // separately — so no violation is flagged on the clean example.
  Grounder grounder(&rkb_, GroundingOptions{});
  auto deleted = grounder.ApplyConstraints();
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 0);

  // Add a second born_in City fact: now (born_in, RG, W, C) has 2 rows >
  // degree 1, so RG is flagged and every fact keyed by (RG, W) as x is
  // removed.
  EntityId chicago = kb_.entities().GetOrAdd("Chicago");
  AppendFactRow(rkb_.t_pi.get(), rkb_.next_fact_id++,
                {born_, rg_, w_, chicago, c_, 0.5});
  auto deleted2 = grounder.ApplyConstraints();
  ASSERT_TRUE(deleted2.ok());
  EXPECT_EQ(*deleted2, 3);  // all three born_in facts have x = (RG, W)
  EXPECT_EQ(rkb_.t_pi->NumRows(), 0);
}

TEST_F(PaperExampleTest, StatementCountIsPerPartitionNotPerRule) {
  Grounder grounder(&rkb_, GroundingOptions{});
  ASSERT_TRUE(grounder.GroundAtoms().ok());
  // Two non-empty partitions, two iterations -> 4 statements, although 6
  // rules exist. Tuffy-T would have issued 6 per iteration.
  EXPECT_EQ(grounder.stats().statements, 4);
}

TEST_F(PaperExampleTest, SemiNaiveRejectsNegativeRuleRelation) {
  // The delta passes route atoms by relation id; a rule table with a
  // negative one is malformed input and comes back as a Status.
  const Table& m3 = *rkb_.m[2];
  auto bad = Table::Make(m3.schema());
  for (int64_t i = 0; i < m3.NumRows(); ++i) {
    std::vector<Value> row;
    for (int c = 0; c < m3.width(); ++c) row.push_back(m3.row(i)[c]);
    if (i == 0) row[mlen3::kR3] = Value::Int64(-1);
    bad->AppendRow(row);
  }
  rkb_.m[2] = bad;
  Grounder grounder(&rkb_, GroundingOptions{});
  ASSERT_TRUE(grounder.GroundAtomsIteration().ok());  // the full pass
  auto second = grounder.GroundAtomsIteration();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
}

TEST(MergeAtomsTest, AssignsFreshIdsAndDedupes) {
  auto t_pi = Table::Make(TPiSchema());
  AppendFactRow(t_pi.get(), 0, {7, 1, 2, 3, 4, 0.5});
  FactId next = 1;

  auto atoms = Table::Make(AtomSchema());
  atoms->AppendRow({Value::Int64(7), Value::Int64(1), Value::Int64(2),
                    Value::Int64(3), Value::Int64(4)});  // duplicate
  atoms->AppendRow({Value::Int64(8), Value::Int64(1), Value::Int64(2),
                    Value::Int64(3), Value::Int64(4)});  // new
  atoms->AppendRow({Value::Int64(8), Value::Int64(1), Value::Int64(2),
                    Value::Int64(3), Value::Int64(4)});  // dup within batch

  TPiIndexes indexes;
  auto merged = indexes.MergeAtoms(t_pi.get(), *atoms, &next, nullptr);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 1);
  EXPECT_EQ(t_pi->NumRows(), 2);
  EXPECT_EQ(next, 2);
  RowView added = t_pi->row(1);
  EXPECT_EQ(added[tpi::kI].i64(), 1);
  EXPECT_TRUE(added[tpi::kW].is_null());

  // A second batch dedups against the first batch's appended row, and a
  // dropped row is neither appended nor remembered.
  auto more = Table::Make(AtomSchema());
  more->AppendRow({Value::Int64(8), Value::Int64(1), Value::Int64(2),
                   Value::Int64(3), Value::Int64(4)});  // merged above
  more->AppendRow({Value::Int64(9), Value::Int64(1), Value::Int64(2),
                   Value::Int64(3), Value::Int64(4)});  // dropped
  more->AppendRow({Value::Int64(9), Value::Int64(5), Value::Int64(2),
                   Value::Int64(3), Value::Int64(4)});  // new
  auto drop_r9_x1 = [](const RowView& row) {
    return row[atom::kR].i64() == 9 && row[atom::kX].i64() == 1;
  };
  merged = indexes.MergeAtoms(t_pi.get(), *more, &next, drop_r9_x1);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 1);
  ASSERT_EQ(t_pi->NumRows(), 3);
  EXPECT_EQ(t_pi->row(2)[tpi::kR].i64(), 9);
  EXPECT_EQ(t_pi->row(2)[tpi::kX].i64(), 5);
  EXPECT_EQ(t_pi->row(2)[tpi::kI].i64(), 2);
  EXPECT_EQ(next, 3);
}

// Merges grow TPi's columns geometrically (Table::AppendColumns): a run of
// one-atom merges moves the id column's buffer O(log N) times, where an
// exact reserve before each merge would move it on every merge.
TEST(MergeAtomsTest, OneRowMergesMoveTheColumnsLogarithmicallyOften) {
  constexpr int kMerges = 1000;
  auto t_pi = Table::Make(TPiSchema());
  AppendFactRow(t_pi.get(), 0, {7, 1, 2, 3, 4, 0.5});
  FactId next = 1;
  auto atoms = Table::Make(AtomSchema());
  atoms->AppendRow({Value::Int64(8), Value::Int64(1), Value::Int64(2),
                    Value::Int64(3), Value::Int64(4)});
  const std::vector<int64_t> first_row = {0};
  int moves = 0;
  const FactId* ids = t_pi->Int64Data(tpi::kI);
  for (int i = 0; i < kMerges; ++i) {
    ASSERT_EQ(AppendAtomRows(t_pi.get(), *atoms, first_row, &next), 1);
    if (t_pi->Int64Data(tpi::kI) != ids) {
      ids = t_pi->Int64Data(tpi::kI);
      ++moves;
    }
  }
  EXPECT_EQ(t_pi->NumRows(), kMerges + 1);
  EXPECT_EQ(t_pi->row(kMerges)[tpi::kI].i64(), kMerges);
  EXPECT_LE(moves, 12) << "the id column moved on " << moves << " of "
                       << kMerges << " merges";
}

// Every TPi join probes one of the persistent indexes bounded to the rows
// pinned by Sync(): rows merged afterwards stay invisible to the join, even
// through Txy, which the merge extends at once.
TEST(MergeAtomsTest, SyncPinsTheJoinBound) {
  auto t_pi = Table::Make(TPiSchema());
  AppendFactRow(t_pi.get(), 0, {7, 1, 2, 3, 4, 0.5});
  FactId next = 1;
  TPiIndexes indexes;
  ASSERT_TRUE(indexes.Sync(*t_pi).ok());

  auto atoms = Table::Make(AtomSchema());
  atoms->AppendRow({Value::Int64(7), Value::Int64(6), Value::Int64(2),
                    Value::Int64(3), Value::Int64(4)});
  ASSERT_TRUE(indexes.MergeAtoms(t_pi.get(), *atoms, &next, nullptr).ok());
  ASSERT_EQ(t_pi->NumRows(), 2);

  const PrebuiltIndex txy = indexes.Find(t_pi.get(), ViewKeysTxy());
  ASSERT_NE(txy.index, nullptr);
  EXPECT_EQ(txy.rows, 1);
  EXPECT_EQ(indexes.Find(t_pi.get(), std::vector<int>{tpi::kR}).index,
            nullptr);
  auto other = t_pi->Clone();
  EXPECT_EQ(indexes.Find(other.get(), ViewKeysTxy()).index, nullptr);

  // Probe both atoms' keys: only the pinned row matches.
  ExecContext ec;
  auto joined =
      HashJoin(Scan(atoms->Clone()), Scan(t_pi, "T", txy.rows),
               {atom::kR, atom::kC1, atom::kX, atom::kC2, atom::kY},
               ViewKeysTxy(), JoinType::kInner,
               {JoinOutputCol::Right(tpi::kI, "I")}, nullptr, txy)
          ->Execute(&ec);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ((*joined)->NumRows(), 0);
  auto first = Table::Make(AtomSchema());
  first->AppendRow({Value::Int64(7), Value::Int64(1), Value::Int64(2),
                    Value::Int64(3), Value::Int64(4)});
  joined = HashJoin(Scan(first), Scan(t_pi, "T", txy.rows),
                    {atom::kR, atom::kC1, atom::kX, atom::kC2, atom::kY},
                    ViewKeysTxy(), JoinType::kInner,
                    {JoinOutputCol::Right(tpi::kI, "I")}, nullptr, txy)
               ->Execute(&ec);
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ((*joined)->NumRows(), 1);
  EXPECT_EQ((*joined)->row(0)[0].i64(), 0);

  // The next Sync() moves the bound to every current row.
  ASSERT_TRUE(indexes.Sync(*t_pi).ok());
  EXPECT_EQ(indexes.Find(t_pi.get(), ViewKeysTxy()).rows, 2);
}

// --- Semi-naive evaluation ----------------------------------------------------

TEST_F(PaperExampleTest, SemiNaiveMatchesNaiveClosure) {
  RelationalKB rkb2 = BuildRelationalModel(kb_);
  Grounder grounder_semi(&rkb2, GroundingOptions{});  // the default
  ASSERT_TRUE(grounder_semi.GroundAtoms().ok());

  GroundingOptions naive;
  naive.evaluation = EvaluationMode::kNaive;
  Grounder grounder_naive(&rkb_, naive);
  ASSERT_TRUE(grounder_naive.GroundAtoms().ok());

  EXPECT_TRUE(TablesEqualExact(*rkb2.t_pi, *rkb_.t_pi));
}

// --- Pinned outputs ----------------------------------------------------------

/// Grounds a seeded generated KB of `scale` to `options.max_iterations`
/// (resuming from `resume_dir` when non-empty) and digests TPi (ids
/// included) then TPhi.
uint64_t GroundedDigest(uint64_t seed, const GroundingOptions& options,
                        const std::string& resume_dir = "",
                        double scale = 0.02) {
  SyntheticKbConfig cfg;
  cfg.scale = scale;
  cfg.seed = seed;
  auto skb = GenerateReverbSherlockKb(cfg);
  EXPECT_TRUE(skb.ok());
  RelationalKB rkb = BuildRelationalModel(skb->kb);
  Grounder grounder(&rkb, options);
  if (!resume_dir.empty()) {
    EXPECT_TRUE(grounder.ResumeFrom(resume_dir).ok());
  }
  Status st = grounder.GroundAtoms();
  EXPECT_TRUE(st.ok()) << st;
  auto t_phi = grounder.GroundFactors();
  EXPECT_TRUE(t_phi.ok());
  if (!t_phi.ok()) return 0;
  return TableDigest(**t_phi, TableDigest(*rkb.t_pi));
}

// Digests of GroundedDigest(5, ...) at 4 iterations, recorded before the
// persistent TPi indexes existed, so any change to merge order, id
// assignment or join output order moves them.
constexpr uint64_t kNaive = 0x1e3a8ee7d50afb7bULL;
constexpr uint64_t kConstraints = 0x11e74d9deed79e8aULL;

// Pins TPi (keys, ids, weights, row order) and TPhi of the single-node
// grounder: naive and semi-naive at 1 and 4 threads, Query 3 inside the
// loop (which deletes mid-run), and checkpoint/resume round trips, one of
// them switching from naive to semi-naive at the checkpoint.
TEST(GroundingTest, OutputsMatchPinnedDigest) {
  for (int threads : {1, 4}) {
    for (EvaluationMode mode :
         {EvaluationMode::kNaive, EvaluationMode::kSemiNaive}) {
      GroundingOptions options;
      options.max_iterations = 4;
      options.num_threads = threads;
      options.evaluation = mode;
      const uint64_t digest = GroundedDigest(5, options);
      EXPECT_EQ(digest, kNaive)
          << "threads " << threads << ", "
          << (mode == EvaluationMode::kNaive ? "naive" : "semi-naive")
          << ": 0x" << std::hex << digest;
    }
  }
  {
    GroundingOptions constrained;
    constrained.max_iterations = 4;
    constrained.apply_constraints_each_iteration = true;
    constrained.evaluation = EvaluationMode::kNaive;
    const uint64_t digest = GroundedDigest(5, constrained);
    EXPECT_EQ(digest, kConstraints) << "0x" << std::hex << digest;
  }
  for (EvaluationMode first_mode :
       {EvaluationMode::kNaive, EvaluationMode::kSemiNaive}) {
    const std::string dir =
        ::testing::TempDir() + "/probkb_grounding_pinned_digest";
    std::filesystem::remove_all(dir);
    GroundingOptions first;
    first.max_iterations = 2;
    first.checkpoint_dir = dir;
    first.evaluation = first_mode;
    GroundedDigest(5, first);
    GroundingOptions rest;
    rest.max_iterations = 4;
    rest.evaluation = EvaluationMode::kSemiNaive;
    const uint64_t digest = GroundedDigest(5, rest, dir);
    EXPECT_EQ(digest, kNaive)
        << "resumed from a "
        << (first_mode == EvaluationMode::kNaive ? "naive" : "semi-naive")
        << " checkpoint: 0x" << std::hex << digest;
    std::filesystem::remove_all(dir);
  }
}

// Query 3 inside the loop deletes rows mid-run: semi-naive runs the full
// pass after every iteration that deleted and must still match naive.
TEST(GroundingTest, SemiNaiveConstraintsInLoopMatchPinnedDigest) {
  GroundingOptions options;
  options.max_iterations = 4;
  options.apply_constraints_each_iteration = true;
  options.evaluation = EvaluationMode::kSemiNaive;
  const uint64_t digest = GroundedDigest(5, options);
  EXPECT_EQ(digest, kConstraints) << "0x" << std::hex << digest;
}

// Fact ids that do not rise with row order (here: a KB loaded with its
// ids reversed) cannot order derivations as naive does, so semi-naive
// runs the full pass and still matches naive exactly.
TEST(GroundingTest, SemiNaiveMatchesNaiveWhenIdsDescend) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.003;
  cfg.seed = 7;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());
  auto ground = [&](EvaluationMode mode) {
    RelationalKB rkb = BuildRelationalModel(skb->kb);
    auto reversed = Table::Make(TPiSchema());
    const int64_t n = rkb.t_pi->NumRows();
    for (int64_t i = 0; i < n; ++i) {
      AppendFactRow(reversed.get(), n - 1 - i, FactFromRow(rkb.t_pi->row(i)));
    }
    rkb.t_pi = reversed;
    GroundingOptions options;
    options.evaluation = mode;
    Grounder grounder(&rkb, options);
    EXPECT_TRUE(grounder.GroundAtoms().ok());
    EXPECT_GT(grounder.stats().iterations, 2);
    return rkb.t_pi;
  };
  EXPECT_TRUE(TablesEqualExact(*ground(EvaluationMode::kSemiNaive),
                               *ground(EvaluationMode::kNaive)));
}

// Property: semi-naive evaluation reproduces naive's TPi (ids and row
// order included) and TPhi on random synthetic KBs, to the fixpoint or the
// 15-iteration cap, with and without Query 3 inside the loop.
class SemiNaivePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SemiNaivePropertyTest, ClosuresMatch) {
  // Params 0-9 generate small KBs, 10-19 KBs at the pinned digests' scale.
  const uint64_t seed = static_cast<uint64_t>(GetParam() % 10) * 131 + 7;
  const double scale = GetParam() < 10 ? 0.003 : 0.02;
  for (bool constraints : {false, true}) {
    GroundingOptions naive;
    naive.max_iterations = 15;
    naive.apply_constraints_each_iteration = constraints;
    naive.evaluation = EvaluationMode::kNaive;
    GroundingOptions semi = naive;
    semi.evaluation = EvaluationMode::kSemiNaive;
    EXPECT_EQ(GroundedDigest(seed, semi, "", scale),
              GroundedDigest(seed, naive, "", scale))
        << "constraints in the loop: " << constraints;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemiNaivePropertyTest, ::testing::Range(0, 20));

// Exposes the row cap, which ArmStatement reads before every statement,
// so a test can arm it for exactly one iteration.
class RowCappedGrounder : public Grounder {
 public:
  using Grounder::Grounder;
  void set_max_rows_per_statement(int64_t rows) {
    options_.max_rows_per_statement = rows;
  }
};

// A statement failing mid-iteration, after earlier statements of the same
// iteration already merged their atoms, must leave TPi, the fact-id counter
// and the TPi indexes exactly as the iteration found them: retrying the
// iteration then reproduces a clean run bit for bit.
void ExpectFailedStatementRollsBack(EvaluationMode mode) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.005;
  cfg.seed = 9;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());
  GroundingOptions options;
  options.num_threads = 1;
  options.evaluation = mode;

  RelationalKB clean_rkb = BuildRelationalModel(skb->kb);
  Grounder clean(&clean_rkb, options);
  StatsRegistry registry;
  clean.set_stats_registry(&registry);
  ASSERT_TRUE(clean.GroundAtomsIteration().ok());
  ASSERT_TRUE(clean.GroundAtomsIteration().ok());

  // Rows each of iteration 2's statements produces (every operator's
  // output counts against the cap). Capped at the first statement's count,
  // the first statement that produces more trips, after every statement
  // before it merged.
  std::vector<int64_t> produced;
  for (const StatementTrace& trace : registry.statements()) {
    if (trace.scope.rfind("iter2/", 0) != 0) continue;
    int64_t rows = 0;
    for (const OpRecord& op : trace.ops) rows += op.rows_out;
    produced.push_back(rows);
  }
  ASSERT_FALSE(produced.empty());
  const int64_t cap = produced[0];
  size_t trip = 1;
  while (trip < produced.size() && produced[trip] <= cap) ++trip;
  ASSERT_LT(trip, produced.size()) << "no statement of iteration 2 trips";

  RelationalKB rkb = BuildRelationalModel(skb->kb);
  RowCappedGrounder grounder(&rkb, options);
  ASSERT_TRUE(grounder.GroundAtomsIteration().ok());
  const TablePtr start = rkb.t_pi->Clone();
  const FactId start_id = rkb.next_fact_id;
  const int64_t statements = grounder.stats().statements;

  grounder.set_max_rows_per_statement(cap);
  auto failed = grounder.GroundAtomsIteration();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  // The statements before the tripping one did run (and merged).
  EXPECT_EQ(grounder.stats().statements,
            statements + static_cast<int64_t>(trip));
  EXPECT_TRUE(TablesEqualExact(*rkb.t_pi, *start));
  EXPECT_EQ(rkb.next_fact_id, start_id);

  grounder.set_max_rows_per_statement(0);
  ASSERT_TRUE(grounder.GroundAtomsIteration().ok());
  EXPECT_TRUE(TablesEqualExact(*rkb.t_pi, *clean_rkb.t_pi));
  EXPECT_EQ(rkb.next_fact_id, clean_rkb.next_fact_id);
}

TEST(GroundingRollbackTest, FailedStatementLeavesIterationStartState) {
  ExpectFailedStatementRollsBack(EvaluationMode::kNaive);
}

TEST(GroundingRollbackTest, FailedDeltaStatementLeavesIterationStartState) {
  ExpectFailedStatementRollsBack(EvaluationMode::kSemiNaive);
}

TEST(GroundingMonotonicityTest, TPiOnlyGrowsWithoutConstraints) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.003;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());
  RelationalKB rkb = BuildRelationalModel(skb->kb);
  GroundingOptions options;
  options.max_iterations = 5;
  Grounder grounder(&rkb, options);
  int64_t prev = rkb.t_pi->NumRows();
  for (int i = 0; i < 5; ++i) {
    auto added = grounder.GroundAtomsIteration();
    ASSERT_TRUE(added.ok());
    EXPECT_EQ(rkb.t_pi->NumRows(), prev + *added);
    EXPECT_GE(*added, 0);
    prev = rkb.t_pi->NumRows();
  }
}


// --- Constraint degrees and Type II ---------------------------------------------

KnowledgeBase DegreeKb(FunctionalityType type, int64_t degree) {
  KnowledgeBase kb;
  RelationId rel = kb.relations().GetOrAdd("lives_in");
  ClassId person = kb.classes().GetOrAdd("Person");
  ClassId country = kb.classes().GetOrAdd("Country");
  kb.AddConstraint({rel, type, degree});
  // ann lives in 3 countries; bob in 1. For Type II: 3 people live in one
  // country (fine) but the constraint keys the country side.
  EntityId ann = kb.entities().GetOrAdd("ann");
  EntityId bob = kb.entities().GetOrAdd("bob");
  EntityId cid = kb.entities().GetOrAdd("cid");
  EntityId fr = kb.entities().GetOrAdd("fr");
  EntityId de = kb.entities().GetOrAdd("de");
  EntityId jp = kb.entities().GetOrAdd("jp");
  kb.AddFact({rel, ann, person, fr, country, 0.9});
  kb.AddFact({rel, ann, person, de, country, 0.9});
  kb.AddFact({rel, ann, person, jp, country, 0.9});
  kb.AddFact({rel, bob, person, fr, country, 0.9});
  kb.AddFact({rel, cid, person, fr, country, 0.9});
  return kb;
}

TEST(ConstraintDegreeTest, PseudoFunctionalAllowsUpToDegree) {
  // Type I, degree 3: ann's 3 countries are within the 1-delta mapping.
  {
    KnowledgeBase kb = DegreeKb(FunctionalityType::kTypeI, 3);
    RelationalKB rkb = BuildRelationalModel(kb);
    Grounder grounder(&rkb, GroundingOptions{});
    auto deleted = grounder.ApplyConstraints();
    ASSERT_TRUE(deleted.ok());
    EXPECT_EQ(*deleted, 0);
  }
  // Degree 2: ann violates; all three of her facts go (bob and cid stay).
  {
    KnowledgeBase kb = DegreeKb(FunctionalityType::kTypeI, 2);
    RelationalKB rkb = BuildRelationalModel(kb);
    Grounder grounder(&rkb, GroundingOptions{});
    auto deleted = grounder.ApplyConstraints();
    ASSERT_TRUE(deleted.ok());
    EXPECT_EQ(*deleted, 3);
    EXPECT_EQ(rkb.t_pi->NumRows(), 2);
  }
}

TEST(ConstraintDegreeTest, TypeIIKeysTheObjectSide) {
  // Type II, degree 2: fr has 3 inhabitants -> fr is the violator and all
  // facts with y = fr are deleted; ann keeps her other countries.
  KnowledgeBase kb = DegreeKb(FunctionalityType::kTypeII, 2);
  RelationalKB rkb = BuildRelationalModel(kb);
  Grounder grounder(&rkb, GroundingOptions{});
  auto deleted = grounder.ApplyConstraints();
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 3);
  auto atoms = TPiAtomSet(*rkb.t_pi);
  EntityId fr = kb.entities().Lookup("fr");
  for (const auto& atom : atoms) {
    EXPECT_NE(std::get<3>(atom), fr);
  }
  EXPECT_EQ(rkb.t_pi->NumRows(), 2);  // ann-de and ann-jp survive
}

TEST(ConstraintDegreeTest, BannedEntitiesStayBanned) {
  KnowledgeBase kb = DegreeKb(FunctionalityType::kTypeI, 2);
  RelationalKB rkb = BuildRelationalModel(kb);
  Grounder grounder(&rkb, GroundingOptions{});
  ASSERT_TRUE(grounder.ApplyConstraints().ok());
  EXPECT_EQ(grounder.banned_x().size(), 1u);
  // Re-application is a no-op (idempotent).
  auto again = grounder.ApplyConstraints();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0);
  EXPECT_EQ(grounder.banned_x().size(), 1u);
}

}  // namespace
}  // namespace probkb
