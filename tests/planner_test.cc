// Adaptive-optimizer tests: cost-model motion decisions, plan-estimate
// annotation, cross-policy / cross-thread bit-identity of the MPP grounder,
// shipped-volume regressions, golden EXPLAIN output, and checkpoint resume
// with a cold planner history.
//
// Golden files live in tests/goldens/ (PROBKB_GOLDEN_DIR). Regenerate with
//   PROBKB_REGEN_GOLDENS=1 ./build/tests/planner_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/synthetic_kb.h"
#include "engine/ops.h"
#include "engine/plan.h"
#include "engine/planner.h"
#include "grounding/grounder.h"
#include "grounding/mpp_grounder.h"
#include "tests/test_util.h"

namespace probkb {
namespace {

using testutil::MakeTable;

constexpr double kInf = std::numeric_limits<double>::infinity();

MotionCostModel ModelWithSegments(int n) {
  MotionCostModel m;
  m.num_segments = n;
  return m;
}

JoinMotionQuery Query(int64_t left, int64_t right, bool left_coll,
                      bool right_coll) {
  JoinMotionQuery q;
  q.statement = "q";
  q.left_rows = left;
  q.right_rows = right;
  q.left_collocated = left_coll;
  q.right_collocated = right_coll;
  return q;
}

// --- Motion decisions -------------------------------------------------------

TEST(MotionDecisionTest, SingleSegmentAlwaysRedistributes) {
  AdaptivePlanner planner(ModelWithSegments(1));
  MotionDecision d = planner.DecideJoinMotion(Query(1000000, 5, false, false));
  EXPECT_EQ(d.choice, MotionChoice::kRedistribute);
  EXPECT_EQ(d.redistribute_seconds, 0.0);
}

TEST(MotionDecisionTest, CollocatedSidesShipNothing) {
  AdaptivePlanner planner(ModelWithSegments(8));
  MotionDecision d = planner.DecideJoinMotion(Query(1000, 100000, true, true));
  EXPECT_EQ(d.choice, MotionChoice::kRedistribute);
  EXPECT_EQ(d.redistribute_seconds, 0.0);
  EXPECT_GT(d.broadcast_right_seconds, 0.0);
}

TEST(MotionDecisionTest, LargeClusterRedistributesTheMovingSide) {
  // The paper-§5 view plan at cluster scale: M is not collocated, the TPi
  // view is. Moving (n-1)/n of M is cheaper than replicating it (n-1)
  // times even at the broadcast discount, so the static rule's choice is
  // recovered from the cost model.
  AdaptivePlanner planner(ModelWithSegments(32));
  MotionDecision d = planner.DecideJoinMotion(Query(1000, 100000, false, true));
  EXPECT_EQ(d.choice, MotionChoice::kRedistribute);
  EXPECT_LT(d.redistribute_seconds, d.broadcast_left_seconds);
}

TEST(MotionDecisionTest, TwoSegmentsPreferBroadcastingTheMovingSide) {
  // Same query on 2 segments: redistribute moves half of M, broadcast
  // ships one discounted replica (0.31 < 0.5) — the cost model flips where
  // the static rule could not.
  AdaptivePlanner planner(ModelWithSegments(2));
  MotionDecision d = planner.DecideJoinMotion(Query(1000, 100000, false, true));
  EXPECT_EQ(d.choice, MotionChoice::kBroadcastLeft);
  EXPECT_LT(d.broadcast_left_seconds, d.redistribute_seconds);
}

TEST(MotionDecisionTest, SkewedDeltaFlipsToBroadcastingTheTinySide) {
  // Satellite regression: a skewed delta (big right, tiny left, neither
  // collocated) must flip the choice to broadcasting the tiny side instead
  // of redistributing the big one.
  AdaptivePlanner planner(ModelWithSegments(8));
  MotionDecision skewed = planner.DecideJoinMotion(Query(10, 100000, false, false));
  EXPECT_EQ(skewed.choice, MotionChoice::kBroadcastLeft);

  // Mirrored skew broadcasts the other side.
  MotionDecision mirrored =
      planner.DecideJoinMotion(Query(100000, 10, false, false));
  EXPECT_EQ(mirrored.choice, MotionChoice::kBroadcastRight);

  // Balanced large inputs keep the redistribute plan.
  MotionDecision balanced =
      planner.DecideJoinMotion(Query(100000, 100000, false, false));
  EXPECT_EQ(balanced.choice, MotionChoice::kRedistribute);
}

TEST(MotionDecisionTest, BroadcastLeftIsUnsoundForNonInnerJoins) {
  AdaptivePlanner planner(ModelWithSegments(8));
  JoinMotionQuery q = Query(10, 100000, false, false);
  q.inner_join = false;
  MotionDecision d = planner.DecideJoinMotion(q);
  EXPECT_EQ(d.broadcast_left_seconds, kInf);
  EXPECT_NE(d.choice, MotionChoice::kBroadcastLeft);
}

TEST(MotionDecisionTest, TieBreaksAreDeterministic) {
  // Zero-row inputs cost one motion latency under every candidate; the
  // fixed tie-break order must pick redistribute, twice in a row.
  AdaptivePlanner planner(ModelWithSegments(4));
  MotionDecision d1 = planner.DecideJoinMotion(Query(0, 0, false, true));
  MotionDecision d2 = planner.DecideJoinMotion(Query(0, 0, false, true));
  EXPECT_EQ(d1.choice, MotionChoice::kRedistribute);
  EXPECT_EQ(d1.ToString(), d2.ToString());
  ASSERT_EQ(planner.decisions().size(), 2u);
  EXPECT_NE(planner.ExplainDecisions().find("redistribute"),
            std::string::npos);
  planner.ClearDecisionLog();
  EXPECT_TRUE(planner.decisions().empty());
}

// --- Observed-cardinality feedback -----------------------------------------

TEST(PlannerFeedbackTest, ObservationsOverrideColdStartEstimates) {
  AdaptivePlanner planner(ModelWithSegments(4));
  EXPECT_FALSE(planner.HasObservation("stmt"));
  EXPECT_EQ(planner.ObservedRows("stmt", 42), 42);

  planner.ObserveRows("stmt", 7);
  EXPECT_TRUE(planner.HasObservation("stmt"));
  EXPECT_EQ(planner.ObservedRows("stmt", 42), 7);

  // Latest observation wins (iteration N+1 plans from iteration N).
  planner.ObserveRows("stmt", 9);
  EXPECT_EQ(planner.ObservedRows("stmt", 42), 9);
}

TEST(AnnotateEstimatesTest, HeuristicsPerNodeKind) {
  Schema ab({{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64}});
  auto small = MakeTable(ab, {{1, 1}, {2, 2}});
  auto big = MakeTable(ab, {{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}});

  // Inner join estimates max(children); the filter above passes it through.
  PlanNodePtr plan =
      Filter(HashJoin(Scan(small), Scan(big), {0}, {0}, JoinType::kInner,
                      {JoinOutputCol::Left(0, "a")}),
             [](const RowView&) { return true; });
  EXPECT_EQ(AnnotatePlanEstimates(plan.get()), 5);
  EXPECT_EQ(plan->est_rows(), 5);
  EXPECT_EQ(plan->children()[0]->est_rows(), 5);
  EXPECT_EQ(plan->children()[0]->children()[0]->est_rows(), 2);

  // Semi joins emit a subset of the left input.
  PlanNodePtr semi =
      HashJoin(Scan(small), Scan(big), {0}, {0}, JoinType::kLeftSemi);
  EXPECT_EQ(AnnotatePlanEstimates(semi.get()), 2);

  // UNION ALL sums.
  std::vector<PlanNodePtr> inputs;
  inputs.push_back(Scan(small));
  inputs.push_back(Scan(big));
  PlanNodePtr u = UnionAll(std::move(inputs));
  EXPECT_EQ(AnnotatePlanEstimates(u.get()), 7);
}

TEST(AnnotateEstimatesTest, PlannerObservationOverridesRootHeuristic) {
  Schema ab({{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64}});
  auto t = MakeTable(ab, {{1, 1}, {2, 2}});
  AdaptivePlanner planner(ModelWithSegments(1));
  planner.ObserveRows("stmt", 99);

  PlanNodePtr plan = Filter(Scan(t), [](const RowView&) { return true; });
  EXPECT_EQ(AnnotatePlanEstimates(plan.get(), &planner, "stmt"), 99);
  EXPECT_EQ(plan->est_rows(), 99);
  // The override is root-only; children keep their structural estimates.
  EXPECT_EQ(plan->children()[0]->est_rows(), 2);
}

TEST(AnnotateEstimatesTest, ExplainRendersEstAndObs) {
  Schema ab({{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64}});
  auto t = MakeTable(ab, {{1, 1}, {2, 2}});
  PlanNodePtr plan = Filter(Scan(t), [](const RowView&) { return true; });
  AnnotatePlanEstimates(plan.get());

  // Before execution: estimates annotated, observations unknown.
  EXPECT_NE(plan->Explain().find("(est=2 obs=?)"), std::string::npos);

  ExecContext ctx;
  ASSERT_TRUE(plan->Execute(&ctx).ok());
  EXPECT_NE(plan->Explain().find("(est=2 obs=2)"), std::string::npos);
}

// --- Cross-policy / cross-thread bit-identity -------------------------------

KnowledgeBase InflatedPaperKb() {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  // Blow the example up so joins carry real volume and skew: TPi becomes
  // much larger than the per-partition M tables.
  for (int i = 0; i < 200; ++i) {
    kb.AddFactByName("born_in", "w" + std::to_string(i), "Writer",
                     "c" + std::to_string(i % 20), "City", 0.9);
    kb.AddFactByName("born_in", "w" + std::to_string(i), "Writer",
                     "p" + std::to_string(i % 20), "Place", 0.9);
  }
  return kb;
}

struct GroundRun {
  TablePtr t_pi;
  TablePtr t_phi;
  int64_t tuples_shipped = 0;
  double motion_seconds = 0.0;  // modelled (deterministic) interconnect time
};

GroundRun RunMpp(const KnowledgeBase& kb, int segments, MppMode mode,
                 MotionPolicy policy, int num_threads) {
  RelationalKB rkb = BuildRelationalModel(kb);
  GroundingOptions options;
  options.num_threads = num_threads;
  MppGrounder mpp(rkb, segments, mode, options);
  mpp.set_motion_policy(policy);
  EXPECT_TRUE(mpp.GroundAtoms().ok());
  auto phi = mpp.GroundFactors();
  EXPECT_TRUE(phi.ok());
  GroundRun run;
  run.t_pi = mpp.GatherTPi();
  run.t_phi = phi.ok() ? *phi : nullptr;
  run.tuples_shipped = mpp.cost().tuples_shipped();
  for (const auto& s : mpp.cost().steps()) {
    if (s.kind == MppStep::Kind::kRedistribute ||
        s.kind == MppStep::Kind::kBroadcast) {
      run.motion_seconds += s.seconds;
    }
  }
  return run;
}

TEST(MotionPolicyEquivalenceTest, ForcedPlansAreBitIdenticalToAuto) {
  // Satellite 3: whatever motion the optimizer (or a forced static plan)
  // picks, the gathered TPi must be bit-identical — fact ids included —
  // because the canonical atom merge assigns ids in a route-independent
  // order. TPhi is compared structurally (gather order is not part of the
  // contract).
  KnowledgeBase kb = InflatedPaperKb();
  for (MppMode mode : {MppMode::kNoViews, MppMode::kViews}) {
    GroundRun base = RunMpp(kb, 3, mode, MotionPolicy::kAuto, 1);
    ASSERT_NE(base.t_pi, nullptr);
    for (MotionPolicy policy :
         {MotionPolicy::kRedistribute, MotionPolicy::kBroadcastRight,
          MotionPolicy::kBroadcastLeft}) {
      for (int threads : {1, 2, 4, 8}) {
        GroundRun run = RunMpp(kb, 3, mode, policy, threads);
        ASSERT_NE(run.t_pi, nullptr);
        EXPECT_TRUE(TablesEqualExact(*base.t_pi, *run.t_pi))
            << "mode " << static_cast<int>(mode) << " policy "
            << static_cast<int>(policy) << " threads " << threads;
        EXPECT_EQ(testutil::CanonicalizeFactors(*base.t_phi, *base.t_pi),
                  testutil::CanonicalizeFactors(*run.t_phi, *run.t_pi));
      }
    }
  }
}

TEST(MotionPolicyEquivalenceTest, AutoMatchesForcedAcrossSegmentCounts) {
  // kAuto's decision changes with the segment count (broadcast wins at 2,
  // redistribute at 8) — the result must not.
  KnowledgeBase kb = InflatedPaperKb();
  for (int segments : {1, 2, 4, 8}) {
    GroundRun auto_run =
        RunMpp(kb, segments, MppMode::kViews, MotionPolicy::kAuto, 1);
    GroundRun forced =
        RunMpp(kb, segments, MppMode::kViews, MotionPolicy::kRedistribute, 1);
    EXPECT_TRUE(TablesEqualExact(*auto_run.t_pi, *forced.t_pi))
        << "segments " << segments;
  }
}

TEST(MotionPolicyCostTest, AdaptiveBeatsEveryStaticPlanOnModelledCost) {
  // Figure 4 mechanism as a regression test: in no-views mode the probe
  // side (TPi) dwarfs the per-partition M tables, and the adaptive plan
  // must not cost more modelled interconnect time than any forced static
  // plan. (Raw tuple count is not the objective: a discounted broadcast
  // fan-out can ship more tuples than a redistribute yet cost less — the
  // paper's motivation for broadcasting the small side.)
  KnowledgeBase kb = InflatedPaperKb();
  GroundRun auto_run = RunMpp(kb, 8, MppMode::kNoViews, MotionPolicy::kAuto, 1);
  for (MotionPolicy policy :
       {MotionPolicy::kRedistribute, MotionPolicy::kBroadcastRight,
        MotionPolicy::kBroadcastLeft}) {
    GroundRun forced = RunMpp(kb, 8, MppMode::kNoViews, policy, 1);
    EXPECT_LE(auto_run.motion_seconds, forced.motion_seconds + 1e-12)
        << "policy " << static_cast<int>(policy);
  }
  // And in raw volume the adaptive plan must beat the static broadcast of
  // the big probe side by a wide margin — the skew case the feedback loop
  // exists for.
  GroundRun bcast_right =
      RunMpp(kb, 8, MppMode::kNoViews, MotionPolicy::kBroadcastRight, 1);
  EXPECT_LT(auto_run.tuples_shipped, bcast_right.tuples_shipped / 2);
}

TEST(MotionPolicyCostTest, AdaptiveShipsNoMoreThanAnyStaticPlanWithViews) {
  // Figure 6(c) workload shape: with the materialized views every probe is
  // collocated, the optimizer keeps the free redistribute plan, and kAuto
  // ships no more than the best static policy in raw tuples either.
  KnowledgeBase kb = InflatedPaperKb();
  GroundRun auto_run = RunMpp(kb, 8, MppMode::kViews, MotionPolicy::kAuto, 1);
  for (MotionPolicy policy :
       {MotionPolicy::kRedistribute, MotionPolicy::kBroadcastRight,
        MotionPolicy::kBroadcastLeft}) {
    GroundRun forced = RunMpp(kb, 8, MppMode::kViews, policy, 1);
    EXPECT_LE(auto_run.tuples_shipped, forced.tuples_shipped)
        << "policy " << static_cast<int>(policy);
    EXPECT_LE(auto_run.motion_seconds, forced.motion_seconds + 1e-12)
        << "policy " << static_cast<int>(policy);
  }
}

// --- Golden EXPLAIN ---------------------------------------------------------

std::string GoldenPath(const std::string& name) {
  return std::string(PROBKB_GOLDEN_DIR) + "/" + name;
}

void CompareAgainstGolden(const std::string& name, const std::string& text) {
  const std::string path = GoldenPath(name);
  if (std::getenv("PROBKB_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << text;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with PROBKB_REGEN_GOLDENS=1)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), text) << "EXPLAIN drift vs " << name
                             << "; if intentional, regenerate with "
                                "PROBKB_REGEN_GOLDENS=1";
}

TEST(GoldenExplainTest, Table3SingleNodePlans) {
  // The table3 workload's generator at test scale: the single-node
  // grounder's EXPLAIN must render the same plan trees (shapes and est/obs
  // cardinalities) on every run and platform.
  SyntheticKbConfig cfg;
  cfg.scale = 0.002;
  cfg.seed = 7;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());

  GroundingOptions options;
  options.max_iterations = 3;
  options.evaluation = EvaluationMode::kNaive;  // as table3_grounding runs
  RelationalKB rkb = BuildRelationalModel(skb->kb);
  Grounder grounder(&rkb, options);
  ASSERT_TRUE(grounder.GroundAtoms().ok());
  CompareAgainstGolden("table3_explain.txt", grounder.ExplainPlans());
}

TEST(GoldenExplainTest, SemiNaiveDeltaPlans) {
  // The same KB under the default semi-naive evaluation: iteration 3 runs
  // the delta-driven trees (the delta probes the rule tables; length-3
  // statements append the (delta, full) and (old, delta) passes).
  SyntheticKbConfig cfg;
  cfg.scale = 0.002;
  cfg.seed = 7;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());

  GroundingOptions options;
  options.max_iterations = 3;
  RelationalKB rkb = BuildRelationalModel(skb->kb);
  Grounder grounder(&rkb, options);
  ASSERT_TRUE(grounder.GroundAtoms().ok());
  CompareAgainstGolden("seminaive_explain.txt", grounder.ExplainPlans());
}

TEST(GoldenExplainTest, Fig4MppMotionDecisions) {
  // Figure-4 style: the MPP grounder's EXPLAIN pins the est/obs feedback
  // lines and the full motion-decision log (choice + costed alternatives)
  // for both execution modes. Naive evaluation runs the paper's plans in
  // every iteration.
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  GroundingOptions options;
  options.evaluation = EvaluationMode::kNaive;
  std::string text;
  for (MppMode mode : {MppMode::kViews, MppMode::kNoViews}) {
    RelationalKB rkb = BuildRelationalModel(kb);
    MppGrounder mpp(rkb, 3, mode, options);
    ASSERT_TRUE(mpp.GroundAtoms().ok());
    text += mode == MppMode::kViews ? "== mode: views ==\n"
                                    : "== mode: no-views ==\n";
    text += mpp.ExplainPlans();
  }
  CompareAgainstGolden("fig4_explain.txt", text);
}

TEST(GoldenExplainTest, SemiNaiveMppDeltaPlans) {
  // The default semi-naive evaluation on the MPP grounder: the last
  // iteration (iteration 2) runs the delta-driven statements. Pins the
  // est/obs lines of the (delta, full) and (old, delta) passes and the
  // motion decisions of their second joins (the first joins probe the
  // replicated rule tables in place) for both execution modes.
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  std::string text;
  for (MppMode mode : {MppMode::kViews, MppMode::kNoViews}) {
    RelationalKB rkb = BuildRelationalModel(kb);
    MppGrounder mpp(rkb, 3, mode, GroundingOptions{});
    ASSERT_TRUE(mpp.GroundAtoms().ok());
    ASSERT_GE(mpp.stats().iterations, 2);
    text += mode == MppMode::kViews ? "== mode: views ==\n"
                                    : "== mode: no-views ==\n";
    text += mpp.ExplainPlans();
  }
  CompareAgainstGolden("seminaive_mpp_explain.txt", text);
}

// --- Resume with a cold planner history -------------------------------------

TEST(PlannerResumeTest, ResumeMidReplanIsBitIdentical) {
  // Chaos case from the fault model: a run dies between iterations, after
  // the planner has accumulated observations that the checkpoint does NOT
  // carry. The resumed grounder re-plans from a cold history; since kAuto
  // decisions use only the actual materialized input sizes, the resumed
  // run must still be bit-identical to the uninterrupted one.
  KnowledgeBase kb = InflatedPaperKb();

  RelationalKB rkb_base = BuildRelationalModel(kb);
  MppGrounder baseline(rkb_base, 3, MppMode::kViews, GroundingOptions{});
  ASSERT_TRUE(baseline.GroundAtoms().ok());

  std::string dir = ::testing::TempDir() + "/probkb_planner_resume";
  std::filesystem::remove_all(dir);
  GroundingOptions interrupted_options;
  interrupted_options.max_iterations = 1;
  interrupted_options.checkpoint_dir = dir;
  RelationalKB rkb_a = BuildRelationalModel(kb);
  MppGrounder interrupted(rkb_a, 3, MppMode::kViews, interrupted_options);
  ASSERT_TRUE(interrupted.GroundAtoms().ok());
  // The interrupted run made warm-start observations...
  EXPECT_FALSE(interrupted.planner().decisions().empty());

  // ...that die with the process: the resumed grounder starts cold.
  RelationalKB rkb_b = BuildRelationalModel(kb);
  MppGrounder resumed(rkb_b, 3, MppMode::kViews, GroundingOptions{});
  ASSERT_TRUE(resumed.ResumeFrom(dir).ok());
  ASSERT_TRUE(resumed.GroundAtoms().ok());

  EXPECT_TRUE(TablesEqualExact(*baseline.GatherTPi(), *resumed.GatherTPi()));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace probkb
