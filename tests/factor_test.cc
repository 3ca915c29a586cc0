#include "factor/factor_graph.h"

#include <gtest/gtest.h>

#include "core/probkb.h"
#include "datagen/synthetic_kb.h"
#include "grounding/grounder.h"
#include "tests/test_util.h"

namespace probkb {
namespace {

/// Builds the paper-example factor graph (Figure 2): 5 atoms, 8 factors.
class PaperFactorGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kb_ = testutil::BuildPaperExampleKB();
    rkb_ = BuildRelationalModel(kb_);
    Grounder grounder(&rkb_, GroundingOptions{});
    ASSERT_TRUE(grounder.GroundAtoms().ok());
    auto phi = grounder.GroundFactors();
    ASSERT_TRUE(phi.ok());
    t_phi_ = *phi;
    auto graph = FactorGraph::FromTables(*rkb_.t_pi, *t_phi_);
    ASSERT_TRUE(graph.ok()) << graph.status();
    graph_ = std::make_unique<FactorGraph>(std::move(*graph));
  }

  KnowledgeBase kb_;
  RelationalKB rkb_;
  TablePtr t_phi_;
  std::unique_ptr<FactorGraph> graph_;
};

TEST_F(PaperFactorGraphTest, ShapeMatchesFigure2) {
  EXPECT_EQ(graph_->num_variables(), 7);  // 2 base + 5 inferred
  EXPECT_EQ(graph_->num_factors(), 8);
}

TEST_F(PaperFactorGraphTest, FactorSemantics) {
  // Find the singleton factor for born_in(RG, NYC) (weight 0.96).
  const GroundFactor* singleton = nullptr;
  const GroundFactor* rule_factor = nullptr;
  for (const auto& f : graph_->factors()) {
    if (f.body1 < 0 && std::abs(f.weight - 0.96) < 1e-9) singleton = &f;
    if (f.body2 >= 0 && std::abs(f.weight - 0.52) < 1e-9) rule_factor = &f;
  }
  ASSERT_NE(singleton, nullptr);
  ASSERT_NE(rule_factor, nullptr);

  std::vector<uint8_t> all_false(7, 0), all_true(7, 1);
  // Singleton: e^w when the atom holds, 1 otherwise.
  EXPECT_DOUBLE_EQ(singleton->LogValue(all_false), 0.0);
  EXPECT_DOUBLE_EQ(singleton->LogValue(all_true), 0.96);
  // Horn factor: violated only when the body holds and the head does not.
  EXPECT_DOUBLE_EQ(rule_factor->LogValue(all_true), 0.52);
  EXPECT_DOUBLE_EQ(rule_factor->LogValue(all_false), 0.52);
  std::vector<uint8_t> violated(7, 1);
  violated[static_cast<size_t>(rule_factor->head)] = 0;
  EXPECT_DOUBLE_EQ(rule_factor->LogValue(violated), 0.0);
}

TEST_F(PaperFactorGraphTest, LogScoreSumsSatisfiedWeights) {
  std::vector<uint8_t> all_true(7, 1);
  double expected = 0;
  for (const auto& f : graph_->factors()) expected += f.weight;
  EXPECT_NEAR(graph_->LogScore(all_true), expected, 1e-9);
}

TEST_F(PaperFactorGraphTest, VariableFactorAdjacency) {
  for (int32_t v = 0; v < graph_->num_variables(); ++v) {
    for (const Incidence& r : graph_->IncidencesOf(v)) {
      const auto& f = graph_->factors()[static_cast<size_t>(r.factor)];
      EXPECT_TRUE(f.head == v || f.body1 == v || f.body2 == v);
    }
  }
}

/// Each color range of `graph` must be an independent set (no factor
/// joins two distinct variables of one color), the ranges must tile the
/// variables, and the renumbering must round-trip through fact ids.
void ExpectColorMajorLayout(const FactorGraph& graph) {
  const std::vector<int32_t>& ranges = graph.color_ranges();
  ASSERT_EQ(ranges.size(), static_cast<size_t>(graph.num_colors()) + 1);
  EXPECT_EQ(ranges.front(), 0);
  EXPECT_EQ(ranges.back(), graph.num_variables());
  std::vector<int> color(static_cast<size_t>(graph.num_variables()), -1);
  for (int c = 0; c < graph.num_colors(); ++c) {
    const int32_t begin = ranges[static_cast<size_t>(c)];
    const int32_t end = ranges[static_cast<size_t>(c) + 1];
    EXPECT_LT(begin, end) << "color " << c << " is empty";
    for (int32_t v = begin; v < end; ++v) color[static_cast<size_t>(v)] = c;
  }
  for (const GroundFactor& f : graph.factors()) {
    const int32_t vars[] = {f.head, f.body1, f.body2};
    for (int32_t u : vars) {
      for (int32_t w : vars) {
        if (u >= 0 && w >= 0 && u != w) {
          EXPECT_NE(color[static_cast<size_t>(u)],
                    color[static_cast<size_t>(w)])
              << "variables " << u << " and " << w << " share a factor";
        }
      }
    }
  }
  for (int32_t v = 0; v < graph.num_variables(); ++v) {
    EXPECT_EQ(graph.VariableOf(graph.fact_id(v)), v);
  }
}

TEST_F(PaperFactorGraphTest, ColorRangesAreIndependentSets) {
  EXPECT_GE(graph_->num_colors(), 2);
  ExpectColorMajorLayout(*graph_);
}

TEST(FactorGraphTest, SyntheticColorRangesAreIndependentSets) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.005;
  cfg.seed = 11;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());
  ExpansionOptions expand;
  expand.run_inference = false;
  expand.grounding.max_iterations = 3;
  auto expansion = ExpandKnowledgeBase(skb->kb, expand);
  ASSERT_TRUE(expansion.ok());
  ASSERT_GT(expansion->graph->num_variables(), 1000);
  ExpectColorMajorLayout(*expansion->graph);
}

TEST_F(PaperFactorGraphTest, LineageOfLocatedIn) {
  // located_in(Brooklyn, NYC) has two derivations (born_in pair, live_in
  // pair), and the live_in atoms trace back to born_in.
  RelationId located = kb_.relations().Lookup("located_in");
  int32_t v = -1;
  for (int64_t i = 0; i < rkb_.t_pi->NumRows(); ++i) {
    if (rkb_.t_pi->row(i)[tpi::kR].i64() == located) {
      v = graph_->VariableOf(rkb_.t_pi->row(i)[tpi::kI].i64());
    }
  }
  ASSERT_GE(v, 0);
  EXPECT_EQ(graph_->DerivationsOf(v).size(), 2u);

  auto describe = [&](FactId id) {
    for (int64_t i = 0; i < rkb_.t_pi->NumRows(); ++i) {
      if (rkb_.t_pi->row(i)[tpi::kI].i64() == id) {
        return kb_.FactToString(FactFromRow(rkb_.t_pi->row(i)));
      }
    }
    return std::string("?");
  };
  std::string lineage = graph_->ExplainLineage(v, 4, describe);
  EXPECT_NE(lineage.find("located_in"), std::string::npos);
  EXPECT_NE(lineage.find("live_in"), std::string::npos);
  EXPECT_NE(lineage.find("born_in"), std::string::npos);
}

TEST(FactorGraphTest, RejectsUnknownFactIds) {
  auto t_pi = Table::Make(TPiSchema());
  AppendFactRow(t_pi.get(), 0, {1, 2, 3, 4, 5, 0.5});
  auto t_phi = Table::Make(TPhiSchema());
  t_phi->AppendRow({Value::Int64(99), Value::Null(), Value::Null(),
                    Value::Float64(1.0)});
  EXPECT_FALSE(FactorGraph::FromTables(*t_pi, *t_phi).ok());
}

TEST(FactorGraphTest, VariableOfFindsUnsortedFactIds) {
  auto t_pi = Table::Make(TPiSchema());
  AppendFactRow(t_pi.get(), 50, {1, 2, 3, 4, 5, 0.5});
  AppendFactRow(t_pi.get(), 7, {1, 2, 3, 4, 6, 0.5});
  AppendFactRow(t_pi.get(), 23, {1, 2, 3, 4, 7, 0.5});
  Table t_phi(TPhiSchema());
  auto graph = FactorGraph::FromTables(*t_pi, t_phi);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->VariableOf(50), 0);
  EXPECT_EQ(graph->VariableOf(7), 1);
  EXPECT_EQ(graph->VariableOf(23), 2);
  for (FactId missing : {0, 8, 24, 51}) {
    EXPECT_EQ(graph->VariableOf(missing), -1) << missing;
  }
}

TEST(FactorGraphTest, RejectsDuplicateFactIds) {
  auto t_pi = Table::Make(TPiSchema());
  AppendFactRow(t_pi.get(), 0, {1, 2, 3, 4, 5, 0.5});
  AppendFactRow(t_pi.get(), 0, {1, 2, 3, 4, 6, 0.5});
  Table t_phi(TPhiSchema());
  EXPECT_FALSE(FactorGraph::FromTables(*t_pi, t_phi).ok());
}

TEST(FactorGraphTest, RejectsI3WithoutI2) {
  auto t_pi = Table::Make(TPiSchema());
  AppendFactRow(t_pi.get(), 0, {1, 2, 3, 4, 5, 0.5});
  auto t_phi = Table::Make(TPhiSchema());
  t_phi->AppendRow({Value::Int64(0), Value::Null(), Value::Int64(0),
                    Value::Float64(1.0)});
  EXPECT_FALSE(FactorGraph::FromTables(*t_pi, *t_phi).ok());
}

}  // namespace
}  // namespace probkb
