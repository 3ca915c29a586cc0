#include "factor/factor_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <set>

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

TEST(FactorGraphTest, RejectsNullHead) {
  auto t_pi = Table::Make(TPiSchema());
  AppendFactRow(t_pi.get(), 0, {1, 2, 3, 4, 5, 0.5});
  auto t_phi = Table::Make(TPhiSchema());
  t_phi->AppendRow({Value::Null(), Value::Null(), Value::Null(),
                    Value::Float64(1.0)});
  auto graph = FactorGraph::FromTables(*t_pi, *t_phi);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
}

/// The graph as the row-at-a-time build laid it out: ids resolved through
/// a sorted map, a greedy first-fit coloring in TPi row order, a stable
/// counting sort by color, and each variable's records in factor order,
/// one per factor however often the variable occurs in it. Kept here to
/// pin FromTables to it.
struct ReferenceGraph {
  std::vector<FactId> fact_ids;  // by variable
  std::vector<int32_t> color_ranges{0};
  std::vector<GroundFactor> factors;
  std::vector<std::vector<Incidence>> incidences;  // by variable
};

ReferenceGraph BuildReferenceGraph(const Table& t_pi, const Table& t_phi) {
  const int32_t n = static_cast<int32_t>(t_pi.NumRows());
  std::map<FactId, int32_t> row_of_id;
  for (int32_t r = 0; r < n; ++r) row_of_id[t_pi.row(r)[tpi::kI].i64()] = r;
  auto row_of = [&](const Value& v) {
    return v.is_null() ? -1 : row_of_id.at(v.i64());
  };
  ReferenceGraph ref;
  std::vector<std::vector<int32_t>> factors_of(static_cast<size_t>(n));
  for (int64_t i = 0; i < t_phi.NumRows(); ++i) {
    RowView row = t_phi.row(i);
    GroundFactor f;
    f.head = row_of(row[tphi::kI1]);
    f.body1 = row_of(row[tphi::kI2]);
    f.body2 = row_of(row[tphi::kI3]);
    f.weight = row[tphi::kW].is_null() ? 0.0 : row[tphi::kW].f64();
    const int32_t fi = static_cast<int32_t>(ref.factors.size());
    for (int32_t r : {f.head, f.body1, f.body2}) {
      if (r < 0) continue;
      std::vector<int32_t>& of = factors_of[static_cast<size_t>(r)];
      if (of.empty() || of.back() != fi) of.push_back(fi);
    }
    ref.factors.push_back(f);
  }
  std::vector<int32_t> color(static_cast<size_t>(n));
  int32_t num_colors = 0;
  for (int32_t r = 0; r < n; ++r) {
    std::set<int32_t> taken;
    for (int32_t fi : factors_of[static_cast<size_t>(r)]) {
      const GroundFactor& f = ref.factors[static_cast<size_t>(fi)];
      for (int32_t u : {f.head, f.body1, f.body2}) {
        if (u >= 0 && u < r) taken.insert(color[static_cast<size_t>(u)]);
      }
    }
    int32_t c = 0;
    while (taken.count(c) > 0) ++c;
    color[static_cast<size_t>(r)] = c;
    num_colors = std::max(num_colors, c + 1);
  }
  std::vector<int32_t> rows(static_cast<size_t>(n));
  std::iota(rows.begin(), rows.end(), 0);
  std::stable_sort(rows.begin(), rows.end(), [&](int32_t a, int32_t b) {
    return color[static_cast<size_t>(a)] < color[static_cast<size_t>(b)];
  });
  std::vector<int32_t> var_of(static_cast<size_t>(n));
  for (int32_t v = 0; v < n; ++v) var_of[static_cast<size_t>(rows[v])] = v;
  for (int32_t c = 0; c < num_colors; ++c) {
    ref.color_ranges.push_back(static_cast<int32_t>(
        std::count_if(color.begin(), color.end(),
                      [c](int32_t x) { return x <= c; })));
  }
  for (GroundFactor& f : ref.factors) {
    for (int32_t* r : {&f.head, &f.body1, &f.body2}) {
      if (*r >= 0) *r = var_of[static_cast<size_t>(*r)];
    }
  }
  const int32_t true_slot = n;
  for (int32_t v = 0; v < n; ++v) {
    const int32_t r = rows[static_cast<size_t>(v)];
    ref.fact_ids.push_back(t_pi.row(r)[tpi::kI].i64());
    std::vector<Incidence>& recs = ref.incidences.emplace_back();
    for (int32_t fi : factors_of[static_cast<size_t>(r)]) {
      const GroundFactor& f = ref.factors[static_cast<size_t>(fi)];
      auto other = [&](int32_t u) {
        return u < 0 || u == v ? true_slot : u;
      };
      if (f.body1 < 0) {
        recs.push_back({f.weight, fi, true_slot, true_slot,
                        IncidenceRole::kSingleton});
      } else if (f.head != v) {
        recs.push_back({f.weight, fi, f.head,
                        other(f.body1 == v ? f.body2 : f.body1),
                        IncidenceRole::kBody});
      } else {
        const bool loop = f.body1 == v || f.body2 == v;
        recs.push_back({f.weight, fi, other(f.body1), other(f.body2),
                        loop ? IncidenceRole::kSelfLoop
                             : IncidenceRole::kHead});
      }
    }
  }
  return ref;
}

void ExpectMatchesReference(const Table& t_pi, const Table& t_phi) {
  auto graph = FactorGraph::FromTables(t_pi, t_phi);
  ASSERT_TRUE(graph.ok()) << graph.status();
  const ReferenceGraph ref = BuildReferenceGraph(t_pi, t_phi);
  ASSERT_EQ(graph->num_variables(), static_cast<int>(ref.fact_ids.size()));
  EXPECT_EQ(graph->color_ranges(), ref.color_ranges);
  ASSERT_EQ(graph->num_factors(), static_cast<int64_t>(ref.factors.size()));
  for (size_t fi = 0; fi < ref.factors.size(); ++fi) {
    const GroundFactor& got = graph->factors()[fi];
    const GroundFactor& want = ref.factors[fi];
    EXPECT_EQ(got.head, want.head) << "factor " << fi;
    EXPECT_EQ(got.body1, want.body1) << "factor " << fi;
    EXPECT_EQ(got.body2, want.body2) << "factor " << fi;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.weight),
              std::bit_cast<uint64_t>(want.weight));
  }
  for (int32_t v = 0; v < graph->num_variables(); ++v) {
    EXPECT_EQ(graph->fact_id(v), ref.fact_ids[static_cast<size_t>(v)]);
    EXPECT_EQ(graph->VariableOf(graph->fact_id(v)), v);
    const auto recs = graph->IncidencesOf(v);
    const std::vector<Incidence>& want = ref.incidences[static_cast<size_t>(v)];
    ASSERT_EQ(recs.size(), want.size()) << "variable " << v;
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(std::bit_cast<uint64_t>(recs[k].weight),
                std::bit_cast<uint64_t>(want[k].weight));
      EXPECT_EQ(recs[k].factor, want[k].factor);
      EXPECT_EQ(recs[k].o1, want[k].o1);
      EXPECT_EQ(recs[k].o2, want[k].o2);
      EXPECT_EQ(recs[k].role, want[k].role);
    }
  }
  // Ids between, below and above the variables' ids resolve to nothing.
  std::set<FactId> ids(ref.fact_ids.begin(), ref.fact_ids.end());
  if (!ids.empty()) {
    for (FactId probe : {*ids.begin() - 1, *ids.rbegin() + 1,
                         *ids.rbegin() + 1000000}) {
      EXPECT_EQ(graph->VariableOf(probe), -1) << probe;
    }
    int gaps = 0;
    for (FactId id = *ids.begin(); id < *ids.rbegin() && gaps < 50; ++id) {
      if (ids.count(id) == 0) {
        EXPECT_EQ(graph->VariableOf(id), -1) << id;
        ++gaps;
      }
    }
  }
}

/// A pipeline TPi/TPhi: fact ids [0, next_fact_id) less the facts Query 3
/// deleted up front.
ExpansionResult SyntheticExpansion() {
  SyntheticKbConfig cfg;
  cfg.scale = 0.005;
  cfg.seed = 5;
  auto skb = GenerateReverbSherlockKb(cfg);
  EXPECT_TRUE(skb.ok());
  ExpansionOptions expand;
  expand.run_inference = false;
  expand.grounding.max_iterations = 3;
  auto expansion = ExpandKnowledgeBase(skb->kb, expand);
  EXPECT_TRUE(expansion.ok());
  return *expansion;
}

/// `t` with every id in `cols` mapped through `map` (NULLs kept).
TablePtr MapIds(const Table& t, std::initializer_list<int> cols,
                const std::function<FactId(FactId)>& map) {
  auto out = Table::Make(t.schema());
  std::vector<Value> row;
  for (int64_t i = 0; i < t.NumRows(); ++i) {
    row.clear();
    for (int c = 0; c < t.width(); ++c) row.push_back(t.row(i)[c]);
    for (int c : cols) {
      Value& v = row[static_cast<size_t>(c)];
      if (!v.is_null()) v = Value::Int64(map(v.i64()));
    }
    out->AppendRow(row);
  }
  return out;
}

TEST(FactorGraphTest, PipelineIdsWithQuery3GapsMatchReference) {
  const ExpansionResult r = SyntheticExpansion();
  ASSERT_GT(r.constraints_deleted_upfront, 0);
  ASSERT_GT(r.t_pi->NumRows(), 1000);
  ExpectMatchesReference(*r.t_pi, *r.t_phi);
}

TEST(FactorGraphTest, SparseIdsMatchReference) {
  const ExpansionResult r = SyntheticExpansion();
  auto sparse = [](FactId id) { return id * 1009 - 5000; };
  ExpectMatchesReference(*MapIds(*r.t_pi, {tpi::kI}, sparse),
                         *MapIds(*r.t_phi, {tphi::kI1, tphi::kI2, tphi::kI3},
                                 sparse));
}

TEST(FactorGraphTest, DescendingIdsMatchReference) {
  const ExpansionResult r = SyntheticExpansion();
  std::vector<int64_t> reversed(static_cast<size_t>(r.t_pi->NumRows()));
  std::iota(reversed.rbegin(), reversed.rend(), 0);
  auto dense = r.t_pi->Clone();
  dense->PermuteRows(reversed);
  ExpectMatchesReference(*dense, *r.t_phi);
  auto sparse = [](FactId id) { return id * 7919; };
  auto sparse_pi = MapIds(*dense, {tpi::kI}, sparse);
  ExpectMatchesReference(
      *sparse_pi,
      *MapIds(*r.t_phi, {tphi::kI1, tphi::kI2, tphi::kI3}, sparse));
}

TEST(FactorGraphTest, DenseIdsRejectDuplicatesAndUnknownIds) {
  auto t_pi = Table::Make(TPiSchema());
  for (FactId id : {0, 1, 2, 4, 5}) {
    AppendFactRow(t_pi.get(), id, {1, 2, 3, 4, id, 0.5});
  }
  for (FactId missing : {3, 6, -1}) {
    auto t_phi = Table::Make(TPhiSchema());
    t_phi->AppendRow({Value::Int64(0), Value::Int64(missing), Value::Null(),
                      Value::Float64(1.0)});
    auto graph = FactorGraph::FromTables(*t_pi, *t_phi);
    ASSERT_FALSE(graph.ok()) << missing;
    EXPECT_EQ(graph.status().message(),
              "factor references unknown fact id " + std::to_string(missing));
  }
  AppendFactRow(t_pi.get(), 4, {1, 2, 3, 4, 9, 0.5});
  AppendFactRow(t_pi.get(), 1, {1, 2, 3, 4, 8, 0.5});
  auto graph = FactorGraph::FromTables(*t_pi, Table(TPhiSchema()));
  ASSERT_FALSE(graph.ok());
  // The smallest duplicate is named, as the sorted path always did.
  EXPECT_EQ(graph.status().message(), "duplicate fact id 1 in TPi");
}

}  // namespace
}  // namespace probkb
