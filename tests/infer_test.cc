#include "infer/gibbs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "core/probkb.h"
#include "datagen/synthetic_kb.h"
#include "grounding/grounder.h"
#include "infer/map_inference.h"
#include "tests/test_util.h"

namespace probkb {
namespace {

/// Hand-built graph: one variable with a singleton factor of weight w has
/// P(X=1) = e^w / (1 + e^w).
FactorGraph SingleVarGraph(double w) {
  auto t_pi = Table::Make(TPiSchema());
  AppendFactRow(t_pi.get(), 0, {1, 2, 3, 4, 5, w});
  auto t_phi = Table::Make(TPhiSchema());
  t_phi->AppendRow({Value::Int64(0), Value::Null(), Value::Null(),
                    Value::Float64(w)});
  auto graph = FactorGraph::FromTables(*t_pi, *t_phi);
  EXPECT_TRUE(graph.ok());
  return std::move(*graph);
}

TEST(ExactTest, SingleVariableClosedForm) {
  for (double w : {-1.0, 0.0, 0.5, 2.0}) {
    FactorGraph g = SingleVarGraph(w);
    auto marginals = ExactMarginals(g);
    ASSERT_TRUE(marginals.ok());
    double expected = std::exp(w) / (1.0 + std::exp(w));
    EXPECT_NEAR((*marginals)[0], expected, 1e-12) << "w = " << w;
  }
}

TEST(ExactTest, RefusesLargeGraphs) {
  auto t_pi = Table::Make(TPiSchema());
  auto t_phi = Table::Make(TPhiSchema());
  for (int i = 0; i < 25; ++i) {
    AppendFactRow(t_pi.get(), i, {1, i, 3, i + 100, 5, 0.5});
  }
  auto graph = FactorGraph::FromTables(*t_pi, *t_phi);
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(ExactMarginals(*graph, 20).ok());
}

TEST(GibbsTest, RejectsBadOptions) {
  FactorGraph g = SingleVarGraph(1.0);
  GibbsOptions bad;
  bad.sample_sweeps = 0;
  EXPECT_FALSE(GibbsMarginals(g, bad).ok());
}

TEST(GibbsTest, DeterministicForSeed) {
  FactorGraph g = SingleVarGraph(0.7);
  GibbsOptions options;
  options.seed = 99;
  auto a = GibbsMarginals(g, options);
  auto b = GibbsMarginals(g, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->marginals, b->marginals);
}

// Parameter: GibbsOptions::num_threads.
class GibbsVsExactTest : public ::testing::TestWithParam<int> {};

TEST_P(GibbsVsExactTest, PaperExampleMarginalsMatchExact) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  Grounder grounder(&rkb, GroundingOptions{});
  ASSERT_TRUE(grounder.GroundAtoms().ok());
  auto phi = grounder.GroundFactors();
  ASSERT_TRUE(phi.ok());
  auto graph = FactorGraph::FromTables(*rkb.t_pi, **phi);
  ASSERT_TRUE(graph.ok());

  auto exact = ExactMarginals(*graph);
  ASSERT_TRUE(exact.ok());

  GibbsOptions options;
  options.num_threads = GetParam();
  options.burn_in_sweeps = 500;
  options.sample_sweeps = 8000;
  options.seed = 7;
  auto gibbs = GibbsMarginals(*graph, options);
  ASSERT_TRUE(gibbs.ok());

  ASSERT_EQ(gibbs->marginals.size(), exact->size());
  for (size_t v = 0; v < exact->size(); ++v) {
    EXPECT_NEAR(gibbs->marginals[v], (*exact)[v], 0.03)
        << "variable " << v;
  }
  // MLN-semantics sanity: inferred heads (live_in, grow_up_in) have no
  // penalty for being true, so their marginals exceed 1/2; the strongest
  // rule (grow_up_in from born_in, w=2.68) pushes its head highest among
  // the Place conclusions.
  RelationId grow = kb.relations().Lookup("grow_up_in");
  RelationId live = kb.relations().Lookup("live_in");
  double p_grow = -1, p_live = -1;
  EntityId br = kb.entities().Lookup("Brooklyn");
  for (int64_t i = 0; i < rkb.t_pi->NumRows(); ++i) {
    RowView row = rkb.t_pi->row(i);
    int32_t v = graph->VariableOf(row[tpi::kI].i64());
    double p = gibbs->marginals[static_cast<size_t>(v)];
    if (row[tpi::kY].i64() != br) continue;
    if (row[tpi::kR].i64() == grow) p_grow = p;
    if (row[tpi::kR].i64() == live) p_live = p;
  }
  ASSERT_GE(p_grow, 0);
  ASSERT_GE(p_live, 0);
  EXPECT_GT(p_grow, 0.5);
  EXPECT_GT(p_grow, p_live - 0.02);  // stronger rule, at least as likely
}

INSTANTIATE_TEST_SUITE_P(Threads, GibbsVsExactTest, ::testing::Values(1, 4));

TEST(GibbsTest, ChromaticReportsColors) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  Grounder grounder(&rkb, GroundingOptions{});
  ASSERT_TRUE(grounder.GroundAtoms().ok());
  auto phi = grounder.GroundFactors();
  ASSERT_TRUE(phi.ok());
  auto graph = FactorGraph::FromTables(*rkb.t_pi, **phi);
  ASSERT_TRUE(graph.ok());

  GibbsOptions options;
  options.burn_in_sweeps = 10;
  options.sample_sweeps = 10;
  auto result = GibbsMarginals(*graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->num_colors, 2);
}

// Property: Gibbs matches exact enumeration on random small Horn graphs
// at one thread and at four. Parameters: seed, num_threads.
class GibbsPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GibbsPropertyTest, MatchesExactOnRandomGraphs) {
  auto [seed, threads] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) + 500);
  const int n = 8;
  auto t_pi = Table::Make(TPiSchema());
  for (int i = 0; i < n; ++i) {
    AppendFactRow(t_pi.get(), i, {1, i, 3, i + 100, 5,
                                  rng.UniformDouble(-1.0, 1.5)});
  }
  auto t_phi = Table::Make(TPhiSchema());
  // Singletons for half the variables.
  for (int i = 0; i < n; i += 2) {
    t_phi->AppendRow({Value::Int64(i), Value::Null(), Value::Null(),
                      Value::Float64(rng.UniformDouble(-1.0, 1.5))});
  }
  // Random Horn factors.
  for (int i = 0; i < 6; ++i) {
    int head = static_cast<int>(rng.Uniform(n));
    int b1 = static_cast<int>(rng.Uniform(n));
    int b2 = static_cast<int>(rng.Uniform(n));
    if (head == b1 || head == b2 || b1 == b2) continue;
    t_phi->AppendRow({Value::Int64(head), Value::Int64(b1),
                      rng.Bernoulli(0.5) ? Value::Int64(b2) : Value::Null(),
                      Value::Float64(rng.UniformDouble(0.1, 2.0))});
  }
  auto graph = FactorGraph::FromTables(*t_pi, *t_phi);
  ASSERT_TRUE(graph.ok());

  auto exact = ExactMarginals(*graph);
  ASSERT_TRUE(exact.ok());
  GibbsOptions options;
  options.num_threads = threads;
  options.burn_in_sweeps = 500;
  options.sample_sweeps = 6000;
  options.seed = static_cast<uint64_t>(seed);
  auto gibbs = GibbsMarginals(*graph, options);
  ASSERT_TRUE(gibbs.ok());
  for (size_t v = 0; v < exact->size(); ++v) {
    EXPECT_NEAR(gibbs->marginals[v], (*exact)[v], 0.05) << "var " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndThreads, GibbsPropertyTest,
                         ::testing::Combine(::testing::Range(0, 20),
                                            ::testing::Values(1, 4)));


TEST(GibbsTest, MultiChainPsrfNearOneWhenMixing) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  Grounder grounder(&rkb, GroundingOptions{});
  ASSERT_TRUE(grounder.GroundAtoms().ok());
  auto phi = grounder.GroundFactors();
  ASSERT_TRUE(phi.ok());
  auto graph = FactorGraph::FromTables(*rkb.t_pi, **phi);
  ASSERT_TRUE(graph.ok());

  GibbsOptions options;
  options.num_chains = 4;
  options.burn_in_sweeps = 300;
  options.sample_sweeps = 3000;
  auto result = GibbsMarginals(*graph, options);
  ASSERT_TRUE(result.ok());
  // This small graph mixes immediately: chains agree.
  EXPECT_GT(result->max_psrf, 0.99);
  EXPECT_LT(result->max_psrf, 1.05);

  // Averaged marginals still match exact inference.
  auto exact = ExactMarginals(*graph);
  ASSERT_TRUE(exact.ok());
  for (size_t v = 0; v < exact->size(); ++v) {
    EXPECT_NEAR(result->marginals[v], (*exact)[v], 0.03);
  }
}

/// The flip-in-place loops the incidence kernels replaced. For each
/// occurrence of v in a factor, in factor order: the Gibbs conditional
/// sets x_v to 1 and adds the factor's LogValue, then sets it to 0 and
/// subtracts it; the MAP flip delta subtracts the current value, flips
/// x_v and adds the new one.
double FlipEvaluationLogOdds(const FactorGraph& graph, int32_t v,
                             std::vector<uint8_t> a) {
  double delta = 0.0;
  for (const GroundFactor& f : graph.factors()) {
    for (int32_t u : {f.head, f.body1, f.body2}) {
      if (u != v) continue;
      a[static_cast<size_t>(v)] = 1;
      delta += f.LogValue(a);
      a[static_cast<size_t>(v)] = 0;
      delta -= f.LogValue(a);
    }
  }
  return delta;
}

double FlipEvaluationDelta(const FactorGraph& graph, int32_t v,
                           std::vector<uint8_t> a) {
  double delta = 0.0;
  const uint8_t old_value = a[static_cast<size_t>(v)];
  for (const GroundFactor& f : graph.factors()) {
    for (int32_t u : {f.head, f.body1, f.body2}) {
      if (u != v) continue;
      delta -= f.LogValue(a);
      a[static_cast<size_t>(v)] = 1 - old_value;
      delta += f.LogValue(a);
      a[static_cast<size_t>(v)] = old_value;
    }
  }
  return delta;
}

// The closed-form kernels (Gibbs conditional and MAP flip delta) must
// reproduce the flip-and-evaluate loops bit for bit on every factor shape:
// singletons, 2- and 3-atom clauses, each self-loop shape, duplicated
// factors, and zero or negative weights.
TEST(GibbsKernelTest, ConditionalMatchesFlipEvaluation) {
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 900);
    const int n = 2 + static_cast<int>(rng.Uniform(7));
    auto t_pi = Table::Make(TPiSchema());
    for (int i = 0; i < n; ++i) {
      AppendFactRow(t_pi.get(), 10 * i + 3, {1, i, 3, i + 100, 5, 0.5});
    }
    auto t_phi = Table::Make(TPhiSchema());
    auto weight = [&rng]() {
      switch (rng.Uniform(5)) {
        case 0:
          return 0.0;
        case 1:
          return -0.0;
        case 2:
          return -rng.UniformDouble(0.0, 5.0);
        default:
          // Mixed magnitudes make any reordered sum round differently.
          return rng.UniformDouble(-1.0, 3.0) *
                 std::pow(10.0, rng.UniformDouble(-6.0, 6.0));
      }
    };
    auto fact = [&](int v) { return Value::Int64(10 * v + 3); };
    auto var = [&]() { return static_cast<int>(rng.Uniform(n)); };
    for (int i = 0; i < 30; ++i) {
      int h = var(), b1 = var(), b2 = var();
      switch (rng.Uniform(8)) {
        case 0:  // singleton
          t_phi->AppendRow({fact(h), Value::Null(), Value::Null(),
                            Value::Float64(weight())});
          break;
        case 1:  // 2-atom clause (may be head == body1)
          t_phi->AppendRow({fact(h), fact(b1), Value::Null(),
                            Value::Float64(weight())});
          break;
        case 2:  // head == body1
          t_phi->AppendRow({fact(h), fact(h), fact(b2),
                            Value::Float64(weight())});
          break;
        case 3:  // head == body2
          t_phi->AppendRow({fact(h), fact(b1), fact(h),
                            Value::Float64(weight())});
          break;
        case 4:  // body1 == body2
          t_phi->AppendRow({fact(h), fact(b1), fact(b1),
                            Value::Float64(weight())});
          break;
        case 5:  // all three the same atom
          t_phi->AppendRow({fact(h), fact(h), fact(h),
                            Value::Float64(weight())});
          break;
        default:  // 3-atom clause
          t_phi->AppendRow({fact(h), fact(b1), fact(b2),
                            Value::Float64(weight())});
          break;
      }
      if (rng.Bernoulli(0.2)) {  // duplicate the factor just added
        RowView last = t_phi->row(t_phi->NumRows() - 1);
        t_phi->AppendRow({last[0], last[1], last[2], last[3]});
      }
    }
    auto graph = FactorGraph::FromTables(*t_pi, *t_phi);
    ASSERT_TRUE(graph.ok()) << graph.status();
    ASSERT_EQ(graph->true_slot(), n);

    std::vector<uint8_t> a(static_cast<size_t>(n) + 1, 1);
    for (int trial = 0; trial < 20; ++trial) {
      for (int v = 0; v < n; ++v) {
        a[static_cast<size_t>(v)] = rng.Bernoulli(0.5) ? 1 : 0;
      }
      const std::vector<uint8_t> world(a.begin(), a.end() - 1);
      for (int32_t v = 0; v < n; ++v) {
        const double kernel = ConditionalLogOdds(*graph, v, a.data());
        const double oracle = FlipEvaluationLogOdds(*graph, v, world);
        EXPECT_EQ(std::bit_cast<uint64_t>(kernel),
                  std::bit_cast<uint64_t>(oracle))
            << "seed " << seed << " var " << v << ": " << kernel << " vs "
            << oracle;
        const double flip = FlipDelta(*graph, v, a.data());
        const double flip_oracle = FlipEvaluationDelta(*graph, v, world);
        EXPECT_EQ(std::bit_cast<uint64_t>(flip),
                  std::bit_cast<uint64_t>(flip_oracle))
            << "seed " << seed << " var " << v << ": " << flip << " vs "
            << flip_oracle;
      }
    }
  }
}

/// FNV-1a over the bit patterns of `marginals`, byte by byte.
uint64_t MarginalsDigest(const std::vector<double>& marginals) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (double m : marginals) {
    const uint64_t bits = std::bit_cast<uint64_t>(m);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// The factor graph of a seeded synthetic KB after three grounding
/// iterations. At scale 0.02 its largest color is over four times
/// kGibbsVariablesPerThread, so four threads all get work.
std::shared_ptr<FactorGraph> SyntheticGraph(double scale) {
  SyntheticKbConfig cfg;
  cfg.scale = scale;
  cfg.seed = 11;
  auto skb = GenerateReverbSherlockKb(cfg);
  if (!skb.ok()) return nullptr;
  ExpansionOptions expand;
  expand.run_inference = false;
  expand.grounding.max_iterations = 3;
  auto expansion = ExpandKnowledgeBase(skb->kb, expand);
  return expansion.ok() ? expansion->graph : nullptr;
}

std::shared_ptr<FactorGraph> PaperExampleGraph() {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  ExpansionOptions expand;
  expand.run_inference = false;
  auto expansion = ExpandKnowledgeBase(kb, expand);
  return expansion.ok() ? expansion->graph : nullptr;
}

// Pins the exact sample path: any change to the conditional's arithmetic,
// the color-major numbering or the counter-based draws moves these
// digests. The constants were recorded when the draws became
// counter-based; they hold at every thread count.
TEST(GibbsTest, SamplePathMatchesPinnedDigest) {
  {
    std::shared_ptr<FactorGraph> graph = PaperExampleGraph();
    ASSERT_NE(graph, nullptr);
    GibbsOptions options;
    options.burn_in_sweeps = 100;
    options.sample_sweeps = 1000;
    options.seed = 7;
    auto result = GibbsMarginals(*graph, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(MarginalsDigest(result->marginals), 0xdb6712090dcc5167ULL)
        << std::hex << MarginalsDigest(result->marginals);
  }
  {
    std::shared_ptr<FactorGraph> graph = SyntheticGraph(0.005);
    ASSERT_NE(graph, nullptr);
    ASSERT_GT(graph->num_variables(), 1000);
    GibbsOptions options;
    options.num_chains = 2;
    options.burn_in_sweeps = 20;
    options.sample_sweeps = 60;
    options.seed = 3;
    options.max_sweeps_per_call = 7;
    GibbsCheckpoint state;
    Result<GibbsResult> result = GibbsMarginals(*graph, options, &state);
    for (int calls = 1; result.ok() && !result->complete; ++calls) {
      ASSERT_LE(calls, 20);
      result = GibbsMarginals(*graph, options, &state);
    }
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(MarginalsDigest(result->marginals), 0x5bb6d67d33cbec37ULL)
        << std::hex << MarginalsDigest(result->marginals);
  }
}

// Every draw is keyed on (seed, chain, sweep, variable) and same-color
// variables share no factor, so the thread count must not move a single
// bit of the marginals or the diagnostic.
TEST(GibbsThreadsTest, MarginalsBitIdenticalAcrossThreadCounts) {
  for (const auto& graph : {PaperExampleGraph(), SyntheticGraph(0.005),
                            SyntheticGraph(0.02)}) {
    ASSERT_NE(graph, nullptr);
    int32_t largest = 0;
    for (int c = 0; c < graph->num_colors(); ++c) {
      largest = std::max(largest, graph->color_ranges()[c + 1] -
                                      graph->color_ranges()[c]);
    }
    for (int chains : {1, 2}) {
      GibbsOptions options;
      options.burn_in_sweeps = 20;
      options.sample_sweeps = 60;
      options.num_chains = chains;
      options.seed = 5;
      options.num_threads = 1;
      auto serial = GibbsMarginals(*graph, options);
      ASSERT_TRUE(serial.ok());
      EXPECT_EQ(serial->threads, 1);
      for (int threads : {2, 3, 4}) {
        options.num_threads = threads;
        auto parallel = GibbsMarginals(*graph, options);
        ASSERT_TRUE(parallel.ok());
        EXPECT_EQ(parallel->threads,
                  std::clamp(largest / kGibbsVariablesPerThread, 1, threads));
        EXPECT_EQ(MarginalsDigest(parallel->marginals),
                  MarginalsDigest(serial->marginals))
            << graph->num_variables() << " variables, " << chains
            << " chains, " << threads << " threads";
        EXPECT_EQ(std::bit_cast<uint64_t>(parallel->max_psrf),
                  std::bit_cast<uint64_t>(serial->max_psrf));
      }
    }
  }
  // The largest graph really ran on four threads.
  GibbsOptions options;
  options.burn_in_sweeps = 1;
  options.sample_sweeps = 1;
  options.num_threads = 4;
  std::shared_ptr<FactorGraph> graph = SyntheticGraph(0.02);
  ASSERT_NE(graph, nullptr);
  auto result = GibbsMarginals(*graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->threads, 4);
}

TEST(GibbsTest, MultiChainValidation) {
  FactorGraph g = SingleVarGraph(1.0);
  GibbsOptions options;
  options.num_chains = 0;
  EXPECT_FALSE(GibbsMarginals(g, options).ok());
}

}  // namespace
}  // namespace probkb
