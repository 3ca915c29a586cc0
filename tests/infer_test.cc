#include "infer/gibbs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <ranges>
#include <vector>

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
  // Burn-in plus sample sweeps would overflow an int.
  GibbsOptions overflow;
  overflow.sample_sweeps = std::numeric_limits<int>::max();
  EXPECT_EQ(GibbsMarginals(g, overflow).status().code(),
            StatusCode::kInvalidArgument);
  // A sum of exactly INT_MAX is valid; one sweep of it runs.
  overflow.burn_in_sweeps = 1;
  overflow.sample_sweeps = std::numeric_limits<int>::max() - 1;
  overflow.max_sweeps_per_call = 1;
  auto one_sweep = GibbsMarginals(g, overflow);
  ASSERT_TRUE(one_sweep.ok()) << one_sweep.status();
  EXPECT_FALSE(one_sweep->complete);
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

bool InScope(const GroundFactor& f, int32_t v) {
  return f.head == v || f.body1 == v || f.body2 == v;
}

/// The flip-in-place loops the incidence kernels replaced: the terms of
/// LogScore(x_v = 1) - LogScore(x_v = 0) that do not cancel, in factor
/// order. For each factor holding v, however often: the Gibbs conditional
/// sets x_v to 1 and adds the factor's LogValue, then sets it to 0 and
/// subtracts it; the MAP flip delta subtracts the current value, flips
/// x_v and adds the new one.
double FlipEvaluationLogOdds(const FactorGraph& graph, int32_t v,
                             std::vector<uint8_t> a) {
  double delta = 0.0;
  for (const GroundFactor& f : graph.factors()) {
    if (!InScope(f, v)) continue;
    a[static_cast<size_t>(v)] = 1;
    delta += f.LogValue(a);
    a[static_cast<size_t>(v)] = 0;
    delta -= f.LogValue(a);
  }
  return delta;
}

double FlipEvaluationDelta(const FactorGraph& graph, int32_t v,
                           std::vector<uint8_t> a) {
  double delta = 0.0;
  const uint8_t old_value = a[static_cast<size_t>(v)];
  for (const GroundFactor& f : graph.factors()) {
    if (!InScope(f, v)) continue;
    delta -= f.LogValue(a);
    a[static_cast<size_t>(v)] = 1 - old_value;
    delta += f.LogValue(a);
    a[static_cast<size_t>(v)] = old_value;
  }
  return delta;
}

/// LogScore with x_v set to `value`.
double ScoreWith(const FactorGraph& graph, int32_t v, uint8_t value,
                 std::vector<uint8_t> a) {
  a[static_cast<size_t>(v)] = value;
  return graph.LogScore(a);
}

// The closed-form kernels (Gibbs conditional and MAP flip delta) must
// equal the change of LogScore as x_v flips, on every factor shape:
// singletons, 2- and 3-atom clauses, each self-loop shape, twin body
// atoms, duplicated factors, and zero or negative weights. Within the
// rounding of LogScore's sums against the score itself, and bit for bit
// against the flip-and-evaluate loops over v's factors.
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
    // Each LogScore sums at most |F| terms of magnitude |w|.
    double total_weight = 0.0;
    for (const GroundFactor& f : graph->factors()) {
      total_weight += std::abs(f.weight);
    }
    const double score_tolerance =
        4.0 * static_cast<double>(graph->factors().size()) *
        std::numeric_limits<double>::epsilon() * total_weight;

    std::vector<uint8_t> a(static_cast<size_t>(n) + 1, 1);
    for (int trial = 0; trial < 20; ++trial) {
      for (int v = 0; v < n; ++v) {
        a[static_cast<size_t>(v)] = rng.Bernoulli(0.5) ? 1 : 0;
      }
      const std::vector<uint8_t> world(a.begin(), a.end() - 1);
      for (int32_t v = 0; v < n; ++v) {
        const double kernel = ConditionalLogOdds(*graph, v, a.data());
        EXPECT_NEAR(kernel,
                    ScoreWith(*graph, v, 1, world) -
                        ScoreWith(*graph, v, 0, world),
                    score_tolerance)
            << "seed " << seed << " var " << v;
        const double oracle = FlipEvaluationLogOdds(*graph, v, world);
        EXPECT_EQ(std::bit_cast<uint64_t>(kernel),
                  std::bit_cast<uint64_t>(oracle))
            << "seed " << seed << " var " << v << ": " << kernel << " vs "
            << oracle;
        const double flip = FlipDelta(*graph, v, a.data());
        const uint8_t x = world[static_cast<size_t>(v)];
        EXPECT_NEAR(flip,
                    ScoreWith(*graph, v, static_cast<uint8_t>(1 - x), world) -
                        graph->LogScore(world),
                    score_tolerance)
            << "seed " << seed << " var " << v;
        const double flip_oracle = FlipEvaluationDelta(*graph, v, world);
        EXPECT_EQ(std::bit_cast<uint64_t>(flip),
                  std::bit_cast<uint64_t>(flip_oracle))
            << "seed " << seed << " var " << v << ": " << flip << " vs "
            << flip_oracle;
      }
    }
  }
}

// A factor whose body holds one atom twice, h <- b, b, is one factor of
// b, as in LogScore, however often b occurs in it. On a 3-cycle (nothing
// to solve exactly) Gibbs lands within a binomial 99.9% interval of
// enumeration; counting the factor twice misses it by 0.02-0.05.
TEST(GibbsTest, TwinBodyFactorCountsOnceOnACycle) {
  auto t_pi = Table::Make(TPiSchema());
  for (int i = 1; i <= 3; ++i) {
    AppendFactRow(t_pi.get(), i, {1, i, 3, i + 100, 5, 0.5});
  }
  const Value h = Value::Int64(1), b = Value::Int64(2), c = Value::Int64(3);
  auto t_phi = Table::Make(TPhiSchema());
  t_phi->AppendRow({h, b, b, Value::Float64(2.0)});
  t_phi->AppendRow({c, h, Value::Null(), Value::Float64(1.0)});
  t_phi->AppendRow({b, c, Value::Null(), Value::Float64(1.0)});
  t_phi->AppendRow({b, Value::Null(), Value::Null(), Value::Float64(-1.0)});
  t_phi->AppendRow({h, Value::Null(), Value::Null(), Value::Float64(-0.5)});
  auto graph = FactorGraph::FromTables(*t_pi, *t_phi);
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto exact = ExactMarginals(*graph);
  ASSERT_TRUE(exact.ok());

  GibbsOptions options;
  options.burn_in_sweeps = 1000;
  options.sample_sweeps = 200000;
  options.seed = 3;
  auto gibbs = GibbsMarginals(*graph, options);
  ASSERT_TRUE(gibbs.ok());
  EXPECT_EQ(gibbs->exact_variables, 0);
  for (size_t v = 0; v < exact->size(); ++v) {
    const double p = (*exact)[v];
    const double half_width =
        3.29 * std::sqrt(p * (1.0 - p) / options.sample_sweeps);
    EXPECT_NEAR(gibbs->marginals[v], p, half_width) << "var " << v;
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
// the color-major numbering, the counter-based draws or the exact solve of
// acyclic components moves these digests. The constants were recorded
// when the draws became counter-based; the synthetic graph's was
// re-recorded when its acyclic components became exact (the paper
// example is one cyclic component), and again when a twin-body factor
// (h <- b, b) began to count once in b's conditional (the paper example
// has none). They hold at every thread count.
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
    EXPECT_EQ(MarginalsDigest(result->marginals), 0x418684f03a9c9ce0ULL)
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

/// The sampler the conditional tables replaced, on one thread: every
/// update walks the variable's records and takes Sigmoid of the sum, and
/// variables go in index order (colors in order; within a color the
/// order cannot matter). Variable v's draw in sweep s is SplitMix64 at
/// counter s * n + v of the chain's stream, as in GibbsMarginals. Fills
/// `final_state` with each chain's assignment.
std::vector<double> RecordWalkGibbs(
    const FactorGraph& graph, const GibbsOptions& options,
    std::vector<std::vector<uint8_t>>* final_state) {
  constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
  auto mix64 = [](uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  auto sigmoid = [](double x) {
    if (x >= 0) return 1.0 / (1.0 + std::exp(-x));
    const double e = std::exp(x);
    return e / (1.0 + e);
  };
  const int32_t n = graph.num_variables();
  const int sweeps = options.burn_in_sweeps + options.sample_sweeps;
  std::vector<int64_t> total(static_cast<size_t>(n), 0);
  final_state->clear();
  for (int chain = 0; chain < options.num_chains; ++chain) {
    const uint64_t key =
        mix64(options.seed + kGamma * (static_cast<uint64_t>(chain) + 1));
    std::vector<uint8_t> a(static_cast<size_t>(n) + 1, 0);
    a.back() = 1;
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      for (int32_t v = 0; v < n; ++v) {
        const double p1 = sigmoid(ConditionalLogOdds(graph, v, a.data()));
        const uint64_t draw =
            mix64(key + kGamma * (static_cast<uint64_t>(sweep) *
                                      static_cast<uint64_t>(n) +
                                  static_cast<uint64_t>(v)));
        const uint8_t x =
            static_cast<double>(draw >> 11) * 0x1.0p-53 < p1 ? 1 : 0;
        a[static_cast<size_t>(v)] = x;
        if (sweep >= options.burn_in_sweeps) total[static_cast<size_t>(v)] += x;
      }
    }
    final_state->emplace_back(a.begin(), a.end() - 1);
  }
  std::vector<double> marginals(static_cast<size_t>(n));
  const double denom = static_cast<double>(options.sample_sweeps) *
                       static_cast<double>(options.num_chains);
  for (size_t v = 0; v < marginals.size(); ++v) {
    marginals[v] = static_cast<double>(total[v]) / denom;
  }
  return marginals;
}

/// Distinct other atoms (the true slot aside) that v's records read.
int NeighbourCount(const FactorGraph& graph, int32_t v) {
  std::vector<int32_t> seen;
  for (const Incidence& r : graph.IncidencesOf(v)) {
    for (int32_t o : {r.o1, r.o2}) {
      if (o != graph.true_slot() && std::ranges::find(seen, o) == seen.end()) {
        seen.push_back(o);
      }
    }
  }
  return static_cast<int>(seen.size());
}

/// A seeded graph of 20,000 variables: centers 0..2999 with 0 to
/// kGibbsTableNeighbours + 2 other atoms each, in every clause shape
/// (self-loops and twin body atoms included), some factors repeated,
/// weights zero, negative or of mixed magnitude, one hub of 40 other
/// atoms, and enough isolated variables that the largest color gives
/// four threads work.
FactorGraph TableCoverageGraph(uint64_t seed) {
  constexpr int kVariables = 20000;
  constexpr int kCenters = 3000;
  Rng rng(seed);
  auto t_pi = Table::Make(TPiSchema());
  for (int i = 0; i < kVariables; ++i) {
    AppendFactRow(t_pi.get(), i, {1, i, 3, i + 100000, 5, 0.5});
  }
  auto t_phi = Table::Make(TPhiSchema());
  auto weight = [&rng]() {
    switch (rng.Uniform(4)) {
      case 0:
        return 0.0;
      case 1:
        return -rng.UniformDouble(0.0, 3.0);
      default:
        return rng.UniformDouble(-1.0, 3.0) *
               std::pow(10.0, rng.UniformDouble(-3.0, 1.0));
    }
  };
  auto atom = [](int v) { return Value::Int64(v); };
  auto add = [&](Value h, Value b1, Value b2) {
    t_phi->AppendRow({h, b1, b2, Value::Float64(weight())});
    if (rng.Bernoulli(0.15)) {  // a repeated factor
      RowView last = t_phi->row(t_phi->NumRows() - 1);
      t_phi->AppendRow({last[0], last[1], last[2], last[3]});
    }
  };
  auto other = [&rng]() {
    return kCenters + static_cast<int>(rng.Uniform(kVariables - kCenters));
  };
  for (int c = 0; c < kCenters; ++c) {
    std::vector<int> others;
    const int d = c % (kGibbsTableNeighbours + 3);
    while (static_cast<int>(others.size()) < d) {
      const int o = other();
      if (std::ranges::find(others, o) == others.end()) others.push_back(o);
    }
    for (size_t i = 0; i < others.size(); ++i) {
      const Value o = atom(others[i]);
      const bool pair = i + 1 < others.size();
      switch (rng.Uniform(6)) {
        case 0:
          add(atom(c), o, Value::Null());
          break;
        case 1:
          add(o, atom(c), Value::Null());
          break;
        case 2:  // self-loop
          add(atom(c), atom(c), o);
          break;
        case 3:  // twin body atoms
          add(o, atom(c), atom(c));
          break;
        case 4:
          if (pair) {
            add(atom(c), o, atom(others[++i]));
          } else {
            add(o, o, atom(c));
          }
          break;
        default:
          if (pair) {
            add(o, atom(c), atom(others[++i]));
          } else {
            add(o, atom(c), o);
          }
          break;
      }
    }
    if (rng.Bernoulli(0.5)) add(atom(c), Value::Null(), Value::Null());
  }
  for (int i = 0; i < 40; ++i) {  // a hub, over the cap
    add(atom(kCenters), atom(other()), Value::Null());
  }
  for (int i = 0; i < 2000; ++i) {  // singleton priors
    add(atom(other()), Value::Null(), Value::Null());
  }
  auto graph = FactorGraph::FromTables(*t_pi, *t_phi);
  EXPECT_TRUE(graph.ok()) << graph.status();
  return std::move(*graph);
}

/// The variables of each component, by label.
std::map<int32_t, std::vector<int32_t>> Components(const FactorGraph& graph) {
  std::map<int32_t, std::vector<int32_t>> components;
  const std::vector<int32_t> label = testutil::ComponentLabels(graph);
  for (int32_t v = 0; v < graph.num_variables(); ++v) {
    components[label[static_cast<size_t>(v)]].push_back(v);
  }
  return components;
}

/// Enumerated marginals of one component, built as a graph of its own,
/// indexed like `vars`.
std::vector<double> ComponentExactMarginals(const FactorGraph& graph,
                                            const std::vector<int32_t>& vars) {
  auto t_pi = Table::Make(TPiSchema());
  for (int32_t v : vars) {
    AppendFactRow(t_pi.get(), graph.fact_id(v), {1, v, 3, v, 5, 0.5});
  }
  auto id = [&graph](int32_t v) {
    return v < 0 ? Value::Null() : Value::Int64(graph.fact_id(v));
  };
  auto t_phi = Table::Make(TPhiSchema());
  for (const GroundFactor& f : graph.factors()) {
    if (std::ranges::find(vars, f.head) == vars.end()) continue;
    t_phi->AppendRow(
        {id(f.head), id(f.body1), id(f.body2), Value::Float64(f.weight)});
  }
  auto sub = FactorGraph::FromTables(*t_pi, *t_phi);
  EXPECT_TRUE(sub.ok()) << sub.status();
  auto exact = ExactMarginals(*sub);
  EXPECT_TRUE(exact.ok()) << exact.status();
  std::vector<double> out;
  for (int32_t v : vars) {
    const int32_t w = sub->VariableOf(graph.fact_id(v));
    out.push_back((*exact)[static_cast<size_t>(w)]);
  }
  return out;
}

/// `values` at the variables whose `acyclic` flag is `flag`.
template <typename T>
std::vector<T> Select(const std::vector<T>& values,
                      const std::vector<uint8_t>& acyclic, uint8_t flag) {
  std::vector<T> out;
  for (size_t v = 0; v < values.size(); ++v) {
    if (acyclic[v] == flag) out.push_back(values[v]);
  }
  return out;
}

/// Runs GibbsMarginals on `graph` at 1 and 4 threads, with 1 and 2
/// chains, in one call and sliced across calls, and expects every sampled
/// variable (one outside an acyclic component) to match the
/// record-walking sampler bit for bit, in its marginal and in every
/// chain's final state; the solved ones are counted in exact_variables.
void ExpectSampledMatchRecordWalk(const FactorGraph& graph, uint64_t seed) {
  const std::vector<uint8_t> acyclic = testutil::AcyclicVariables(graph);
  const int solved =
      static_cast<int>(std::ranges::count(acyclic, uint8_t{1}));
  ASSERT_LT(solved, graph.num_variables()) << "nothing left to sample";
  for (int chains : {1, 2}) {
    GibbsOptions options;
    options.burn_in_sweeps = 6;
    options.sample_sweeps = 14;
    options.num_chains = chains;
    options.seed = seed + 17;
    std::vector<std::vector<uint8_t>> walk_state;
    const std::vector<double> walk =
        RecordWalkGibbs(graph, options, &walk_state);
    for (int threads : {1, 4}) {
      for (int slice : {0, 3}) {
        options.num_threads = threads;
        options.max_sweeps_per_call = slice;
        GibbsCheckpoint state;
        Result<GibbsResult> result = GibbsMarginals(graph, options, &state);
        for (int calls = 1; result.ok() && !result->complete; ++calls) {
          ASSERT_LE(calls, 10);
          result = GibbsMarginals(graph, options, &state);
        }
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_EQ(result->threads, threads);
        EXPECT_EQ(result->exact_variables, solved);
        EXPECT_EQ(MarginalsDigest(Select(result->marginals, acyclic, 0)),
                  MarginalsDigest(Select(walk, acyclic, 0)))
            << "seed " << seed << ", " << chains << " chains, " << threads
            << " threads, slices of " << slice;
        ASSERT_EQ(state.chains.size(), walk_state.size());
        for (size_t c = 0; c < walk_state.size(); ++c) {
          EXPECT_EQ(Select(state.chains[c].assignment, acyclic, 0),
                    Select(walk_state[c], acyclic, 0))
              << "chain " << c << ", seed " << seed << ", " << threads
              << " threads, slices of " << slice;
        }
      }
    }
  }
}

// Compiling each conditional into a table over its neighbours' values
// must not move a sample: every sampled variable's marginal and chain
// state equal the record-walking sampler's bit for bit, at 1 and 4
// threads, with 1 and 2 chains, in one call and sliced across calls. The
// solved variables' marginals equal enumeration over their component.
TEST(GibbsKernelTest, ConditionalTablesMatchRecordWalk) {
  for (uint64_t seed : {1, 2}) {
    const FactorGraph graph = TableCoverageGraph(seed);
    const std::vector<uint8_t> acyclic = testutil::AcyclicVariables(graph);
    std::vector<int> counts(kGibbsTableNeighbours + 4, 0);
    for (int32_t v = 0; v < graph.num_variables(); ++v) {
      if (acyclic[static_cast<size_t>(v)]) continue;
      ++counts[static_cast<size_t>(std::min(NeighbourCount(graph, v),
                                            kGibbsTableNeighbours + 3))];
    }
    // A variable that reads no other atom is isolated, so solved.
    EXPECT_EQ(counts[0], 0);
    for (size_t k = 1; k < counts.size(); ++k) {
      EXPECT_GT(counts[k], 0) << "no sampled variable reads " << k
                              << " atoms";
    }
    int32_t largest = 0;
    for (int c = 0; c < graph.num_colors(); ++c) {
      largest = std::max(largest, graph.color_ranges()[c + 1] -
                                      graph.color_ranges()[c]);
    }
    ASSERT_GE(largest, 4 * kGibbsVariablesPerThread);
    ExpectSampledMatchRecordWalk(graph, seed);

    GibbsOptions options;
    options.burn_in_sweeps = 1;
    options.sample_sweeps = 1;
    auto result = GibbsMarginals(graph, options);
    ASSERT_TRUE(result.ok());
    int checked = 0;
    for (const auto& [label, vars] : Components(graph)) {
      if (!acyclic[static_cast<size_t>(label)] || vars.size() > 16) continue;
      const std::vector<double> exact = ComponentExactMarginals(graph, vars);
      for (size_t i = 0; i < vars.size(); ++i) {
        EXPECT_NEAR(result->marginals[static_cast<size_t>(vars[i])], exact[i],
                    1e-12)
            << "seed " << seed << " variable " << vars[i];
        ++checked;
      }
    }
    EXPECT_GT(checked, 1000);
  }
}

// The component solve moves no sample on a grounded KB either.
TEST(GibbsExactTest, SampledVariablesMatchRecordWalk) {
  std::shared_ptr<FactorGraph> graph = SyntheticGraph(0.02);
  ASSERT_NE(graph, nullptr);
  ExpectSampledMatchRecordWalk(*graph, 3);
}

/// A seeded graph of small components, each a tree of scopes with one
/// factor shape per scope (2- and 3-atom clauses in each orientation,
/// self-loops, twin body atoms), then more factors over scopes it
/// already has, exact duplicates, one-atom factors (singletons and
/// self-loops over one atom), and in every third component one factor
/// that may close a cycle. Weights are zero, negative or of mixed
/// magnitude.
FactorGraph MixedComponentsGraph(uint64_t seed) {
  Rng rng(seed);
  auto t_pi = Table::Make(TPiSchema());
  auto t_phi = Table::Make(TPhiSchema());
  auto weight = [&rng]() {
    switch (rng.Uniform(4)) {
      case 0:
        return 0.0;
      case 1:
        return -rng.UniformDouble(0.0, 3.0);
      default:
        return rng.UniformDouble(-1.0, 3.0) *
               std::pow(10.0, rng.UniformDouble(-3.0, 0.7));
    }
  };
  auto atom = [](int v) { return Value::Int64(v); };
  const Value none = Value::Null();
  auto add = [&](Value h, Value b1, Value b2) {
    t_phi->AppendRow({h, b1, b2, Value::Float64(weight())});
    if (rng.Bernoulli(0.1)) {  // an exact duplicate
      RowView last = t_phi->row(t_phi->NumRows() - 1);
      t_phi->AppendRow({last[0], last[1], last[2], last[3]});
    }
  };
  // One factor over the scope {a, b}, in a random shape.
  auto pair = [&](int a, int b) {
    if (rng.Bernoulli(0.5)) std::swap(a, b);
    switch (rng.Uniform(4)) {
      case 0:
        add(atom(a), atom(b), none);
        break;
      case 1:  // self-loop
        add(atom(a), atom(a), atom(b));
        break;
      case 2:  // twin body atoms
        add(atom(a), atom(b), atom(b));
        break;
      default:  // self-loop in the second body atom
        add(atom(a), atom(b), atom(a));
        break;
    }
  };
  // One factor over the scope {a, b, c}, with a random head.
  auto triple = [&](int a, int b, int c) {
    switch (rng.Uniform(3)) {
      case 0:
        add(atom(a), atom(b), atom(c));
        break;
      case 1:
        add(atom(b), atom(c), atom(a));
        break;
      default:
        add(atom(c), atom(a), atom(b));
        break;
    }
  };
  int next = 0;
  for (int c = 0; c < 30; ++c) {
    const int size = 1 + static_cast<int>(rng.Uniform(10));
    const int base = next;
    next += size;
    for (int v = base; v < next; ++v) {
      AppendFactRow(t_pi.get(), v, {1, v, 3, v + 1000, 5, 0.5});
    }
    std::vector<std::array<int, 3>> scopes;
    for (int v = base + 1; v < next;) {
      const int parent = base + static_cast<int>(rng.Uniform(v - base));
      if (v + 1 < next && rng.Bernoulli(0.4)) {
        triple(parent, v, v + 1);
        scopes.push_back({parent, v, v + 1});
        v += 2;
      } else {
        pair(parent, v);
        scopes.push_back({parent, v, -1});
        v += 1;
      }
    }
    for (const std::array<int, 3>& s : scopes) {  // repeated scopes
      if (!rng.Bernoulli(0.5)) continue;
      if (s[2] < 0) {
        pair(s[0], s[1]);
      } else {
        triple(s[0], s[1], s[2]);
      }
    }
    for (int v = base; v < next; ++v) {  // one-atom factors
      switch (rng.Uniform(4)) {
        case 0:
          add(atom(v), none, none);
          break;
        case 1:
          add(atom(v), atom(v), none);
          break;
        case 2:
          add(atom(v), atom(v), atom(v));
          break;
        default:
          break;
      }
    }
    if (c % 3 == 2 && size >= 3) {
      const int a = base + static_cast<int>(rng.Uniform(size));
      int b = base + static_cast<int>(rng.Uniform(size - 1));
      if (b >= a) ++b;
      pair(a, b);
    }
  }
  auto graph = FactorGraph::FromTables(*t_pi, *t_phi);
  EXPECT_TRUE(graph.ok()) << graph.status();
  return std::move(*graph);
}

// Acyclic components are solved exactly inside GibbsMarginals: their
// marginals equal enumeration over the component, whatever the sweep
// count, and exact_variables counts exactly them.
TEST(GibbsExactTest, AcyclicComponentsMatchEnumeration) {
  int trees = 0;
  int cycles = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const FactorGraph graph = MixedComponentsGraph(seed);
    const std::vector<uint8_t> acyclic = testutil::AcyclicVariables(graph);
    GibbsOptions options;
    options.burn_in_sweeps = 2;
    options.sample_sweeps = 3;
    options.num_chains = 2;
    options.seed = seed;
    auto result = GibbsMarginals(graph, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->exact_variables, std::ranges::count(acyclic, 1));
    for (const auto& [label, vars] : Components(graph)) {
      if (!acyclic[static_cast<size_t>(label)]) {
        ++cycles;
        continue;
      }
      ++trees;
      const std::vector<double> exact = ComponentExactMarginals(graph, vars);
      for (size_t i = 0; i < vars.size(); ++i) {
        EXPECT_NEAR(result->marginals[static_cast<size_t>(vars[i])], exact[i],
                    1e-12)
            << "seed " << seed << " variable " << vars[i] << " of a "
            << vars.size() << "-variable tree";
      }
    }
  }
  EXPECT_GT(trees, 300);
  EXPECT_GT(cycles, 100);
}

TEST(GibbsTest, MultiChainValidation) {
  FactorGraph g = SingleVarGraph(1.0);
  GibbsOptions options;
  options.num_chains = 0;
  EXPECT_FALSE(GibbsMarginals(g, options).ok());
}

}  // namespace
}  // namespace probkb
