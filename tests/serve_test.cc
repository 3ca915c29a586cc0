#include "serve/query_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datagen/synthetic_kb.h"
#include "engine/exec_context.h"
#include "engine/ops.h"
#include "factor/factor_graph.h"
#include "grounding/grounder.h"
#include "grounding/local_grounder.h"
#include "grounding/partition_queries.h"
#include "infer/gibbs.h"
#include "kb/relational_model.h"
#include "tests/test_util.h"
#include "util/status.h"
#include "util/strings.h"

namespace probkb {
namespace {

/// Paper-example serving fixture: epoch 0 holds the base facts, epoch 1
/// the fixpoint-expanded KB (the batch grounder plays the writer).
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kb_ = testutil::BuildPaperExampleKB();
    rkb_ = BuildRelationalModel(kb_);
    first_inferred_ = rkb_.next_fact_id;
  }

  std::unique_ptr<QueryServer> MakeServer(ServeOptions options = {}) {
    return std::make_unique<QueryServer>(&kb_, first_inferred_, options);
  }

  void Expand() {
    Grounder grounder(&rkb_, GroundingOptions{});
    ASSERT_TRUE(grounder.GroundAtoms().ok());
  }

  KnowledgeBase kb_;
  RelationalKB rkb_;
  FactId first_inferred_ = 0;
};

void ExpectBitIdentical(const ServeAnswer& a, const ServeAnswer& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.grounded_atoms, b.grounded_atoms);
  EXPECT_EQ(a.total_atoms, b.total_atoms);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].id, b.entries[i].id);
    // Exact double equality on purpose: same epoch + same options must
    // reproduce the marginal bit for bit.
    EXPECT_EQ(a.entries[i].probability, b.entries[i].probability);
  }
}

TEST_F(ServeTest, AnswerBeforeFirstPublishFails) {
  auto server = MakeServer();
  EXPECT_EQ(server->current_epoch(), -1);
  EXPECT_FALSE(server->Answer("born_in(Ruth Gruber, *)").ok());
  EXPECT_FALSE(server->PinNewest().ok());
}

TEST_F(ServeTest, MalformedQueryIsInvalidArgument) {
  auto server = MakeServer();
  ASSERT_TRUE(server->PublishEpoch(rkb_).ok());
  auto bad = server->Answer("live_in(Ruth Gruber");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, UnknownNamesAreEmptyAnswersNotErrors) {
  auto server = MakeServer();
  ASSERT_TRUE(server->PublishEpoch(rkb_).ok());
  auto answer = server->Answer("flies_to(Ruth Gruber, *)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->entries.empty());
}

/// At full closure the local subgraph is the query's whole connected
/// component, so serve-side exact marginals must agree with batch exact
/// marginals over the full ground factor graph.
TEST_F(ServeTest, AnswersMatchBatchExactMarginals) {
  ServeOptions options;
  options.grounding.max_depth = 16;
  options.inference.exact_max_vars = 20;
  options.top_k = 0;  // all matches
  auto server = MakeServer(options);
  Expand();
  ASSERT_TRUE(server->PublishEpoch(rkb_).ok());

  Grounder grounder(&rkb_, GroundingOptions{});
  auto phi = grounder.GroundFactors();
  ASSERT_TRUE(phi.ok()) << phi.status();
  auto graph = FactorGraph::FromTables(*rkb_.t_pi, **phi);
  ASSERT_TRUE(graph.ok());
  auto exact = ExactMarginals(*graph);
  ASSERT_TRUE(exact.ok()) << exact.status();

  for (const char* query :
       {"live_in(Ruth Gruber, *)", "located_in(*, *)", "Brooklyn"}) {
    auto answer = server->Answer(query);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_TRUE(answer->exact);
    EXPECT_FALSE(answer->truncated);
    ASSERT_FALSE(answer->entries.empty()) << query;
    for (const ServeAnswer::Entry& entry : answer->entries) {
      int32_t v = graph->VariableOf(entry.id);
      ASSERT_GE(v, 0);
      EXPECT_NEAR(entry.probability, (*exact)[static_cast<size_t>(v)], 1e-9)
          << query << " fact " << entry.id;
    }
  }
}

TEST_F(ServeTest, EntriesSortedByProbabilityAndTopKTruncates) {
  ServeOptions options;
  options.grounding.max_depth = 16;
  auto server = MakeServer(options);
  Expand();
  ASSERT_TRUE(server->PublishEpoch(rkb_).ok());

  auto all = server->Answer("Ruth Gruber");
  ASSERT_TRUE(all.ok());
  ASSERT_GT(all->entries.size(), 2u);
  for (size_t i = 1; i < all->entries.size(); ++i) {
    EXPECT_GE(all->entries[i - 1].probability, all->entries[i].probability);
  }

  ServeOptions top2 = options;
  top2.top_k = 2;
  auto server2 = MakeServer(top2);
  ASSERT_TRUE(server2->PublishEpoch(rkb_).ok());
  auto truncated = server2->Answer("Ruth Gruber");
  ASSERT_TRUE(truncated.ok());
  ASSERT_EQ(truncated->entries.size(), 2u);
  EXPECT_EQ(truncated->entries[0].id, all->entries[0].id);
  EXPECT_EQ(truncated->entries[1].id, all->entries[1].id);
}

/// A reader pinned at epoch N keeps getting epoch-N answers, bit for bit,
/// while the writer expands the KB and publishes N+1.
TEST_F(ServeTest, PinnedEpochIsFrozenWhileWriterPublishes) {
  auto server = MakeServer();
  ASSERT_TRUE(server->PublishEpoch(rkb_).ok());
  auto pin = server->PinNewest();
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(pin->epoch, 0);

  auto pattern = ParseQueryPattern("born_in(Ruth Gruber, *)");
  ASSERT_TRUE(pattern.ok());
  auto before = server->AnswerAt(*pattern, *pin);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->total_atoms, 2);  // base facts only at epoch 0

  Expand();
  ASSERT_TRUE(server->PublishEpoch(rkb_).ok());
  EXPECT_EQ(server->current_epoch(), 1);

  auto after = server->AnswerAt(*pattern, *pin);
  ASSERT_TRUE(after.ok());
  ExpectBitIdentical(*before, *after);

  // A fresh query sees the expanded epoch.
  auto newest = server->Answer("born_in(Ruth Gruber, *)");
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest->epoch, 1);
  EXPECT_GT(newest->total_atoms, before->total_atoms);
}

TEST_F(ServeTest, ConcurrentReadersAtOnePinAreBitIdentical) {
  ServeOptions options;
  options.grounding.max_depth = 16;
  auto server = MakeServer(options);
  Expand();
  ASSERT_TRUE(server->PublishEpoch(rkb_).ok());
  auto pin = server->PinNewest();
  ASSERT_TRUE(pin.ok());
  auto pattern = ParseQueryPattern("live_in(Ruth Gruber, *)");
  ASSERT_TRUE(pattern.ok());

  auto reference = server->AnswerAt(*pattern, *pin);
  ASSERT_TRUE(reference.ok());

  for (int readers : {1, 2, 4, 8}) {
    std::vector<ServeAnswer> answers(static_cast<size_t>(readers));
    std::vector<Status> statuses(static_cast<size_t>(readers), Status::OK());
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(readers));
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        auto answer = server->AnswerAt(*pattern, *pin);
        if (answer.ok()) {
          answers[static_cast<size_t>(r)] = std::move(*answer);
        } else {
          statuses[static_cast<size_t>(r)] = answer.status();
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int r = 0; r < readers; ++r) {
      ASSERT_TRUE(statuses[static_cast<size_t>(r)].ok())
          << statuses[static_cast<size_t>(r)];
      ExpectBitIdentical(*reference, answers[static_cast<size_t>(r)]);
    }
  }
}

TEST_F(ServeTest, FailedPublishKeepsServingTheOldEpoch) {
  auto server = MakeServer();
  ASSERT_TRUE(server->PublishEpoch(rkb_).ok());
  auto before = server->Answer("born_in(Ruth Gruber, *)");
  ASSERT_TRUE(before.ok());

  server->store_for_test()->SetPublishObserverForTest(
      [](int64_t) { return Status::Internal("chaos mid-publish"); });
  Expand();
  EXPECT_FALSE(server->PublishEpoch(rkb_).ok());
  EXPECT_EQ(server->current_epoch(), 0);

  auto during = server->Answer("born_in(Ruth Gruber, *)");
  ASSERT_TRUE(during.ok());
  ExpectBitIdentical(*before, *during);

  server->store_for_test()->SetPublishObserverForTest(nullptr);
  ASSERT_TRUE(server->PublishEpoch(rkb_).ok());
  EXPECT_EQ(server->current_epoch(), 1);
  auto after = server->Answer("born_in(Ruth Gruber, *)");
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->total_atoms, before->total_atoms);
}

TEST_F(ServeTest, DepthZeroReportsTruncation) {
  ServeOptions options;
  options.grounding.max_depth = 0;
  auto server = MakeServer(options);
  Expand();
  ASSERT_TRUE(server->PublishEpoch(rkb_).ok());
  auto answer = server->Answer("born_in(Ruth Gruber, *)");
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->truncated);
  EXPECT_EQ(answer->depth_reached, 0);
  EXPECT_EQ(answer->grounded_atoms, 2);  // seeds only
  EXPECT_EQ(answer->entries.size(), 2u);
}

TEST_F(ServeTest, StatsCountersTrackServedQueries) {
  auto server = MakeServer();
  ASSERT_TRUE(server->PublishEpoch(rkb_).ok());
  EXPECT_EQ(server->StatsCounter("serve_queries"), -1);  // absent before use
  ASSERT_TRUE(server->Answer("born_in(Ruth Gruber, *)").ok());
  ASSERT_TRUE(server->Answer("Brooklyn").ok());
  EXPECT_EQ(server->StatsCounter("serve_queries"), 2);
  EXPECT_GT(server->StatsCounter("serve_answers"), 0);
  std::string text = server->StatsText();
  EXPECT_NE(text.find("serve_queries"), std::string::npos);
}

/// Subgraph answers sampled by Gibbs (exact enumeration off) stay bit for
/// bit the same across concurrent readers when PROBKB_THREADS asks for
/// four threads: the serve path samples on each reader's own thread, and
/// the sample path does not depend on the thread count anyway.
TEST_F(ServeTest, GibbsAnswersBitIdenticalAcrossReadersWithFourThreads) {
  // Restores PROBKB_THREADS however the test exits.
  struct RestoreThreadsEnv {
    const char* saved = std::getenv("PROBKB_THREADS");
    std::string value = saved != nullptr ? saved : "";
    ~RestoreThreadsEnv() {
      if (saved != nullptr) {
        ::setenv("PROBKB_THREADS", value.c_str(), 1);
      } else {
        ::unsetenv("PROBKB_THREADS");
      }
    }
  } restore;
  ServeOptions options;
  options.grounding.max_depth = 16;
  options.inference.use_exact_when_small = false;
  options.inference.gibbs.burn_in_sweeps = 50;
  options.inference.gibbs.sample_sweeps = 400;
  auto server = MakeServer(options);
  Expand();
  ASSERT_TRUE(server->PublishEpoch(rkb_).ok());
  auto pin = server->PinNewest();
  ASSERT_TRUE(pin.ok());
  auto pattern = ParseQueryPattern("Ruth Gruber");
  ASSERT_TRUE(pattern.ok());

  ::setenv("PROBKB_THREADS", "1", 1);
  auto reference = server->AnswerAt(*pattern, *pin);
  ::setenv("PROBKB_THREADS", "4", 1);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_FALSE(reference->entries.empty());
  EXPECT_FALSE(reference->exact);
  for (int readers : {1, 4, 8}) {
    std::vector<Result<ServeAnswer>> answers(
        static_cast<size_t>(readers), Status::Internal("not answered"));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(readers));
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        answers[static_cast<size_t>(r)] = server->AnswerAt(*pattern, *pin);
      });
    }
    for (auto& th : threads) th.join();
    for (const Result<ServeAnswer>& answer : answers) {
      ASSERT_TRUE(answer.ok()) << answer.status();
      ExpectBitIdentical(*reference, *answer);
    }
  }
}

/// The newest epoch's index is built once however readers at an older
/// epoch interleave with its readers: an older epoch's index never
/// displaces it, and lives only while a query at that epoch holds it.
TEST_F(ServeTest, NewestEpochIndexIsBuiltOnceWhileOlderEpochReadersAlternate) {
  auto server = MakeServer();
  ASSERT_TRUE(server->PublishEpoch(rkb_).ok());
  auto old_pin = server->PinNewest();
  ASSERT_TRUE(old_pin.ok());
  Expand();
  ASSERT_TRUE(server->PublishEpoch(rkb_).ok());
  auto new_pin = server->PinNewest();
  ASSERT_TRUE(new_pin.ok());
  ASSERT_EQ(new_pin->epoch, old_pin->epoch + 1);
  auto pattern = ParseQueryPattern("born_in(Ruth Gruber, *)");
  ASSERT_TRUE(pattern.ok());

  auto builds = [&] {
    return server->StatsCounter("serve_epoch_index_builds");
  };
  auto reference = server->AnswerAt(*pattern, *new_pin);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(builds(), 1);
  for (int round = 0; round < 3; ++round) {
    // Nothing holds epoch N-1 between its queries, so each one rebuilds
    // it; epoch N stays cached throughout.
    ASSERT_TRUE(server->AnswerAt(*pattern, *old_pin).ok());
    EXPECT_EQ(builds(), 2 + round);
    auto again = server->AnswerAt(*pattern, *new_pin);
    ASSERT_TRUE(again.ok());
    ExpectBitIdentical(*reference, *again);
    EXPECT_EQ(builds(), 2 + round) << "epoch N's index was rebuilt";
  }

  // Readers arriving together at a fresh epoch share one build.
  ASSERT_TRUE(server->PublishEpoch(rkb_).ok());
  auto fresh_pin = server->PinNewest();
  ASSERT_TRUE(fresh_pin.ok());
  const int64_t before = builds();
  std::vector<std::thread> threads;
  std::vector<Status> statuses(8, Status::OK());
  for (size_t r = 0; r < statuses.size(); ++r) {
    threads.emplace_back([&, r] {
      statuses[r] = server->AnswerAt(*pattern, *fresh_pin).status();
    });
  }
  for (auto& th : threads) th.join();
  for (const Status& st : statuses) EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(builds(), before + 1);
}

/// Locality: on a KB of many entity-disjoint components, a query grounds
/// its own component only — an order of magnitude (and more) below the
/// full expanded TPi, which is the point of serving on demand.
TEST(ServeLocalityTest, PerQueryGroundingIsOrderOfMagnitudeBelowFullKb) {
  KnowledgeBase kb;
  ClassId w = kb.classes().GetOrAdd("Writer");
  ClassId c = kb.classes().GetOrAdd("City");
  ClassId p = kb.classes().GetOrAdd("Place");
  RelationId born_in = kb.relations().GetOrAdd("born_in");
  RelationId live_in = kb.relations().GetOrAdd("live_in");
  RelationId grow_up_in = kb.relations().GetOrAdd("grow_up_in");

  // Rules are shared; connectivity comes only through shared entities, so
  // 40 disjoint person/city/borough triples make 40 disjoint components.
  for (RelationId head : {live_in, grow_up_in}) {
    for (ClassId c2 : {p, c}) {
      HornRule r;
      r.structure = RuleStructure::kM1;
      r.head = head;
      r.body1 = born_in;
      r.c1 = w;
      r.c2 = c2;
      r.weight = 1.5;
      kb.AddRule(r);
    }
  }
  constexpr int kComponents = 40;
  for (int i = 0; i < kComponents; ++i) {
    std::string suffix = "_" + std::to_string(i);
    EntityId person = kb.entities().GetOrAdd("person" + suffix);
    EntityId city = kb.entities().GetOrAdd("city" + suffix);
    EntityId borough = kb.entities().GetOrAdd("borough" + suffix);
    kb.AddFact({born_in, person, w, city, c, 0.9});
    kb.AddFact({born_in, person, w, borough, p, 0.8});
  }

  RelationalKB rkb = BuildRelationalModel(kb);
  FactId first_inferred = rkb.next_fact_id;
  Grounder grounder(&rkb, GroundingOptions{});
  ASSERT_TRUE(grounder.GroundAtoms().ok());

  ServeOptions options;
  options.grounding.max_depth = 16;
  QueryServer server(&kb, first_inferred, options);
  ASSERT_TRUE(server.PublishEpoch(rkb).ok());

  auto answer = server.Answer("live_in(person_0, *)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_FALSE(answer->entries.empty());
  EXPECT_FALSE(answer->truncated);
  // One component of 6 atoms vs 40 components' worth of expanded facts.
  EXPECT_GE(answer->total_atoms, 10 * answer->grounded_atoms)
      << "grounded " << answer->grounded_atoms << " of "
      << answer->total_atoms;
}

/// ServeLocalityTest's KB with `components` person/city/borough triples:
/// two born_in facts each and the four M1 rules deriving live_in and
/// grow_up_in from them.
KnowledgeBase ComponentsKb(int components) {
  KnowledgeBase kb;
  ClassId w = kb.classes().GetOrAdd("Writer");
  ClassId c = kb.classes().GetOrAdd("City");
  ClassId p = kb.classes().GetOrAdd("Place");
  RelationId born_in = kb.relations().GetOrAdd("born_in");
  RelationId live_in = kb.relations().GetOrAdd("live_in");
  RelationId grow_up_in = kb.relations().GetOrAdd("grow_up_in");
  for (RelationId head : {live_in, grow_up_in}) {
    for (ClassId c2 : {p, c}) {
      HornRule r;
      r.structure = RuleStructure::kM1;
      r.head = head;
      r.body1 = born_in;
      r.c1 = w;
      r.c2 = c2;
      r.weight = 1.5;
      kb.AddRule(r);
    }
  }
  for (int i = 0; i < components; ++i) {
    std::string suffix = "_" + std::to_string(i);
    EntityId person = kb.entities().GetOrAdd("person" + suffix);
    EntityId city = kb.entities().GetOrAdd("city" + suffix);
    EntityId borough = kb.entities().GetOrAdd("borough" + suffix);
    kb.AddFact({born_in, person, w, city, c, 0.9});
    kb.AddFact({born_in, person, w, borough, p, 0.8});
  }
  return kb;
}

/// Locality of the work, not just of the answer: the index entries a query
/// walks depend on its ball alone, so a KB ten times larger (ten times the
/// components) costs the same query the same probes.
TEST(ServeLocalityTest, IndexProbesScaleWithTheBallNotTheKb) {
  std::vector<int64_t> probes;
  for (int components : {40, 400}) {
    KnowledgeBase kb = ComponentsKb(components);
    RelationalKB rkb = BuildRelationalModel(kb);
    FactId first_inferred = rkb.next_fact_id;
    Grounder grounder(&rkb, GroundingOptions{});
    ASSERT_TRUE(grounder.GroundAtoms().ok());
    ServeOptions options;
    options.grounding.max_depth = 16;
    QueryServer server(&kb, first_inferred, options);
    ASSERT_TRUE(server.PublishEpoch(rkb).ok());
    auto answer = server.Answer("live_in(person_0, *)");
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_FALSE(answer->truncated);
    EXPECT_EQ(answer->grounded_atoms, 6);
    const int64_t walked = server.StatsCounter("serve_index_probes");
    // A handful of entries per ball atom and rule, far below TPi.
    EXPECT_GT(walked, 0) << components;
    EXPECT_LE(walked, 8 * answer->grounded_atoms) << components;
    EXPECT_LT(walked, answer->total_atoms / 4) << components;
    probes.push_back(walked);
  }
  EXPECT_EQ(probes[0], probes[1]);
}

// --- Local grounding: M-driven reference, differential and pinned digest ---

/// The M-driven local grounder the frontier-driven one replaced, kept as
/// the reference it must reproduce row for row. Every BFS round runs the
/// per-partition Query 2-p over the whole TPi with the frontier as the
/// head table, then as the first and (length 3) the second body probe;
/// each factor is kept the first time its (partition, I1, I2, I3, w) key
/// is seen.
Result<LocalGrounding> ReferenceGroundLocalSubgraph(
    TablePtr t_pi, const std::array<TablePtr, kNumRuleStructures>& m,
    const std::vector<int64_t>& seed_rows, const LocalGroundingOptions& opts) {
  std::unordered_map<FactId, int64_t> row_of;
  for (int64_t i = 0; i < t_pi->NumRows(); ++i) {
    row_of.emplace(t_pi->row(i)[tpi::kI].i64(), i);
  }
  auto factor_key = [](int p, const RowView& f) {
    int64_t w_bits = 0;
    const double w = f[tphi::kW].f64();
    std::memcpy(&w_bits, &w, sizeof(w_bits));
    return std::array<int64_t, 5>{
        p, f[tphi::kI1].i64(),
        f[tphi::kI2].is_null() ? int64_t{-1} : f[tphi::kI2].i64(),
        f[tphi::kI3].is_null() ? int64_t{-1} : f[tphi::kI3].i64(), w_bits};
  };
  LocalGrounding out;
  out.total_atoms = t_pi->NumRows();
  out.t_phi = Table::Make(TPhiSchema());
  std::unordered_set<FactId> visited;
  std::vector<FactId> frontier;
  for (int64_t r : seed_rows) {
    FactId id = t_pi->row(r)[tpi::kI].i64();
    if (visited.insert(id).second) frontier.push_back(id);
  }
  std::set<std::array<int64_t, 5>> seen_factors;
  for (int depth = 0; depth < opts.max_depth && !frontier.empty(); ++depth) {
    std::sort(frontier.begin(), frontier.end());
    auto frontier_table = Table::Make(t_pi->schema());
    for (FactId id : frontier) {
      auto it = row_of.find(id);
      if (it != row_of.end()) frontier_table->AppendRow(t_pi->row(it->second));
    }
    std::vector<FactId> next;
    auto absorb = [&](int p, const Table& factors) {
      for (int64_t i = 0; i < factors.NumRows(); ++i) {
        RowView f = factors.row(i);
        if (!seen_factors.insert(factor_key(p, f)).second) continue;
        out.t_phi->AppendRow(f);
        for (int col : {tphi::kI1, tphi::kI2, tphi::kI3}) {
          if (f[col].is_null()) continue;
          FactId atom = f[col].i64();
          if (visited.insert(atom).second) next.push_back(atom);
        }
      }
    };
    for (int p = 1; p <= kNumRuleStructures; ++p) {
      TablePtr mp = m[static_cast<size_t>(p - 1)];
      if (mp == nullptr || mp->NumRows() == 0) continue;
      const bool len3 = GetPartitionSpec(p).body_length == 2;
      // (body 1, body 2, head) tables of the three directions.
      const std::vector<std::array<TablePtr, 3>> directions = {
          {t_pi, t_pi, frontier_table},
          {frontier_table, t_pi, t_pi},
          {t_pi, frontier_table, t_pi}};
      for (size_t d = 0; d < (len3 ? 3u : 2u); ++d) {
        ExecContext ec;
        PROBKB_ASSIGN_OR_RETURN(
            TablePtr factors,
            GroundFactorsForPartition(p, mp, directions[d][0],
                                      directions[d][1], directions[d][2],
                                      &ec));
        absorb(p, *factors);
      }
    }
    out.depth_reached = depth + 1;
    frontier = std::move(next);
    if (opts.max_atoms > 0 &&
        static_cast<int64_t>(visited.size()) >= opts.max_atoms) {
      break;
    }
  }
  out.truncated = !frontier.empty();
  std::vector<FactId> ids(visited.begin(), visited.end());
  std::sort(ids.begin(), ids.end());
  out.sub_t_pi = Table::Make(t_pi->schema());
  for (FactId id : ids) {
    auto it = row_of.find(id);
    if (it != row_of.end()) out.sub_t_pi->AppendRow(t_pi->row(it->second));
  }
  out.grounded_atoms = out.sub_t_pi->NumRows();
  ExecContext ec;
  PROBKB_ASSIGN_OR_RETURN(TablePtr singletons,
                          SingletonFactors(out.sub_t_pi, &ec));
  out.t_phi->AppendTable(*singletons);
  return out;
}

/// A seeded generated KB expanded by `iterations` fixpoint iterations.
struct ExpandedKb {
  KnowledgeBase kb;
  RelationalKB rkb;
  FactId first_inferred = 0;
};

std::unique_ptr<ExpandedKb> MakeExpandedKb(uint64_t seed, int iterations,
                                           double scale) {
  SyntheticKbConfig cfg;
  cfg.scale = scale;
  cfg.seed = seed;
  auto skb = GenerateReverbSherlockKb(cfg);
  EXPECT_TRUE(skb.ok());
  if (!skb.ok()) return nullptr;
  auto out = std::make_unique<ExpandedKb>();
  out->kb = std::move(skb->kb);
  out->rkb = BuildRelationalModel(out->kb);
  out->first_inferred = out->rkb.next_fact_id;
  GroundingOptions options;
  options.max_iterations = iterations;
  Grounder grounder(&out->rkb, options);
  EXPECT_TRUE(grounder.GroundAtoms().ok());
  return out;
}

/// `t_pi` with its rows in reverse order, so fact ids fall with row order.
TablePtr ReversedRows(const Table& t_pi) {
  std::vector<int64_t> rows(static_cast<size_t>(t_pi.NumRows()));
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = t_pi.NumRows() - 1 - static_cast<int64_t>(i);
  }
  TablePtr out = Table::Make(t_pi.schema());
  out->AppendGatheredRows(t_pi, rows);
  return out;
}

/// `t_pi` plus a copy of every `stride`-th row under a fresh id: duplicate
/// facts, same key and weight, as extractions from two sources give.
TablePtr WithDuplicateFacts(const Table& t_pi, int64_t stride) {
  TablePtr out = Table::Make(t_pi.schema());
  out->AppendTable(t_pi);
  FactId next_id = 0;
  const int64_t* ids = t_pi.Int64Data(tpi::kI);
  for (int64_t i = 0; i < t_pi.NumRows(); ++i) {
    next_id = std::max(next_id, ids[i] + 1);
  }
  std::vector<int64_t> rows;
  for (int64_t i = 0; i < t_pi.NumRows(); i += stride) rows.push_back(i);
  std::vector<Table::ColumnSource> cols;
  for (int c = 0; c < tpi::kWidth; ++c) {
    cols.push_back(c == tpi::kI
                       ? Table::ColumnSource::Sequence(next_id)
                       : Table::ColumnSource::Gather(t_pi, c, rows.data()));
  }
  out->AppendColumns(static_cast<int64_t>(rows.size()), cols);
  return out;
}

/// Seed sets of one to three TPi rows spread over the table.
std::vector<std::vector<int64_t>> SeedSets(const Table& t_pi, int count) {
  std::vector<std::vector<int64_t>> out;
  const int64_t n = t_pi.NumRows();
  for (int q = 0; q < count; ++q) {
    std::vector<int64_t> seeds;
    for (int k = 0; k <= q % 3; ++k) {
      seeds.push_back((q * 7919 + k * 104729) % n);
    }
    out.push_back(std::move(seeds));
  }
  return out;
}

void ExpectSameGrounding(const LocalGrounding& want, const LocalGrounding& got,
                         const std::string& what) {
  EXPECT_TRUE(TablesEqualExact(*want.sub_t_pi, *got.sub_t_pi)) << what;
  EXPECT_TRUE(TablesEqualExact(*want.t_phi, *got.t_phi))
      << what << ": " << want.t_phi->NumRows() << " vs "
      << got.t_phi->NumRows() << " factor rows";
  EXPECT_EQ(want.grounded_atoms, got.grounded_atoms) << what;
  EXPECT_EQ(want.total_atoms, got.total_atoms) << what;
  EXPECT_EQ(want.depth_reached, got.depth_reached) << what;
  EXPECT_EQ(want.truncated, got.truncated) << what;
}

/// The local grounder reproduces the M-driven reference's sub-TPi and
/// TPhi row for row (factor order drives the factor graph's coloring and
/// so Gibbs), at depths 0-3, under an atom cap that truncates, with
/// duplicate facts, and on a TPi whose ids do not rise with row order.
TEST(LocalGroundingTest, MatchesMDrivenReferenceRowForRow) {
  for (uint64_t seed : {3u, 17u}) {
    auto ekb = MakeExpandedKb(seed, 3, 0.005);
    ASSERT_NE(ekb, nullptr);
    const std::vector<std::pair<std::string, TablePtr>> tpis = {
        {"expanded", ekb->rkb.t_pi},
        {"ids descending", ReversedRows(*ekb->rkb.t_pi)},
        {"duplicate facts", WithDuplicateFacts(*ekb->rkb.t_pi, 5)}};
    int truncated_by_cap = 0;
    for (const auto& [name, t_pi] : tpis) {
      const auto row_of = BuildFactRowIndex(*t_pi);
      std::vector<LocalGroundingOptions> bounds;
      for (int depth = 0; depth <= 3; ++depth) {
        LocalGroundingOptions opts;
        opts.max_depth = depth;
        bounds.push_back(opts);
      }
      LocalGroundingOptions capped;
      capped.max_depth = 8;
      capped.max_atoms = 12;
      bounds.push_back(capped);
      for (const LocalGroundingOptions& opts : bounds) {
        for (const std::vector<int64_t>& seeds : SeedSets(*t_pi, 12)) {
          const std::string what =
              StrFormat("seed %llu, %s, depth %d, cap %lld, first row %lld",
                        static_cast<unsigned long long>(seed), name.c_str(),
                        opts.max_depth, static_cast<long long>(opts.max_atoms),
                        static_cast<long long>(seeds[0]));
          auto want =
              ReferenceGroundLocalSubgraph(t_pi, ekb->rkb.m, seeds, opts);
          ASSERT_TRUE(want.ok()) << want.status();
          auto got = GroundLocalSubgraph(t_pi, ekb->rkb.m, row_of, seeds, opts);
          ASSERT_TRUE(got.ok()) << got.status();
          ExpectSameGrounding(*want, *got, what);
          if (opts.max_atoms == capped.max_atoms && got->truncated) {
            ++truncated_by_cap;
          }
        }
      }
    }
    EXPECT_GT(truncated_by_cap, 0) << "the atom cap never truncated";
  }
}

/// Digest of (sub-TPi, TPhi, served probabilities) over a fixed query set
/// on a generated KB, recorded with the M-driven local grounder: any change
/// to which factors a ball holds, or to their order, moves it. Re-recorded
/// when GibbsMarginals began solving acyclic components exactly, which
/// moved the probabilities served on them.
constexpr uint64_t kPinnedLocalGroundingDigest = 0x070a9ec091409d67ULL;

TEST(LocalGroundingTest, OutputsMatchPinnedDigest) {
  auto ekb = MakeExpandedKb(11, 3, 0.01);
  ASSERT_NE(ekb, nullptr);
  ServeOptions options;
  options.top_k = 0;
  options.inference.gibbs.sample_sweeps = 200;
  options.inference.exact_max_vars = 4;  // larger balls take Gibbs
  QueryServer server(&ekb->kb, ekb->first_inferred, options);
  ASSERT_TRUE(server.PublishEpoch(ekb->rkb).ok());
  auto pin = server.PinNewest();
  ASSERT_TRUE(pin.ok());
  const TablePtr t_pi = ekb->rkb.t_pi;
  const auto row_of = BuildFactRowIndex(*t_pi);
  KbQuery kb_query(&ekb->kb, t_pi, ekb->first_inferred);

  uint64_t digest = 0xcbf29ce484222325ULL;
  int sampled = 0;
  const auto& facts = ekb->kb.facts();
  for (size_t i = 0; i < facts.size(); i += facts.size() / 16) {
    QueryPattern pattern;
    pattern.relation = ekb->kb.relations().NameOrPlaceholder(facts[i].relation);
    pattern.x = ekb->kb.entities().NameOrPlaceholder(facts[i].x);
    auto local = GroundLocalSubgraph(t_pi, ekb->rkb.m, row_of,
                                     kb_query.SeedRows(pattern),
                                     options.grounding);
    ASSERT_TRUE(local.ok()) << local.status();
    digest = testutil::TableDigest(*local->sub_t_pi, digest);
    digest = testutil::TableDigest(*local->t_phi, digest);
    auto answer = server.AnswerAt(pattern, *pin);
    ASSERT_TRUE(answer.ok()) << answer.status();
    sampled += answer->exact ? 0 : 1;
    for (const ServeAnswer::Entry& e : answer->entries) {
      for (uint64_t bits : {static_cast<uint64_t>(e.id),
                            std::bit_cast<uint64_t>(e.probability)}) {
        digest = (digest ^ bits) * 0x100000001b3ULL;
      }
    }
  }
  EXPECT_GT(sampled, 0) << "no query took the Gibbs path";
  EXPECT_EQ(digest, kPinnedLocalGroundingDigest) << "0x" << std::hex << digest;
}

// A ball above exact_max_vars samples through GibbsMarginals, which
// solves acyclic components exactly: on every acyclic component a ball
// holds whole (all its atoms and factors), the served marginal equals the
// batch GibbsMarginals over the whole KB's factor graph.
TEST(ServeExactComponentsTest, AcyclicComponentsMatchBatchGibbs) {
  auto ekb = MakeExpandedKb(11, 50, 0.01);
  ASSERT_NE(ekb, nullptr);
  ServeOptions options;
  options.top_k = 0;
  options.grounding.max_depth = 16;
  options.inference.exact_max_vars = 4;  // larger balls take Gibbs
  options.inference.gibbs.sample_sweeps = 50;
  QueryServer server(&ekb->kb, ekb->first_inferred, options);
  ASSERT_TRUE(server.PublishEpoch(ekb->rkb).ok());
  auto pin = server.PinNewest();
  ASSERT_TRUE(pin.ok());

  Grounder grounder(&ekb->rkb, GroundingOptions{});
  auto phi = grounder.GroundFactors();
  ASSERT_TRUE(phi.ok()) << phi.status();
  auto graph = FactorGraph::FromTables(*ekb->rkb.t_pi, **phi);
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto batch = GibbsMarginals(*graph, options.inference.gibbs);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_GT(batch->exact_variables, 0);
  const std::vector<uint8_t> acyclic = testutil::AcyclicVariables(*graph);
  // (variables, factors) of each component, by label.
  auto sizes = [](const FactorGraph& g, const std::vector<int32_t>& label) {
    std::map<int32_t, std::pair<int64_t, int64_t>> out;
    for (int32_t l : label) ++out[l].first;
    for (const GroundFactor& f : g.factors()) {
      ++out[label[static_cast<size_t>(f.head)]].second;
    }
    return out;
  };
  const std::vector<int32_t> label = testutil::ComponentLabels(*graph);
  const auto batch_sizes = sizes(*graph, label);

  const TablePtr t_pi = ekb->rkb.t_pi;
  const auto row_of = BuildFactRowIndex(*t_pi);
  KbQuery kb_query(&ekb->kb, t_pi, ekb->first_inferred);
  int sampled_balls = 0;
  int compared = 0;
  int compared_in_trees = 0;
  const auto& facts = ekb->kb.facts();
  for (size_t i = 0; i < facts.size(); i += facts.size() / 40) {
    QueryPattern pattern;
    pattern.entity = ekb->kb.entities().NameOrPlaceholder(facts[i].x);
    auto answer = server.AnswerAt(pattern, *pin);
    ASSERT_TRUE(answer.ok()) << answer.status();
    if (answer->exact || answer->truncated) continue;
    ++sampled_balls;
    auto local = GroundLocalSubgraph(t_pi, ekb->rkb.m, row_of,
                                     kb_query.SeedRows(pattern),
                                     options.grounding);
    ASSERT_TRUE(local.ok()) << local.status();
    auto ball = FactorGraph::FromTables(*local->sub_t_pi, *local->t_phi);
    ASSERT_TRUE(ball.ok()) << ball.status();
    const std::vector<int32_t> ball_label = testutil::ComponentLabels(*ball);
    const auto ball_sizes = sizes(*ball, ball_label);
    for (const ServeAnswer::Entry& e : answer->entries) {
      const int32_t v = graph->VariableOf(e.id);
      const int32_t b = ball->VariableOf(e.id);
      ASSERT_GE(v, 0);
      ASSERT_GE(b, 0);
      // A ball component lies inside one batch component; the same
      // counts make them equal.
      if (!acyclic[static_cast<size_t>(v)] ||
          ball_sizes.at(ball_label[static_cast<size_t>(b)]) !=
              batch_sizes.at(label[static_cast<size_t>(v)])) {
        continue;
      }
      EXPECT_NEAR(e.probability, batch->marginals[static_cast<size_t>(v)],
                  1e-12)
          << "fact " << e.id;
      ++compared;
      if (batch_sizes.at(label[static_cast<size_t>(v)]).first > 1) {
        ++compared_in_trees;
      }
    }
  }
  EXPECT_GT(sampled_balls, 5);
  EXPECT_GT(compared, 100);
  EXPECT_GT(compared_in_trees, 50) << "too few multi-variable trees";
}

}  // namespace
}  // namespace probkb
