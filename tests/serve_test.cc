#include "serve/query_server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "factor/factor_graph.h"
#include "grounding/grounder.h"
#include "grounding/local_grounder.h"
#include "infer/gibbs.h"
#include "kb/relational_model.h"
#include "tests/test_util.h"
#include "util/status.h"

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

}  // namespace
}  // namespace probkb
