#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/probkb.h"
#include "grounding/mpp_grounder.h"
#include "kb/relational_model.h"
#include "obs/histogram.h"
#include "obs/stats_registry.h"
#include "obs/trace.h"
#include "serve/query_server.h"
#include "tests/test_util.h"
#include "util/strings.h"
#include "util/timer.h"

namespace probkb {
namespace {

// --- Deterministic identity ----------------------------------------------------

TEST(TracerTest, SpanIdsAreSeededAndDeterministic) {
  Tracer a(/*seed=*/42);
  Tracer b(/*seed=*/42);
  a.set_enabled(true);
  b.set_enabled(true);
  for (Tracer* t : {&a, &b}) {
    TraceSpan root(t, "root", "test", 1);
    TraceSpan child(t, "child", "test", 2);
  }
  EXPECT_EQ(a.CanonicalText(), b.CanonicalText());
  EXPECT_FALSE(a.CanonicalText().empty());

  // A different seed produces a different identity universe.
  Tracer c(/*seed=*/43);
  c.set_enabled(true);
  {
    TraceSpan root(&c, "root", "test", 1);
    TraceSpan child(&c, "child", "test", 2);
  }
  EXPECT_NE(a.CanonicalText(), c.CanonicalText());
}

TEST(TracerTest, NestingParentLinksAndFreshTracePerRoot) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    TraceSpan root(&tracer, "root", "test");
    TraceSpan child(&tracer, "child", "test");
    EXPECT_EQ(child.trace_id(), root.trace_id());
  }
  {
    TraceSpan root2(&tracer, "root2", "test");
    (void)root2;
  }
  const std::vector<SpanRecord> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 3u);
  // Children close before parents: child, root, root2.
  EXPECT_STREQ(spans[0].name, "child");
  EXPECT_STREQ(spans[1].name, "root");
  EXPECT_STREQ(spans[2].name, "root2");
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
  EXPECT_EQ(spans[0].trace_id, spans[1].trace_id);
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_EQ(spans[2].parent_id, 0u);
  EXPECT_NE(spans[2].trace_id, spans[1].trace_id);
}

TEST(TracerTest, DisabledTracerEmitsNothingAndSpansAreInactive) {
  Tracer tracer;
  {
    TraceSpan span(&tracer, "ghost", "test");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.trace_id(), 0u);
  }
  EXPECT_TRUE(tracer.CollectSpans().empty());
}

// --- Byte-identity across thread counts -----------------------------------------

std::string GroundAndDumpCanonical(int num_threads) {
  Tracer* tracer = Tracer::Global();
  tracer->Reset();
  tracer->set_enabled(true);
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  GroundingOptions grounding;
  grounding.num_threads = num_threads;
  MppGrounder mpp(rkb, /*segments=*/2, MppMode::kViews, grounding);
  EXPECT_TRUE(mpp.GroundAtoms().ok());
  std::string canonical = tracer->CanonicalText();
  tracer->set_enabled(false);
  return canonical;
}

TEST(TraceDeterminismTest, CanonicalDumpIsByteIdenticalAcrossThreadCounts) {
  const std::string base = GroundAndDumpCanonical(1);
  ASSERT_FALSE(base.empty());
  EXPECT_NE(base.find("iteration"), std::string::npos);
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(GroundAndDumpCanonical(threads), base)
        << "canonical trace diverged at " << threads << " threads";
  }
}

// --- Serve instrumentation -----------------------------------------------------

TEST(ServeTraceTest, QuerySpansNestAndExemplarLinksTailLatency) {
  Tracer* tracer = Tracer::Global();
  tracer->Reset();
  tracer->set_enabled(true);

  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  QueryServer server(&kb, rkb.next_fact_id, ServeOptions{});
  ASSERT_TRUE(server.PublishEpoch(rkb).ok());
  ASSERT_TRUE(server.Answer("born_in(Ruth Gruber, *)").ok());
  tracer->set_enabled(false);

  const std::vector<SpanRecord> spans = tracer->CollectSpans();
  auto find = [&](const char* name) -> const SpanRecord* {
    for (const SpanRecord& record : spans) {
      if (std::strcmp(record.name, name) == 0) return &record;
    }
    return nullptr;
  };
  const SpanRecord* serve = find("serve");
  const SpanRecord* query = find("serve_query");
  const SpanRecord* ground = find("local_ground");
  const SpanRecord* infer = find("infer");
  ASSERT_NE(serve, nullptr);
  ASSERT_NE(query, nullptr);
  ASSERT_NE(ground, nullptr);
  ASSERT_NE(infer, nullptr);
  EXPECT_NE(find("parse"), nullptr);
  EXPECT_NE(find("snapshot_pin"), nullptr);
  EXPECT_NE(find("epoch_index"), nullptr);
  EXPECT_EQ(query->parent_id, serve->span_id);
  EXPECT_EQ(ground->parent_id, query->span_id);
  EXPECT_EQ(infer->parent_id, query->span_id);
  EXPECT_GT(ground->a, 0);  // grounded atoms

  // The tail bucket of the serve_query histogram carries the trace id of
  // the (only) traced query.
  const std::string stats = server.StatsText();
  const std::string hex = StrFormat(
      "%016llx", static_cast<unsigned long long>(query->trace_id));
  EXPECT_NE(stats.find("trace=" + hex), std::string::npos) << stats;
  const std::string path = testing::TempDir() + "/probkb_serve_stats.json";
  ASSERT_TRUE(server.WriteStatsJson(path).ok());
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"tail_exemplar\": \"" + hex + "\""),
            std::string::npos)
      << json;
}

// --- Satellite: monotonic timers -----------------------------------------------

TEST(TimerTest, BackwardsClockStepClampsToZero) {
  Timer timer;
  Timer::SetSkewForTest(-60 * 1000 * 1000);  // clock steps back a minute
  EXPECT_EQ(timer.Seconds(), 0.0);
  EXPECT_EQ(timer.Millis(), 0.0);
  Timer::SetSkewForTest(0);
  EXPECT_GE(timer.Seconds(), 0.0);
}

TEST(TimerTest, ForwardSkewStillMeasures) {
  Timer timer;
  Timer::SetSkewForTest(5 * 1000 * 1000);
  EXPECT_GE(timer.Seconds(), 4.9);
  Timer::SetSkewForTest(0);
}

// --- Satellite: histogram exemplars --------------------------------------------

TEST(HistogramExemplarTest, TailExemplarTracksHighestTracedBucket) {
  LatencyHistogram h;
  h.Record(0.001, 111);
  h.Record(0.5, 222);
  h.Record(0.002, 333);
  EXPECT_EQ(h.tail_exemplar(), 222u);
  // Latest traced recording in the same bucket wins.
  h.Record(0.5, 444);
  EXPECT_EQ(h.tail_exemplar(), 444u);
  // Untraced recordings never disturb the exemplars.
  h.Record(2.0, 0);
  EXPECT_EQ(h.tail_exemplar(), 444u);
}

// --- Pipeline phase spans --------------------------------------------------------

TEST(PipelineTraceTest, ExpandIsOneRootOverEveryPhase) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  ExpansionOptions options;
  options.rule_cleaning_theta = 0.9;
  options.gibbs.burn_in_sweeps = 20;
  options.gibbs.sample_sweeps = 50;
  for (const bool mpp : {false, true}) {
    SCOPED_TRACE(mpp ? "mpp" : "single-node");
    options.use_mpp = mpp;
    options.mpp_segments = 2;
    Tracer* tracer = Tracer::Global();
    tracer->Reset();
    Result<ExpansionResult> untraced = ExpandKnowledgeBase(kb, options);
    ASSERT_TRUE(untraced.ok());
    EXPECT_TRUE(tracer->CollectSpans().empty());
    tracer->set_enabled(true);
    Result<ExpansionResult> traced = ExpandKnowledgeBase(kb, options);
    tracer->set_enabled(false);
    ASSERT_TRUE(traced.ok());
    EXPECT_EQ(testutil::TableDigest(*traced->t_pi),
              testutil::TableDigest(*untraced->t_pi));
    EXPECT_EQ(testutil::TableDigest(*traced->t_phi),
              testutil::TableDigest(*untraced->t_phi));

    const std::vector<SpanRecord> spans = tracer->CollectSpans();
    std::vector<const SpanRecord*> roots;
    for (const SpanRecord& span : spans) {
      if (span.parent_id == 0) roots.push_back(&span);
    }
    ASSERT_EQ(roots.size(), 1u);
    const SpanRecord& root = *roots[0];
    EXPECT_STREQ(root.name, "expand");
    auto children_named = [&](const char* name) {
      int n = 0;
      for (const SpanRecord& span : spans) {
        if (std::strcmp(span.name, name) != 0) continue;
        EXPECT_EQ(span.parent_id, root.span_id) << name;
        ++n;
      }
      return n;
    };
    for (const char* phase : {"rule_cleaning", "query3", "factor_graph",
                              "gibbs", "writeback", "ground_factors"}) {
      EXPECT_EQ(children_named(phase), 1) << phase;
    }
    // The model, then the engine (the MPP one distributes TPi).
    EXPECT_EQ(children_named("load"), 2);
    EXPECT_EQ(children_named("iteration"), traced->grounding_stats.iterations);
  }
}

// --- Satellite: plaintext percentiles ------------------------------------------

TEST(StatsRenderingTest, PlaintextStatsListPercentilesForEverySeries) {
  StatsRegistry registry;
  registry.RecordLatency("alpha", 0.001);
  registry.RecordLatency("beta", 0.010, 0xabcd);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("latency histograms:"), std::string::npos);
  for (const char* column : {"p50_ms", "p95_ms", "p99_ms", "max_ms"}) {
    EXPECT_NE(text.find(column), std::string::npos) << column;
  }
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
  EXPECT_NE(text.find("trace=000000000000abcd"), std::string::npos);
}

}  // namespace
}  // namespace probkb
