#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "grounding/mpp_grounder.h"
#include "kb/relational_model.h"
#include "obs/histogram.h"
#include "obs/stats_registry.h"
#include "obs/trace.h"
#include "serve/metrics_endpoint.h"
#include "serve/query_server.h"
#include "serve/wire.h"
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
  EXPECT_NE(server.PrometheusText().find("trace_id=\"" + hex + "\""),
            std::string::npos);
}

// --- Metrics endpoint ----------------------------------------------------------

TEST(MetricsEndpointTest, ServesPrometheusSnapshotsOverWireFrames) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  QueryServer server(&kb, rkb.next_fact_id, ServeOptions{});
  ASSERT_TRUE(server.PublishEpoch(rkb).ok());
  ASSERT_TRUE(server.Answer("born_in(Ruth Gruber, *)").ok());

  const std::string path =
      testing::TempDir() + "/probkb_metrics_test.sock";
  MetricsEndpoint endpoint(&server, path);
  ASSERT_TRUE(endpoint.Start().ok());

  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  for (int poll = 0; poll < 2; ++poll) {
    ASSERT_TRUE(
        wire::WriteFrame(fd, wire::FrameType::kMetricsRequest, {}).ok());
    auto reply = wire::ReadFrame(fd, 10.0);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(reply->type, wire::FrameType::kMetricsReply);
    EXPECT_NE(reply->payload.find("probkb_serve_queries_total 1"),
              std::string::npos)
        << reply->payload;
    EXPECT_NE(reply->payload.find(
                  "probkb_latency_seconds{series=\"serve_query\""),
              std::string::npos);
    EXPECT_NE(reply->payload.find("probkb_serve_epoch 0"),
              std::string::npos);
  }
  ::close(fd);
  EXPECT_GE(endpoint.polls_served(), 2);
  endpoint.Stop();
  // The socket file is gone; a second Stop() is harmless.
  EXPECT_NE(access(path.c_str(), F_OK), 0);
  endpoint.Stop();
}

// --- Metrics-socket framing ----------------------------------------------------

TEST(MetricsFrameTest, FrameRoundTripsOverSocketpair) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "probkb_serve_queries_total 7\n";
  ASSERT_TRUE(
      wire::WriteFrame(fds[0], wire::FrameType::kMetricsReply, payload).ok());
  auto frame = wire::ReadFrame(fds[1], /*deadline_seconds=*/5.0);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, wire::FrameType::kMetricsReply);
  EXPECT_EQ(frame->payload, payload);
  close(fds[0]);
  close(fds[1]);
}

TEST(MetricsFrameTest, CorruptedFrameIsDetectedAsDataLoss) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload(64, 'm');
  ASSERT_TRUE(
      wire::WriteFrame(fds[0], wire::FrameType::kMetricsReply, payload).ok());
  // Capture the frame's bytes, flip one payload bit after the checksum was
  // computed, and send the damaged frame back the other way.
  std::string bytes(sizeof(wire::FrameHeader) + payload.size(), '\0');
  ASSERT_EQ(recv(fds[1], bytes.data(), bytes.size(), MSG_WAITALL),
            static_cast<ssize_t>(bytes.size()));
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x40);
  ASSERT_EQ(send(fds[1], bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  auto frame = wire::ReadFrame(fds[0], /*deadline_seconds=*/5.0);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
  // The damaged frame was fully consumed: the channel stays usable.
  ASSERT_TRUE(
      wire::WriteFrame(fds[1], wire::FrameType::kMetricsRequest, {}).ok());
  auto request = wire::ReadFrame(fds[0], /*deadline_seconds=*/5.0);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->type, wire::FrameType::kMetricsRequest);
  close(fds[0]);
  close(fds[1]);
}

TEST(MetricsFrameTest, ReadDeadlineTripsOnSilentPeer) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto frame = wire::ReadFrame(fds[1], /*deadline_seconds=*/0.05);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
  close(fds[0]);
  close(fds[1]);
}

TEST(MetricsFrameTest, AbsurdDeadlineDoesNotOverflowPollTimeout) {
  // A deadline decades out converts to more milliseconds than int holds;
  // the cast used to overflow (UB — in practice a negative poll timeout,
  // i.e. block forever). The timeout is now clamped to INT_MAX, so a
  // frame that is already on the wire must come back promptly.
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "probkb_serve_epoch 3\n";
  ASSERT_TRUE(
      wire::WriteFrame(fds[0], wire::FrameType::kMetricsReply, payload).ok());
  auto frame = wire::ReadFrame(fds[1], /*deadline_seconds=*/1e9);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->payload, payload);
  close(fds[0]);
  close(fds[1]);
}

TEST(MetricsFrameTest, ChecksumCoversLength) {
  const char data[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_NE(wire::FrameChecksum(data, 4), wire::FrameChecksum(data, 8));
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

TEST(HistogramExemplarTest, EvictionKeepsHighestBucketsSortedAscending) {
  LatencyHistogram h;
  for (int i = 0; i < 8; ++i) {
    h.Record(0.0001 * static_cast<double>(1 << i),
             static_cast<uint64_t>(100 + i));
  }
  ASSERT_LE(h.exemplars().size(),
            static_cast<size_t>(LatencyHistogram::kMaxExemplars));
  EXPECT_EQ(h.tail_exemplar(), 107u);
  for (size_t i = 1; i < h.exemplars().size(); ++i) {
    EXPECT_LT(h.exemplars()[i - 1].bucket, h.exemplars()[i].bucket);
  }
}

// --- Satellite: plaintext percentiles + Prometheus rendering -------------------

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

TEST(StatsRenderingTest, PrometheusTextCoversCountersQuantilesExemplars) {
  StatsRegistry registry;
  registry.IncrementCounter("serve queries", 2);  // name gets sanitized
  registry.RecordLatency("serve_query", 0.002, 0x1234);
  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE probkb_serve_queries_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("probkb_serve_queries_total 2"), std::string::npos);
  for (const char* q : {"0.5", "0.95", "0.99"}) {
    EXPECT_NE(
        prom.find(StrFormat(
            "probkb_latency_seconds{series=\"serve_query\",quantile=\"%s\"}",
            q)),
        std::string::npos)
        << q;
  }
  EXPECT_NE(prom.find("probkb_latency_seconds_count{series=\"serve_query\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("trace_id=\"0000000000001234\""), std::string::npos);
}

}  // namespace
}  // namespace probkb
