#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "grounding/grounder.h"
#include "grounding/mpp_grounder.h"
#include "kb/relational_model.h"
#include "mpp/mpp_context.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace probkb {
namespace {

constexpr int kSegments = 3;

std::string FreshPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/probkb_journal_" + name;
  std::filesystem::remove_all(path);
  return path;
}

std::vector<SpanRecord> EventsOfKind(const std::vector<SpanRecord>& events,
                                     EventKind kind) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& r : events) {
    if (r.event == kind) out.push_back(r);
  }
  return out;
}

// --- Core journal mechanics ---------------------------------------------------

TEST(JournalTest, RecordsAndMergesInSequenceOrder) {
  Tracer journal(Tracer::kDefaultSeed, /*capacity=*/64);
  journal.Event(EventKind::kMotionBegin, "redistribute", 7);
  journal.Event(EventKind::kFaultInjected, "segment_failure", 7, 0, 2);
  journal.Event(EventKind::kMotionRecovered, "", 7, 1, 42);

  std::vector<SpanRecord> events = journal.CollectEvents();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].kind, RecordKind::kEvent);
  EXPECT_EQ(events[0].event, EventKind::kMotionBegin);
  EXPECT_STREQ(events[0].name, "redistribute");
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].event, EventKind::kFaultInjected);
  EXPECT_EQ(events[1].a, 7);
  EXPECT_EQ(events[1].c, 2);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_STREQ(events[2].name, "");
  EXPECT_EQ(journal.dropped_events(), 0);

  // last_n keeps only the newest events.
  const std::string tail = journal.PostMortemText(/*last_n=*/1);
  EXPECT_NE(tail.find("(1 events)"), std::string::npos);
  EXPECT_EQ(tail.find("motion_begin"), std::string::npos);
  EXPECT_NE(tail.find("#000002 motion_recovered"), std::string::npos);
}

/// Events are always on; spans follow set_enabled. Both take numbers from
/// one sequence, and each view returns only its own kind.
TEST(JournalTest, SpansAndEventsShareOneSequence) {
  Tracer journal;
  journal.Event(EventKind::kIterationBoundary, "grounder", 1);
  {
    TraceSpan dark(&journal, "dark", "test");
    EXPECT_FALSE(dark.active());
  }
  journal.set_enabled(true);
  {
    TraceSpan span(&journal, "lit", "test");
    journal.Event(EventKind::kIterationBoundary, "grounder", 2);
  }

  const std::vector<SpanRecord> spans = journal.CollectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "lit");
  EXPECT_EQ(spans[0].kind, RecordKind::kSpan);
  const std::vector<SpanRecord> events = journal.CollectEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].a, 1);
  EXPECT_EQ(events[1].a, 2);
  // The span closes after the event it encloses.
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(spans[0].seq, 2u);
  // Span dumps never show events.
  EXPECT_EQ(journal.CanonicalText().find("grounder"), std::string::npos);
  EXPECT_EQ(journal.DumpJsonl().find("grounder"), std::string::npos);
}

TEST(JournalTest, OverflowKeepsNewestAndCountsDropped) {
  Tracer journal(Tracer::kDefaultSeed, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    journal.Event(EventKind::kIterationBoundary, "grounder", i);
  }
  EXPECT_EQ(journal.dropped_events(), 6);
  std::vector<SpanRecord> events = journal.CollectEvents();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().a, 6);  // oldest survivor
  EXPECT_EQ(events.back().a, 9);
  // The dump advertises the loss.
  EXPECT_NE(journal.PostMortemText().find("6 older dropped"),
            std::string::npos);

  // Spans share the ring, so they evict events too.
  journal.set_enabled(true);
  for (int i = 0; i < 3; ++i) TraceSpan span(&journal, "s", "test");
  EXPECT_EQ(journal.CollectEvents().size(), 1u);
  EXPECT_EQ(journal.CollectSpans().size(), 3u);
  EXPECT_EQ(journal.dropped_events(), 9);
}

/// Ring storage grows block by block; a capacity that is not a multiple
/// of the block size still wraps onto the right slots.
TEST(JournalTest, WrapAcrossPartialBlocksKeepsNewestInOrder) {
  constexpr int kCapacity = 1000;
  Tracer journal(Tracer::kDefaultSeed, kCapacity);
  for (int i = 0; i < 2500; ++i) {
    journal.Event(EventKind::kGibbsMilestone, "sweeps", i);
  }
  const std::vector<SpanRecord> events = journal.CollectEvents();
  ASSERT_EQ(events.size(), static_cast<size_t>(kCapacity));
  for (int i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(events[i].a, 2500 - kCapacity + i);
  }
  EXPECT_EQ(journal.dropped_events(), 2500 - kCapacity);
}

TEST(JournalTest, ResetRestartsSequenceNumbering) {
  Tracer journal(Tracer::kDefaultSeed, /*capacity=*/8);
  journal.Event(EventKind::kCheckpointCommit, "grounding", 1);
  journal.Event(EventKind::kCheckpointCommit, "grounding", 2);
  journal.Reset();
  EXPECT_TRUE(journal.CollectEvents().empty());
  EXPECT_EQ(journal.dropped_events(), 0);
  journal.Event(EventKind::kCheckpointCommit, "grounding", 3);
  std::vector<SpanRecord> events = journal.CollectEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].a, 3);
}

TEST(JournalTest, DetailIsTruncatedNotOverrun) {
  Tracer journal(Tracer::kDefaultSeed, /*capacity=*/4);
  const std::string long_detail(100, 'z');
  journal.Event(EventKind::kGibbsMilestone, long_detail);
  std::vector<SpanRecord> events = journal.CollectEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name), std::string(31, 'z'));
}

TEST(JournalTest, DumpShapesAreWellFormed) {
  Tracer journal(Tracer::kDefaultSeed, /*capacity=*/8);
  journal.Event(EventKind::kMotionBegin, "broadcast", 3);
  journal.Event(EventKind::kMotionFailed, "", 3, 4, 1);

  const std::string text = journal.PostMortemText();
  EXPECT_NE(text.find("=== event journal (2 events) ==="), std::string::npos);
  EXPECT_NE(text.find("#000000 motion_begin"), std::string::npos);
  EXPECT_NE(text.find("#000001 motion_failed"), std::string::npos);
  EXPECT_NE(text.find("broadcast"), std::string::npos);

  const std::string json = journal.PostMortemJson();
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"event\": \"motion_begin\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\": \"broadcast\""), std::string::npos);

  // The one Chrome exporter writes events as instants next to the spans.
  journal.set_enabled(true);
  { TraceSpan span(&journal, "work", "test"); }
  const std::string chrome = journal.DumpChromeJson();
  EXPECT_NE(chrome.find("\"name\": \"work\", \"cat\": \"test\", "
                        "\"ph\": \"X\""),
            std::string::npos);
  EXPECT_NE(chrome.find("\"name\": \"motion_begin\", \"cat\": \"event\", "
                        "\"ph\": \"i\""),
            std::string::npos);
  EXPECT_NE(chrome.find("\"detail\": \"broadcast\""), std::string::npos);

  // An empty journal still yields valid scaffolding.
  Tracer empty(Tracer::kDefaultSeed, 4);
  EXPECT_NE(empty.PostMortemText().find("(0 events)"), std::string::npos);
  EXPECT_NE(empty.PostMortemJson().find("\"events\": []"), std::string::npos);
  EXPECT_EQ(empty.DumpChromeJson(), "{\"traceEvents\": []}\n");
}

/// The dumps number events by their position in the event view, so spans
/// taking sequence numbers in between leave them unchanged; a tail keeps
/// each event's number.
TEST(JournalTest, PostMortemNumbersEventsByPosition) {
  Tracer plain;
  Tracer traced;
  traced.set_enabled(true);
  for (Tracer* journal : {&plain, &traced}) {
    for (int i = 0; i < 5; ++i) {
      TraceSpan span(journal, "iteration", "test");
      journal->Event(EventKind::kIterationBoundary, "grounder", i + 1);
    }
  }
  EXPECT_EQ(plain.CollectSpans().size(), 0u);
  EXPECT_EQ(traced.CollectSpans().size(), 5u);
  EXPECT_EQ(plain.PostMortemText(), traced.PostMortemText());
  EXPECT_EQ(plain.PostMortemJson(2), traced.PostMortemJson(2));

  const std::string tail = plain.PostMortemText(/*last_n=*/2);
  EXPECT_NE(tail.find("(2 events)"), std::string::npos);
  EXPECT_EQ(tail.find("#000002"), std::string::npos);
  EXPECT_NE(tail.find("#000003 iteration_boundary a=4"), std::string::npos);
  EXPECT_NE(tail.find("#000004 iteration_boundary a=5"), std::string::npos);
  EXPECT_NE(plain.PostMortemJson(2).find("\"index\": 3"), std::string::npos);
}

TEST(JournalTest, WritePostMortemRoundTrips) {
  Tracer journal(Tracer::kDefaultSeed, /*capacity=*/8);
  journal.Event(EventKind::kRetryAttempt, "", 5, 1, 2);
  const std::string path = FreshPath("dump.json");
  ASSERT_TRUE(journal.WritePostMortem(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), journal.PostMortemJson());

  EXPECT_FALSE(journal.WritePostMortem("/nonexistent-dir/x/y.json").ok());
}

// --- Pipeline instrumentation under chaos ------------------------------------

/// One seeded chaos grounding run against the global journal, with span
/// tracing on or off; returns the post-mortem text dump. All event
/// payloads are deterministic quantities, and the dump numbers events by
/// position, so it must depend on neither the worker-thread count nor the
/// spans that pool threads interleave into the sequence.
std::string ChaosDump(const KnowledgeBase& kb, uint64_t seed, int threads,
                      bool trace_spans,
                      std::vector<SpanRecord>* events_out = nullptr) {
  Tracer* journal = Tracer::Global();
  journal->Reset();
  journal->set_enabled(trace_spans);

  FaultInjectionOptions fault_options;
  fault_options.enabled = true;
  fault_options.seed = seed;
  fault_options.segment_failure_prob = 0.3;
  fault_options.drop_batch_prob = 0.2;
  fault_options.duplicate_batch_prob = 0.2;
  FaultInjector injector(fault_options);

  GroundingOptions options;
  options.num_threads = threads;
  RelationalKB rkb = BuildRelationalModel(kb);
  MppGrounder grounder(rkb, kSegments, MppMode::kViews, options,
                       CostParams{}, &injector, RetryPolicy{});
  EXPECT_TRUE(grounder.GroundAtoms().ok());
  journal->set_enabled(false);
  if (trace_spans) {
    EXPECT_FALSE(journal->CollectSpans().empty());
  }
  if (events_out != nullptr) *events_out = journal->CollectEvents();
  return journal->PostMortemText();
}

/// Seeded chaos runs journal every fault with its recovery, and the
/// post-mortem dump is byte-identical at 1, 2 and 4 worker threads with
/// span tracing on and off: the events are orchestrator-side milestones
/// whose payloads carry no clocks or thread ids. Three seeds (plus
/// PROBKB_CHAOS_SEED when set) shake different schedules.
TEST(JournalChaosTest, ChaosDumpIsByteIdenticalAcrossThreadCounts) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  std::vector<uint64_t> seeds = {1, 2, 3};
  if (const char* env = std::getenv("PROBKB_CHAOS_SEED")) {
    seeds.push_back(static_cast<uint64_t>(std::strtoull(env, nullptr, 10)));
  }

  int64_t faults_seen = 0;
  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<SpanRecord> timeline;
    const std::string base =
        ChaosDump(kb, seed, /*threads=*/1, /*trace_spans=*/false, &timeline);
    for (bool trace_spans : {false, true}) {
      for (int threads : {1, 2, 4}) {
        EXPECT_EQ(ChaosDump(kb, seed, threads, trace_spans), base)
            << threads << " threads, span tracing "
            << (trace_spans ? "on" : "off");
      }
    }

    // Every injected fault is journaled inside its motion's bracket:
    // motion_begin before it and motion_recovered after it, in sequence
    // order. Segment failures additionally drive the retry loop, so they
    // must show a retry_attempt; batch drop/duplicate faults are repaired
    // by reshipping without one.
    const std::vector<SpanRecord> faults =
        EventsOfKind(timeline, EventKind::kFaultInjected);
    faults_seen += static_cast<int64_t>(faults.size());
    for (const SpanRecord& fault : faults) {
      bool began = false;
      bool recovered = false;
      bool retried = false;
      for (const SpanRecord& r : timeline) {
        if (r.a != fault.a) continue;  // same motion index
        if (r.event == EventKind::kMotionBegin && r.seq < fault.seq) {
          began = true;
        }
        if (r.event == EventKind::kRetryAttempt && r.seq > fault.seq) {
          retried = true;
        }
        if (r.event == EventKind::kMotionRecovered && r.seq > fault.seq) {
          recovered = true;
        }
      }
      EXPECT_TRUE(began) << "no motion_begin before fault at motion "
                         << fault.a;
      if (std::string(fault.name) == "segment failure") {
        EXPECT_TRUE(retried) << "no retry_attempt after segment failure "
                             << "at motion " << fault.a;
      }
      EXPECT_TRUE(recovered) << "no motion_recovered after fault at motion "
                             << fault.a;
    }
    // Iteration boundaries are journaled too (the fixpoint ran).
    EXPECT_FALSE(
        EventsOfKind(timeline, EventKind::kIterationBoundary).empty());
    // A clean run never journals motion_failed.
    EXPECT_TRUE(EventsOfKind(timeline, EventKind::kMotionFailed).empty());
  }
  EXPECT_GT(faults_seen, 0) << "chaos sweep never injected a fault";

  Tracer::Global()->Reset();
}

/// A schedule that fails the same segment on the first try and every retry
/// exhausts the retry budget; the post-mortem dump must tell the whole
/// story: every injected fault, every retry attempt, and the terminal
/// motion_failed record.
TEST(JournalChaosTest, TerminalFailureDumpContainsEveryFaultAndRetry) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();

  // Probe run: find a redistribute that ships tuples (it is guaranteed to
  // consult the injector).
  RelationalKB rkb_probe = BuildRelationalModel(kb);
  GroundingOptions probe_options;
  probe_options.max_iterations = 1;
  MppGrounder probe(rkb_probe, kSegments, MppMode::kViews, probe_options);
  ASSERT_TRUE(probe.GroundAtoms().ok());
  int64_t victim_motion = -1;
  int64_t motion_index = 0;
  for (const MppStep& step : probe.cost().steps()) {
    if (step.kind == MppStep::Kind::kCompute ||
        step.kind == MppStep::Kind::kRecovery) {
      continue;
    }
    if (step.kind == MppStep::Kind::kRedistribute &&
        step.tuples_shipped > 0 && victim_motion < 0) {
      victim_motion = motion_index;
    }
    ++motion_index;
  }
  ASSERT_GE(victim_motion, 0) << "no redistribute shipped tuples";

  const RetryPolicy retry;
  FaultInjectionOptions fault_options;
  fault_options.enabled = true;
  for (int attempt = 0; attempt <= retry.max_attempts + 1; ++attempt) {
    FaultEvent e;
    e.kind = FaultKind::kSegmentFailure;
    e.motion = victim_motion;
    e.attempt = attempt;
    e.segment = 0;
    fault_options.schedule.push_back(e);
  }
  FaultInjector injector(fault_options);

  Tracer* journal = Tracer::Global();
  journal->Reset();
  RelationalKB rkb = BuildRelationalModel(kb);
  MppGrounder grounder(rkb, kSegments, MppMode::kViews, GroundingOptions{},
                       CostParams{}, &injector, retry);
  Status st = grounder.GroundAtoms();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;

  const std::vector<SpanRecord> timeline = journal->CollectEvents();
  // Attempt 0 plus every struck retry 1..max_attempts are journaled; the
  // schedule's final entry is never consulted (the budget ran out first).
  const std::vector<SpanRecord> faults =
      EventsOfKind(timeline, EventKind::kFaultInjected);
  ASSERT_EQ(static_cast<int>(faults.size()), retry.max_attempts + 1);
  for (const SpanRecord& fault : faults) {
    EXPECT_EQ(fault.a, victim_motion);
    EXPECT_EQ(fault.c, 0);  // victim segment
    EXPECT_STREQ(fault.name, "segment failure");
  }
  const std::vector<SpanRecord> retries =
      EventsOfKind(timeline, EventKind::kRetryAttempt);
  ASSERT_EQ(static_cast<int>(retries.size()), retry.max_attempts);
  for (const SpanRecord& r : retries) EXPECT_EQ(r.a, victim_motion);

  const std::vector<SpanRecord> failed =
      EventsOfKind(timeline, EventKind::kMotionFailed);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].a, victim_motion);
  EXPECT_EQ(failed[0].b, retry.max_attempts);
  EXPECT_TRUE(EventsOfKind(timeline, EventKind::kMotionRecovered).empty());

  // The post-mortem file a CLI run would write carries the full story.
  const std::string path = FreshPath("terminal_post_mortem.json");
  ASSERT_TRUE(journal->WritePostMortem(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string dump = buffer.str();
  EXPECT_NE(dump.find("\"fault_injected\""), std::string::npos);
  EXPECT_NE(dump.find("\"retry_attempt\""), std::string::npos);
  EXPECT_NE(dump.find("\"motion_failed\""), std::string::npos);

  journal->Reset();
}

/// Single-node grounding journals one iteration_boundary per fixpoint
/// iteration on the global journal.
TEST(JournalPipelineTest, GrounderJournalsIterationBoundaries) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  Tracer* journal = Tracer::Global();
  journal->Reset();

  RelationalKB rkb = BuildRelationalModel(kb);
  Grounder grounder(&rkb, GroundingOptions{});
  ASSERT_TRUE(grounder.GroundAtoms().ok());
  const std::vector<SpanRecord> boundaries =
      EventsOfKind(journal->CollectEvents(), EventKind::kIterationBoundary);
  ASSERT_EQ(static_cast<int64_t>(boundaries.size()),
            grounder.stats().iterations);
  for (size_t i = 0; i < boundaries.size(); ++i) {
    EXPECT_EQ(boundaries[i].a, static_cast<int64_t>(i) + 1);  // 1-based
    EXPECT_STREQ(boundaries[i].name, "grounder");
  }
  // The final iteration adds nothing (that is how the fixpoint stops) and
  // its running total matches the grounded atom table.
  EXPECT_EQ(boundaries.back().b, 0);
  EXPECT_EQ(boundaries.back().c, rkb.t_pi->NumRows());

  journal->Reset();
}

}  // namespace
}  // namespace probkb
