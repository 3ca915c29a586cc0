#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/probkb.h"
#include "datagen/synthetic_kb.h"
#include "engine/exec_context.h"
#include "fault/checkpoint.h"
#include "fault/fault_injector.h"
#include "grounding/grounder.h"
#include "grounding/mpp_grounder.h"
#include "infer/gibbs.h"
#include "kb/relational_model.h"
#include "mpp/mpp_context.h"
#include "relational/table_io.h"
#include "tests/test_util.h"

namespace probkb {
namespace {

constexpr int kSegments = 3;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/probkb_fault_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Bit-identical comparison: same schema arity, same row count, every row
/// equal in order (ids and weights included — stricter than the atom-set
/// equivalence used by the MPP tests).
::testing::AssertionResult TablesIdentical(const Table& a, const Table& b) {
  if (a.NumRows() != b.NumRows()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << a.NumRows() << " vs " << b.NumRows();
  }
  for (int64_t i = 0; i < a.NumRows(); ++i) {
    if (!a.row(i).Equals(b.row(i))) {
      return ::testing::AssertionFailure() << "rows differ at index " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Motion indices of a fault-free run, recovered from the cost trace: every
/// Redistribute/Broadcast/Gather consumes exactly one motion index and emits
/// exactly one motion-kind step, in order (kCompute/kRecovery steps do not).
struct MotionInfo {
  int64_t index = 0;
  MppStep::Kind kind = MppStep::Kind::kCompute;
  int64_t tuples_shipped = 0;
};

std::vector<MotionInfo> MotionTrace(const MppCost& cost) {
  std::vector<MotionInfo> out;
  for (const MppStep& step : cost.steps()) {
    if (step.kind == MppStep::Kind::kCompute ||
        step.kind == MppStep::Kind::kRecovery) {
      continue;
    }
    MotionInfo m;
    m.index = static_cast<int64_t>(out.size());
    m.kind = step.kind;
    m.tuples_shipped = step.tuples_shipped;
    out.push_back(m);
  }
  return out;
}

/// Redistribute motions that actually moved tuples: these always consult
/// the fault injector, so a scheduled fault on them is guaranteed to fire.
std::vector<int64_t> FaultableRedistributes(const std::vector<MotionInfo>& trace) {
  std::vector<int64_t> out;
  for (const MotionInfo& m : trace) {
    if (m.kind == MppStep::Kind::kRedistribute && m.tuples_shipped > 0) {
      out.push_back(m.index);
    }
  }
  return out;
}

// --- RetryPolicy ---------------------------------------------------------------

TEST(RetryPolicyTest, BackoffIsCappedExponential) {
  RetryPolicy p;  // 0.05s initial, x2, capped at 2s
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(1), 0.05);
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(2), 0.10);
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(3), 0.20);
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(10), 2.0);  // hits the cap

  RetryPolicy flat;
  flat.initial_backoff_seconds = 0.5;
  flat.backoff_multiplier = 1.0;
  flat.max_backoff_seconds = 10.0;
  EXPECT_DOUBLE_EQ(flat.BackoffSeconds(1), 0.5);
  EXPECT_DOUBLE_EQ(flat.BackoffSeconds(7), 0.5);
}

TEST(RetryPolicyTest, BackoffSurvivesAbsurdAttemptCounts) {
  // An attempt counter gone wild (wrapped, corrupted, or just a very long
  // retry storm) must clamp to the cap — finite, immediately, never +inf
  // from an unbounded product and never an O(attempt) spin.
  RetryPolicy p;  // 0.05s initial, x2, capped at 2s
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(1), 0.05);
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(10), 2.0);
  const double extreme = p.BackoffSeconds(INT_MAX);
  EXPECT_TRUE(std::isfinite(extreme));
  EXPECT_DOUBLE_EQ(extreme, 2.0);

  RetryPolicy flat;
  flat.initial_backoff_seconds = 0.5;
  flat.backoff_multiplier = 1.0;  // never reaches the cap by multiplying
  flat.max_backoff_seconds = 10.0;
  EXPECT_DOUBLE_EQ(flat.BackoffSeconds(INT_MAX), 0.5);

  RetryPolicy tight;
  tight.initial_backoff_seconds = 5.0;  // starts above its own cap
  tight.max_backoff_seconds = 2.0;
  EXPECT_DOUBLE_EQ(tight.BackoffSeconds(1), 2.0);
  EXPECT_DOUBLE_EQ(tight.BackoffSeconds(INT_MAX), 2.0);
}

// --- FaultInjector -------------------------------------------------------------

TEST(FaultInjectorTest, ScheduledEventsFireOnExactMotionAndAttempt) {
  FaultInjectionOptions options;
  options.enabled = true;
  options.schedule = {
      {FaultKind::kSegmentFailure, /*motion=*/3, /*attempt=*/0, 1, -1},
      {FaultKind::kDropBatch, /*motion=*/3, /*attempt=*/0, -1, -1},
      {FaultKind::kSegmentFailure, /*motion=*/3, /*attempt=*/1, 1, -1},
  };
  FaultInjector injector(options);

  EXPECT_TRUE(injector.MotionFaults(2, 0, 4).empty());
  std::vector<FaultEvent> hits = injector.MotionFaults(3, 0, 4);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].kind, FaultKind::kSegmentFailure);
  EXPECT_EQ(hits[0].segment, 1);
  EXPECT_EQ(hits[1].kind, FaultKind::kDropBatch);
  // Auto-picked victims are normalized into range.
  EXPECT_GE(hits[1].segment, 0);
  EXPECT_LT(hits[1].segment, 4);
  EXPECT_GE(hits[1].target, 0);
  EXPECT_LT(hits[1].target, 4);

  std::vector<FaultEvent> retry_hits = injector.MotionFaults(3, 1, 4);
  ASSERT_EQ(retry_hits.size(), 1u);
  EXPECT_EQ(retry_hits[0].attempt, 1);

  EXPECT_EQ(injector.stats().segment_failures, 2);
  EXPECT_EQ(injector.stats().batches_dropped, 1);
}

TEST(FaultInjectorTest, OperatorBudgetFaultsMapToStatusCodes) {
  FaultInjectionOptions options;
  options.enabled = true;
  options.schedule = {
      {FaultKind::kDeadlineTrip, /*motion=*/7, 0, -1, -1},
      {FaultKind::kMemoryExhausted, /*motion=*/8, 0, -1, -1},
  };
  FaultInjector injector(options);
  EXPECT_TRUE(injector.OperatorFault(6, "join").ok());
  EXPECT_EQ(injector.OperatorFault(7, "join").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(injector.OperatorFault(8, "join").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(injector.stats().deadline_trips, 1);
  EXPECT_EQ(injector.stats().memory_trips, 1);

  // Budget kinds never surface through the motion-fault path.
  EXPECT_TRUE(injector.MotionFaults(7, 0, 4).empty());
}

TEST(FaultInjectorTest, DisabledInjectorIsInert) {
  FaultInjectionOptions options;  // enabled = false
  options.segment_failure_prob = 1.0;
  options.schedule = {{FaultKind::kDeadlineTrip, 0, 0, -1, -1}};
  FaultInjector injector(options);
  EXPECT_TRUE(injector.MotionFaults(0, 0, 4).empty());
  EXPECT_TRUE(injector.OperatorFault(0, "x").ok());
  EXPECT_EQ(injector.stats().InjectedTotal(), 0);
}

TEST(FaultInjectorTest, RandomFaultsAreSeededAndTransient) {
  FaultInjectionOptions options;
  options.enabled = true;
  options.seed = 17;
  options.segment_failure_prob = 1.0;
  FaultInjector a(options);
  FaultInjector b(options);
  for (int64_t motion = 0; motion < 8; ++motion) {
    std::vector<FaultEvent> fa = a.MotionFaults(motion, 0, 5);
    std::vector<FaultEvent> fb = b.MotionFaults(motion, 0, 5);
    ASSERT_EQ(fa.size(), 1u);
    ASSERT_EQ(fb.size(), 1u);
    EXPECT_EQ(fa[0].segment, fb[0].segment);  // same seed, same victims
    // Random faults model transient failures: retries are never struck.
    EXPECT_TRUE(a.MotionFaults(motion, /*attempt=*/1, 5).empty());
  }
}

TEST(FaultInjectorTest, RandomFaultCapIsHonored) {
  FaultInjectionOptions options;
  options.enabled = true;
  options.segment_failure_prob = 1.0;
  options.max_random_faults = 2;
  FaultInjector injector(options);
  int64_t fired = 0;
  for (int64_t motion = 0; motion < 10; ++motion) {
    fired += static_cast<int64_t>(injector.MotionFaults(motion, 0, 4).size());
  }
  EXPECT_EQ(fired, 2);
}

// --- Motion recovery accounting ------------------------------------------------

Schema OneKeySchema() { return Schema({{"k", ColumnType::kInt64}}); }

TablePtr MakeKeyTable(int n) {
  auto t = Table::Make(OneKeySchema());
  for (int i = 0; i < n; ++i) t->AppendRow({Value::Int64(i)});
  return t;
}

TEST(MppMotionRecoveryTest, RetryScheduledBatchFaultsAreRecovered) {
  auto dist = DistributedTable::Distribute(*MakeKeyTable(12), kSegments,
                                           Distribution::Random());
  // A segment failure forces a retry; that retry is itself struck by a
  // dropped and a duplicated batch. All three must be recovered and
  // accounted, so the recovered counter matches the injected total.
  FaultInjectionOptions options;
  options.enabled = true;
  options.schedule = {
      {FaultKind::kSegmentFailure, /*motion=*/0, /*attempt=*/0, 0, -1},
      {FaultKind::kDropBatch, /*motion=*/0, /*attempt=*/1, 0, 1},
      {FaultKind::kDuplicateBatch, /*motion=*/0, /*attempt=*/1, 1, 0},
  };
  FaultInjector injector(options);
  MppContext ctx(kSegments);
  ctx.set_fault_injector(&injector);
  auto out = ctx.Redistribute(*dist, {0});
  ASSERT_TRUE(out.ok()) << out.status();
  const FaultStats& stats = injector.stats();
  EXPECT_EQ(stats.segment_failures, 1);
  EXPECT_EQ(stats.batches_dropped, 1);
  EXPECT_EQ(stats.batches_duplicated, 1);
  EXPECT_EQ(stats.recovered_faults, stats.InjectedTotal());
  EXPECT_EQ(stats.unrecovered_motions, 0);
}

TEST(MppMotionRecoveryTest, RetrySegmentFailureClaimsFreshVictim) {
  auto dist = DistributedTable::Distribute(*MakeKeyTable(12), kSegments,
                                           Distribution::Random());
  // The retry of segment 0's recovery kills segment 1 instead: the new
  // victim joins the pending set and is replayed on the next attempt.
  FaultInjectionOptions options;
  options.enabled = true;
  options.schedule = {
      {FaultKind::kSegmentFailure, /*motion=*/0, /*attempt=*/0, 0, -1},
      {FaultKind::kSegmentFailure, /*motion=*/0, /*attempt=*/1, 1, -1},
  };
  FaultInjector injector(options);
  MppContext ctx(kSegments);
  ctx.set_fault_injector(&injector);
  auto out = ctx.Redistribute(*dist, {0});
  ASSERT_TRUE(out.ok()) << out.status();
  const FaultStats& stats = injector.stats();
  EXPECT_EQ(stats.segment_failures, 2);
  EXPECT_EQ(stats.recovered_faults, stats.InjectedTotal());
  EXPECT_GE(stats.retries, 2);
  EXPECT_EQ(stats.unrecovered_motions, 0);
}

TEST(MppMotionRecoveryTest, ZeroTrafficRedistributeDoesNotConsultInjector) {
  // Input already hash-distributed on the redistribute key: every row is
  // home, nothing crosses the interconnect, and — matching Broadcast and
  // Gather — no fault can strike, so the scheduled failure never fires.
  auto dist = DistributedTable::Distribute(*MakeKeyTable(12), kSegments,
                                           Distribution::Hash({0}));
  FaultInjectionOptions options;
  options.enabled = true;
  options.schedule = {
      {FaultKind::kSegmentFailure, /*motion=*/0, /*attempt=*/0, 0, -1},
  };
  FaultInjector injector(options);
  MppContext ctx(kSegments);
  ctx.set_fault_injector(&injector);
  auto out = ctx.Redistribute(*dist, {0});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(injector.stats().InjectedTotal(), 0);
  EXPECT_EQ(injector.stats().retries, 0);
}

// --- Checkpoint serialization --------------------------------------------------

TEST(CheckpointTest, RoundTripsScalarsTablesAndSegments) {
  GroundingCheckpoint cp;
  cp.iteration = 3;
  cp.next_fact_id = 42;
  cp.delta_start = 7;
  cp.t_pi = Table::Make(TPiSchema());
  cp.t_pi->AppendRow({Value::Int64(1), Value::Int64(2), Value::Int64(3),
                      Value::Int64(4), Value::Int64(5), Value::Int64(6),
                      Value::Float64(0.25)});
  cp.t_pi->AppendRow({Value::Int64(9), Value::Int64(2), Value::Int64(3),
                      Value::Int64(4), Value::Int64(5), Value::Int64(6),
                      Value::Null()});  // inferred atoms carry NULL weights
  cp.banned_x = testutil::MakeTable(BannedEntitySchema(), {{11, 22}});
  cp.banned_y = testutil::MakeTable(BannedEntitySchema(), {});
  cp.num_segments = 2;
  for (int s = 0; s < 2; ++s) {
    auto seg = Table::Make(TPiSchema());
    seg->AppendRow({Value::Int64(100 + s), Value::Int64(2), Value::Int64(3),
                    Value::Int64(4), Value::Int64(5), Value::Int64(6),
                    Value::Float64(0.5 + s)});
    cp.t0_segments.push_back(seg);
  }

  std::string dir = FreshDir("roundtrip");
  EXPECT_FALSE(GroundingCheckpointExists(dir));
  ASSERT_TRUE(WriteGroundingCheckpoint(cp, dir).ok());
  EXPECT_TRUE(GroundingCheckpointExists(dir));

  auto loaded = ReadGroundingCheckpoint(TPiSchema(), dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->iteration, 3);
  EXPECT_EQ(loaded->next_fact_id, 42);
  EXPECT_EQ(loaded->delta_start, 7);
  EXPECT_TRUE(TablesIdentical(*loaded->t_pi, *cp.t_pi));
  EXPECT_TRUE(TablesIdentical(*loaded->banned_x, *cp.banned_x));
  EXPECT_EQ(loaded->banned_y->NumRows(), 0);
  ASSERT_EQ(loaded->num_segments, 2);
  ASSERT_EQ(loaded->t0_segments.size(), 2u);
  for (int s = 0; s < 2; ++s) {
    EXPECT_TRUE(
        TablesIdentical(*loaded->t0_segments[static_cast<size_t>(s)],
                        *cp.t0_segments[static_cast<size_t>(s)]));
  }
  EXPECT_TRUE(loaded->tx_segments.empty());
}

TEST(CheckpointTest, MissingManifestMeansNoCheckpoint) {
  std::string dir = FreshDir("missing");
  EXPECT_FALSE(GroundingCheckpointExists(dir));
  EXPECT_FALSE(ReadGroundingCheckpoint(TPiSchema(), dir).ok());
  // A directory with stray files but no MANIFEST is equally ignored: the
  // MANIFEST is written last, so its absence marks an incomplete write.
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(WriteTableTsvFile(*Table::Make(TPiSchema()), dir + "/t_pi.tsv")
                  .ok());
  EXPECT_FALSE(GroundingCheckpointExists(dir));
}

TablePtr MakeTPiRows(int n) {
  auto t = Table::Make(TPiSchema());
  for (int i = 0; i < n; ++i) {
    t->AppendRow({Value::Int64(i), Value::Int64(2), Value::Int64(3),
                  Value::Int64(4), Value::Int64(5), Value::Int64(6),
                  Value::Float64(0.5)});
  }
  return t;
}

TEST(CheckpointTest, RewritingSameDirectoryKeepsSnapshotConsistent) {
  // Iteration k writes into the same directory as iteration k-1 (the
  // checkpoint_every=1 production shape). The commit protocol retires the
  // old MANIFEST before touching any table file and lands the new MANIFEST
  // last, so the reloaded state is all-new, never a k/k-1 mix.
  GroundingCheckpoint a;
  a.iteration = 1;
  a.next_fact_id = 10;
  a.delta_start = 0;
  a.t_pi = MakeTPiRows(2);
  a.num_segments = 2;
  a.t0_segments = {MakeTPiRows(1), MakeTPiRows(1)};
  std::string dir = FreshDir("rewrite");
  ASSERT_TRUE(WriteGroundingCheckpoint(a, dir).ok());

  GroundingCheckpoint b;
  b.iteration = 2;
  b.next_fact_id = 13;
  b.delta_start = 2;
  b.t_pi = MakeTPiRows(5);  // different shape: more rows, no segments
  ASSERT_TRUE(WriteGroundingCheckpoint(b, dir).ok());

  auto loaded = ReadGroundingCheckpoint(TPiSchema(), dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->iteration, 2);
  EXPECT_EQ(loaded->next_fact_id, 13);
  EXPECT_EQ(loaded->delta_start, 2);
  EXPECT_EQ(loaded->num_segments, 0);
  EXPECT_TRUE(TablesIdentical(*loaded->t_pi, *b.t_pi));
  // A committed write leaves no staging debris behind.
  EXPECT_FALSE(std::filesystem::exists(dir + "/.staging"));
}

TEST(CheckpointTest, CommitFsyncsStagedFilesThenDirectory) {
  // Crash-durability regression: rename() orders metadata, not data, so a
  // checkpoint is only durable if every staged file is fsynced before the
  // renames publish it and the directory is fsynced around the MANIFEST
  // rename. Losing any of these fsyncs would let a power cut surface a
  // MANIFEST that certifies torn table files.
  GroundingCheckpoint cp;
  cp.iteration = 2;
  cp.next_fact_id = 9;
  cp.t_pi = MakeTPiRows(4);
  cp.num_segments = 2;
  cp.t0_segments = {MakeTPiRows(1), MakeTPiRows(3)};

  std::string dir = FreshDir("fsync");
  std::vector<std::string> synced;
  SetCheckpointFsyncObserverForTest(
      [&](const std::string& path) { synced.push_back(path); });
  Status st = WriteGroundingCheckpoint(cp, dir);
  SetCheckpointFsyncObserverForTest(nullptr);
  ASSERT_TRUE(st.ok()) << st;

  const auto staged = [](const std::string& p) {
    return p.find("/.staging/") != std::string::npos;
  };
  // Every staged table file plus the staged MANIFEST is synced: t_pi, the
  // two t0 segment tables, the banned tables, and the MANIFEST itself.
  EXPECT_GE(std::count_if(synced.begin(), synced.end(), staged), 4);
  EXPECT_EQ(std::count(synced.begin(), synced.end(),
                       dir + "/.staging/MANIFEST"),
            1);
  // The directory is synced exactly twice: once after the table renames
  // (before a MANIFEST may certify them) and once after the MANIFEST
  // rename (making the commit itself durable) — and that is the last
  // fsync of the protocol.
  EXPECT_EQ(std::count(synced.begin(), synced.end(), dir), 2);
  ASSERT_FALSE(synced.empty());
  EXPECT_EQ(synced.back(), dir);
  // Ordering: no staged file is synced after the first directory sync —
  // all data hits the disk before any rename is made durable.
  auto first_dir = std::find(synced.begin(), synced.end(), dir);
  ASSERT_NE(first_dir, synced.end());
  EXPECT_TRUE(std::none_of(first_dir, synced.end(), staged));
}

TEST(CheckpointTest, ReadRemovesOrphanedStagingDebris) {
  // A crash after staging but before commit leaves `<dir>/.staging` behind.
  // The next write clears it, but a resume-only run never writes — the read
  // path must detect and remove the orphan (whatever it holds was never
  // certified by a MANIFEST) while loading the committed snapshot intact.
  GroundingCheckpoint cp;
  cp.iteration = 4;
  cp.next_fact_id = 17;
  cp.t_pi = MakeTPiRows(3);
  std::string dir = FreshDir("orphan_staging");
  ASSERT_TRUE(WriteGroundingCheckpoint(cp, dir).ok());

  // Simulate the interrupted writer: a staging dir with a half-written
  // table and a complete-but-uncommitted manifest.
  const std::string staging = dir + "/.staging";
  std::filesystem::create_directories(staging);
  ASSERT_TRUE(
      WriteTableTsvFile(*MakeTPiRows(9), staging + "/t_pi.tsv").ok());
  {
    std::ofstream manifest(staging + "/MANIFEST");
    manifest << "probkb-grounding-checkpoint 1\niteration 9\n";
  }

  auto loaded = ReadGroundingCheckpoint(TPiSchema(), dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->iteration, 4);  // the committed snapshot, not staging
  EXPECT_TRUE(TablesIdentical(*loaded->t_pi, *cp.t_pi));
  EXPECT_FALSE(std::filesystem::exists(staging));

  // Reading again (no debris) stays clean.
  EXPECT_TRUE(ReadGroundingCheckpoint(TPiSchema(), dir).ok());
  EXPECT_FALSE(std::filesystem::exists(staging));
}

TEST(CheckpointTest, ManifestRowCountsDetectTamperedTables) {
  GroundingCheckpoint cp;
  cp.iteration = 1;
  cp.next_fact_id = 5;
  cp.t_pi = MakeTPiRows(3);
  std::string dir = FreshDir("tamper");
  ASSERT_TRUE(WriteGroundingCheckpoint(cp, dir).ok());
  ASSERT_TRUE(ReadGroundingCheckpoint(TPiSchema(), dir).ok());

  // Truncate t_pi.tsv behind the manifest's back: the recorded row count
  // no longer matches, so the checkpoint is rejected instead of silently
  // resuming from torn state.
  ASSERT_TRUE(
      WriteTableTsvFile(*MakeTPiRows(1), dir + "/t_pi.tsv").ok());
  EXPECT_FALSE(ReadGroundingCheckpoint(TPiSchema(), dir).ok());
}

// --- Single-node checkpoint/resume ---------------------------------------------

TEST(CheckpointResumeTest, SingleNodeResumeMatchesUninterruptedRun) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();

  // Uninterrupted baseline: Query 3 up front, then the full fixpoint.
  RelationalKB rkb_base = BuildRelationalModel(kb);
  Grounder baseline(&rkb_base, GroundingOptions{});
  ASSERT_TRUE(baseline.ApplyConstraints().ok());
  ASSERT_TRUE(baseline.GroundAtoms().ok());
  auto phi_base = baseline.GroundFactors();
  ASSERT_TRUE(phi_base.ok());
  ASSERT_GE(baseline.stats().iterations, 2) << "example must take >1 iteration";

  // Interrupted run: stop after one iteration, leaving a checkpoint that
  // includes the constraint bans.
  std::string dir = FreshDir("single_resume");
  GroundingOptions interrupted_options;
  interrupted_options.max_iterations = 1;
  interrupted_options.checkpoint_dir = dir;
  RelationalKB rkb_a = BuildRelationalModel(kb);
  Grounder interrupted(&rkb_a, interrupted_options);
  ASSERT_TRUE(interrupted.ApplyConstraints().ok());
  ASSERT_TRUE(interrupted.GroundAtoms().ok());
  ASSERT_TRUE(GroundingCheckpointExists(dir));

  // Resumed run: a fresh grounder over a fresh relational model restores
  // the fixpoint state (facts, ids, bans, iteration count) and continues.
  RelationalKB rkb_b = BuildRelationalModel(kb);
  Grounder resumed(&rkb_b, GroundingOptions{});
  ASSERT_TRUE(resumed.ResumeFrom(dir).ok());
  EXPECT_EQ(resumed.stats().iterations, 1);
  ASSERT_TRUE(resumed.GroundAtoms().ok());
  auto phi_resumed = resumed.GroundFactors();
  ASSERT_TRUE(phi_resumed.ok());

  EXPECT_TRUE(TablesIdentical(*rkb_b.t_pi, *rkb_base.t_pi));
  EXPECT_TRUE(TablesIdentical(**phi_resumed, **phi_base));
}

TEST(CheckpointResumeTest, ResumeRejectsMissingDirectory) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  Grounder grounder(&rkb, GroundingOptions{});
  EXPECT_FALSE(grounder.ResumeFrom(FreshDir("nonexistent")).ok());
}

// --- Engine budget enforcement -------------------------------------------------

TEST(ExecBudgetTest, RowCapTripsResourceExhausted) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  GroundingOptions options;
  options.max_rows_per_statement = 1;  // every grounding join exceeds this
  Grounder grounder(&rkb, options);
  Status st = grounder.GroundAtoms();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsBudgetFailure(st.code()));
}

TEST(ExecBudgetTest, RowCapTripsWhenCrossedNotOneOperatorLate) {
  ExecContext ctx;
  ExecBudget budget;
  budget.max_produced_rows = 10;
  ctx.set_budget(budget);
  EXPECT_TRUE(ctx.CheckBudget("scan").ok());
  // The overshooting operator trips the cap itself — even as the last
  // operator of a statement, with no later CheckBudget to catch it.
  EXPECT_EQ(ctx.Record({"scan", 0, 100, 0.0}).code(),
            StatusCode::kResourceExhausted);
}

TEST(ExecBudgetTest, SharedOperatorCounterSpansStatements) {
  FaultInjectionOptions options;
  options.enabled = true;
  options.schedule = {
      {FaultKind::kMemoryExhausted, /*motion=*/2, 0, -1, -1},
  };
  FaultInjector injector(options);
  int64_t op_counter = 0;
  ExecContext first;
  first.set_fault_injector(&injector);
  first.set_shared_op_counter(&op_counter);
  EXPECT_TRUE(first.CheckBudget("op0").ok());
  EXPECT_TRUE(first.CheckBudget("op1").ok());
  // A fresh statement continues the numbering, so operator index 2 names
  // one global execution point, not the third operator of every statement.
  ExecContext second;
  second.set_fault_injector(&injector);
  second.set_shared_op_counter(&op_counter);
  EXPECT_EQ(second.CheckBudget("op2").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(injector.stats().memory_trips, 1);
}

TEST(ExecBudgetTest, ExpiredWallClockDeadlineTripsDeadlineExceeded) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  GroundingOptions options;
  options.deadline_seconds = 1e-12;  // expires before the first statement
  Grounder grounder(&rkb, options);
  Status st = grounder.GroundAtoms();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
}

// --- MPP chaos: scheduled faults, recovery, checkpoint/resume ------------------

/// The acceptance scenario: >= 3 segment failures plus batch faults strike
/// MPP grounding and are recovered transparently; a deadline trip then kills
/// the run mid-fixpoint; a fresh grounder resumes from the checkpoint and
/// finishes bit-identically to a fault-free baseline.
TEST(MppChaosTest, RecoversScheduledFaultsAndResumesBitIdentically) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();

  // Fault-free baseline.
  RelationalKB rkb_base = BuildRelationalModel(kb);
  MppGrounder baseline(rkb_base, kSegments, MppMode::kViews,
                       GroundingOptions{});
  ASSERT_TRUE(baseline.ApplyConstraints().ok());
  ASSERT_TRUE(baseline.GroundAtoms().ok());
  ASSERT_GE(baseline.stats().iterations, 2);
  auto phi_base = baseline.GroundFactors();
  ASSERT_TRUE(phi_base.ok());
  TablePtr tpi_base = baseline.GatherTPi();

  // Probe run: replay iteration 1 fault-free to learn the motion layout.
  // Motion index i is the i-th motion-kind step of the cost trace, so the
  // probe's step count is exactly the index of iteration 2's first motion.
  RelationalKB rkb_probe = BuildRelationalModel(kb);
  GroundingOptions probe_options;
  probe_options.max_iterations = 1;
  MppGrounder probe(rkb_probe, kSegments, MppMode::kViews, probe_options);
  ASSERT_TRUE(probe.ApplyConstraints().ok());
  ASSERT_TRUE(probe.GroundAtoms().ok());
  std::vector<MotionInfo> trace = MotionTrace(probe.cost());
  const int64_t iteration2_first_motion = static_cast<int64_t>(trace.size());
  std::vector<int64_t> candidates = FaultableRedistributes(trace);
  ASSERT_GE(candidates.size(), 1u) << "no redistribute shipped tuples";

  // Chaos schedule: three segment failures plus a dropped and a duplicated
  // batch inside iteration 1, then a deadline trip at the first motion of
  // iteration 2 (before any iteration-2 state mutation).
  FaultInjectionOptions fault_options;
  fault_options.enabled = true;
  std::vector<FaultEvent>& schedule = fault_options.schedule;
  for (int i = 0; i < 3; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kSegmentFailure;
    e.motion = candidates[static_cast<size_t>(i) % candidates.size()];
    e.segment = i % kSegments;  // distinct victims when motions repeat
    schedule.push_back(e);
  }
  {
    FaultEvent drop;
    drop.kind = FaultKind::kDropBatch;
    drop.motion = candidates[0];
    schedule.push_back(drop);
    FaultEvent dup;
    dup.kind = FaultKind::kDuplicateBatch;
    dup.motion = candidates.back();
    schedule.push_back(dup);
    FaultEvent deadline;
    deadline.kind = FaultKind::kDeadlineTrip;
    deadline.motion = iteration2_first_motion;
    schedule.push_back(deadline);
  }

  std::string dir = FreshDir("mpp_chaos");
  GroundingOptions chaos_options;
  chaos_options.checkpoint_dir = dir;
  FaultInjector injector(fault_options);
  RelationalKB rkb_chaos = BuildRelationalModel(kb);
  MppGrounder chaos(rkb_chaos, kSegments, MppMode::kViews, chaos_options,
                    CostParams{}, &injector, RetryPolicy{});
  ASSERT_TRUE(chaos.ApplyConstraints().ok());
  Status st = chaos.GroundAtoms();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st;

  // Iteration 1's faults were all recovered before the deadline struck.
  const FaultStats& stats = injector.stats();
  EXPECT_GE(stats.segment_failures, 3);
  EXPECT_EQ(stats.batches_dropped, 1);
  EXPECT_EQ(stats.batches_duplicated, 1);
  EXPECT_EQ(stats.deadline_trips, 1);
  EXPECT_GE(stats.recovered_faults, 5);
  EXPECT_EQ(stats.unrecovered_motions, 0);
  EXPECT_GE(stats.retries, 3);
  EXPECT_GT(stats.backoff_seconds, 0.0);
  // Recovery cost was charged to the simulation.
  bool saw_recovery_step = false;
  for (const MppStep& step : chaos.cost().steps()) {
    if (step.kind == MppStep::Kind::kRecovery) saw_recovery_step = true;
  }
  EXPECT_TRUE(saw_recovery_step);
  ASSERT_TRUE(GroundingCheckpointExists(dir));

  // Resume on a fresh grounder; the continuation must be bit-identical to
  // the fault-free baseline (same rows, same order, same fact ids).
  RelationalKB rkb_resume = BuildRelationalModel(kb);
  MppGrounder resumed(rkb_resume, kSegments, MppMode::kViews,
                      GroundingOptions{});
  ASSERT_TRUE(resumed.ResumeFrom(dir).ok());
  EXPECT_EQ(resumed.stats().iterations, 1);
  ASSERT_TRUE(resumed.GroundAtoms().ok());
  auto phi_resumed = resumed.GroundFactors();
  ASSERT_TRUE(phi_resumed.ok());

  EXPECT_TRUE(TablesIdentical(*resumed.GatherTPi(), *tpi_base));
  EXPECT_TRUE(TablesIdentical(**phi_resumed, **phi_base));
}

TEST(MppChaosTest, ResumeRejectsSegmentCountMismatch) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  std::string dir = FreshDir("mismatch");
  GroundingOptions options;
  options.checkpoint_dir = dir;
  options.max_iterations = 1;
  RelationalKB rkb = BuildRelationalModel(kb);
  MppGrounder writer(rkb, kSegments, MppMode::kViews, options);
  ASSERT_TRUE(writer.GroundAtoms().ok());
  ASSERT_TRUE(GroundingCheckpointExists(dir));

  RelationalKB rkb2 = BuildRelationalModel(kb);
  MppGrounder reader(rkb2, kSegments + 1, MppMode::kViews, GroundingOptions{});
  EXPECT_FALSE(reader.ResumeFrom(dir).ok());
}

/// Randomized chaos sweep: per-motion fault probabilities under several
/// seeds. All injected faults are recoverable (random faults never strike a
/// retry), so every run must converge to the fault-free result while paying
/// a recovery cost. PROBKB_CHAOS_SEED adds an extra seed, letting CI shake
/// different schedules without a code change.
TEST(MppChaosTest, RandomFaultSweepConvergesToFaultFreeResult) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();

  RelationalKB rkb_base = BuildRelationalModel(kb);
  MppGrounder baseline(rkb_base, kSegments, MppMode::kViews,
                       GroundingOptions{});
  ASSERT_TRUE(baseline.GroundAtoms().ok());
  auto phi_base = baseline.GroundFactors();
  ASSERT_TRUE(phi_base.ok());
  TablePtr tpi_base = baseline.GatherTPi();

  std::vector<uint64_t> seeds = {1, 2, 3};
  if (const char* env = std::getenv("PROBKB_CHAOS_SEED")) {
    seeds.push_back(static_cast<uint64_t>(std::strtoull(env, nullptr, 10)));
  }
  int64_t injected_total = 0;
  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultInjectionOptions fault_options;
    fault_options.enabled = true;
    fault_options.seed = seed;
    fault_options.segment_failure_prob = 0.3;
    fault_options.drop_batch_prob = 0.2;
    fault_options.duplicate_batch_prob = 0.2;
    FaultInjector injector(fault_options);

    RelationalKB rkb = BuildRelationalModel(kb);
    MppGrounder grounder(rkb, kSegments, MppMode::kViews, GroundingOptions{},
                         CostParams{}, &injector, RetryPolicy{});
    ASSERT_TRUE(grounder.GroundAtoms().ok());
    auto phi = grounder.GroundFactors();
    ASSERT_TRUE(phi.ok()) << phi.status();

    EXPECT_TRUE(TablesIdentical(*grounder.GatherTPi(), *tpi_base));
    EXPECT_TRUE(TablesIdentical(**phi, **phi_base));
    EXPECT_EQ(injector.stats().unrecovered_motions, 0);
    EXPECT_EQ(injector.stats().recovered_faults,
              injector.stats().InjectedTotal());
    injected_total += injector.stats().InjectedTotal();
  }
  EXPECT_GT(injected_total, 0) << "sweep never injected a fault";
}

// --- Pipeline degradation ------------------------------------------------------

TEST(PipelinePartialTest, UnrecoverableScheduleYieldsPartialResult) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();

  // Find a motion that consults the injector (probe mirrors the pipeline's
  // grounder: constraints_upfront is off below, so layouts match).
  RelationalKB rkb_probe = BuildRelationalModel(kb);
  GroundingOptions probe_options;
  probe_options.max_iterations = 1;
  MppGrounder probe(rkb_probe, kSegments, MppMode::kViews, probe_options);
  ASSERT_TRUE(probe.GroundAtoms().ok());
  std::vector<int64_t> candidates =
      FaultableRedistributes(MotionTrace(probe.cost()));
  ASSERT_GE(candidates.size(), 1u);

  // The same segment fails on the first try and on every retry: the retry
  // budget runs out and the motion is unrecoverable.
  ExpansionOptions options;
  options.use_mpp = true;
  options.mpp_segments = kSegments;
  options.constraints_upfront = false;
  options.fault_injection.enabled = true;
  for (int attempt = 0; attempt <= options.retry.max_attempts + 1; ++attempt) {
    FaultEvent e;
    e.kind = FaultKind::kSegmentFailure;
    e.motion = candidates[0];
    e.attempt = attempt;
    e.segment = 0;
    options.fault_injection.schedule.push_back(e);
  }

  auto result = ExpandKnowledgeBase(kb, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->partial);
  EXPECT_EQ(result->stop_reason.code(), StatusCode::kResourceExhausted)
      << result->stop_reason;
  EXPECT_EQ(result->failures.grounding, 1);
  EXPECT_EQ(result->failures.Total(), 1);
  EXPECT_GE(result->fault_stats.unrecovered_motions, 1);
  // Graceful degradation: the facts expanded so far are still returned.
  ASSERT_NE(result->t_pi, nullptr);
  EXPECT_GT(result->t_pi->NumRows(), 0);
  ASSERT_NE(result->t_phi, nullptr);
  EXPECT_EQ(result->graph, nullptr);
}

TEST(PipelinePartialTest, RowBudgetYieldsPartialResultSingleNode) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  ExpansionOptions options;
  options.constraints_upfront = false;  // the budget governs expansion only
  options.grounding.max_rows_per_statement = 1;
  auto result = ExpandKnowledgeBase(kb, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->partial);
  EXPECT_EQ(result->stop_reason.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(result->failures.grounding, 1);
  ASSERT_NE(result->t_pi, nullptr);
  // Nothing was expanded, but the extracted facts survive.
  EXPECT_EQ(result->t_pi->NumRows(), 2);
}

TEST(PipelinePartialTest, CheckpointedPipelineResumesAcrossCalls) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();

  ExpansionOptions clean;
  clean.constraints_upfront = false;
  auto expected = ExpandKnowledgeBase(kb, clean);
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(expected->partial);

  // First call dies on a scheduled deadline trip partway through grounding;
  // the iteration checkpoint survives in the directory.
  std::string dir = FreshDir("pipeline_resume");
  RelationalKB rkb_probe = BuildRelationalModel(kb);
  GroundingOptions probe_options;
  probe_options.max_iterations = 1;
  MppGrounder probe(rkb_probe, kSegments, MppMode::kViews, probe_options);
  ASSERT_TRUE(probe.GroundAtoms().ok());
  const int64_t trip_motion =
      static_cast<int64_t>(MotionTrace(probe.cost()).size());

  ExpansionOptions interrupted = clean;
  interrupted.use_mpp = true;
  interrupted.mpp_segments = kSegments;
  interrupted.grounding.checkpoint_dir = dir;
  interrupted.fault_injection.enabled = true;
  {
    FaultEvent e;
    e.kind = FaultKind::kDeadlineTrip;
    e.motion = trip_motion;
    interrupted.fault_injection.schedule.push_back(e);
  }
  auto first = ExpandKnowledgeBase(kb, interrupted);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->partial);
  EXPECT_EQ(first->stop_reason.code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(GroundingCheckpointExists(dir));

  // Second call resumes fault-free and completes; because the single-node
  // baseline and the MPP engine agree atom-for-atom, compare logically.
  ExpansionOptions resume = clean;
  resume.use_mpp = true;
  resume.mpp_segments = kSegments;
  resume.grounding.checkpoint_dir = dir;
  resume.resume_from_checkpoint = true;
  auto second = ExpandKnowledgeBase(kb, resume);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(second->partial);
  EXPECT_EQ(testutil::TPiAtomSet(*second->t_pi),
            testutil::TPiAtomSet(*expected->t_pi));
  EXPECT_EQ(testutil::CanonicalizeFactors(*second->t_phi, *second->t_pi),
            testutil::CanonicalizeFactors(*expected->t_phi, *expected->t_pi));
}

// --- Resumable Gibbs sampling --------------------------------------------------

TEST(GibbsResumeTest, SlicedSamplingIsBitIdenticalToOneShot) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  ExpansionOptions options;
  options.run_inference = false;
  auto expansion = ExpandKnowledgeBase(kb, options);
  ASSERT_TRUE(expansion.ok());
  const FactorGraph& graph = *expansion->graph;

  GibbsOptions one_shot;
  one_shot.burn_in_sweeps = 20;
  one_shot.sample_sweeps = 60;
  one_shot.num_chains = 2;
  auto full = GibbsMarginals(graph, one_shot);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->complete);
  EXPECT_EQ(full->sweeps_done, 80);

  GibbsOptions sliced = one_shot;
  sliced.max_sweeps_per_call = 7;  // deliberately not a divisor of 80
  GibbsCheckpoint state;
  auto partial = GibbsMarginals(graph, sliced, &state);
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(partial->complete);
  EXPECT_EQ(partial->sweeps_done, 7);
  int calls = 1;
  while (!partial->complete) {
    partial = GibbsMarginals(graph, sliced, &state);
    ASSERT_TRUE(partial.ok());
    ++calls;
    ASSERT_LE(calls, 20) << "sliced sampling failed to terminate";
  }
  EXPECT_EQ(partial->sweeps_done, 80);

  // The interrupted-and-resumed sampler replays the exact sample path.
  ASSERT_EQ(partial->marginals.size(), full->marginals.size());
  for (size_t v = 0; v < full->marginals.size(); ++v) {
    EXPECT_EQ(partial->marginals[v], full->marginals[v]) << "variable " << v;
  }
  EXPECT_DOUBLE_EQ(partial->max_psrf, full->max_psrf);
}

// Draws are keyed on (seed, chain, sweep, variable), so a checkpoint
// carries no RNG state and a run may change thread counts between slices:
// slices at one thread, then at four, replay the one-shot sample path. The
// graph is large enough for four threads to share every large color.
TEST(GibbsResumeTest, SlicedAtOneThreadResumedAtFourMatchesOneShot) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.02;
  cfg.seed = 11;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());
  ExpansionOptions options;
  options.run_inference = false;
  options.grounding.max_iterations = 3;
  auto expansion = ExpandKnowledgeBase(skb->kb, options);
  ASSERT_TRUE(expansion.ok());
  const FactorGraph& graph = *expansion->graph;

  GibbsOptions one_shot;
  one_shot.burn_in_sweeps = 10;
  one_shot.sample_sweeps = 30;
  one_shot.num_chains = 2;
  one_shot.num_threads = 4;
  auto full = GibbsMarginals(graph, one_shot);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->threads, 4);

  GibbsOptions sliced = one_shot;
  sliced.max_sweeps_per_call = 7;
  sliced.num_threads = 1;
  GibbsCheckpoint state;
  auto partial = GibbsMarginals(graph, sliced, &state);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->threads, 1);
  partial = GibbsMarginals(graph, sliced, &state);  // through burn-in
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->sweeps_done, 14);
  sliced.num_threads = 4;
  for (int calls = 0; !partial->complete; ++calls) {
    ASSERT_LE(calls, 10) << "sliced sampling failed to terminate";
    partial = GibbsMarginals(graph, sliced, &state);
    ASSERT_TRUE(partial.ok());
    EXPECT_EQ(partial->threads, 4);
  }
  ASSERT_EQ(partial->marginals.size(), full->marginals.size());
  for (size_t v = 0; v < full->marginals.size(); ++v) {
    ASSERT_EQ(std::bit_cast<uint64_t>(partial->marginals[v]),
              std::bit_cast<uint64_t>(full->marginals[v]))
        << "variable " << v;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(partial->max_psrf),
            std::bit_cast<uint64_t>(full->max_psrf));
}

TEST(GibbsResumeTest, MismatchedCheckpointIsRejected) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  ExpansionOptions options;
  options.run_inference = false;
  auto expansion = ExpandKnowledgeBase(kb, options);
  ASSERT_TRUE(expansion.ok());

  GibbsOptions gibbs;
  gibbs.burn_in_sweeps = 5;
  gibbs.sample_sweeps = 10;
  gibbs.num_chains = 2;
  GibbsCheckpoint state;
  ASSERT_TRUE(GibbsMarginals(*expansion->graph, gibbs, &state).ok());

  GibbsOptions more_chains = gibbs;
  more_chains.num_chains = 3;
  EXPECT_EQ(GibbsMarginals(*expansion->graph, more_chains, &state)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Every chain's assignment and counts must cover the graph.
  GibbsCheckpoint short_counts = state;
  short_counts.chains.back().ones.pop_back();
  EXPECT_EQ(GibbsMarginals(*expansion->graph, gibbs, &short_counts)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace probkb
