#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/probkb.h"
#include "datagen/synthetic_kb.h"
#include "engine/exec_context.h"
#include "fault/checkpoint.h"
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

// --- Checkpoint serialization --------------------------------------------------

TEST(CheckpointTest, RoundTripsScalarsTablesAndSegments) {
  GroundingCheckpoint cp;
  cp.iteration = 3;
  cp.next_fact_id = 42;
  cp.delta_start = 1;
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
  EXPECT_EQ(loaded->delta_start, 1);
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

/// Rewrites the value of MANIFEST line `key` in the checkpoint under `dir`.
void SetManifestValue(const std::string& dir, const std::string& key,
                      const std::string& value) {
  const std::string path = dir + "/MANIFEST";
  std::ifstream in(path);
  std::string text;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(key + " ", 0) == 0) line = key + " " + value;
    text += line + "\n";
  }
  in.close();
  std::ofstream(path) << text;
}

// A MANIFEST whose scalars do not fit its TPi is rejected as a ParseError,
// and a resume from it fails instead of reading past TPi's rows.
TEST(CheckpointTest, ManifestScalarsOutsideTPiAreRejected) {
  struct Corruption {
    const char* key;
    const char* value;
  };
  // TPi holds 3 rows with ids 0..2.
  const Corruption corruptions[] = {
      {"delta_start", "4"},   {"delta_start", "-1"},
      {"iteration", "-1"},    {"next_fact_id", "2"},
      {"next_fact_id", "-5"},
  };
  for (const Corruption& c : corruptions) {
    SCOPED_TRACE(std::string(c.key) + " " + c.value);
    GroundingCheckpoint cp;
    cp.iteration = 1;
    cp.next_fact_id = 3;
    cp.delta_start = 3;
    cp.t_pi = MakeTPiRows(3);
    const std::string dir = FreshDir("corrupt_manifest");
    ASSERT_TRUE(WriteGroundingCheckpoint(cp, dir).ok());
    ASSERT_TRUE(ReadGroundingCheckpoint(TPiSchema(), dir).ok());

    SetManifestValue(dir, c.key, c.value);
    auto loaded = ReadGroundingCheckpoint(TPiSchema(), dir);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << loaded.status();
    RelationalKB rkb = BuildRelationalModel(testutil::BuildPaperExampleKB());
    Grounder grounder(&rkb, GroundingOptions{});
    EXPECT_EQ(grounder.ResumeFrom(dir).code(), StatusCode::kParseError);
  }
}

// MPP Δ marks round-trip with the segments, and a marks file that does not
// fit its segments comes back as a ParseError, never a resume.
TEST(CheckpointTest, DeltaMarksRoundTripAndAreValidated) {
  GroundingCheckpoint cp;
  cp.iteration = 1;
  cp.next_fact_id = 3;
  cp.t_pi = MakeTPiRows(3);
  cp.num_segments = 2;
  cp.t0_segments = {MakeTPiRows(1), MakeTPiRows(2)};
  cp.delta_marks = testutil::MakeTable(DeltaMarksSchema(), {{1, 0, 0}});
  const std::string dir = FreshDir("delta_marks");
  EXPECT_EQ(WriteGroundingCheckpoint(cp, dir).code(),
            StatusCode::kInvalidArgument);  // one row per segment
  cp.delta_marks =
      testutil::MakeTable(DeltaMarksSchema(), {{1, 0, 0}, {1, 0, 0}});
  ASSERT_TRUE(WriteGroundingCheckpoint(cp, dir).ok());
  auto loaded = ReadGroundingCheckpoint(TPiSchema(), dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_NE(loaded->delta_marks, nullptr);
  EXPECT_TRUE(TablesIdentical(*loaded->delta_marks, *cp.delta_marks));

  // Segment 1 holds 2 rows and there are no views: t0 3, a negative mark, a
  // NULL mark and a tx mark are all outside.
  const std::vector<std::vector<Value>> bad_rows = {
      {Value::Int64(3), Value::Int64(0), Value::Int64(0)},
      {Value::Int64(-1), Value::Int64(0), Value::Int64(0)},
      {Value::Null(), Value::Int64(0), Value::Int64(0)},
      {Value::Int64(1), Value::Int64(1), Value::Int64(0)},
  };
  for (const std::vector<Value>& bad : bad_rows) {
    auto marks = testutil::MakeTable(DeltaMarksSchema(), {{0, 0, 0}});
    marks->AppendRow(bad);
    ASSERT_TRUE(WriteTableTsvFile(*marks, dir + "/delta_marks.tsv").ok());
    auto rejected = ReadGroundingCheckpoint(TPiSchema(), dir);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kParseError)
        << rejected.status();
  }
  std::ofstream(dir + "/delta_marks.tsv") << "not\ta\tmarks\nfile\n";
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

// --- MPP checkpoint/resume ----------------------------------------------------

/// Removes the MANIFEST lines starting with `prefix` from the checkpoint
/// under `dir`.
void DropManifestLines(const std::string& dir, const std::string& prefix) {
  const std::string path = dir + "/MANIFEST";
  std::ifstream in(path);
  std::string text;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) != 0) text += line + "\n";
  }
  in.close();
  std::ofstream(path) << text;
}

// An iteration-1 MPP checkpoint carries the Δ marks, so the first resumed
// iteration runs Δ-driven and the run ends with the uninterrupted TPi and
// TPhi. A checkpoint without marks (as written before they were kept)
// resumes through the full pass to the same outputs.
TEST(MppCheckpointResumeTest, ResumedIterationStaysDeltaDriven) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.004;
  cfg.seed = 11;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());
  for (MppMode mode : {MppMode::kNoViews, MppMode::kViews}) {
    SCOPED_TRACE(mode == MppMode::kViews ? "views" : "no views");
    RelationalKB rkb_base = BuildRelationalModel(skb->kb);
    MppGrounder baseline(rkb_base, kSegments, mode, GroundingOptions{});
    ASSERT_TRUE(baseline.GroundAtoms().ok());
    ASSERT_GE(baseline.stats().iterations, 3);
    auto phi_base = baseline.GroundFactors();
    ASSERT_TRUE(phi_base.ok());

    const std::string dir = FreshDir("mpp_delta_resume");
    GroundingOptions first;
    first.max_iterations = 1;
    first.checkpoint_dir = dir;
    RelationalKB rkb_first = BuildRelationalModel(skb->kb);
    MppGrounder interrupted(rkb_first, kSegments, mode, first);
    ASSERT_TRUE(interrupted.GroundAtoms().ok());

    for (bool marks : {true, false}) {
      SCOPED_TRACE(marks ? "with marks" : "without marks");
      if (!marks) {
        DropManifestLines(dir, "rows delta_marks.tsv");
        std::filesystem::remove(dir + "/delta_marks.tsv");
      }
      RelationalKB rkb = BuildRelationalModel(skb->kb);
      MppGrounder resumed(rkb, kSegments, mode, GroundingOptions{});
      ASSERT_TRUE(resumed.ResumeFrom(dir).ok());
      ASSERT_TRUE(resumed.GroundAtomsIteration().ok());
      EXPECT_EQ(resumed.ExplainPlans().find("delta join1") !=
                    std::string::npos,
                marks);
      ASSERT_TRUE(resumed.GroundAtoms().ok());
      auto phi = resumed.GroundFactors();
      ASSERT_TRUE(phi.ok());
      EXPECT_TRUE(TablesIdentical(*resumed.GatherTPi(),
                                  *baseline.GatherTPi()));
      EXPECT_TRUE(TablesIdentical(**phi, **phi_base));
    }
  }
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

// --- Pipeline degradation ------------------------------------------------------

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

// The MPP grounder arms every segment plan with the same row cap, so the
// budget trips there too, with the same partial result at any thread count.
TEST(PipelinePartialTest, RowBudgetYieldsPartialResultMpp) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  std::vector<std::string> digests;
  for (int threads : {1, 4}) {
    ExpansionOptions options;
    options.use_mpp = true;
    options.mpp_segments = kSegments;
    options.constraints_upfront = false;  // the budget governs expansion only
    options.grounding.max_rows_per_statement = 1;
    options.grounding.num_threads = threads;
    auto result = ExpandKnowledgeBase(kb, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->partial);
    EXPECT_EQ(result->stop_reason.code(), StatusCode::kResourceExhausted)
        << result->stop_reason;
    EXPECT_EQ(result->failures.grounding, 1);
    ASSERT_NE(result->t_pi, nullptr);
    // Nothing was expanded, but the extracted facts survive.
    EXPECT_EQ(result->t_pi->NumRows(), 2);
    digests.push_back(result->stop_reason.ToString() + "|" +
                      std::to_string(testutil::TableDigest(*result->t_pi)));
  }
  EXPECT_EQ(digests[1], digests[0]);
}

TEST(PipelinePartialTest, CheckpointedPipelineResumesAcrossCalls) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();

  ExpansionOptions clean;
  clean.constraints_upfront = false;
  auto expected = ExpandKnowledgeBase(kb, clean);
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(expected->partial);

  // First call stops on a row cap partway through grounding, with the
  // iteration-1 checkpoint in the directory. Naive evaluation re-joins all
  // of TPi each iteration, so later segment plans produce more rows than
  // iteration 1's: the smallest cap iteration 1 fits under trips a later
  // iteration.
  std::string dir = FreshDir("pipeline_resume");
  ExpansionOptions interrupted = clean;
  interrupted.use_mpp = true;
  interrupted.mpp_segments = kSegments;
  interrupted.grounding.evaluation = EvaluationMode::kNaive;
  interrupted.grounding.checkpoint_dir = dir;
  ExpansionResult first;
  for (int64_t cap = 1; cap <= 1000 && !GroundingCheckpointExists(dir);
       ++cap) {
    std::filesystem::remove_all(dir);
    interrupted.grounding.max_rows_per_statement = cap;
    auto run = ExpandKnowledgeBase(kb, interrupted);
    ASSERT_TRUE(run.ok()) << run.status();
    first = run.MoveValueOrDie();
  }
  ASSERT_TRUE(GroundingCheckpointExists(dir));
  EXPECT_TRUE(first.partial);
  EXPECT_EQ(first.stop_reason.code(), StatusCode::kResourceExhausted)
      << first.stop_reason;

  // Second call resumes without a cap and completes; because the single-node
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
