// Out-of-core layer tests: spill-file round trips, crash/corruption
// recovery, budget accounting, and the headline guarantee — grace-hash
// joins and budgeted grounding are bit-identical to the in-memory path at
// every thread and segment count.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "datagen/synthetic_kb.h"
#include "engine/ops.h"
#include "engine/plan.h"
#include "grounding/grounder.h"
#include "grounding/mpp_grounder.h"
#include "grounding/spill_session.h"
#include "obs/stats_registry.h"
#include "relational/spill.h"
#include "tests/test_util.h"
#include "util/mem_budget.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace probkb {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test spill directory under the system temp dir.
class SpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("probkb_spill_test." +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string dir_;
};

Schema WideSchema() {
  return Schema({{"k", ColumnType::kInt64},
                 {"v", ColumnType::kInt64},
                 {"w", ColumnType::kFloat64}});
}

/// Random table with duplicate keys, a float column, and some nulls.
TablePtr MakeRandomTable(int64_t rows, uint64_t seed, int64_t key_space) {
  auto t = Table::Make(WideSchema());
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    Value k = rng.Bernoulli(0.02)
                  ? Value::Null()
                  : Value::Int64(static_cast<int64_t>(rng.Uniform(
                        static_cast<uint64_t>(key_space))));
    t->AppendRow({k, Value::Int64(i), Value::Float64(rng.UniformDouble())});
  }
  return t;
}

// --- Spill file round trip --------------------------------------------------

TEST_F(SpillTest, SpillFileRoundTripIsByteIdentical) {
  MemoryBudget budget(32 << 20);
  SpillContext ctx(dir_, &budget, /*page_bytes=*/4096);
  ASSERT_TRUE(ctx.Prepare().ok());

  auto t = MakeRandomTable(5000, /*seed=*/7, /*key_space=*/100);
  auto file = SpillFile::Create(&ctx, ctx.NextFilePath("rt"));
  ASSERT_TRUE(file.ok());
  // Multiple pages: split the table into three chunks.
  for (int64_t begin = 0; begin < t->NumRows(); begin += 2000) {
    const int64_t end = std::min<int64_t>(begin + 2000, t->NumRows());
    auto chunk = Table::Make(t->schema());
    chunk->AppendRows(*t, begin, end);
    ASSERT_TRUE((*file)->AppendPage(*chunk).ok());
  }
  ASSERT_TRUE((*file)->Commit().ok());

  auto back = ReadSpillFile(&ctx, t->schema(), (*file)->path());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(TablesEqualExact(*t, **back));

  // Byte identity, not just value equality: whole-row hashes must match.
  std::vector<int> cols = {0, 1, 2};
  std::vector<size_t> h1(static_cast<size_t>(t->NumRows()));
  std::vector<size_t> h2(static_cast<size_t>(t->NumRows()));
  t->HashRows(cols, 0, t->NumRows(), h1.data());
  (*back)->HashRows(cols, 0, (*back)->NumRows(), h2.data());
  EXPECT_EQ(h1, h2);
  EXPECT_GT(ctx.stats().pages_written.load(), 0);
  EXPECT_EQ(ctx.stats().bytes_read.load(), ctx.stats().bytes_written.load());
}

// --- Crash / debris sweep ---------------------------------------------------

TEST_F(SpillTest, CrashMidSpillLeavesNoReadablePagesAfterSweep) {
  MemoryBudget budget(32 << 20);
  SpillContext ctx(dir_, &budget, 4096);
  ASSERT_TRUE(ctx.Prepare().ok());

  auto t = MakeRandomTable(1000, 11, 50);
  const std::string path = ctx.NextFilePath("crash");
  auto file = SpillFile::Create(&ctx, path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->AppendPage(*t).ok());
  // Simulated crash between write and commit: the staging file stays on
  // disk, the committed path never appears.
  (*file)->SimulateCrashForTest();
  file->reset();
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".staging"));

  // Startup sweep (what SpillContext::Prepare runs) removes the debris;
  // afterwards no *.spill or *.spill.staging file is readable.
  auto swept = SweepSpillDirectory(dir_);
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(*swept, 1);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".spill"), std::string::npos)
        << "stale spill debris survived the sweep: " << name;
  }
}

TEST_F(SpillTest, SweepSparesCommittedFilesOfOtherKinds) {
  MemoryBudget budget(32 << 20);
  SpillContext ctx(dir_, &budget, 4096);
  ASSERT_TRUE(ctx.Prepare().ok());
  // A checkpoint-like bystander file must survive the sweep.
  const std::string bystander = dir_ + "/checkpoint.meta";
  {
    std::FILE* f = std::fopen(bystander.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("keep me", f);
    std::fclose(f);
  }
  auto t = MakeRandomTable(100, 3, 10);
  auto file = SpillFile::Create(&ctx, ctx.NextFilePath("left"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->AppendPage(*t).ok());
  (*file)->SimulateCrashForTest();
  file->reset();
  auto swept = SweepSpillDirectory(dir_);
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(*swept, 1);
  EXPECT_TRUE(fs::exists(bystander));
}

// --- Corruption: checksum -> retry -> recover -------------------------------

TEST_F(SpillTest, TransientPageCorruptionRetriesAndRecovers) {
  MemoryBudget budget(32 << 20);
  SpillContext ctx(dir_, &budget, 4096);
  ASSERT_TRUE(ctx.Prepare().ok());
  auto t = MakeRandomTable(2000, 23, 64);
  auto file = SpillFile::Create(&ctx, ctx.NextFilePath("corrupt"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->AppendPage(*t).ok());
  ASSERT_TRUE((*file)->Commit().ok());

  // One injected bad read: the checksum rejects the frame, the retry
  // re-reads it clean.
  ctx.set_corrupt_page_reads_for_test(1);
  auto back = ReadSpillFile(&ctx, t->schema(), (*file)->path());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(TablesEqualExact(*t, **back));
  EXPECT_EQ(ctx.stats().checksum_retries.load(), 1);

  // Two injected bad reads of the same page: both attempts fail, the read
  // surfaces data loss instead of returning a damaged table.
  ctx.set_corrupt_page_reads_for_test(2);
  auto bad = ReadSpillFile(&ctx, t->schema(), (*file)->path());
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
}

// --- Budget accounting ------------------------------------------------------

TEST_F(SpillTest, ResidentSizeExcludesSpilledPartitionsAndPinsCharge) {
  MemoryBudget budget(64 << 20);
  SpillContext ctx(dir_, &budget, /*page_bytes=*/2048);
  ASSERT_TRUE(ctx.Prepare().ok());

  auto t = MakeRandomTable(20000, 5, 1 << 20);
  SpillableTable parts(&ctx, t->schema(), /*num_parts=*/4, /*bit_offset=*/0,
                       "acct", /*with_row_ids=*/false);
  std::vector<int> keys = {0};
  std::vector<size_t> hashes(static_cast<size_t>(t->NumRows()));
  t->HashRows(keys, 0, t->NumRows(), hashes.data());
  ASSERT_TRUE(parts.AppendPartitioned(*t, hashes, 0, t->NumRows()).ok());
  ASSERT_TRUE(parts.Finish().ok());

  // With 2 KiB pages and ~500 KiB of input, every partition spilled; the
  // resident size must not count the on-disk bytes (the satellite-3 bug:
  // spilled partitions double-counted as resident).
  EXPECT_GT(ctx.stats().partitions_spilled.load(), 0);
  EXPECT_LT(parts.ResidentByteSize(), t->ByteSize() / 4);
  const int64_t pinned_before = budget.pinned_bytes();

  auto pinned = parts.PinPartition(0);
  ASSERT_TRUE(pinned.ok());
  ASSERT_GT((*pinned)->NumRows(), 0);
  // Pinning pages the partition in and charges exactly its bytes.
  EXPECT_EQ(budget.pinned_bytes() - pinned_before, (*pinned)->ByteSize());
  EXPECT_GE(parts.ResidentByteSize(), (*pinned)->ByteSize());
  parts.UnpinPartition(0);
  EXPECT_EQ(budget.pinned_bytes(), pinned_before);

  // All rows land somewhere; nothing is lost to the spill round trip.
  int64_t total = 0;
  for (int p = 0; p < 4; ++p) total += parts.PartitionRows(p);
  EXPECT_EQ(total, t->NumRows());
}

// --- Grace-hash join bit-identity -------------------------------------------

struct JoinCase {
  const char* name;
  JoinType type;
  bool residual;
};

TablePtr RunJoin(const TablePtr& left, const TablePtr& right, JoinType type,
                 bool residual, SpillContext* spill, ThreadPool* pool) {
  std::vector<JoinOutputCol> out_cols;
  if (type == JoinType::kInner) {
    out_cols = {JoinOutputCol::Left(0, "k"), JoinOutputCol::Left(1, "lv"),
                JoinOutputCol::Right(1, "rv"),
                JoinOutputCol::Right(2, "rw", ColumnType::kFloat64)};
  }
  RowPredicate pred;
  if (residual) {
    // Sees the concatenated logical rows: left (3 cols) then right.
    pred = [](const RowView& r) {
      return r[1].i64() % 3 != 0 || r[4].i64() % 2 == 0;
    };
  }
  auto plan = HashJoin(Scan(left), Scan(right), {0}, {0}, type, out_cols,
                       pred);
  ExecContext ctx;
  ctx.set_spill(spill);
  ctx.set_thread_pool(pool);
  auto out = plan->Execute(&ctx);
  EXPECT_TRUE(out.ok()) << out.status();
  return out.ok() ? *out : nullptr;
}

TEST_F(SpillTest, GraceJoinBitIdenticalToInMemoryAtEveryThreadCount) {
  auto left = MakeRandomTable(20000, 101, /*key_space=*/4000);
  auto right = MakeRandomTable(15000, 202, /*key_space=*/4000);

  const JoinCase cases[] = {
      {"inner", JoinType::kInner, false},
      {"inner+residual", JoinType::kInner, true},
      {"semi", JoinType::kLeftSemi, false},
      {"anti", JoinType::kLeftAnti, false},
  };
  for (const JoinCase& c : cases) {
    SCOPED_TRACE(c.name);
    TablePtr reference =
        RunJoin(left, right, c.type, c.residual, nullptr, nullptr);
    ASSERT_NE(reference, nullptr);

    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(threads);
      // A budget far below the inputs forces the grace path (and its
      // recursion: one level cannot get partitions under ~64 KiB here).
      MemoryBudget budget(64 << 10);
      SpillContext spill(dir_, &budget, /*page_bytes=*/16 << 10);
      ThreadPool pool(threads);
      TablePtr grace = RunJoin(left, right, c.type, c.residual, &spill,
                               threads > 1 ? &pool : nullptr);
      ASSERT_NE(grace, nullptr);
      EXPECT_TRUE(TablesEqualExact(*reference, *grace));
      EXPECT_GT(spill.stats().bytes_written.load(), 0)
          << "budget did not force a spill";
    }
  }
}

TEST_F(SpillTest, GraceJoinHandlesEmptyAndNullOnlySides) {
  auto left = MakeRandomTable(5000, 7, 100);
  auto empty = Table::Make(WideSchema());
  MemoryBudget budget(1 << 10);
  SpillContext spill(dir_, &budget, 4096);
  // Empty build side: inner joins produce nothing; anti joins pass
  // everything through in order.
  TablePtr inner_ref =
      RunJoin(left, empty, JoinType::kInner, false, nullptr, nullptr);
  TablePtr inner = RunJoin(left, empty, JoinType::kInner, false, &spill,
                           nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->NumRows(), 0);
  EXPECT_TRUE(TablesEqualExact(*inner_ref, *inner));
  TablePtr anti_ref =
      RunJoin(left, empty, JoinType::kLeftAnti, false, nullptr, nullptr);
  TablePtr anti =
      RunJoin(left, empty, JoinType::kLeftAnti, false, &spill, nullptr);
  ASSERT_NE(anti, nullptr);
  EXPECT_TRUE(TablesEqualExact(*anti_ref, *anti));
}

// --- Budgeted grounding bit-identity ----------------------------------------

/// Grounds `kb` and returns the final TPi (plus TPhi row count via
/// `factors`), under the given budget and thread count.
TablePtr GroundWithBudget(const KnowledgeBase& kb, int64_t budget_bytes,
                          const std::string& spill_dir, int threads,
                          int64_t* factors, StatsRegistry* stats = nullptr) {
  RelationalKB rkb = BuildRelationalModel(kb);
  GroundingOptions options;
  options.max_iterations = 4;
  options.num_threads = threads;
  options.mem_budget_bytes = budget_bytes;
  options.spill_dir = spill_dir;
  Grounder grounder(&rkb, options);
  if (stats != nullptr) grounder.set_stats_registry(stats);
  EXPECT_TRUE(grounder.GroundAtoms().ok());
  auto phi = grounder.GroundFactors();
  EXPECT_TRUE(phi.ok());
  if (factors != nullptr && phi.ok()) *factors = (*phi)->NumRows();
  return rkb.t_pi;
}

TEST_F(SpillTest, BudgetedGroundingBitIdenticalAcrossThreadCounts) {
  SyntheticKbConfig config;
  config.scale = 0.004;
  auto skb = GenerateReverbSherlockKb(config);
  ASSERT_TRUE(skb.ok());

  int64_t ref_factors = 0;
  TablePtr reference =
      GroundWithBudget(skb->kb, /*budget=*/0, dir_, 1, &ref_factors);

  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    StatsRegistry stats;
    int64_t factors = 0;
    TablePtr budgeted = GroundWithBudget(skb->kb, /*budget=*/64 << 10, dir_,
                                         threads, &factors, &stats);
    EXPECT_TRUE(TablesEqualExact(*reference, *budgeted));
    EXPECT_EQ(factors, ref_factors);
    EXPECT_GT(stats.FindCounter("spill_bytes_written"), 0)
        << "budget did not force a spill";
    EXPECT_GT(stats.FindCounter("page_faults_served"), 0);
  }
}

TEST_F(SpillTest, BudgetedMppGroundingBitIdenticalAcrossSegments) {
  SyntheticKbConfig config;
  config.scale = 0.004;
  auto skb = GenerateReverbSherlockKb(config);
  ASSERT_TRUE(skb.ok());

  // GatherTPi row order depends on how rows were sharded, so the exact
  // reference is the unbudgeted run at the SAME segment count; the grace
  // path must not perturb it.
  for (int segments : {2, 4}) {
    SCOPED_TRACE(segments);
    RelationalKB rkb_ref = BuildRelationalModel(skb->kb);
    GroundingOptions ref_options;
    ref_options.max_iterations = 4;
    ref_options.mem_budget_bytes = 0;
    MppGrounder reference(rkb_ref, segments, MppMode::kViews, ref_options);
    ASSERT_TRUE(reference.GroundAtoms().ok());
    TablePtr tpi_ref = reference.GatherTPi();

    StatsRegistry stats;
    RelationalKB rkb = BuildRelationalModel(skb->kb);
    GroundingOptions options;
    options.max_iterations = 4;
    options.mem_budget_bytes = 64 << 10;
    options.spill_dir = dir_;
    MppGrounder grounder(rkb, segments, MppMode::kViews, options);
    grounder.set_stats_registry(&stats);
    ASSERT_TRUE(grounder.GroundAtoms().ok());
    TablePtr tpi = grounder.GatherTPi();
    EXPECT_TRUE(TablesEqualExact(*tpi_ref, *tpi));
    EXPECT_GT(stats.FindCounter("spill_bytes_written"), 0);
  }
}

// --- Checkpoint / resume interplay ------------------------------------------

TEST_F(SpillTest, CheckpointResumeWithActiveSpillFiles) {
  SyntheticKbConfig config;
  config.scale = 0.004;
  auto skb = GenerateReverbSherlockKb(config);
  ASSERT_TRUE(skb.ok());
  const std::string ckpt = dir_ + "/ckpt";
  const std::string spill_dir = dir_ + "/spill";

  // Reference: uninterrupted budgeted run.
  int64_t ref_factors = 0;
  TablePtr reference = GroundWithBudget(skb->kb, /*budget=*/0, spill_dir, 1,
                                        &ref_factors);

  // Interrupted run: two iterations under budget, checkpointing into the
  // *spill* directory's parent tree — spill files and checkpoint coexist.
  {
    RelationalKB rkb = BuildRelationalModel(skb->kb);
    GroundingOptions options;
    options.max_iterations = 2;
    options.mem_budget_bytes = 64 << 10;
    options.spill_dir = spill_dir;
    options.checkpoint_dir = ckpt;
    Grounder grounder(&rkb, options);
    ASSERT_TRUE(grounder.GroundAtoms().ok());
  }
  ASSERT_TRUE(fs::exists(ckpt));

  // Resume to the fixpoint under budget; the startup sweep must clear any
  // spill debris without touching the checkpoint.
  {
    RelationalKB rkb = BuildRelationalModel(skb->kb);
    GroundingOptions options;
    options.max_iterations = 4;
    options.mem_budget_bytes = 64 << 10;
    options.spill_dir = spill_dir;
    options.checkpoint_dir = ckpt;
    Grounder grounder(&rkb, options);
    ASSERT_TRUE(grounder.ResumeFrom(ckpt).ok());
    ASSERT_TRUE(grounder.GroundAtoms().ok());
    auto phi = grounder.GroundFactors();
    ASSERT_TRUE(phi.ok());
    EXPECT_TRUE(TablesEqualExact(*reference, *rkb.t_pi));
    EXPECT_EQ((*phi)->NumRows(), ref_factors);
  }
}

// --- Spill directory lifetime ------------------------------------------------

/// This process's default spill directories under the system temp dir.
int DefaultSpillDirs() {
  const std::string prefix = "probkb_spill." + std::to_string(::getpid()) + ".";
  int n = 0;
  for (const auto& entry : fs::directory_iterator(fs::temp_directory_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

TEST_F(SpillTest, DefaultDirectoryIsPerSessionAndRemovedWithIt) {
  const int before = DefaultSpillDirs();
  std::string first_dir;
  {
    SpillSession first(/*mem_budget_bytes=*/64 << 10, /*spill_dir=*/"");
    SpillSession second(64 << 10, "");
    ASSERT_TRUE(first.enabled());
    ASSERT_TRUE(second.enabled());
    first_dir = first.context()->dir();
    EXPECT_NE(first_dir, second.context()->dir());
    EXPECT_TRUE(fs::is_directory(first_dir));
  }
  EXPECT_FALSE(fs::exists(first_dir));

  // A budgeted grounding that really spills leaves no directory behind.
  SyntheticKbConfig config;
  config.scale = 0.004;
  auto skb = GenerateReverbSherlockKb(config);
  ASSERT_TRUE(skb.ok());
  StatsRegistry stats;
  int64_t factors = 0;
  GroundWithBudget(skb->kb, /*budget=*/64 << 10, /*spill_dir=*/"", 1,
                   &factors, &stats);
  EXPECT_GT(stats.FindCounter("spill_bytes_written"), 0);
  EXPECT_EQ(DefaultSpillDirs(), before);
}

TEST_F(SpillTest, CallerDirectoryOutlivesTheSession) {
  {
    SpillSession session(/*mem_budget_bytes=*/64 << 10, dir_);
    ASSERT_TRUE(session.enabled());
    EXPECT_EQ(session.context()->dir(), dir_);
  }
  EXPECT_TRUE(fs::is_directory(dir_));
}

// --- Datagen scaler (satellite: --scale-facts) ------------------------------

TEST(ScaleKbFactsTest, ReachesTargetDedupedWithPowerLawSkew) {
  SyntheticKbConfig config;
  config.scale = 0.004;
  auto skb = GenerateReverbSherlockKb(config);
  ASSERT_TRUE(skb.ok());
  KnowledgeBase kb = skb->kb;
  const int64_t target = 50000;
  ASSERT_TRUE(ScaleKbFacts(&kb, target, /*seed=*/99).ok());
  ASSERT_EQ(static_cast<int64_t>(kb.facts().size()), target);

  // No duplicate (relation, x, y) triples.
  std::set<std::tuple<int64_t, int64_t, int64_t>> seen;
  int64_t max_entity_uses = 0;
  std::map<int64_t, int64_t> entity_uses;
  for (const Fact& f : kb.facts()) {
    EXPECT_TRUE(seen.emplace(f.relation, f.x, f.y).second);
    max_entity_uses = std::max(max_entity_uses, ++entity_uses[f.x]);
  }
  // Power-law usage: the hottest subject entity must be used far more
  // often than the uniform expectation.
  const int64_t uniform =
      target / std::max<int64_t>(1, static_cast<int64_t>(entity_uses.size()));
  EXPECT_GT(max_entity_uses, uniform * 4);
}

TEST(ScaleKbFactsTest, DeterministicForFixedSeed) {
  SyntheticKbConfig config;
  config.scale = 0.004;
  auto skb = GenerateReverbSherlockKb(config);
  ASSERT_TRUE(skb.ok());
  KnowledgeBase a = skb->kb;
  KnowledgeBase b = skb->kb;
  ASSERT_TRUE(ScaleKbFacts(&a, 20000, 7).ok());
  ASSERT_TRUE(ScaleKbFacts(&b, 20000, 7).ok());
  ASSERT_EQ(a.facts().size(), b.facts().size());
  for (size_t i = 0; i < a.facts().size(); ++i) {
    EXPECT_EQ(a.facts()[i].relation, b.facts()[i].relation);
    EXPECT_EQ(a.facts()[i].x, b.facts()[i].x);
    EXPECT_EQ(a.facts()[i].y, b.facts()[i].y);
  }
}

}  // namespace
}  // namespace probkb
