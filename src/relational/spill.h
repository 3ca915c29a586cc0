#ifndef PROBKB_RELATIONAL_SPILL_H_
#define PROBKB_RELATIONAL_SPILL_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "relational/table.h"
#include "util/mem_budget.h"
#include "util/result.h"

namespace probkb {

/// Out-of-core storage tier: columnar Table partitions serialized to disk
/// as checksummed fixed-size pages and paged back on demand, so grounding
/// joins can run on KBs far larger than the memory budget (DESIGN.md
/// "Out-of-core execution"). The page payload is the lossless columnar
/// encoding (table_io.h EncodeTableColumnar), so a paged-in partition is
/// byte-identical to the table that was spilled.
///
/// Commit discipline is the checkpoint layer's `.staging`-then-rename
/// pattern: pages stream into `<path>.staging`, and only a completed
/// Commit() fsyncs and renames the file into place. A crash mid-spill
/// leaves only `.staging` debris that SweepSpillDirectory removes at
/// startup — a resumed run can never page in a half-written partition.

/// \brief Cumulative spill-layer counters. Atomics: MPP per-segment
/// fan-out spills into one shared context from several threads.
struct SpillStats {
  std::atomic<int64_t> partitions_spilled{0};
  std::atomic<int64_t> pages_written{0};
  std::atomic<int64_t> bytes_written{0};
  std::atomic<int64_t> bytes_read{0};
  std::atomic<int64_t> page_faults_served{0};
  std::atomic<int64_t> checksum_retries{0};
};

/// \brief Shared configuration and state of one out-of-core session: the
/// spill directory, the page size, the memory budget, the counters, and a
/// unique-name sequence. One SpillContext serves every statement of a
/// grounding run (single-node or per-segment MPP fan-out); all methods
/// are thread-safe.
class SpillContext {
 public:
  /// \brief `budget` not owned; may be nullptr (spilling then only
  /// happens when an operator asks for it explicitly). `page_bytes` is
  /// the flush threshold of one partition page.
  SpillContext(std::string dir, MemoryBudget* budget,
               int64_t page_bytes = 1 << 20);
  ~SpillContext();

  SpillContext(const SpillContext&) = delete;
  SpillContext& operator=(const SpillContext&) = delete;

  const std::string& dir() const { return dir_; }
  int64_t page_bytes() const { return page_bytes_; }
  MemoryBudget* budget() const { return budget_; }
  SpillStats& stats() { return stats_; }

  /// \brief Creates the spill directory (once) and sweeps debris left by
  /// a crashed predecessor. Idempotent; call before the first spill.
  Status Prepare();

  /// \brief Unique spill-file path `<dir>/<label>.<seq>.spill`.
  std::string NextFilePath(const std::string& label);

  /// \brief Registers a committed file for RemoveOwnedFiles cleanup.
  void TrackFile(const std::string& path);

  /// \brief Deletes every spill file this context committed (end-of-run
  /// cleanup; sweep handles files orphaned by a crash).
  void RemoveOwnedFiles();

  /// \brief Test hook: damage the next `n` page reads (one flipped byte
  /// after the checksum was recorded).
  /// Each damaged read fails its checksum; the reader's one retry then
  /// sees clean bytes unless more tokens remain.
  void set_corrupt_page_reads_for_test(int64_t n) {
    corrupt_reads_.store(n, std::memory_order_relaxed);
  }
  bool TakeCorruptReadToken();

 private:
  std::string dir_;
  MemoryBudget* budget_;
  int64_t page_bytes_;
  SpillStats stats_;
  std::atomic<int64_t> file_seq_{0};
  std::atomic<bool> prepared_{false};
  std::atomic<int64_t> corrupt_reads_{0};
  std::mutex mu_;                          // guards owned_files_
  std::vector<std::string> owned_files_;   // committed paths
};

/// \brief Removes orphaned spill debris (`*.spill` and `*.spill.staging`)
/// from `dir`; returns the number of files removed. Startup calls this
/// before the first spill — committed files from a crashed run are as
/// dead as staging files, since partition metadata lives only in memory.
/// Files with other extensions (checkpoints!) are never touched.
Result<int> SweepSpillDirectory(const std::string& dir);

/// \brief One spill file: a sequence of checksummed pages, each holding
/// the columnar encoding of a Table slice. Writes stream into
/// `<path>.staging`; Commit() fsyncs and renames into place. An
/// uncommitted file is removed by the destructor (error paths), or left
/// as debris by SimulateCrashForTest() for the sweep to collect.
class SpillFile {
 public:
  static Result<std::unique_ptr<SpillFile>> Create(SpillContext* ctx,
                                                   const std::string& path);
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// \brief Appends `page` (rows [begin, end) of its table) as one page.
  Status AppendPage(const Table& page);

  /// \brief Flushes, fsyncs, and renames `<path>.staging` to `<path>`.
  Status Commit();

  /// \brief Abandons the staging file *without* removing it, as a crash
  /// between write and rename would: the bytes may be fully written, but
  /// the commit rename never happened.
  void SimulateCrashForTest();

  const std::string& path() const { return path_; }
  int64_t pages() const { return pages_; }
  int64_t rows() const { return rows_; }
  int64_t bytes_written() const { return bytes_written_; }
  bool committed() const { return committed_; }

 private:
  SpillFile(SpillContext* ctx, std::string path, std::FILE* file);

  SpillContext* ctx_;
  std::string path_;
  std::FILE* file_ = nullptr;  // open on <path>.staging until Commit
  int64_t pages_ = 0;
  int64_t rows_ = 0;
  int64_t bytes_written_ = 0;
  bool committed_ = false;
  std::string encode_buf_;  // reused per page
};

/// \brief Reads every page of a committed spill file back into one table.
/// Each page's checksum is verified; a mismatch (torn write, bit rot, an
/// injected corrupt read) is retried once with a fresh read
/// before surfacing kDataLoss. Counts a page fault and the bytes read
/// into `ctx->stats()`.
Result<TablePtr> ReadSpillFile(SpillContext* ctx, const Schema& schema,
                               const std::string& path);

/// \brief Deterministic hash-partition router shared with the in-memory
/// PartitionedRowIndex (engine/flat_hash.h): partition = a log2(parts)-bit
/// group of the 64-bit row-key hash, taken from the top at `bit_offset`.
/// Level-0 routing (bit_offset 0) is bit-for-bit the PartitionedRowIndex
/// routing, which is what makes spilled execution a pure physical rewrite:
/// all rows with equal full hash land in the same partition at every
/// level, so each partition pair joins exactly the chains the monolithic
/// index would have probed (same rows, same order). Recursion passes
/// `bit_offset + bits()` to the next level, consuming the next bit group
/// down.
class PartitionedSpillIndex {
 public:
  PartitionedSpillIndex(int num_parts, int bit_offset)
      : num_parts_(num_parts), bit_offset_(bit_offset) {
    PROBKB_CHECK(num_parts >= 1 && (num_parts & (num_parts - 1)) == 0);
    bits_ = 0;
    while ((1 << bits_) < num_parts) ++bits_;
    PROBKB_CHECK(bit_offset_ + bits_ <= 63);
  }

  int num_parts() const { return num_parts_; }
  int bits() const { return bits_; }
  int bit_offset() const { return bit_offset_; }

  size_t PartOf(size_t hash) const {
    if (bits_ == 0) return 0;
    return (hash << bit_offset_) >> (64 - bits_);
  }

 private:
  int num_parts_;
  int bit_offset_;
  int bits_ = 0;
};

/// \brief A logical table split into hash partitions, each either
/// resident (an in-memory buffer) or spilled (a committed page file).
/// Rows are routed by PartitionedSpillIndex; a partition's buffer flushes
/// to its spill file whenever it grows past one page, so partitions
/// smaller than a page never touch disk. With `with_row_ids` the
/// partition schema carries one extra trailing int64 column recording
/// each row's source index — the grace-hash probe side uses it to merge
/// partition outputs back into exact serial order.
///
/// Not thread-safe: one SpillableTable belongs to one operator execution.
/// The shared SpillContext underneath is thread-safe.
class SpillableTable {
 public:
  SpillableTable(SpillContext* ctx, Schema schema, int num_parts,
                 int bit_offset, std::string label, bool with_row_ids);
  ~SpillableTable();

  SpillableTable(const SpillableTable&) = delete;
  SpillableTable& operator=(const SpillableTable&) = delete;

  const PartitionedSpillIndex& router() const { return router_; }
  int num_parts() const { return router_.num_parts(); }
  const Schema& partition_schema() const { return part_schema_; }

  /// \brief Routes rows [begin, end) of `src` into the partitions;
  /// `hashes[i]` is the row-key hash of row begin+i. Over-page buffers
  /// flush to disk as they fill.
  Status AppendPartitioned(const Table& src, std::span<const size_t> hashes,
                           int64_t begin, int64_t end);

  /// \brief Flushes and commits every partition that spilled. Call after
  /// the last AppendPartitioned, before the first PinPartition.
  Status Finish();

  int64_t PartitionRows(int p) const;
  bool IsSpilled(int p) const;

  /// \brief The partition's rows as one resident table: the buffer
  /// as-is for resident partitions, paged in from disk for spilled ones
  /// (Finish flushed their tails). Pinning charges the memory budget with
  /// the pinned bytes; UnpinPartition releases exactly that charge. At most one
  /// partition should be pinned at a time per join side (the single-slot
  /// page cache the budget is sized for).
  Result<TablePtr> PinPartition(int p);
  void UnpinPartition(int p);

  /// \brief Bytes actually resident: partition buffers plus pinned
  /// page-ins. Spilled, unpinned partitions count zero — they live on
  /// disk, and counting them (the pre-PR Table::ByteSize view of the
  /// world) double-charged the budget and inflated bench RSS accounting.
  int64_t ResidentByteSize() const;

  int64_t total_rows() const { return total_rows_; }

 private:
  struct Partition {
    TablePtr buffer;                   // tail rows not yet flushed
    std::unique_ptr<SpillFile> file;   // from the first flush to Finish()
    std::string committed_path;        // set by Finish()
    int64_t rows = 0;
    TablePtr pinned;                   // page-in result while pinned
    int64_t pinned_charge = 0;         // bytes charged to the budget
  };

  Status FlushPartition(Partition* part);
  void ChargeDelta(int64_t bytes);

  SpillContext* ctx_;
  Schema part_schema_;
  PartitionedSpillIndex router_;
  std::string label_;
  bool with_row_ids_;
  std::vector<Partition> parts_;
  std::vector<std::vector<int64_t>> scatter_;  // reused per append batch
  int64_t total_rows_ = 0;
  int64_t buffered_charge_ = 0;  // budget bytes charged for buffers
};

}  // namespace probkb

#endif  // PROBKB_RELATIONAL_SPILL_H_
