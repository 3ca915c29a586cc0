#ifndef PROBKB_MPP_DISTRIBUTED_TABLE_H_
#define PROBKB_MPP_DISTRIBUTED_TABLE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mpp/distribution.h"
#include "relational/table.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace probkb {

class DistributedTable;
using DistributedTablePtr = std::shared_ptr<DistributedTable>;

/// \brief Calls `body(i)` for i in [0, n): on `pool` (may be nullptr) when
/// it has threads to spare and `rows` reach kSerialFanoutRowCutoff, else
/// in order. Bodies write disjoint slots, so both leave identical state.
void FanOut(ThreadPool* pool, int n, int64_t rows,
            const std::function<void(int)>& body);

/// \brief One sender's rows counting-sorted by target segment: segment t
/// gets `rows[offsets[t] .. offsets[t + 1])`, ascending. A sender with no
/// rows has no offsets either.
struct SegmentRouting {
  std::vector<int64_t> offsets;  // num_segments + 1 entries, or none
  std::vector<int64_t> rows;

  int64_t Count(int t) const {
    if (offsets.empty()) return 0;
    return offsets[static_cast<size_t>(t) + 1] -
           offsets[static_cast<size_t>(t)];
  }
  std::span<const int64_t> To(int t) const {
    if (offsets.empty()) return {};
    return std::span<const int64_t>(rows).subspan(
        static_cast<size_t>(offsets[static_cast<size_t>(t)]),
        static_cast<size_t>(Count(t)));
  }
};

/// \brief A relation horizontally partitioned over N shared-nothing
/// segments.
///
/// For kHash, row r lives on segment Hash(r[key_cols]) % N. For
/// kReplicated, every segment holds a full copy (segments_[i] all alias the
/// same Table). For kRandom, placement is round-robin.
class DistributedTable {
 public:
  DistributedTable(Schema schema, std::vector<TablePtr> segments,
                   Distribution dist, std::string name);

  /// \brief Partitions `local` across `num_segments` per `dist`.
  static DistributedTablePtr Distribute(const Table& local, int num_segments,
                                        Distribution dist,
                                        std::string name = "t");

  /// \brief Empty distributed table.
  static DistributedTablePtr MakeEmpty(Schema schema, int num_segments,
                                       Distribution dist,
                                       std::string name = "t");

  const Schema& schema() const { return schema_; }
  const Distribution& distribution() const { return dist_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  int num_segments() const { return static_cast<int>(segments_.size()); }
  const TablePtr& segment(int i) const {
    return segments_[static_cast<size_t>(i)];
  }
  TablePtr mutable_segment(int i) { return segments_[static_cast<size_t>(i)]; }

  /// \brief Logical row count (replicated tables count one copy).
  int64_t NumRows() const;

  /// \brief Physical rows summed over segments (replicated tables count
  /// every copy); drives storage accounting.
  int64_t PhysicalRows() const;

  int64_t ByteSize() const;

  /// \brief Concatenates all segments into one local table (a Gather with
  /// no cost accounting; use MppContext::Gather in measured code).
  TablePtr ToLocal() const;

  /// \brief Hash-distribution segment of each row in [begin, end) of
  /// `table`, filling `out[0 .. end-begin)`: HashRowKey (through
  /// Table::HashRows, bit for bit) modulo `num_segments`.
  static void TargetSegments(const Table& table, std::span<const int> key_cols,
                             int num_segments, int64_t begin, int64_t end,
                             int* out);

  /// \brief Routes rows [begin, end) of `table` by `dist`'s hash keys
  /// (as TargetSegments), or else round-robin (row begin + i to i % N).
  /// An empty range allocates nothing.
  static SegmentRouting Route(const Table& table, const Distribution& dist,
                              int num_segments, int64_t begin, int64_t end);

  /// \brief The scatter kernel under every row-moving motion: target t
  /// gathers the rows each sender routes to it, senders in order, so
  /// placement and in-segment order equal a row-at-a-time loop. An empty
  /// target first reserves exactly; a target no sender routes a row to is
  /// not touched. Targets fill through FanOut on `pool`.
  static void Scatter(std::span<const Table* const> senders,
                      std::span<const SegmentRouting> routes,
                      const std::vector<TablePtr>& targets, ThreadPool* pool);

  /// \brief Verifies every row is on the segment its distribution demands.
  Status ValidatePlacement() const;

 private:
  Schema schema_;
  std::vector<TablePtr> segments_;
  Distribution dist_;
  std::string name_;
};

}  // namespace probkb

#endif  // PROBKB_MPP_DISTRIBUTED_TABLE_H_
