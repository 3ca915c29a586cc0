#ifndef PROBKB_ENGINE_TUNABLES_H_
#define PROBKB_ENGINE_TUNABLES_H_

#include <cstdint>

namespace probkb {

/// Execution constants of the engine, defined in one place (CI's
/// tunables-lint rejects bare cutoffs elsewhere in src/).
///
/// The batch widths size stack arrays in the batched hash pipelines
/// (`size_t hashes[k...]`); they are micro-architectural (L1 /
/// prefetch-queue depth), not workload-dependent.
///
/// Rows a probe batch covers in the batched prefetch pipeline: enough
/// in-flight prefetches to hide a DRAM miss, small enough to stay in L1.
inline constexpr int64_t kProbeBatchRows = 32;
/// Match pairs a join probe buffers before it gathers them into its output
/// table (Table::AppendColumns): two int64 buffers of this many entries,
/// 64 KiB together, so they stay in L2 and bound the probe's extra memory
/// whatever the fan-out.
inline constexpr int64_t kJoinFlushPairs = 4096;
/// Rows per batched Table::HashRows call in the DeleteMatching and TPi
/// merge pipelines.
inline constexpr int64_t kHashBatchRows = 64;
/// Rows per batched TargetSegments hashing chunk in Distribute /
/// placement validation.
inline constexpr int64_t kSegmentHashChunkRows = 4096;
/// Rows per batched hashing chunk when building a KeyIndex.
inline constexpr int64_t kIndexBuildChunkRows = 4096;

/// The serial/parallel cutoffs below only move work between the serial and
/// parallel paths of an operator; both paths are bit-identical by
/// construction (DESIGN.md "Threading model"), so no value can change any
/// output.
///
/// Input-row floor below which an operator skips the thread pool entirely
/// (probe morsels, build partitioning, parallel batch hashing): dispatch
/// overhead beats the win on tiny deltas.
inline constexpr int64_t kParallelMinRows = 8192;
/// Rows per parallel build-side hashing chunk in HashJoin, and per
/// partitioning chunk of the grace-hash join.
inline constexpr int64_t kHashChunkRows = 4096;
/// Rows per probe morsel in the morsel-parallel HashJoin probe.
inline constexpr int64_t kMorselRows = 2048;
/// Total-input-rows floor below which per-segment MPP fan-out runs
/// serially even with a pool attached: dispatching N segment tasks for a
/// few hundred rows costs more than the tasks themselves (fig6c_mpp_views
/// fell below 1.0x at 2-8 threads on fan-out overhead over tiny
/// per-iteration deltas). The serial path is the same code in segment
/// order.
inline constexpr int64_t kSerialFanoutRowCutoff = 8192;
/// Cap on hash-partitioned build parts in HashJoin (power of two).
inline constexpr int kMaxBuildPartitions = 16;

/// Out-of-core constants. The memory budget itself is a deployment setting
/// (GroundingOptions::mem_budget_bytes, `--mem-budget`), not a constant.
///
/// Spill partition page size: a partition's write buffer flushes to its
/// page file when it grows past this many bytes.
inline constexpr int64_t kSpillPageBytes = 1 << 20;
/// Build-side row floor below which a grace partition pair joins in memory
/// instead of recursing another partitioning level: tiny pairs cannot
/// meaningfully split (and repartitioning them costs more than the index
/// they avoid).
inline constexpr int64_t kGraceSplitMinRows = 4096;

}  // namespace probkb

#endif  // PROBKB_ENGINE_TUNABLES_H_
