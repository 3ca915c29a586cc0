#ifndef PROBKB_ENGINE_FLAT_HASH_H_
#define PROBKB_ENGINE_FLAT_HASH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace probkb {

/// \brief Open-addressing hash index mapping a precomputed row-key hash to
/// the chain of row ids inserted under it.
///
/// This replaces `std::unordered_map<size_t, std::vector<int64_t>>` on the
/// engine's hot paths (join build sides, distinct/dedup sets, KeyIndex, the
/// grounder's persistent TPi indexes): one flat slot array probed linearly
/// instead of a node allocation per bucket, and one entry pool instead of a
/// vector per key. Keys are the hashes of dictionary-encoded int64 row keys,
/// already well mixed by Value::Hash, so linear probing on the low bits
/// behaves.
///
/// Layout: a slot is a 32-bit hash tag (the hash's low 32 bits) plus the
/// chain's head and tail entry, 12 bytes; an entry is an int32 row id plus
/// an int32 next link, 8 bytes. Row ids and insert counts must therefore
/// stay below kMaxRows; callers check a table's size with CheckCapacity()
/// before indexing it.
///
/// Chains are keyed on the *tag*: two distinct row keys whose hashes agree
/// in the low 32 bits share a chain, and callers filter chain rows with
/// RowKeyEquals. Rows of one key always share a tag, and a chain holds its
/// rows in insertion order (each slot keeps a tail pointer), so the rows a
/// probe accepts — and their order — are exactly those of a full-hash
/// chain. That keeps join outputs bit-identical to the serial engine's
/// bucket push_back order. When rows are inserted in ascending row order,
/// as every build in the engine does, an index extended by later inserts
/// holds the same chains as a fresh build over the longer table, and a
/// probe valid for a table's first `bound` rows stops at the first chain
/// row >= bound. Growth re-probes the slot array only; the entry pool never
/// moves.
class FlatRowIndex {
 public:
  /// Largest row id, and largest insert count, the int32 layout holds.
  static constexpr int64_t kMaxRows = std::numeric_limits<int32_t>::max();

  /// \brief kResourceExhausted when a table of `rows` rows cannot be
  /// indexed (row ids past kMaxRows), OK otherwise.
  static Status CheckCapacity(int64_t rows) {
    if (rows <= kMaxRows) return Status::OK();
    return Status::ResourceExhausted(
        "hash index holds at most 2^31-1 rows; input has " +
        std::to_string(rows));
  }

  FlatRowIndex() = default;

  /// \brief Sizes the table for `expected_rows` inserts up front, so bulk
  /// builds (join build side, KeyIndex over a known table) do not
  /// rehash mid-insert.
  explicit FlatRowIndex(int64_t expected_rows) { Reserve(expected_rows); }

  /// \brief Ensures capacity for `expected_rows` additional inserts without
  /// a rehash.
  void Reserve(int64_t expected_rows) {
    if (expected_rows < 0) expected_rows = 0;
    entries_.reserve(entries_.size() + static_cast<size_t>(expected_rows));
    // Distinct tags <= inserts; size the slot array for the worst case.
    size_t want = SlotCountFor(static_cast<size_t>(expected_rows) +
                               occupied_slots_);
    if (want > slots_.size()) Rehash(want);
  }

  /// \brief Appends `row` to the chain of `hash`'s tag. `row` and size()
  /// must stay below kMaxRows (see CheckCapacity).
  void Insert(size_t hash, int64_t row) {
    PROBKB_DCHECK(row >= 0 && row < kMaxRows && size() < kMaxRows);
    if (slots_.empty() ||
        (occupied_slots_ + 1) * 10 > slots_.size() * kMaxLoadPercent) {
      Rehash(SlotCountFor(occupied_slots_ + 1));
    }
    if (entries_.size() == entries_.capacity()) {
      // Grow the pool by an eighth rather than doubling it: an index
      // extended batch by batch (the grounder's TPi indexes) then carries
      // at most 1/8 spare entries. Bulk builds Reserve() up front instead.
      entries_.reserve(entries_.size() +
                       std::max<size_t>(entries_.size() / 8, 64));
    }
    const uint32_t tag = TagOf(hash);
    Slot& slot = FindSlot(slots_, tag);
    const int32_t entry = static_cast<int32_t>(entries_.size());
    entries_.push_back({static_cast<int32_t>(row), kNil});
    if (slot.head == kNil) {
      slot.tag = tag;
      slot.head = entry;
      ++occupied_slots_;
    } else {
      entries_[static_cast<size_t>(slot.tail)].next = entry;
    }
    slot.tail = entry;
  }

  /// \brief Issues a software prefetch for the home slot of `hash`.
  ///
  /// The batched probe pipeline (DRAMHiT-style) computes a batch of
  /// hashes, prefetches each one's slot, then resolves the batch: by the
  /// time Head() dereferences a slot its cache line is (usually) already
  /// in flight, hiding the per-probe DRAM miss. Purely a hint — results
  /// are identical with or without it.
  void PrefetchHash(size_t hash) const {
    if (slots_.empty()) return;
    __builtin_prefetch(&slots_[TagOf(hash) & (slots_.size() - 1)],
                       /*rw=*/0, /*locality=*/1);
  }

  /// \brief First entry of the chain for `hash`'s tag, or -1. Walk with
  /// Next(); read the row id with Row().
  int64_t Head(size_t hash) const {
    if (slots_.empty()) return kNil;
    const uint32_t tag = TagOf(hash);
    const size_t mask = slots_.size() - 1;
    size_t pos = tag & mask;
    for (;;) {
      const Slot& slot = slots_[pos];
      if (slot.head == kNil) return kNil;
      if (slot.tag == tag) return slot.head;
      pos = (pos + 1) & mask;
    }
  }

  int64_t Next(int64_t entry) const {
    PROBKB_DCHECK(entry >= 0 &&
                  entry < static_cast<int64_t>(entries_.size()));
    return entries_[static_cast<size_t>(entry)].next;
  }

  int64_t Row(int64_t entry) const {
    PROBKB_DCHECK(entry >= 0 &&
                  entry < static_cast<int64_t>(entries_.size()));
    return entries_[static_cast<size_t>(entry)].row;
  }

  /// \brief Drops every entry past the first `entries` inserts, leaving the
  /// chains the shorter insert sequence built: chains are insert-ordered,
  /// so each keeps a prefix. Slot capacity is kept.
  void Truncate(int64_t entries) {
    PROBKB_DCHECK(entries >= 0);
    if (entries >= size()) return;
    const int32_t keep = static_cast<int32_t>(entries);
    std::vector<Slot> old(slots_.size());
    old.swap(slots_);
    occupied_slots_ = 0;
    for (Slot slot : old) {
      if (slot.head == kNil || slot.head >= keep) continue;
      int32_t tail = slot.head;
      while (entries_[static_cast<size_t>(tail)].next != kNil &&
             entries_[static_cast<size_t>(tail)].next < keep) {
        tail = entries_[static_cast<size_t>(tail)].next;
      }
      entries_[static_cast<size_t>(tail)].next = kNil;
      slot.tail = tail;
      FindSlot(slots_, slot.tag) = slot;
      ++occupied_slots_;
    }
    entries_.resize(static_cast<size_t>(keep));
  }

  /// Total rows inserted (not distinct hashes).
  int64_t size() const { return static_cast<int64_t>(entries_.size()); }

  /// Slot-array capacity, exposed for tests asserting Reserve() prevents
  /// mid-build rehashes.
  size_t slot_capacity() const { return slots_.size(); }

  /// Slot-array growths after the initial allocation; a pre-sized bulk
  /// build keeps this at 0.
  int64_t rehash_count() const { return rehash_count_; }

 private:
  static constexpr int32_t kNil = -1;
  // Grow once a slot array is 7/10 full (x10 to stay in integers).
  static constexpr size_t kMaxLoadPercent = 7;

  struct Slot {
    uint32_t tag = 0;
    int32_t head = kNil;  // kNil marks an empty slot
    int32_t tail = kNil;
  };

  struct Entry {
    int32_t row;
    int32_t next;
  };

  static uint32_t TagOf(size_t hash) { return static_cast<uint32_t>(hash); }

  /// Smallest power of two holding `keys` distinct tags under the load
  /// cap.
  static size_t SlotCountFor(size_t keys) {
    size_t want = 16;
    while (want * kMaxLoadPercent < keys * 10) want <<= 1;
    return want;
  }

  /// Linear probe to the slot holding `tag`, or the first empty slot.
  static Slot& FindSlot(std::vector<Slot>& slots, uint32_t tag) {
    const size_t mask = slots.size() - 1;
    size_t pos = tag & mask;
    for (;;) {
      Slot& slot = slots[pos];
      if (slot.head == kNil || slot.tag == tag) return slot;
      pos = (pos + 1) & mask;
    }
  }

  void Rehash(size_t new_slot_count) {
    if (new_slot_count < 16) new_slot_count = 16;
    if (!slots_.empty()) ++rehash_count_;
    std::vector<Slot> fresh(new_slot_count);
    for (const Slot& slot : slots_) {
      if (slot.head == kNil) continue;
      FindSlot(fresh, slot.tag) = slot;
    }
    slots_ = std::move(fresh);
  }

  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
  size_t occupied_slots_ = 0;
  int64_t rehash_count_ = 0;
};

/// \brief A FlatRowIndex split into `P` (power of two) independent
/// sub-indexes by the *top* bits of the hash, so the build can run
/// morsel-parallel: each partition owns a disjoint hash range and is built
/// by one task scanning the precomputed hash array in row order.
///
/// Bit-identity argument: routing on the top bits sends every row of one
/// row key (one full hash) to the same partition, in row order. A probe
/// for key k consults partition P's chain for k's tag; filtered by
/// RowKeyEquals, that chain yields exactly the rows of k in row order —
/// the same rows the single-index serial build's chain yields, whatever
/// other tag-mates either chain also carries. So join outputs are
/// identical for every partition count, which is what lets the threaded
/// build coexist with the engine's bit-identical-to-serial guarantee. One
/// partition is the exact serial path.
///
/// The out-of-core grace-hash join (relational/spill.h
/// PartitionedSpillIndex, ops.h GraceHashJoin) routes its disk partitions
/// with this same top-bit scheme — its bit_offset=0 level is bit-for-bit
/// this router — so the chain argument above carries over unchanged to
/// spilled execution, and recursion levels consume successive bit groups
/// downward from the top.
class PartitionedRowIndex {
 public:
  explicit PartitionedRowIndex(int num_parts) {
    PROBKB_CHECK(num_parts >= 1 && (num_parts & (num_parts - 1)) == 0);
    parts_.resize(static_cast<size_t>(num_parts));
    int log2 = 0;
    while ((1 << log2) < num_parts) ++log2;
    shift_ = 64 - log2;
  }

  int num_parts() const { return static_cast<int>(parts_.size()); }

  size_t PartOf(size_t hash) const {
    return shift_ >= 64 ? 0 : hash >> shift_;
  }

  FlatRowIndex& part(size_t p) { return parts_[p]; }
  const FlatRowIndex& PartFor(size_t hash) const {
    return parts_[PartOf(hash)];
  }

  void PrefetchHash(size_t hash) const { PartFor(hash).PrefetchHash(hash); }

  int64_t rehash_count() const {
    int64_t total = 0;
    for (const FlatRowIndex& p : parts_) total += p.rehash_count();
    return total;
  }

 private:
  std::vector<FlatRowIndex> parts_;
  int shift_ = 64;
};

}  // namespace probkb

#endif  // PROBKB_ENGINE_FLAT_HASH_H_
