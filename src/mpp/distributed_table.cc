#include "mpp/distributed_table.h"

#include <algorithm>

#include "engine/tunables.h"
#include "util/logging.h"
#include "util/strings.h"

namespace probkb {

void FanOut(ThreadPool* pool, int n, int64_t rows,
            const std::function<void(int)>& body) {
  if (pool != nullptr && pool->num_threads() > 1 && n > 1 &&
      rows >= kSerialFanoutRowCutoff) {
    pool->ParallelFor(n, 1, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) body(static_cast<int>(i));
    });
  } else {
    for (int i = 0; i < n; ++i) body(i);
  }
}

DistributedTable::DistributedTable(Schema schema,
                                   std::vector<TablePtr> segments,
                                   Distribution dist, std::string name)
    : schema_(std::move(schema)),
      segments_(std::move(segments)),
      dist_(std::move(dist)),
      name_(std::move(name)) {
  PROBKB_CHECK(!segments_.empty());
}

void DistributedTable::TargetSegments(const Table& table,
                                      std::span<const int> key_cols,
                                      int num_segments, int64_t begin,
                                      int64_t end, int* out) {
  size_t hashes[kSegmentHashChunkRows];
  for (int64_t base = begin; base < end; base += kSegmentHashChunkRows) {
    const int64_t stop = std::min(base + kSegmentHashChunkRows, end);
    table.HashRows(key_cols, base, stop, hashes);
    for (int64_t i = base; i < stop; ++i) {
      out[i - begin] = static_cast<int>(hashes[i - base] %
                                        static_cast<size_t>(num_segments));
    }
  }
}

SegmentRouting DistributedTable::Route(const Table& table,
                                       const Distribution& dist,
                                       int num_segments, int64_t begin,
                                       int64_t end) {
  SegmentRouting out;
  if (begin == end) return out;
  const size_t n = static_cast<size_t>(num_segments);
  std::vector<int> targets(static_cast<size_t>(end - begin));
  if (dist.is_hash()) {
    TargetSegments(table, dist.key_cols, num_segments, begin, end,
                   targets.data());
  } else {
    for (size_t i = 0; i < targets.size(); ++i) {
      targets[i] = static_cast<int>(i % n);
    }
  }
  out.offsets.assign(n + 1, 0);
  for (int t : targets) ++out.offsets[static_cast<size_t>(t) + 1];
  for (size_t t = 0; t < n; ++t) out.offsets[t + 1] += out.offsets[t];
  std::vector<int64_t> next(out.offsets.begin(), out.offsets.end() - 1);
  out.rows.resize(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    out.rows[static_cast<size_t>(next[static_cast<size_t>(targets[i])]++)] =
        begin + static_cast<int64_t>(i);
  }
  return out;
}

void DistributedTable::Scatter(std::span<const Table* const> senders,
                               std::span<const SegmentRouting> routes,
                               const std::vector<TablePtr>& targets,
                               ThreadPool* pool) {
  int64_t rows = 0;
  for (const SegmentRouting& route : routes) {
    rows += static_cast<int64_t>(route.rows.size());
  }
  FanOut(pool, static_cast<int>(targets.size()), rows, [&](int t) {
    int64_t incoming = 0;
    for (const SegmentRouting& route : routes) incoming += route.Count(t);
    if (incoming == 0) return;
    Table* dst = targets[static_cast<size_t>(t)].get();
    if (dst->NumRows() == 0) dst->ReserveRows(incoming);
    for (size_t s = 0; s < senders.size(); ++s) {
      if (routes[s].Count(t) > 0) {
        dst->AppendGatheredRows(*senders[s], routes[s].To(t));
      }
    }
  });
}

DistributedTablePtr DistributedTable::Distribute(const Table& local,
                                                 int num_segments,
                                                 Distribution dist,
                                                 std::string name) {
  PROBKB_CHECK(num_segments >= 1);
  std::vector<TablePtr> segments;
  segments.reserve(static_cast<size_t>(num_segments));
  if (dist.is_replicated()) {
    // All segments alias one physical copy; PhysicalRows() accounts for the
    // replication factor.
    TablePtr copy = local.Clone();
    for (int i = 0; i < num_segments; ++i) segments.push_back(copy);
  } else {
    for (int i = 0; i < num_segments; ++i) {
      segments.push_back(Table::Make(local.schema()));
    }
    // Serial: on the pool, the segments (T0 and the views, which live for
    // the whole run) would come from the workers' malloc arenas and raise
    // the run's peak RSS.
    const Table* sender = &local;
    const SegmentRouting route =
        Route(local, dist, num_segments, 0, local.NumRows());
    Scatter({&sender, 1}, {&route, 1}, segments, nullptr);
  }
  return std::make_shared<DistributedTable>(local.schema(),
                                            std::move(segments),
                                            std::move(dist), std::move(name));
}

DistributedTablePtr DistributedTable::MakeEmpty(Schema schema,
                                                int num_segments,
                                                Distribution dist,
                                                std::string name) {
  Table empty(schema);
  return Distribute(empty, num_segments, std::move(dist), std::move(name));
}

int64_t DistributedTable::NumRows() const {
  if (dist_.is_replicated()) return segments_[0]->NumRows();
  int64_t n = 0;
  for (const auto& s : segments_) n += s->NumRows();
  return n;
}

int64_t DistributedTable::PhysicalRows() const {
  if (dist_.is_replicated()) {
    return segments_[0]->NumRows() * num_segments();
  }
  return NumRows();
}

int64_t DistributedTable::ByteSize() const {
  if (dist_.is_replicated()) {
    return segments_[0]->ByteSize() * num_segments();
  }
  int64_t n = 0;
  for (const auto& s : segments_) n += s->ByteSize();
  return n;
}

TablePtr DistributedTable::ToLocal() const {
  auto out = Table::Make(schema_);
  if (dist_.is_replicated()) {
    out->AppendTable(*segments_[0]);
    return out;
  }
  for (const auto& s : segments_) out->AppendTable(*s);
  return out;
}

Status DistributedTable::ValidatePlacement() const {
  if (!dist_.is_hash()) return Status::OK();
  for (int s = 0; s < num_segments(); ++s) {
    const Table& t = *segments_[static_cast<size_t>(s)];
    std::vector<int> targets(static_cast<size_t>(t.NumRows()));
    TargetSegments(t, dist_.key_cols, num_segments(), 0, t.NumRows(),
                   targets.data());
    for (int64_t r = 0; r < t.NumRows(); ++r) {
      int target = targets[static_cast<size_t>(r)];
      if (target != s) {
        return Status::Internal(StrFormat(
            "table '%s': row %lld of segment %d hashes to segment %d",
            name_.c_str(), static_cast<long long>(r), s, target));
      }
    }
  }
  return Status::OK();
}

}  // namespace probkb
