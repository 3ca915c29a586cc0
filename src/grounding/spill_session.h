#ifndef PROBKB_GROUNDING_SPILL_SESSION_H_
#define PROBKB_GROUNDING_SPILL_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "obs/stats_registry.h"
#include "relational/spill.h"
#include "util/mem_budget.h"

namespace probkb {

/// \brief Owns one grounding run's out-of-core state: the MemoryBudget,
/// the SpillContext over the spill directory, and the bookkeeping that
/// surfaces spill counters into a StatsRegistry. Shared by Grounder and
/// MppGrounder so both resolve budget/dir/page-size identically.
///
/// The budget is taken as given: 0 turns spilling off, a positive byte
/// count arms it (GroundingOptions::mem_budget_bytes, `--mem-budget`).
/// The directory defaults to `<system temp>/probkb_spill.<pid>.<n>`, one
/// per session (n counts the process's sessions), so no two runs or
/// grounders on one host share it; the session removes that directory when
/// it ends. Construction prepares the directory and sweeps debris a
/// crashed predecessor left behind; destruction removes every file this
/// run committed, and never a directory the caller named.
class SpillSession {
 public:
  SpillSession(int64_t mem_budget_bytes, std::string spill_dir);
  ~SpillSession();

  SpillSession(const SpillSession&) = delete;
  SpillSession& operator=(const SpillSession&) = delete;

  /// \brief Armed: a positive budget resolved and the directory prepared.
  bool enabled() const { return spill_ != nullptr; }

  /// \brief The shared spill context, or nullptr when disabled.
  SpillContext* context() { return spill_.get(); }
  MemoryBudget* budget() { return budget_.get(); }

  /// \brief Transfers the spill counters accumulated since the last flush
  /// into `registry` (spill_partitions, spill_bytes_written,
  /// spill_bytes_read, page_faults_served, ...). Deltas, not absolutes,
  /// so repeated flushes never double-count. No-op on nullptr or when
  /// disabled.
  void FlushCountersInto(StatsRegistry* registry);

 private:
  std::unique_ptr<MemoryBudget> budget_;
  std::unique_ptr<SpillContext> spill_;
  /// The directory is the per-session default, removed with the session.
  bool owns_dir_ = false;
  // Last-flushed snapshot, so FlushCountersInto emits deltas.
  int64_t flushed_partitions_ = 0;
  int64_t flushed_pages_ = 0;
  int64_t flushed_written_ = 0;
  int64_t flushed_read_ = 0;
  int64_t flushed_faults_ = 0;
  int64_t flushed_retries_ = 0;
};

}  // namespace probkb

#endif  // PROBKB_GROUNDING_SPILL_SESSION_H_
