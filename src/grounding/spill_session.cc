#include "grounding/spill_session.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <utility>

#include "engine/tunables.h"
#include "util/logging.h"

namespace probkb {

SpillSession::SpillSession(int64_t mem_budget_bytes, std::string spill_dir) {
  if (mem_budget_bytes <= 0) return;  // pure in-memory execution
  if (spill_dir.empty()) {
    static std::atomic<int64_t> sessions{0};
    std::error_code ec;
    std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
    if (ec) tmp = ".";
    spill_dir = (tmp / ("probkb_spill." + std::to_string(::getpid()) + "." +
                        std::to_string(sessions.fetch_add(1))))
                    .string();
    owns_dir_ = true;
  }
  // Partition buffers are part of the working set the budget governs: a
  // page buffer larger than a slice of the budget would keep everything
  // resident and never spill. Clamp pages to budget/16 (floor 4 KiB).
  const int64_t page_bytes = std::clamp<int64_t>(
      mem_budget_bytes / 16, 4096, kSpillPageBytes);
  budget_ = std::make_unique<MemoryBudget>(mem_budget_bytes);
  spill_ = std::make_unique<SpillContext>(std::move(spill_dir), budget_.get(),
                                          page_bytes);
  if (Status st = spill_->Prepare(); !st.ok()) {
    PROBKB_SLOG(Spill, Warning)
        << "spill directory unusable, running without a memory budget: "
        << st.ToString();
    spill_.reset();
    budget_.reset();
    return;
  }
  PROBKB_SLOG(Spill, Info)
      << "out-of-core execution armed: budget "
      << FormatByteSize(mem_budget_bytes) << ", spill dir '" << spill_->dir()
      << "', page " << FormatByteSize(page_bytes);
}

SpillSession::~SpillSession() {
  if (spill_ == nullptr) return;
  const std::string dir = spill_->dir();
  spill_.reset();  // removes every file this run committed
  if (owns_dir_) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

void SpillSession::FlushCountersInto(StatsRegistry* registry) {
  if (registry == nullptr || spill_ == nullptr) return;
  SpillStats& s = spill_->stats();
  auto flush = [&](const char* name, std::atomic<int64_t>* counter,
                   int64_t* flushed) {
    const int64_t now = counter->load(std::memory_order_relaxed);
    if (now > *flushed) {
      registry->IncrementCounter(name, now - *flushed);
      *flushed = now;
    }
  };
  flush("spill_partitions", &s.partitions_spilled, &flushed_partitions_);
  flush("spill_pages_written", &s.pages_written, &flushed_pages_);
  flush("spill_bytes_written", &s.bytes_written, &flushed_written_);
  flush("spill_bytes_read", &s.bytes_read, &flushed_read_);
  flush("page_faults_served", &s.page_faults_served, &flushed_faults_);
  flush("spill_checksum_retries", &s.checksum_retries, &flushed_retries_);
}

}  // namespace probkb
