#include "relational/spill.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "relational/table_io.h"
#include "util/logging.h"

namespace probkb {

namespace {

constexpr uint32_t kPageMagic = 0x53504C50;  // "SPLP"
// A page is one buffered partition flush (~spill_page_bytes); anything
// near this cap is a torn or foreign file, not a real page.
constexpr uint64_t kMaxPageBytes = uint64_t{1} << 31;

/// On-disk page header; the payload that follows is the columnar encoding
/// (EncodeTableColumnar) of one partition slice.
struct PageHeader {
  uint32_t magic = kPageMagic;
  uint32_t reserved = 0;
  uint64_t payload_len = 0;
  uint64_t checksum = 0;
  int64_t rows = 0;
};

bool HasSuffix(const std::string& s, const char* suffix) {
  size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// fsync of the containing directory so a committed rename survives a
/// crash; best-effort (some filesystems reject directory fsync).
void SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

SpillContext::SpillContext(std::string dir, MemoryBudget* budget,
                           int64_t page_bytes)
    : dir_(std::move(dir)), budget_(budget), page_bytes_(page_bytes) {
  PROBKB_CHECK(page_bytes_ > 0);
}

SpillContext::~SpillContext() { RemoveOwnedFiles(); }

Status SpillContext::Prepare() {
  if (prepared_.exchange(true, std::memory_order_acq_rel)) {
    return Status::OK();
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("cannot create spill directory '" + dir_ +
                           "': " + ec.message());
  }
  auto swept = SweepSpillDirectory(dir_);
  if (!swept.ok()) return swept.status();
  if (*swept > 0) {
    PROBKB_SLOG(Spill, Warning)
        << "swept " << *swept << " orphaned spill file(s) from '" << dir_
        << "' (predecessor crashed mid-spill)";
  }
  return Status::OK();
}

std::string SpillContext::NextFilePath(const std::string& label) {
  int64_t seq = file_seq_.fetch_add(1, std::memory_order_relaxed);
  return dir_ + "/" + label + "." + std::to_string(seq) + ".spill";
}

void SpillContext::TrackFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  owned_files_.push_back(path);
}

void SpillContext::RemoveOwnedFiles() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& path : owned_files_) {
    std::remove(path.c_str());
  }
  owned_files_.clear();
}

bool SpillContext::TakeCorruptReadToken() {
  int64_t n = corrupt_reads_.load(std::memory_order_relaxed);
  while (n > 0) {
    if (corrupt_reads_.compare_exchange_weak(n, n - 1,
                                             std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

Result<int> SweepSpillDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return 0;  // no directory yet: nothing to sweep
  int removed = 0;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    if (!HasSuffix(name, ".spill") && !HasSuffix(name, ".spill.staging")) {
      continue;
    }
    std::error_code rm_ec;
    if (std::filesystem::remove(entry.path(), rm_ec) && !rm_ec) ++removed;
  }
  return removed;
}

SpillFile::SpillFile(SpillContext* ctx, std::string path, std::FILE* file)
    : ctx_(ctx), path_(std::move(path)), file_(file) {}

Result<std::unique_ptr<SpillFile>> SpillFile::Create(SpillContext* ctx,
                                                     const std::string& path) {
  std::string staging = path + ".staging";
  std::FILE* f = std::fopen(staging.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot create spill staging file '" + staging +
                           "': " + std::strerror(errno));
  }
  return std::unique_ptr<SpillFile>(new SpillFile(ctx, path, f));
}

SpillFile::~SpillFile() {
  if (file_ != nullptr) {
    // Error-path abandonment: close and delete the staging file so a
    // failed run leaves no debris (a *crashed* run leaves the staging
    // file for SweepSpillDirectory; see SimulateCrashForTest).
    std::fclose(file_);
    std::remove((path_ + ".staging").c_str());
    file_ = nullptr;
  }
}

Status SpillFile::AppendPage(const Table& page) {
  PROBKB_CHECK(file_ != nullptr && !committed_);
  encode_buf_.clear();
  EncodeTableColumnar(page, &encode_buf_);
  PageHeader header;
  header.payload_len = encode_buf_.size();
  header.checksum = ColumnarChecksum(encode_buf_.data(), encode_buf_.size());
  header.rows = page.NumRows();
  if (std::fwrite(&header, sizeof(header), 1, file_) != 1 ||
      (!encode_buf_.empty() &&
       std::fwrite(encode_buf_.data(), encode_buf_.size(), 1, file_) != 1)) {
    return Status::IOError("spill page write failed on '" + path_ +
                           ".staging' (disk full?)");
  }
  ++pages_;
  rows_ += page.NumRows();
  int64_t wrote = static_cast<int64_t>(sizeof(header) + encode_buf_.size());
  bytes_written_ += wrote;
  ctx_->stats().pages_written.fetch_add(1, std::memory_order_relaxed);
  ctx_->stats().bytes_written.fetch_add(wrote, std::memory_order_relaxed);
  return Status::OK();
}

Status SpillFile::Commit() {
  PROBKB_CHECK(file_ != nullptr && !committed_);
  std::string staging = path_ + ".staging";
  bool flushed = std::fflush(file_) == 0 && ::fsync(::fileno(file_)) == 0;
  std::fclose(file_);
  file_ = nullptr;
  if (!flushed) {
    std::remove(staging.c_str());
    return Status::IOError("spill flush failed on '" + staging + "'");
  }
  if (std::rename(staging.c_str(), path_.c_str()) != 0) {
    std::remove(staging.c_str());
    return Status::IOError("spill commit rename failed for '" + path_ +
                           "': " + std::strerror(errno));
  }
  SyncDirectory(std::filesystem::path(path_).parent_path().string());
  committed_ = true;
  ctx_->TrackFile(path_);
  return Status::OK();
}

void SpillFile::SimulateCrashForTest() {
  PROBKB_CHECK(file_ != nullptr && !committed_);
  // Flush so the staging bytes are fully on disk — the worst case for a
  // sweep bug, since the file *looks* complete but was never committed.
  std::fflush(file_);
  std::fclose(file_);
  file_ = nullptr;  // dtor skips removal: the debris must survive
}

Result<TablePtr> ReadSpillFile(SpillContext* ctx, const Schema& schema,
                               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open spill file '" + path +
                           "': " + std::strerror(errno));
  }
  TablePtr out = Table::Make(schema);
  std::string payload;
  int64_t bytes_read = 0;
  Status status = Status::OK();
  for (;;) {
    PageHeader header;
    size_t got = std::fread(&header, 1, sizeof(header), f);
    if (got == 0) break;  // clean EOF between pages
    if (got != sizeof(header) || header.magic != kPageMagic ||
        header.payload_len > kMaxPageBytes) {
      status = Status::DataLoss("spill page header corrupt in '" + path + "'");
      break;
    }
    long payload_at = std::ftell(f);
    payload.resize(header.payload_len);
    bool page_ok = false;
    // One retry on checksum mismatch: a transient bad read (or an
    // injected corrupt-read token) heals on the second attempt; real
    // on-disk damage does not and surfaces as kDataLoss.
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (attempt > 0) {
        if (std::fseek(f, payload_at, SEEK_SET) != 0) break;
        ctx->stats().checksum_retries.fetch_add(1, std::memory_order_relaxed);
      }
      if (!payload.empty() &&
          std::fread(payload.data(), payload.size(), 1, f) != 1) {
        break;
      }
      if (ctx->TakeCorruptReadToken() && !payload.empty()) {
        payload[payload.size() / 2] =
            static_cast<char>(payload[payload.size() / 2] ^ 0x40);
      }
      if (ColumnarChecksum(payload.data(), payload.size()) ==
          header.checksum) {
        page_ok = true;
        break;
      }
    }
    if (!page_ok) {
      status = Status::DataLoss("spill page checksum mismatch in '" + path +
                                "' (page " + std::to_string(out->NumRows()) +
                                " rows in)");
      break;
    }
    auto page = DecodeTableColumnar(schema, payload);
    if (!page.ok()) {
      status = page.status();
      break;
    }
    if ((*page)->NumRows() != header.rows) {
      status = Status::DataLoss("spill page row count mismatch in '" + path +
                                "'");
      break;
    }
    out->AppendTable(**page);
    bytes_read += static_cast<int64_t>(sizeof(header) + header.payload_len);
  }
  std::fclose(f);
  if (!status.ok()) return status;
  ctx->stats().page_faults_served.fetch_add(1, std::memory_order_relaxed);
  ctx->stats().bytes_read.fetch_add(bytes_read, std::memory_order_relaxed);
  return out;
}

SpillableTable::SpillableTable(SpillContext* ctx, Schema schema, int num_parts,
                               int bit_offset, std::string label,
                               bool with_row_ids)
    : ctx_(ctx),
      router_(num_parts, bit_offset),
      label_(std::move(label)),
      with_row_ids_(with_row_ids) {
  if (with_row_ids_) {
    std::vector<Field> fields = schema.fields();
    fields.push_back(Field{"__orig", ColumnType::kInt64});
    part_schema_ = Schema(std::move(fields));
  } else {
    part_schema_ = std::move(schema);
  }
  parts_.resize(static_cast<size_t>(num_parts));
  for (Partition& part : parts_) part.buffer = Table::Make(part_schema_);
  scatter_.resize(static_cast<size_t>(num_parts));
}

SpillableTable::~SpillableTable() {
  ChargeDelta(-buffered_charge_);
  buffered_charge_ = 0;
  for (size_t p = 0; p < parts_.size(); ++p) {
    UnpinPartition(static_cast<int>(p));
  }
  // Spill files are tracked by (and removed with) the SpillContext.
}

void SpillableTable::ChargeDelta(int64_t bytes) {
  MemoryBudget* budget = ctx_->budget();
  if (budget == nullptr || bytes == 0) return;
  if (bytes > 0) {
    budget->Charge(bytes);
  } else {
    budget->Release(-bytes);
  }
}

Status SpillableTable::AppendPartitioned(const Table& src,
                                         std::span<const size_t> hashes,
                                         int64_t begin, int64_t end) {
  PROBKB_CHECK(end - begin == static_cast<int64_t>(hashes.size()));
  for (auto& rows : scatter_) rows.clear();
  for (int64_t i = begin; i < end; ++i) {
    size_t p = router_.PartOf(hashes[static_cast<size_t>(i - begin)]);
    scatter_[p].push_back(i);
  }
  int64_t buffered_now = 0;
  for (size_t p = 0; p < parts_.size(); ++p) {
    Partition& part = parts_[p];
    const std::vector<int64_t>& rows = scatter_[p];
    if (!rows.empty()) {
      if (with_row_ids_) {
        part.buffer->AppendGatheredRowsWithIds(src, rows);
      } else {
        part.buffer->AppendGatheredRows(src, rows);
      }
      part.rows += static_cast<int64_t>(rows.size());
      total_rows_ += static_cast<int64_t>(rows.size());
      if (part.buffer->ByteSize() >= ctx_->page_bytes()) {
        PROBKB_RETURN_NOT_OK(FlushPartition(&part));
      }
    }
    buffered_now += part.buffer->ByteSize();
  }
  ChargeDelta(buffered_now - buffered_charge_);
  buffered_charge_ = buffered_now;
  return Status::OK();
}

Status SpillableTable::FlushPartition(Partition* part) {
  if (part->buffer->NumRows() == 0) return Status::OK();
  if (part->file == nullptr) {
    PROBKB_RETURN_NOT_OK(ctx_->Prepare());
    auto file = SpillFile::Create(ctx_, ctx_->NextFilePath(label_));
    if (!file.ok()) return file.status();
    part->file = std::move(*file);
    ctx_->stats().partitions_spilled.fetch_add(1, std::memory_order_relaxed);
  }
  PROBKB_RETURN_NOT_OK(part->file->AppendPage(*part->buffer));
  part->buffer = Table::Make(part_schema_);
  return Status::OK();
}

Status SpillableTable::Finish() {
  int64_t buffered_now = 0;
  for (Partition& part : parts_) {
    if (part.file != nullptr) {
      // Flush the tail so a spilled partition lives entirely on disk and
      // PinPartition is a pure page-in.
      PROBKB_RETURN_NOT_OK(FlushPartition(&part));
      PROBKB_RETURN_NOT_OK(part.file->Commit());
      part.committed_path = part.file->path();
      part.file.reset();  // frees the page encode buffer
    }
    buffered_now += part.buffer->ByteSize();
  }
  ChargeDelta(buffered_now - buffered_charge_);
  buffered_charge_ = buffered_now;
  return Status::OK();
}

int64_t SpillableTable::PartitionRows(int p) const {
  return parts_[static_cast<size_t>(p)].rows;
}

bool SpillableTable::IsSpilled(int p) const {
  const Partition& part = parts_[static_cast<size_t>(p)];
  return part.file != nullptr || !part.committed_path.empty();
}

Result<TablePtr> SpillableTable::PinPartition(int p) {
  Partition& part = parts_[static_cast<size_t>(p)];
  if (part.pinned != nullptr) return part.pinned;
  if (part.committed_path.empty()) {
    PROBKB_CHECK(part.file == nullptr);  // Finish() must run first
    return part.buffer;  // resident: already charged as buffer bytes
  }
  auto paged = ReadSpillFile(ctx_, part_schema_, part.committed_path);
  if (!paged.ok()) return paged.status();
  if ((*paged)->NumRows() != part.rows) {
    return Status::DataLoss("spilled partition '" + part.committed_path +
                            "' paged in " +
                            std::to_string((*paged)->NumRows()) +
                            " rows, expected " + std::to_string(part.rows));
  }
  part.pinned = std::move(*paged);
  part.pinned_charge = part.pinned->ByteSize();
  ChargeDelta(part.pinned_charge);
  return part.pinned;
}

void SpillableTable::UnpinPartition(int p) {
  Partition& part = parts_[static_cast<size_t>(p)];
  if (part.pinned == nullptr) return;
  ChargeDelta(-part.pinned_charge);
  part.pinned.reset();
  part.pinned_charge = 0;
}

int64_t SpillableTable::ResidentByteSize() const {
  int64_t bytes = 0;
  for (const Partition& part : parts_) {
    bytes += part.buffer->ByteSize();
    if (part.pinned != nullptr) bytes += part.pinned->ByteSize();
  }
  return bytes;
}

}  // namespace probkb
