#include "fault/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>

#include "obs/trace.h"
#include "relational/table_io.h"
#include "util/logging.h"
#include "util/strings.h"

namespace probkb {

namespace {

constexpr const char kManifestName[] = "MANIFEST";
constexpr const char kStagingName[] = ".staging";
constexpr const char kFormatLine[] = "probkb-grounding-checkpoint 1";
constexpr const char kDeltaMarksName[] = "delta_marks.tsv";

std::function<void(const std::string&)>& FsyncObserver() {
  static std::function<void(const std::string&)> observer;
  return observer;
}

/// Flushes `path` (a file or a directory) to stable storage. Without this,
/// a power loss after the MANIFEST rename could surface a manifest that
/// certifies torn table files: rename() orders metadata, not data.
Status FsyncPath(const std::string& path, bool is_dir) {
  int fd = open(path.c_str(), is_dir ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for fsync: " + std::strerror(errno));
  }
  if (fsync(fd) != 0) {
    const int err = errno;
    close(fd);
    return Status::IOError("fsync of '" + path +
                           "' failed: " + std::strerror(err));
  }
  close(fd);
  if (FsyncObserver()) FsyncObserver()(path);
  return Status::OK();
}

std::string PathJoin(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / name).string();
}

/// One table file written into the staging directory: its final name and
/// its row count, recorded in the MANIFEST for read-time validation.
struct StagedTable {
  std::string name;
  int64_t rows = 0;
};

Status StageTable(const Table& table, const std::string& staging,
                  std::string name, std::vector<StagedTable>* staged) {
  PROBKB_RETURN_NOT_OK(WriteTableTsvFile(table, PathJoin(staging, name)));
  staged->push_back({std::move(name), table.NumRows()});
  return Status::OK();
}

Status StageSegmentGroup(const std::string& staging, const char* prefix,
                         const std::vector<TablePtr>& segments,
                         std::vector<StagedTable>* staged) {
  for (size_t s = 0; s < segments.size(); ++s) {
    if (segments[s] == nullptr) {
      return Status::InvalidArgument(
          StrFormat("checkpoint segment group '%s' has a null table",
                    prefix));
    }
    PROBKB_RETURN_NOT_OK(StageTable(
        *segments[s], staging, StrFormat("%s.seg%zu.tsv", prefix, s),
        staged));
  }
  return Status::OK();
}

Result<TablePtr> ReadCheckpointTable(
    const Schema& schema, const std::string& dir, const std::string& name,
    const std::map<std::string, int64_t>& manifest_rows) {
  PROBKB_ASSIGN_OR_RETURN(TablePtr table,
                          ReadTableTsvFile(schema, PathJoin(dir, name)));
  auto it = manifest_rows.find(name);
  if (it != manifest_rows.end() && it->second != table->NumRows()) {
    return Status::ParseError(StrFormat(
        "checkpoint table '%s' has %lld rows but the manifest records %lld",
        name.c_str(), static_cast<long long>(table->NumRows()),
        static_cast<long long>(it->second)));
  }
  return table;
}

Result<std::vector<TablePtr>> ReadSegmentGroup(
    const Schema& schema, const std::string& dir, const char* prefix, int n,
    const std::map<std::string, int64_t>& manifest_rows) {
  std::vector<TablePtr> segments;
  segments.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    PROBKB_ASSIGN_OR_RETURN(
        TablePtr seg,
        ReadCheckpointTable(schema, dir,
                            StrFormat("%s.seg%d.tsv", prefix, s),
                            manifest_rows));
    segments.push_back(std::move(seg));
  }
  return segments;
}

/// A resumed MPP grounder takes each segment's Δ from the rows past its
/// marks, so every mark must lie within its segment.
Status ValidateDeltaMarks(const GroundingCheckpoint& cp) {
  const Table& marks = *cp.delta_marks;
  if (marks.NumRows() != cp.num_segments) {
    return Status::ParseError(StrFormat(
        "checkpoint delta marks have %lld rows for %d segments",
        static_cast<long long>(marks.NumRows()), cp.num_segments));
  }
  const std::vector<TablePtr>* groups[] = {&cp.t0_segments, &cp.tx_segments,
                                           &cp.ty_segments};
  for (int64_t s = 0; s < marks.NumRows(); ++s) {
    for (int c = 0; c < marks.width(); ++c) {
      const std::vector<TablePtr>& group = *groups[c];
      const int64_t rows =
          group.empty() ? 0 : group[static_cast<size_t>(s)]->NumRows();
      const Value mark = marks.ValueAt(s, c);
      if (!mark.is_int64() || mark.i64() < 0 || mark.i64() > rows) {
        return Status::ParseError(StrFormat(
            "checkpoint delta mark %s of segment %lld is outside its %lld "
            "rows",
            marks.schema().field(c).name.c_str(), static_cast<long long>(s),
            static_cast<long long>(rows)));
      }
    }
  }
  return Status::OK();
}

}  // namespace

void SetCheckpointFsyncObserverForTest(
    std::function<void(const std::string&)> observer) {
  FsyncObserver() = std::move(observer);
}

Schema BannedEntitySchema() {
  return Schema({{"e", ColumnType::kInt64}, {"c", ColumnType::kInt64}});
}

Schema DeltaMarksSchema() {
  return Schema({{"t0", ColumnType::kInt64},
                 {"tx", ColumnType::kInt64},
                 {"ty", ColumnType::kInt64}});
}

bool GroundingCheckpointExists(const std::string& dir) {
  std::error_code ec;
  return std::filesystem::is_regular_file(PathJoin(dir, kManifestName), ec);
}

Status WriteGroundingCheckpoint(const GroundingCheckpoint& cp,
                                const std::string& dir) {
  if (cp.t_pi == nullptr) {
    return Status::InvalidArgument("checkpoint has no t_pi table");
  }
  const bool has_views = !cp.tx_segments.empty();
  if (cp.num_segments > 0) {
    if (static_cast<int>(cp.t0_segments.size()) != cp.num_segments) {
      return Status::InvalidArgument(
          "checkpoint t0 segment count does not match num_segments");
    }
    if (has_views &&
        (static_cast<int>(cp.tx_segments.size()) != cp.num_segments ||
         static_cast<int>(cp.ty_segments.size()) != cp.num_segments ||
         static_cast<int>(cp.txy_segments.size()) != cp.num_segments)) {
      return Status::InvalidArgument(
          "checkpoint view segment counts do not match num_segments");
    }
    if (cp.delta_marks != nullptr &&
        cp.delta_marks->NumRows() != cp.num_segments) {
      return Status::InvalidArgument(
          "checkpoint delta marks do not match num_segments");
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint dir '" + dir +
                           "': " + ec.message());
  }

  // Stage the complete snapshot in a scratch subdirectory first; the live
  // directory is only touched by the commit below. The commit removes the
  // previous MANIFEST before the first table file is replaced and renames
  // the new MANIFEST into place last, so at every crash point the
  // directory holds the old complete checkpoint, no checkpoint at all, or
  // the new complete one — an existing MANIFEST always certifies a
  // consistent snapshot, even when the same dir is rewritten every
  // iteration.
  const std::string staging = PathJoin(dir, kStagingName);
  std::filesystem::remove_all(staging, ec);  // debris of a crashed write
  std::filesystem::create_directories(staging, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint staging dir '" +
                           staging + "': " + ec.message());
  }

  std::vector<StagedTable> staged;
  PROBKB_RETURN_NOT_OK(StageTable(*cp.t_pi, staging, "t_pi.tsv", &staged));
  const Table empty_banned(BannedEntitySchema());
  PROBKB_RETURN_NOT_OK(StageTable(cp.banned_x ? *cp.banned_x : empty_banned,
                                  staging, "banned_x.tsv", &staged));
  PROBKB_RETURN_NOT_OK(StageTable(cp.banned_y ? *cp.banned_y : empty_banned,
                                  staging, "banned_y.tsv", &staged));
  if (cp.num_segments > 0) {
    PROBKB_RETURN_NOT_OK(
        StageSegmentGroup(staging, "t0", cp.t0_segments, &staged));
    if (has_views) {
      PROBKB_RETURN_NOT_OK(
          StageSegmentGroup(staging, "tx", cp.tx_segments, &staged));
      PROBKB_RETURN_NOT_OK(
          StageSegmentGroup(staging, "ty", cp.ty_segments, &staged));
      PROBKB_RETURN_NOT_OK(
          StageSegmentGroup(staging, "txy", cp.txy_segments, &staged));
    }
    if (cp.delta_marks != nullptr) {
      PROBKB_RETURN_NOT_OK(
          StageTable(*cp.delta_marks, staging, kDeltaMarksName, &staged));
    }
  }

  {
    const std::string manifest = PathJoin(staging, kManifestName);
    std::ofstream out(manifest);
    if (!out) {
      return Status::IOError("cannot open '" + manifest + "' for write");
    }
    out << kFormatLine << "\n"
        << "iteration " << cp.iteration << "\n"
        << "next_fact_id " << cp.next_fact_id << "\n"
        << "delta_start " << cp.delta_start << "\n"
        << "num_segments " << cp.num_segments << "\n"
        << "has_views " << (has_views ? 1 : 0) << "\n";
    for (const StagedTable& t : staged) {
      out << "rows " << t.name << " " << t.rows << "\n";
    }
    if (!out.good()) return Status::IOError("manifest write failed");
  }

  // Make the staged bytes durable before any rename publishes them: every
  // staged table file and the staged MANIFEST are fsynced, so the commit
  // below only moves data that has already reached stable storage.
  for (const StagedTable& t : staged) {
    PROBKB_RETURN_NOT_OK(FsyncPath(PathJoin(staging, t.name), false));
  }
  PROBKB_RETURN_NOT_OK(FsyncPath(PathJoin(staging, kManifestName), false));

  // Commit: retire the old checkpoint, move tables into place, MANIFEST
  // last. The directory itself is fsynced before the MANIFEST rename (the
  // table renames must be durable before a manifest can certify them) and
  // after it (the certification itself must survive power loss).
  std::filesystem::remove(PathJoin(dir, kManifestName), ec);
  if (ec) {
    return Status::IOError("cannot retire previous checkpoint manifest: " +
                           ec.message());
  }
  for (const StagedTable& t : staged) {
    std::filesystem::rename(PathJoin(staging, t.name), PathJoin(dir, t.name),
                            ec);
    if (ec) {
      return Status::IOError("cannot commit checkpoint table '" + t.name +
                             "': " + ec.message());
    }
  }
  PROBKB_RETURN_NOT_OK(FsyncPath(dir, true));
  std::filesystem::rename(PathJoin(staging, kManifestName),
                          PathJoin(dir, kManifestName), ec);
  if (ec) {
    return Status::IOError("cannot finalize checkpoint manifest: " +
                           ec.message());
  }
  PROBKB_RETURN_NOT_OK(FsyncPath(dir, true));
  std::filesystem::remove_all(staging, ec);
  // Deliberately no directory path in the payload: dump bytes must not
  // depend on where the checkpoint lives (paths differ per run/thread).
  Tracer::Global()->Event(EventKind::kCheckpointCommit, "grounding",
                          cp.iteration, static_cast<int64_t>(staged.size()),
                          staged.empty() ? 0 : staged.front().rows);
  return Status::OK();
}

Result<GroundingCheckpoint> ReadGroundingCheckpoint(
    const Schema& t_pi_schema, const std::string& dir) {
  if (!GroundingCheckpointExists(dir)) {
    return Status::NotFound("no checkpoint manifest under '" + dir + "'");
  }
  // A crash between staging and commit leaves `.staging` behind; the next
  // *write* would clear it, but a resume-only run never writes, so the
  // debris would otherwise survive forever. The MANIFEST protocol makes
  // removal safe: whatever is in staging was never certified.
  {
    const std::string staging = PathJoin(dir, kStagingName);
    std::error_code ec;
    if (std::filesystem::exists(staging, ec)) {
      PROBKB_LOG(Warning) << "removing orphaned checkpoint staging dir '"
                          << staging << "' left by an interrupted write";
      std::filesystem::remove_all(staging, ec);
      if (ec) {
        return Status::IOError("cannot remove orphaned staging dir '" +
                               staging + "': " + ec.message());
      }
    }
  }
  std::ifstream in(PathJoin(dir, kManifestName));
  if (!in) return Status::IOError("cannot open checkpoint manifest");
  std::string line;
  if (!std::getline(in, line) || line != kFormatLine) {
    return Status::ParseError("unrecognized checkpoint format: '" + line +
                              "'");
  }
  GroundingCheckpoint cp;
  int64_t iteration = 0;
  int64_t has_views = 0;
  bool have_iteration = false, have_next_id = false;
  std::map<std::string, int64_t> manifest_rows;
  while (std::getline(in, line)) {
    auto tokens = Split(StripWhitespace(line), ' ');
    if (tokens.size() == 3 && tokens[0] == "rows") {
      int64_t rows = 0;
      if (!ParseInt64(tokens[2], &rows)) {
        return Status::ParseError("bad checkpoint manifest value in '" +
                                  line + "'");
      }
      manifest_rows[std::string(tokens[1])] = rows;
      continue;
    }
    if (tokens.size() != 2) continue;
    int64_t v = 0;
    if (!ParseInt64(tokens[1], &v)) {
      return Status::ParseError("bad checkpoint manifest value in '" + line +
                                "'");
    }
    if (tokens[0] == "iteration") {
      iteration = v;
      have_iteration = true;
    } else if (tokens[0] == "next_fact_id") {
      cp.next_fact_id = v;
      have_next_id = true;
    } else if (tokens[0] == "delta_start") {
      cp.delta_start = v;
    } else if (tokens[0] == "num_segments") {
      cp.num_segments = static_cast<int>(v);
    } else if (tokens[0] == "has_views") {
      has_views = v;
    }
  }
  if (!have_iteration || !have_next_id) {
    return Status::ParseError("checkpoint manifest is missing fields");
  }
  if (iteration < 0 || iteration > std::numeric_limits<int>::max()) {
    return Status::ParseError(
        StrFormat("checkpoint iteration %lld is out of range",
                  static_cast<long long>(iteration)));
  }
  cp.iteration = static_cast<int>(iteration);
  PROBKB_ASSIGN_OR_RETURN(
      cp.t_pi,
      ReadCheckpointTable(t_pi_schema, dir, "t_pi.tsv", manifest_rows));
  // A resumed grounder takes the delta from TPi's rows past delta_start
  // and assigns ids from next_fact_id, so both must fit the table.
  if (cp.delta_start < 0 || cp.delta_start > cp.t_pi->NumRows()) {
    return Status::ParseError(StrFormat(
        "checkpoint delta_start %lld is outside TPi's %lld rows",
        static_cast<long long>(cp.delta_start),
        static_cast<long long>(cp.t_pi->NumRows())));
  }
  int64_t max_id = -1;
  const int id_col = t_pi_schema.GetFieldIndex("I");
  for (int64_t r = 0; id_col >= 0 && r < cp.t_pi->NumRows(); ++r) {
    const Value id = cp.t_pi->ValueAt(r, id_col);
    if (id.is_int64()) max_id = std::max(max_id, id.i64());
  }
  if (cp.next_fact_id <= max_id) {
    return Status::ParseError(StrFormat(
        "checkpoint next_fact_id %lld does not exceed TPi's largest id %lld",
        static_cast<long long>(cp.next_fact_id),
        static_cast<long long>(max_id)));
  }
  PROBKB_ASSIGN_OR_RETURN(
      cp.banned_x, ReadCheckpointTable(BannedEntitySchema(), dir,
                                       "banned_x.tsv", manifest_rows));
  PROBKB_ASSIGN_OR_RETURN(
      cp.banned_y, ReadCheckpointTable(BannedEntitySchema(), dir,
                                       "banned_y.tsv", manifest_rows));
  if (cp.num_segments > 0) {
    PROBKB_ASSIGN_OR_RETURN(
        cp.t0_segments, ReadSegmentGroup(t_pi_schema, dir, "t0",
                                         cp.num_segments, manifest_rows));
    if (has_views != 0) {
      PROBKB_ASSIGN_OR_RETURN(
          cp.tx_segments, ReadSegmentGroup(t_pi_schema, dir, "tx",
                                           cp.num_segments, manifest_rows));
      PROBKB_ASSIGN_OR_RETURN(
          cp.ty_segments, ReadSegmentGroup(t_pi_schema, dir, "ty",
                                           cp.num_segments, manifest_rows));
      PROBKB_ASSIGN_OR_RETURN(
          cp.txy_segments, ReadSegmentGroup(t_pi_schema, dir, "txy",
                                            cp.num_segments, manifest_rows));
    }
    if (manifest_rows.contains(kDeltaMarksName)) {
      PROBKB_ASSIGN_OR_RETURN(
          cp.delta_marks, ReadCheckpointTable(DeltaMarksSchema(), dir,
                                              kDeltaMarksName, manifest_rows));
      PROBKB_RETURN_NOT_OK(ValidateDeltaMarks(cp));
    }
  }
  return cp;
}

}  // namespace probkb
