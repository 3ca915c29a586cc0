#ifndef PROBKB_FAULT_CHECKPOINT_H_
#define PROBKB_FAULT_CHECKPOINT_H_

#include <functional>
#include <string>
#include <vector>

#include "relational/table.h"
#include "util/result.h"

namespace probkb {

/// \brief Durable snapshot of the grounding fixpoint loop at an iteration
/// boundary.
///
/// Serialized as a directory of TSV tables (the table_io interchange
/// format) plus a MANIFEST with the scalar state. The MANIFEST is written
/// last via rename, so a checkpoint directory either holds a complete,
/// loadable snapshot or is ignored — a crash mid-write never corrupts the
/// previous checkpoint.
struct GroundingCheckpoint {
  /// Iterations completed when the snapshot was taken.
  int iteration = 0;
  int64_t next_fact_id = 0;
  /// Semi-naive delta start (TPi row count at the last merge boundary).
  int64_t delta_start = 0;
  TablePtr t_pi;
  /// Entities banned by constraint application, as (e, c) rows on the x
  /// and y side; resuming without these would re-derive deleted facts.
  TablePtr banned_x;
  TablePtr banned_y;

  /// MPP extension: per-segment snapshots of the distributed TPi copies.
  /// 0 segments marks a single-node checkpoint. t0 is the canonical copy;
  /// tx/ty/txy are the kViews replicates (empty under kNoViews). Segment
  /// row order is preserved exactly — it determines join output order and
  /// therefore fact-id assignment, so restoring it verbatim is what makes
  /// a resumed run bit-identical to an uninterrupted one.
  int num_segments = 0;
  std::vector<TablePtr> t0_segments;
  std::vector<TablePtr> tx_segments;
  std::vector<TablePtr> ty_segments;
  std::vector<TablePtr> txy_segments;
  /// MPP semi-naive state: one (t0, tx, ty) row per segment, the row counts
  /// of T0 and the Tx/Ty views (0 under kNoViews) when the last iteration
  /// started. Null when the next iteration must run the full pass, and in
  /// checkpoints written before the marks were kept.
  TablePtr delta_marks;
};

/// \brief Schema of the banned-entity tables: (e, c).
Schema BannedEntitySchema();

/// \brief Schema of the MPP Δ-marks table: (t0, tx, ty).
Schema DeltaMarksSchema();

/// \brief Writes `cp` under `dir` (created if missing), atomically with
/// respect to the MANIFEST.
Status WriteGroundingCheckpoint(const GroundingCheckpoint& cp,
                                const std::string& dir);

/// \brief Loads a checkpoint; `t_pi_schema` validates the facts table.
Result<GroundingCheckpoint> ReadGroundingCheckpoint(
    const Schema& t_pi_schema, const std::string& dir);

/// \brief True if `dir` holds a complete checkpoint (a MANIFEST exists).
bool GroundingCheckpointExists(const std::string& dir);

/// \brief Test hook: observes every fsync the checkpoint writer issues, in
/// issue order, with the path being synced. A crash-durability regression
/// test asserts that every staged table file, the staged MANIFEST, and the
/// checkpoint directory (before and after the MANIFEST rename) are synced.
/// Pass nullptr to uninstall. Not thread-safe; tests only.
void SetCheckpointFsyncObserverForTest(
    std::function<void(const std::string&)> observer);

}  // namespace probkb

#endif  // PROBKB_FAULT_CHECKPOINT_H_
