#include "grounding/partition_queries.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

#include "engine/ops.h"
#include "engine/tunables.h"
#include "grounding/tpi_indexes.h"
#include "util/strings.h"

namespace probkb {

namespace {

// Intermediate J1 schema of the length-3 queries:
// (R1, R3, C1, C2, C3, w, xv, z, I2).
namespace j1 {
constexpr int kR1 = 0;
constexpr int kR3 = 1;
constexpr int kC1 = 2;
constexpr int kC2 = 3;
constexpr int kC3 = 4;
constexpr int kW = 5;
constexpr int kXv = 6;
constexpr int kZ = 7;
constexpr int kI2 = 8;
constexpr int kRule = 9;  // Δ-driven plans only
}  // namespace j1

// Intermediate J2 of the Δ-driven (old, Δ) pass: a Δ atom matched as body
// 2, (R1, R2, C1, C2, C3, yv, z, I3, rule).
namespace j2 {
constexpr int kR1 = 0;
constexpr int kR2 = 1;
constexpr int kC1 = 2;
constexpr int kC2 = 3;
constexpr int kC3 = 4;
constexpr int kYv = 5;
constexpr int kZ = 6;
constexpr int kI3 = 7;
constexpr int kRule = 8;
}  // namespace j2

// Factor-candidate schema before the head join:
// (R1, C1, C2, w, xv, yv, I2[, I3]).
namespace fc {
constexpr int kR1 = 0;
constexpr int kC1 = 1;
constexpr int kC2 = 2;
constexpr int kW = 3;
constexpr int kXv = 4;
constexpr int kYv = 5;
constexpr int kI2 = 6;
constexpr int kI3 = 7;
}  // namespace fc

std::array<PartitionSpec, 6> BuildSpecs() {
  std::array<PartitionSpec, 6> specs;
  // The TPi-side key order is always that of the corresponding view so the
  // MPP executor sees collocated scans (Example 5 in the paper).
  const std::vector<int> t0 = {tpi::kR, tpi::kC1, tpi::kC2};
  const std::vector<int> tx = {tpi::kR, tpi::kC1, tpi::kX, tpi::kC2};
  const std::vector<int> ty = {tpi::kR, tpi::kC1, tpi::kC2, tpi::kY};

  // M1: p(x,y) <- q(x,y). Pairings (M.R2,T.R), (M.C1,T.C1), (M.C2,T.C2).
  specs[0] = {1, 1, false, false,
              {mlen2::kR2, mlen2::kC1, mlen2::kC2}, t0, {}, {}, {}, {}, {}};
  // M2: p(x,y) <- q(y,x): x lives in T.y, so M.C1 pairs with T.C2.
  specs[1] = {2, 1, true, false,
              {mlen2::kR2, mlen2::kC2, mlen2::kC1}, t0, {}, {}, {}, {}, {}};
  // M3: q(z,x), r(z,y). Body 2 r(z,y) is keyed (R3, C3, C2) on T0; body 1
  // q(z,x) is found by z in Tx as (R2, C3, z, C1).
  specs[2] = {3, 2, false, false,
              {mlen3::kR2, mlen3::kC3, mlen3::kC1}, t0,
              {j1::kR3, j1::kC3, j1::kZ, j1::kC2}, tx,
              {mlen3::kR3, mlen3::kC3, mlen3::kC2},
              {j2::kR2, j2::kC3, j2::kZ, j2::kC1}, tx};
  // M4: q(x,z), r(z,y). Body 1 q(x,z) is found by z in Ty as
  // (R2, C1, C3, z).
  specs[3] = {4, 2, true, false,
              {mlen3::kR2, mlen3::kC1, mlen3::kC3}, t0,
              {j1::kR3, j1::kC3, j1::kZ, j1::kC2}, tx,
              {mlen3::kR3, mlen3::kC3, mlen3::kC2},
              {j2::kR2, j2::kC1, j2::kC3, j2::kZ}, ty};
  // M5: q(z,x), r(y,z). Body 2 r(y,z) is keyed (R3, C2, C3) on T0.
  specs[4] = {5, 2, false, true,
              {mlen3::kR2, mlen3::kC3, mlen3::kC1}, t0,
              {j1::kR3, j1::kC2, j1::kC3, j1::kZ}, ty,
              {mlen3::kR3, mlen3::kC2, mlen3::kC3},
              {j2::kR2, j2::kC3, j2::kZ, j2::kC1}, tx};
  // M6: q(x,z), r(y,z).
  specs[5] = {6, 2, true, true,
              {mlen3::kR2, mlen3::kC1, mlen3::kC3}, t0,
              {j1::kR3, j1::kC2, j1::kC3, j1::kZ}, ty,
              {mlen3::kR3, mlen3::kC2, mlen3::kC3},
              {j2::kR2, j2::kC1, j2::kC3, j2::kZ}, ty};
  return specs;
}

const std::array<PartitionSpec, 6>& Specs() {
  static const std::array<PartitionSpec, 6> specs = BuildSpecs();
  return specs;
}

}  // namespace

Schema AtomSchema() {
  return Schema({{"R", ColumnType::kInt64},
                 {"x", ColumnType::kInt64},
                 {"C1", ColumnType::kInt64},
                 {"y", ColumnType::kInt64},
                 {"C2", ColumnType::kInt64}});
}

const PartitionSpec& GetPartitionSpec(int p) {
  PROBKB_CHECK(p >= 1 && p <= 6);
  return Specs()[static_cast<size_t>(p - 1)];
}

const std::vector<int>& ViewKeysT0() {
  static const std::vector<int> keys = {tpi::kR, tpi::kC1, tpi::kC2};
  return keys;
}
const std::vector<int>& ViewKeysTx() {
  static const std::vector<int> keys = {tpi::kR, tpi::kC1, tpi::kX, tpi::kC2};
  return keys;
}
const std::vector<int>& ViewKeysTy() {
  static const std::vector<int> keys = {tpi::kR, tpi::kC1, tpi::kC2, tpi::kY};
  return keys;
}
const std::vector<int>& ViewKeysTxy() {
  static const std::vector<int> keys = {tpi::kR, tpi::kC1, tpi::kX, tpi::kC2,
                                        tpi::kY};
  return keys;
}

const std::vector<int>& HeadJoinLeftKeys() {
  static const std::vector<int> keys = {fc::kR1, fc::kC1, fc::kXv, fc::kC2,
                                        fc::kYv};
  return keys;
}

std::vector<JoinOutputCol> J1OutputCols(const PartitionSpec& spec) {
  // Where q's z and x arguments live in the probed fact depends on whether
  // the body atom is q(z,x) or q(x,z).
  const int z_col = spec.q_swapped ? tpi::kY : tpi::kX;
  const int xv_col = spec.q_swapped ? tpi::kX : tpi::kY;
  return {
      JoinOutputCol::Left(mlen3::kR1, "R1"),
      JoinOutputCol::Left(mlen3::kR3, "R3"),
      JoinOutputCol::Left(mlen3::kC1, "C1"),
      JoinOutputCol::Left(mlen3::kC2, "C2"),
      JoinOutputCol::Left(mlen3::kC3, "C3"),
      JoinOutputCol::Left(mlen3::kW, "w", ColumnType::kFloat64),
      JoinOutputCol::Right(xv_col, "xv"),
      JoinOutputCol::Right(z_col, "z"),
      JoinOutputCol::Right(tpi::kI, "I2"),
  };
}

std::vector<JoinOutputCol> Len2AtomOutputCols(const PartitionSpec& spec) {
  const int x_col = spec.q_swapped ? tpi::kY : tpi::kX;
  const int y_col = spec.q_swapped ? tpi::kX : tpi::kY;
  // For M1, T.C1 == M.C1 and T.C2 == M.C2 by the join condition; for M2,
  // T.C2 == M.C1 and T.C1 == M.C2. Taking the class columns from the M side
  // is correct for both.
  return {
      JoinOutputCol::Left(mlen2::kR1, "R"),
      JoinOutputCol::Right(x_col, "x"),
      JoinOutputCol::Left(mlen2::kC1, "C1"),
      JoinOutputCol::Right(y_col, "y"),
      JoinOutputCol::Left(mlen2::kC2, "C2"),
  };
}

std::vector<JoinOutputCol> Len3AtomOutputCols(const PartitionSpec& spec) {
  const int yv_col = spec.r_swapped ? tpi::kX : tpi::kY;
  return {
      JoinOutputCol::Left(j1::kR1, "R"),
      JoinOutputCol::Left(j1::kXv, "x"),
      JoinOutputCol::Left(j1::kC1, "C1"),
      JoinOutputCol::Right(yv_col, "y"),
      JoinOutputCol::Left(j1::kC2, "C2"),
  };
}

std::vector<JoinOutputCol> Len2FactorCandidateCols(const PartitionSpec& spec) {
  const int x_col = spec.q_swapped ? tpi::kY : tpi::kX;
  const int y_col = spec.q_swapped ? tpi::kX : tpi::kY;
  return {
      JoinOutputCol::Left(mlen2::kR1, "R1"),
      JoinOutputCol::Left(mlen2::kC1, "C1"),
      JoinOutputCol::Left(mlen2::kC2, "C2"),
      JoinOutputCol::Left(mlen2::kW, "w", ColumnType::kFloat64),
      JoinOutputCol::Right(x_col, "xv"),
      JoinOutputCol::Right(y_col, "yv"),
      JoinOutputCol::Right(tpi::kI, "I2"),
  };
}

std::vector<JoinOutputCol> Len3FactorCandidateCols(const PartitionSpec& spec) {
  const int yv_col = spec.r_swapped ? tpi::kX : tpi::kY;
  return {
      JoinOutputCol::Left(j1::kR1, "R1"),
      JoinOutputCol::Left(j1::kC1, "C1"),
      JoinOutputCol::Left(j1::kC2, "C2"),
      JoinOutputCol::Left(j1::kW, "w", ColumnType::kFloat64),
      JoinOutputCol::Left(j1::kXv, "xv"),
      JoinOutputCol::Right(yv_col, "yv"),
      JoinOutputCol::Left(j1::kI2, "I2"),
      JoinOutputCol::Right(tpi::kI, "I3"),
  };
}

std::vector<JoinOutputCol> FactorHeadOutputCols(bool has_i3) {
  return {
      JoinOutputCol::Right(tpi::kI, "I1"),
      JoinOutputCol::Left(fc::kI2, "I2"),
      has_i3 ? JoinOutputCol::Left(fc::kI3, "I3") : JoinOutputCol::Null("I3"),
      JoinOutputCol::Left(fc::kW, "w", ColumnType::kFloat64),
  };
}

namespace {

/// Inner join of `left` probing `index` over `right`'s first `index.rows`
/// rows, or a transient index over all of `right` when `index` is empty.
PlanNodePtr JoinIndexed(PlanNodePtr left, TablePtr right, std::string name,
                        const std::vector<int>& left_keys,
                        const std::vector<int>& right_keys,
                        std::vector<JoinOutputCol> output_cols,
                        PrebuiltIndex index) {
  PlanNodePtr scan = Scan(std::move(right), std::move(name),
                          index.index != nullptr ? index.rows : -1);
  return HashJoin(std::move(left), std::move(scan), left_keys, right_keys,
                  JoinType::kInner, std::move(output_cols),
                  /*residual=*/nullptr, index);
}

/// Inner join of `left` against the TPi instance `t` on `t_keys`. When
/// `indexes` holds a prebuilt index for `t` on those keys, the join probes
/// it and the scan of `t` is bounded to the rows the index serves;
/// otherwise the join builds a transient index over all of `t`.
PlanNodePtr JoinT(PlanNodePtr left, TablePtr t,
                  const std::vector<int>& left_keys,
                  const std::vector<int>& t_keys,
                  std::vector<JoinOutputCol> output_cols,
                  const TPiIndexes* indexes) {
  const PrebuiltIndex index =
      indexes != nullptr ? indexes->Find(t.get(), t_keys) : PrebuiltIndex{};
  return JoinIndexed(std::move(left), std::move(t), "T", left_keys, t_keys,
                     std::move(output_cols), index);
}

/// First join of a length-3 query: M_i x T2 -> J1.
PlanNodePtr BuildJ1(const PartitionSpec& spec, TablePtr m, TablePtr t_probe,
                    const TPiIndexes* indexes) {
  return JoinT(Scan(std::move(m), "M" + std::to_string(spec.partition)),
               std::move(t_probe), spec.m_keys1, spec.t_keys1,
               J1OutputCols(spec), indexes);
}

}  // namespace

PlanNodePtr BuildAtomsPlan(int p, TablePtr m, TablePtr t_probe,
                           TablePtr t_probe2, const TPiIndexes* indexes) {
  const PartitionSpec& spec = GetPartitionSpec(p);
  if (spec.body_length == 1) {
    return JoinT(Scan(std::move(m), "M" + std::to_string(p)),
                 std::move(t_probe), spec.m_keys1, spec.t_keys1,
                 Len2AtomOutputCols(spec), indexes);
  }
  PlanNodePtr j1 = BuildJ1(spec, std::move(m), std::move(t_probe), indexes);
  return JoinT(std::move(j1), std::move(t_probe2), spec.j1_keys2,
               spec.t_keys2, Len3AtomOutputCols(spec), indexes);
}

FlatRowIndex IndexRows(const Table& t, std::span<const int> keys) {
  const int64_t n = t.NumRows();
  FlatRowIndex index(n);
  size_t hashes[kIndexBuildChunkRows];
  for (int64_t base = 0; base < n; base += kIndexBuildChunkRows) {
    const int64_t end = std::min(base + kIndexBuildChunkRows, n);
    t.HashRows(keys, base, end, hashes);
    // The slot array is sized for every row up front and never moves, so
    // a batch's prefetches stay valid while its rows are inserted.
    for (int64_t batch = base; batch < end; batch += kProbeBatchRows) {
      const int64_t batch_end = std::min(batch + kProbeBatchRows, end);
      for (int64_t i = batch; i < batch_end; ++i) {
        index.PrefetchHash(hashes[i - base]);
      }
      for (int64_t i = batch; i < batch_end; ++i) {
        index.Insert(hashes[i - base], i);
      }
    }
  }
  return index;
}

namespace {

std::vector<JoinOutputCol> Swapped(std::vector<JoinOutputCol> cols) {
  for (JoinOutputCol& c : cols) {
    c.side = c.side == JoinOutputCol::Side::kLeft ? JoinOutputCol::Side::kRight
                                                  : JoinOutputCol::Side::kLeft;
  }
  return cols;
}

/// The trailing row-number column RuleIndexes appends to M_p.
int RuleColumn(const PartitionSpec& spec) {
  return spec.body_length == 1 ? mlen2::kW + 1 : mlen3::kW + 1;
}

}  // namespace

std::vector<JoinOutputCol> DeltaLen2Cols(const PartitionSpec& spec,
                                         bool order_key) {
  std::vector<JoinOutputCol> cols = Swapped(Len2AtomOutputCols(spec));
  if (order_key) {
    cols.push_back(JoinOutputCol::Right(RuleColumn(spec), "rule"));
    cols.push_back(JoinOutputCol::Left(tpi::kI, "I2"));
    cols.push_back(JoinOutputCol::Left(tpi::kI, "I3"));
  }
  return cols;
}

std::vector<JoinOutputCol> DeltaJ1Cols(const PartitionSpec& spec,
                                       bool order_key) {
  std::vector<JoinOutputCol> cols = Swapped(J1OutputCols(spec));
  if (order_key) {
    cols.push_back(JoinOutputCol::Right(RuleColumn(spec), "rule"));
  }
  return cols;
}

std::vector<JoinOutputCol> DeltaLen3Cols(const PartitionSpec& spec,
                                         bool order_key) {
  std::vector<JoinOutputCol> cols = Len3AtomOutputCols(spec);
  if (order_key) {
    cols.push_back(JoinOutputCol::Left(j1::kRule, "rule"));
    cols.push_back(JoinOutputCol::Left(j1::kI2, "I2"));
    cols.push_back(JoinOutputCol::Right(tpi::kI, "I3"));
  }
  return cols;
}

std::vector<JoinOutputCol> DeltaJ2Cols(const PartitionSpec& spec,
                                       bool order_key) {
  const int z_col = spec.r_swapped ? tpi::kY : tpi::kX;
  const int yv_col = spec.r_swapped ? tpi::kX : tpi::kY;
  std::vector<JoinOutputCol> cols = {
      JoinOutputCol::Right(mlen3::kR1, "R1"),
      JoinOutputCol::Right(mlen3::kR2, "R2"),
      JoinOutputCol::Right(mlen3::kC1, "C1"),
      JoinOutputCol::Right(mlen3::kC2, "C2"),
      JoinOutputCol::Right(mlen3::kC3, "C3"),
      JoinOutputCol::Left(yv_col, "yv"),
      JoinOutputCol::Left(z_col, "z"),
      JoinOutputCol::Left(tpi::kI, "I3"),
  };
  if (order_key) {
    cols.push_back(JoinOutputCol::Right(RuleColumn(spec), "rule"));
  }
  return cols;
}

std::vector<JoinOutputCol> DeltaLen3Body1Cols(const PartitionSpec& spec,
                                              bool order_key) {
  const int xv_col = spec.q_swapped ? tpi::kX : tpi::kY;
  std::vector<JoinOutputCol> cols = {
      JoinOutputCol::Left(j2::kR1, "R"),
      JoinOutputCol::Right(xv_col, "x"),
      JoinOutputCol::Left(j2::kC1, "C1"),
      JoinOutputCol::Left(j2::kYv, "y"),
      JoinOutputCol::Left(j2::kC2, "C2"),
  };
  if (order_key) {
    cols.push_back(JoinOutputCol::Left(j2::kRule, "rule"));
    cols.push_back(JoinOutputCol::Right(tpi::kI, "I2"));
    cols.push_back(JoinOutputCol::Left(j2::kI3, "I3"));
  }
  return cols;
}

Status RuleIndexes::Build(const std::array<TablePtr, kNumRuleStructures>& m) {
  bool rebuilt = false;
  for (int p = 1; p <= kNumRuleStructures; ++p) {
    const size_t i = static_cast<size_t>(p - 1);
    const Table& src = *m[i];
    if (sources_[i] == m[i] && source_rows_[i] == src.NumRows()) continue;
    PROBKB_RETURN_NOT_OK(FlatRowIndex::CheckCapacity(src.NumRows()));
    std::vector<Field> fields = src.schema().fields();
    fields.push_back({"rule", ColumnType::kInt64});
    Partition part;
    part.rules = Table::Make(Schema(std::move(fields)));
    std::vector<int64_t> rows(static_cast<size_t>(src.NumRows()));
    std::iota(rows.begin(), rows.end(), int64_t{0});
    part.rules->AppendGatheredRowsWithIds(src, rows);
    const PartitionSpec& spec = GetPartitionSpec(p);
    part.body1 = IndexRows(*part.rules, spec.m_keys1);
    if (spec.body_length == 2) {
      part.body2 = IndexRows(*part.rules, spec.m_keys2);
    }
    parts_[i] = std::move(part);
    sources_[i] = m[i];
    source_rows_[i] = src.NumRows();
    rebuilt = true;
  }
  if (!rebuilt) return Status::OK();
  std::vector<uint16_t> slots;
  for (int p = 1; p <= kNumRuleStructures; ++p) {
    const PartitionSpec& spec = GetPartitionSpec(p);
    const Table& rules = *parts_[static_cast<size_t>(p - 1)].rules;
    for (int b = 0; b < spec.body_length; ++b) {
      // The first key column of a body atom is its relation.
      const int64_t* relation =
          rules.Int64Data(b == 0 ? spec.m_keys1[0] : spec.m_keys2[0]);
      for (int64_t r = 0; r < rules.NumRows(); ++r) {
        if (relation[r] < 0) {
          sources_ = {};  // rebuild, and fail again, on the next call
          return Status::InvalidArgument(StrFormat(
              "M%d row %lld has negative relation id %lld", p,
              static_cast<long long>(r), static_cast<long long>(relation[r])));
        }
        const size_t id = static_cast<size_t>(relation[r]);
        if (id >= slots.size()) slots.resize(id + 1, 0);
        slots[id] |= static_cast<uint16_t>(1u << (2 * (p - 1) + b));
      }
    }
  }
  relation_slots_ = std::move(slots);
  return Status::OK();
}

RuleIndexes::DeltaSlices RuleIndexes::Route(const Table& t_pi,
                                            int64_t delta_start) const {
  std::array<std::vector<int64_t>, 2 * kNumRuleStructures> rows;
  const int64_t* relation = t_pi.Int64Data(tpi::kR);
  for (int64_t i = delta_start; i < t_pi.NumRows(); ++i) {
    const uint64_t id = static_cast<uint64_t>(relation[i]);
    if (id >= relation_slots_.size()) continue;
    for (unsigned mask = relation_slots_[id]; mask != 0; mask &= mask - 1) {
      rows[static_cast<size_t>(std::countr_zero(mask))].push_back(i);
    }
  }
  DeltaSlices slices;
  for (size_t slot = 0; slot < rows.size(); ++slot) {
    TablePtr slice = Table::Make(t_pi.schema());
    slice->AppendGatheredRows(t_pi, rows[slot]);
    slices[slot / 2][slot % 2] = std::move(slice);
  }
  return slices;
}

PlanNodePtr BuildDeltaAtomsPlan(int p, const RuleIndexes& rules,
                                const RuleIndexes::DeltaSlices& delta,
                                TablePtr t_pi, const TPiIndexes& indexes,
                                int64_t delta_start) {
  const PartitionSpec& spec = GetPartitionSpec(p);
  const RuleIndexes::Partition& part = rules.partition(p);
  PROBKB_DCHECK(part.rules->width() - 1 == RuleColumn(spec));
  // The delta rows of body atom `b` probe its rule index on their view-T0
  // key.
  auto probe_rules = [&](size_t b, const FlatRowIndex& index,
                         const std::vector<int>& m_keys,
                         std::vector<JoinOutputCol> cols) {
    return JoinIndexed(Scan(delta[static_cast<size_t>(p - 1)][b], "Delta"),
                       part.rules, "M" + std::to_string(p), ViewKeysT0(),
                       m_keys, std::move(cols),
                       {&index, part.rules->NumRows()});
  };
  if (spec.body_length == 1) {
    return probe_rules(0, part.body1, spec.m_keys1,
                       DeltaLen2Cols(spec, /*order_key=*/true));
  }
  // (Δ, full): body 2 ranges over TPi as of the last Sync().
  PlanNodePtr delta_full =
      JoinT(probe_rules(0, part.body1, spec.m_keys1,
                        DeltaJ1Cols(spec, /*order_key=*/true)),
            t_pi, spec.j1_keys2, spec.t_keys2,
            DeltaLen3Cols(spec, /*order_key=*/true), &indexes);
  // (old, Δ): body 1 ranges over the rows before Δ only, so no derivation
  // is produced by both passes.
  PrebuiltIndex old = indexes.Find(t_pi.get(), spec.t2_keys1);
  PROBKB_CHECK(old.index != nullptr && delta_start <= old.rows);
  old.rows = delta_start;
  PlanNodePtr old_delta = JoinIndexed(
      probe_rules(1, part.body2, spec.m_keys2,
                  DeltaJ2Cols(spec, /*order_key=*/true)),
      std::move(t_pi), "T", spec.j2_keys1, spec.t2_keys1,
      DeltaLen3Body1Cols(spec, /*order_key=*/true), old);
  std::vector<PlanNodePtr> passes;
  passes.push_back(std::move(delta_full));
  passes.push_back(std::move(old_delta));
  return UnionAll(std::move(passes));
}

Result<TablePtr> GroundAtomsForPartition(int p, TablePtr m, TablePtr t_probe,
                                         TablePtr t_probe2,
                                         ExecContext* ctx) {
  auto plan =
      BuildAtomsPlan(p, std::move(m), std::move(t_probe), std::move(t_probe2));
  return plan->Execute(ctx);
}

Result<TablePtr> GroundFactorsForPartition(int p, TablePtr m,
                                           TablePtr t_probe,
                                           TablePtr t_probe2, TablePtr t_head,
                                           ExecContext* ctx,
                                           const TPiIndexes* indexes) {
  const PartitionSpec& spec = GetPartitionSpec(p);
  const bool has_i3 = spec.body_length == 2;

  PlanNodePtr candidates;
  if (spec.body_length == 1) {
    candidates = JoinT(Scan(std::move(m), "M" + std::to_string(p)),
                       std::move(t_probe), spec.m_keys1, spec.t_keys1,
                       Len2FactorCandidateCols(spec), indexes);
  } else {
    PlanNodePtr j1 =
        BuildJ1(spec, std::move(m), std::move(t_probe), indexes);
    candidates = JoinT(std::move(j1), std::move(t_probe2), spec.j1_keys2,
                       spec.t_keys2, Len3FactorCandidateCols(spec), indexes);
  }

  // Head join: resolve I1 by matching the derived atom against TPi.
  auto plan = JoinT(std::move(candidates), std::move(t_head),
                    HeadJoinLeftKeys(), ViewKeysTxy(),
                    FactorHeadOutputCols(has_i3), indexes);
  return plan->Execute(ctx);
}

Result<TablePtr> SingletonFactors(TablePtr t_pi, ExecContext* ctx) {
  auto plan = Project(
      Filter(Scan(std::move(t_pi), "T"),
             [](const RowView& row) { return !row[tpi::kW].is_null(); },
             "w IS NOT NULL"),
      {ProjectExpr::Column(tpi::kI, "I1"),
       ProjectExpr::Constant(Value::Null(), "I2"),
       ProjectExpr::Constant(Value::Null(), "I3"),
       ProjectExpr::Column(tpi::kW, "w", ColumnType::kFloat64)});
  return plan->Execute(ctx);
}

int64_t AppendAtomRows(Table* t_pi, const Table& atoms,
                       const std::vector<int64_t>& rows, FactId* next_id) {
  const int64_t n = static_cast<int64_t>(rows.size());
  auto gather = [&](int col) {
    return Table::ColumnSource::Gather(atoms, col, rows.data());
  };
  const Table::ColumnSource cols[tpi::kWidth] = {
      Table::ColumnSource::Sequence(*next_id),
      gather(atom::kR),
      gather(atom::kX),
      gather(atom::kC1),
      gather(atom::kY),
      gather(atom::kC2),
      Table::ColumnSource::Constant(Value::Null())};
  t_pi->AppendColumns(n, cols);
  *next_id += n;
  return n;
}

namespace {

/// Shared implementation of Query 3 for one functionality type. Returns the
/// violating (entity, class) keys.
Result<TablePtr> ViolatorsForType(TablePtr t_pi, TablePtr t_omega,
                                  FunctionalityType type, ExecContext* ctx) {
  const bool type1 = type == FunctionalityType::kTypeI;
  const int64_t arg = type1 ? 1 : 2;
  std::vector<JoinOutputCol> joined = {
      JoinOutputCol::Left(tpi::kR, "R"),
      JoinOutputCol::Left(type1 ? tpi::kX : tpi::kY, "e"),
      JoinOutputCol::Left(type1 ? tpi::kC1 : tpi::kC2, "Ce"),
      JoinOutputCol::Left(type1 ? tpi::kC2 : tpi::kC1, "Cother"),
      JoinOutputCol::Right(tomega::kDeg, "deg"),
  };
  auto plan = Aggregate(
      HashJoin(Scan(std::move(t_pi), "T"),
               Filter(Scan(std::move(t_omega), "FC"),
                      [arg](const RowView& row) {
                        return row[tomega::kArg].i64() == arg;
                      },
                      type1 ? "FC.arg = 1" : "FC.arg = 2"),
               {tpi::kR}, {tomega::kR}, JoinType::kInner, std::move(joined)),
      /*group_cols=*/{0, 1, 2, 3},
      {{AggKind::kCount, 0, "cnt"}, {AggKind::kMin, 4, "mindeg"}},
      /*having=*/[](const RowView& row) {
        return row[4].i64() > row[5].i64();  // COUNT(*) > MIN(deg)
      });
  auto distinct = Distinct(
      Project(std::move(plan),
              {ProjectExpr::Column(1, "e"), ProjectExpr::Column(2, "Ce")}),
      {0, 1});
  return distinct->Execute(ctx);
}

}  // namespace

Result<TablePtr> FindConstraintViolators(TablePtr t_pi, TablePtr t_omega,
                                         ExecContext* ctx) {
  PROBKB_ASSIGN_OR_RETURN(
      TablePtr viol1,
      ViolatorsForType(t_pi, t_omega, FunctionalityType::kTypeI, ctx));
  PROBKB_ASSIGN_OR_RETURN(
      TablePtr viol2,
      ViolatorsForType(t_pi, t_omega, FunctionalityType::kTypeII, ctx));
  auto out = Table::Make(Schema({{"e", ColumnType::kInt64},
                                 {"Ce", ColumnType::kInt64},
                                 {"arg", ColumnType::kInt64}}));
  for (int64_t i = 0; i < viol1->NumRows(); ++i) {
    RowView row = viol1->row(i);
    out->AppendRow({row[0], row[1], Value::Int64(1)});
  }
  for (int64_t i = 0; i < viol2->NumRows(); ++i) {
    RowView row = viol2->row(i);
    out->AppendRow({row[0], row[1], Value::Int64(2)});
  }
  return out;
}

}  // namespace probkb
