#include "tuffy/tuffy_grounder.h"

#include "engine/ops.h"
#include "engine/plan.h"
#include "util/strings.h"
#include "util/timer.h"

namespace probkb {

namespace {

// Atom output of a per-rule query: (x, C1, y, C2); the head relation is
// implicit (the rule names it).
constexpr int kAtomX = 0;
constexpr int kAtomC1 = 1;
constexpr int kAtomY = 2;
constexpr int kAtomC2 = 3;

/// Inserts `atoms` (x, C1, y, C2) into the head predicate table with set
/// semantics; new facts get NULL weight and fresh ids.
int64_t MergeAtomsIntoPredicate(Table* t_head, const Table& atoms,
                                FactId* next_id) {
  static const std::vector<int> head_key = {tpred::kX, tpred::kC1, tpred::kY,
                                            tpred::kC2};
  static const std::vector<int> atom_key = {kAtomX, kAtomC1, kAtomY, kAtomC2};
  KeyIndex index(t_head, head_key);
  int64_t added = 0;
  for (int64_t i = 0; i < atoms.NumRows(); ++i) {
    RowView row = atoms.row(i);
    if (index.Contains(row, atom_key)) continue;
    t_head->AppendRow({Value::Int64((*next_id)++), row[kAtomX], row[kAtomC1],
                       row[kAtomY], row[kAtomC2], Value::Null()});
    index.AddRow(t_head->NumRows() - 1);
    ++added;
  }
  return added;
}

RowPredicate ClassFilter(ClassId c1, ClassId c2) {
  return [c1, c2](const RowView& row) {
    return row[tpred::kC1].i64() == c1 && row[tpred::kC2].i64() == c2;
  };
}

}  // namespace

Schema PredicateSchema() {
  return Schema({{"I", ColumnType::kInt64},
                 {"x", ColumnType::kInt64},
                 {"C1", ColumnType::kInt64},
                 {"y", ColumnType::kInt64},
                 {"C2", ColumnType::kInt64},
                 {"w", ColumnType::kFloat64}});
}

TuffyGrounder::TuffyGrounder(const KnowledgeBase& kb,
                             GroundingOptions options)
    : kb_(&kb), options_(options) {}

Status TuffyGrounder::Load() {
  Timer timer;
  // One predicate table per relation: a CREATE TABLE plus a COPY each.
  for (RelationId r = 0; r < kb_->relations().size(); ++r) {
    auto table = Table::Make(PredicateSchema());
    PROBKB_RETURN_NOT_OK(
        catalog_.Register("pred_" + kb_->relations().NameOrPlaceholder(r),
                          table));
    tables_[r] = std::move(table);
    stats_.statements += 2;
  }
  for (const Fact& f : kb_->facts()) {
    auto it = tables_.find(f.relation);
    if (it == tables_.end()) {
      return Status::Internal("fact references unknown relation");
    }
    it->second->AppendRow(
        {Value::Int64(next_fact_id_++), Value::Int64(f.x), Value::Int64(f.c1),
         Value::Int64(f.y), Value::Int64(f.c2),
         f.has_weight() ? Value::Float64(f.weight) : Value::Null()});
  }
  stats_.initial_atoms = static_cast<int64_t>(kb_->facts().size());
  stats_.ground_atoms_seconds += timer.Seconds();
  loaded_ = true;
  return Status::OK();
}

TablePtr TuffyGrounder::PredicateTable(RelationId r) const {
  auto it = tables_.find(r);
  PROBKB_CHECK(it != tables_.end());
  return it->second;
}

Result<TablePtr> TuffyGrounder::ApplyRule(const HornRule& rule,
                                          ExecContext* ctx) {
  // The rule's relations and classes are inlined as constants, exactly like
  // the per-rule SQL Tuffy emits.
  if (rule.body_length() == 1) {
    const bool swapped = rule.structure == RuleStructure::kM2;
    // Body classes in the predicate table: for q(x,y) the fact's C1 is x's
    // class; for q(y,x) the fact's C1 is y's class.
    ClassId body_c1 = swapped ? rule.c2 : rule.c1;
    ClassId body_c2 = swapped ? rule.c1 : rule.c2;
    auto plan = Project(
        Filter(Scan(PredicateTable(rule.body1), "pred"),
               ClassFilter(body_c1, body_c2), "rule classes"),
        {ProjectExpr::Column(swapped ? tpred::kY : tpred::kX, "x"),
         ProjectExpr::Constant(Value::Int64(rule.c1), "C1"),
         ProjectExpr::Column(swapped ? tpred::kX : tpred::kY, "y"),
         ProjectExpr::Constant(Value::Int64(rule.c2), "C2")});
    return plan->Execute(ctx);
  }

  const bool q_swapped = rule.structure == RuleStructure::kM4 ||
                         rule.structure == RuleStructure::kM6;
  const bool r_swapped = rule.structure == RuleStructure::kM5 ||
                         rule.structure == RuleStructure::kM6;
  // q holds (z, x) or (x, z); r holds (z, y) or (y, z).
  ClassId q_c1 = q_swapped ? rule.c1 : rule.c3;
  ClassId q_c2 = q_swapped ? rule.c3 : rule.c1;
  ClassId r_c1 = r_swapped ? rule.c2 : rule.c3;
  ClassId r_c2 = r_swapped ? rule.c3 : rule.c2;
  const int q_z = q_swapped ? tpred::kY : tpred::kX;
  const int q_x = q_swapped ? tpred::kX : tpred::kY;
  const int r_z = r_swapped ? tpred::kY : tpred::kX;
  const int r_y = r_swapped ? tpred::kX : tpred::kY;

  auto plan = HashJoin(
      Filter(Scan(PredicateTable(rule.body1), "q"), ClassFilter(q_c1, q_c2),
             "q classes"),
      Filter(Scan(PredicateTable(rule.body2), "r"), ClassFilter(r_c1, r_c2),
             "r classes"),
      {q_z}, {r_z}, JoinType::kInner,
      {JoinOutputCol::Left(q_x, "x"),
       JoinOutputCol::Right(r_y, "y")});
  auto projected = Project(
      std::move(plan),
      {ProjectExpr::Column(0, "x"),
       ProjectExpr::Constant(Value::Int64(rule.c1), "C1"),
       ProjectExpr::Column(1, "y"),
       ProjectExpr::Constant(Value::Int64(rule.c2), "C2")});
  return projected->Execute(ctx);
}

Result<int64_t> TuffyGrounder::GroundAtomsIteration() {
  if (!loaded_) PROBKB_RETURN_NOT_OK(Load());
  Timer timer;
  // Apply every rule against the iteration-start snapshot, then merge
  // (same fixpoint semantics as Algorithm 1).
  std::vector<std::pair<RelationId, TablePtr>> inferred;
  inferred.reserve(kb_->rules().size());
  for (const HornRule& rule : kb_->rules()) {
    ExecContext ec;
    PROBKB_ASSIGN_OR_RETURN(TablePtr atoms, ApplyRule(rule, &ec));
    inferred.emplace_back(rule.head, std::move(atoms));
    ++stats_.statements;
  }
  int64_t added = 0;
  for (const auto& [head, atoms] : inferred) {
    added += MergeAtomsIntoPredicate(PredicateTable(head).get(), *atoms,
                                     &next_fact_id_);
  }
  stats_.RecordIteration(timer.Seconds(), added);
  return added;
}

Status TuffyGrounder::GroundAtoms() {
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    PROBKB_ASSIGN_OR_RETURN(int64_t added, GroundAtomsIteration());
    if (added == 0) break;
  }
  stats_.final_atoms = next_fact_id_;
  return Status::OK();
}

Result<TablePtr> TuffyGrounder::RuleFactors(const HornRule& rule,
                                            ExecContext* ctx) {
  // Candidates (x, C1, y, C2, I2[, I3]) from the body, then a head join to
  // resolve I1.
  PlanNodePtr candidates;
  bool has_i3 = rule.body_length() == 2;
  if (rule.body_length() == 1) {
    const bool swapped = rule.structure == RuleStructure::kM2;
    ClassId body_c1 = swapped ? rule.c2 : rule.c1;
    ClassId body_c2 = swapped ? rule.c1 : rule.c2;
    candidates = Project(
        Filter(Scan(PredicateTable(rule.body1), "pred"),
               ClassFilter(body_c1, body_c2), "rule classes"),
        {ProjectExpr::Column(swapped ? tpred::kY : tpred::kX, "x"),
         ProjectExpr::Column(swapped ? tpred::kX : tpred::kY, "y"),
         ProjectExpr::Column(tpred::kI, "I2")});
  } else {
    const bool q_swapped = rule.structure == RuleStructure::kM4 ||
                           rule.structure == RuleStructure::kM6;
    const bool r_swapped = rule.structure == RuleStructure::kM5 ||
                           rule.structure == RuleStructure::kM6;
    ClassId q_c1 = q_swapped ? rule.c1 : rule.c3;
    ClassId q_c2 = q_swapped ? rule.c3 : rule.c1;
    ClassId r_c1 = r_swapped ? rule.c2 : rule.c3;
    ClassId r_c2 = r_swapped ? rule.c3 : rule.c2;
    const int q_z = q_swapped ? tpred::kY : tpred::kX;
    const int q_x = q_swapped ? tpred::kX : tpred::kY;
    const int r_z = r_swapped ? tpred::kY : tpred::kX;
    const int r_y = r_swapped ? tpred::kX : tpred::kY;
    candidates = HashJoin(
        Filter(Scan(PredicateTable(rule.body1), "q"), ClassFilter(q_c1, q_c2),
               "q classes"),
        Filter(Scan(PredicateTable(rule.body2), "r"), ClassFilter(r_c1, r_c2),
               "r classes"),
        {q_z}, {r_z}, JoinType::kInner,
        {JoinOutputCol::Left(q_x, "x"),
         JoinOutputCol::Right(r_y, "y"),
         JoinOutputCol::Left(tpred::kI, "I2"),
         JoinOutputCol::Right(tpred::kI, "I3")});
  }

  // Head join: candidates (x, y, I2[, I3]) against the head predicate
  // table restricted to the rule's classes.
  const int cand_i2 = 2;
  const int cand_i3 = 3;
  auto plan = HashJoin(
      std::move(candidates),
      Filter(Scan(PredicateTable(rule.head), "head"),
             ClassFilter(rule.c1, rule.c2), "head classes"),
      {0, 1}, {tpred::kX, tpred::kY}, JoinType::kInner,
      {JoinOutputCol::Right(tpred::kI, "I1"),
       JoinOutputCol::Left(cand_i2, "I2"),
       JoinOutputCol::Left(has_i3 ? cand_i3 : cand_i2, "I3"),
       JoinOutputCol::Left(cand_i2, "w")});  // placeholder, replaced below
  PROBKB_ASSIGN_OR_RETURN(TablePtr joined, plan->Execute(ctx));
  // Stamp the rule weight and NULL the unused I3 column for length-2
  // rules. (SQL inlines the constant in the SELECT list; we post-project.)
  auto stamped = Project(
      Scan(joined),
      {ProjectExpr::Column(0, "I1"), ProjectExpr::Column(1, "I2"),
       has_i3 ? ProjectExpr::Column(2, "I3")
              : ProjectExpr::Constant(Value::Null(), "I3"),
       ProjectExpr::Constant(Value::Float64(rule.weight), "w",
                             ColumnType::kFloat64)});
  return stamped->Execute(ctx);
}

Result<TablePtr> TuffyGrounder::GroundFactors() {
  if (!loaded_) PROBKB_RETURN_NOT_OK(Load());
  Timer timer;
  auto t_phi = Table::Make(TPhiSchema());
  for (const HornRule& rule : kb_->rules()) {
    ExecContext ec;
    PROBKB_ASSIGN_OR_RETURN(TablePtr factors, RuleFactors(rule, &ec));
    t_phi->AppendTable(*factors);
    ++stats_.statements;
  }
  // Singleton factors from every predicate table.
  for (const auto& [r, table] : tables_) {
    (void)r;
    for (int64_t i = 0; i < table->NumRows(); ++i) {
      RowView row = table->row(i);
      if (row[tpred::kW].is_null()) continue;
      t_phi->AppendRow({row[tpred::kI], Value::Null(), Value::Null(),
                        row[tpred::kW]});
    }
  }
  ++stats_.statements;
  stats_.ground_factors_seconds += timer.Seconds();
  stats_.factors = t_phi->NumRows();
  return t_phi;
}

TablePtr TuffyGrounder::ToTPi() const {
  auto out = Table::Make(TPiSchema());
  for (RelationId r = 0; r < kb_->relations().size(); ++r) {
    auto it = tables_.find(r);
    if (it == tables_.end()) continue;
    const Table& t = *it->second;
    for (int64_t i = 0; i < t.NumRows(); ++i) {
      RowView row = t.row(i);
      out->AppendRow({row[tpred::kI], Value::Int64(r), row[tpred::kX],
                      row[tpred::kC1], row[tpred::kY], row[tpred::kC2],
                      row[tpred::kW]});
    }
  }
  return out;
}

}  // namespace probkb
