#include "engine/plan.h"

#include "util/strings.h"

// Structural half of the plan layer: node construction, schema derivation,
// and EXPLAIN rendering. Execution bodies live in executor.cc so the IR can
// be built, annotated, and inspected without running anything.

namespace probkb {

std::string PlanNode::Explain(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Label();
  if (est_rows_ >= 0 || obs_rows_ >= 0) {
    out += " (est=";
    out += est_rows_ >= 0 ? StrFormat("%lld", static_cast<long long>(est_rows_))
                          : "?";
    out += " obs=";
    out += obs_rows_ >= 0 ? StrFormat("%lld", static_cast<long long>(obs_rows_))
                          : "?";
    out += ")";
  }
  out += "\n";
  for (const auto& child : children_) {
    out += child->Explain(indent + 1);
  }
  return out;
}

Schema JoinOutputSchema(JoinType type,
                        const std::vector<JoinOutputCol>& output_cols,
                        const Schema& left) {
  if (type != JoinType::kInner) return left;
  std::vector<Field> fields;
  fields.reserve(output_cols.size());
  for (const JoinOutputCol& c : output_cols) fields.push_back({c.name, c.type});
  return Schema(std::move(fields));
}

const char* JoinTypeToString(JoinType t) {
  switch (t) {
    case JoinType::kInner:
      return "inner";
    case JoinType::kLeftSemi:
      return "semi";
    case JoinType::kLeftAnti:
      return "anti";
  }
  return "?";
}

FilterNode::FilterNode(PlanNodePtr input, RowPredicate pred,
                       std::string description)
    : pred_(std::move(pred)), description_(std::move(description)) {
  children_.push_back(std::move(input));
}

ProjectNode::ProjectNode(PlanNodePtr input, std::vector<ProjectExpr> exprs)
    : exprs_(std::move(exprs)) {
  children_.push_back(std::move(input));
  std::vector<Field> fields;
  fields.reserve(exprs_.size());
  for (const auto& e : exprs_) fields.push_back({e.name, e.type});
  output_schema_ = Schema(std::move(fields));
}

HashJoinNode::HashJoinNode(PlanNodePtr left, PlanNodePtr right,
                           std::vector<int> left_keys,
                           std::vector<int> right_keys, JoinType type,
                           std::vector<JoinOutputCol> output_cols,
                           RowPredicate residual, PrebuiltIndex prebuilt)
    : left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      type_(type),
      output_cols_(std::move(output_cols)),
      residual_(std::move(residual)),
      prebuilt_(prebuilt) {
  PROBKB_CHECK(left_keys_.size() == right_keys_.size());
  children_.push_back(std::move(left));
  children_.push_back(std::move(right));
}

DistinctNode::DistinctNode(PlanNodePtr input, std::vector<int> key_cols)
    : key_cols_(std::move(key_cols)) {
  children_.push_back(std::move(input));
}

AggregateNode::AggregateNode(PlanNodePtr input, std::vector<int> group_cols,
                             std::vector<AggSpec> aggs, RowPredicate having)
    : group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      having_(std::move(having)) {
  children_.push_back(std::move(input));
}

UnionAllNode::UnionAllNode(std::vector<PlanNodePtr> inputs)
    : PlanNode(std::move(inputs)) {
  PROBKB_CHECK(!children_.empty());
}

}  // namespace probkb
