#ifndef PROBKB_ENGINE_PLAN_H_
#define PROBKB_ENGINE_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/exec_context.h"
#include "relational/table.h"
#include "util/result.h"

namespace probkb {

class FlatRowIndex;
class PlanNode;
using PlanNodePtr = std::unique_ptr<PlanNode>;

/// \brief Base class of all physical plan nodes.
///
/// Execution is materialized: each node produces a full Table. This mirrors
/// how the paper's SQL statements execute (each grounding query materializes
/// its result into TPi / TPhi) and keeps per-node row accounting exact for
/// the MPP cost model.
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  PlanNode(const PlanNode&) = delete;
  PlanNode& operator=(const PlanNode&) = delete;

  /// \brief Runs the subtree rooted here and returns the result table.
  /// Bodies live in executor.cc (the plan IR itself is structural only).
  virtual Result<TablePtr> Execute(ExecContext* ctx) = 0;

  /// \brief Short operator name for EXPLAIN output, e.g. "HashJoin".
  virtual std::string Label() const = 0;

  /// \brief EXPLAIN-style tree rendering. Nodes carrying cardinality
  /// annotations render as "Label (est=N obs=M)" with "?" for unknown;
  /// un-annotated nodes render the bare label.
  std::string Explain(int indent = 0) const;

  /// Estimated output cardinality, annotated by the planner before
  /// execution (-1 = no estimate). Observed cardinality is recorded by
  /// Execute, so after a run `est_rows` vs `obs_rows` is the per-node
  /// estimation error the next iteration's plan is corrected with.
  int64_t est_rows() const { return est_rows_; }
  void set_est_rows(int64_t rows) { est_rows_ = rows; }
  int64_t obs_rows() const { return obs_rows_; }
  void set_obs_rows(int64_t rows) { obs_rows_ = rows; }

  const std::vector<PlanNodePtr>& children() const { return children_; }

 protected:
  PlanNode() = default;
  explicit PlanNode(std::vector<PlanNodePtr> children)
      : children_(std::move(children)) {}

  std::vector<PlanNodePtr> children_;
  int64_t est_rows_ = -1;
  int64_t obs_rows_ = -1;
};

/// \brief Leaf node scanning an existing table (zero-copy).
///
/// `rows` >= 0 bounds the scan to the table's first `rows` rows: the node
/// still hands its consumer the whole table (zero-copy), but reports and
/// estimates `rows`. Only a hash join's build side reading a prebuilt
/// index with the same bound consumes such a scan.
class ScanNode : public PlanNode {
 public:
  explicit ScanNode(TablePtr table, std::string name = "table",
                    int64_t rows = -1)
      : table_(std::move(table)), name_(std::move(name)), rows_(rows) {}

  Result<TablePtr> Execute(ExecContext* ctx) override;
  std::string Label() const override { return "SeqScan on " + name_; }

  /// Scan inputs are materialized, so their size is known at plan time —
  /// the one exact leaf cardinality the planner's estimates grow from.
  int64_t TableRows() const { return rows_ >= 0 ? rows_ : table_->NumRows(); }

 private:
  TablePtr table_;
  std::string name_;
  int64_t rows_;
};

/// \brief Row predicate evaluated by FilterNode and join residuals.
using RowPredicate = std::function<bool(const RowView&)>;

class FilterNode : public PlanNode {
 public:
  FilterNode(PlanNodePtr input, RowPredicate pred,
             std::string description = "");

  Result<TablePtr> Execute(ExecContext* ctx) override;
  std::string Label() const override {
    return description_.empty() ? "Filter" : "Filter (" + description_ + ")";
  }

 private:
  RowPredicate pred_;
  std::string description_;
};

/// \brief One output column of a projection: a source column or a constant.
struct ProjectExpr {
  enum class Kind { kColumn, kConstant };
  Kind kind = Kind::kColumn;
  int column = 0;     // when kColumn: index into the input row
  Value constant;     // when kConstant
  std::string name;   // output field name
  ColumnType type = ColumnType::kInt64;

  static ProjectExpr Column(int col, std::string name,
                            ColumnType type = ColumnType::kInt64) {
    ProjectExpr e;
    e.kind = Kind::kColumn;
    e.column = col;
    e.name = std::move(name);
    e.type = type;
    return e;
  }
  static ProjectExpr Constant(Value v, std::string name,
                              ColumnType type = ColumnType::kInt64) {
    ProjectExpr e;
    e.kind = Kind::kConstant;
    e.constant = v;
    e.name = std::move(name);
    e.type = type;
    return e;
  }
};

class ProjectNode : public PlanNode {
 public:
  ProjectNode(PlanNodePtr input, std::vector<ProjectExpr> exprs);

  Result<TablePtr> Execute(ExecContext* ctx) override;
  std::string Label() const override { return "Project"; }

 private:
  std::vector<ProjectExpr> exprs_;
  Schema output_schema_;
};

enum class JoinType { kInner, kLeftSemi, kLeftAnti };

const char* JoinTypeToString(JoinType t);

/// \brief Which side/column an inner-join output column is drawn from, or
/// kNull for a column that is NULL in every output row.
struct JoinOutputCol {
  enum class Side { kLeft, kRight, kNull };
  Side side = Side::kLeft;
  int column = 0;
  std::string name;
  ColumnType type = ColumnType::kInt64;

  static JoinOutputCol Left(int col, std::string name,
                            ColumnType type = ColumnType::kInt64) {
    return {Side::kLeft, col, std::move(name), type};
  }
  static JoinOutputCol Right(int col, std::string name,
                             ColumnType type = ColumnType::kInt64) {
    return {Side::kRight, col, std::move(name), type};
  }
  static JoinOutputCol Null(std::string name,
                            ColumnType type = ColumnType::kInt64) {
    return {Side::kNull, 0, std::move(name), type};
  }
};

/// \brief The schema of a hash join's output: the left input's for
/// kLeftSemi/kLeftAnti, else one field per output column.
Schema JoinOutputSchema(JoinType type,
                        const std::vector<JoinOutputCol>& output_cols,
                        const Schema& left);

/// \brief A join build index prepared outside the plan: keyed on the join's
/// right keys, chains in row order (see FlatRowIndex), valid for the right
/// table's first `rows` rows.
struct PrebuiltIndex {
  const FlatRowIndex* index = nullptr;
  int64_t rows = 0;
};

/// \brief Hash equi-join. Builds on the right input, probes with the left.
///
/// With a `prebuilt` index the join builds nothing: it probes that index
/// and ignores right rows at or past `prebuilt.rows`, so the right input
/// should be a scan bounded to the same rows. The output equals the join
/// against a right table truncated to those rows.
///
/// For kInner the output is given by `output_cols`; for kLeftSemi/kLeftAnti
/// the output is the left row and `output_cols` is ignored. An optional
/// `residual` predicate (over the concatenated left+right row) handles
/// non-equi conditions such as the T2.x = T3.x checks in Query 1-3 when the
/// planner chooses different keys.
class HashJoinNode : public PlanNode {
 public:
  HashJoinNode(PlanNodePtr left, PlanNodePtr right, std::vector<int> left_keys,
               std::vector<int> right_keys, JoinType type,
               std::vector<JoinOutputCol> output_cols = {},
               RowPredicate residual = nullptr, PrebuiltIndex prebuilt = {});

  Result<TablePtr> Execute(ExecContext* ctx) override;
  std::string Label() const override {
    return std::string("HashJoin (") + JoinTypeToString(type_) + ")";
  }

  JoinType join_type() const { return type_; }
  bool has_residual() const { return residual_ != nullptr; }

 private:
  std::vector<int> left_keys_;
  std::vector<int> right_keys_;
  JoinType type_;
  std::vector<JoinOutputCol> output_cols_;
  RowPredicate residual_;
  PrebuiltIndex prebuilt_;
};

/// \brief Set-distinct over the given key columns (all columns if empty);
/// keeps the first occurrence of each key.
class DistinctNode : public PlanNode {
 public:
  explicit DistinctNode(PlanNodePtr input, std::vector<int> key_cols = {});

  Result<TablePtr> Execute(ExecContext* ctx) override;
  std::string Label() const override { return "HashDistinct"; }

 private:
  std::vector<int> key_cols_;
};

enum class AggKind { kCount, kSum, kMin, kMax };

struct AggSpec {
  AggKind kind = AggKind::kCount;
  int column = 0;  // ignored for kCount
  std::string name;
};

/// \brief Hash group-by with COUNT/SUM/MIN/MAX and an optional HAVING
/// predicate over the aggregated row (group cols followed by agg cols).
class AggregateNode : public PlanNode {
 public:
  AggregateNode(PlanNodePtr input, std::vector<int> group_cols,
                std::vector<AggSpec> aggs, RowPredicate having = nullptr);

  Result<TablePtr> Execute(ExecContext* ctx) override;
  std::string Label() const override { return "HashAggregate"; }

 private:
  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
  RowPredicate having_;
};

/// \brief Bag union (UNION ALL) of any number of inputs with equal widths.
class UnionAllNode : public PlanNode {
 public:
  explicit UnionAllNode(std::vector<PlanNodePtr> inputs);

  Result<TablePtr> Execute(ExecContext* ctx) override;
  std::string Label() const override { return "Append"; }
};

// Convenience builders ------------------------------------------------------

inline PlanNodePtr Scan(TablePtr table, std::string name = "table",
                        int64_t rows = -1) {
  return std::make_unique<ScanNode>(std::move(table), std::move(name), rows);
}
inline PlanNodePtr Filter(PlanNodePtr input, RowPredicate pred,
                          std::string description = "") {
  return std::make_unique<FilterNode>(std::move(input), std::move(pred),
                                      std::move(description));
}
inline PlanNodePtr Project(PlanNodePtr input, std::vector<ProjectExpr> exprs) {
  return std::make_unique<ProjectNode>(std::move(input), std::move(exprs));
}
inline PlanNodePtr HashJoin(PlanNodePtr left, PlanNodePtr right,
                            std::vector<int> left_keys,
                            std::vector<int> right_keys, JoinType type,
                            std::vector<JoinOutputCol> output_cols = {},
                            RowPredicate residual = nullptr,
                            PrebuiltIndex prebuilt = {}) {
  return std::make_unique<HashJoinNode>(
      std::move(left), std::move(right), std::move(left_keys),
      std::move(right_keys), type, std::move(output_cols),
      std::move(residual), prebuilt);
}
inline PlanNodePtr Distinct(PlanNodePtr input, std::vector<int> key_cols = {}) {
  return std::make_unique<DistinctNode>(std::move(input),
                                        std::move(key_cols));
}
inline PlanNodePtr Aggregate(PlanNodePtr input, std::vector<int> group_cols,
                             std::vector<AggSpec> aggs,
                             RowPredicate having = nullptr) {
  return std::make_unique<AggregateNode>(std::move(input),
                                         std::move(group_cols),
                                         std::move(aggs), std::move(having));
}
inline PlanNodePtr UnionAll(std::vector<PlanNodePtr> inputs) {
  return std::make_unique<UnionAllNode>(std::move(inputs));
}

}  // namespace probkb

#endif  // PROBKB_ENGINE_PLAN_H_
