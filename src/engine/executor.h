#ifndef PROBKB_ENGINE_EXECUTOR_H_
#define PROBKB_ENGINE_EXECUTOR_H_

#include "engine/exec_context.h"
#include "engine/plan.h"
#include "util/result.h"

namespace probkb {

/// \brief Runs a plan tree and returns its result table.
///
/// The executor half of the plan layer: PlanNode::Execute bodies live in
/// executor.cc and read their serial/parallel cutoffs from the constants
/// of engine/tunables.h.
/// Each node also records its observed output cardinality on itself
/// (PlanNode::obs_rows), so an executed tree doubles as an EXPLAIN ANALYZE
/// artifact the planner's next iteration feeds on.
Result<TablePtr> ExecutePlan(PlanNode* root, ExecContext* ctx);

}  // namespace probkb

#endif  // PROBKB_ENGINE_EXECUTOR_H_
