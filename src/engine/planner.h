#ifndef PROBKB_ENGINE_PLANNER_H_
#define PROBKB_ENGINE_PLANNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/plan.h"

namespace probkb {

/// \brief Interconnect cost parameters the optimizer plans against.
///
/// A plain mirror of the simulator's CostParams (mpp/cost_model.h) plus the
/// segment count — kept as its own struct so the engine layer never depends
/// on src/mpp. The MPP grounder constructs one from its live CostParams, so
/// the optimizer and the cost accounting always agree.
struct MotionCostModel {
  /// Seconds to ship one tuple between two segments (redistribute).
  double seconds_per_shipped_tuple = 8.5e-8;
  /// Broadcast per-tuple discount (serialized once, fanned out).
  double broadcast_tuple_discount = 0.31;
  /// Fixed per-motion startup latency (seconds).
  double motion_latency = 3e-4;
  int num_segments = 1;
};

/// \brief The motions a distributed hash join can open with (paper §5).
enum class MotionChoice { kRedistribute, kBroadcastRight, kBroadcastLeft };

const char* MotionChoiceToString(MotionChoice c);

/// \brief One join-motion question: statement identity plus the sizes and
/// placement of both inputs. `left_rows`/`right_rows` may be exact (the
/// input is already materialized) or estimates from observed history.
struct JoinMotionQuery {
  std::string statement;       // history / decision-log key
  int64_t left_rows = 0;
  int64_t right_rows = 0;
  bool left_collocated = false;   // already hash-placed on the join key
  bool right_collocated = false;
  bool inner_join = true;         // broadcast-left is only sound for inner
  bool from_observation = false;  // sizes came from observed history
};

/// \brief A scored motion decision: the chosen motion plus the modelled
/// seconds of every candidate, for EXPLAIN output and tests.
struct MotionDecision {
  MotionChoice choice = MotionChoice::kRedistribute;
  double redistribute_seconds = 0.0;
  double broadcast_right_seconds = 0.0;
  double broadcast_left_seconds = 0.0;  // +inf when not applicable

  std::string ToString() const;
};

/// \brief Feedback-driven cost-based optimizer for grounding statements.
///
/// Closes the loop ROADMAP item 5 asks for: the executor records observed
/// per-statement cardinalities (ObserveRows), and the next semi-naive
/// iteration's plan is chosen from those measurements (ObservedRows feeding
/// JoinMotionQuery sizes). Cold start falls back to the paper-§5 heuristics
/// the static rules encoded: inputs already collocated redistribute for
/// free, small non-collocated inputs against partitioned state broadcast.
///
/// Determinism contract: decisions are pure functions of (model, observed
/// history, query), history is an ordered map, and ties break in the fixed
/// order redistribute < broadcast-right < broadcast-left — so for a fixed
/// stats history the chosen plan is deterministic. Motion choice only moves
/// the same tuples along different routes; result bit-identity across
/// choices is enforced by the canonical atom merge (mpp_grounder.cc).
class AdaptivePlanner {
 public:
  explicit AdaptivePlanner(MotionCostModel model) : model_(model) {}

  /// Records the observed output cardinality of `key` (latest wins).
  void ObserveRows(const std::string& key, int64_t rows) {
    observed_[key] = rows;
  }
  /// Returns the last observation for `key`, or `fallback` if none.
  int64_t ObservedRows(const std::string& key, int64_t fallback) const {
    auto it = observed_.find(key);
    return it != observed_.end() ? it->second : fallback;
  }
  bool HasObservation(const std::string& key) const {
    return observed_.count(key) > 0;
  }

  /// Chooses the cheapest motion for a join under the cost model and logs
  /// the decision (retrievable via ExplainDecisions / decisions()).
  MotionDecision DecideJoinMotion(const JoinMotionQuery& q);

  const MotionCostModel& model() const { return model_; }
  const std::vector<std::pair<JoinMotionQuery, MotionDecision>>& decisions()
      const {
    return decision_log_;
  }

  /// Stable one-line-per-decision rendering for --explain and goldens.
  std::string ExplainDecisions() const;
  void ClearDecisionLog() { decision_log_.clear(); }

 private:
  MotionCostModel model_;
  std::map<std::string, int64_t> observed_;
  std::vector<std::pair<JoinMotionQuery, MotionDecision>> decision_log_;
};

/// \brief Annotates `est_rows` on every node of a plan tree, bottom-up:
/// scans estimate their actual table size; inner joins estimate
/// max(left, right) (the paper's grounding joins are key/foreign-key
/// shaped); semi/anti joins and unary operators estimate their left/only
/// child; UNION ALL sums. If `planner` has an observation under
/// `statement`, it overrides the root's heuristic — that is the feedback
/// loop: iteration N's observed output is iteration N+1's estimate.
/// Returns the root estimate.
int64_t AnnotatePlanEstimates(PlanNode* root,
                              const AdaptivePlanner* planner = nullptr,
                              const std::string& statement = "");

}  // namespace probkb

#endif  // PROBKB_ENGINE_PLANNER_H_
