#ifndef PROBKB_MPP_COST_MODEL_H_
#define PROBKB_MPP_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace probkb {

/// \brief Cost parameters of the shared-nothing simulator.
///
/// The host is a single machine, so segment-local work is *measured*
/// (wall-clock per segment) and interconnect traffic is *modelled*: motions
/// charge a fixed startup latency plus a per-tuple ship cost. Defaults are
/// calibrated so the ratio between a broadcast and a redistribute of the
/// same input matches the paper's Figure 4 sample run (8.06 s broadcast vs
/// 0.85 s redistribute at 10M rows, 32 segments).
struct CostParams {
  /// Seconds to ship one tuple between two segments (redistribute).
  double seconds_per_shipped_tuple = 8.5e-8;
  /// Broadcast ships rows x (N-1) tuples but pays less per tuple: the row
  /// is serialized once and fanned out over parallel links. Calibrated so
  /// that broadcasting vs redistributing the same input on 32 segments
  /// costs 9.5x more, the ratio of Figure 4's sample run (8.06s vs 0.85s).
  double broadcast_tuple_discount = 0.31;
  /// Fixed per-motion startup latency (seconds).
  double motion_latency = 3e-4;
};

/// \brief One accounted step of a distributed execution: either a motion or
/// a per-segment compute phase. Feeds both the total simulated time and the
/// Figure-4-style plan printouts.
struct MppStep {
  enum class Kind { kCompute, kRedistribute, kBroadcast, kGather };
  Kind kind = Kind::kCompute;
  std::string label;
  /// Tuples put on the interconnect by this step (0 for compute).
  int64_t tuples_shipped = 0;
  /// Max per-segment wall-clock (compute) or modelled time (motion).
  double seconds = 0.0;
  /// Sum of per-segment wall-clock; what a 1-segment engine would pay.
  double total_work_seconds = 0.0;

  std::string ToString() const;
};

/// \brief Accumulated cost of a distributed execution.
class MppCost {
 public:
  void Add(MppStep step) {
    simulated_seconds_ += step.seconds;
    total_work_seconds_ += step.kind == MppStep::Kind::kCompute
                               ? step.total_work_seconds
                               : step.seconds;
    tuples_shipped_ += step.tuples_shipped;
    steps_.push_back(std::move(step));
  }

  /// Simulated elapsed time: per-step max-over-segments compute plus
  /// motion time, summed over steps.
  double simulated_seconds() const { return simulated_seconds_; }
  /// What the same plan costs with no parallelism (sum of segment work).
  double total_work_seconds() const { return total_work_seconds_; }
  int64_t tuples_shipped() const { return tuples_shipped_; }
  const std::vector<MppStep>& steps() const { return steps_; }

  void Clear() {
    simulated_seconds_ = 0;
    total_work_seconds_ = 0;
    tuples_shipped_ = 0;
    steps_.clear();
  }

  /// \brief Plan-trace rendering in the style of the paper's Figure 4.
  std::string ToString() const;

 private:
  double simulated_seconds_ = 0;
  double total_work_seconds_ = 0;
  int64_t tuples_shipped_ = 0;
  std::vector<MppStep> steps_;
};

}  // namespace probkb

#endif  // PROBKB_MPP_COST_MODEL_H_
