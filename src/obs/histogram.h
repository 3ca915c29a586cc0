#ifndef PROBKB_OBS_HISTOGRAM_H_
#define PROBKB_OBS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace probkb {

/// \brief HDR-style latency histogram: exponentially growing buckets with
/// 16-way linear subdivision per octave, so any recorded value lands in a
/// bucket within ~6% of its true magnitude while the whole range from 1
/// microsecond to hours fits in under a thousand fixed counters.
///
/// Record() is two integer ops plus one counter increment — cheap enough
/// for per-operator and per-sweep instrumentation. Not thread-safe; every
/// recording site in this codebase reports from the orchestrating thread
/// (the StatsRegistry contract).
class LatencyHistogram {
 public:
  LatencyHistogram();

  /// \brief Records one latency in seconds (negative values clamp to 0).
  /// A non-zero `exemplar_trace` becomes the tail exemplar when the value
  /// lands in (or above) the bucket of the current one.
  void Record(double seconds, uint64_t exemplar_trace = 0);

  int64_t count() const { return count_; }
  double sum_seconds() const { return sum_seconds_; }
  double max_seconds() const { return max_seconds_; }

  /// \brief The trace id of the latest traced recording in the highest
  /// bucket any traced recording reached (0 when none has been seen), so a
  /// tail latency in the report links straight to its trace.
  uint64_t tail_exemplar() const { return exemplar_trace_; }

  /// \brief Value at percentile `p` in [0, 100], in seconds, from the
  /// bucket midpoints (0 for an empty histogram). Percentile(100) reports
  /// the exactly tracked maximum.
  double Percentile(double p) const;

  /// \brief "n=5 p50=1.2ms p95=3.4ms p99=3.9ms max=4.1ms".
  std::string Summary() const;

  /// Linear sub-buckets per octave; the bucketing precision knob.
  static constexpr int kSubBuckets = 16;

 private:
  static int BucketIndex(int64_t us);
  /// Midpoint of bucket `index`, in microseconds.
  static double BucketMidpointUs(int index);

  std::vector<int64_t> buckets_;
  int exemplar_bucket_ = -1;
  uint64_t exemplar_trace_ = 0;
  int64_t count_ = 0;
  double sum_seconds_ = 0.0;
  double max_seconds_ = 0.0;
};

}  // namespace probkb

#endif  // PROBKB_OBS_HISTOGRAM_H_
