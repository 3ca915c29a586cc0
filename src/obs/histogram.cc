#include "obs/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace probkb {

namespace {

/// Highest microsecond magnitude the bucket table covers: 2^42 us ~ 50
/// days; anything larger clamps into the top bucket.
constexpr int kMaxOctave = 42;
constexpr int kSubShift = 4;  // log2(kSubBuckets)

constexpr int kNumBuckets =
    LatencyHistogram::kSubBuckets +
    (kMaxOctave - kSubShift) * LatencyHistogram::kSubBuckets;

}  // namespace

LatencyHistogram::LatencyHistogram()
    : buckets_(static_cast<size_t>(kNumBuckets), 0) {}

int LatencyHistogram::BucketIndex(int64_t us) {
  if (us < kSubBuckets) return static_cast<int>(us);  // exact 0..15 us
  int msb = 63;
  while ((us & (int64_t{1} << msb)) == 0) --msb;
  if (msb > kMaxOctave) {
    msb = kMaxOctave;
    us = int64_t{1} << kMaxOctave;
  }
  // Values in [2^msb, 2^(msb+1)) subdivide into kSubBuckets linear slots.
  const int sub = static_cast<int>(us >> (msb - kSubShift)) - kSubBuckets;
  int index = (msb - kSubShift) * kSubBuckets + kSubBuckets + sub;
  return std::min(index, kNumBuckets - 1);
}

double LatencyHistogram::BucketMidpointUs(int index) {
  if (index < kSubBuckets) return static_cast<double>(index);
  const int octave = (index - kSubBuckets) / kSubBuckets + kSubShift;
  const int sub = (index - kSubBuckets) % kSubBuckets;
  const double lo =
      std::ldexp(1.0, octave) * (1.0 + static_cast<double>(sub) / kSubBuckets);
  const double width = std::ldexp(1.0, octave) / kSubBuckets;
  return lo + width / 2.0;
}

void LatencyHistogram::Record(double seconds, uint64_t exemplar_trace) {
  if (seconds < 0) seconds = 0;
  const int64_t us = static_cast<int64_t>(seconds * 1e6);
  const int bucket = BucketIndex(us);
  ++buckets_[static_cast<size_t>(bucket)];
  ++count_;
  sum_seconds_ += seconds;
  if (seconds > max_seconds_) max_seconds_ = seconds;
  if (exemplar_trace != 0 && bucket >= exemplar_bucket_) {
    exemplar_bucket_ = bucket;
    exemplar_trace_ = exemplar_trace;
  }
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p >= 100.0) return max_seconds_;
  if (p < 0.0) p = 0.0;
  // Rank of the requested percentile (1-based, ceil): the smallest bucket
  // whose cumulative count reaches it holds the answer.
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p / 100.0 *
                                        static_cast<double>(count_))));
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[static_cast<size_t>(i)];
    if (seen >= rank) {
      // Never report beyond the exactly tracked max (the top recorded
      // value sits somewhere inside its bucket).
      return std::min(BucketMidpointUs(i) / 1e6, max_seconds_);
    }
  }
  return max_seconds_;
}

std::string LatencyHistogram::Summary() const {
  return StrFormat("n=%lld p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms",
                   static_cast<long long>(count_), Percentile(50) * 1e3,
                   Percentile(95) * 1e3, Percentile(99) * 1e3,
                   max_seconds_ * 1e3);
}

}  // namespace probkb
