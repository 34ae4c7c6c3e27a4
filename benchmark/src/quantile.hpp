// Interpolated quantiles of a trace::LatencyHisto.
//
// LatencyHisto::quantile() returns the lower bound of the bucket holding the
// quantile, so with 8 sub-buckets per octave a reported p50 can sit up to
// 12.5% below the true value and snaps between bucket floors from run to
// run. The histogram keeps its counts private; this helper recovers the
// cumulative rank range of the bucket holding the quantile by bisecting
// over quantile() and places the quantile linearly inside the bucket, as if
// the bucket's samples were spread evenly across its value range.
#pragma once

#include <algorithm>
#include <cstdint>

#include "trace/trace.hpp"

namespace fompi::bench {

/// Value (ns) of quantile q in [0, 1] of `h`; 0 when `h` is empty.
inline double interpolated_quantile(const trace::LatencyHisto& h, double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Bucket floor of the k-th smallest sample (1-based). q = k/n makes
  // quantile() pick rank k: it rounds q*n + 0.5 down, with 0.5 of margin.
  const auto floor_at = [&](std::uint64_t k) {
    return h.quantile(static_cast<double>(k) / static_cast<double>(n));
  };
  const std::uint64_t want = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(q * static_cast<double>(n) + 0.5), 1, n);
  const std::uint64_t floor = floor_at(want);

  // First rank whose bucket floor is `floor` (floor_at is nondecreasing).
  std::uint64_t lo = 1, hi = want;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (floor_at(mid) < floor) lo = mid + 1; else hi = mid;
  }
  const std::uint64_t first = lo;
  // Last rank whose bucket floor is `floor`.
  lo = want;
  hi = n;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (floor_at(mid) > floor) hi = mid - 1; else lo = mid;
  }
  const std::uint64_t last = lo;

  const std::size_t bucket = trace::LatencyHisto::bucket_of(floor);
  // The top bucket ends at the largest sample seen, not at the next floor.
  const double top = std::min<double>(
      static_cast<double>(trace::LatencyHisto::bucket_floor(bucket + 1)),
      static_cast<double>(h.max()) + 1.0);
  const double width = top - static_cast<double>(floor);
  const double in_bucket = static_cast<double>(last - first + 1);
  // The j-th of m samples in the bucket sits at floor + (j - 0.5)/m * width.
  const double j = static_cast<double>(want - first) + 0.5;
  return static_cast<double>(floor) + j / in_bucket * width;
}

}  // namespace fompi::bench
