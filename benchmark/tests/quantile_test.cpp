// Unit test of interpolated_quantile: synthetic samples with known exact
// quantiles must be recovered within 1%, where the raw bucket floor that
// LatencyHisto::quantile() returns can be off by up to 12.5%.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <vector>

#include "quantile.hpp"

using fompi::bench::interpolated_quantile;
using fompi::trace::LatencyHisto;

namespace {

int failures = 0;

void check(bool ok, const char* what, double got, double want) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s: got %.3f want %.3f\n", what, got, want);
  }
}

/// n samples x_i = inv_cdf((i + 0.5) / n); returns the worst raw-floor error
/// over the checked quantiles.
double run_case(const char* name, int n,
                const std::function<double(double)>& inv_cdf) {
  std::vector<std::uint64_t> xs(static_cast<std::size_t>(n));
  LatencyHisto h;
  for (int i = 0; i < n; ++i) {
    xs[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(
        std::llround(inv_cdf((i + 0.5) / n)));
    h.add(xs[static_cast<std::size_t>(i)]);
  }
  std::sort(xs.begin(), xs.end());
  double worst_raw = 0;
  // The benchmark reports p50 and p99. Further out, an exponential tail
  // decays by 2x across one bucket, and the even-spread assumption misses
  // by ~1.2% at p99.9.
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    // Nearest-rank definition: the ceil(q*n)-th smallest sample.
    const auto k = static_cast<std::size_t>(std::ceil(q * n));
    const double exact = static_cast<double>(xs[k - 1]);
    const double got = interpolated_quantile(h, q);
    const double raw = static_cast<double>(h.quantile(q));
    const double err = std::abs(got - exact) / exact;
    const double raw_err = std::abs(raw - exact) / exact;
    worst_raw = std::max(worst_raw, raw_err);
    std::printf("%-12s q=%-6g exact=%10.1f interp=%10.1f (%.3f%%) "
                "floor=%10.1f (%.2f%%)\n",
                name, q, exact, got, 100 * err, raw, 100 * raw_err);
    check(err <= 0.01, name, got, exact);
    check(raw_err <= 0.125, "raw floor within one bucket", raw, exact);
  }
  return worst_raw;
}

}  // namespace

int main() {
  constexpr int kN = 200000;
  double worst_raw = 0;
  worst_raw = std::max(worst_raw, run_case("uniform", kN, [](double u) {
    return 1000.0 + u * 100000.0;
  }));
  worst_raw = std::max(worst_raw, run_case("exponential", kN, [](double u) {
    return 500.0 - 20000.0 * std::log1p(-u);
  }));
  // A narrow band like the fleet's HOL-blocked read p50 (180-197 us), the
  // case where raw floors snap between 163.84 and 196.61 us.
  worst_raw = std::max(worst_raw, run_case("narrow", kN, [](double u) {
    return 180000.0 + u * 17000.0;
  }));
  // The helper earns its keep only if the raw floor is visibly off.
  check(worst_raw > 0.05, "raw floor error is material", worst_raw, 0.05);

  LatencyHisto empty;
  check(interpolated_quantile(empty, 0.5) == 0.0, "empty histogram", 0, 0);
  LatencyHisto one;
  one.add(12345);
  const double v = interpolated_quantile(one, 0.99);
  check(v >= 11000 && v <= 12346, "single sample stays in its bucket", v,
        12345);

  if (failures != 0) {
    std::printf("quantile_test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("quantile_test: ok\n");
  return 0;
}
