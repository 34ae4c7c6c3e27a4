// Wall-clock timing and calibrated busy-waiting.
//
// The paper measures with the cycle-accurate RDTSC counter; we use
// steady_clock (nanosecond resolution on Linux) and provide calibrated
// spin-waits. Modeled network time is charged and waited for only by
// rdma::Nic (charge_model_ns / wait_model_time), which builds on these;
// elsewhere spin_for_ns stands in for compute in benches and tests. Long
// spins yield: a non-yielding spinner would starve a co-scheduled rank.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace fompi {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary epoch.
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Simple start/elapsed timer.
class Timer {
 public:
  Timer() : start_(now_ns()) {}
  void restart() noexcept { start_ = now_ns(); }
  std::uint64_t elapsed_ns() const noexcept { return now_ns() - start_; }
  double elapsed_us() const noexcept {
    return static_cast<double>(elapsed_ns()) / 1e3;
  }

 private:
  std::uint64_t start_;
};

/// Busy-wait for `ns` nanoseconds. Model-time waits have no peer
/// dependency (they only let virtual time pass), so short waits busy-spin
/// for timing fidelity; longer waits yield so that co-scheduled rank
/// threads on a small machine still make progress.
inline void spin_for_ns(std::uint64_t ns) noexcept {
  if (ns == 0) return;
  constexpr std::uint64_t kYieldThreshold = 5'000;  // 5 us
  const std::uint64_t deadline = now_ns() + ns;
  if (ns <= kYieldThreshold) {
    while (now_ns() < deadline) {
      asm volatile("" ::: "memory");
    }
    return;
  }
  while (now_ns() < deadline) std::this_thread::yield();
}

/// Busy-wait until an absolute now_ns() deadline; returns the reading that
/// ended the wait (at or past the deadline), so a caller that keeps its
/// latest reading needs no read of its own. For callers that already
/// anchored the deadline to a clock read: re-anchoring through spin_for_ns
/// would cost an extra clock read per op (~35 ns on a 4-vCPU x86 host) and
/// drift modeled time by it. Same yield policy as spin_for_ns.
inline std::uint64_t spin_until_ns(std::uint64_t deadline) noexcept {
  constexpr std::uint64_t kYieldThreshold = 5'000;  // 5 us
  std::uint64_t t = now_ns();
  while (t < deadline) {
    if (deadline - t > kYieldThreshold) std::this_thread::yield();
    t = now_ns();
  }
  return t;
}

/// Robust summary statistics over a sample of measurements.
struct Stats {
  double min = 0, median = 0, mean = 0, max = 0;
};

/// Computes summary statistics; sorts `samples` in place.
Stats summarize(std::vector<double>& samples);

}  // namespace fompi
