// Exponential back-off state for waits and retry loops. The paper
// prescribes exponential back-off on all waits/retries to avoid congesting
// the target NIC.
//
// A Backoff only holds the spin bound. Stepping it is reserved to the RDMA
// layer: every blocking wait steps through rdma::Domain::backoff_step (one
// yield, the domain's progress hook, then the spin), so no wait can skip
// the fleet-abort check; the NIC's bounded retransmission pause, which runs
// inside an issue, steps through pause().
#pragma once

#include <cstdint>
#include <thread>

#include "common/instr.hpp"

namespace fompi {

namespace rdma {
class Domain;
class Nic;
}  // namespace rdma

class Backoff {
 public:
  explicit Backoff(std::uint32_t max_spins = 1024) : max_(max_spins) {}

  /// Restarts the exponential growth (a wait that made progress).
  void reset() noexcept { cur_ = 1; }

 private:
  friend class rdma::Domain;
  friend class rdma::Nic;

  /// One step without the progress hook: yield, then spin.
  void pause() noexcept {
    std::this_thread::yield();
    spin();
  }

  /// The exponential part of a step; counts one Op::retry.
  void spin() noexcept {
    count(Op::retry);
    for (std::uint32_t i = 0; i < cur_; ++i) {
      // Dependency chain the optimizer cannot remove but that costs ~1ns.
      asm volatile("" ::: "memory");
    }
    if (cur_ < max_) cur_ *= 2;
  }

  std::uint32_t cur_ = 1;
  std::uint32_t max_;
};

}  // namespace fompi
