// The thread-per-rank runtime.
//
// A Fabric plays the role of the machine: it owns the RDMA domain (NICs +
// registration), the collectives context and the two-sided messaging state.
// run_ranks() spawns one OS thread per simulated MPI process and hands each
// a RankCtx. If any rank throws, the fabric aborts: every waiting peer
// notices at its next back-off step and unwinds, and the first exception
// is rethrown to the caller — so a failing test reports an error instead
// of deadlocking the suite.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "fabric/collectives.hpp"
#include "fabric/p2p.hpp"
#include "rdma/nic.hpp"

namespace fompi::fabric {

struct FabricOptions {
  rdma::DomainConfig domain{};
  std::size_t eager_threshold = 8192;
  /// MPI_ERRORS_RETURN analogue at fleet scope: a rank killed by the fault
  /// plan exits its thread quietly (liveness table updated) instead of
  /// aborting the fleet; surviving ranks observe the death as typed
  /// peer_dead failures. Default (false) keeps errors-are-fatal: any rank
  /// death aborts everyone.
  bool errors_return = false;
  /// Hang watchdog: if nonzero, any wait that reaches the domain's progress
  /// hook after this many wall nanoseconds since fabric construction aborts
  /// the fleet with ErrClass::timeout. Catches silently hung ranks (e.g.
  /// FaultPlan::hang_instead_of_kill) that never throw. 0 = disabled.
  std::uint64_t hang_timeout_ns = 0;
};

class Fabric {
 public:
  explicit Fabric(FabricOptions opts);

  int nranks() const noexcept { return domain_.nranks(); }
  rdma::Domain& domain() noexcept { return domain_; }
  Collectives& coll() noexcept { return *coll_; }
  P2P& p2p() noexcept { return *p2p_; }
  const FabricOptions& options() const noexcept { return opts_; }

  /// Records the first failure and wakes all waiters. Const because the
  /// hang watchdog fires from the progress hook on any waiting rank.
  void abort(std::exception_ptr e) const noexcept;
  /// The first recorded failure (null if none). Safe to call after all
  /// rank threads joined.
  std::exception_ptr first_error() const;

  /// Recovery-coordinator election over the fail-stop liveness table: the
  /// lowest rank still alive (-1 when the whole fleet is dead). Deaths only
  /// remove ranks, so the result is monotone nondecreasing over time — a
  /// rank that observes itself elected while a reconfiguration is in flight
  /// knows the previous coordinator (a strictly lower rank) must be dead.
  int lowest_alive() const noexcept;

  /// Named extension slot with fabric lifetime (e.g. the symmetric heap of
  /// the RMA layer). Returns a reference guarded by an internal mutex; use
  /// ext_get/ext_put for thread-safe access.
  std::shared_ptr<void> ext_get(const std::string& key) const;
  /// Stores `value` under `key` unless the key is already set; returns the
  /// value now stored (first writer wins).
  std::shared_ptr<void> ext_put_once(const std::string& key,
                                     std::shared_ptr<void> value);

 private:
  /// The domain's progress hook, polled by every back-off step: fires the
  /// hang watchdog, then raises if the fleet aborted.
  static void progress_hook(void* fabric);

  FabricOptions opts_;
  rdma::Domain domain_;
  std::unique_ptr<Collectives> coll_;
  std::unique_ptr<P2P> p2p_;
  mutable std::atomic<bool> aborted_{false};
  mutable std::mutex abort_mu_;
  mutable std::exception_ptr first_error_;
  std::uint64_t watchdog_deadline_ns_ = 0;  // 0 = watchdog off
  mutable std::mutex ext_mu_;
  std::unordered_map<std::string, std::shared_ptr<void>> ext_;
};

/// Per-rank execution context handed to the rank body. Thin convenience
/// facade over the fabric's services.
class RankCtx {
 public:
  RankCtx(Fabric& fabric, int rank)
      : fabric_(fabric), rank_(rank), nic_(fabric.domain().nic(rank)) {}

  int rank() const noexcept { return rank_; }
  int nranks() const noexcept { return fabric_.nranks(); }
  Fabric& fabric() noexcept { return fabric_; }
  rdma::Nic& nic() noexcept { return nic_; }

  // Collectives.
  void barrier() { fabric_.coll().barrier(rank_); }
  template <class T>
  void bcast(int root, T* data, std::size_t n) {
    fabric_.coll().bcast(rank_, root, data, n);
  }
  template <class T>
  void allgather(const T* src, std::size_t n, T* dst) {
    fabric_.coll().allgather(rank_, src, n, dst);
  }
  template <class T, class BinOp>
  void allreduce(const T* src, T* dst, std::size_t n, BinOp op) {
    fabric_.coll().allreduce(rank_, src, dst, n, op);
  }

  // Two-sided messaging.
  void send(int dst, int tag, const void* buf, std::size_t len) {
    fabric_.p2p().send(rank_, dst, tag, buf, len);
  }
  void recv(int src, int tag, void* buf, std::size_t cap,
            Status* st = nullptr) {
    fabric_.p2p().recv(rank_, src, tag, buf, cap, st);
  }

  /// One polite spin iteration for test and bench loops: yields, then
  /// raises if the fleet aborted. Library waits go through
  /// rdma::Domain::wait_until instead.
  void yield_check() const { std::this_thread::yield(); nic_.domain().progress_check(); }

 private:
  Fabric& fabric_;
  int rank_;
  rdma::Nic& nic_;
};

/// Runs `body` on `nranks` concurrent rank threads over a fresh fabric.
/// Rethrows the first rank failure after all threads joined.
void run_ranks(int nranks, const std::function<void(RankCtx&)>& body,
               FabricOptions opts = {});

}  // namespace fompi::fabric
