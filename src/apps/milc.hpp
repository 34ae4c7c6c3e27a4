// MILC-like 4D lattice solver (Sec 4.4, Fig 8).
//
// A proxy for the su3_rmd conjugate-gradient phase: a scalar field on a
// 4D rectangular lattice, 4D domain decomposition, halo exchange in all
// eight directions each iteration, and regular allreductions for solver
// convergence — the exact communication pattern the paper optimizes.
//
// Three communication backends: the paper's comparison plus one notified
// variant:
//   * p2p — MPI-1: nonblocking sendrecv halo exchange;
//   * rma — the UPC/foMPI scheme from Sec 4.4: communication buffers live
//     in a window under one long-lived lock_all epoch; a producer packs
//     its boundary, flushes, then notifies each neighbor with an atomic
//     fetch-and-add; consumers wait for the flag and *get* the halo data
//     from the producer's window;
//   * rma_notify_queue — put-with-notification: each halo rides
//     Win::put_notify into the neighbor's receive buffer and its record
//     into the neighbor's notification ring.
//
// The operator is A = I + kappa * L (L the 8-point 4D Laplacian), SPD for
// small kappa, solved with plain CG. Tests verify that the backends
// produce identical iterates and that CG converges to the true solution.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/window.hpp"
#include "fabric/collectives.hpp"

namespace fompi::apps {

enum class MilcBackend {
  p2p,           ///< MPI-1 nonblocking sendrecv halos
  rma,           ///< the paper's pack/flush/flag/get scheme
  rma_notify_queue,  ///< put-with-notification: the halo rides
                     ///< Win::put_notify into the notification ring and
                     ///< the consumer tag-matches one record per
                     ///< direction (no per-direction flag words at all)
};

struct MilcConfig {
  std::array<int, 4> local{4, 4, 4, 8};  ///< local lattice (paper: 4^3 x 8)
  std::array<int, 4> grid{1, 1, 1, 1};   ///< process grid, prod = nranks
  double kappa = 0.1;
  MilcBackend backend = MilcBackend::rma;
};

class MilcSolver {
 public:
  /// Collective.
  MilcSolver(fabric::RankCtx& ctx, const MilcConfig& cfg);
  void destroy(fabric::RankCtx& ctx);

  std::size_t local_sites() const noexcept { return volume_; }

  /// Applies A = I + kappa*L to `in`, writing `out` (both interior-sized,
  /// indexed by local site). Performs one halo exchange.
  void apply_operator(fabric::RankCtx& ctx, const std::vector<double>& in,
                      std::vector<double>& out);

  /// Solves A x = b by CG; returns the iteration count. `x` is the
  /// initial guess on input and the solution on output.
  int solve_cg(fabric::RankCtx& ctx, const std::vector<double>& b,
               std::vector<double>& x, double tol, int max_iters,
               std::vector<double>* residual_history = nullptr);

  /// Global dot product (allreduce) — exposed for tests.
  double dot(fabric::RankCtx& ctx, const std::vector<double>& a,
             const std::vector<double>& b) const;

  int neighbor(int dim, int dir) const;  ///< rank of the ±1 neighbor

 private:
  // Halo-extended field helpers.
  std::size_t hidx(int x, int y, int z, int t) const;  // halo coordinates
  void pack_face(const std::vector<double>& field, int dim, int dir,
                 double* buf) const;
  void unpack_face(std::vector<double>& halo_field, int dim, int dir,
                   const double* buf) const;
  void exchange_halos(fabric::RankCtx& ctx, std::vector<double>& halo_field);

  MilcConfig cfg_;
  int rank_ = -1, nranks_ = 0;
  std::array<int, 4> coords_{};
  std::array<int, 4> ext_{};  // local + 2 halo
  std::size_t volume_ = 0;
  std::size_t halo_volume_ = 0;
  std::array<std::size_t, 4> face_elems_{};

  // RMA backend state: window = [flags (8 slots) | send buffers per dir].
  core::Win win_;
  std::array<std::size_t, 8> buf_off_{};
  std::uint64_t epoch_ = 0;  // expected flag value, grows per exchange

  // Notify-queue backend state: receive buffers per direction, halo
  // arrives together with its notification record.
  std::array<std::size_t, 8> recv_off_{};

  // Persistent allreduce for the CG dot products: geometry planned once
  // at construction, every dot() re-drives it allocation-free.
  std::shared_ptr<fabric::AllreducePlan> dot_plan_;
};

/// Builds a process grid for `p` ranks: factors p into 4 near-equal
/// power-of-two-ish factors.
std::array<int, 4> milc_default_grid(int p);

}  // namespace fompi::apps
