// Dynamic sparse data exchange at scale (Fig 7b): the four protocols of
// Hoefler et al. [15] — personalized alltoall, reduce_scatter, NBX
// (nonblocking barrier + synchronous sends), and RMA accumulates in active
// target mode — with k random neighbors per process. Message latency,
// injection overhead and the accumulate's AMO latency are the NIC's own
// model (rdma::kGemini).
#pragma once

#include <cstdint>

namespace fompi::sim {

struct DsdeParams {
  int k = 6;                    ///< random neighbors per process
  std::uint64_t seed = 42;
  /// Extra per-message software cost of the two-sided path (matching +
  /// synchronous-send handshake bookkeeping); the NBX rounds run over MPI
  /// point-to-point, not raw RDMA, which is why measured LibNBC sits above
  /// the foMPI RMA curve in Fig 7b.
  double p2p_msg_extra_us = 1.5;
};

struct DsdeSeries {
  double fompi_rma_us;      ///< accumulate + PSCW/fence (foMPI)
  double mpi22_rma_us;      ///< same protocol over Cray MPI-2.2 one sided
  double nbx_us;            ///< LibNBC-style nonblocking barrier protocol
  double reduce_scatter_us; ///< counts via reduce_scatter, then sends
  double alltoall_us;       ///< counts via alltoall, then sends
};

/// Simulates one complete exchange at `p` processes. NBX and the RMA
/// fences run event-driven; the dense collectives use the standard
/// algorithm cost models (pairwise exchange / recursive halving).
DsdeSeries simulate_dsde(int p, const DsdeParams& params = {});

}  // namespace fompi::sim
