// Event-driven simulations of the synchronization protocols at scale:
// the dissemination barrier / fence (Fig 6b) and the PSCW ring (Fig 6c).
#pragma once

#include "perfmodel/cost_functions.hpp"
#include "rdma/network_model.hpp"
#include "simtime/des.hpp"

namespace fompi::sim {

struct SyncParams {
  /// One-way latency of an 8-byte notification message (default: the NIC
  /// model's small-put latency).
  double msg_latency_us = rdma::kGemini.put_base_ns / 1e3;
  /// Software cost at the origin per issued notification (default: the NIC
  /// model's injection overhead).
  double per_msg_overhead_us = rdma::kGemini.inter_overhead_ns / 1e3;
  Noise noise{};
  std::uint64_t seed = 42;
};

/// Runs a dissemination barrier over p simulated processes; returns the
/// time until the last process exits. This is the foMPI fence body
/// (gsync is free with no outstanding operations).
double simulate_dissemination_barrier(int p, const SyncParams& params);

/// Runs one PSCW epoch on a ring (k = 2 neighbors, the Fig 6c benchmark):
/// every process posts to its neighbors, starts, completes, waits, each
/// call charged the paper's cost function (perf::PaperModel). Returns the
/// time until the last process finished wait().
double simulate_pscw_ring(int p, const SyncParams& params);

/// Fence latency series for all transports of Fig 6b at one process count,
/// using the calibrated per-round costs (foMPI 2.9us, UPC 2.0us, CAF 8us,
/// Cray MPI 6us per log2 p round).
struct FenceSeries {
  double fompi_us;
  double upc_us;
  double caf_us;
  double craympi_us;
};
FenceSeries simulate_fence_all(int p, std::uint64_t seed);

/// PSCW latency for foMPI and the Cray MPI comparator (Fig 6c).
struct PscwSeries {
  double fompi_us;
  double craympi_us;
};
PscwSeries simulate_pscw_all(int p, std::uint64_t seed);

}  // namespace fompi::sim
