#include "simtime/sim_apps.hpp"

#include <algorithm>
#include <cmath>

#include "rdma/network_model.hpp"

namespace fompi::sim {

namespace {
using rdma::kGemini;
// The NIC's costs the forms read more than once, in microseconds.
constexpr double kOverheadUs = kGemini.inter_overhead_ns / 1e3;
constexpr double kIntraOverheadUs = kGemini.intra_overhead_ns / 1e3;
constexpr double kPutBaseUs = kGemini.put_base_ns / 1e3;

double log2d(double x) { return std::log2(std::max(2.0, x)); }
}  // namespace

HashtableSeries simulate_hashtable(int p, const HashtableParams& prm) {
  HashtableSeries out{};
  // Fraction of inserts that stay on-node under uniform random keys.
  const double intra_frac =
      p <= prm.ranks_per_node
          ? 1.0
          : static_cast<double>(prm.ranks_per_node) / static_cast<double>(p);
  const double ops_per_insert = 1.0 + 2.0 * prm.collision_rate;

  // RMA transports: pipelined AMOs, injection limited.
  auto rma_rate = [&](double extra_us) {
    const double op_us =
        (intra_frac * kIntraOverheadUs + (1 - intra_frac) * kOverheadUs +
         extra_us) *
        ops_per_insert;
    return static_cast<double>(p) / op_us * 1e6 / 1e9;  // G inserts/s
  };
  out.fompi_ginserts = rma_rate(0.0);
  out.upc_ginserts = rma_rate(prm.upc_extra_us);

  // MPI-1 active messages: every insert consumes handler service time at
  // the owner (the owner core alternates inserting and serving), degraded
  // by matching-queue congestion as the sender count grows, and every
  // batch ends with an O(p) termination-detection notification per rank.
  const double congestion =
      1.0 + prm.mpi1_congestion_c * log2d(p) * log2d(p);
  const double insert_cost_us =
      intra_frac * (kIntraOverheadUs + prm.mpi1_service_us * 0.4) +
      (1 - intra_frac) * (kOverheadUs + prm.mpi1_service_us * congestion);
  const double batch_us = prm.inserts_per_rank * insert_cost_us +
                          static_cast<double>(p) * prm.mpi1_notify_us;
  out.mpi1_ginserts = static_cast<double>(p) * prm.inserts_per_rank /
                      batch_us * 1e6 / 1e9;
  return out;
}

FftSeries simulate_fft(int p, const FftParams& prm) {
  const double n3 = prm.nx * prm.ny * prm.nz;
  const double flops = 5.0 * n3 * std::log2(n3);
  const double comp_s = flops / (static_cast<double>(p) *
                                 prm.flops_per_core_gfs * 1e9);
  // Two transposes; every process exchanges its full slab. The effective
  // bandwidth degrades with the process count (torus bisection).
  const double bytes_per_rank = 2.0 * n3 * 16.0 / static_cast<double>(p);
  const double comm_s = bytes_per_rank / (prm.bw_per_rank_gbs * 1e9) *
                        std::pow(static_cast<double>(p) / 1024.0,
                                 prm.congestion_exp);

  auto gflops = [&](double overlap) {
    const double t =
        std::max(comp_s, comm_s) + (1.0 - overlap) * std::min(comp_s, comm_s);
    return flops / t / 1e9;
  };
  FftSeries out{};
  out.mpi1_gflops = gflops(prm.mpi1_overlap);
  out.upc_gflops = gflops(prm.upc_overlap);
  out.fompi_gflops = gflops(prm.fompi_overlap);
  return out;
}

double simulate_msgrate_mops(const MsgRateParams& prm) {
  const int b = std::max(1, prm.batch);
  const double sw = prm.sw_issue_ns;
  // A chain of n descriptors: its doorbell starts at the first post, and
  // the other n-1 posts overlap it.
  const auto chain_ns = [&](int n) {
    return sw + std::max(kGemini.doorbell_ns(static_cast<std::size_t>(n), true),
                         sw * (n - 1));
  };
  // The NIC rings every rdma::kDoorbellDescs descriptors (Nic::batch_enqueue),
  // so a larger batch is several full chains plus a partial one.
  const int full = b / static_cast<int>(rdma::kDoorbellDescs);
  const int rest = b % static_cast<int>(rdma::kDoorbellDescs);
  const double batch_ns =
      full * chain_ns(static_cast<int>(rdma::kDoorbellDescs)) +
      (rest != 0 ? chain_ns(rest) : 0.0);
  return b / batch_ns * 1e3;  // ns per batch -> Mops/s
}

MilcSeries simulate_milc(int p, const MilcParams& prm) {
  const double comp_us = prm.local_sites * prm.flops_per_site /
                         (prm.flops_per_core_gfs * 1e9) * 1e6;
  // Halo exchange: 8 directions, message size fixed under weak scaling.
  const double halo_bw_us = prm.halo_bytes * (kGemini.put_byte_ns / 1e3);
  const double rma_halo_us = 8.0 * (kOverheadUs + halo_bw_us) + kPutBaseUs +
                             kGemini.amo_base_ns / 1e3;  // flag AMO + flush
  const double mpi1_halo_us =
      8.0 * (kOverheadUs + halo_bw_us + prm.mpi1_halo_extra_us) +
      2.0 * kPutBaseUs;
  const double allreduce_us = prm.allreduce_per_log_us * log2d(p);
  const double noise = 1.0 + prm.noise_factor_per_log * log2d(p) * log2d(p);

  auto total_s = [&](double halo_us) {
    return prm.iterations * (comp_us + halo_us + allreduce_us) * noise / 1e6;
  };
  MilcSeries out{};
  out.mpi1_s = total_s(mpi1_halo_us);
  out.fompi_s = total_s(rma_halo_us);
  out.upc_s = total_s(rma_halo_us * 1.02);  // UPC ~ foMPI (Fig 8)
  return out;
}

}  // namespace fompi::sim
