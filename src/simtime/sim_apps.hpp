// Application-scale models (Figs 7a, 7c, 8).
//
// The thread-rank runtime runs the real applications at up to dozens of
// ranks (src/apps); these models extend the curves to the paper's scales
// (32k / 64k / 512k processes) using per-operation costs and flow
// arguments. The Gemini costs come from the NIC's own model
// (rdma::kGemini); the calibrations of the comparators, the flop rates and
// the noise are documented inline. The claims these models support are
// about curve *shape* (who wins, where the crossovers are), not absolute
// numbers.
#pragma once

#include <cstdint>

namespace fompi::sim {

// --- Fig 7a: distributed hashtable ------------------------------------------------

struct HashtableParams {
  int inserts_per_rank = 16384;
  int ranks_per_node = 32;       ///< Blue Waters XE6: 32 cores/node
  double upc_extra_us = 0.020;   ///< UPC runtime per-op cost on top
  double mpi1_service_us = 2.5;  ///< active-message handler + matching
  double mpi1_notify_us = 8.0;   ///< one termination-detection message
                                 ///< (matched against a flooded queue)
  /// Matching/flow-control degradation of the active-message path: the
  /// receiver scans ever-longer queues as the number of concurrent senders
  /// grows, and bounded unexpected-queue flow control stalls the senders.
  /// Effective service time multiplies by (1 + c * log2(p)^2); calibrated
  /// so that MPI-1 at 32k cores stays below the single-node RMA insert
  /// rate, the paper's headline observation for Fig 7a.
  double mpi1_congestion_c = 0.08;
  double collision_rate = 0.15;  ///< fraction of inserts taking the
                                 ///< overflow path (2 extra AMOs)
};

struct HashtableSeries {
  double fompi_ginserts;  ///< billion inserts per second
  double upc_ginserts;
  double mpi1_ginserts;
};

/// Throughput model: RMA inserts are pipelined and injection-limited (an
/// AMO issue costs the NIC model's intra- or inter-node overhead); the
/// MPI-1 active-message scheme pays the handler service time plus an O(p)
/// termination-detection phase per batch (each process notifies all
/// others), which caps its scaling exactly as the paper describes.
HashtableSeries simulate_hashtable(int p, const HashtableParams& params = {});

// --- Fig 7c: 3D FFT ------------------------------------------------------------------

struct FftParams {
  // NAS class D: 2048 x 1024 x 1024 complex points.
  double nx = 2048, ny = 1024, nz = 1024;
  double flops_per_core_gfs = 1.1;  ///< sustained per-core FFT rate
  /// Effective per-rank transpose bandwidth at the 1024-process baseline.
  double bw_per_rank_gbs = 1.08;
  /// Alltoall congestion: the 3D-torus bisection grows only as p^(2/3),
  /// so the per-rank transpose time shrinks slower than 1/p; the exponent
  /// is calibrated against the Fig 7c gains (comm/comp crossover between
  /// 1k and 64k processes).
  double congestion_exp = 0.375;
  double mpi1_overlap = 0.10;   ///< overlap efficiency, nonblocking MPI
  double upc_overlap = 0.90;    ///< UPC slab pipeline
  double fompi_overlap = 0.95;  ///< foMPI slab (lower static overhead,
                                ///< cf. Fig 5a)
};

struct FftSeries {
  double mpi1_gflops;
  double upc_gflops;
  double fompi_gflops;
};

/// Strong-scaling model: per-process compute F/p plus two transposes of
/// N^3*16/p bytes, with transport-specific comm/comp overlap.
FftSeries simulate_fft(int p, const FftParams& params = {});

// --- Fig 5b companion: small-op message rate under doorbell batching --------------

struct MsgRateParams {
  /// Software issue cost per descriptor (fast-path instruction veneer).
  double sw_issue_ns = 20.0;
  int batch = 64;  ///< descriptors posted in one batch scope
};

/// Closed-form small-op injection rate in Mops/s, with the NIC model's
/// per-doorbell overhead (inter_overhead_ns) and chain link (chain_ns).
/// A chain of n descriptors takes
///
///   chain(n) = sw + max(overhead + chain*(n-1), sw*(n-1))
///
/// A doorbell starts at its chain's first post (Nic::batch_flush), so
/// posting the other n-1 descriptors overlaps its overhead and chain,
/// and the next chain's first post waits for whichever ends last. The NIC
/// rings a doorbell every rdma::kDoorbellDescs (64) descriptors, so a
/// batch of b is floor(b/64) full chains plus one of b mod 64, and
/// rate = b / (sum of its chains): batch 128 reads the batch-64 rate.
/// batch=1 reduces to the classic per-op rate 1/(overhead + sw) ~ 2.3 Mops/s,
/// matching the Fig 5b put message-rate plateau (~2.4 Mmsgs/s for 8-byte
/// puts); doorbell coalescing amortizes the overhead across the batch
/// (19.6 Mops/s at batch=64), the claim bench_throughput measures.
double simulate_msgrate_mops(const MsgRateParams& params = {});

// --- Fig 8: MILC weak scaling ------------------------------------------------------

struct MilcParams {
  // Local lattice 4^3 x 8 per process (the Blue Waters benchmark).
  int local_sites = 4 * 4 * 4 * 8;
  double flops_per_site = 1500.0;   ///< su3 CG arithmetic per site per iter
  double flops_per_core_gfs = 1.0;
  int iterations = 4000;
  double halo_bytes = 4.0 * 4 * 8 * 2 * 72;  ///< 8-dir surface payload
  /// Extra per-direction cost of the MPI-1 halo exchange: matching, the
  /// rendezvous handshake of medium messages, and the serialization of
  /// eight sendrecv pairs — the overhead the UPC/foMPI scheme removes
  /// (the paper reports CG phases up to 45% faster).
  double mpi1_halo_extra_us = 12.0;
  double allreduce_per_log_us = 3.0;
  double noise_factor_per_log = 0.004;  ///< large-scale noise dilation
};

struct MilcSeries {
  double mpi1_s;
  double upc_s;
  double fompi_s;
};

/// Weak-scaling completion-time model: per-iteration compute + 8-direction
/// halo exchange (transport-dependent; the NIC model's put latency,
/// overhead, per-byte and AMO costs) + convergence allreduce (log p).
MilcSeries simulate_milc(int p, const MilcParams& params = {});

}  // namespace fompi::sim
