// The paper's parametrized performance models (Sec 3).
//
// Every critical foMPI function has a closed-form cost; the paper reports
// the fitted coefficients on Blue Waters:
//   P_put        = 0.16 ns/B * s + 1.0 us
//   P_get        = 0.17 ns/B * s + 1.9 us
//   P_acc,sum    = 28 ns/B  * s + 2.4 us
//   P_acc,min    = 0.8 ns/B * s + 7.3 us   (fallback protocol)
//   P_CAS        = 2.4 us
//   P_fence      = 2.9 us * log2(p)
//   P_post = P_complete = 350 ns * k ;  P_start = 0.7 us ; P_wait = 1.8 us
//   P_lock,excl  = 5.4 us ; P_lock,shrd = P_lock_all = 2.7 us
//   P_unlock     = P_unlock_all = 0.4 us ; P_flush = 76 ns ; P_sync = 17 ns
// These drive the discrete-event simulator for the scaling figures, and
// bench_models re-fits them from measurements of this implementation to
// compare shapes.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace fompi::perf {

/// One affine cost function: latency_us(s) = base_us + per_byte_ns * s / 1e3.
struct Affine {
  double base_us = 0;
  double per_byte_ns = 0;
  double us(std::size_t bytes) const noexcept {
    return base_us + per_byte_ns * static_cast<double>(bytes) / 1e3;
  }
  double ns(std::size_t bytes) const noexcept { return us(bytes) * 1e3; }
};

/// The paper's measured coefficients (Blue Waters, Cray XE6, Gemini).
struct PaperModel {
  Affine put{1.0, 0.16};
  Affine get{1.9, 0.17};
  Affine acc_sum{2.4, 28.0};
  Affine acc_min{7.3, 0.8};
  double cas_us = 2.4;
  double fence_per_log_us = 2.9;
  double post_per_neighbor_us = 0.35;
  double complete_per_neighbor_us = 0.35;
  double start_us = 0.7;
  double wait_us = 1.8;
  double lock_excl_us = 5.4;
  double lock_shrd_us = 2.7;
  double lock_all_us = 2.7;
  double unlock_us = 0.4;
  double flush_us = 0.076;
  double sync_us = 0.017;
  /// Message injection overheads (Sec 3.1.2).
  double inject_inter_us = 0.416;
  double inject_intra_us = 0.080;

  double fence_us(int nprocs) const noexcept {
    return nprocs <= 1 ? 0.0
                       : fence_per_log_us * std::log2(static_cast<double>(nprocs));
  }
  double pscw_round_us(int k) const noexcept {
    return post_per_neighbor_us * k + complete_per_neighbor_us * k +
           start_us + wait_us;
  }
  /// The paper's fence-vs-PSCW decision rule (Sec 6): PSCW wins while
  /// P_fence > P_post + P_complete + P_start + P_wait.
  bool pscw_beats_fence(int nprocs, int k) const noexcept {
    return fence_us(nprocs) > pscw_round_us(k);
  }
};

/// Per-call strategy chooser for the non-contiguous datatype path (Sec 2.4).
///
/// When the remote side of a transfer is one contiguous block, the origin
/// layout can either be shipped as a vectored NIC op (chained descriptors
/// behind one doorbell) or staged through a pack/unpack buffer (one
/// contiguous transfer plus a local copy of every payload byte). Packing
/// wins when fragments are small and numerous; the vector wins when
/// fragments are few or large. The caller passes the vector's chain cost
/// from its NIC's model (rdma::NetworkModel::chain_latency_ns); this
/// struct holds only the memcpy-rate estimate, as constants, so the choice
/// tracks the modeled hardware rather than a fixed fragment-count
/// threshold.
struct DatatypePathModel {
  enum class Strategy : std::uint8_t { vectored, pack };

  static constexpr double kPackByteNs = 0.25;    ///< gather/scatter per byte
  static constexpr double kPackSetupNs = 120.0;  ///< staging bookkeeping/call
  /// A packed get cannot unpack until the data lands, so it completes the
  /// transfer eagerly and forfeits communication overlap; require this
  /// margin before preferring it over a vectored get.
  static constexpr double kGetPackBias = 4.0;

  static double pack_ns(std::size_t payload_bytes) noexcept {
    return kPackSetupNs + kPackByteNs * static_cast<double>(payload_bytes);
  }

  /// Put with a contiguous target: gather-and-send vs chained fragments
  /// whose chain costs `vectored_ns`.
  static Strategy choose_put(double vectored_ns,
                             std::size_t payload_bytes) noexcept {
    return pack_ns(payload_bytes) < vectored_ns ? Strategy::pack
                                                : Strategy::vectored;
  }
  /// Get with a contiguous target: fetch-and-unpack vs chained fragments.
  static Strategy choose_get(double vectored_ns,
                             std::size_t payload_bytes) noexcept {
    return pack_ns(payload_bytes) * kGetPackBias < vectored_ns
               ? Strategy::pack
               : Strategy::vectored;
  }
};

/// Baseline model knobs for the comparison curves (UPC/CAF/MPI-1-like),
/// expressed as deltas on top of the foMPI costs. The values reproduce the
/// relative positions measured in Figs 4-6: PGAS compilers add a constant
/// per-op overhead (shared-pointer translation), MPI-1 adds matching and
/// an eager copy, Cray's MPI-2.2 one sided adds a large per-op software
/// layer.
struct BaselineModel {
  double upc_extra_us = 1.2;       ///< Cray UPC put ~2.2us vs foMPI ~1.0us
  double caf_extra_us = 1.5;       ///< Fortran coarrays slightly above UPC
  double mpi1_match_us = 0.6;      ///< matching + synchronization overhead
  double mpi1_copy_ns_per_byte = 0.08;  ///< eager copy cost
  double mpi22_extra_us = 9.0;     ///< untuned one-sided software stack
  double upc_barrier_per_log_us = 2.0;
  double caf_sync_all_per_log_us = 8.0;
  double mpi22_fence_per_log_us = 6.0;
  double mpi22_pscw_base_us = 30.0;     ///< grows with p (Fig 6c)
  double mpi22_pscw_per_proc_ns = 80.0;
};

}  // namespace fompi::perf
