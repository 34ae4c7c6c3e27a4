// Gemini-like network cost model.
//
// Parameter values are taken from the paper's measured performance
// functions on Blue Waters (Cray XE6, Gemini 3D torus):
//   P_put = 0.16 ns/B * s + 1.0 us          (Sec 3.1)
//   P_get = 0.17 ns/B * s + 1.9 us
//   injection overhead: 416 ns inter-node, 80 ns intra-node (Sec 3.1.2)
//   P_acc,sum = 28 ns/B * s + 2.4 us, P_CAS = 2.4 us (Sec 3.1.3)
// plus the DMAPP protocol change visible in Fig 4a/5b: small transfers go
// through FMA (low latency); transfers above a threshold switch to the BTE
// bulk engine (extra setup, better asymptotic bandwidth).
//
// This model drives (a) the latency injector of the simulated NIC, so that
// real-time benchmarks of the real code path reproduce the paper's curve
// shapes, and (b) the discrete-event simulator for scaling experiments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fompi::rdma {

struct NetworkModel {
  // --- inter-node ("DMAPP") parameters -----------------------------------
  double inter_overhead_ns = 416.0;   ///< origin injection overhead per op
  double put_base_ns = 1000.0;        ///< small-put end-to-end latency
  double put_byte_ns = 0.16;          ///< put serialization per byte
  double get_base_ns = 1900.0;        ///< small-get end-to-end latency
  double get_byte_ns = 0.17;          ///< get serialization per byte
  double amo_base_ns = 2400.0;        ///< network round trip for one AMO
  double fma_chunk_bytes = 64.0;      ///< FMA immediate chunk size
  double fma_chunk_ns = 10.0;         ///< extra per-chunk cost within FMA
  std::size_t bte_threshold = 4096;   ///< FMA -> BTE protocol switch
  double bte_setup_ns = 1100.0;       ///< BTE descriptor setup cost
  double bte_byte_ns = 0.145;         ///< BTE per-byte cost (higher BW)

  // --- intra-node ("XPMEM") parameters ------------------------------------
  double intra_overhead_ns = 80.0;    ///< per-op software overhead
  double intra_base_ns = 350.0;       ///< small copy latency (load/store)
  double intra_byte_ns = 0.08;        ///< memcpy per-byte cost
  double intra_amo_ns = 120.0;        ///< CPU atomic on a shared line

  /// Time from issue until a put of `bytes` is committed in remote memory.
  double put_latency_ns(std::size_t bytes) const noexcept {
    if (bytes >= bte_threshold)
      return bte_setup_ns + bte_byte_ns * static_cast<double>(bytes);
    const double chunks = static_cast<double>(bytes) / fma_chunk_bytes;
    return put_base_ns + fma_chunk_ns * chunks +
           put_byte_ns * static_cast<double>(bytes);
  }

  /// Time from issue until a get of `bytes` has landed in local memory.
  double get_latency_ns(std::size_t bytes) const noexcept {
    if (bytes >= bte_threshold)
      return get_base_ns + bte_setup_ns - put_base_ns +
             bte_byte_ns * static_cast<double>(bytes);
    const double chunks = static_cast<double>(bytes) / fma_chunk_bytes;
    return get_base_ns + fma_chunk_ns * chunks +
           get_byte_ns * static_cast<double>(bytes);
  }

  /// Remote AMO completion latency (8-byte operand).
  double amo_latency_ns() const noexcept { return amo_base_ns; }

  // --- vectored (chained-descriptor) transfers ----------------------------
  // Gemini FMA descriptors can be chained behind a single doorbell: a
  // vectored op pays the base latency once plus a small per-descriptor
  // chain cost, instead of the full base latency per fragment. This is the
  // hardware mechanism the datatype path exploits (Sec 2.4).
  double vec_chain_ns = 45.0;  ///< each chained fragment beyond the first

  /// Chain cost of `nfrags` fragments behind one doorbell (0 for one).
  double vec_chain_latency_ns(std::size_t nfrags) const noexcept {
    return nfrags > 1 ? vec_chain_ns * static_cast<double>(nfrags - 1) : 0.0;
  }

  /// Completion latency of a vectored put: `nfrags` chained fragments
  /// totalling `total_bytes` behind one doorbell.
  double put_vec_latency_ns(std::size_t nfrags,
                            std::size_t total_bytes) const noexcept {
    return put_latency_ns(total_bytes) + vec_chain_latency_ns(nfrags);
  }

  double get_vec_latency_ns(std::size_t nfrags,
                            std::size_t total_bytes) const noexcept {
    return get_latency_ns(total_bytes) + vec_chain_latency_ns(nfrags);
  }

  double intra_latency_ns(std::size_t bytes) const noexcept {
    return intra_base_ns + intra_byte_ns * static_cast<double>(bytes);
  }

  // --- throughput mode: batched doorbells and multi-channel striping -------
  // Coalesced issue (Nic::batch_begin/batch_flush or NicConfig.auto_batch)
  // chains descriptors behind ONE doorbell, like vectored ops but across
  // independent operations: the software+doorbell overhead is paid once per
  // batch and each extra descriptor costs batch_chain_ns on the wire. The
  // overhead overlaps the wire as it does for an unbatched op, so each
  // descriptor completes its own latency plus the chain after the doorbell
  // starts (for an explicit scope, at its first descriptor's post). The KV
  // round routine and the collectives ring one per round.
  // Slingshot-class NICs (RAMC) additionally expose several independent
  // ordered memory channels; a chained batch drains round-robin across
  // them, and large BTE transfers stripe their payload over all channels at
  // the cost of one extra per-channel descriptor setup.
  double batch_chain_ns = 45.0;    ///< per extra descriptor behind a doorbell
  double stripe_chunk_ns = 120.0;  ///< per extra channel: BTE stripe setup

  /// Wire time of an n-descriptor chained batch: the descriptors beyond the
  /// first drain round-robin over `channels` independent channels, so each
  /// channel serializes only ceil((n-1)/channels) chain links.
  double batch_chain_latency_ns(std::size_t ndesc, int channels) const noexcept {
    if (ndesc <= 1) return 0.0;
    const std::size_t ch = channels < 1 ? 1 : static_cast<std::size_t>(channels);
    const std::size_t links = ndesc - 1;
    return batch_chain_ns * static_cast<double>((links + ch - 1) / ch);
  }

  /// Origin busy time of one doorbell chaining `ndesc` descriptors: the
  /// injection overhead once plus the chain links, so one descriptor costs
  /// what an unbatched op does.
  double doorbell_ns(std::size_t ndesc, bool inter, int channels) const noexcept {
    return (inter ? inter_overhead_ns : intra_overhead_ns) +
           batch_chain_latency_ns(ndesc, channels);
  }

  /// Put latency with the payload striped round-robin over `channels`; BTE
  /// transfers split their byte stream per channel (setup replicated per
  /// stripe), FMA-sized transfers are never striped (single ordered
  /// channel keeps per-target ordering, RAMC-style).
  double put_striped_latency_ns(std::size_t bytes, int channels) const noexcept {
    if (channels <= 1 || bytes < bte_threshold) return put_latency_ns(bytes);
    const double per =
        static_cast<double>(bytes) / static_cast<double>(channels);
    return bte_setup_ns + stripe_chunk_ns * static_cast<double>(channels - 1) +
           bte_byte_ns * per;
  }

  double get_striped_latency_ns(std::size_t bytes, int channels) const noexcept {
    if (channels <= 1 || bytes < bte_threshold) return get_latency_ns(bytes);
    const double per =
        static_cast<double>(bytes) / static_cast<double>(channels);
    return get_base_ns + bte_setup_ns - put_base_ns +
           stripe_chunk_ns * static_cast<double>(channels - 1) +
           bte_byte_ns * per;
  }
};

/// Throughput-mode configuration of one simulated NIC (all default values
/// preserve the latency-tuned PR-5 behaviour bit for bit).
struct NicConfig {
  /// Independent ordered NIC channels (>= 1). Chained batches drain
  /// round-robin across channels; BTE-sized transfers stripe their payload.
  int channels = 1;
  /// Coalesce ops issued between synchronization points into one doorbell
  /// (an explicit Nic::batch_begin() scope batches regardless).
  bool auto_batch = false;
};

/// How the simulated NIC charges model time to the running code.
enum class Injection : std::uint8_t {
  none,   ///< no delays: functional testing mode, fastest
  model,  ///< spin-wait the modeled times: benchmark mode
};

/// When remotely written data becomes visible at the target.
enum class Delivery : std::uint8_t {
  immediate,  ///< visible at issue (strongest; what XPMEM gives)
  deferred,   ///< visible only once the origin completes the op
              ///< (weakest legal RDMA behaviour; failure-injection mode)
};

/// Typed outcome of an operation, surfaced by the error-returning NIC and
/// window APIs (wait_status/test_status/gsync_status, *_checked). The
/// legacy void APIs map every non-ok status to a thrown Error of the
/// matching ErrClass.
enum class OpStatus : std::uint8_t {
  ok,         ///< completed successfully
  pending,    ///< not complete yet (test_status only)
  retired,    ///< handle already retired or stale (ABA tag mismatch)
  timeout,    ///< NIC timeout / dropped doorbell: retry budget exhausted
  cq_error,   ///< completion-queue error: retry budget exhausted
  peer_dead,  ///< the target rank is dead (fabric liveness epoch)
  // Service-layer statuses (src/kv): never produced by the NIC itself, but
  // carried through the same typed-status plumbing so clients handle one
  // status space end to end.
  retry_routing,  ///< op raced a routing reconfiguration; reissue after the
                  ///< client refreshed its {generation, table} pair
  data_loss,      ///< every copy of the addressed data is on dead ranks
};

const char* to_string(OpStatus st) noexcept;

/// Kinds of injectable faults. The transient kinds (nic_timeout, cq_error,
/// dropped_doorbell) are retried by the NIC with exponential backoff up to
/// FaultPlan::retry_budget; latency_spike only stretches the modeled
/// completion time of the affected op.
enum class FaultKind : std::uint8_t {
  none,
  nic_timeout,       ///< FMA transaction timed out at the origin
  cq_error,          ///< the CQ reported an error completion
  dropped_doorbell,  ///< doorbell write lost; op re-rung after a timeout
  latency_spike,     ///< op completes, but spike_scale times slower
};

const char* to_string(FaultKind k) noexcept;

/// Seeded, deterministic fault schedule, composable with the Injection and
/// Delivery knobs. Faults fire at FIXED per-rank op indices drawn from
/// Rng(seed, rank) within [0, horizon_ops) — not per-op probability draws —
/// so the final fault counters are an exact function of the seed as long as
/// each rank issues at least horizon_ops operations, immune to scheduling
/// nondeterminism in CAS-retry loops.
struct FaultPlan {
  std::uint64_t seed = 0;
  /// Transient fault sites scheduled per rank (0 disables transients).
  int transient_faults_per_rank = 0;
  /// Fault op-indices are drawn uniformly from [0, horizon_ops).
  std::uint64_t horizon_ops = 256;
  /// Consecutive injections per fault site are drawn from [1, max_repeats].
  /// Sites with repeats <= retry_budget are survivable; sites beyond the
  /// budget retire the op with a typed failure status.
  int max_repeats = 1;
  /// NIC retransmission budget per op (bounded exponential backoff).
  int retry_budget = 4;
  /// Modeled-latency multiplier applied by latency_spike faults.
  double spike_scale = 8.0;
  /// Rank scheduled to die (or hang) at its first issued op at-or-after
  /// kill_at_op (-1 = nobody dies).
  int kill_rank = -1;
  std::uint64_t kill_at_op = 0;
  /// Additional scheduled deaths beyond kill_rank — multi-failure chaos
  /// (owner+replica double kills, coordinator death mid-recovery). Each
  /// site fires at that rank's first issued operation at-or-after at_op.
  struct KillSite {
    int rank = -1;
    std::uint64_t at_op = 0;
  };
  std::vector<KillSite> kills;
  /// Instead of dying (RankKilledError), the rank parks in an abortable
  /// spin — a silent hang, broken only by the fabric hang watchdog.
  bool hang_instead_of_kill = false;

  bool enabled() const noexcept {
    return transient_faults_per_rank > 0 || kill_rank >= 0 || !kills.empty();
  }
  /// Earliest op index at which `rank` is scheduled to die, folding
  /// kill_rank and the kills list (~0 = this rank never dies).
  std::uint64_t kill_at(int rank) const noexcept {
    std::uint64_t at = ~std::uint64_t{0};
    if (rank == kill_rank) at = kill_at_op;
    for (const auto& k : kills) {
      if (k.rank == rank && k.at_op < at) at = k.at_op;
    }
    return at;
  }
};

}  // namespace fompi::rdma
