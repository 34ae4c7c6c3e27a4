// KV-service SLO models (DESIGN.md §12).
//
// The thread-rank runtime drives the real KV store (src/kv) at up to a
// few dozen client ranks; these closed forms extend the serving-workload
// curves to cluster scale. As with the figure models, the supported claims
// are about curve *shape* — cache leverage, tail behavior under failover,
// where a skewed workload saturates on the hottest shard — not absolute
// numbers. The Gemini costs come from the NIC's own model (rdma::kGemini):
// an AMO round trip amo = amo_base_ns (2.4 us), the origin's doorbell svc =
// inter_overhead_ns (0.416 us; also the NIC-side occupancy per served AMO,
// so one shard owner sustains 1/0.416 ~ 2.4 M served AMOs/s), a chain link
// chain = chain_ns (0.045 us) per request beyond a doorbell's first, and
// the BTE setup and per-byte costs for recovery.
#pragma once

#include <cstdint>

namespace fompi::sim {

struct KvParams {
  /// Remote requests of a cache-validated hit: the cached cell's version.
  int cached_amos = 1;
  /// Remote requests of the full versioned read of a top cell, one round:
  /// the version, a get of the whole cell, the version again.
  int uncached_reqs = 3;
  /// Overlapped rounds of a put of a key the client wrote or read before:
  /// a take of the cell it remembers, {fetch-or, key read} -> {value
  /// write, release}. Both copies run in lockstep, so replication adds
  /// AMOs but no rounds. (A first put of a key walks from the top: three
  /// rounds and five AMOs.)
  int put_rounds = 2;
  /// Remote AMOs a put issues against one region (the four above).
  int put_amos = 4;
  bool replicate = true;     ///< puts fan out to the replica region (x2)
  double hit_rate = 0.80;    ///< healthy-mode cache hit fraction
  double read_ratio = 0.95;  ///< fraction of client ops that are gets
  int fibers = 8;            ///< in-flight ops per closed-loop client rank
  int shards = 8;
  double zipf_s = 0.9;       ///< key->shard popularity skew
};

/// Mean modeled get latency (us), each read charged like a put: one round
/// trip per round plus the origin's doorbell per round, the issue overhead
/// once and a chain link per extra request,
///
///   h * (amo + svc) + (1 - h) * (amo + svc + 2 * chain)
///
/// = 2.82 us cached, 2.91 us uncached: both are one round, so the cache
/// saves two chain links and their software cost, not round trips.
/// Degraded mode (owner dead, replica serving) bypasses the client cache,
/// so every read pays the full versioned-read cost — the SLO degradation
/// bench_kv measures.
double kv_read_us(const KvParams& p, bool degraded = false);

/// Modeled p99 get latency (us): the uncached versioned read whenever the
/// miss mass reaches the tail (1 - hit_rate >= 1%), i.e. always, except
/// for a pathologically perfect cache; degraded mode pins the whole
/// distribution at the uncached cost.
double kv_read_p99_us(const KvParams& p, bool degraded = false);

/// Mean modeled put latency (us):
///
///   put_rounds * (amo + svc) + (issued_AMOs - put_rounds) * chain
///
/// one network round trip and one doorbell per overlapped round, plus a
/// chain link per AMO beyond a round's first. Write-through replication
/// doubles the AMOs while the shard is healthy (degraded mode writes the
/// surviving replica only): 2 * (2.4 + 0.416) + 6 * 0.045 = 5.90 us
/// healthy, 5.72 us degraded.
double kv_put_us(const KvParams& p, bool degraded = false);

/// Probability mass of the hottest shard under the Zipf(s) key popularity
/// folded onto `shards` (rank-1 mass of a Zipf over the shards).
double kv_hot_shard_mass(const KvParams& p);

/// Closed-loop fleet throughput (M ops/s) at `clients` ranks:
///
///   offered = clients * fibers / mean_op_us        (pipelined clients)
///   hot cap = serve_rate / phi                      (hottest shard NIC)
///   T(p)    = min(offered, hot cap)
///
/// with phi the hottest shard's mass — halved for reads when replication
/// is on (hot-key replica reads split the load). Monotone nondecreasing
/// and saturating in `clients`; replication raises the plateau.
double simulate_kv_throughput_mops(int clients, const KvParams& p = {});

/// Modeled time (us) to heal ONE shard whose owner died: drain the frozen
/// image (ceil(bytes/chunk) BTE channel setups + the byte stream), then
/// the key-wise scrub: one such chunked snapshot of each copy to list the
/// keys, and the overlapped read of every key on both copies (one round,
/// uncached_reqs issued per copy and key; a healthy pair needs no repair
/// round), plus the generation claim + release CAS pair. The read round's
/// n requests ring ceil(n / 64) doorbells (a doorbell chains at most
/// rdma::kDoorbellDescs = 64 descriptors), each charged the issue
/// overhead, plus a chain link per request beyond a doorbell's first.
/// Linear in bytes at fixed chunking, linear in keys — and
/// stream-dominated for large shard images, which is the shape
/// test_simtime pins.
double kv_recovery_us(const KvParams& p, std::uint64_t shard_bytes,
                      std::uint64_t keys, std::uint64_t chunk = 2048);

/// Modeled post-recovery p99 get latency (us): recovery restores the
/// healthy read path's rounds (once a death was seen, every op reads the
/// routing generation inside its first round — AMOs in flight together —
/// so it adds no serialized round trip and the healthy cached/uncached
/// round budgets are unchanged).
double kv_post_recovery_p99_us(const KvParams& p);

/// Modeled post-recovery put latency (us): the generation read is one
/// more request chained behind the put's first doorbell, not a round of
/// its own,
///
///   kv_put_us + chain
///
/// = 5.90 + 0.045 = 5.95 us, against 5.90 us healthy (a generation round
/// of its own, a round trip and a doorbell, would make it 8.72 us).
double kv_post_recovery_put_us(const KvParams& p);

}  // namespace fompi::sim
