#include "simtime/sim_kv.hpp"

#include <algorithm>
#include <cmath>

namespace fompi::sim {

namespace {
constexpr double kChainUs = 0.045;  // batch_chain_ns under the model
/// Descriptors one doorbell chains (the rdma Nic's batch capacity).
constexpr std::uint64_t kDoorbellDescs = 64;

/// One network round trip per round plus the origin's doorbell per round:
/// the issue overhead once, then a chain link per extra request.
double rounds_us(const KvParams& p, int rounds, int reqs) {
  return rounds * (p.amo_us + p.amo_service_us) + (reqs - rounds) * kChainUs;
}
// A hit is one round (the cached cell's version), and so is the full
// versioned read: {v1, the whole cell, v2}.
double cached_us(const KvParams& p) { return rounds_us(p, 1, p.cached_amos); }
double uncached_us(const KvParams& p) {
  return rounds_us(p, 1, p.uncached_reqs);
}
}  // namespace

double kv_read_us(const KvParams& p, bool degraded) {
  const double h = degraded ? 0.0 : p.hit_rate;  // degraded bypasses cache
  return h * cached_us(p) + (1.0 - h) * uncached_us(p);
}

double kv_read_p99_us(const KvParams& p, bool degraded) {
  const double miss_mass = degraded ? 1.0 : 1.0 - p.hit_rate;
  return miss_mass >= 0.01 ? uncached_us(p) : cached_us(p);
}

double kv_put_us(const KvParams& p, bool degraded) {
  const int regions = (p.replicate && !degraded) ? 2 : 1;
  return rounds_us(p, p.put_rounds, regions * p.put_amos);
}

double kv_hot_shard_mass(const KvParams& p) {
  // Rank-1 mass of a Zipf(s) over the shards: 1 / H(shards, s). s = 0
  // degenerates to the uniform 1/shards.
  double h = 0.0;
  for (int r = 1; r <= p.shards; ++r) {
    h += 1.0 / std::pow(static_cast<double>(r), p.zipf_s);
  }
  return 1.0 / h;
}

double simulate_kv_throughput_mops(int clients, const KvParams& p) {
  const double mean_op_us = p.read_ratio * kv_read_us(p) +
                            (1.0 - p.read_ratio) * kv_put_us(p);
  const double offered = clients * p.fibers / mean_op_us;  // Mops/s

  // The hottest shard's NIC serves its share of every op's requests;
  // hot-key replica reads split the read load across two regions.
  double phi = kv_hot_shard_mass(p);
  if (p.replicate) phi *= 1.0 - p.read_ratio / 2.0;
  const double reqs_per_op =
      p.read_ratio * ((1.0 - p.hit_rate) * p.uncached_reqs +
                      p.hit_rate * p.cached_amos) +
      (1.0 - p.read_ratio) * p.put_amos;
  const double serve_mops = 1.0 / (p.amo_service_us * reqs_per_op);
  const double hot_cap = serve_mops / phi;

  return std::min(offered, hot_cap);
}

double kv_recovery_us(const KvParams& p, std::uint64_t shard_bytes,
                      std::uint64_t keys, std::uint64_t chunk) {
  if (chunk == 0) chunk = 1;
  const double chunks =
      static_cast<double>((shard_bytes + chunk - 1) / chunk);
  // One chunked pass over a region image: the drain, and each copy's
  // snapshot in the scrub.
  const double image_us = chunks * p.bte_setup_us +
                          static_cast<double>(shard_bytes) * p.bte_byte_ns /
                              1e3;
  // The scrub's reads of every key on both copies overlap: one round,
  // uncached_reqs issued per key and copy, behind a doorbell per 64.
  const std::uint64_t reqs =
      2 * keys * static_cast<std::uint64_t>(p.uncached_reqs);
  const std::uint64_t doorbells = (reqs + kDoorbellDescs - 1) / kDoorbellDescs;
  const double reads_us =
      p.amo_us + static_cast<double>(doorbells) * p.amo_service_us +
      static_cast<double>(reqs - doorbells) * kChainUs;
  const double gen_us = 2.0 * p.amo_us;  // claim CAS + release write
  return 3.0 * image_us + reads_us + gen_us;
}

double kv_post_recovery_p99_us(const KvParams& p) {
  // The generation check rides the read's first round (overlapped AMOs),
  // so the healed read path's tail equals the healthy tail.
  return kv_read_p99_us(p, /*degraded=*/false);
}

double kv_post_recovery_put_us(const KvParams& p) {
  // The healed put's rounds, plus the generation request chained behind
  // its first round's doorbell.
  return kv_put_us(p) + kChainUs;
}

}  // namespace fompi::sim
