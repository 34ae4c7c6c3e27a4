// kv_read_heavy / kv_write_mix: the closed-loop KvStore::run_fleet on 3
// ranks x 8 client fibers, Zipf 0.9 over 256 seeded keys.
#include <string>

#include "bench.hpp"
#include "kv/kv.hpp"
#include "tracer.hpp"

namespace fompi::bench {
namespace {

using kv::KvStore;

constexpr int kRanks = kMaxRanks;

void merge(KvStore::FleetResult* into, const KvStore::FleetResult& r) {
  into->read_hist.merge(r.read_hist);
  into->write_hist.merge(r.write_hist);
  into->reads += r.reads;
  into->writes += r.writes;
  into->cache_hits += r.cache_hits;
  into->issued += r.issued;
  into->ok_ops += r.ok_ops;
  into->peer_dead += r.peer_dead;
  into->retry_routing += r.retry_routing;
  into->data_loss += r.data_loss;
  into->failed_other += r.failed_other;
}

struct RankOut {
  std::vector<std::uint64_t> wall_ns;  ///< run_fleet wall time per chunk
  KvStore::FleetResult total;
  trace::LatencyHisto traced_reads, untraced_reads;
  OpCounters counters;
  std::uint64_t gets = 0, cache_hits = 0, read_retries = 0;
  std::string error;
};

bool legal_value(std::uint64_t key, std::uint64_t v) {
  return v == key * 3 || v == key * 31 + 7;  // seed value or fleet put
}

}  // namespace

Round run_kv_round(double read_ratio, int chunk_ops, std::uint64_t seed,
                   double seconds, Tracer* tracer) {
  std::vector<RankOut> outs(kRanks);
  SetupClock clock(kRanks);
  fabric::run_ranks(kRanks, [&](fabric::RankCtx& ctx) {
    const int r = ctx.rank();
    const auto i = static_cast<std::size_t>(r);
    RankOut& me = outs[i];
    clock.body[i] = now_ns();
    KvStore store(ctx);
    clock.ctor[i] = now_ns();
    for (std::uint64_t k = 1 + i; k <= kKvKeys; k += kRanks) {
      if (store.put(k, k * 3) != rdma::OpStatus::ok) me.error = "seed put failed";
    }
    ctx.barrier();
    clock.seeded[i] = now_ns();
    if (tracer != nullptr) {
      const auto root = tracer->span(r, "setup", clock.entry, clock.seeded[i]);
      tracer->span(r, "fabric", clock.entry, clock.body[i], root);
      tracer->span(r, "KvStore", clock.body[i], clock.ctor[i], root);
      tracer->span(r, "seed_puts+barrier", clock.ctor[i], clock.seeded[i], root);
    }
    if (seconds == 0) {
      store.destroy(ctx);
      return;
    }

    KvStore::FleetConfig fc;
    fc.fibers = 8;
    fc.read_ratio = read_ratio;
    fc.keyspace = kKvKeys;
    fc.zipf_s = 0.9;
    // Untimed warm-up: fills the client cache and the NIC pools.
    fc.ops_per_rank = chunk_ops / 4;
    fc.seed = chunk_seed(seed, ~std::uint64_t{0});
    store.run_fleet(ctx, fc);
    ctx.barrier();

    fc.ops_per_rank = chunk_ops;
    const std::uint64_t deadline = deadline_after(seconds);
    for (std::uint64_t c = 0;; ++c) {
      const bool traced = tracer != nullptr && c % 2 == 1;
      fc.seed = chunk_seed(seed, c);
      const OpCounters c0 = op_counters();
      const kv::KvStats s0 = store.stats();
      const std::uint64_t t0 = now_ns();
      const KvStore::FleetResult res = store.run_fleet(ctx, fc);
      const std::uint64_t t1 = now_ns();
      const OpCounters d = op_counters().since(c0);
      add_counters(&me.counters, d);
      me.gets += store.stats().gets - s0.gets;
      me.cache_hits += store.stats().cache_hits - s0.cache_hits;
      me.read_retries += store.stats().read_retries - s0.read_retries;
      me.wall_ns.push_back(t1 - t0);
      merge(&me.total, res);
      (traced ? me.traced_reads : me.untraced_reads).merge(res.read_hist);
      if (traced) {
        tracer->span(r, "run_fleet", t0, t1, 0, c);
        tracer->counter(r, "fleet.issued", t1, static_cast<double>(res.issued));
        tracer->counter(r, "kv.cache_hits", t1,
                        static_cast<double>(store.stats().cache_hits -
                                            s0.cache_hits));
        tracer->counter(r, "transport_amo", t1,
                        static_cast<double>(d.get(Op::transport_amo)));
        tracer->counter(r, "fiber_switch", t1,
                        static_cast<double>(d.get(Op::fiber_switch)));
      }
      if (!another_chunk(ctx, deadline, c + 1, tracer != nullptr)) break;
    }
    ctx.barrier();

    // Every key was seeded, and fleet puts only overwrite: a blocking read
    // of each key must find it with a legal value.
    for (std::uint64_t k = 1; k <= kKvKeys; ++k) {
      std::uint64_t v = 0;
      bool found = false;
      const std::uint64_t t0 = now_ns();
      const auto st = store.get(k, &v, &found);
      if (tracer != nullptr) tracer->span(r, "get", t0, now_ns(), 0, k);
      if ((st != rdma::OpStatus::ok || !found || !legal_value(k, v)) &&
          me.error.empty()) {
        me.error = "final read of key " + std::to_string(k) +
                   " returned an illegal value";
      }
    }
    ctx.barrier();
    store.destroy(ctx);
  }, model_options());

  Round out;
  clock.fill(&out);
  if (seconds == 0) return out;
  KvStore::FleetResult tot;
  std::vector<double> rates;
  const std::size_t chunks = outs[0].wall_ns.size();
  for (std::size_t c = 0; c < chunks; ++c) {
    std::uint64_t slowest = 0;
    for (const RankOut& o : outs) slowest = std::max(slowest, o.wall_ns[c]);
    rates.push_back(kRanks * static_cast<double>(chunk_ops) /
                    (static_cast<double>(slowest) / 1e9));
  }
  for (const RankOut& o : outs) {
    if (!o.error.empty()) out.fail(o.error);
    merge(&tot, o.total);
    out.primary_traced.merge(o.traced_reads);
    out.primary_untraced.merge(o.untraced_reads);
    add_counters(&out.counters, o.counters);
    out.kv_gets += o.gets;
    out.kv_cache_hits += o.cache_hits;
    out.kv_read_retries += o.read_retries;
  }
  // Retirement identity: every issued op retires exactly once.
  if (tot.issued != tot.ok_ops + tot.peer_dead + tot.retry_routing +
                        tot.data_loss + tot.failed_other ||
      tot.issued != tot.reads + tot.writes ||
      tot.issued != chunks * static_cast<std::uint64_t>(chunk_ops) * kRanks) {
    out.fail("fleet retirement identity violated");
  }
  out.attempted = tot.issued;
  out.failed = tot.issued - tot.ok_ops;
  out.ops = tot.issued;
  out.ops_per_s = median(rates);
  out.primary = tot.read_hist;
  out.secondary = tot.write_hist;
  return out;
}

}  // namespace fompi::bench
