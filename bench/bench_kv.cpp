// KV service SLO harness: closed-loop Zipfian fleets against the sharded
// store (src/kv) under the injected Gemini cost model.
//
// Four sections, three with built-in acceptance gates (exit 1):
//
//   1. SLO table (informational): p in {2, 4} client ranks x read_ratio in
//      {0.95, 0.5}; each rank runs a closed-loop fleet (8 fibers, Zipf 0.9
//      keys) and the per-op-class latency histograms are merged across
//      ranks. Under Injection::model wall time tracks the charged Gemini
//      costs, so the p50/p99 columns are MODELED latencies (see CLAUDE.md);
//      the sim_kv closed forms are printed beside them.
//   2. Cache leverage (gated): a version-validated cache hit is one round
//      of one AMO; the versioned read is one round too, of two AMOs and
//      one get of the cell behind one doorbell, so the cache saves two
//      chain links and their software cost, not a round trip. Two checks:
//      exact counters (every timed warm get is a hit of 1 AMO and no get,
//      every uncached get 2 AMOs and 1 get) and a timing floor, warm-cache
//      get rate >= 1 + (L - 1) / 2 times the uncached rate, with
//      L = kv_read_us(uncached) / kv_read_us(cached) ~ 1.03 the
//      closed-form leverage (floor ~ 1.02). Three attempts: thread-rank
//      wall smear can spoil one.
//   3. Failover SLO degradation (gated): phase A reads rank-1-owned keys
//      healthy (warm cache), then the seeded fault plan kills rank 1 and
//      phase B re-reads the same keys degraded (replica serving, cache
//      bypassed). Gates: the run completes (no hang), the dead owner
//      probes as typed peer_dead, exact counters (every healthy get a
//      1-AMO hit, every degraded get its key's full read on the replica
//      plus the generation AMO) and the same timing floor as section 2,
//      degraded p50 >= 1 + (L - 1) / 2 times the healthy p50. The keys are
//      seeded by a rank that does not read them, so the reader's first
//      get of each is the key's full read, the reference for its degraded
//      gets; a rank's own writes leave it the key's cells to read in place.
//   4. Self-healing (gated): section 3's phases, then heal() and the same
//      reads against the healed routing (recovery_slo() lists the read
//      gates). Rank 0 also times hinted puts of six more doomed-rank keys
//      before the kill and after heal(). Gates: exact counters (2 rounds
//      per put; 8 AMOs healthy, 9 after, the generation read riding the
//      first round) and a timing ceiling, post p50 <= C x healthy p50,
//      with C halfway between the closed form with the generation inside
//      the first round (5.95 us) and that form one round trip later
//      (8.35 us), each over the healthy 5.90 us: C ~ 1.21.
//
// Output: one JSON object on stdout (consumed by scripts/bench_smoke.sh
// as BENCH_kv.json).
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/instr.hpp"
#include "common/timing.hpp"
#include "kv/kv.hpp"
#include "simtime/sim_kv.hpp"
#include "trace/trace.hpp"

using namespace fompi;
using namespace fompi::bench;
using fabric::RankCtx;
using kv::KvConfig;
using kv::KvStore;
using rdma::OpStatus;

namespace {

constexpr int kFleetOpsPerRank = 384;
constexpr std::uint64_t kKeyspace = 256;

struct SloRow {
  int ranks = 0;
  double read_ratio = 0;
  bool degraded = false;
  double read_p50_us = 0, read_p99_us = 0;
  double write_p50_us = 0, write_p99_us = 0;
  std::uint64_t reads = 0, writes = 0, cache_hits = 0;
};

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// What one get issued: AMOs (remote, or on the caller's own memory),
/// gets of a cell, and whether the cache served it.
struct GetCost {
  std::uint64_t amos = 0, cell_gets = 0;
  bool hit = false;
  bool operator==(const GetCost&) const = default;
};

/// One get of `key`, timed into `*ns`; returns what it issued.
GetCost timed_get(KvStore& store, std::uint64_t key, std::uint64_t* ns) {
  const OpCounters c0 = op_counters();
  const std::uint64_t hits0 = store.stats().cache_hits;
  std::uint64_t v = 0;
  bool found = false;
  Timer t;
  store.get(key, &v, &found);
  *ns = t.elapsed_ns();
  const OpCounters d = op_counters().since(c0);
  return {d.get(Op::transport_amo) + d.get(Op::local_atomic),
          d.get(Op::transport_get), store.stats().cache_hits != hits0};
}

// A hit reads the cached cell's version; the full read snapshots a top
// cell in 2 AMOs and 1 get. Once a death was seen, every read also
// validates the routing generation with one more AMO.
constexpr GetCost kHit{1, 0, true};
constexpr GetCost kTopRead{2, 1, false};
GetCost with_generation(GetCost c) {
  ++c.amos;
  return c;
}

/// What one put issued: driver rounds and AMOs (remote, or on the
/// caller's own memory), and whether it retired ok.
struct PutCost {
  std::uint64_t rounds = 0, amos = 0;
  bool ok = false;
  bool operator==(const PutCost&) const = default;
};

/// One put of `key`, timed into `*ns`; returns what it issued.
PutCost timed_put(KvStore& store, std::uint64_t key, std::uint64_t value,
                  std::uint64_t* ns) {
  const OpCounters c0 = op_counters();
  Timer t;
  const OpStatus st = store.put(key, value);
  *ns = t.elapsed_ns();
  const OpCounters d = op_counters().since(c0);
  return {d.get(Op::kv_round),
          d.get(Op::transport_amo) + d.get(Op::local_atomic),
          st == OpStatus::ok};
}

// A hinted put takes the key's cell on both copies and then writes it: 2
// rounds of 4 AMOs per copy. Once a death was seen, its first round also
// reads the routing generation: one more AMO, no more rounds.
constexpr PutCost kHintedPut{2, 8, true};
constexpr PutCost kHintedPutAfterDeath{2, 9, true};

/// Exact median of `ns`, in us.
double median_us(std::vector<std::uint64_t> ns) {
  if (ns.empty()) return 0;
  const auto mid = ns.begin() + static_cast<std::ptrdiff_t>(ns.size() / 2);
  std::nth_element(ns.begin(), mid, ns.end());
  return us(*mid);
}

/// Timing ceiling of the post-recovery put gate, over the healthy put:
/// halfway between the closed form with the generation inside the first
/// round (kv_post_recovery_put_us) and that form one round trip later.
double post_put_ceiling() {
  const sim::KvParams p;
  const double inside = sim::kv_post_recovery_put_us(p);
  return (inside + p.amo_us / 2.0) / sim::kv_put_us(p);
}

/// True if the cold reads are full reads: a top-cell one 2 AMOs and 1 get,
/// and at least one key among them in a top cell.
bool cold_reads_exact(const std::vector<GetCost>& cold) {
  bool exact = std::count(cold.begin(), cold.end(), kTopRead) > 0;
  for (const GetCost& c : cold) {
    if (c.cell_gets == 1 && c != kTopRead) exact = false;
  }
  return exact;
}

/// Timing floor of a leverage gate: halfway from 1 to the closed-form
/// leverage L = kv_read_us(uncached) / kv_read_us(cached).
double leverage_floor() {
  sim::KvParams p;
  p.hit_rate = 1.0;
  const double cached = sim::kv_read_us(p);
  p.hit_rate = 0.0;
  return 1.0 + (sim::kv_read_us(p) / cached - 1.0) / 2.0;
}

/// One fleet configuration: every rank seeds its share, then runs the
/// closed loop; histograms merged over ranks.
SloRow fleet_row(int p, double read_ratio) {
  SloRow rowv;
  rowv.ranks = p;
  rowv.read_ratio = read_ratio;
  trace::LatencyHisto reads, writes;
  std::mutex mu;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    KvStore store(ctx);
    if (ctx.rank() == 0) {  // seed so reads mostly hit
      for (std::uint64_t k = 1; k <= kKeyspace; ++k) store.put(k, k * 3);
    }
    ctx.barrier();
    KvStore::FleetConfig fc;
    fc.ops_per_rank = kFleetOpsPerRank;
    fc.read_ratio = read_ratio;
    fc.keyspace = kKeyspace;
    fc.seed = 7;
    const auto res = store.run_fleet(ctx, fc);
    {
      std::scoped_lock lock(mu);
      reads.merge(res.read_hist);
      writes.merge(res.write_hist);
      rowv.reads += res.reads;
      rowv.writes += res.writes;
      rowv.cache_hits += res.cache_hits;
    }
    ctx.barrier();
    store.destroy(ctx);
  }, internode_model());
  rowv.read_p50_us = us(reads.quantile(0.5));
  rowv.read_p99_us = us(reads.quantile(0.99));
  rowv.write_p50_us = us(writes.quantile(0.5));
  rowv.write_p99_us = us(writes.quantile(0.99));
  return rowv;
}

struct CacheResult {
  double cached_mops = 0;
  double uncached_mops = 0;
  bool counts_exact = false;  ///< every timed get issued what it should
};

/// Modeled get rate of one client hammering one hot key, with and without
/// the client cache (single active rank: nobody writes the key, so its
/// cell version never moves).
CacheResult cache_rates() {
  CacheResult res;
  res.counts_exact = true;
  for (const bool cached : {true, false}) {
    KvConfig cfg;
    cfg.client_cache = cached;
    double rate = 0;
    fabric::run_ranks(2, [&](RankCtx& ctx) {
      KvStore store(ctx, cfg);
      if (ctx.rank() == 0) {
        store.put(99, 1);
        std::uint64_t v = 0;
        bool found = false;
        store.get(99, &v, &found);  // warm the cache (cold miss)
        constexpr int kGets = 256;
        std::uint64_t total_ns = 0, ns = 0;
        for (int i = 0; i < kGets; ++i) {
          if (timed_get(store, 99, &ns) != (cached ? kHit : kTopRead)) {
            res.counts_exact = false;
          }
          total_ns += ns;
        }
        rate = static_cast<double>(kGets) / us(total_ns);
      }
      ctx.barrier();
      store.destroy(ctx);
    }, internode_model());
    (cached ? res.cached_mops : res.uncached_mops) = rate;
  }
  return res;
}

struct FailoverResult {
  double healthy_p50_us = 0, healthy_p99_us = 0;
  double degraded_p50_us = 0, degraded_p99_us = 0;
  bool typed_peer_dead = false;
  bool counts_exact = false;  ///< every timed get issued what it should
  std::uint64_t failovers = 0;
};

/// Phase A: healthy warm-cache reads of rank-1-owned keys. Kill rank 1.
/// Phase B: the same reads served degraded by the replica.
FailoverResult failover_slo() {
  constexpr int kRanks = 4;
  constexpr int kReadsPerKey = 32;
  fabric::FabricOptions opts = internode_model();
  opts.domain.fault.kill_rank = 1;
  opts.domain.fault.kill_at_op = 400;
  opts.errors_return = true;
  FailoverResult res;
  fabric::run_ranks(kRanks, [&](RankCtx& ctx) {
    KvStore store(ctx);
    // Keys owned by the doomed rank (pure hash function, same on all
    // ranks).
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; keys.size() < 6; ++k) {
      if (store.owner_of(store.shard_of(k)) == 1) keys.push_back(k);
    }
    if (ctx.rank() == 2) {  // not the reader: its first gets are full reads
      for (const auto k : keys) store.put(k, k + 1);
    }
    ctx.barrier();

    std::vector<GetCost> cold;  // each key's full read, which warms it
    std::uint64_t ns = 0;
    if (ctx.rank() == 0) {
      trace::LatencyHisto healthy;
      for (const auto k : keys) cold.push_back(timed_get(store, k, &ns));
      res.counts_exact = cold_reads_exact(cold);
      for (int r = 0; r < kReadsPerKey; ++r) {
        for (const auto k : keys) {
          if (timed_get(store, k, &ns) != kHit) res.counts_exact = false;
          healthy.add(ns);
        }
      }
      res.healthy_p50_us = us(healthy.quantile(0.5));
      res.healthy_p99_us = us(healthy.quantile(0.99));
      int done = 1;
      ctx.send(1, /*tag=*/3, &done, sizeof done);  // release the doomed rank
    }
    if (ctx.rank() == 1) {
      int done = 0;
      ctx.recv(0, /*tag=*/3, &done, sizeof done);
      // Dies at its kill_at_op-th issued op; RankKilledError unwinds this
      // thread quietly under the fleet-scope errors_return.
      for (int i = 0; i < 100000; ++i) store.put(8880001, 1);
      std::fprintf(stderr, "FAIL: rank 1 survived its kill plan\n");
    }
    if (ctx.rank() != 1) {
      while (store.peer_alive(1)) ctx.yield_check();
    }
    if (ctx.rank() == 0) {
      res.typed_peer_dead =
          store.probe_owner(store.shard_of(keys[0])) == OpStatus::peer_dead;
      // Replica serving, cache bypassed: each get is its key's full read
      // on the replica, plus the generation AMO once the death was seen.
      trace::LatencyHisto degraded;
      for (int r = 0; r < kReadsPerKey; ++r) {
        for (std::size_t i = 0; i < keys.size(); ++i) {
          if (timed_get(store, keys[i], &ns) != with_generation(cold[i])) {
            res.counts_exact = false;
          }
          degraded.add(ns);
        }
      }
      res.degraded_p50_us = us(degraded.quantile(0.5));
      res.degraded_p99_us = us(degraded.quantile(0.99));
      res.failovers = store.stats().failovers;
    }
    // No barrier/destroy: collective with a dead rank.
  }, opts);
  return res;
}

struct RecoveryRow {
  double healthy_p50_us = 0, healthy_p99_us = 0;
  double degraded_p50_us = 0, degraded_p99_us = 0;
  double post_p50_us = 0, post_p99_us = 0;
  double recovery_drain_us = 0;  ///< modeled wall time of the heal() pass
  std::uint64_t drained_bytes = 0, scrub_keys = 0, scrub_repairs = 0;
  std::uint64_t generation = 0;
  int promoted = 0, rereplicated = 0;
  bool healed_ok = false;
  bool degraded_cleared = false;
  bool counts_exact = false;  ///< every timed get issued what it should
  /// Hinted puts of their own doomed-rank keys, exact medians.
  double healthy_put_p50_us = 0, post_put_p50_us = 0;
  bool put_counts_exact = false;  ///< every timed put issued what it should
};

/// Self-healing SLO: healthy reads and puts -> owner kill -> degraded
/// reads -> heal() (replica promotion + frozen-image drain + scrub, timed)
/// -> the same reads and puts against the healed routing. The gates
/// assert the full restoration story: recovery typed-completes,
/// degraded() clears everywhere, the post-recovery tail returns to within
/// 1.5x of healthy (the generation check rides the read's first round),
/// and cache leverage is back: exact counters (every healthy or
/// post-recovery get a hit, every degraded get its key's full read, a
/// top-cell one 2 AMOs and 1 get, plus the generation AMO once the death
/// was seen) and degraded p50 >= leverage_floor() x post-recovery p50.
/// Puts come back too: exact counters (every timed put 2 rounds, 8 AMOs
/// healthy, 9 after) and post p50 <= post_put_ceiling() x healthy p50.
/// The routing home is rank 3, so the generation is a remote request.
RecoveryRow recovery_slo() {
  constexpr int kRanks = 4;
  constexpr int kReadsPerKey = 32;
  constexpr int kPutsPerKey = 32;
  fabric::FabricOptions opts = internode_model();
  opts.domain.fault.kill_rank = 1;
  opts.domain.fault.kill_at_op = 400;
  opts.errors_return = true;
  KvConfig cfg;
  cfg.routing_rank = 3;
  RecoveryRow row;
  fabric::run_ranks(kRanks, [&](RankCtx& ctx) {
    KvStore store(ctx, cfg);
    // Keys owned by the doomed rank: six read by rank 0, six it puts.
    std::vector<std::uint64_t> keys, put_keys;
    for (std::uint64_t k = 1; put_keys.size() < 6; ++k) {
      if (store.owner_of(store.shard_of(k)) != 1) continue;
      (keys.size() < 6 ? keys : put_keys).push_back(k);
    }
    if (ctx.rank() == 2) {  // not the reader: its first gets are full reads
      for (const auto k : keys) store.put(k, k + 1);
    }
    ctx.barrier();  // last collective before the kill

    std::vector<GetCost> cold;  // each key's full read, which warms it
    std::uint64_t ns = 0;
    if (ctx.rank() == 0) {
      trace::LatencyHisto healthy;
      for (const auto k : keys) cold.push_back(timed_get(store, k, &ns));
      row.counts_exact = cold_reads_exact(cold);
      for (int r = 0; r < kReadsPerKey; ++r) {
        for (const auto k : keys) {
          if (timed_get(store, k, &ns) != kHit) row.counts_exact = false;
          healthy.add(ns);
        }
      }
      row.healthy_p50_us = us(healthy.quantile(0.5));
      row.healthy_p99_us = us(healthy.quantile(0.99));
      // Each key's first put claims its cells, which every later put of
      // it takes.
      row.put_counts_exact = true;
      std::vector<std::uint64_t> puts;
      for (const auto k : put_keys) store.put(k, 1);
      for (int r = 0; r < kPutsPerKey; ++r) {
        for (const auto k : put_keys) {
          if (timed_put(store, k, 2, &ns) != kHintedPut) {
            row.put_counts_exact = false;
          }
          puts.push_back(ns);
        }
      }
      row.healthy_put_p50_us = median_us(puts);
      int done = 1;
      ctx.send(1, /*tag=*/3, &done, sizeof done);  // release the doomed rank
    }
    if (ctx.rank() == 1) {
      int done = 0;
      ctx.recv(0, /*tag=*/3, &done, sizeof done);
      for (int i = 0; i < 100000; ++i) store.put(8880001, 1);
      std::fprintf(stderr, "FAIL: rank 1 survived its kill plan\n");
      return;
    }
    while (store.peer_alive(1)) ctx.yield_check();

    if (ctx.rank() != 0) {
      // Followers: participate in recovery (wait for the coordinator's
      // generation release, then install the new table) and stay resident
      // so the drain can land in their spare banks.
      store.heal();
      return;
    }

    // Degraded phase: replica serving, cache bypassed, so each get is its
    // key's full read on the replica.
    trace::LatencyHisto degraded;
    for (int r = 0; r < kReadsPerKey; ++r) {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (timed_get(store, keys[i], &ns) != with_generation(cold[i])) {
          row.counts_exact = false;
        }
        degraded.add(ns);
      }
    }
    row.degraded_p50_us = us(degraded.quantile(0.5));
    row.degraded_p99_us = us(degraded.quantile(0.99));

    // Heal: rank 0 is the lowest alive rank, so this pass coordinates —
    // promotion, frozen-image drain, scrub, generation release — and the
    // timer captures the modeled recovery time.
    Timer heal_t;
    const kv::RecoveryReport rep = store.heal();
    row.recovery_drain_us = heal_t.elapsed_us();
    row.healed_ok = rep.status == OpStatus::ok && rep.acted &&
                    rep.promoted >= 1 && rep.rereplicated >= 1 &&
                    rep.lost == 0;
    row.drained_bytes = rep.drained_bytes;
    row.scrub_keys = rep.scrub_keys;
    row.scrub_repairs = rep.scrub_repairs;
    row.generation = rep.generation;
    row.promoted = rep.promoted;
    row.rereplicated = rep.rereplicated;
    row.degraded_cleared = true;
    for (int s = 0; s < store.config().shards; ++s) {
      if (store.degraded(s)) row.degraded_cleared = false;
    }

    // Post-recovery phase: same keys against the healed routing. One
    // warm-up pass repopulates the cache under the new generation.
    trace::LatencyHisto post;
    std::uint64_t v = 0;
    bool found = false;
    for (const auto k : keys) {
      auto st = store.get(k, &v, &found);
      while (st == OpStatus::retry_routing) st = store.get(k, &v, &found);
    }
    for (int r = 0; r < kReadsPerKey; ++r) {
      for (const auto k : keys) {
        if (timed_get(store, k, &ns) != with_generation(kHit)) {
          row.counts_exact = false;
        }
        post.add(ns);
      }
    }
    row.post_p50_us = us(post.quantile(0.5));
    row.post_p99_us = us(post.quantile(0.99));

    // Post-recovery puts: the moved shards' hints went with their old
    // routing, so one untimed put per key locates the cells again.
    std::vector<std::uint64_t> puts;
    for (const auto k : put_keys) store.put(k, 3);
    for (int r = 0; r < kPutsPerKey; ++r) {
      for (const auto k : put_keys) {
        if (timed_put(store, k, 4, &ns) != kHintedPutAfterDeath) {
          row.put_counts_exact = false;
        }
        puts.push_back(ns);
      }
    }
    row.post_put_p50_us = median_us(puts);
    // No barrier/destroy: collective with a dead rank.
  }, opts);
  return row;
}

}  // namespace

int main() {
  // --- SLO table -----------------------------------------------------------
  std::vector<SloRow> slo;
  for (const int p : {2, 4}) {
    for (const double rr : {0.95, 0.5}) slo.push_back(fleet_row(p, rr));
  }

  // --- cache leverage gate -------------------------------------------------
  const double min_leverage = leverage_floor();
  CacheResult cache;
  bool cache_ok = false;
  for (int attempt = 0; attempt < 3 && !cache_ok; ++attempt) {
    cache = cache_rates();
    cache_ok = cache.counts_exact &&
               cache.cached_mops >= min_leverage * cache.uncached_mops;
  }

  // --- failover SLO degradation gate ---------------------------------------
  FailoverResult fo;
  bool fo_ok = false;
  for (int attempt = 0; attempt < 3 && !fo_ok; ++attempt) {
    fo = failover_slo();
    fo_ok = fo.typed_peer_dead && fo.failovers > 0 && fo.counts_exact &&
            fo.healthy_p50_us > 0 &&
            fo.degraded_p50_us >= min_leverage * fo.healthy_p50_us;
  }

  // --- self-healing recovery gate ------------------------------------------
  const double put_ceiling = post_put_ceiling();
  RecoveryRow rec;
  bool rec_ok = false;
  for (int attempt = 0; attempt < 3 && !rec_ok; ++attempt) {
    rec = recovery_slo();
    const bool tail_restored =
        rec.post_p99_us > 0 && rec.healthy_p99_us > 0 &&
        rec.post_p99_us <= 1.5 * rec.healthy_p99_us;
    const bool leverage_restored =
        rec.counts_exact && rec.post_p50_us > 0 &&
        rec.degraded_p50_us >= min_leverage * rec.post_p50_us;
    const bool puts_restored =
        rec.put_counts_exact && rec.healthy_put_p50_us > 0 &&
        rec.post_put_p50_us <= put_ceiling * rec.healthy_put_p50_us;
    rec_ok = rec.healed_ok && rec.degraded_cleared &&
             rec.drained_bytes > 0 && rec.recovery_drain_us > 0 &&
             tail_restored && leverage_restored && puts_restored;
  }

  const sim::KvParams model;
  // Modeled heal: the per-shard closed form for a default-config region
  // (16 B header + (64 top + 256 heap) 32 B cells) at the keys per shard
  // the scrub read, once per re-replicated shard (their drains overlap,
  // but the coordinator scrubs them one after another).
  const int healed = std::max(1, rec.rereplicated);
  const double model_recovery_us =
      healed * sim::kv_recovery_us(model, 16 + (64 + 256) * 32,
                                   rec.scrub_keys / healed);
  std::printf("{\n  \"bench\": \"kv\",\n  \"injection\": \"model\",\n");
  std::printf("  \"slo\": [\n");
  for (std::size_t i = 0; i < slo.size(); ++i) {
    const SloRow& r = slo[i];
    std::printf(
        "    {\"name\": \"fleet_p%d_r%.0f\", \"ranks\": %d, "
        "\"read_ratio\": %.2f, \"read_p50_us\": %.2f, \"read_p99_us\": %.2f, "
        "\"write_p50_us\": %.2f, \"write_p99_us\": %.2f, \"reads\": %llu, "
        "\"writes\": %llu, \"cache_hits\": %llu}%s\n",
        r.ranks, r.read_ratio * 100, r.ranks, r.read_ratio, r.read_p50_us,
        r.read_p99_us, r.write_p50_us, r.write_p99_us,
        static_cast<unsigned long long>(r.reads),
        static_cast<unsigned long long>(r.writes),
        static_cast<unsigned long long>(r.cache_hits),
        i + 1 == slo.size() ? "" : ",");
  }
  std::printf("  ],\n");
  // Model/measured put ratio against the write-heaviest row (p4, 50%
  // reads): the closed form charges both copies remote, so a ratio a bit
  // above 1 is expected where the client hosts one copy itself. The read
  // ratio uses the read-heaviest p4 row (95% reads): a fleet read also
  // waits behind its rank's other fibers, so the ratio is the fraction of
  // the fleet p50 the contention-free closed form explains.
  const double put_measured_us = slo.back().write_p50_us;
  const double read_measured_us = slo[2].read_p50_us;
  const auto ratio = [](double model_us, double measured_us) {
    return measured_us > 0 ? model_us / measured_us : 0.0;
  };
  std::printf(
      "  \"model\": {\"read_us\": %.2f, \"read_p99_us\": %.2f, "
      "\"read_model_over_measured\": %.2f, "
      "\"put_us\": %.2f, \"put_model_over_measured\": %.2f, "
      "\"degraded_read_us\": %.2f, \"degraded_read_p99_us\": %.2f},\n",
      sim::kv_read_us(model), sim::kv_read_p99_us(model),
      ratio(sim::kv_read_us(model), read_measured_us), sim::kv_put_us(model),
      ratio(sim::kv_put_us(model), put_measured_us),
      sim::kv_read_us(model, true), sim::kv_read_p99_us(model, true));
  std::printf(
      "  \"cache\": {\"cached_mops_per_s\": %.3f, "
      "\"uncached_mops_per_s\": %.3f, \"leverage\": %.2f, "
      "\"leverage_floor\": %.2f, \"counts_exact\": %s},\n",
      cache.cached_mops, cache.uncached_mops,
      cache.uncached_mops > 0 ? cache.cached_mops / cache.uncached_mops : 0.0,
      min_leverage, cache.counts_exact ? "true" : "false");
  std::printf(
      "  \"failover\": {\"name\": \"owner_kill_slo\", "
      "\"healthy_p50_us\": %.2f, \"healthy_p99_us\": %.2f, "
      "\"degraded_p50_us\": %.2f, \"degraded_p99_us\": %.2f, "
      "\"typed_peer_dead\": %s, \"counts_exact\": %s, "
      "\"failovers\": %llu}\n",
      fo.healthy_p50_us, fo.healthy_p99_us, fo.degraded_p50_us,
      fo.degraded_p99_us, fo.typed_peer_dead ? "true" : "false",
      fo.counts_exact ? "true" : "false",
      static_cast<unsigned long long>(fo.failovers));
  std::printf(",\n");
  std::printf(
      "  \"recovery\": {\"name\": \"self_healing_slo\", "
      "\"recovery_drain_us\": %.2f, \"post_recovery_p50_us\": %.2f, "
      "\"post_recovery_p99_us\": %.2f, \"healthy_p99_us\": %.2f, "
      "\"degraded_p50_us\": %.2f, \"drained_bytes\": %llu, "
      "\"scrub_keys\": %llu, \"scrub_repairs\": %llu, "
      "\"generation\": %llu, \"promoted\": %d, \"rereplicated\": %d, "
      "\"degraded_cleared\": %s, \"counts_exact\": %s, "
      "\"model_recovery_us\": %.2f, "
      "\"recovery_model_over_measured\": %.2f, "
      "\"model_post_recovery_p99_us\": %.2f}\n",
      rec.recovery_drain_us, rec.post_p50_us, rec.post_p99_us,
      rec.healthy_p99_us, rec.degraded_p50_us,
      static_cast<unsigned long long>(rec.drained_bytes),
      static_cast<unsigned long long>(rec.scrub_keys),
      static_cast<unsigned long long>(rec.scrub_repairs),
      static_cast<unsigned long long>(rec.generation), rec.promoted,
      rec.rereplicated, rec.degraded_cleared ? "true" : "false",
      rec.counts_exact ? "true" : "false", model_recovery_us, ratio(model_recovery_us, rec.recovery_drain_us),
      sim::kv_post_recovery_p99_us(model));
  std::printf(",\n");
  std::printf(
      "  \"recovery_put\": {\"name\": \"post_recovery_put\", "
      "\"healthy_p50_us\": %.2f, \"post_recovery_p50_us\": %.2f, "
      "\"post_over_healthy\": %.3f, \"ceiling\": %.3f, "
      "\"model_healthy_us\": %.2f, \"model_post_recovery_us\": %.2f, "
      "\"counts_exact\": %s}\n",
      rec.healthy_put_p50_us, rec.post_put_p50_us,
      ratio(rec.post_put_p50_us, rec.healthy_put_p50_us), put_ceiling,
      sim::kv_put_us(model), sim::kv_post_recovery_put_us(model),
      rec.put_counts_exact ? "true" : "false");
  std::printf("}\n");

  if (!cache_ok) {
    std::fprintf(stderr,
                 "FAIL: cache gate (counts_exact=%d cached %.3f Mops/s vs "
                 "%.2fx uncached %.3f)\n",
                 cache.counts_exact, cache.cached_mops, min_leverage,
                 cache.uncached_mops);
    return 1;
  }
  if (!fo_ok) {
    std::fprintf(stderr,
                 "FAIL: failover SLO gate (typed_peer_dead=%d failovers=%llu "
                 "counts_exact=%d healthy_p50=%.2f degraded_p50=%.2f, floor "
                 "%.2fx)\n",
                 fo.typed_peer_dead,
                 static_cast<unsigned long long>(fo.failovers),
                 fo.counts_exact, fo.healthy_p50_us, fo.degraded_p50_us,
                 min_leverage);
    return 1;
  }
  if (!rec_ok) {
    std::fprintf(stderr,
                 "FAIL: self-healing gate (healed_ok=%d degraded_cleared=%d "
                 "counts_exact=%d drained=%llu drain_us=%.2f "
                 "healthy_p99=%.2f post_p99=%.2f degraded_p50=%.2f "
                 "post_p50=%.2f put_counts_exact=%d healthy_put_p50=%.2f "
                 "post_put_p50=%.2f, ceiling %.3fx)\n",
                 rec.healed_ok, rec.degraded_cleared, rec.counts_exact,
                 static_cast<unsigned long long>(rec.drained_bytes),
                 rec.recovery_drain_us, rec.healthy_p99_us, rec.post_p99_us,
                 rec.degraded_p50_us, rec.post_p50_us, rec.put_counts_exact,
                 rec.healthy_put_p50_us, rec.post_put_p50_us, put_ceiling);
    return 1;
  }
  return 0;
}
