// KV service: sharded routing, versioned one-sided reads, version-validated
// client caching, one cell per key under racing creation and writer deaths,
// in-order write rounds under deferred delivery, the Zipfian fleet
// generator and its fiber-native slow paths, seqlock coherence under a
// concurrent writer, seeded chaos determinism, and shard-owner failover.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <vector>

#include "common/instr.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"
#include "fabric/fabric.hpp"
#include "kv/kv.hpp"
#include "kv/zipf.hpp"
#include "rdma/network_model.hpp"
#include "simtime/sim_kv.hpp"

using namespace fompi;
using fabric::RankCtx;
using kv::KvConfig;
using kv::KvStore;
using rdma::OpStatus;

namespace {

/// First user key > `from` whose shard is owned by `owner` under `cfg`
/// with `p` ranks (pure function of the hash, computable without a store).
std::uint64_t key_owned_by(const KvStore& store, int owner,
                           std::uint64_t from = 1) {
  for (std::uint64_t k = from;; ++k) {
    if (store.owner_of(store.shard_of(k)) == owner) return k;
  }
}

}  // namespace

// --- basic service behaviour -------------------------------------------------

TEST(Kv, PutGetEraseAcrossRanks) {
  const int p = 4;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    KvStore store(ctx);
    // Every rank writes a disjoint key range; any rank reads any key.
    for (int i = 0; i < 32; ++i) {
      const auto k = static_cast<std::uint64_t>(ctx.rank()) * 1000 + i + 1;
      EXPECT_EQ(store.put(k, k * 7), OpStatus::ok);
    }
    ctx.barrier();
    for (int r = 0; r < p; ++r) {
      for (int i = 0; i < 32; ++i) {
        const auto k = static_cast<std::uint64_t>(r) * 1000 + i + 1;
        std::uint64_t v = 0;
        bool found = false;
        EXPECT_EQ(store.get(k, &v, &found), OpStatus::ok);
        EXPECT_TRUE(found) << "missing key " << k;
        EXPECT_EQ(v, k * 7);
      }
    }
    std::uint64_t v = 0;
    bool found = true;
    EXPECT_EQ(store.get(0xdeadbeef01, &v, &found), OpStatus::ok);
    EXPECT_FALSE(found);
    ctx.barrier();
    // Erase own keys; everyone observes the misses.
    for (int i = 0; i < 32; ++i) {
      const auto k = static_cast<std::uint64_t>(ctx.rank()) * 1000 + i + 1;
      EXPECT_EQ(store.erase(k), OpStatus::ok);
    }
    ctx.barrier();
    for (int r = 0; r < p; ++r) {
      const auto k = static_cast<std::uint64_t>(r) * 1000 + 1;
      EXPECT_EQ(store.get(k, &v, &found), OpStatus::ok);
      EXPECT_FALSE(found) << "key " << k << " survived erase";
    }
    ctx.barrier();
    store.destroy(ctx);
  });
}

TEST(Kv, OverwriteAndTombstoneReclaim) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    KvStore store(ctx);
    if (ctx.rank() == 0) {
      // Every write runs the owner and replica copies in lockstep; a scrub
      // after each one must find the pair already in agreement.
      const int s = store.shard_of(42);
      EXPECT_EQ(store.put(42, 1), OpStatus::ok);
      EXPECT_EQ(store.scrub(s).repairs, 0u);
      EXPECT_EQ(store.put(42, 2), OpStatus::ok);  // in-place seqlock update
      EXPECT_EQ(store.scrub(s).repairs, 0u);
      std::uint64_t v = 0;
      bool found = false;
      EXPECT_EQ(store.get(42, &v, &found), OpStatus::ok);
      EXPECT_TRUE(found);
      EXPECT_EQ(v, 2u);
      EXPECT_EQ(store.erase(42), OpStatus::ok);
      EXPECT_EQ(store.scrub(s).repairs, 0u);
      EXPECT_EQ(store.put(42, 3), OpStatus::ok);  // reclaims the tombstone
      EXPECT_EQ(store.scrub(s).repairs, 0u);
      EXPECT_EQ(store.get(42, &v, &found), OpStatus::ok);
      EXPECT_TRUE(found);
      EXPECT_EQ(v, 3u);
    }
    store.destroy(ctx);
  });
}

TEST(Kv, CollisionsSpillToOverflowChains) {
  KvConfig cfg;
  cfg.shards = 2;
  cfg.table_slots = 1;  // every key in a shard collides on slot 0
  cfg.heap_slots = 256;
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    KvStore store(ctx, cfg);
    for (int i = 0; i < 40; ++i) {
      const auto k = static_cast<std::uint64_t>(ctx.rank()) * 500 + i + 1;
      EXPECT_EQ(store.put(k, k + 9), OpStatus::ok);
    }
    ctx.barrier();
    for (int r = 0; r < 2; ++r) {
      for (int i = 0; i < 40; ++i) {
        const auto k = static_cast<std::uint64_t>(r) * 500 + i + 1;
        std::uint64_t v = 0;
        bool found = false;
        EXPECT_EQ(store.get(k, &v, &found), OpStatus::ok);
        EXPECT_TRUE(found) << "chained key " << k << " lost";
        EXPECT_EQ(v, k + 9);
      }
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      // Single writer, every top slot already taken: a fresh overflow
      // insert, a chain-cell overwrite and erase, then a different key
      // reclaiming the tombstone, all through the lockstep write. The
      // first scrub settles races of the concurrent phase above; after
      // that the two copies must agree after every write.
      for (int s = 0; s < cfg.shards; ++s) store.scrub(s);
      const std::uint64_t a = 900001;
      std::uint64_t b = a + 1;
      while (store.shard_of(b) != store.shard_of(a)) ++b;
      const int s = store.shard_of(a);
      const auto expect = [&](std::uint64_t k, bool present,
                              std::uint64_t want) {
        std::uint64_t v = 0;
        bool found = !present;
        ASSERT_EQ(store.get(k, &v, &found), OpStatus::ok);
        EXPECT_EQ(found, present) << "key " << k;
        if (present) {
          EXPECT_EQ(v, want) << "key " << k;
        }
        EXPECT_EQ(store.scrub(s).repairs, 0u) << "copies diverged on " << k;
      };
      ASSERT_EQ(store.put(a, 1), OpStatus::ok);  // fresh overflow insert
      expect(a, true, 1);
      ASSERT_EQ(store.put(a, 2), OpStatus::ok);  // chain-cell overwrite
      expect(a, true, 2);
      ASSERT_EQ(store.erase(a), OpStatus::ok);  // chain-cell erase
      expect(a, false, 0);
      ASSERT_EQ(store.put(b, 3), OpStatus::ok);  // reclaims a's tombstone
      expect(b, true, 3);
      expect(a, false, 0);
    }
    ctx.barrier();
    store.destroy(ctx);
  });
}

TEST(Kv, ReplicatedWriteRoundCounts) {
  // One driver round overlaps every live copy's requests, so a replicated
  // top-cell put costs the rounds of one copy: a fresh claim is {claim
  // CAS, version read} -> lock CAS -> {value write, release}; a put of a
  // key this rank wrote before takes the cell its entry names on each
  // copy, {fetch-or, key read} -> {value write, release}, top or chain. A
  // read takes a cell's snapshot in one round: {version, get of the whole
  // cell, version}. Each round's requests chain behind one NIC doorbell.
  // (The op_from_string round trip of Op::kv_round is covered by
  // TraceNames.OpToStringRoundTripsExhaustively.)
  KvConfig cfg;
  cfg.shards = 2;
  cfg.table_slots = 1;  // a second key of the shard goes to the chain
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    KvStore store(ctx, cfg);
    struct Cost {
      std::uint64_t rounds, amos, gets, doorbells, descriptors;
    };
    const auto cost = [](auto&& op) {
      const OpCounters c0 = op_counters();
      EXPECT_EQ(op(), OpStatus::ok);
      const OpCounters d = op_counters().since(c0);
      // An AMO on the caller's own memory counts as a local atomic.
      return Cost{d.get(Op::kv_round),
                  d.get(Op::transport_amo) + d.get(Op::local_atomic),
                  d.get(Op::transport_get), d.get(Op::doorbell_ring),
                  d.get(Op::batched_op)};
    };
    const std::uint64_t a = 1;
    std::uint64_t b = 2;
    while (store.shard_of(b) != store.shard_of(a)) ++b;
    std::uint64_t v = 0;
    bool found = false;
    const auto get = [&](std::uint64_t k) {
      return cost([&] { return store.get(k, &v, &found); });
    };
    if (ctx.rank() == 0) {
      const auto put = [&](std::uint64_t k, std::uint64_t val) {
        return cost([&] { return store.put(k, val); });
      };
      EXPECT_EQ(put(a, 1).rounds, 3u);  // fresh claim
      // Overwrite: a take and a write on each copy, 4 AMOs per copy (the
      // fetch-or, the key read, the value, the release) and no get.
      Cost c = put(a, 2);
      EXPECT_EQ(c.rounds, 2u);
      EXPECT_EQ(c.amos, 8u);
      EXPECT_EQ(c.gets, 0u);
      // One doorbell per round, both copies' requests behind it.
      EXPECT_EQ(c.doorbells, 2u);
      EXPECT_EQ(c.descriptors, 8u);
      // Fresh chain insert: top -> head -> slot lock -> FAA -> fill ->
      // link -> release.
      EXPECT_EQ(put(b, 3).rounds, 7u);
      // Chain overwrite: the take goes straight to b's chain cell.
      EXPECT_EQ(put(b, 4).rounds, 2u);
      // The puts left a's entry only its cells. A get snapshots the hinted
      // cell: one round of 2 AMOs and 1 get, like an uncached top-cell
      // get; a warm cache hit is one round reading the cached cell's
      // version, 1 AMO and no get.
      c = get(a);
      EXPECT_EQ(c.rounds, 1u);
      EXPECT_EQ(c.amos, 2u);
      EXPECT_EQ(c.gets, 1u);
      EXPECT_EQ(c.doorbells, 1u);
      EXPECT_EQ(c.descriptors, 3u);
      c = get(a);
      EXPECT_EQ(c.rounds, 1u);
      EXPECT_EQ(c.amos, 1u);
      EXPECT_EQ(c.gets, 0u);
      EXPECT_EQ(v, 2u);
      // Chain key: the hinted chain cell's snapshot, no walk; then the
      // chain cell is cached like a top cell.
      EXPECT_EQ(get(b).rounds, 1u);
      EXPECT_EQ(get(b).rounds, 1u);
      EXPECT_EQ(v, 4u);
      EXPECT_EQ(store.cached_entries(store.shard_of(b)), 2u);
    }
    ctx.barrier();
    if (ctx.rank() == 1) {
      EXPECT_EQ(store.put(a, 5), OpStatus::ok);  // a peer's overwrite
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      // A stale entry: the version check, then a snapshot of the cached
      // cell in place, which still holds the key, so no walk. It counts
      // as a miss: every cached get is a hit or a miss, a hinted snapshot
      // too.
      const Cost c = get(a);
      EXPECT_EQ(c.rounds, 2u);
      EXPECT_EQ(c.amos, 3u);
      EXPECT_EQ(c.gets, 1u);
      EXPECT_EQ(v, 5u);
      const kv::KvStats& s = store.stats();
      EXPECT_EQ(s.cache_hits, 2u);
      EXPECT_EQ(s.cache_misses, 3u);
      EXPECT_EQ(s.cache_hits + s.cache_misses, s.gets);
    }
    ctx.barrier();
    store.destroy(ctx);
  });

  // Busy time under the model, both copies remote: a hinted put's two
  // rounds each ring one doorbell of 4 requests, 2 x (416 + 3 x 45) =
  // 1102 ns on the client's NIC (8 x 416 = 3328 ns at one doorbell per
  // request). A get of the key just put snapshots the cell its entry kept
  // (the entry drops the value): one doorbell of 3 requests, 416 + 2 x 45
  // = 506 ns. Both equal sim_kv's forms less their round trips, to the
  // nanosecond, so the closed forms cannot drift from the NIC's meter.
  const sim::KvParams model;
  const double rtt_us = rdma::kGemini.amo_base_ns / 1e3;
  const auto form_ns = [](double us) {
    return static_cast<std::uint64_t>(std::llround(us * 1e3));
  };
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  opts.domain.inject = rdma::Injection::model;
  fabric::run_ranks(
      3,
      [&](RankCtx& ctx) {
        KvStore store(ctx, cfg);
        if (ctx.rank() == 0) {
          const std::uint64_t k = key_owned_by(store, 1);
          ASSERT_EQ(store.replica_of(store.shard_of(k)), 2);
          ASSERT_EQ(store.put(k, 1), OpStatus::ok);  // leaves the hints
          const std::uint64_t m0 = ctx.nic().modeled_ns();
          EXPECT_EQ(store.put(k, 2), OpStatus::ok);
          EXPECT_EQ(ctx.nic().modeled_ns() - m0, 1102u);
          EXPECT_EQ(ctx.nic().modeled_ns() - m0,
                    form_ns(sim::kv_put_us(model) - model.put_rounds * rtt_us));
          const std::uint64_t m1 = ctx.nic().modeled_ns();
          std::uint64_t v = 0;
          bool found = false;
          EXPECT_EQ(store.get(k, &v, &found), OpStatus::ok);
          EXPECT_TRUE(found);
          EXPECT_EQ(v, 2u);
          EXPECT_EQ(ctx.nic().modeled_ns() - m1, 506u);
          EXPECT_EQ(ctx.nic().modeled_ns() - m1,
                    form_ns(sim::kv_read_p99_us(model) - rtt_us));
        }
        ctx.barrier();
        store.destroy(ctx);
      },
      opts);
}

TEST(Kv, RoundParksOnTheDeadlineItsDoorbellsComputed) {
  // A fleet round parks on the latest completion its doorbells computed,
  // with no handle looked up; it must equal the latest completion deadline
  // of the round's handles. Under the model, stretched 100x so that a
  // doorbell's busy time outlasts the host's posting.
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  opts.domain.inject = rdma::Injection::model;
  opts.domain.time_scale = 100;
  fabric::run_ranks(
      3,
      [&](RankCtx& ctx) {
        KvStore store(ctx);
        const std::uint64_t seeded = key_owned_by(store, 2);
        if (ctx.rank() == 1) {
          ASSERT_EQ(store.put(seeded, 5), OpStatus::ok);
        }
        ctx.barrier();
        if (ctx.rank() == 0) {
          std::uint64_t latest = 0;
          // 22 gets of never-written keys: 66 requests in one round, which
          // ring two doorbells (64 + 2), and each get retires in it. The
          // last get reads this rank's own memory, so the second doorbell,
          // rung once the first one's busy time ended, completes before
          // the first: the deadline must cover both.
          std::vector<std::uint64_t> absent;
          for (std::uint64_t k = 1'000'001; absent.size() < 21; ++k) {
            if (store.owner_of(store.shard_of(k)) != 0) absent.push_back(k);
          }
          absent.push_back(key_owned_by(store, 0, 1'000'001));
          const std::uint64_t db0 = ctx.nic().doorbells_rung();
          EXPECT_EQ(store.debug_round(absent, false, 0, &latest), latest);
          EXPECT_NE(latest, 0u);
          EXPECT_EQ(ctx.nic().doorbells_rung() - db0, 2u);
          // An uncached get round: a snapshot of a key another rank wrote.
          EXPECT_EQ(store.debug_round({seeded}, false, 0, &latest), latest);
          EXPECT_NE(latest, 0u);
          // A hinted replicated put round: a take on each copy.
          const std::uint64_t k = key_owned_by(store, 1);
          ASSERT_EQ(store.replica_of(store.shard_of(k)), 2);
          ASSERT_EQ(store.put(k, 1), OpStatus::ok);  // leaves the hints
          EXPECT_EQ(store.debug_round({k}, true, 2, &latest), latest);
          EXPECT_NE(latest, 0u);
          std::uint64_t v = 0;
          bool found = false;
          ASSERT_EQ(store.get(k, &v, &found), OpStatus::ok);
          EXPECT_TRUE(found);
          EXPECT_EQ(v, 2u);
        }
        ctx.barrier();
        store.destroy(ctx);
      },
      opts);
}

TEST(Kv, ReaderSeeingNewValueNeverLeavesPeerCacheStale) {
  // Ranks 0 and 1 share a node (fast intra-node AMOs); the writer, rank 2,
  // sits behind a network whose AMO round trip is stretched to ~5 ms. B
  // (rank 1) caches the key, the writer overwrites it, and A (rank 0, the
  // shard owner, uncached) polls until it reads the new value, then flags
  // B. B's next get must return the new value too: A read it at or after
  // the writer's release, so B's later version check must see the
  // released version, never the one its entry was cached at.
  fabric::FabricOptions opts;
  opts.domain.nranks = 3;
  opts.domain.ranks_per_node = 2;
  opts.domain.inject = rdma::Injection::model;
  opts.domain.time_scale = 100;
  opts.domain.model.amo_base_ns = 50000;  // x100: a 5 ms inter-node AMO
  opts.hang_timeout_ns = 60'000'000'000;  // a stuck poll fails, not hangs
  std::atomic<bool> a_saw_new{false};
  fabric::run_ranks(
      3,
      [&](RankCtx& ctx) {
        KvConfig cfg;
        cfg.client_cache = ctx.rank() != 0;  // A must not serve from cache
        KvStore store(ctx, cfg);
        const auto key = key_owned_by(store, 0);
        ASSERT_EQ(store.replica_of(store.shard_of(key)), 1);
        if (ctx.rank() == 0) {
          ASSERT_EQ(store.put(key, 1), OpStatus::ok);
        }
        ctx.barrier();
        std::uint64_t v = 0;
        bool found = false;
        if (ctx.rank() == 1) {
          ASSERT_EQ(store.get(key, &v, &found), OpStatus::ok);
          ASSERT_EQ(store.get(key, &v, &found), OpStatus::ok);
          ASSERT_EQ(store.stats().cache_hits, 1u);
        }
        ctx.barrier();
        if (ctx.rank() == 2) {
          ASSERT_EQ(store.put(key, 2), OpStatus::ok);
        } else if (ctx.rank() == 0) {
          do {
            ASSERT_EQ(store.get(key, &v, &found), OpStatus::ok);
          } while (v != 2);
          a_saw_new = true;
        } else {
          while (!a_saw_new) ctx.yield_check();
          ASSERT_EQ(store.get(key, &v, &found), OpStatus::ok);
          EXPECT_TRUE(found);
          EXPECT_EQ(v, 2u) << "B served its cached value after A read the "
                              "new one";
        }
        ctx.barrier();
        store.destroy(ctx);
      },
      opts);
}

TEST(Kv, DelayedRelockNeverWritesIntoAnotherKeysCell) {
  // Ranks 0 and 1 share a node; rank 2's AMOs take ~5 ms. Rank 2 puts
  // (k, 99) and reads k's top cell at version 2. While its lock CAS is in
  // flight, rank 0 (k's owner) erases k and puts k2, which collides, into
  // the same top cell. Rank 2's lock then loses to the moved version; its
  // take must notice the cell now holds k2 and re-locate k instead of
  // writing 99 into k2's cell.
  fabric::FabricOptions opts;
  opts.domain.nranks = 3;
  opts.domain.ranks_per_node = 2;
  opts.domain.inject = rdma::Injection::model;
  opts.domain.time_scale = 100;
  opts.domain.model.amo_base_ns = 50000;  // x100: a 5 ms inter-node AMO
  opts.hang_timeout_ns = 60'000'000'000;
  std::atomic<bool> started{false};
  fabric::run_ranks(
      3,
      [&](RankCtx& ctx) {
        KvConfig cfg;
        cfg.shards = 3;
        cfg.table_slots = 1;
        KvStore store(ctx, cfg);
        const auto k = key_owned_by(store, 0);
        ASSERT_EQ(store.replica_of(store.shard_of(k)), 1);
        std::uint64_t k2 = k + 1;
        while (store.shard_of(k2) != store.shard_of(k)) ++k2;
        if (ctx.rank() == 0) {
          ASSERT_EQ(store.put(k, 1), OpStatus::ok);
        }
        ctx.barrier();
        if (ctx.rank() == 2) {
          started = true;
          ASSERT_EQ(store.put(k, 99), OpStatus::ok);
        } else if (ctx.rank() == 0) {
          while (!started) ctx.yield_check();
          // Let rank 2's top round land (~0.2 ms of issue overhead), then
          // finish both writes well inside its 5 ms round trip.
          const std::uint64_t t0 = now_ns();
          while (now_ns() - t0 < 1'000'000) ctx.yield_check();
          ASSERT_EQ(store.erase(k), OpStatus::ok);
          ASSERT_EQ(store.put(k2, 7), OpStatus::ok);
        }
        ctx.barrier();
        if (ctx.rank() == 0) {
          std::uint64_t v = 0;
          bool found = false;
          ASSERT_EQ(store.get(k2, &v, &found), OpStatus::ok);
          EXPECT_TRUE(found);
          EXPECT_EQ(v, 7u) << "a delayed put of another key landed in k2";
          // Found unless a slow host let the erase land after rank 2's put.
          ASSERT_EQ(store.get(k, &v, &found), OpStatus::ok);
          if (found) {
            EXPECT_EQ(v, 99u);
          }
        }
        ctx.barrier();
        store.destroy(ctx);
      },
      opts);
}

TEST(Kv, StaleHintNeverWritesIntoAnotherKeysCell) {
  // One top slot per shard. Ranks 0 and 2 put k, so each holds k's top
  // cell on both copies as a hint. Rank 1 erases k and puts j, which
  // reclaims k's tombstoned top cell on both copies. Rank 0 puts k again:
  // its takes read j under the lock, release and walk, so k lands in a
  // cell of its own and j keeps its value on both copies. Rank 2's entry
  // still names the top cell, now j's: its get snapshots that cell, sees
  // j, and walks on to k's cell, so it returns k's value, never j's.
  KvConfig cfg;
  cfg.shards = 3;
  cfg.table_slots = 1;
  fabric::run_ranks(3, [&](RankCtx& ctx) {
    KvStore store(ctx, cfg);
    const std::uint64_t k = 1;
    std::uint64_t j = 2;
    while (store.shard_of(j) != store.shard_of(k)) ++j;
    std::uint64_t v = 0;
    bool found = false;
    if (ctx.rank() == 0) {
      ASSERT_EQ(store.put(k, 10), OpStatus::ok);
    }
    ctx.barrier();
    if (ctx.rank() == 2) {
      ASSERT_EQ(store.put(k, 11), OpStatus::ok);
    }
    ctx.barrier();
    if (ctx.rank() == 1) {
      ASSERT_EQ(store.erase(k), OpStatus::ok);
      ASSERT_EQ(store.put(j, 20), OpStatus::ok);  // reclaims k's top cell
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      ASSERT_EQ(store.put(k, 30), OpStatus::ok);
      for (const bool replica : {false, true}) {
        const char* copy = replica ? "replica" : "primary";
        ASSERT_EQ(store.debug_read_copy(j, replica, &v, &found),
                  OpStatus::ok);
        EXPECT_TRUE(found) << copy;
        EXPECT_EQ(v, 20u) << "a stale hint wrote into j's cell on the "
                          << copy;
        ASSERT_EQ(store.debug_read_copy(k, replica, &v, &found),
                  OpStatus::ok);
        EXPECT_TRUE(found) << copy;
        EXPECT_EQ(v, 30u) << copy;
      }
      EXPECT_EQ(store.scrub(store.shard_of(k)).repairs, 0u);
    }
    ctx.barrier();
    if (ctx.rank() == 2) {
      ASSERT_EQ(store.get(k, &v, &found), OpStatus::ok);
      EXPECT_TRUE(found);
      EXPECT_EQ(v, 30u) << "a hinted read served another key's value";
    }
    ctx.barrier();
    store.destroy(ctx);
  });
}

TEST(Kv, TakeWhoseKeyReadFailedReleasesTheCell) {
  // One transient fault site per rank and no retry budget. The seed puts
  // rank 2's site, a permanent failure, past its setup, and makes the
  // other ranks' sites latency spikes. Rank 2 writes the key once, pads
  // its op count to one below the site and writes again: the take's
  // fetch-or locks the owner's cell at an even version and its key read
  // fails. The put retires with that failure, but must release the cell
  // first: with no death, nothing would ever revoke it, and rank 2's next
  // put would wait on it until the watchdog ends the run.
  constexpr std::uint64_t kFrom = 1000;
  fabric::FabricOptions opts;
  opts.domain.nranks = 3;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.transient_faults_per_rank = 1;
  opts.domain.fault.horizon_ops = 2 * kFrom;
  opts.domain.fault.retry_budget = 0;
  opts.errors_return = true;
  opts.hang_timeout_ns = 60'000'000'000;
  const auto spike = [](const rdma::Nic& nic) {
    return nic.fault_schedule().at(0).kind == rdma::FaultKind::latency_spike;
  };
  for (opts.domain.fault.seed = 1;; ++opts.domain.fault.seed) {
    rdma::Domain dom(opts.domain);
    if (dom.nic(2).fault_schedule().at(0).at_op >= kFrom && !spike(dom.nic(2)) &&
        spike(dom.nic(0)) && spike(dom.nic(1))) {
      break;
    }
  }
  fabric::run_ranks(
      3,
      [&](RankCtx& ctx) {
        KvStore store(ctx);
        const auto key = key_owned_by(store, 0);
        ASSERT_EQ(store.replica_of(store.shard_of(key)), 1);
        if (ctx.rank() == 2) {
          ASSERT_EQ(store.put(key, 1), OpStatus::ok);
        }
        ctx.barrier();
        if (ctx.rank() == 2) {
          // Ops in issue order: the owner's fetch-or, then its key read.
          const std::uint64_t site = ctx.nic().fault_schedule()[0].at_op;
          ASSERT_LT(ctx.nic().issued_ops(), site - 1);
          while (ctx.nic().issued_ops() < site - 1) store.generation();
          const auto st = store.put(key, 2);
          EXPECT_TRUE(st == OpStatus::timeout || st == OpStatus::cq_error)
              << rdma::to_string(st);
          ASSERT_EQ(store.put(key, 3), OpStatus::ok);
        }
        ctx.barrier();
        std::uint64_t v = 0;
        bool found = false;
        ASSERT_EQ(store.get(key, &v, &found), OpStatus::ok);
        EXPECT_TRUE(found);
        EXPECT_EQ(v, 3u);
        if (ctx.rank() == 0) {
          EXPECT_EQ(store.scrub(store.shard_of(key)).repairs, 0u);
        }
        ctx.barrier();
        store.destroy(ctx);
      },
      opts);
}

TEST(Kv, WriteRoundsRetireInIssueOrderUnderDeferredDelivery) {
  // Under deferred delivery an inter-node store lands when its origin
  // retires it, so a write round must retire its value store before the
  // release that publishes it. Latency spikes make single stores complete
  // late: retiring the release first would open a window in which a
  // caching reader reads {new version, old value} and then serves the old
  // value until the next write. The writer (blocking puts, drive()) publishes
  // each value once its put returned and waits until the reader checked a
  // get begun after that; every other pass, the reader refills its cache
  // through the fleet's round routine (run_fleet over a keyspace of one).
  fabric::FabricOptions opts;
  opts.domain.nranks = 3;
  opts.domain.ranks_per_node = 1;  // every rank its own node
  opts.domain.inject = rdma::Injection::model;
  opts.domain.delivery = rdma::Delivery::deferred;
  opts.domain.fault.seed = 5;
  opts.domain.fault.transient_faults_per_rank = 400;  // 1 in 4 a spike
  opts.domain.fault.horizon_ops = 4000;
  opts.hang_timeout_ns = 60'000'000'000;
  constexpr std::uint64_t kPuts = 400;
  std::atomic<std::uint64_t> published{0}, checked{0};
  std::atomic<bool> done{false}, failed{false};
  fabric::run_ranks(
      3,
      [&](RankCtx& ctx) {
        KvConfig cfg;
        cfg.replicate = false;  // every write round goes to the remote owner
        KvStore store(ctx, cfg);
        constexpr std::uint64_t kKey = 1;  // the fleet's only key below
        const int owner = store.owner_of(store.shard_of(kKey));
        const int writer = (owner + 1) % 3;
        const int reader = (owner + 2) % 3;
        if (ctx.rank() == writer) {
          ASSERT_EQ(store.put(kKey, 0), OpStatus::ok);
        }
        ctx.barrier();
        if (ctx.rank() == writer) {
          for (std::uint64_t i = 1; i <= kPuts && !failed; ++i) {
            EXPECT_EQ(store.put(kKey, i), OpStatus::ok);
            published.store(i, std::memory_order_release);
            while (checked.load(std::memory_order_acquire) < i && !failed) {
              ctx.yield_check();
            }
          }
          done = true;
        } else if (ctx.rank() == reader) {
          KvStore::FleetConfig fc;
          fc.ops_per_rank = 4;
          fc.fibers = 2;
          fc.read_ratio = 1.0;
          fc.keyspace = 1;
          for (int pass = 0; !done; ++pass) {
            if (pass % 2 == 1) {
              const auto res = store.run_fleet(ctx, fc);
              EXPECT_EQ(res.ok_ops, res.issued);
              continue;
            }
            const std::uint64_t pub = published.load(std::memory_order_acquire);
            std::uint64_t v = 0;
            bool found = false;
            const auto st = store.get(kKey, &v, &found);
            if (st != OpStatus::ok || !found || v < pub) {
              ADD_FAILURE() << "get begun after value " << pub
                            << " was published returned " << v
                            << " (found " << found << ", status "
                            << rdma::to_string(st) << ")";
              failed = true;
              break;
            }
            checked.store(pub, std::memory_order_release);
          }
        }
        ctx.barrier();
        store.destroy(ctx);
      },
      opts);
  EXPECT_FALSE(failed.load());
}

TEST(Kv, RoutingTableFetchMatchesAuthoritativeMap) {
  // Every client's one-sided routing fetch must agree with the map rank 0
  // published: owner = shard % p, replica = (owner + 1) % p.
  const int p = 3;
  KvConfig cfg;
  cfg.shards = 8;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    KvStore store(ctx, cfg);
    for (int s = 0; s < cfg.shards; ++s) {
      EXPECT_EQ(store.owner_of(s), s % p);
      EXPECT_EQ(store.replica_of(s), (s % p + 1) % p);
    }
    store.destroy(ctx);
  });
}

TEST(Kv, RejectsReservedKeys) {
  fabric::run_ranks(1, [](RankCtx& ctx) {
    KvStore store(ctx);
    std::uint64_t v = 0;
    bool found = false;
    EXPECT_THROW(store.put(0, 1), Error);
    EXPECT_THROW(store.get(kv::kTombstone, &v, &found), Error);
    EXPECT_THROW(store.erase(0), Error);
    store.destroy(ctx);
  });
}

// --- client cache -------------------------------------------------------------

TEST(Kv, CacheHitsAfterFirstReadAndInvalidatesOnWrite) {
  // Single active client: deterministic hit/miss accounting.
  fabric::run_ranks(2, [](RankCtx& ctx) {
    KvStore store(ctx);
    if (ctx.rank() == 0) {
      ASSERT_EQ(store.put(77, 100), OpStatus::ok);
      std::uint64_t v = 0;
      bool found = false;
      ASSERT_EQ(store.get(77, &v, &found), OpStatus::ok);  // cold: miss
      EXPECT_EQ(store.stats().cache_misses, 1u);
      EXPECT_EQ(store.stats().cache_hits, 0u);
      ASSERT_EQ(store.get(77, &v, &found), OpStatus::ok);  // warm: hit
      EXPECT_EQ(store.stats().cache_hits, 1u);
      EXPECT_EQ(v, 100u);
      // A write drops its key's entry: the next read must re-read.
      ASSERT_EQ(store.put(77, 200), OpStatus::ok);
      ASSERT_EQ(store.get(77, &v, &found), OpStatus::ok);
      EXPECT_EQ(v, 200u) << "cache served a stale value across a write";
      EXPECT_EQ(store.stats().cache_misses, 2u);
      ASSERT_EQ(store.get(77, &v, &found), OpStatus::ok);  // warm again
      EXPECT_EQ(store.stats().cache_hits, 2u);
    }
    store.destroy(ctx);
  });
}

TEST(Kv, RemoteWriterInvalidatesPeerCache) {
  // Rank 0 caches a key; rank 1 overwrites it; rank 0's next read must
  // observe the new value through the version check (no stale serve).
  fabric::run_ranks(2, [](RankCtx& ctx) {
    KvStore store(ctx);
    std::uint64_t v = 0;
    bool found = false;
    if (ctx.rank() == 0) {
      ASSERT_EQ(store.put(31337, 1), OpStatus::ok);
      ASSERT_EQ(store.get(31337, &v, &found), OpStatus::ok);
      ASSERT_EQ(store.get(31337, &v, &found), OpStatus::ok);
      EXPECT_GE(store.stats().cache_hits, 1u);
    }
    ctx.barrier();
    if (ctx.rank() == 1) {
      ASSERT_EQ(store.put(31337, 2), OpStatus::ok);
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      ASSERT_EQ(store.get(31337, &v, &found), OpStatus::ok);
      EXPECT_TRUE(found);
      EXPECT_EQ(v, 2u) << "peer write not observed: stale cache";
    }
    ctx.barrier();
    store.destroy(ctx);
  });
}

TEST(Kv, WriteToAnotherKeyKeepsPeerCacheWarm) {
  // Validation is per key: rank 1's put to k2 moves only k2's cell
  // version, so rank 0's entry for k1, in the same shard, still hits.
  fabric::run_ranks(2, [](RankCtx& ctx) {
    KvStore store(ctx);
    const std::uint64_t k1 = 4242;
    std::uint64_t k2 = k1 + 1;
    while (store.shard_of(k2) != store.shard_of(k1)) ++k2;
    std::uint64_t v = 0;
    bool found = false;
    if (ctx.rank() == 0) {
      ASSERT_EQ(store.put(k1, 1), OpStatus::ok);
      ASSERT_EQ(store.get(k1, &v, &found), OpStatus::ok);  // fills the cache
    }
    ctx.barrier();
    if (ctx.rank() == 1) {
      ASSERT_EQ(store.put(k2, 2), OpStatus::ok);
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      const auto hits = store.stats().cache_hits;
      ASSERT_EQ(store.get(k1, &v, &found), OpStatus::ok);
      EXPECT_EQ(store.stats().cache_hits, hits + 1)
          << "a write to another key of the shard dropped k1's entry";
      EXPECT_TRUE(found);
      EXPECT_EQ(v, 1u);
    }
    ctx.barrier();
    store.destroy(ctx);
  });
}

TEST(Kv, CachedEntryNeverServesAReclaimedCell) {
  // One top slot per shard: rank 0 erases `a` and puts `b`, which reclaims
  // a's tombstoned top cell. Rank 1's entry for `a` names that cell; the
  // erase and the refill moved its version, so the entry must miss instead
  // of serving a's old value out of b's cell.
  KvConfig cfg;
  cfg.shards = 2;
  cfg.table_slots = 1;
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    KvStore store(ctx, cfg);
    const std::uint64_t a = 1;
    std::uint64_t b = 2;
    while (store.shard_of(b) != store.shard_of(a)) ++b;
    std::uint64_t v = 0;
    bool found = false;
    if (ctx.rank() == 0) {
      ASSERT_EQ(store.put(a, 10), OpStatus::ok);
    }
    ctx.barrier();
    if (ctx.rank() == 1) {
      ASSERT_EQ(store.get(a, &v, &found), OpStatus::ok);
      ASSERT_EQ(store.get(a, &v, &found), OpStatus::ok);
      ASSERT_EQ(store.stats().cache_hits, 1u);
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      ASSERT_EQ(store.erase(a), OpStatus::ok);
      ASSERT_EQ(store.put(b, 20), OpStatus::ok);
    }
    ctx.barrier();
    if (ctx.rank() == 1) {
      ASSERT_EQ(store.get(a, &v, &found), OpStatus::ok);
      EXPECT_FALSE(found) << "served " << v << " from a reclaimed cell";
      EXPECT_EQ(store.stats().cache_hits, 1u);
      ASSERT_EQ(store.get(b, &v, &found), OpStatus::ok);
      EXPECT_TRUE(found);
      EXPECT_EQ(v, 20u);
    }
    ctx.barrier();
    store.destroy(ctx);
  });
}

TEST(Kv, PeerCacheFollowsKeyIntoReclaimedTopCell) {
  // One top slot per shard: x takes the top cell and `a` a chain cell.
  // After erase(x) the top is a tombstone, and put(a, 2) must update a's
  // chain cell in place rather than reclaim the top: a key keeps one cell.
  // Rank 1 cached `a` from its chain cell; the put moved that cell's
  // version, so rank 1's next get must miss the entry and return 2.
  KvConfig cfg;
  cfg.shards = 2;
  cfg.table_slots = 1;
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    KvStore store(ctx, cfg);
    const std::uint64_t x = 1;
    std::uint64_t a = 2;
    while (store.shard_of(a) != store.shard_of(x)) ++a;
    std::uint64_t v = 0;
    bool found = false;
    if (ctx.rank() == 0) {
      ASSERT_EQ(store.put(x, 1), OpStatus::ok);  // top cell
      ASSERT_EQ(store.put(a, 1), OpStatus::ok);  // chain cell
    }
    ctx.barrier();
    if (ctx.rank() == 1) {
      ASSERT_EQ(store.get(a, &v, &found), OpStatus::ok);
      ASSERT_EQ(store.get(a, &v, &found), OpStatus::ok);
      EXPECT_EQ(v, 1u);
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      ASSERT_EQ(store.erase(x), OpStatus::ok);
      ASSERT_EQ(store.put(a, 2), OpStatus::ok);  // reclaims the top cell
    }
    ctx.barrier();
    if (ctx.rank() == 1) {
      ASSERT_EQ(store.get(a, &v, &found), OpStatus::ok);
      EXPECT_TRUE(found);
      EXPECT_EQ(v, 2u) << "served the shadowed chain copy";
    }
    ctx.barrier();
    store.destroy(ctx);
  });
}

TEST(Kv, EraseLeavesNoShadowedChainCopy) {
  // One top slot, no cache, one writer: x takes the top and `a` a chain
  // cell; erase(x) tombstones the top. put(a, 2) must find a's chain cell
  // before it reclaims that tombstone, or `a` lives in two cells and
  // erase(a) removes only the one nearer the top, resurfacing a = 1.
  KvConfig cfg;
  cfg.shards = 2;
  cfg.table_slots = 1;
  cfg.client_cache = false;
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    KvStore store(ctx, cfg);
    if (ctx.rank() == 0) {
      const std::uint64_t x = 1;
      std::uint64_t a = 2;
      while (store.shard_of(a) != store.shard_of(x)) ++a;
      ASSERT_EQ(store.put(x, 1), OpStatus::ok);
      ASSERT_EQ(store.put(a, 1), OpStatus::ok);
      ASSERT_EQ(store.erase(x), OpStatus::ok);
      ASSERT_EQ(store.put(a, 2), OpStatus::ok);
      ASSERT_EQ(store.erase(a), OpStatus::ok);
      std::uint64_t v = 0;
      bool found = true;
      ASSERT_EQ(store.get(a, &v, &found), OpStatus::ok);
      EXPECT_FALSE(found) << "erased key resurfaced with value " << v;
    }
    ctx.barrier();
    store.destroy(ctx);
  });
}

// --- Zipfian generator --------------------------------------------------------

TEST(Zipf, SameSeedSameStream) {
  kv::Zipf a(1024, 0.9, 42);
  kv::Zipf b(1024, 0.9, 42);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(a.next(), b.next()) << "stream diverged at draw " << i;
  }
}

TEST(Zipf, DifferentSeedsDiffer) {
  kv::Zipf a(1024, 0.9, 1);
  kv::Zipf b(1024, 0.9, 2);
  int diffs = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() != b.next()) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

TEST(Zipf, SkewFavorsLowRanksAndStaysInRange) {
  kv::Zipf z(256, 0.9, 7);
  std::array<int, 256> freq{};
  for (int i = 0; i < 100000; ++i) {
    const auto k = z.next();
    ASSERT_LT(k, 256u);
    ++freq[static_cast<std::size_t>(k)];
  }
  EXPECT_GT(freq[0], freq[128] * 4) << "rank 0 should dominate mid-ranks";
  EXPECT_GT(freq[0], 10000);  // ~ 17% mass at s=0.9, n=256
}

TEST(Zipf, UniformDegenerateCase) {
  kv::Zipf z(64, 0.0, 9);
  std::array<int, 64> freq{};
  for (int i = 0; i < 64000; ++i) ++freq[static_cast<std::size_t>(z.next())];
  for (const int f : freq) {
    EXPECT_GT(f, 500);  // expectation 1000 each, loose 2-sided bound
    EXPECT_LT(f, 2000);
  }
}

TEST(Zipf, MassSumsToOne) {
  kv::Zipf z(128, 0.9, 1);
  double sum = 0.0;
  for (std::uint64_t r = 0; r < 128; ++r) sum += z.mass(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// --- seqlock coherence under a concurrent writer ------------------------------

namespace {

/// Reader loops versioned gets of key `kA` while the writer churns the
/// same single-slot shard: overwrites, erases, and inserts of a colliding
/// key `kB` that reclaims kA's tombstoned cells. Every get that finds kA
/// must return a value tagged with kA (never kB's, never torn) and no
/// older than the writer's last completed op allows: after a put of x, x
/// or later; after an erase, a value put after it. The writer is rank 0,
/// which hosts the shard; the reader is rank 1.
void seqlock_round(std::uint64_t seed, const fabric::FabricOptions& opts,
                   bool cache) {
  constexpr std::uint64_t kA = 5, kB = 9, kTag = 1000000;
  KvConfig cfg;
  cfg.shards = 1;       // same shard...
  cfg.table_slots = 1;  // ...same top slot: maximum contention
  cfg.heap_slots = 512;
  cfg.client_cache = cache;
  cfg.replicate = false;
  // The least value a get begun now may find (values grow with `i`).
  std::atomic<std::uint64_t> min_found{0};
  fabric::run_ranks(
      2,
      [&](RankCtx& ctx) {
        KvStore store(ctx, cfg);
        if (ctx.rank() == 0) {
          Rng rng(seed);
          std::uint64_t i = 0;
          for (int op = 0; op < 400; ++op) {
            const auto roll = rng.below(10);
            if (roll < 6) {
              ASSERT_EQ(store.put(kA, kA * kTag + i), OpStatus::ok);
              min_found.store(kA * kTag + i++, std::memory_order_release);
            } else if (roll < 8) {
              ASSERT_EQ(store.erase(kA), OpStatus::ok);
              min_found.store(kA * kTag + i, std::memory_order_release);
            } else {
              ASSERT_EQ(store.put(kB, kB * kTag + i++), OpStatus::ok);
            }
          }
        } else {
          for (int r = 0; r < 400; ++r) {
            const std::uint64_t least =
                min_found.load(std::memory_order_acquire);
            std::uint64_t v = 0;
            bool found = false;
            ASSERT_EQ(store.get(kA, &v, &found), OpStatus::ok);
            if (found) {
              EXPECT_EQ(v / kTag, kA)
                  << "read returned a foreign or torn value " << v;
              EXPECT_GE(v, least) << "read returned a stale value";
            }
          }
        }
        ctx.barrier();
        store.destroy(ctx);
      },
      opts);
}

}  // namespace

TEST(KvSeqlock, ReadsNeverTearUnderConcurrentWriter) {
  // Two inputs. Functional timing without the cache: every get is the
  // full snapshot read. Then the Gemini model with the ranks on separate
  // nodes and the cache on: requests land microseconds apart, and stale
  // checks re-read the cached cell while erases and reclaims move it.
  fabric::FabricOptions modeled;
  modeled.domain.ranks_per_node = 1;
  modeled.domain.inject = rdma::Injection::model;
  modeled.hang_timeout_ns = 60'000'000'000;
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    seqlock_round(seed, {}, /*cache=*/false);
    seqlock_round(seed, modeled, /*cache=*/true);
  }
}

// --- seeded chaos determinism -------------------------------------------------

namespace {

struct FaultCounters {
  std::uint64_t injected = 0;
  std::uint64_t retried = 0;
  std::uint64_t failed = 0;

  friend bool operator==(const FaultCounters&, const FaultCounters&) = default;
};

/// One KV round under a survivable (transient-only) fault plan; returns
/// the summed fault counters. Workload correctness asserted inside.
FaultCounters kv_chaos_round(std::uint64_t seed) {
  constexpr int kRanks = 4;
  constexpr int kKeysPerRank = 24;
  fabric::FabricOptions opts;
  opts.domain.nranks = kRanks;
  opts.domain.ranks_per_node = 1;  // inter-node ("DMAPP") path
  opts.domain.fault.seed = seed;
  opts.domain.fault.transient_faults_per_rank = 4;
  opts.domain.fault.horizon_ops = 64;
  opts.domain.fault.max_repeats = 3;
  opts.domain.fault.retry_budget = 4;
  std::array<FaultCounters, kRanks> per_rank{};
  fabric::run_ranks(
      kRanks,
      [&](RankCtx& ctx) {
        const OpCounters before = op_counters();
        KvStore store(ctx);
        for (int i = 0; i < kKeysPerRank; ++i) {
          const auto k =
              static_cast<std::uint64_t>(ctx.rank()) * 4000 + i + 1;
          EXPECT_EQ(store.put(k, k * 3), OpStatus::ok)
              << "put failed under the survivable plan";
        }
        ctx.barrier();
        for (int r = 0; r < kRanks; ++r) {
          for (int i = 0; i < kKeysPerRank; ++i) {
            const auto k = static_cast<std::uint64_t>(r) * 4000 + i + 1;
            std::uint64_t v = 0;
            bool found = false;
            EXPECT_EQ(store.get(k, &v, &found), OpStatus::ok);
            EXPECT_TRUE(found) << "key " << k
                               << " lost under the survivable plan";
            EXPECT_EQ(v, k * 3);
          }
        }
        ctx.barrier();
        store.destroy(ctx);
        const OpCounters d = op_counters().since(before);
        per_rank[static_cast<std::size_t>(ctx.rank())] = {
            d.get(Op::fault_injected), d.get(Op::op_retried),
            d.get(Op::op_failed)};
      },
      opts);
  FaultCounters total;
  for (const auto& fc : per_rank) {
    total.injected += fc.injected;
    total.retried += fc.retried;
    total.failed += fc.failed;
  }
  return total;
}

}  // namespace

TEST(KvChaos, DeterministicAcrossSeeds) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const FaultCounters a = kv_chaos_round(seed);
    const FaultCounters b = kv_chaos_round(seed);
    EXPECT_EQ(a, b) << "chaos counters diverged for seed " << seed;
    EXPECT_GT(a.injected, 0u) << "plan injected nothing at seed " << seed;
    EXPECT_EQ(a.failed, 0u)
        << "transient-only plan must not exhaust retry budgets";
  }
}

namespace {

/// Kills the writer (rank 2, host of neither copy) at every op index of
/// one replicated put of a key and returns the put's op count. Survivors'
/// gets must retire ok with the old or the new value (revoking the dead
/// writer's lock) or typed peer_dead, and never hang; a survivor's put
/// then revokes the other copy's lock and leaves the pair in agreement.
/// With `hinted`, rank 2 wrote the key before, so its put takes the cells
/// its entry names instead of walking from the top.
std::uint64_t writer_death_sweep(bool hinted) {
  constexpr std::uint64_t kPad = 10000;  // the put starts at this op index
  std::uint64_t put_ops = 0;
  for (std::uint64_t k = 0;; ++k) {
    fabric::FabricOptions opts;
    opts.domain.nranks = 3;
    opts.domain.ranks_per_node = 1;
    opts.domain.fault.kill_rank = 2;
    opts.domain.fault.kill_at_op = kPad + k;
    opts.errors_return = true;
    opts.hang_timeout_ns = 60'000'000'000;  // a hang fails, typed timeout
    std::atomic<bool> put_done{false};
    std::atomic<int> survivors{0};
    fabric::run_ranks(
        3,
        [&](RankCtx& ctx) {
          KvStore store(ctx);
          const auto key = key_owned_by(store, 0);
          const int s = store.shard_of(key);
          if (ctx.rank() == (hinted ? 2 : 0)) {
            ASSERT_EQ(store.put(key, 1), OpStatus::ok);
          }
          ctx.barrier();  // last collective: the kill lands in the put
          if (ctx.rank() == 2) {
            ASSERT_LT(ctx.nic().issued_ops(), kPad);
            while (ctx.nic().issued_ops() < kPad) store.generation();
            ASSERT_EQ(store.put(key, 2), OpStatus::ok);
            put_ops = ctx.nic().issued_ops() - kPad;
            put_done = true;
            return;  // no further op: the scheduled kill never fires
          }
          while (store.peer_alive(2) && !put_done) ctx.yield_check();
          std::uint64_t v = 0;
          bool found = false;
          const auto st = store.get(key, &v, &found);
          if (st == OpStatus::ok) {
            EXPECT_TRUE(found);
            EXPECT_TRUE(v == 1 || v == 2 || v == 3)
                << "illegal value " << v << " after a kill at op " << k;
          } else {
            EXPECT_EQ(st, OpStatus::peer_dead) << "kill at op " << k;
          }
          if (ctx.rank() == 0) {
            ASSERT_EQ(store.put(key, 3), OpStatus::ok);
            ASSERT_EQ(store.get(key, &v, &found), OpStatus::ok);
            EXPECT_EQ(v, 3u);
            EXPECT_EQ(store.scrub(s).repairs, 0u) << "kill at op " << k;
          }
          survivors.fetch_add(1);
        },
        opts);
    EXPECT_EQ(survivors.load(), 2) << "kill at op " << k;
    if (put_done) break;  // the kill site moved past the put's last op
  }
  return put_ops;
}

}  // namespace

TEST(KvChaos, WriterDeathSweepInsideReplicatedPut) {
  // The lockstep write locks both copies in the same round, so a writer
  // that dies can leave BOTH copies odd. Two sweeps: a put that walks from
  // the top, and a put that takes the cells the writer's entry names.
  EXPECT_EQ(writer_death_sweep(false), 10u)
      << "a replicated top-cell put is 2 x 5 AMOs";
  EXPECT_EQ(writer_death_sweep(true), 8u)
      << "a hinted replicated put is 2 x 4 AMOs";
}

TEST(KvChaos, ReclaimerDeathNeverServesTheErasedValue) {
  // Unreplicated, one top slot: a is put and erased, leaving its value
  // under a tombstone. The writer (rank 2) puts b, which reclaims that
  // tombstone, and is killed at every op index of the put in turn. A get
  // of b must return b's value or miss, never a's; and a survivor's later
  // put of b must land (revoking the dead writer's slot lock if needed).
  constexpr std::uint64_t kPad = 10000;
  constexpr std::uint64_t kOld = 111, kNew = 222;
  KvConfig cfg;
  cfg.shards = 3;
  cfg.table_slots = 1;
  cfg.replicate = false;
  std::uint64_t put_ops = 0;
  for (std::uint64_t k = 0;; ++k) {
    fabric::FabricOptions opts;
    opts.domain.nranks = 3;
    opts.domain.ranks_per_node = 1;
    opts.domain.fault.kill_rank = 2;
    opts.domain.fault.kill_at_op = kPad + k;
    opts.errors_return = true;
    opts.hang_timeout_ns = 60'000'000'000;
    std::atomic<bool> put_done{false};
    std::atomic<int> survivors{0};
    fabric::run_ranks(
        3,
        [&](RankCtx& ctx) {
          KvStore store(ctx, cfg);
          const auto a = key_owned_by(store, 0);
          std::uint64_t b = a + 1;
          while (store.shard_of(b) != store.shard_of(a)) ++b;
          if (ctx.rank() == 0) {
            ASSERT_EQ(store.put(a, kOld), OpStatus::ok);
            ASSERT_EQ(store.erase(a), OpStatus::ok);
          }
          ctx.barrier();  // last collective: the kill lands in the put
          if (ctx.rank() == 2) {
            ASSERT_LT(ctx.nic().issued_ops(), kPad);
            while (ctx.nic().issued_ops() < kPad) store.generation();
            ASSERT_EQ(store.put(b, kNew), OpStatus::ok);
            put_ops = ctx.nic().issued_ops() - kPad;
            put_done = true;
            return;
          }
          while (store.peer_alive(2) && !put_done) ctx.yield_check();
          std::uint64_t v = 0;
          bool found = false;
          ASSERT_EQ(store.get(b, &v, &found), OpStatus::ok);
          if (found) {  // kNew + 1: rank 0's put below, racing rank 1's get
            EXPECT_TRUE(v == kNew || v == kNew + 1)
                << "b served " << v << " after a kill at op " << k;
          }
          ASSERT_EQ(store.get(a, &v, &found), OpStatus::ok);
          EXPECT_FALSE(found) << "kill at op " << k;
          if (ctx.rank() == 0) {
            ASSERT_EQ(store.put(b, kNew + 1), OpStatus::ok);
            ASSERT_EQ(store.get(b, &v, &found), OpStatus::ok);
            EXPECT_TRUE(found);
            EXPECT_EQ(v, kNew + 1) << "kill at op " << k;
          }
          survivors.fetch_add(1);
        },
        opts);
    EXPECT_EQ(survivors.load(), 2) << "kill at op " << k;
    if (put_done) break;
  }
  // top {version, claim} -> head -> slot lock -> {value, key} -> release.
  EXPECT_EQ(put_ops, 7u);
}

TEST(KvChaos, ClaimerDeathBeforeLockNeverWedgesTheSlot) {
  // The writer (rank 2) puts a fresh key into an empty top slot and is
  // killed after its claim CAS but before its value write: the top holds
  // the key at version 0 (claimed) or 1 (first lock) -- never linearized
  // -- on one or both copies. A survivor's put of a colliding key needs
  // the slot lock, so it must bury that claim (once the death is seen)
  // rather than revoke it, which would publish {key, 0}, and never hang.
  constexpr std::uint64_t kPad = 10000;
  KvConfig cfg;
  cfg.shards = 3;
  cfg.table_slots = 1;
  // Replicated top round: {version, claim} on the owner, then on the
  // replica (ops 0-3); the lock CASes are ops 4 (owner) and 5 (replica).
  // A kill at op 2 leaves the claim on the owner copy only, at op 4 on
  // both; at op 5 the owner's top sits at version 1, at op 6 both do.
  for (const std::uint64_t k : {2ull, 4ull, 5ull, 6ull}) {
    fabric::FabricOptions opts;
    opts.domain.nranks = 3;
    opts.domain.ranks_per_node = 1;
    opts.domain.fault.kill_rank = 2;
    opts.domain.fault.kill_at_op = kPad + k;
    opts.errors_return = true;
    opts.hang_timeout_ns = 60'000'000'000;  // a hang fails, typed timeout
    std::atomic<int> survivors{0};
    fabric::run_ranks(
        3,
        [&](RankCtx& ctx) {
          KvStore store(ctx, cfg);
          const auto fresh = key_owned_by(store, 0);
          std::uint64_t other = fresh + 1;
          while (store.shard_of(other) != store.shard_of(fresh)) ++other;
          ctx.barrier();  // last collective: the kill lands in the put
          if (ctx.rank() == 2) {
            ASSERT_LT(ctx.nic().issued_ops(), kPad);
            while (ctx.nic().issued_ops() < kPad) store.generation();
            store.put(fresh, 5);
            FAIL() << "rank 2 must have been killed";
          }
          while (store.peer_alive(2)) ctx.yield_check();
          std::uint64_t v = 0;
          bool found = false;
          if (ctx.rank() == 0) {
            ASSERT_EQ(store.put(other, 9), OpStatus::ok) << "kill at op " << k;
            ASSERT_EQ(store.get(other, &v, &found), OpStatus::ok);
            EXPECT_TRUE(found);
            EXPECT_EQ(v, 9u);
            for (const bool replica : {false, true}) {
              ASSERT_EQ(store.debug_read_copy(fresh, replica, &v, &found),
                        OpStatus::ok);
              EXPECT_FALSE(found) << "an unlinearized claim became a value";
            }
          }
          survivors.fetch_add(1);
        },
        opts);
    EXPECT_EQ(survivors.load(), 2) << "kill at op " << k;
  }
}

namespace {

/// Three ranks race put / erase / re-put of four keys that share one top
/// slot, so cell creations of one key contend all the time. At quiescence
/// one erase per key must leave it absent from both copies: a key that
/// ever got a second cell resurfaces from it.
void one_cell_round(std::uint64_t seed) {
  constexpr std::array<std::uint64_t, 4> kKeys = {11, 12, 13, 14};
  KvConfig cfg;
  cfg.shards = 1;
  cfg.table_slots = 1;
  cfg.heap_slots = 1024;
  fabric::run_ranks(3, [&](RankCtx& ctx) {
    KvStore store(ctx, cfg);
    Rng rng(seed * 31 + static_cast<std::uint64_t>(ctx.rank()));
    for (int op = 0; op < 300; ++op) {
      const auto key = kKeys[rng.below(kKeys.size())];
      const auto roll = rng.below(4);
      if (roll < 2) {
        ASSERT_EQ(store.put(key, key * 1000 + op), OpStatus::ok);
      } else if (roll == 2) {
        ASSERT_EQ(store.erase(key), OpStatus::ok);
      } else {
        ASSERT_EQ(store.erase(key), OpStatus::ok);
        ASSERT_EQ(store.put(key, key * 1000 + op), OpStatus::ok);
      }
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      for (const auto key : kKeys) ASSERT_EQ(store.erase(key), OpStatus::ok);
    }
    ctx.barrier();
    for (const auto key : kKeys) {
      for (const bool replica : {false, true}) {
        std::uint64_t v = 0;
        bool found = true;
        ASSERT_EQ(store.debug_read_copy(key, replica, &v, &found),
                  OpStatus::ok);
        EXPECT_FALSE(found) << "key " << key << " resurfaced with " << v
                            << (replica ? " on the replica" : " on the owner")
                            << " at seed " << seed;
      }
    }
    ctx.barrier();
    store.destroy(ctx);
  });
}

}  // namespace

TEST(KvChaos, OneCellPerKeyUnderRacingCreation) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) one_cell_round(seed);
}

// --- shard-owner failover -----------------------------------------------------

TEST(KvFailover, OwnerKillDegradesToReplicaWithTypedConfinement) {
  constexpr int kRanks = 4;
  fabric::FabricOptions opts;
  opts.domain.nranks = kRanks;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = 1;
  opts.domain.fault.kill_at_op = 400;  // after the healthy seeding phase
  opts.errors_return = true;
  std::atomic<int> survivors{0};
  fabric::run_ranks(
      kRanks,
      [&](RankCtx& ctx) {
        KvStore store(ctx);  // window is errors_return by construction
        // Healthy phase: rank 0 seeds keys for every shard owner,
        // replicated write-through. Keep rank 1's own op budget low so it
        // dies in the traffic phase, not here.
        std::vector<std::uint64_t> dead_keys;  // owned by rank 1
        {
          std::uint64_t from = 1;
          for (int i = 0; i < 6; ++i) {
            dead_keys.push_back(key_owned_by(store, 1, from));
            from = dead_keys.back() + 1;
          }
        }
        if (ctx.rank() == 0) {
          for (const auto k : dead_keys) {
            ASSERT_EQ(store.put(k, k + 5000), OpStatus::ok);
          }
        }
        ctx.barrier();  // last collective: everything later is kill-safe

        if (ctx.rank() == 1) {
          // Dies at its 400th issued op; RankKilledError unwinds this
          // thread quietly (errors_return at fleet scope).
          std::uint64_t v = 0;
          bool found = false;
          for (int i = 0; i < 100000; ++i) {
            store.get(dead_keys[0], &v, &found);
            store.put(9990001, static_cast<std::uint64_t>(i));
          }
          FAIL() << "rank 1 must have been killed";
        }

        // Survivors: watch the liveness table, then verify degraded mode.
        while (store.peer_alive(1)) ctx.yield_check();
        // Typed confinement: a probe at the dead primary retires as
        // peer_dead, it neither hangs nor aborts the fleet.
        const int dead_shard = store.shard_of(dead_keys[0]);
        EXPECT_EQ(store.probe_owner(dead_shard), OpStatus::peer_dead);
        // Reads of the dead owner's shards reroute to the replica and
        // still see the healthy-phase values.
        for (const auto k : dead_keys) {
          std::uint64_t v = 0;
          bool found = false;
          EXPECT_EQ(store.get(k, &v, &found), OpStatus::ok);
          EXPECT_TRUE(found) << "replica lost key " << k;
          EXPECT_EQ(v, k + 5000);
          EXPECT_TRUE(store.degraded(store.shard_of(k)));
        }
        EXPECT_GT(store.stats().failovers, 0u);
        // Degraded writes land on the replica and read back. Use a fresh
        // rank-1-owned key: other survivors are still verifying dead_keys.
        if (ctx.rank() == 2) {
          const auto fresh = key_owned_by(store, 1, dead_keys.back() + 1);
          ASSERT_EQ(store.put(fresh, 123456), OpStatus::ok);
          std::uint64_t v = 0;
          bool found = false;
          ASSERT_EQ(store.get(fresh, &v, &found), OpStatus::ok);
          EXPECT_TRUE(found);
          EXPECT_EQ(v, 123456u);
        }
        // Healthy shards keep serving untouched.
        const auto live_key = key_owned_by(store, 2);
        if (ctx.rank() == 0) {
          ASSERT_EQ(store.put(live_key, 42), OpStatus::ok);
          std::uint64_t v = 0;
          bool found = false;
          ASSERT_EQ(store.get(live_key, &v, &found), OpStatus::ok);
          EXPECT_TRUE(found);
          EXPECT_EQ(v, 42u);
        }
        survivors.fetch_add(1);
        // No collectives, no destroy: rank 1 cannot meet them.
      },
      opts);
  EXPECT_EQ(survivors.load(), 3);
}

// --- closed-loop fleet --------------------------------------------------------

TEST(KvFleet, RecordsLatenciesAndStaysCoherent) {
  const int p = 4;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    KvStore store(ctx);
    // Seed the keyspace so reads mostly hit existing keys.
    for (int i = 0; i < 64; ++i) {
      const auto k = static_cast<std::uint64_t>(i % 256) + 1;
      if (ctx.rank() == 0) {
        ASSERT_EQ(store.put(k, k), OpStatus::ok);
      }
    }
    ctx.barrier();
    KvStore::FleetConfig fc;
    fc.ops_per_rank = 256;
    fc.fibers = 8;
    fc.read_ratio = 0.9;
    fc.keyspace = 256;
    fc.seed = 3;
    const auto res = store.run_fleet(ctx, fc);
    EXPECT_EQ(res.reads + res.writes,
              static_cast<std::uint64_t>(fc.ops_per_rank));
    EXPECT_EQ(res.read_hist.count(), res.reads);
    EXPECT_EQ(res.write_hist.count(), res.writes);
    EXPECT_GT(res.reads, res.writes);  // 0.9 read ratio
    EXPECT_GT(res.read_hist.max(), 0u);
    EXPECT_EQ(res.peer_dead, 0u);  // healthy fleet
    ctx.barrier();
    store.destroy(ctx);
  });
}

TEST(KvFleet, SlowPathsRunOnTheFiber) {
  // One top cell per shard: most keys live in overflow chains, so fleet
  // reads walk chains, and reads and writes of the hot keys meet odd
  // versions and takes. Every round of them runs on the client fiber,
  // one round per fiber step at most; the retirement identity holds and
  // every key reads back a legal value. A fleet lasts ~15 ms; on a loaded
  // host the rank threads can run it in turns so that no read meets a
  // held version, so a fleet that saw no read retry runs again with the
  // next seed, every pass checked in full, at most kPasses times.
  constexpr int kRanks = 3;
  constexpr std::uint64_t kKeys = 64;
  constexpr int kOps = 512;
  constexpr int kPasses = 4;
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  opts.domain.inject = rdma::Injection::model;
  opts.hang_timeout_ns = 60'000'000'000;
  std::atomic<std::uint64_t> retries{0};
  fabric::run_ranks(
      kRanks,
      [&](RankCtx& ctx) {
        KvConfig cfg;
        cfg.table_slots = 1;
        KvStore store(ctx, cfg);
        for (std::uint64_t k = 1 + static_cast<std::uint64_t>(ctx.rank());
             k <= kKeys; k += kRanks) {
          ASSERT_EQ(store.put(k, k * 3), OpStatus::ok);
        }
        ctx.barrier();
        KvStore::FleetConfig fc;
        fc.ops_per_rank = kOps;
        fc.read_ratio = 0.5;
        fc.keyspace = kKeys;
        for (int pass = 0; pass < kPasses; ++pass) {
          fc.seed = 7 + static_cast<std::uint64_t>(pass);
          const std::uint64_t r0 = store.stats().read_retries;
          const OpCounters c0 = op_counters();
          const auto res = store.run_fleet(ctx, fc);
          const OpCounters d = op_counters().since(c0);
          retries += store.stats().read_retries - r0;
          EXPECT_EQ(res.issued, static_cast<std::uint64_t>(kOps));
          EXPECT_EQ(res.reads + res.writes, res.issued);
          EXPECT_EQ(res.ok_ops + res.peer_dead + res.retry_routing +
                        res.data_loss + res.failed_other,
                    res.issued);
          EXPECT_EQ(res.ok_ops, res.issued);  // healthy fleet
          EXPECT_LE(d.get(Op::kv_round), d.get(Op::fiber_switch))
              << "a fiber step issued more than one round";
          ctx.barrier();
          for (std::uint64_t k = 1; k <= kKeys; ++k) {
            std::uint64_t v = 0;
            bool found = false;
            ASSERT_EQ(store.get(k, &v, &found), OpStatus::ok);
            EXPECT_TRUE(found) << "key " << k;
            EXPECT_TRUE(v == k * 3 || v == k * 31 + 7)
                << "key " << k << " read " << v;
          }
          // Every rank added its retries before the barrier above and
          // reads the total before the one below, so all ranks agree.
          const bool met = retries.load() > 0;
          ctx.barrier();
          if (met) break;
        }
        store.destroy(ctx);
      },
      opts);
  EXPECT_GT(retries.load(), 0u) << "no read met a held or moved version in "
                                << kPasses << " fleets";
}

// --- self-healing recovery (DESIGN.md §13) -----------------------------------

namespace {

/// True once every shard's copy pair is either fully alive (healed) or
/// fully dead (terminally lost) — the state heal() drives toward.
bool recovery_settled(const KvStore& store) {
  for (int s = 0; s < store.config().shards; ++s) {
    const bool pa = store.peer_alive(store.copy_of(s, false).rank);
    const bool ra = store.peer_alive(store.copy_of(s, true).rank);
    if (pa != ra) return false;
  }
  return true;
}

/// Survivor-side heal loop. One pass settles the deaths it observed; a
/// death landing after a pass returned belongs to the next call (heal()'s
/// documented contract), so survivors loop until the pair map stabilizes.
kv::RecoveryReport heal_until_settled(KvStore& store, RankCtx& ctx) {
  kv::RecoveryReport rep = store.heal();
  while (!recovery_settled(store)) {
    ctx.yield_check();
    const kv::RecoveryReport next = store.heal();
    if (next.acted) rep = next;  // keep the coordinator-side counters
  }
  return rep;
}

}  // namespace

TEST(KvRecovery, OwnerKillPromotesAndRestoresRedundancy) {
  constexpr int kRanks = 4;
  fabric::FabricOptions opts;
  opts.domain.nranks = kRanks;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = 1;
  opts.domain.fault.kill_at_op = 400;
  opts.errors_return = true;
  std::atomic<int> survivors{0};
  fabric::run_ranks(
      kRanks,
      [&](RankCtx& ctx) {
        KvStore store(ctx);
        std::vector<std::uint64_t> dead_keys;
        {
          std::uint64_t from = 1;
          for (int i = 0; i < 6; ++i) {
            dead_keys.push_back(key_owned_by(store, 1, from));
            from = dead_keys.back() + 1;
          }
        }
        if (ctx.rank() == 0) {
          for (const auto k : dead_keys) {
            ASSERT_EQ(store.put(k, k + 7000), OpStatus::ok);
          }
        }
        ctx.barrier();  // last collective before the kill

        if (ctx.rank() == 1) {
          std::uint64_t v = 0;
          bool found = false;
          for (int i = 0; i < 100000; ++i) {
            store.get(dead_keys[0], &v, &found);
            store.put(9990001, static_cast<std::uint64_t>(i));
          }
          FAIL() << "rank 1 must have been killed";
        }

        while (store.peer_alive(1)) ctx.yield_check();
        const auto rep = heal_until_settled(store, ctx);
        EXPECT_EQ(rep.status, OpStatus::ok);
        EXPECT_EQ(rep.coordinator, 0);
        EXPECT_EQ(rep.lost, 0);
        if (rep.acted) {
          EXPECT_EQ(ctx.rank(), 0) << "lowest alive rank must coordinate";
          // Rank 1 owned shards (promoted) and backed rank 0's shards as
          // replica (re-replicated without promotion).
          EXPECT_GE(rep.promoted, 1);
          EXPECT_GT(rep.rereplicated, rep.promoted);
          EXPECT_GT(rep.drained_bytes, 0u);
          EXPECT_GT(rep.scrub_keys, 0u);
        }
        // The published generation is even (stable) and advanced.
        const auto gen = store.generation();
        EXPECT_EQ(gen % 2, 0u);
        EXPECT_GE(gen, 2u);
        // Redundancy restored: every shard has two live copies on distinct
        // ranks, none on the dead rank, and nothing reads degraded.
        for (int s = 0; s < store.config().shards; ++s) {
          const kv::Copy prim = store.copy_of(s, false);
          const kv::Copy repl = store.copy_of(s, true);
          EXPECT_NE(prim.rank, 1);
          EXPECT_NE(repl.rank, 1);
          EXPECT_NE(prim.rank, repl.rank);
          EXPECT_TRUE(store.peer_alive(prim.rank));
          EXPECT_TRUE(store.peer_alive(repl.rank));
          EXPECT_FALSE(store.degraded(s)) << "shard " << s;
        }
        // Healthy-phase values survived the promotion + drain.
        for (const auto k : dead_keys) {
          std::uint64_t v = 0;
          bool found = false;
          ASSERT_EQ(store.get(k, &v, &found), OpStatus::ok);
          EXPECT_TRUE(found) << "key " << k << " lost in recovery";
          EXPECT_EQ(v, k + 7000);
        }
        // Cache leverage is back: reads of recovered shards revalidate
        // against the promoted primary's cell versions and hit.
        {
          const auto hits_before = store.stats().cache_hits;
          std::uint64_t v = 0;
          bool found = false;
          ASSERT_EQ(store.get(dead_keys[0], &v, &found), OpStatus::ok);
          ASSERT_EQ(store.get(dead_keys[0], &v, &found), OpStatus::ok);
          EXPECT_GT(store.stats().cache_hits, hits_before)
              << "recovered shard no longer caches";
        }
        // Writes replicate through to a fresh spare copy again: read the
        // new key back from the recovered replica itself.
        if (ctx.rank() == 2) {
          std::uint64_t fresh = 500000;
          while (store.copy_of(store.shard_of(fresh), true).bank != 2) {
            ++fresh;
          }
          ASSERT_EQ(store.put(fresh, 424242), OpStatus::ok);
          std::uint64_t v = 0;
          bool found = false;
          ASSERT_EQ(store.debug_read_copy(fresh, /*replica=*/true, &v, &found),
                    OpStatus::ok);
          EXPECT_TRUE(found)
              << "write-through to the recovered replica bank broken";
          EXPECT_EQ(v, 424242u);
        }
        survivors.fetch_add(1);
        // No collectives, no destroy: rank 1 cannot meet them.
      },
      opts);
  EXPECT_EQ(survivors.load(), 3);
}

TEST(KvRecovery, CoordinatorIsLowestAliveWithSeparateRoutingHome) {
  // Kill rank 0: the election must settle on rank 1 while the routing
  // home (rank 3) keeps publishing generations.
  constexpr int kRanks = 4;
  fabric::FabricOptions opts;
  opts.domain.nranks = kRanks;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = 0;
  opts.domain.fault.kill_at_op = 400;
  opts.errors_return = true;
  KvConfig cfg;
  cfg.routing_rank = 3;
  std::atomic<int> survivors{0};
  fabric::run_ranks(
      kRanks,
      [&](RankCtx& ctx) {
        KvStore store(ctx, cfg);
        const auto probe = key_owned_by(store, 0);
        if (ctx.rank() == 1) {
          ASSERT_EQ(store.put(probe, 31), OpStatus::ok);
        }
        ctx.barrier();
        if (ctx.rank() == 0) {
          std::uint64_t v = 0;
          bool found = false;
          for (int i = 0; i < 100000; ++i) {
            store.get(probe, &v, &found);
            store.put(8880001, static_cast<std::uint64_t>(i));
          }
          FAIL() << "rank 0 must have been killed";
        }
        while (store.peer_alive(0)) ctx.yield_check();
        const auto rep = heal_until_settled(store, ctx);
        EXPECT_EQ(rep.status, OpStatus::ok);
        EXPECT_EQ(rep.coordinator, 1);
        if (rep.acted) {
          EXPECT_EQ(ctx.rank(), 1);
        }
        std::uint64_t v = 0;
        bool found = false;
        ASSERT_EQ(store.get(probe, &v, &found), OpStatus::ok);
        EXPECT_TRUE(found);
        EXPECT_EQ(v, 31u);
        EXPECT_FALSE(store.degraded(store.shard_of(probe)));
        survivors.fetch_add(1);
      },
      opts);
  EXPECT_EQ(survivors.load(), 3);
}

TEST(KvRecovery, RereplicationSurvivesSecondOwnerKill) {
  // Kill the owner, heal, then kill the promoted owner: the shard must
  // still serve the original values — this is the drained spare copy
  // (re-replicated from the FIRST victim's frozen image) doing its job.
  constexpr int kRanks = 4;
  fabric::FabricOptions opts;
  opts.domain.nranks = kRanks;
  opts.domain.ranks_per_node = 1;
  // Rank 2's ops while it polls the first recovery count toward its kill
  // index: a few hundred usually, 1.6k seen under parallel load. At 3000 a
  // slow first recovery let it die before its shards were re-replicated,
  // which is a legal double loss and not what this test is about.
  opts.domain.fault.kills = {{1, 400}, {2, 100000}};
  opts.errors_return = true;
  std::atomic<int> final_survivors{0};
  fabric::run_ranks(
      kRanks,
      [&](RankCtx& ctx) {
        KvStore store(ctx);
        std::vector<std::uint64_t> dead_keys;
        {
          std::uint64_t from = 1;
          for (int i = 0; i < 4; ++i) {
            dead_keys.push_back(key_owned_by(store, 1, from));
            from = dead_keys.back() + 1;
          }
        }
        if (ctx.rank() == 0) {
          for (const auto k : dead_keys) {
            ASSERT_EQ(store.put(k, k + 11000), OpStatus::ok);
          }
        }
        ctx.barrier();
        if (ctx.rank() == 1) {
          std::uint64_t v = 0;
          bool found = false;
          for (int i = 0; i < 100000; ++i) {
            store.get(dead_keys[0], &v, &found);
            store.put(9990001, static_cast<std::uint64_t>(i));
          }
          FAIL() << "rank 1 must have been killed";
        }
        while (store.peer_alive(1)) ctx.yield_check();
        heal_until_settled(store, ctx);
        if (ctx.rank() == 2) {
          // The promoted owner burns ops until its scheduled death; heal()
          // keeps it routing-current in the meantime.
          std::uint64_t v = 0;
          bool found = false;
          for (int i = 0; i < 300000; ++i) {
            store.get(dead_keys[0], &v, &found);
            store.heal();
          }
          FAIL() << "rank 2 must have been killed";
        }
        while (store.peer_alive(2)) ctx.yield_check();
        const auto rep = heal_until_settled(store, ctx);
        EXPECT_EQ(rep.status, OpStatus::ok);
        EXPECT_EQ(rep.lost, 0) << "second kill lost data the spare held";
        for (int s = 0; s < store.config().shards; ++s) {
          EXPECT_TRUE(store.peer_alive(store.copy_of(s, false).rank));
          EXPECT_TRUE(store.peer_alive(store.copy_of(s, true).rank));
          EXPECT_FALSE(store.degraded(s));
        }
        for (const auto k : dead_keys) {
          std::uint64_t v = 0;
          bool found = false;
          ASSERT_EQ(store.get(k, &v, &found), OpStatus::ok);
          EXPECT_TRUE(found) << "key " << k << " lost across two recoveries";
          EXPECT_EQ(v, k + 11000);
        }
        final_survivors.fetch_add(1);
      },
      opts);
  EXPECT_EQ(final_survivors.load(), 2);
}

TEST(KvRecovery, DoubleKillIsTypedDataLossNeverStale) {
  // Owner AND replica of the same shards die before anyone heals: ops on
  // those shards retire typed data_loss (no hang, no frozen stale serve),
  // heal() reports the loss typed, and untouched shards keep serving.
  constexpr int kRanks = 4;
  fabric::FabricOptions opts;
  opts.domain.nranks = kRanks;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kills = {{1, 400}, {2, 400}};
  opts.errors_return = true;
  std::atomic<int> survivors{0};
  fabric::run_ranks(
      kRanks,
      [&](RankCtx& ctx) {
        KvStore store(ctx);
        // Shards owned by rank 1 have their replica on rank 2: killing
        // both erases every copy.
        const auto lost_key = key_owned_by(store, 1);
        const auto live_key = key_owned_by(store, 3);
        if (ctx.rank() == 0) {
          ASSERT_EQ(store.put(lost_key, 1), OpStatus::ok);
          ASSERT_EQ(store.put(live_key, 2), OpStatus::ok);
        }
        ctx.barrier();
        if (ctx.rank() == 1 || ctx.rank() == 2) {
          std::uint64_t v = 0;
          bool found = false;
          for (int i = 0; i < 100000; ++i) {
            store.get(live_key, &v, &found);
            store.put(7770001 + static_cast<std::uint64_t>(ctx.rank()),
                      static_cast<std::uint64_t>(i));
          }
          FAIL() << "rank " << ctx.rank() << " must have been killed";
        }
        while (store.peer_alive(1) || store.peer_alive(2)) ctx.yield_check();
        // The other survivor may already be healing: a generation bump
        // legally retires one retry_routing before the typed final status,
        // so absorb retries and assert the settled retirement.
        const auto settled_op = [&](auto&& op) {
          OpStatus st;
          do {
            st = op();
            ctx.yield_check();
          } while (st == OpStatus::retry_routing);
          return st;
        };
        // Typed confinement before recovery: no copy left to serve.
        std::uint64_t v = 0;
        bool found = false;
        EXPECT_EQ(settled_op([&] { return store.get(lost_key, &v, &found); }),
                  OpStatus::data_loss);
        EXPECT_EQ(settled_op([&] { return store.put(lost_key, 9); }),
                  OpStatus::data_loss);
        EXPECT_GE(store.stats().data_loss_ops, 2u);
        const auto rep = heal_until_settled(store, ctx);
        EXPECT_EQ(rep.status, OpStatus::data_loss);
        EXPECT_GE(rep.lost, 1);
        // Post-recovery: the lost shard still answers typed, everything
        // else healed to live pairs and serves.
        EXPECT_EQ(settled_op([&] { return store.get(lost_key, &v, &found); }),
                  OpStatus::data_loss);
        ASSERT_EQ(settled_op([&] { return store.get(live_key, &v, &found); }),
                  OpStatus::ok);
        EXPECT_TRUE(found);
        EXPECT_EQ(v, 2u);
        for (int s = 0; s < store.config().shards; ++s) {
          const bool pa = store.peer_alive(store.copy_of(s, false).rank);
          const bool ra = store.peer_alive(store.copy_of(s, true).rank);
          EXPECT_EQ(pa, ra) << "shard " << s << " left half-recovered";
          if (pa) {
            EXPECT_FALSE(store.degraded(s));
          }
        }
        survivors.fetch_add(1);
      },
      opts);
  EXPECT_EQ(survivors.load(), 2);
}

TEST(KvRecovery, AbortOnDataLossUnwindsFleetTyped) {
  // With abort_on_data_loss the unrecoverable shard is a fleet-fatal,
  // post-mortem-traced event instead of a typed return.
  constexpr int kRanks = 4;
  fabric::FabricOptions opts;
  opts.domain.nranks = kRanks;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kills = {{1, 300}, {2, 300}};
  opts.errors_return = true;
  KvConfig cfg;
  cfg.abort_on_data_loss = true;
  try {
    fabric::run_ranks(
        kRanks,
        [&](RankCtx& ctx) {
          KvStore store(ctx, cfg);
          const auto doomed = key_owned_by(store, 1);
          ctx.barrier();
          if (ctx.rank() == 1 || ctx.rank() == 2) {
            std::uint64_t v = 0;
            bool found = false;
            for (int i = 0; i < 100000; ++i) {
              store.get(doomed, &v, &found);
              store.put(6660001 + static_cast<std::uint64_t>(ctx.rank()),
                        static_cast<std::uint64_t>(i));
            }
            FAIL() << "rank " << ctx.rank() << " must have been killed";
          }
          while (store.peer_alive(1) || store.peer_alive(2)) {
            ctx.yield_check();
          }
          store.heal();  // raises ErrClass::data_loss on the coordinator
          while (true) ctx.yield_check();  // followers park until the abort
        },
        opts);
    FAIL() << "data loss must abort the fleet";
  } catch (const Error& e) {
    EXPECT_EQ(e.err_class(), ErrClass::data_loss) << e.what();
  }
}

TEST(KvRecovery, RoutingRefreshSeesConsistentGenerationTablePairs) {
  // Regression for fetch-once staleness: a client re-fetching WHILE the
  // coordinator reconfigures must only ever observe {generation, table}
  // pairs — the fully-old table or the fully-new one, never a torn mix of
  // published and unpublished entries.
  constexpr int kRanks = 4;
  fabric::FabricOptions opts;
  opts.domain.nranks = kRanks;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = 1;
  opts.domain.fault.kill_at_op = 400;
  opts.errors_return = true;
  std::atomic<int> survivors{0};
  fabric::run_ranks(
      kRanks,
      [&](RankCtx& ctx) {
        KvStore store(ctx);
        const auto doomed = key_owned_by(store, 1);
        ctx.barrier();
        if (ctx.rank() == 1) {
          std::uint64_t v = 0;
          bool found = false;
          for (int i = 0; i < 100000; ++i) {
            store.get(doomed, &v, &found);
            store.put(5550001, static_cast<std::uint64_t>(i));
          }
          FAIL() << "rank 1 must have been killed";
        }
        while (store.peer_alive(1)) ctx.yield_check();
        if (ctx.rank() == 3) {
          // The probe rank never heals; it hammers refresh_routing()
          // against the in-flight reconfiguration.
          for (int i = 0; i < 200000; ++i) {
            ASSERT_EQ(store.refresh_routing(), OpStatus::ok);
            bool any_old = false, any_new = false;
            for (int s = 0; s < store.config().shards; ++s) {
              const kv::Copy prim = store.copy_of(s, false);
              const kv::Copy repl = store.copy_of(s, true);
              const bool touches_dead = prim.rank == 1 || repl.rank == 1;
              if (touches_dead) {
                any_old = true;
              } else {
                EXPECT_TRUE(store.peer_alive(prim.rank))
                    << "fetched entry points at a bogus primary";
              }
              if (prim.bank == 2 || repl.bank == 2) any_new = true;
            }
            ASSERT_FALSE(any_old && any_new)
                << "torn fetch: mixed pre- and post-recovery entries";
            if (!any_old) break;  // fully-new table observed: done
            ctx.yield_check();
          }
          EXPECT_EQ(store.generation() % 2, 0u);
          std::uint64_t v = 0;
          bool found = false;
          EXPECT_EQ(store.get(doomed, &v, &found), OpStatus::ok);
        } else {
          heal_until_settled(store, ctx);
        }
        survivors.fetch_add(1);
      },
      opts);
  EXPECT_EQ(survivors.load(), 3);
}

TEST(KvRecovery, StaleClientRetiresTypedRetryRoutingThenRecovers) {
  // A client that sat out the reconfiguration: its first op against the
  // bumped generation retires typed retry_routing (refetching the table
  // as a side effect), and the retry succeeds.
  constexpr int kRanks = 4;
  fabric::FabricOptions opts;
  opts.domain.nranks = kRanks;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = 1;
  opts.domain.fault.kill_at_op = 400;
  opts.errors_return = true;
  std::atomic<int> survivors{0};
  fabric::run_ranks(
      kRanks,
      [&](RankCtx& ctx) {
        KvStore store(ctx);
        const auto doomed = key_owned_by(store, 1);
        if (ctx.rank() == 0) {
          ASSERT_EQ(store.put(doomed, 77), OpStatus::ok);
        }
        ctx.barrier();
        if (ctx.rank() == 1) {
          std::uint64_t v = 0;
          bool found = false;
          for (int i = 0; i < 100000; ++i) {
            store.get(doomed, &v, &found);
            store.put(4440001, static_cast<std::uint64_t>(i));
          }
          FAIL() << "rank 1 must have been killed";
        }
        while (store.peer_alive(1)) ctx.yield_check();
        if (ctx.rank() == 3) {
          // Stale client: wait out the recovery without refreshing, then
          // issue an op against the advanced generation.
          while (store.generation() < 2) ctx.yield_check();
          std::uint64_t v = 0;
          bool found = false;
          auto st = store.get(doomed, &v, &found);
          while (st == OpStatus::retry_routing) {
            st = store.get(doomed, &v, &found);
          }
          EXPECT_EQ(st, OpStatus::ok);
          EXPECT_TRUE(found);
          EXPECT_EQ(v, 77u);
          EXPECT_GE(store.stats().retry_routing, 1u)
              << "stale generation must retire typed retry_routing";
        } else {
          heal_until_settled(store, ctx);
        }
        survivors.fetch_add(1);
      },
      opts);
  EXPECT_EQ(survivors.load(), 3);
}

namespace {

/// Four ranks on separate nodes. `before` runs on every rank, then rank 1
/// is killed at its op 400 and ranks 0 and 2 heal. Rank 3 never refreshes
/// its routing: once the recovery released the generation, `stale` runs
/// there, and its first op meets a stale generation.
template <class Before, class Stale>
void run_stale_client(const KvConfig& cfg, Before before, Stale stale) {
  constexpr int kRanks = 4;
  fabric::FabricOptions opts;
  opts.domain.nranks = kRanks;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = 1;
  opts.domain.fault.kill_at_op = 400;
  opts.errors_return = true;
  std::atomic<int> survivors{0};
  fabric::run_ranks(
      kRanks,
      [&](RankCtx& ctx) {
        KvStore store(ctx, cfg);
        before(store, ctx);
        ctx.barrier();
        if (ctx.rank() == 1) {
          for (int i = 0; i < 100000; ++i) {
            store.put(6660001, static_cast<std::uint64_t>(i));
          }
          FAIL() << "rank 1 must have been killed";
        }
        while (store.peer_alive(1)) ctx.yield_check();
        if (ctx.rank() == 3) {
          while (store.generation() < 2) ctx.yield_check();
          stale(store);
        } else {
          heal_until_settled(store, ctx);
        }
        survivors.fetch_add(1);
      },
      opts);
  EXPECT_EQ(survivors.load(), kRanks - 1);
}

}  // namespace

TEST(KvRecovery, StaleHintedPutReleasesItsTakeBeforeRetrying) {
  // A stale client's put of a key it wrote before takes the key's cells
  // on both copies in its first round, the round that also reads the
  // generation. The stale generation fails that round on both machines,
  // and each releases its take at +2 before the put retires
  // retry_routing: the key's next get reads a clean cell at once (a cell
  // left odd would cost it the 256-spin revocation) and serves the old
  // value, and the retried put lands in a hinted put's two rounds.
  run_stale_client(
      KvConfig{},
      [](KvStore& store, RankCtx& ctx) {
        // Owner rank 2, replica rank 3: the death touches neither copy.
        const auto key = key_owned_by(store, 2);
        ASSERT_EQ(store.replica_of(store.shard_of(key)), 3);
        if (ctx.rank() == 3) {
          ASSERT_EQ(store.put(key, 61), OpStatus::ok);  // leaves the hints
        }
      },
      [](KvStore& store) {
        const auto key = key_owned_by(store, 2);
        EXPECT_EQ(store.put(key, 62), OpStatus::retry_routing);
        const std::uint64_t retries = store.stats().read_retries;
        std::uint64_t v = 0;
        bool found = false;
        EXPECT_EQ(store.get(key, &v, &found), OpStatus::ok);
        EXPECT_TRUE(found);
        EXPECT_EQ(v, 61u) << "the stale put wrote";
        EXPECT_EQ(store.stats().read_retries, retries)
            << "the stale put left its take locked";
        // The retry is a hinted put after a death: 2 rounds and 4 AMOs per
        // copy, plus the generation read inside the first round.
        const OpCounters c0 = op_counters();
        EXPECT_EQ(store.put(key, 63), OpStatus::ok);
        const OpCounters d = op_counters().since(c0);
        EXPECT_EQ(d.get(Op::kv_round), 2u);
        EXPECT_EQ(d.get(Op::transport_amo) + d.get(Op::local_atomic), 9u);
        EXPECT_EQ(store.get(key, &v, &found), OpStatus::ok);
        EXPECT_EQ(v, 63u);
      });
}

TEST(KvRecovery, StaleColdPutLeavesNoClaimAtVersionZero) {
  // With one top cell per shard, a stale client's first put of a fresh
  // key meets a free top slot. Its first round reads the slot instead of
  // claiming it, so the stale generation retires it having claimed
  // nothing. A claim left at version 0 would hold the slot: the next put
  // of another key in it would spin until it buries the claim. That put
  // instead runs the deferred claim: {top version, top key, generation}
  // -> {top version, claim CAS} -> lock CAS -> {value, release}.
  KvConfig cfg;
  cfg.table_slots = 1;
  run_stale_client(
      cfg, [](KvStore&, RankCtx&) {},
      [](KvStore& store) {
        const std::uint64_t fresh = key_owned_by(store, 2);
        std::uint64_t other = fresh + 1;
        while (store.shard_of(other) != store.shard_of(fresh)) ++other;
        EXPECT_EQ(store.put(fresh, 71), OpStatus::retry_routing);
        const OpCounters c0 = op_counters();
        EXPECT_EQ(store.put(other, 72), OpStatus::ok);
        EXPECT_EQ(op_counters().since(c0).get(Op::kv_round), 4u)
            << "the stale put left a claim at version 0";
        std::uint64_t v = 0;
        bool found = true;
        EXPECT_EQ(store.get(fresh, &v, &found), OpStatus::ok);
        EXPECT_FALSE(found);
      });
}

// --- anti-entropy scrub -------------------------------------------------------

TEST(KvScrub, RepairsInjectedDivergenceToVersionWinnerAndIsIdempotent) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    KvStore store(ctx);
    if (ctx.rank() == 0) {
      const auto k1 = key_owned_by(store, 0);
      const auto k2 = key_owned_by(store, 0, k1 + 1);
      ASSERT_EQ(store.put(k1, 10), OpStatus::ok);
      ASSERT_EQ(store.put(k2, 20), OpStatus::ok);
      // Warm the cache: the repair's release must invalidate the entry.
      std::uint64_t v = 0;
      bool found = false;
      ASSERT_EQ(store.get(k1, &v, &found), OpStatus::ok);
      // Diverge the pair both ways: k1's replica ahead (higher version),
      // k2's primary ahead.
      ASSERT_EQ(store.debug_write_copy(k1, /*replica=*/true, 111),
                OpStatus::ok);
      ASSERT_EQ(store.debug_write_copy(k2, /*replica=*/false, 222),
                OpStatus::ok);
      const int s1 = store.shard_of(k1);
      const int s2 = store.shard_of(k2);
      auto r1 = store.scrub(s1);
      EXPECT_EQ(r1.status, OpStatus::ok);
      EXPECT_GT(r1.keys, 0u);
      EXPECT_GE(r1.repairs, 1u) << "diverged cell not repaired";
      if (s2 != s1) {
        const auto r2 = store.scrub(s2);
        EXPECT_EQ(r2.status, OpStatus::ok);
        EXPECT_GE(r2.repairs, 1u);
      }
      // Version winners: k1's replica write (newer) must now be the
      // primary-visible value; k2's primary write stays authoritative.
      ASSERT_EQ(store.get(k1, &v, &found), OpStatus::ok);
      EXPECT_TRUE(found);
      EXPECT_EQ(v, 111u) << "higher-version replica write lost";
      ASSERT_EQ(store.get(k2, &v, &found), OpStatus::ok);
      EXPECT_TRUE(found);
      EXPECT_EQ(v, 222u);
      // Converged pairs scrub clean: the pass is idempotent.
      const auto again = store.scrub(s1);
      EXPECT_EQ(again.status, OpStatus::ok);
      EXPECT_EQ(again.repairs, 0u) << "scrub is not idempotent";
    }
    ctx.barrier();
    store.destroy(ctx);
  });
}

TEST(KvScrub, TopSlotSplitConvergesPerKey) {
  // One shard, one top slot. Writes to one copy at a time build what two
  // writers racing for an empty slot leave: the primary holds {top k1,
  // chain k2} and the replica {top k2, chain k1}, equal values. k3's cells
  // sit at different offsets and diverge (the replica's at the higher
  // version); k4 reached the replica only. One scrub must give every key
  // the primary's value on both copies and drop k4, without a second cell
  // for any key: one erase per key then leaves both copies missing.
  KvConfig cfg;
  cfg.shards = 1;
  cfg.table_slots = 1;
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    KvStore store(ctx, cfg);
    if (ctx.rank() == 0) {
      constexpr std::uint64_t k1 = 1, k2 = 2, k3 = 3, k4 = 4;
      const auto write = [&](std::uint64_t k, bool replica,
                             std::uint64_t v) {
        ASSERT_EQ(store.debug_write_copy(k, replica, v), OpStatus::ok);
      };
      const auto expect = [&](std::uint64_t k, bool present,
                              std::uint64_t want) {
        for (const bool replica : {false, true}) {
          const char* where = replica ? " on the replica" : " on the owner";
          std::uint64_t v = 0;
          bool found = !present;
          ASSERT_EQ(store.debug_read_copy(k, replica, &v, &found),
                    OpStatus::ok);
          EXPECT_EQ(found, present) << "key " << k << where;
          if (present) {
            EXPECT_EQ(v, want) << "key " << k << where;
          }
        }
      };
      write(k1, false, 11);  // primary: top k1, chain k3 -> k2
      write(k2, false, 22);
      write(k3, false, 33);
      write(k2, true, 22);  // replica: top k2, chain k4 -> k1 -> k3
      write(k3, true, 33);
      write(k3, true, 34);
      write(k1, true, 11);
      write(k4, true, 44);
      const auto r = store.scrub(0);
      EXPECT_EQ(r.status, OpStatus::ok);
      EXPECT_EQ(r.keys, 4u);
      EXPECT_EQ(r.repairs, 2u) << "k3 rewritten, k4 erased on the replica";
      expect(k1, true, 11);
      expect(k2, true, 22);
      expect(k3, true, 33);
      expect(k4, false, 0);
      EXPECT_EQ(store.scrub(0).repairs, 0u) << "scrub is not idempotent";
      for (const auto k : {k1, k2, k3, k4}) {
        ASSERT_EQ(store.erase(k), OpStatus::ok);
        expect(k, false, 0);
      }
    }
    ctx.barrier();
    store.destroy(ctx);
  });
}

TEST(KvScrub, ScrubNeverRevertsALiveWrite) {
  // Rank 1 overwrites a and b while rank 0 diverges c's replica and scrubs
  // the shard in a loop. One writer created all three keys, so their cells
  // mirror and the scrub decides by version; a repair locks only at the
  // version it read, so it never lands under a newer write.
  constexpr std::uint64_t kN = 1000;
  constexpr std::uint64_t a = 1, b = 2, c = 3;
  KvConfig cfg;
  cfg.shards = 1;
  std::atomic<bool> scrubbing{false}, writing{true};
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    KvStore store(ctx, cfg);
    if (ctx.rank() == 0) {
      for (const auto k : {a, b, c}) {
        ASSERT_EQ(store.put(k, 0), OpStatus::ok);
      }
    }
    ctx.barrier();
    std::uint64_t last = 0;
    if (ctx.rank() == 1) {
      while (!scrubbing) ctx.yield_check();
      for (std::uint64_t i = 1; i <= kN; ++i) {
        EXPECT_EQ(store.put(a, i), OpStatus::ok);
        EXPECT_EQ(store.put(b, i), OpStatus::ok);
      }
      writing = false;
    } else {
      scrubbing = true;
      do {
        ++last;
        EXPECT_EQ(store.debug_write_copy(c, /*replica=*/true, last),
                  OpStatus::ok);
        EXPECT_EQ(store.scrub(0).status, OpStatus::ok);
      } while (writing);
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      const auto expect = [&](std::uint64_t k, std::uint64_t want) {
        for (const bool replica : {false, true}) {
          const char* where = replica ? " on the replica" : " on the owner";
          std::uint64_t v = 0;
          bool found = false;
          ASSERT_EQ(store.debug_read_copy(k, replica, &v, &found),
                    OpStatus::ok);
          EXPECT_TRUE(found) << "key " << k << where;
          EXPECT_EQ(v, want) << "key " << k << where;
        }
      };
      expect(a, kN);
      expect(b, kN);
      EXPECT_EQ(store.scrub(0).status, OpStatus::ok);
      expect(c, last);
      EXPECT_EQ(store.scrub(0).repairs, 0u) << "scrub is not idempotent";
    }
    ctx.barrier();
    store.destroy(ctx);
  });
}

TEST(KvScrub, RepairYieldsToAWriteAfterItsRead) {
  // Ranks 0 and 1 (k's owner and replica) share a node; the scrubber,
  // rank 2, sits behind ~5 ms AMOs. k's replica is ahead (7 over 1), so
  // the scrub will repair k's primary at the version it read. k's reads
  // finish in one round, but a 20-cell chain in k's slot keeps the scrub
  // reading for ~21 more, and rank 0 puts k = 9 in that window. The
  // repair must then retire instead of writing 7 over the newer 9.
  fabric::FabricOptions opts;
  opts.domain.nranks = 3;
  opts.domain.ranks_per_node = 2;
  opts.domain.inject = rdma::Injection::model;
  opts.domain.time_scale = 100;
  opts.domain.model.amo_base_ns = 50000;  // x100: a 5 ms inter-node AMO
  opts.hang_timeout_ns = 60'000'000'000;
  std::atomic<bool> started{false};
  fabric::run_ranks(
      3,
      [&](RankCtx& ctx) {
        KvConfig cfg;
        cfg.shards = 3;
        cfg.table_slots = 1;
        KvStore store(ctx, cfg);
        const auto k = key_owned_by(store, 0);
        const int s = store.shard_of(k);
        ASSERT_EQ(store.replica_of(s), 1);
        if (ctx.rank() == 0) {
          ASSERT_EQ(store.put(k, 1), OpStatus::ok);
          std::uint64_t m = k;
          for (int i = 0; i < 20; ++i) {
            do ++m; while (store.shard_of(m) != s);
            ASSERT_EQ(store.put(m, m), OpStatus::ok);
          }
          ASSERT_EQ(store.debug_write_copy(k, /*replica=*/true, 7),
                    OpStatus::ok);
        }
        ctx.barrier();
        if (ctx.rank() == 2) {
          started = true;
          EXPECT_EQ(store.scrub(s).status, OpStatus::ok);
        } else if (ctx.rank() == 0) {
          // k's reads end with the scrub's first round, the chain's some
          // 21 rounds (over 100 ms) later. A put outside that window is
          // not a race, and passes.
          while (!started) ctx.yield_check();
          const std::uint64_t t0 = now_ns();
          while (now_ns() - t0 < 80'000'000) ctx.yield_check();
          ASSERT_EQ(store.put(k, 9), OpStatus::ok);
        }
        ctx.barrier();
        if (ctx.rank() == 0) {
          for (const bool replica : {false, true}) {
            std::uint64_t v = 0;
            bool found = false;
            ASSERT_EQ(store.debug_read_copy(k, replica, &v, &found),
                      OpStatus::ok);
            EXPECT_TRUE(found);
            EXPECT_EQ(v, 9u) << (replica ? "replica" : "owner")
                             << ": the repair landed under a newer write";
          }
        }
        ctx.barrier();
        store.destroy(ctx);
      },
      opts);
}

TEST(KvScrub, DeadCopyScrubRetiresTypedPeerDead) {
  constexpr int kRanks = 3;
  fabric::FabricOptions opts;
  opts.domain.nranks = kRanks;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = 2;
  opts.domain.fault.kill_at_op = 200;
  opts.errors_return = true;
  std::atomic<int> survivors{0};
  fabric::run_ranks(
      kRanks,
      [&](RankCtx& ctx) {
        KvStore store(ctx);
        const auto doomed = key_owned_by(store, 2);
        ctx.barrier();
        if (ctx.rank() == 2) {
          std::uint64_t v = 0;
          bool found = false;
          for (int i = 0; i < 100000; ++i) {
            store.get(doomed, &v, &found);
            store.put(3330001, static_cast<std::uint64_t>(i));
          }
          FAIL() << "rank 2 must have been killed";
        }
        while (store.peer_alive(2)) ctx.yield_check();
        const auto r = store.scrub(store.shard_of(doomed));
        EXPECT_EQ(r.status, OpStatus::peer_dead)
            << "scrub over a dead copy must refuse typed, not wedge";
        survivors.fetch_add(1);
      },
      opts);
  EXPECT_EQ(survivors.load(), 2);
}

// --- recovery chaos -----------------------------------------------------------

namespace {

/// One closed-loop fleet round with a staggered double kill: rank 1 dies
/// mid-fleet and rank 2 dies later — during its own fleet tail, its heal
/// participation, or its post-heal traffic, depending on the seed-varied
/// kill sites. Survivors heal until the pair map settles and every op ever
/// issued must retire into exactly one typed bucket.
void recovery_chaos_round(std::uint64_t seed) {
  constexpr int kRanks = 4;
  fabric::FabricOptions opts;
  opts.domain.nranks = kRanks;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.seed = seed;
  opts.domain.fault.kills = {{1, 260 + (seed % 5) * 97},
                             {2, 900 + (seed % 7) * 61}};
  opts.errors_return = true;
  std::atomic<int> survivors{0};
  fabric::run_ranks(
      kRanks,
      [&](RankCtx& ctx) {
        KvStore store(ctx);
        if (ctx.rank() == 0) {
          for (std::uint64_t k = 1; k <= 64; ++k) {
            ASSERT_EQ(store.put(k, k * 3), OpStatus::ok);
          }
        }
        ctx.barrier();  // last collective: kills land in the fleet phase
        KvStore::FleetConfig fc;
        fc.ops_per_rank = 500;
        fc.fibers = 4;
        fc.read_ratio = 0.9;
        fc.keyspace = 64;
        fc.seed = seed;
        const auto res = store.run_fleet(ctx, fc);
        // Retirement identity: every issued op retired exactly once into
        // a typed bucket (the killed ranks never reach this assert).
        EXPECT_EQ(res.issued, static_cast<std::uint64_t>(fc.ops_per_rank));
        EXPECT_EQ(res.issued, res.ok_ops + res.peer_dead + res.retry_routing +
                                  res.data_loss + res.failed_other)
            << "an op leaked out of the retirement identity at seed " << seed;
        if (ctx.rank() == 2) {
          // Burn ops until the scheduled death: heal participation and
          // traffic, so the kill can land mid-drain or mid-scrub.
          std::uint64_t v = 0;
          bool found = false;
          for (int i = 0; i < 300000; ++i) {
            store.heal();
            store.get(1, &v, &found);
          }
          FAIL() << "rank 2 must have been killed at seed " << seed;
        }
        while (store.peer_alive(1) || store.peer_alive(2)) ctx.yield_check();
        const auto rep = heal_until_settled(store, ctx);
        EXPECT_NE(rep.status, OpStatus::pending);
        // Settled end state: every pair fully alive (and not degraded) or
        // terminally lost; every key answers typed, never hangs.
        for (int s = 0; s < store.config().shards; ++s) {
          const bool pa = store.peer_alive(store.copy_of(s, false).rank);
          const bool ra = store.peer_alive(store.copy_of(s, true).rank);
          EXPECT_EQ(pa, ra) << "half-recovered shard " << s << " at seed "
                            << seed;
          if (pa) {
            EXPECT_FALSE(store.degraded(s));
          }
        }
        for (std::uint64_t k = 1; k <= 64; ++k) {
          std::uint64_t v = 0;
          bool found = false;
          const auto st = store.get(k, &v, &found);
          EXPECT_TRUE(st == OpStatus::ok || st == OpStatus::data_loss)
              << "key " << k << " retired " << rdma::to_string(st)
              << " at seed " << seed;
        }
        // A post-recovery fleet round keeps the identity with the healed
        // (or typed-lost) routing.
        KvStore::FleetConfig post = fc;
        post.ops_per_rank = 200;
        post.seed = seed + 1;
        const auto after = store.run_fleet(ctx, post);
        EXPECT_EQ(after.issued, static_cast<std::uint64_t>(post.ops_per_rank));
        EXPECT_EQ(after.issued, after.ok_ops + after.peer_dead +
                                    after.retry_routing + after.data_loss +
                                    after.failed_other);
        EXPECT_EQ(after.peer_dead, 0u)
            << "post-recovery routing still points at dead ranks";
        survivors.fetch_add(1);
      },
      opts);
  EXPECT_EQ(survivors.load(), 2);
}

}  // namespace

TEST(KvRecoveryChaos, SettlesWithTypedRetirementAcrossSeeds) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    recovery_chaos_round(seed);
  }
}

TEST(KvFleet, OpStreamIsSeedDeterministic) {
  // Same seed: identical op mix (reads/writes split) across runs.
  std::array<std::uint64_t, 2> reads{}, writes{};
  for (int run = 0; run < 2; ++run) {
    fabric::run_ranks(2, [&](RankCtx& ctx) {
      KvStore store(ctx);
      KvStore::FleetConfig fc;
      fc.ops_per_rank = 128;
      fc.seed = 99;
      const auto res = store.run_fleet(ctx, fc);
      if (ctx.rank() == 0) {
        reads[static_cast<std::size_t>(run)] = res.reads;
        writes[static_cast<std::size_t>(run)] = res.writes;
      }
      ctx.barrier();
      store.destroy(ctx);
    });
  }
  EXPECT_EQ(reads[0], reads[1]);
  EXPECT_EQ(writes[0], writes[1]);
}
