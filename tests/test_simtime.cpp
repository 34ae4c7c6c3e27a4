// Discrete-event engine and the scaling simulations: determinism, event
// ordering, and the shape properties the paper's figures rely on.
#include <gtest/gtest.h>

#include <cmath>

#include "rdma/network_model.hpp"
#include "simtime/des.hpp"
#include "simtime/sim_apps.hpp"
#include "simtime/sim_coll.hpp"
#include "simtime/sim_dsde.hpp"
#include "simtime/sim_kv.hpp"
#include "simtime/sim_overlap.hpp"
#include "simtime/sim_sync.hpp"

using namespace fompi;
using namespace fompi::sim;

TEST(Des, EventsRunInTimeOrder) {
  Sim sim;
  std::vector<int> order;
  sim.at(3.0, [&] { order.push_back(3); });
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(2.0, [&] {
    order.push_back(2);
    sim.after(0.5, [&] { order.push_back(25); });
  });
  const double end = sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 25, 3}));
  EXPECT_DOUBLE_EQ(end, 3.0);
  EXPECT_EQ(sim.events_processed(), 4u);
}

TEST(Des, FifoTieBreakAtEqualTimes) {
  Sim sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Des, SchedulingIntoThePastRejected) {
  Sim sim;
  sim.at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.at(1.0, [] {}), Error);
}

TEST(Des, NoiseSamplesAreNonNegativeAndSparse) {
  Noise n{0.1, 20.0};
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = n.sample(rng);
    EXPECT_GE(v, 0.0);
    if (v > 0) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.1, 0.02);
  Noise off{};
  EXPECT_DOUBLE_EQ(off.sample(rng), 0.0);
}

TEST(SimBarrier, MatchesLogPScaling) {
  SyncParams sp;
  sp.msg_latency_us = 2.484;  // round cost = 2.9us with the 416ns overhead
  sp.per_msg_overhead_us = 0.416;
  double prev = 0;
  for (int p : {2, 8, 64, 1024, 8192}) {
    const double t = simulate_dissemination_barrier(p, sp);
    const double rounds = std::ceil(std::log2(p));
    EXPECT_NEAR(t, 2.9 * rounds, 0.5) << "p=" << p;
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_DOUBLE_EQ(simulate_dissemination_barrier(1, sp), 0.0);
}

TEST(SimBarrier, Deterministic) {
  SyncParams sp;
  sp.seed = 17;
  sp.noise = Noise{0.05, 30.0};
  const double a = simulate_dissemination_barrier(512, sp);
  const double b = simulate_dissemination_barrier(512, sp);
  EXPECT_DOUBLE_EQ(a, b);
  sp.seed = 18;
  EXPECT_NE(a, simulate_dissemination_barrier(512, sp));
}

TEST(SimPscw, NearlyConstantInP) {
  // Fig 6c: an ideal PSCW ring is O(1) in the process count.
  SyncParams sp;
  const double t64 = simulate_pscw_ring(64, sp);
  const double t64k = simulate_pscw_ring(65536, sp);
  EXPECT_GT(t64, 0.0);
  EXPECT_LT(t64k, t64 * 1.5) << "PSCW ring must not grow with p";
}

TEST(SimPscw, CrayComparatorGrowsWithP) {
  const auto s1 = simulate_pscw_all(64, 42);
  const auto s2 = simulate_pscw_all(65536, 42);
  EXPECT_LT(s1.fompi_us, s1.craympi_us);
  EXPECT_GT(s2.craympi_us / s2.fompi_us, 10.0)
      << "the gap must widen with p (Fig 6c)";
}

TEST(SimFence, OrderingOfTransportsMatchesFig6b) {
  for (int p : {64, 1024, 8192}) {
    const auto s = simulate_fence_all(p, 42);
    EXPECT_LT(s.upc_us, s.fompi_us * 1.2) << "UPC barrier is fastest/close";
    EXPECT_GT(s.caf_us, s.fompi_us) << "CAF sync_all is slowest (Fig 6b)";
    EXPECT_GT(s.craympi_us, s.fompi_us);
  }
}

TEST(SimDsde, RmaWinsAndAlltoallLosesAtScale) {
  const auto s = simulate_dsde(8192);
  EXPECT_LT(s.fompi_rma_us, s.nbx_us * 1.1)
      << "RMA must be competitive with NBX (Fig 7b)";
  EXPECT_LT(s.nbx_us, s.reduce_scatter_us);
  EXPECT_LT(s.reduce_scatter_us, s.alltoall_us);
  EXPECT_LT(s.fompi_rma_us, s.mpi22_rma_us);
  // The improvement over dense protocols spans orders of magnitude.
  EXPECT_GT(s.alltoall_us / s.fompi_rma_us, 50.0);
}

TEST(SimDsde, SmallScaleStillOrdersRmaFirst) {
  const auto s = simulate_dsde(8);
  EXPECT_LT(s.fompi_rma_us, s.mpi22_rma_us);
  EXPECT_GT(s.alltoall_us, 0.0);
}

TEST(SimHashtable, ShapesMatchFig7a) {
  // Intra-node: everything is fast and close together.
  const auto intra = simulate_hashtable(2);
  EXPECT_GT(intra.fompi_ginserts, intra.mpi1_ginserts * 0.5);
  // At scale: foMPI ~ UPC, both orders of magnitude above MPI-1.
  const auto large = simulate_hashtable(32768);
  EXPECT_NEAR(large.upc_ginserts / large.fompi_ginserts, 1.0, 0.2);
  EXPECT_GT(large.fompi_ginserts / large.mpi1_ginserts, 20.0);
  // The paper's headline: MPI-1 at 32k cores stays below the single-node
  // insert rate of the RMA version.
  const auto node = simulate_hashtable(32);
  EXPECT_LT(large.mpi1_ginserts, node.fompi_ginserts * 2.0);
  // RMA throughput grows with p.
  EXPECT_GT(large.fompi_ginserts, intra.fompi_ginserts * 100);
}

TEST(SimFft, OverlapGivesFoMpiTheLead) {
  for (int p : {1024, 4096, 16384, 65536}) {
    const auto s = simulate_fft(p);
    EXPECT_GT(s.fompi_gflops, s.mpi1_gflops) << "p=" << p;
    EXPECT_GE(s.fompi_gflops, s.upc_gflops) << "p=" << p;
  }
  // The gap widens as communication dominates (Fig 7c annotations grow
  // from ~18% at 1k to ~100% at 64k).
  const auto s1 = simulate_fft(1024);
  const auto s64 = simulate_fft(65536);
  const double gain1 = s1.fompi_gflops / s1.mpi1_gflops;
  const double gain64 = s64.fompi_gflops / s64.mpi1_gflops;
  EXPECT_GT(gain64, gain1);
  EXPECT_GT(gain64, 1.5);  // ~2x at 64k in the paper
  EXPECT_LT(gain1, 1.6);
}

TEST(SimMilc, WeakScalingImprovementInPaperBand) {
  // Fig 8: foMPI/UPC improve the full application by roughly 5-15%,
  // growing with scale; UPC and foMPI are nearly identical.
  for (int p : {4096, 65536, 524288}) {
    const auto s = simulate_milc(p);
    const double gain = (s.mpi1_s - s.fompi_s) / s.mpi1_s;
    EXPECT_GT(gain, 0.04) << "p=" << p;
    EXPECT_LT(gain, 0.25) << "p=" << p;
    EXPECT_NEAR(s.upc_s / s.fompi_s, 1.0, 0.05);
  }
  const auto small = simulate_milc(4096);
  const auto large = simulate_milc(524288);
  EXPECT_GT(large.mpi1_s, small.mpi1_s);  // noise + allreduce grow
}

TEST(SimMsgRate, UnbatchedMatchesFig5bPlateau) {
  // Fig 5b: 8-byte put message rate plateaus around 2.4 Mmsgs/s, set by
  // the per-op processor->NIC overhead.
  MsgRateParams p;
  p.batch = 1;
  const double mops = simulate_msgrate_mops(p);
  EXPECT_GT(mops, 1.8);
  EXPECT_LT(mops, 3.0);
}

TEST(SimMsgRate, DoorbellBatchingAmortizesOverheadAtLeast2x) {
  MsgRateParams unbatched;
  unbatched.batch = 1;
  MsgRateParams batched;  // default batch = 64
  const double u = simulate_msgrate_mops(unbatched);
  const double b = simulate_msgrate_mops(batched);
  EXPECT_GE(b, 2.0 * u) << "batched " << b << " vs unbatched " << u;
  // The batch can never beat the pure software issue rate (1/sw_issue_ns).
  EXPECT_LT(b, 1e3 / batched.sw_issue_ns);
  // The NIC rings every 64 descriptors: a batch of 128 is two full chains
  // at exactly the batch-64 rate, and 65 adds a one-descriptor chain.
  MsgRateParams two_chains;
  two_chains.batch = 128;
  EXPECT_EQ(simulate_msgrate_mops(two_chains), b);
  MsgRateParams spill;
  spill.batch = 65;
  EXPECT_LT(simulate_msgrate_mops(spill), b);
}

// --- collectives at scale (PR 7) --------------------------------------------

TEST(SimColl, BcastScalesAsLogPUpTo512k) {
  // Doubling p adds exactly one binomial round: the latency series over
  // p = 2^k must be affine in k, all the way to 512k processes.
  CollParams c;
  c.nbytes = 64;
  const double step = simulate_coll_us(CollOp::bcast, 4, c) -
                      simulate_coll_us(CollOp::bcast, 2, c);
  ASSERT_GT(step, 0.0);
  for (int k = 2; (1 << k) <= (1 << 19); ++k) {
    const double got = simulate_coll_us(CollOp::bcast, 1 << k, c);
    const double prev = simulate_coll_us(CollOp::bcast, 1 << (k - 1), c);
    EXPECT_NEAR(got - prev, step, 1e-9) << "p=" << (1 << k);
  }
  // O(log p), not O(p): 512k ranks costs less than 24x the 4-rank latency.
  EXPECT_LT(simulate_coll_us(CollOp::bcast, 512 * 1024, c),
            24.0 * simulate_coll_us(CollOp::bcast, 4, c));
}

TEST(SimColl, AlltoallvSteadyStateIsLogPUpTo512k) {
  // The persistent run path pays the leading barrier (log p) plus a fixed
  // neighbor fan-out — the dense count exchange is plan-time-amortized.
  CollParams c;
  c.neighbors = 8;
  c.nbytes = 256;
  const double t8 = simulate_coll_us(CollOp::alltoallv, 8, c);
  const double t512k = simulate_coll_us(CollOp::alltoallv, 512 * 1024, c);
  ASSERT_GT(t8, 0.0);
  // 8 -> 512k multiplies p by 64k (16 doublings) but latency only by the
  // barrier's extra rounds: well under 8x, nowhere near the 65536x a flat
  // O(p) exchange would cost.
  EXPECT_LT(t512k, 8.0 * t8);
  // And it is strictly round-limited: each doubling adds one barrier round.
  const double step = simulate_coll_us(CollOp::alltoallv, 32, c) -
                      simulate_coll_us(CollOp::alltoallv, 16, c);
  EXPECT_NEAR(simulate_coll_us(CollOp::alltoallv, 64, c) -
                  simulate_coll_us(CollOp::alltoallv, 32, c),
              step, 1e-9);
}

TEST(SimColl, BarrierFormCrossChecksAgainstDes) {
  // The closed-form barrier must agree with the event-driven dissemination
  // barrier (sim_sync) when fed the same per-round constants.
  CollParams c;
  SyncParams sp;
  sp.msg_latency_us = rdma::kGemini.put_base_ns / 1e3;
  sp.per_msg_overhead_us = rdma::kGemini.inter_overhead_ns / 1e3;
  sp.noise = Noise{};  // deterministic
  for (int p : {8, 64, 1024, 32768}) {
    const double closed = simulate_coll_us(CollOp::barrier, p, c);
    const double des = simulate_dissemination_barrier(p, sp);
    EXPECT_NEAR(closed, des, 0.20 * des) << "p=" << p;
  }
}

TEST(SimColl, HierarchyBeatsFlatTreesAtScale) {
  // With 32 ranks/node the inter-node tree is log(p/32) deep instead of
  // log(p): the hierarchical forms must win for every data collective at
  // Blue Waters scale.
  CollParams flat;
  flat.nbytes = 1024;
  CollParams hier = flat;
  hier.ranks_per_node = 32;
  const int p = 512 * 1024;
  for (CollOp op : {CollOp::bcast, CollOp::allreduce, CollOp::allgather}) {
    EXPECT_LT(simulate_coll_us(op, p, hier), simulate_coll_us(op, p, flat))
        << static_cast<int>(op);
  }
}

// --- fiber overlap model (PR 8) ----------------------------------------------

TEST(SimOverlap, RateMonotoneUpToSaturationThenFlat) {
  const OverlapModel m = overlap_model_amo8();
  double prev = 0.0;
  for (int f : {1, 2, 4, 8, 16, 32, 64}) {
    const double rate = m.rate_mops(f);
    EXPECT_GE(rate, prev) << "fibers=" << f;
    prev = rate;
  }
  // Past saturation the issue path is the bottleneck: 512 fibers buy
  // nothing over 64 (F* = (o+s+L)/(o+s) is well below 64 for every op).
  EXPECT_LT(m.saturation_fibers(), 64.0);
  EXPECT_DOUBLE_EQ(m.rate_mops(512), m.rate_mops(64));
  // The saturated rate is exactly the pure issue rate.
  EXPECT_NEAR(m.rate_mops(512), 1e3 / (m.overhead_ns + m.software_ns), 1e-9);
}

TEST(SimOverlap, AmoPipelineClearsTheBenchGate) {
  // bench_overlap's acceptance gate: >= 4x modeled message rate at 64
  // fibers vs 1 for the amo workload. The closed form must predict it
  // with margin, or the measured gate is hanging on noise.
  const OverlapModel m = overlap_model_amo8();
  EXPECT_GE(m.speedup(64), 4.0 * 1.2);
}

TEST(SimOverlap, SpeedupOrderedByLatency) {
  // Overlap hides latency, so the op with more latency to hide gains
  // more: put8 (~1 us) < get8 (~1.9 us) < amo (2.4 us round trip).
  const double put = overlap_model_put8().speedup(64);
  const double get = overlap_model_get8().speedup(64);
  const double amo = overlap_model_amo8().speedup(64);
  EXPECT_LT(put, get);
  EXPECT_LT(get, amo);
  // One fiber is the blocking baseline by construction.
  EXPECT_DOUBLE_EQ(overlap_model_put8().speedup(1), 1.0);
}

TEST(SimOverlap, LatencyBoundRegionScalesLinearly) {
  // Below saturation, doubling the fiber count halves ns/op exactly.
  const OverlapModel m = overlap_model_amo8();
  EXPECT_NEAR(m.ns_per_op(2), m.ns_per_op(1) / 2.0, 1e-9);
  EXPECT_NEAR(m.ns_per_op(4), m.ns_per_op(1) / 4.0, 1e-9);
  // And the factories charge the runtime's injected constants.
  EXPECT_DOUBLE_EQ(m.latency_ns, 2400.0);
  EXPECT_DOUBLE_EQ(m.overhead_ns, 416.0);
}

TEST(SimColl, AllgatherBytesStillLinearAtLargeBlocks) {
  // Bruck rounds are logarithmic but the wire total is (p-1)*nbytes:
  // at large blocks the byte term must dominate (sanity against an
  // over-optimistic all-log model).
  CollParams c;
  c.nbytes = 1 << 20;
  const double t256 = simulate_coll_us(CollOp::allgather, 256, c);
  const double t512 = simulate_coll_us(CollOp::allgather, 512, c);
  EXPECT_GT(t512, 1.8 * t256);
}

// --- KV service SLO models (DESIGN.md §12) ------------------------------------

TEST(SimKv, CacheLeverageMatchesClosedForm) {
  // A version-validated cache hit is one round of 1 AMO; the full
  // versioned read is one round too: 2 AMOs and 1 get of the cell behind
  // one doorbell. The hit saves two chain links, not a round trip, so the
  // leverage is (2.4 + 0.416 + 2*0.045) / (2.4 + 0.416) ~ 1.03; bench_kv's
  // timing floors sit halfway between 1 and it.
  KvParams p;
  p.hit_rate = 1.0;
  const double cached = kv_read_us(p);
  p.hit_rate = 0.0;
  const double uncached = kv_read_us(p);
  EXPECT_NEAR(cached, 2.4 + 0.416, 1e-9);
  EXPECT_NEAR(uncached, 2.4 + 0.416 + 2 * 0.045, 1e-9);
  EXPECT_NEAR(uncached / cached, (2.4 + 0.416 + 2 * 0.045) / (2.4 + 0.416),
              1e-9);
}

TEST(SimKv, MeanReadMonotoneInHitRate) {
  KvParams p;
  double prev = 1e30;
  for (double h = 0.0; h <= 1.0; h += 0.1) {
    p.hit_rate = h;
    const double t = kv_read_us(p);
    EXPECT_LT(t, prev) << "mean read must fall as the cache warms, h=" << h;
    prev = t;
  }
}

TEST(SimKv, DegradedTailNoBetterThanHealthy) {
  // Failover SLO shape: degraded mode bypasses the cache, so both the
  // mean and the p99 must degrade (mean strictly, given any hit mass).
  KvParams p;
  EXPECT_GT(kv_read_us(p, /*degraded=*/true), kv_read_us(p, false));
  EXPECT_GE(kv_read_p99_us(p, true), kv_read_p99_us(p, false));
  // The p99 is the uncached read in both modes for any realistic cache:
  // one round of 2 AMOs and 1 get behind one doorbell.
  EXPECT_NEAR(kv_read_p99_us(p, false), 2.4 + 0.416 + 2 * 0.045, 1e-9);
  EXPECT_NEAR(kv_read_p99_us(p, true), 2.4 + 0.416 + 2 * 0.045, 1e-9);
  // Degraded puts write one region instead of two: cheaper per op, which
  // is the one silver lining the SLO table shows.
  EXPECT_LT(kv_put_us(p, true), kv_put_us(p, false));
  // Lockstep copies: two overlapped rounds either way (a take, then the
  // write), each one doorbell of 4 (healthy) or 2 (degraded) AMOs: the
  // issue overhead once plus a chain link per extra AMO.
  EXPECT_NEAR(kv_put_us(p, false), 2 * (2.4 + 0.416) + 6 * 0.045, 1e-9);
  EXPECT_NEAR(kv_put_us(p, true), 2 * (2.4 + 0.416) + 2 * 0.045, 1e-9);
}

TEST(SimKv, ThroughputMonotoneAndSaturating) {
  KvParams p;
  double prev = 0.0;
  for (int c = 1; c <= 4096; c *= 2) {
    const double t = simulate_kv_throughput_mops(c, p);
    EXPECT_GE(t, prev) << "throughput must be nondecreasing, clients=" << c;
    prev = t;
  }
  // Saturation: far past the knee the hottest shard pins the rate.
  EXPECT_NEAR(simulate_kv_throughput_mops(2048, p),
              simulate_kv_throughput_mops(4096, p), 1e-9);
  // And the plateau is the hot-shard service bound, not the offered load.
  EXPECT_LT(simulate_kv_throughput_mops(4096, p),
            4096.0 * p.fibers / kv_read_us(p));
}

TEST(SimKv, ReplicationRaisesTheSaturationPlateau) {
  // Hot-key replica reads split the hottest shard's read load across two
  // serving ranks: the saturated throughput must rise with replication.
  KvParams repl;
  repl.replicate = true;
  KvParams solo = repl;
  solo.replicate = false;
  EXPECT_GT(simulate_kv_throughput_mops(4096, repl),
            simulate_kv_throughput_mops(4096, solo));
}

TEST(SimKv, HotShardMassMatchesZipfFold) {
  // phi = rank-1 mass of Zipf(s) over the shards: 1/H at s=0 (uniform),
  // growing with skew, and always a legal probability.
  KvParams p;
  p.zipf_s = 0.0;
  EXPECT_NEAR(kv_hot_shard_mass(p), 1.0 / p.shards, 1e-9);
  p.zipf_s = 0.9;
  const double skewed = kv_hot_shard_mass(p);
  EXPECT_GT(skewed, 1.0 / p.shards);
  EXPECT_LT(skewed, 1.0);
}

// --- self-healing recovery models (DESIGN.md §13) -----------------------------

TEST(SimKvRecovery, MonotoneInShardBytesAndCells) {
  KvParams p;
  double prev = 0.0;
  for (std::uint64_t kb = 4; kb <= 4096; kb *= 2) {
    const double t = kv_recovery_us(p, kb * 1024, 320);
    EXPECT_GT(t, prev) << "recovery time must grow with the image, kb="
                       << kb;
    prev = t;
  }
  prev = 0.0;
  for (std::uint64_t keys = 64; keys <= 4096; keys *= 2) {
    const double t = kv_recovery_us(p, 64 * 1024, keys);
    EXPECT_GT(t, prev) << "recovery time must grow with the scrub, keys="
                       << keys;
    prev = t;
  }
}

TEST(SimKvRecovery, DrainIsBteStreamDominatedAtScale) {
  // At large shard images the chunked image passes (the drain and the
  // scrub's two snapshots) dominate the per-key reads and the generation
  // cost: doubling the image must roughly double the recovery time
  // (ratio -> 2 from below).
  KvParams p;
  const std::uint64_t keys = 320;
  const double t1 = kv_recovery_us(p, 64ull << 20, keys);
  const double t2 = kv_recovery_us(p, 128ull << 20, keys);
  EXPECT_GT(t2 / t1, 1.8);
  EXPECT_LT(t2 / t1, 2.05);
}

TEST(SimKvRecovery, ScrubReadsRingADoorbellPer64Requests) {
  // The scrub reads every key on both copies in one round, three requests
  // per key and copy, chained behind a doorbell per 64: 10 keys are 60
  // requests behind one doorbell, 11 keys are 66 behind two. With no image
  // to drain, the rest is that round's trip and the generation claim and
  // release.
  KvParams p;
  const double fixed = 3 * 2.4;
  EXPECT_NEAR(kv_recovery_us(p, 0, 0), fixed, 1e-9);
  EXPECT_NEAR(kv_recovery_us(p, 0, 10), fixed + 0.416 + 59 * 0.045, 1e-9);
  EXPECT_NEAR(kv_recovery_us(p, 0, 11), fixed + 2 * 0.416 + 64 * 0.045,
              1e-9);
}

TEST(SimKvRecovery, PostRecoveryTailEqualsHealthyAndBeatsDegraded) {
  // The whole point of healing: the post-recovery p99 is the HEALTHY p99
  // (the generation check overlaps the read's first round, costing no
  // serialized round trip), strictly better than the degraded
  // cache-bypassed tail would stay without recovery — and the restored
  // cache leverage is the uncached/cached ratio again (the closed form
  // bench_kv derives its leverage floors from).
  KvParams p;
  EXPECT_NEAR(kv_post_recovery_p99_us(p), kv_read_p99_us(p, false), 1e-9);
  EXPECT_LE(kv_post_recovery_p99_us(p), kv_read_p99_us(p, true));
  EXPECT_LT(kv_read_us(p, false), kv_read_us(p, true));
  p.hit_rate = 1.0;
  const double cached = kv_read_us(p);
  p.hit_rate = 0.0;
  EXPECT_NEAR(kv_read_us(p) / cached,
              (2.4 + 0.416 + 2 * 0.045) / (2.4 + 0.416), 1e-9);
}

TEST(SimKvRecovery, PostRecoveryPutAddsARequestNotARound) {
  // Once a death was seen, a put reads the routing generation inside its
  // first round: the healed put pays one more chain link behind that
  // round's doorbell, not the round trip a separate generation read would
  // add.
  KvParams p;
  EXPECT_NEAR(kv_post_recovery_put_us(p), 2 * (2.4 + 0.416) + 7 * 0.045,
              1e-9);
  EXPECT_LT(kv_post_recovery_put_us(p),
            kv_put_us(p) + rdma::kGemini.amo_base_ns / 1e3);
}

TEST(SimKvRecovery, ChunkingOnlyAddsSetupOverhead) {
  // Finer drain chunks pay more BTE channel setups for the same bytes:
  // recovery time is nonincreasing in chunk size, with equal stream cost.
  KvParams p;
  const std::uint64_t bytes = 1ull << 20;
  double prev = 1e30;
  for (std::uint64_t chunk = 512; chunk <= 16384; chunk *= 2) {
    const double t = kv_recovery_us(p, bytes, 320, chunk);
    EXPECT_LT(t, prev) << "bigger chunks must not slow the drain, chunk="
                       << chunk;
    prev = t;
  }
}
