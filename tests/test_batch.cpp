// Doorbell batching coverage: batch scopes (the fixed 64-descriptor
// capacity, vectored and BTE ops keeping their own doorbell, the doorbell
// overlapping its overhead with the wire), batch flushes at every sync
// point, and fault isolation inside a batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"

#include "common/buffer.hpp"
#include "common/instr.hpp"
#include "common/timing.hpp"
#include "core/window.hpp"
#include "fabric/fabric.hpp"
#include "rdma/network_model.hpp"
#include "rdma/nic.hpp"

using namespace fompi;
using namespace fompi::rdma;
using core::Win;
using core::WinConfig;
using fabric::RankCtx;

namespace {

DomainConfig internode(int nranks, Injection inject = Injection::none) {
  DomainConfig cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 1;  // inter-node ("DMAPP") path
  cfg.inject = inject;
  return cfg;
}

}  // namespace

// --- explicit batch scopes -----------------------------------------------------

TEST(Batch, ExplicitScopeCoalescesOntoOneDoorbell) {
  Domain dom(internode(2, Injection::model));
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(4096);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 4096);
  alignas(8) std::uint64_t src = 0xfeedu;

  const OpCounters before = op_counters();
  nic.batch_begin();
  EXPECT_TRUE(nic.batch_active());
  std::vector<Handle> hs;
  for (int i = 0; i < 8; ++i) {
    src = 100u + static_cast<std::uint64_t>(i);
    hs.push_back(nic.put_nb(1, d, static_cast<std::size_t>(i) * 8u, &src, 8));
  }
  EXPECT_EQ(nic.batch_depth(), 8u);
  EXPECT_EQ(nic.doorbells_rung(), 0u);
  nic.batch_flush();
  EXPECT_FALSE(nic.batch_active());
  EXPECT_EQ(nic.doorbells_rung(), 1u);
  for (Handle h : hs) EXPECT_EQ(nic.wait_status(h), OpStatus::ok);

  const OpCounters delta = op_counters().since(before);
  EXPECT_EQ(delta.get(Op::doorbell_ring), 1u);
  EXPECT_EQ(delta.get(Op::batched_op), 8u);
  for (int i = 0; i < 8; ++i) {
    std::uint64_t got = 0;
    std::memcpy(&got, mem.data() + i * 8, 8);
    EXPECT_EQ(got, 100u + static_cast<std::uint64_t>(i));
  }
}

TEST(Batch, WaitOnBatchPendingHandleFlushesTheBatch) {
  Domain dom(internode(2, Injection::model));
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(256);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 256);
  alignas(8) std::uint64_t src = 7;

  nic.batch_begin();
  const Handle h = nic.put_nb(1, d, 0, &src, 8);
  EXPECT_TRUE(nic.batch_active());
  // No explicit flush: completing the handle must ring the doorbell first.
  EXPECT_EQ(nic.wait_status(h), OpStatus::ok);
  EXPECT_FALSE(nic.batch_active());
  EXPECT_EQ(nic.doorbells_rung(), 1u);
}

TEST(Batch, VectoredOpKeepsItsOwnDoorbell) {
  // A vectored op is already one chained doorbell: inside an open batch it
  // neither joins the batch nor rings a coalesced doorbell.
  Domain dom(internode(2, Injection::model));
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(4096);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 4096);
  alignas(8) std::uint64_t src[3] = {11, 22, 33};
  const Frag frags[3] = {{0, 0, 8}, {8, 64, 8}, {16, 128, 8}};

  const OpCounters before = op_counters();
  nic.batch_begin();
  const Handle h = nic.put_nbv(1, d, 0, 136, src, frags, 3);
  EXPECT_EQ(nic.batch_depth(), 0u);
  EXPECT_EQ(nic.wait_status(h), OpStatus::ok);
  nic.batch_flush();
  EXPECT_EQ(nic.doorbells_rung(), 0u);
  const OpCounters delta = op_counters().since(before);
  EXPECT_EQ(delta.get(Op::batched_op), 0u);
  EXPECT_EQ(delta.get(Op::doorbell_ring), 0u);
  EXPECT_EQ(delta.get(Op::vectored_op), 1u);
  std::uint64_t got[3] = {};
  std::memcpy(&got[0], mem.data(), 8);
  std::memcpy(&got[1], mem.data() + 64, 8);
  std::memcpy(&got[2], mem.data() + 128, 8);
  EXPECT_EQ(got[0], 11u);
  EXPECT_EQ(got[1], 22u);
  EXPECT_EQ(got[2], 33u);
}

TEST(Batch, BteSizedOpsBypassTheBatch) {
  Domain dom(internode(2, Injection::model));
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(1 << 16);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 1 << 16);
  std::vector<std::byte> big(8192);  // >= bte_threshold: owns its doorbell

  const OpCounters before = op_counters();
  nic.batch_begin();
  const Handle h = nic.put_nb(1, d, 0, big.data(), big.size());
  EXPECT_EQ(nic.batch_depth(), 0u) << "BTE transfer must not join the batch";
  EXPECT_EQ(nic.wait_status(h), OpStatus::ok);
  nic.batch_flush();  // empty scope: no doorbell to ring
  EXPECT_EQ(nic.doorbells_rung(), 0u);
  EXPECT_EQ(op_counters().since(before).get(Op::batched_op), 0u);
}

TEST(Batch, CapacityReachedFlushesImplicitly) {
  // A full chain of 64 rings its doorbell and leaves the scope open, so
  // its later ops chain behind the next doorbell instead of issuing one
  // by one: 130 puts ring 3 doorbells carrying all 130.
  const DomainConfig cfg = internode(2, Injection::model);
  Domain dom(cfg);
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(2048);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 2048);
  alignas(8) std::uint64_t src = 9;
  const auto busy = [&](std::size_t n) {
    return static_cast<std::uint64_t>(cfg.model.doorbell_ns(n, true) *
                                      cfg.time_scale);
  };

  const OpCounters before = op_counters();
  const std::uint64_t m0 = nic.modeled_ns();
  nic.batch_begin();
  for (int i = 0; i < 130; ++i) {
    nic.put_nbi(1, d, static_cast<std::size_t>(i) * 8u, &src, 8);
  }
  EXPECT_EQ(nic.doorbells_rung(), 2u);  // two full batches of 64
  EXPECT_TRUE(nic.batch_active());
  EXPECT_EQ(nic.batch_depth(), 2u);     // remainder still open
  nic.gsync();
  EXPECT_EQ(nic.doorbells_rung(), 3u);
  EXPECT_EQ(nic.implicit_outstanding(), 0u);

  const OpCounters delta = op_counters().since(before);
  EXPECT_EQ(delta.get(Op::doorbell_ring), 3u);
  EXPECT_EQ(delta.get(Op::batched_op), 130u);
  EXPECT_EQ(nic.modeled_ns() - m0, 2 * busy(64) + busy(2));
}

TEST(Batch, DoorbellOverlapsItsOverheadWithTheWire) {
  // A doorbell's overhead overlaps the wire, as an unbatched op's does:
  // each descriptor completes the chain plus its own latency after the
  // doorbell starts, while the origin is busy for the overhead plus the
  // chain. So a one-descriptor doorbell completes exactly when the same op
  // unbatched would. Deadlines are absolute, so each op's modeled start
  // (its deadline less the chain and its latency) is bracketed by clock
  // reads around the issue, or around the posts and the flush: at or
  // after the read before, and its busy time ended by the read after. At
  // time_scale 50 the overhead is 20.8 us, so a doorbell that added it in
  // series would land far outside the bracket.
  DomainConfig cfg = internode(2, Injection::model);
  cfg.time_scale = 50;
  Domain dom(cfg);
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(256);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 256);
  alignas(8) std::uint64_t src = 5;
  const NetworkModel& m = cfg.model;
  const auto scaled = [&](double ns) {
    return static_cast<std::uint64_t>(ns * cfg.time_scale);
  };
  const std::uint64_t lat = scaled(m.put_latency_ns(8));
  const auto expect_start_in = [](std::uint64_t start, std::uint64_t t0,
                                  std::uint64_t t1, std::uint64_t busy,
                                  const std::string& what) {
    EXPECT_GE(start, t0) << what;
    EXPECT_LE(start + busy, t1)
        << what << ": completes after its busy time instead of overlapping it";
  };

  {
    const std::uint64_t busy = scaled(m.inter_overhead_ns);
    const std::uint64_t m0 = nic.modeled_ns();
    const std::uint64_t t0 = now_ns();
    const Handle h = nic.put_nb(1, d, 0, &src, 8);
    const std::uint64_t t1 = now_ns();
    EXPECT_EQ(nic.modeled_ns() - m0, busy);
    expect_start_in(nic.completion_deadline(h) - lat, t0, t1, busy,
                    "unbatched");
    EXPECT_EQ(nic.wait_status(h), OpStatus::ok);
  }
  // A doorbell starts at its chain's first post, read where an unbatched
  // op reads its issue start, so it starts before the flush.
  for (const std::size_t n : {std::size_t{1}, std::size_t{4}}) {
    const std::string what = std::to_string(n) + "-descriptor doorbell";
    const std::uint64_t chain = scaled(m.chain_latency_ns(n));
    const std::uint64_t busy = scaled(m.doorbell_ns(n, true));
    EXPECT_EQ(busy, scaled(m.inter_overhead_ns) + chain);
    const std::uint64_t m0 = nic.modeled_ns();
    const std::uint64_t t0 = now_ns();
    nic.batch_begin();
    std::vector<Handle> hs;
    for (std::size_t i = 0; i < n; ++i) {
      hs.push_back(nic.put_nb(1, d, 8 * i, &src, 8));
    }
    const std::uint64_t posted = now_ns();
    nic.batch_flush();
    const std::uint64_t t1 = now_ns();
    EXPECT_EQ(nic.modeled_ns() - m0, busy) << what;
    for (const Handle h : hs) {
      const std::uint64_t start = nic.completion_deadline(h) - chain - lat;
      expect_start_in(start, t0, t1, busy, what);
      EXPECT_LE(start, posted) << what << ": starts after its posts";
      EXPECT_EQ(nic.wait_status(h), OpStatus::ok);
    }
  }
}

// --- sync points flush open batches --------------------------------------------

TEST(Batch, GsyncFlushesOpenBatch) {
  Domain dom(internode(2, Injection::model));
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(4096);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 4096);
  alignas(8) std::uint64_t src = 0xabcdu;

  nic.batch_begin();
  for (int i = 0; i < 8; ++i) {
    nic.put_nbi(1, d, static_cast<std::size_t>(i) * 8u, &src, 8);
  }
  EXPECT_TRUE(nic.batch_active());
  EXPECT_EQ(nic.gsync_status(), OpStatus::ok);
  EXPECT_FALSE(nic.batch_active());
  EXPECT_EQ(nic.doorbells_rung(), 1u);
  EXPECT_EQ(nic.implicit_outstanding(), 0u);
}

TEST(Batch, WindowSyncPointsFlushOpenBatches) {
  // flush / fence / unlock all route through gsync; each must ring and
  // close an open batch scope so MPI RMA completion semantics hold under
  // batching (the collectives' rounds rely on it).
  fabric::FabricOptions opts;
  opts.domain = internode(2, Injection::none);
  fabric::run_ranks(
      2,
      [&](RankCtx& ctx) {
        Win win = Win::allocate(ctx, 4096);
        Nic& nic = ctx.nic();
        const int peer = (ctx.rank() + 1) % 2;
        std::uint64_t v = static_cast<std::uint64_t>(ctx.rank()) + 1;

        // Window setup's collectives ring doorbells of their own, so each
        // check counts from its own batch_begin.
        const auto sync_rings_scope = [&](std::size_t off, auto&& sync,
                                          const char* what) {
          const std::uint64_t db = nic.doorbells_rung();
          nic.batch_begin();
          win.put(&v, 8, peer, off);
          EXPECT_EQ(nic.batch_depth(), 1u) << what;
          sync();
          EXPECT_FALSE(nic.batch_active()) << what;
          EXPECT_EQ(nic.doorbells_rung(), db + 1) << what;
        };
        win.lock_all();
        sync_rings_scope(0, [&] { win.flush(peer); }, "flush");
        sync_rings_scope(8, [&] { win.unlock_all(); }, "unlock_all");
        win.fence();  // opens an active-target epoch
        sync_rings_scope(16, [&] { win.fence(); }, "fence");

        win.free();
      },
      opts);
}

// --- fault isolation inside a batch --------------------------------------------

TEST(Batch, DeadPeerOpRetiresAloneBatchmatesComplete) {
  DomainConfig cfg = internode(3, Injection::none);
  cfg.fault.kill_rank = 2;
  cfg.fault.kill_at_op = 0;
  Domain dom(cfg);
  Nic& killer = dom.nic(2);
  Nic& nic = dom.nic(0);
  AlignedBuffer mem0(256), mem1(256), mem2(256);
  const RegionDesc d0 = dom.registry().register_region(0, mem0.data(), 256);
  const RegionDesc d1 = dom.registry().register_region(1, mem1.data(), 256);
  const RegionDesc d2 = dom.registry().register_region(2, mem2.data(), 256);
  alignas(8) std::uint64_t src = 0x51u;

  // Rank 2 dies at its first issued op (fail-stop).
  EXPECT_THROW(killer.put(0, d0, 0, &src, 8), Error);
  ASSERT_FALSE(dom.alive(2));

  const OpCounters before = op_counters();
  nic.batch_begin();
  const Handle ok1 = nic.put_nb(1, d1, 0, &src, 8);
  EXPECT_EQ(nic.batch_depth(), 1u);
  const Handle dead = nic.put_nb(2, d2, 0, &src, 8);
  EXPECT_EQ(nic.batch_depth(), 1u)
      << "a pre-issue-failed op must never join the batch";
  const Handle ok2 = nic.put_nb(1, d1, 8, &src, 8);
  nic.batch_flush();

  EXPECT_EQ(nic.wait_status(ok1), OpStatus::ok);
  EXPECT_EQ(nic.wait_status(dead), OpStatus::peer_dead);
  EXPECT_EQ(nic.wait_status(ok2), OpStatus::ok);
  const OpCounters delta = op_counters().since(before);
  EXPECT_EQ(delta.get(Op::batched_op), 2u);
  EXPECT_EQ(delta.get(Op::op_failed), 1u);
}

TEST(Batch, ScheduledFaultInsideBatchFailsOnlyThatOp) {
  DomainConfig cfg = internode(2, Injection::none);
  cfg.fault.seed = 2024;
  cfg.fault.transient_faults_per_rank = 3;
  cfg.fault.horizon_ops = 16;
  cfg.fault.max_repeats = 1;
  cfg.fault.retry_budget = 0;  // every non-spike site is a permanent failure
  Domain dom(cfg);
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(4096);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 4096);
  alignas(8) std::uint64_t src = 3;

  // Replay the NIC's deterministic consumption rule over the introspected
  // schedule: per op index, sites fire in schedule order; shadowed sites
  // (at_op already passed) are consumed silently; a spike only stretches
  // latency; the first timeout/cq/doorbell site fails the op.
  const auto& sched = nic.fault_schedule();
  ASSERT_EQ(sched.size(), 3u);
  std::vector<OpStatus> expected(16, OpStatus::ok);
  std::size_t next = 0;
  for (std::uint64_t op = 0; op < 16; ++op) {
    while (next < sched.size() && sched[next].at_op <= op) {
      const auto site = sched[next++];
      if (site.at_op != op) continue;
      if (site.kind == FaultKind::latency_spike) continue;
      expected[op] = site.kind == FaultKind::cq_error ? OpStatus::cq_error
                                                      : OpStatus::timeout;
      break;
    }
  }
  const std::size_t nfail = static_cast<std::size_t>(
      std::count_if(expected.begin(), expected.end(),
                    [](OpStatus s) { return s != OpStatus::ok; }));
  ASSERT_GE(nfail, 1u) << "seed must schedule at least one permanent failure";

  nic.batch_begin();
  std::vector<Handle> hs;
  for (int i = 0; i < 16; ++i) {
    hs.push_back(nic.put_nb(1, d, static_cast<std::size_t>(i) * 8u, &src, 8));
  }
  nic.batch_flush();
  for (std::size_t i = 0; i < hs.size(); ++i) {
    EXPECT_EQ(nic.wait_status(hs[i]), expected[i]) << "op " << i;
  }
  EXPECT_EQ(nic.doorbells_rung(), 1u);
}

TEST(Batch, BatchedFleetAbortsOnDeadPeerNotHangs) {
  // A survivor's batch scope chains a put at a live rank with a put at a
  // dead one. The dead rank's put retires peer_dead at issue and never
  // joins the chain; the flush rings the live put's doorbell, waits for
  // its modeled completion, and reports the typed peer_dead instead of
  // hanging the fleet.
  constexpr std::uint64_t kLive = 0xfeed;
  fabric::FabricOptions opts;
  opts.domain = internode(3, Injection::model);
  opts.domain.fault.kill_rank = 1;
  // Late enough that every rank finishes window creation and the lock_all
  // protocol before the death; rank 1 then dies inside its put/flush loop.
  opts.domain.fault.kill_at_op = 40;
  opts.errors_return = true;
  std::atomic<bool> flushed{false};
  fabric::run_ranks(
      3,
      [&](RankCtx& ctx) {
        WinConfig wcfg;
        wcfg.err_mode = core::ErrMode::errors_return;
        Win win = Win::allocate(ctx, 256, wcfg);
        win.lock_all();
        std::uint64_t v = 1;
        if (ctx.rank() == 1) {
          for (int i = 0; i < 100; ++i) {
            ctx.nic().batch_begin();
            win.put(&v, 8, 0, 0);
            win.flush(0);
          }
          FAIL() << "rank 1 must have been killed";
        }
        if (ctx.rank() == 2) {
          while (!flushed.load()) ctx.yield_check();
          std::uint64_t got = 0;
          std::memcpy(&got, static_cast<const std::byte*>(win.base()) + 8, 8);
          EXPECT_EQ(got, kLive) << "the chained put at the live rank landed";
          return;
        }
        while (win.peer_alive(1)) ctx.yield_check();
        Nic& nic = ctx.nic();
        const std::uint64_t rung = nic.doorbells_rung();
        nic.batch_begin();
        win.put(&kLive, 8, 2, 8);
        win.put(&v, 8, 1, 0);
        EXPECT_EQ(nic.batch_depth(), 1u) << "only the live put joins the chain";
        EXPECT_EQ(win.flush_checked(1), OpStatus::peer_dead);
        EXPECT_EQ(nic.doorbells_rung(), rung + 1);
        EXPECT_FALSE(nic.batch_active());
        flushed.store(true);
      },
      opts);
}

// --- no scope, no doorbell ---------------------------------------------------------

TEST(Batch, NoScopeRingsNoDoorbell) {
  // Without a batch scope every op keeps its private doorbell: nothing
  // batches, and gsync has no chain to ring.
  Domain dom(internode(2, Injection::none));
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(256);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 256);

  const OpCounters before = op_counters();
  for (std::uint64_t i = 0; i < 64; ++i) {
    nic.put(1, d, (i % 8) * 8u, &i, 8);
  }
  nic.gsync();
  EXPECT_EQ(nic.doorbells_rung(), 0u);
  EXPECT_FALSE(nic.batch_active());
  EXPECT_EQ(op_counters().since(before).get(Op::batched_op), 0u);
  std::uint64_t got = 0;
  std::memcpy(&got, mem.data() + 7 * 8, 8);
  EXPECT_EQ(got, 63u);
}
