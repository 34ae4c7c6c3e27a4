// Throughput-mode coverage: doorbell coalescing (explicit scopes and
// auto-batch, the fixed 64-descriptor capacity, vectored ops keeping their
// own doorbell), implicit batch flushes at every sync point, fault
// isolation inside a batch, and multi-channel striping.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "trace/trace.hpp"

using namespace fompi;
using namespace fompi::rdma;
using core::Win;
using core::WinConfig;
using fabric::RankCtx;

namespace {

DomainConfig internode(int nranks, Injection inject = Injection::none,
                       NicConfig nic = {}) {
  DomainConfig cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 1;  // inter-node ("DMAPP") path
  cfg.inject = inject;
  cfg.nic = nic;
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
  // A full chain of 64 rings its doorbell and batching goes on: an auto
  // scope reopens at the next op, and an explicit scope stays open, so its
  // later ops chain behind the next doorbell instead of issuing one by
  // one. Either way 130 puts ring 3 doorbells carrying all 130.
  for (const bool explicit_scope : {false, true}) {
    const char* what = explicit_scope ? "explicit scope" : "auto_batch";
    NicConfig nc;
    nc.auto_batch = !explicit_scope;
    const DomainConfig cfg = internode(2, Injection::model, nc);
    Domain dom(cfg);
    Nic& nic = dom.nic(0);
    AlignedBuffer mem(2048);
    const RegionDesc d = dom.registry().register_region(1, mem.data(), 2048);
    alignas(8) std::uint64_t src = 9;
    const auto busy = [&](std::size_t n) {
      return static_cast<std::uint64_t>(cfg.model.doorbell_ns(n, true, 1) *
                                        cfg.time_scale);
    };

    const OpCounters before = op_counters();
    const std::uint64_t m0 = nic.modeled_ns();
    if (explicit_scope) nic.batch_begin();
    for (int i = 0; i < 130; ++i) {
      nic.put_nbi(1, d, static_cast<std::size_t>(i) * 8u, &src, 8);
    }
    EXPECT_EQ(nic.doorbells_rung(), 2u) << what;  // two full batches of 64
    EXPECT_EQ(nic.batch_depth(), 2u) << what;     // remainder still open
    nic.gsync();
    EXPECT_EQ(nic.doorbells_rung(), 3u) << what;
    EXPECT_EQ(nic.implicit_outstanding(), 0u) << what;

    const OpCounters delta = op_counters().since(before);
    EXPECT_EQ(delta.get(Op::doorbell_ring), 3u) << what;
    EXPECT_EQ(delta.get(Op::batched_op), 130u) << what;
    EXPECT_EQ(nic.modeled_ns() - m0, 2 * busy(64) + busy(2)) << what;
  }
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
  // An explicit scope's doorbell starts at its chain's first post, read
  // where an unbatched op reads its issue start, so it starts before the
  // flush; an auto scope's starts at the flush.
  DomainConfig auto_cfg = cfg;
  auto_cfg.nic.auto_batch = true;
  Domain auto_dom(auto_cfg);
  const RegionDesc auto_d =
      auto_dom.registry().register_region(1, mem.data(), 256);
  for (const bool explicit_scope : {true, false}) {
    Nic& bn = explicit_scope ? nic : auto_dom.nic(0);
    const RegionDesc& bd = explicit_scope ? d : auto_d;
    for (const std::size_t n : {std::size_t{1}, std::size_t{4}}) {
      const std::string what = std::to_string(n) + "-descriptor " +
                               (explicit_scope ? "explicit" : "auto") +
                               " doorbell";
      const std::uint64_t chain = scaled(m.batch_chain_latency_ns(n, 1));
      const std::uint64_t busy = scaled(m.doorbell_ns(n, true, 1));
      EXPECT_EQ(busy, scaled(m.inter_overhead_ns) + chain);
      const std::uint64_t m0 = bn.modeled_ns();
      const std::uint64_t t0 = now_ns();
      if (explicit_scope) bn.batch_begin();
      std::vector<Handle> hs;
      for (std::size_t i = 0; i < n; ++i) {
        hs.push_back(bn.put_nb(1, bd, 8 * i, &src, 8));
      }
      const std::uint64_t posted = now_ns();
      bn.batch_flush();
      const std::uint64_t t1 = now_ns();
      EXPECT_EQ(bn.modeled_ns() - m0, busy) << what;
      for (const Handle h : hs) {
        const std::uint64_t start = bn.completion_deadline(h) - chain - lat;
        expect_start_in(start, t0, t1, busy, what);
        if (explicit_scope) {
          EXPECT_LE(start, posted) << what << ": starts after its posts";
        } else {
          EXPECT_GE(start, posted) << what << ": starts before its flush";
        }
        EXPECT_EQ(bn.wait_status(h), OpStatus::ok);
      }
    }
  }
}

// --- sync points flush open batches --------------------------------------------

TEST(Batch, GsyncFlushesOpenAutoBatch) {
  NicConfig nc;
  nc.auto_batch = true;
  Domain dom(internode(2, Injection::model, nc));
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(4096);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 4096);
  alignas(8) std::uint64_t src = 0xabcdu;

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
  // flush / fence / unlock all route through gsync; each must close an
  // auto-batch scope so MPI RMA completion semantics hold under batching.
  fabric::FabricOptions opts;
  opts.domain = internode(2, Injection::none);
  opts.domain.nic.auto_batch = true;
  fabric::run_ranks(
      2,
      [&](RankCtx& ctx) {
        Win win = Win::allocate(ctx, 4096);
        std::uint64_t v = static_cast<std::uint64_t>(ctx.rank()) + 1;

        // Passive target + flush.
        win.lock_all();
        win.put(&v, 8, (ctx.rank() + 1) % 2, 0);
        EXPECT_TRUE(ctx.nic().batch_active());
        win.flush((ctx.rank() + 1) % 2);
        EXPECT_FALSE(ctx.nic().batch_active());
        const std::uint64_t db_after_flush = ctx.nic().doorbells_rung();
        EXPECT_GE(db_after_flush, 1u);

        // Unlock. The internal gsync must ring the pending batch; trailing
        // protocol ops (lock-word releases) issued after it may legitimately
        // re-open the auto-batch scope, so assert on doorbell progress, not
        // on batch_active() being false afterwards.
        win.put(&v, 8, (ctx.rank() + 1) % 2, 8);
        EXPECT_TRUE(ctx.nic().batch_active());
        win.unlock_all();
        const std::uint64_t db_after_unlock = ctx.nic().doorbells_rung();
        EXPECT_GT(db_after_unlock, db_after_flush);

        // Active target: fence closes the epoch (and rings the batch);
        // same caveat about trailing fence-counter protocol ops.
        win.fence();
        win.put(&v, 8, (ctx.rank() + 1) % 2, 16);
        EXPECT_TRUE(ctx.nic().batch_active());
        win.fence();
        EXPECT_GT(ctx.nic().doorbells_rung(), db_after_unlock);

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
  // Batched completion spins route through the domain progress hook
  // (Fabric::yield_check): a survivor flushing batched puts at a dead rank
  // observes typed peer_dead instead of hanging the fleet.
  fabric::FabricOptions opts;
  opts.domain = internode(2, Injection::model);
  opts.domain.nic.auto_batch = true;
  opts.domain.fault.kill_rank = 1;
  // Late enough that both ranks finish the lock_all protocol (~10 ops) before
  // the death; rank 1 then dies inside its put/flush loop.
  opts.domain.fault.kill_at_op = 30;
  opts.errors_return = true;
  fabric::run_ranks(
      2,
      [&](RankCtx& ctx) {
        WinConfig wcfg;
        wcfg.err_mode = core::ErrMode::errors_return;
        Win win = Win::allocate(ctx, 256, wcfg);
        win.lock_all();
        std::uint64_t v = 1;
        if (ctx.rank() == 1) {
          for (int i = 0; i < 100; ++i) {
            win.put(&v, 8, 0, 0);
            win.flush(0);
          }
          FAIL() << "rank 1 must have been killed";
        }
        while (win.peer_alive(1)) ctx.yield_check();
        OpStatus st = OpStatus::ok;
        for (int i = 0; i < 8 && st == OpStatus::ok; ++i) {
          win.put(&v, 8, 1, 0);  // auto-batched
          st = win.flush_checked(1);
        }
        EXPECT_EQ(st, OpStatus::peer_dead);
      },
      opts);
}

// --- channel striping ------------------------------------------------------------

TEST(Batch, StripedModelLatencyDecreasesWithChannels) {
  NetworkModel m;
  const std::size_t big = std::size_t{1} << 20;
  const double t1 = m.put_striped_latency_ns(big, 1);
  const double t2 = m.put_striped_latency_ns(big, 2);
  const double t4 = m.put_striped_latency_ns(big, 4);
  EXPECT_GT(t1, t2);
  EXPECT_GT(t2, t4);
  EXPECT_DOUBLE_EQ(t1, m.put_latency_ns(big));  // 1 channel == legacy model
  // FMA-sized transfers never stripe (ordering).
  EXPECT_DOUBLE_EQ(m.put_striped_latency_ns(512, 4), m.put_latency_ns(512));
}

TEST(Batch, StripingReducesModeledWallTime) {
  // The 1 MiB put's modeled latency, read from its issue event's dur_ns
  // as Nic.ModeledLatencyMatchesCostModel reads it. Its wall time would
  // also carry the host copy of the payload, which does not shrink with
  // channels, and whatever else loads the host. Built without the flight
  // recorder (FOMPI_TRACE=OFF), the test checks the stripe counters only.
  trace::TraceSession::Config tcfg;
  tcfg.postmortem_path.clear();
  trace::TraceSession session(1, tcfg);
  trace::Ring& ring = session.ring(0);
  trace::bind_thread(&ring);
  const std::size_t big = std::size_t{1} << 20;
  auto modeled_put = [&](int channels) {
    NicConfig nc;
    nc.channels = channels;
    Domain dom(internode(2, Injection::model, nc));
    Nic& nic = dom.nic(0);
    AlignedBuffer mem(2 * big);
    const RegionDesc d = dom.registry().register_region(1, mem.data(), 2 * big);
    std::vector<std::byte> payload(big);
    const OpCounters before = op_counters();
    const std::size_t from = ring.size();
    nic.put(1, d, 0, payload.data(), big);
    const std::uint64_t stripes = op_counters().since(before).get(
        Op::channel_stripe);
    EXPECT_EQ(stripes, channels > 1 ? 1u : 0u);
    trace::flush_thread();
    for (std::size_t i = from; i < ring.size(); ++i) {
      if (ring[i].cls == trace::EvClass::put &&
          ring[i].phase == trace::EvPhase::issue) {
        return static_cast<double>(ring[i].dur_ns);
      }
    }
    return 0.0;
  };
  const double t1 = modeled_put(1);
  const double t4 = modeled_put(4);
  trace::bind_thread(nullptr);
  if (!trace::kEnabled) return;
  // Modeled: ~153 us at 1 channel vs ~40 us at 4.
  EXPECT_GT(t4, 0.0) << "no issue event for the 4-channel put";
  EXPECT_LT(t4, 0.6 * t1);
}

// --- idle-config invariants ------------------------------------------------------

TEST(Batch, IdleThroughputConfigLeavesSemanticsUnchanged) {
  NicConfig nc;
  nc.channels = 4;
  nc.auto_batch = false;  // throughput machinery armed but never engaged
  Domain dom(internode(2, Injection::none, nc));
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
