// Fault-injection, retry and graceful-degradation coverage: the seeded
// deterministic FaultPlan, the NIC's bounded retransmission with typed
// OpStatus retirement, the window error-handler modes, rank kill/hang
// confinement, dead-lock-holder revocation, and seeded chaos runs of the
// paper's application workloads (hashtable, DSDE).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <vector>

#include "apps/dsde.hpp"
#include "apps/hashtable.hpp"
#include "common/buffer.hpp"
#include "common/instr.hpp"
#include "core/mcs_lock.hpp"
#include "core/window.hpp"
#include "fabric/fabric.hpp"
#include "fabric/progress/progress.hpp"
#include "rdma/network_model.hpp"
#include "rdma/nic.hpp"

using namespace fompi;
using namespace fompi::rdma;
using core::LockType;
using core::Win;
using core::WinConfig;
using fabric::RankCtx;

namespace {

DomainConfig faulty_config(int nranks, std::uint64_t seed, int transients,
                           std::uint64_t horizon, int max_repeats,
                           int budget) {
  DomainConfig cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 1;  // inter-node ("DMAPP") path
  cfg.fault.seed = seed;
  cfg.fault.transient_faults_per_rank = transients;
  cfg.fault.horizon_ops = horizon;
  cfg.fault.max_repeats = max_repeats;
  cfg.fault.retry_budget = budget;
  return cfg;
}

/// Per-rank fault counters harvested from inside a run_ranks body (the
/// counters are thread-local, so each rank snapshots its own).
struct FaultCounters {
  std::uint64_t injected = 0;
  std::uint64_t retried = 0;
  std::uint64_t failed = 0;

  friend bool operator==(const FaultCounters&, const FaultCounters&) = default;
};

FaultCounters harvest(const OpCounters& before) {
  const OpCounters d = op_counters().since(before);
  return {d.get(Op::fault_injected), d.get(Op::op_retried),
          d.get(Op::op_failed)};
}

}  // namespace

// --- schedule determinism ----------------------------------------------------

TEST(FaultPlan, ScheduleIsDeterministicAndSeedSensitive) {
  const DomainConfig cfg = faulty_config(3, 7, 5, 256, 3, 4);
  Domain a(cfg);
  Domain b(cfg);
  for (int r = 0; r < 3; ++r) {
    const auto& sa = a.nic(r).fault_schedule();
    const auto& sb = b.nic(r).fault_schedule();
    ASSERT_EQ(sa.size(), sb.size());
    ASSERT_EQ(sa.size(), 5u);
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].at_op, sb[i].at_op);
      EXPECT_EQ(sa[i].kind, sb[i].kind);
      EXPECT_EQ(sa[i].repeats, sb[i].repeats);
      EXPECT_LT(sa[i].at_op, 256u);
      EXPECT_GE(sa[i].repeats, 1);
      EXPECT_LE(sa[i].repeats, 3);
    }
    // Sorted by op index (the issue path consumes it in order).
    for (std::size_t i = 1; i < sa.size(); ++i) {
      EXPECT_LE(sa[i - 1].at_op, sa[i].at_op);
    }
  }
  // A different seed yields a different schedule, and ranks differ from
  // each other (rank-salted streams).
  DomainConfig other = cfg;
  other.fault.seed = 8;
  Domain c(other);
  bool any_diff = false;
  for (std::size_t i = 0; i < 5; ++i) {
    if (a.nic(0).fault_schedule()[i].at_op !=
        c.nic(0).fault_schedule()[i].at_op) {
      any_diff = true;
    }
    if (a.nic(0).fault_schedule()[i].at_op !=
        a.nic(1).fault_schedule()[i].at_op) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultPlan, DisabledPlanSchedulesNothing) {
  DomainConfig cfg;
  cfg.nranks = 2;
  Domain dom(cfg);
  EXPECT_TRUE(dom.nic(0).fault_schedule().empty());
  EXPECT_FALSE(cfg.fault.enabled());
}

// --- bounded retransmission --------------------------------------------------

TEST(FaultRetry, SurvivablePlanRetriesAndDataIsCorrect) {
  // Every site's repeats <= retry_budget: all ops must survive.
  const DomainConfig cfg = faulty_config(2, 11, 4, 32, /*max_repeats=*/3,
                                         /*budget=*/4);
  Domain dom(cfg);
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(1024);
  std::memset(mem.data(), 0, 1024);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 1024);

  const OpCounters before = op_counters();
  for (std::uint64_t i = 0; i < 64; ++i) {
    nic.put(1, d, i * 8, &i, 8);
  }
  const FaultCounters fc = harvest(before);

  // The plan's exact arithmetic: per site, injections = min(repeats, b+1),
  // retries = min(repeats, b), failed iff repeats > b. All sites fired
  // (64 ops >= horizon 32).
  std::uint64_t want_inj = 0, want_ret = 0;
  for (const auto& site : nic.fault_schedule()) {
    if (site.kind == FaultKind::latency_spike) {
      want_inj += 1;
      continue;
    }
    want_inj += static_cast<std::uint64_t>(
        std::min(site.repeats, cfg.fault.retry_budget + 1));
    want_ret += static_cast<std::uint64_t>(
        std::min(site.repeats, cfg.fault.retry_budget));
  }
  EXPECT_EQ(fc.injected, want_inj);
  EXPECT_EQ(fc.retried, want_ret);
  EXPECT_EQ(fc.failed, 0u);
  for (std::uint64_t i = 0; i < 64; ++i) {
    std::uint64_t got = 0;
    std::memcpy(&got, mem.data() + i * 8, 8);
    EXPECT_EQ(got, i) << "put " << i << " lost despite surviving the plan";
  }
}

TEST(FaultRetry, ExhaustedBudgetRetiresTypedStatus) {
  // repeats drawn from [1, 8] with budget 1: some sites must exceed it.
  const DomainConfig cfg = faulty_config(2, 13, 6, 64, /*max_repeats=*/8,
                                         /*budget=*/1);
  Domain dom(cfg);
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(1024);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 1024);

  int transient_over_budget = 0;
  for (const auto& site : nic.fault_schedule()) {
    if (site.kind != FaultKind::latency_spike &&
        site.repeats > cfg.fault.retry_budget) {
      ++transient_over_budget;
    }
  }
  ASSERT_GT(transient_over_budget, 0) << "seed produced no exhausting site";

  std::uint64_t v = 1;
  int failed = 0;
  for (int i = 0; i < 128; ++i) {
    const Handle h = nic.put_nb(1, d, 0, &v, 8);
    const OpStatus st = nic.wait_status(h);
    if (st != OpStatus::ok) {
      ++failed;
      EXPECT_TRUE(st == OpStatus::timeout || st == OpStatus::cq_error)
          << "unexpected status " << to_string(st);
    }
  }
  // Sites can shadow each other when a permanent failure consumes several
  // schedule entries at one index, so failures are bounded by — not always
  // equal to — the over-budget site count.
  EXPECT_GT(failed, 0);
  EXPECT_LE(failed, transient_over_budget);
  EXPECT_EQ(nic.explicit_outstanding(), 0u) << "failed slots leaked";
}

TEST(FaultRetry, WaitTwiceOnFailedHandleReturnsRetired) {
  // Satellite (a): waiting twice on a failed handle must yield a typed
  // status both times — first the failure, then `retired` via the ABA tag —
  // never a crash or a hang.
  const DomainConfig cfg = faulty_config(2, 13, 6, 8, /*max_repeats=*/8,
                                         /*budget=*/0);
  Domain dom(cfg);
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);

  std::uint64_t v = 1;
  Handle failed = kDoneHandle;
  for (int i = 0; i < 16 && failed == kDoneHandle; ++i) {
    const Handle h = nic.put_nb(1, d, 0, &v, 8);
    OpStatus st = OpStatus::ok;
    EXPECT_TRUE(nic.test_status(h, &st));
    if (st == OpStatus::timeout || st == OpStatus::cq_error) failed = h;
  }
  ASSERT_NE(failed, kDoneHandle) << "budget 0 must fail the first fault";

  // First wait on the (already retired) handle: the slot is gone, and the
  // ABA tag turns the stale handle into `retired` instead of aliasing a
  // recycled slot.
  EXPECT_EQ(nic.wait_status(failed), OpStatus::retired);
  EXPECT_EQ(nic.wait_status(failed), OpStatus::retired);
  OpStatus st = OpStatus::ok;
  EXPECT_TRUE(nic.test_status(failed, &st));
  EXPECT_EQ(st, OpStatus::retired);
}

TEST(FaultRetry, LegacyWaitThrowsTypedErrorOnFailure) {
  const DomainConfig cfg = faulty_config(2, 13, 6, 8, /*max_repeats=*/8,
                                         /*budget=*/0);
  Domain dom(cfg);
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);

  std::uint64_t v = 1;
  bool threw = false;
  for (int i = 0; i < 16 && !threw; ++i) {
    const Handle h = nic.put_nb(1, d, 0, &v, 8);
    try {
      nic.wait(h);
    } catch (const Error& e) {
      threw = true;
      EXPECT_TRUE(e.err_class() == ErrClass::timeout ||
                  e.err_class() == ErrClass::cq);
    }
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(nic.explicit_outstanding(), 0u);
}

TEST(FaultRetry, GsyncStatusAggregatesImplicitFailures) {
  const DomainConfig cfg = faulty_config(2, 13, 6, 16, /*max_repeats=*/8,
                                         /*budget=*/0);
  Domain dom(cfg);
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(256);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 256);

  std::uint64_t v = 1;
  for (int i = 0; i < 32; ++i) nic.put_nbi(1, d, 0, &v, 8);
  const OpStatus st = nic.gsync_status();
  EXPECT_TRUE(st == OpStatus::timeout || st == OpStatus::cq_error)
      << "status " << to_string(st);
  // The failure was consumed: the next epoch starts clean.
  nic.put_nbi(1, d, 0, &v, 8);
  EXPECT_EQ(nic.gsync_status(), OpStatus::ok);
}

// --- window error-handler modes ----------------------------------------------

TEST(WinErrMode, ErrorsReturnRecordsAndFatalThrowsOnDeadPeer) {
  // One run, two windows with opposite error-handler modes. A kill plan
  // (not a transient one) keeps the failure deterministic: once rank 1 is
  // dead, every write toward it retires peer_dead.
  fabric::FabricOptions opts;
  opts.domain.nranks = 2;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = 1;
  opts.domain.fault.kill_at_op = 40;
  opts.errors_return = true;
  fabric::run_ranks(
      2,
      [](RankCtx& ctx) {
        WinConfig ret_cfg;
        ret_cfg.err_mode = core::ErrMode::errors_return;
        Win ret_win = Win::allocate(ctx, 256, ret_cfg);
        Win fatal_win = Win::allocate(ctx, 256);  // default errors_are_fatal
        ret_win.lock_all();
        fatal_win.lock_all();
        std::uint64_t v = 1;
        if (ctx.rank() == 1) {
          for (int i = 0; i < 1000; ++i) {
            ret_win.put(&v, 8, 0, 0);
            ret_win.flush(0);
          }
          FAIL() << "rank 1 must have been killed";
        }
        while (ret_win.peer_alive(1)) ctx.yield_check();

        // errors_return: the plain calls record instead of throwing.
        ret_win.put(&v, 8, 1, 0);
        ret_win.flush(1);
        EXPECT_EQ(ret_win.last_error(), OpStatus::peer_dead);
        ret_win.clear_last_error();
        EXPECT_EQ(ret_win.last_error(), OpStatus::ok);
        // The checked variants return the status under any mode.
        ret_win.put(&v, 8, 1, 0);
        EXPECT_EQ(ret_win.flush_checked(1), OpStatus::peer_dead);
        EXPECT_EQ(ret_win.flush_all_checked(), OpStatus::ok)
            << "failure already consumed";

        // errors_are_fatal: the same situation raises a typed Error.
        fatal_win.put(&v, 8, 1, 0);
        try {
          fatal_win.flush(1);
          ADD_FAILURE() << "errors_are_fatal flush must throw";
        } catch (const Error& e) {
          EXPECT_EQ(e.err_class(), ErrClass::peer_dead);
        }
        // No unlock_all()/free(): collective with a dead rank.
      },
      opts);
}

TEST(WinErrMode, RequestOpsTowardADeadRankRetireThroughOneHandle) {
  // The KV's request-op waits (KvStore::wait_req, the recovery drain) read
  // a failure only from handles. Under errors_return, every request op
  // toward a dead rank on an allocated window still adds exactly one
  // handle and records nothing for last_error(): writes and mutating AMOs
  // retire peer_dead on it, reads of the frozen image retire ok.
  fabric::FabricOptions opts;
  opts.domain.nranks = 2;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = 1;
  opts.domain.fault.kill_at_op = 40;
  opts.errors_return = true;
  fabric::run_ranks(
      2,
      [](RankCtx& ctx) {
        WinConfig wcfg;
        wcfg.err_mode = core::ErrMode::errors_return;
        Win win = Win::allocate(ctx, 256, wcfg);
        win.lock_all();
        alignas(8) std::uint64_t v = 1;
        if (ctx.rank() == 1) {
          for (int i = 0; i < 1000; ++i) {
            win.put(&v, 8, 0, 0);
            win.flush(0);
          }
          FAIL() << "rank 1 must have been killed";
        }
        while (win.peer_alive(1)) ctx.yield_check();

        alignas(8) std::uint64_t cmp = 0, got = 0;
        auto retire = [](core::RmaRequest req) {
          EXPECT_EQ(req.handles().size(), 1u);
          OpStatus st = OpStatus::retired;
          for (const Handle h : req.handles()) st = req.nic()->wait_status(h);
          req.dismiss();
          return st;
        };
        EXPECT_EQ(retire(win.rput(&v, 8, 1, 0)), OpStatus::peer_dead);
        EXPECT_EQ(retire(win.rget(&got, 8, 1, 0)), OpStatus::ok);
        for (const RedOp op : {RedOp::sum, RedOp::bor}) {
          EXPECT_EQ(retire(win.rfetch_and_op(&v, &got, Elem::u64, op, 1, 8)),
                    OpStatus::peer_dead);
        }
        EXPECT_EQ(retire(win.rfetch_and_op(nullptr, &got, Elem::u64,
                                           RedOp::no_op, 1, 8)),
                  OpStatus::ok);
        EXPECT_EQ(
            retire(win.rcompare_and_swap(&v, &cmp, &got, Elem::u64, 1, 8)),
            OpStatus::peer_dead);
        for (const RedOp op : {RedOp::sum, RedOp::replace}) {
          EXPECT_EQ(retire(win.raccumulate(&v, 1, Elem::u64, op, 1, 8)),
                    OpStatus::peer_dead);
        }
        EXPECT_EQ(win.last_error(), OpStatus::ok);
        // No unlock_all()/free(): collective with a dead rank.
      },
      opts);
}

// --- rank kill / hang confinement ---------------------------------------------

TEST(FaultKill, KilledRankConfinedUnderErrorsReturn) {
  fabric::FabricOptions opts;
  opts.domain.nranks = 4;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = 1;
  opts.domain.fault.kill_at_op = 30;
  opts.errors_return = true;
  std::atomic<int> survivors{0};
  fabric::run_ranks(
      4,
      [&](RankCtx& ctx) {
        WinConfig wcfg;
        wcfg.err_mode = core::ErrMode::errors_return;
        Win win = Win::allocate(ctx, 256, wcfg);
        win.lock_all();
        std::uint64_t v = static_cast<std::uint64_t>(ctx.rank());
        if (ctx.rank() == 1) {
          // Dies mid-loop at its 30th issued op; RankKilledError unwinds
          // this thread quietly (errors_return at fleet scope).
          for (int i = 0; i < 1000; ++i) {
            win.put(&v, 8, 0, 0);
            win.flush(0);
          }
          FAIL() << "rank 1 must have been killed";
        }
        // Survivors: watch the liveness table, then keep operating on the
        // live part of the fleet and observe typed peer_dead on the dead
        // target. No collectives past this point (rank 1 is gone).
        while (win.peer_alive(1)) ctx.yield_check();
        int live_peer = (ctx.rank() + 1) % 4;
        if (live_peer == 1) live_peer = 2;
        std::uint64_t ok_val = 7;
        win.put(&ok_val, 8, live_peer, 0);
        EXPECT_EQ(win.flush_checked(live_peer), OpStatus::ok);
        win.put(&ok_val, 8, 1, 0);  // dead target
        EXPECT_EQ(win.flush_checked(1), OpStatus::peer_dead);
        survivors.fetch_add(1);
      },
      opts);
  EXPECT_EQ(survivors.load(), 3);
}

TEST(FaultKill, KillsVectorFoldsEarliestSitePerRank) {
  // Pure plan arithmetic: kill_at() folds the legacy kill_rank pair and
  // the kills list to each rank's earliest scheduled death.
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.kills = {{1, 30}, {2, 50}, {1, 80}};
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.kill_at(1), 30u);
  EXPECT_EQ(plan.kill_at(2), 50u);
  EXPECT_EQ(plan.kill_at(0), ~std::uint64_t{0});
  plan.kill_rank = 2;
  plan.kill_at_op = 10;
  EXPECT_EQ(plan.kill_at(2), 10u) << "earliest site must win";
}

TEST(FaultKill, KillsVectorConfinesStaggeredDoubleDeath) {
  // Two scheduled deaths at different op counts: each rank dies at its own
  // site, survivors observe both typed, and the lowest-alive election
  // view shifts monotonically as the deaths land.
  fabric::FabricOptions opts;
  opts.domain.nranks = 4;
  opts.domain.ranks_per_node = 1;
  // Sites sit well past the collective window setup (rank 0 roots the
  // allocation exchange, so its op budget runs ahead of the others).
  opts.domain.fault.kills = {{0, 400}, {2, 460}};
  opts.errors_return = true;
  std::atomic<int> survivors{0};
  fabric::run_ranks(
      4,
      [&](RankCtx& ctx) {
        WinConfig wcfg;
        wcfg.err_mode = core::ErrMode::errors_return;
        Win win = Win::allocate(ctx, 256, wcfg);
        win.lock_all();
        EXPECT_EQ(ctx.fabric().lowest_alive(), 0);
        ctx.barrier();  // everyone holds the window before anyone can die
        std::uint64_t v = static_cast<std::uint64_t>(ctx.rank());
        if (ctx.rank() == 0 || ctx.rank() == 2) {
          const int target = ctx.rank() == 0 ? 1 : 3;
          for (int i = 0; i < 1000; ++i) {
            win.put(&v, 8, target, 0);
            win.flush(target);
          }
          FAIL() << "rank " << ctx.rank() << " must have been killed";
        }
        while (win.peer_alive(0) || win.peer_alive(2)) ctx.yield_check();
        EXPECT_EQ(ctx.fabric().lowest_alive(), 1)
            << "election view must track the fail-stop liveness table";
        // Both dead targets answer typed; the surviving pair keeps serving.
        std::uint64_t ok_val = 7;
        for (const int dead : {0, 2}) {
          win.put(&ok_val, 8, dead, 0);
          EXPECT_EQ(win.flush_checked(dead), OpStatus::peer_dead);
        }
        const int live_peer = ctx.rank() == 1 ? 3 : 1;
        win.put(&ok_val, 8, live_peer, 0);
        EXPECT_EQ(win.flush_checked(live_peer), OpStatus::ok);
        survivors.fetch_add(1);
      },
      opts);
  EXPECT_EQ(survivors.load(), 2);
}

TEST(FaultKill, KilledRankAbortsFleetUnderErrorsAreFatal) {
  fabric::FabricOptions opts;
  opts.domain.nranks = 2;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = 1;
  opts.domain.fault.kill_at_op = 5;
  // errors_return stays false: the death must abort everyone.
  try {
    fabric::run_ranks(
        2,
        [](RankCtx& ctx) {
          Win win = Win::allocate(ctx, 256);
          win.lock_all();
          std::uint64_t v = 1;
          if (ctx.rank() == 1) {
            for (int i = 0; i < 1000; ++i) {
              win.put(&v, 8, 0, 0);
              win.flush(0);
            }
          }
          ctx.barrier();  // rank 0 parks here until the abort arrives
        },
        opts);
    FAIL() << "fleet must abort";
  } catch (const Error& e) {
    EXPECT_EQ(e.err_class(), ErrClass::peer_dead);
  }
}

TEST(FaultKill, HangWatchdogUnwindsSilentHang) {
  fabric::FabricOptions opts;
  opts.domain.nranks = 2;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = 1;
  opts.domain.fault.kill_at_op = 5;
  opts.domain.fault.hang_instead_of_kill = true;
  opts.hang_timeout_ns = 50'000'000;  // 50 ms
  try {
    fabric::run_ranks(
        2,
        [](RankCtx& ctx) {
          Win win = Win::allocate(ctx, 256);
          win.lock_all();
          std::uint64_t v = 1;
          if (ctx.rank() == 1) {
            for (int i = 0; i < 1000; ++i) {
              win.put(&v, 8, 0, 0);
              win.flush(0);
            }
          }
          ctx.barrier();  // never satisfied: rank 1 is silently parked
        },
        opts);
    FAIL() << "watchdog must abort the hung fleet";
  } catch (const Error& e) {
    EXPECT_EQ(e.err_class(), ErrClass::timeout);
  }
}

// --- dead-lock-holder recovery -------------------------------------------------

TEST(FaultRecovery, KilledExclusiveLockHolderIsRevoked) {
  fabric::FabricOptions opts;
  opts.domain.nranks = 3;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = 1;
  // Window setup ends at ~op 16 and the exclusive lock (4 protocol AMOs +
  // the owner-word swap) at op 20; op 40 is safely inside the put loop, so
  // the rank dies holding a fully-recorded lock.
  opts.domain.fault.kill_at_op = 40;
  opts.errors_return = true;
  std::atomic<bool> recovered{false};
  fabric::run_ranks(
      3,
      [&](RankCtx& ctx) {
        WinConfig wcfg;
        wcfg.err_mode = core::ErrMode::errors_return;
        Win win = Win::allocate(ctx, 256, wcfg);
        if (ctx.rank() == 1) {
          // Take the exclusive lock on rank 2, then die holding it.
          win.lock(LockType::exclusive, 2);
          std::uint64_t v = 1;
          for (int i = 0; i < 1000; ++i) {
            win.put(&v, 8, 2, 0);
            win.flush(2);
          }
          FAIL() << "rank 1 must have been killed";
        }
        if (ctx.rank() == 0) {
          // Wait for the death, then acquire the very lock the dead rank
          // holds: the spinner must revoke it via the owner word instead of
          // spinning forever.
          while (win.peer_alive(1)) ctx.yield_check();
          EXPECT_EQ(win.lock_checked(LockType::exclusive, 2), OpStatus::ok);
          std::uint64_t v = 42;
          win.put(&v, 8, 2, 0);
          EXPECT_EQ(win.flush_checked(2), OpStatus::ok);
          EXPECT_EQ(win.unlock_checked(2), OpStatus::ok);
          recovered.store(true);
          int done = 1;
          ctx.send(2, /*tag=*/9, &done, sizeof done);
        }
        if (ctx.rank() == 2) {
          int done = 0;
          ctx.recv(0, /*tag=*/9, &done, sizeof done);
          EXPECT_EQ(done, 1);
        }
        // No win.free(): it is collective and rank 1 is dead.
      },
      opts);
  EXPECT_TRUE(recovered.load());
}

TEST(FaultRecovery, KilledMcsHolderLockIsStolen) {
  fabric::FabricOptions opts;
  opts.domain.nranks = 2;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = 1;
  opts.domain.fault.kill_at_op = 25;  // after acquire()'s tail SWAP
  opts.errors_return = true;
  std::atomic<bool> stolen{false};
  fabric::run_ranks(
      2,
      [&](RankCtx& ctx) {
        WinConfig wcfg;
        wcfg.err_mode = core::ErrMode::errors_return;
        Win win = Win::allocate(ctx, 64, wcfg);
        win.lock_all();
        core::McsLock lock(win, /*master=*/0);
        if (ctx.rank() == 1) {
          ctx.barrier();
          lock.acquire();
          ctx.barrier();  // rank 0 won't contend before we hold it
          std::uint64_t v = 1;
          for (int i = 0; i < 1000; ++i) {
            win.put(&v, 8, 0, 32);
            win.flush(0);
          }
          FAIL() << "rank 1 must have been killed";
        }
        ctx.barrier();
        ctx.barrier();
        while (win.peer_alive(1)) ctx.yield_check();
        // The dead holder's frozen flag word reads 0 ("held the lock"), so
        // the queued waiter steals it instead of waiting forever.
        lock.acquire();
        stolen.store(true);
        lock.release();
        // No unlock_all()/free(): collective with a dead rank.
      },
      opts);
  EXPECT_TRUE(stolen.load());
}

// --- seeded chaos: application workloads ---------------------------------------

namespace {

/// One hashtable round under a survivable fault plan; returns the summed
/// fault counters over all ranks. Workload correctness is asserted inside.
FaultCounters chaos_hashtable_round(std::uint64_t seed) {
  constexpr int kRanks = 4;
  constexpr int kKeysPerRank = 48;
  fabric::FabricOptions opts;
  opts.domain = faulty_config(kRanks, seed, /*transients=*/4,
                              /*horizon=*/64, /*max_repeats=*/3,
                              /*budget=*/4);
  std::array<FaultCounters, kRanks> per_rank{};
  fabric::run_ranks(
      kRanks,
      [&](RankCtx& ctx) {
        const OpCounters before = op_counters();
        apps::DistHashtable ht(ctx, apps::HtBackend::rma, /*table_slots=*/64,
                               /*heap_slots=*/256);
        std::vector<std::uint64_t> keys;
        for (int i = 0; i < kKeysPerRank; ++i) {
          keys.push_back(
              static_cast<std::uint64_t>(ctx.rank()) * 1000 + 1 + i);
        }
        ht.batch_insert(ctx, keys);
        EXPECT_EQ(ht.global_count(ctx),
                  static_cast<std::uint64_t>(kRanks * kKeysPerRank))
            << "inserts lost under the survivable fault plan";
        for (std::uint64_t k : keys) EXPECT_TRUE(ht.contains(k));
        ht.destroy(ctx);
        per_rank[static_cast<std::size_t>(ctx.rank())] = harvest(before);
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

/// One DSDE round (RMA protocol) under a survivable fault plan.
FaultCounters chaos_dsde_round(std::uint64_t seed) {
  constexpr int kRanks = 4;
  fabric::FabricOptions opts;
  opts.domain = faulty_config(kRanks, seed, /*transients=*/4,
                              /*horizon=*/32, /*max_repeats=*/3,
                              /*budget=*/4);
  std::array<FaultCounters, kRanks> per_rank{};
  fabric::run_ranks(
      kRanks,
      [&](RankCtx& ctx) {
        const OpCounters before = op_counters();
        for (int round = 0; round < 3; ++round) {
          const auto sends = apps::dsde_random_workload(
              ctx.rank(), kRanks, /*k=*/2, /*seed=*/seed + round);
          const auto recvd =
              apps::dsde_exchange(ctx, apps::DsdeProto::rma, sends);
          const auto want =
              apps::dsde_exchange(ctx, apps::DsdeProto::alltoall, sends);
          EXPECT_EQ(recvd.size(), want.size())
              << "DSDE dropped messages under the survivable plan";
        }
        per_rank[static_cast<std::size_t>(ctx.rank())] = harvest(before);
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

TEST(Chaos, HashtableDeterministicAcrossSeeds) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const FaultCounters a = chaos_hashtable_round(seed);
    const FaultCounters b = chaos_hashtable_round(seed);
    EXPECT_EQ(a, b) << "seed " << seed
                    << ": fault counters must be a pure function of the seed";
    EXPECT_GT(a.injected, 0u) << "seed " << seed << " injected nothing";
    EXPECT_EQ(a.failed, 0u) << "survivable plan must not fail ops";
  }
}

TEST(Chaos, DsdeDeterministicAcrossSeeds) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const FaultCounters a = chaos_dsde_round(seed);
    const FaultCounters b = chaos_dsde_round(seed);
    EXPECT_EQ(a, b) << "seed " << seed
                    << ": fault counters must be a pure function of the seed";
    EXPECT_GT(a.injected, 0u) << "seed " << seed << " injected nothing";
    EXPECT_EQ(a.failed, 0u) << "survivable plan must not fail ops";
  }
}

TEST(Chaos, HashtableUnderDeferredDeliveryWithFaults) {
  // Satellite (c): the weakest legal delivery mode composed with transient
  // faults — the TSan CI pass runs this to hunt ordering races on the
  // retry/backoff paths.
  constexpr int kRanks = 4;
  fabric::FabricOptions opts;
  opts.domain = faulty_config(kRanks, 33, /*transients=*/4, /*horizon=*/64,
                              /*max_repeats=*/3, /*budget=*/4);
  opts.domain.delivery = Delivery::deferred;
  fabric::run_ranks(
      kRanks,
      [&](RankCtx& ctx) {
        apps::DistHashtable ht(ctx, apps::HtBackend::rma, /*table_slots=*/64,
                               /*heap_slots=*/256);
        std::vector<std::uint64_t> keys;
        for (int i = 0; i < 32; ++i) {
          keys.push_back(static_cast<std::uint64_t>(ctx.rank()) * 500 + 1 + i);
        }
        ht.batch_insert(ctx, keys);
        EXPECT_EQ(ht.global_count(ctx), static_cast<std::uint64_t>(kRanks) * 32);
        ht.destroy(ctx);
      },
      opts);
}

// --- dead peers inside collectives (PR 7) -------------------------------------

namespace {

/// Loops tree-path collectives until the seeded kill fires. The killed
/// rank unwinds with RankKilledError (swallowed by errors_return at fleet
/// scope). A survivor that waits directly on the dead rank detects the
/// death and raises a typed peer_dead Error; letting it escape the body
/// aborts the fleet, which rescues ranks blocked on live-but-aborted
/// writers (they retire with ErrClass::internal from yield_check). The
/// whole run must terminate with the typed peer_dead as the first error. A
/// survivor that never notices the death would spin forever; the hang
/// watchdog turns that into a typed timeout failure instead of a hung test.
template <class Body>
void collective_kill_run(int nranks, int kill_rank, std::uint64_t kill_at,
                         Body&& body) {
  fabric::FabricOptions opts;
  opts.domain.nranks = nranks;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = kill_rank;
  opts.domain.fault.kill_at_op = kill_at;
  opts.errors_return = true;
  opts.hang_timeout_ns = 5'000'000'000;  // 5 s
  std::atomic<int> typed_peer_dead{0};
  std::atomic<bool> completed{false};
  try {
    fabric::run_ranks(
        nranks,
        [&](RankCtx& ctx) {
          try {
            for (int round = 0; round < 1000; ++round) body(ctx, round);
            completed.store(true);
          } catch (const RankKilledError&) {
            throw;  // the killed rank's quiet unwind
          } catch (const Error& e) {
            if (e.err_class() == ErrClass::peer_dead) {
              typed_peer_dead.fetch_add(1);
            } else {
              EXPECT_EQ(e.err_class(), ErrClass::internal)
                  << "rank " << ctx.rank() << ": " << e.what();
            }
            throw;  // escape so the fleet aborts instead of hanging peers
          }
        },
        opts);
    FAIL() << "run_ranks must rethrow the collective abort";
  } catch (const Error& e) {
    EXPECT_EQ(e.err_class(), ErrClass::peer_dead) << e.what();
  }
  EXPECT_FALSE(completed.load())
      << "no rank may finish all rounds despite the kill plan";
  EXPECT_GE(typed_peer_dead.load(), 1)
      << "at least one survivor must observe the typed peer_dead status";
}

}  // namespace

TEST(CollectiveFault, DeadRootAbortsBcastWithTypedError) {
  collective_kill_run(4, /*kill_rank=*/0, /*kill_at=*/37,
                      [](RankCtx& ctx, int round) {
                        std::uint64_t v[64] = {};
                        if (ctx.rank() == 0) v[0] = 1 + round;
                        ctx.fabric().coll().bcast(ctx.rank(), 0, v, 64);
                      });
}

TEST(CollectiveFault, DeadInteriorRankOrphansItsSubtree) {
  // p = 8, kill rank 4: in the binomial fan-out from root 0, rank 4
  // forwards to 5, 6 — its subtree is orphaned and the parent side (rank
  // 0's flag wait in later rounds) also observes the death. Everyone
  // alive must retire with peer_dead, not hang.
  collective_kill_run(8, /*kill_rank=*/4, /*kill_at=*/53,
                      [](RankCtx& ctx, int round) {
                        std::uint64_t v[64] = {};
                        if (ctx.rank() == 0) v[0] = 1 + round;
                        ctx.fabric().coll().bcast(ctx.rank(), 0, v, 64);
                      });
}

TEST(CollectiveFault, DeadPeerAbortsIbarrierWithTypedError) {
  // p = 4, two puts per barrier: rank 2 dies at op 36, the round-0 put of
  // its barrier in round 18. Rank 2 writes round 0 of rank 3 and round 1 of
  // rank 0, and it is the partner of rank 1 (round 0) and rank 0 (round 1).
  // It dies only after both of those puts reached it, so no survivor's own
  // put can surface the death and no survivor can finish the barrier: only
  // the poll's dead-writer check turns the hang into a typed peer_dead.
  constexpr int kVictim = 2, kRound = 18;
  std::array<std::atomic<int>, 4> polls{};
  const auto polled_past = [&](const std::array<int, 4>& floor) {
    for (const int r : {0, 1, 3}) {
      if (polls[static_cast<std::size_t>(r)].load() <= floor[r]) return false;
    }
    return true;
  };
  collective_kill_run(
      4, kVictim, /*kill_at=*/2 * kRound, [&](RankCtx& ctx, int round) {
        auto& coll = ctx.fabric().coll();
        if (ctx.rank() == kVictim && round == kRound) {
          // Every survivor polled once (all round-0 puts are out), then
          // once more (rank 0 saw rank 3's flag and put its round-1 flag).
          std::array<int, 4> floor{};
          while (!polled_past(floor)) ctx.yield_check();
          for (const int r : {0, 1, 3}) {
            floor[r] = polls[static_cast<std::size_t>(r)].load();
          }
          while (!polled_past(floor)) ctx.yield_check();
        }
        coll.ibarrier_begin(ctx.rank());
        while (!coll.ibarrier_test(ctx.rank())) {
          if (round == kRound) {
            polls[static_cast<std::size_t>(ctx.rank())].fetch_add(1);
          }
          ctx.yield_check();
        }
      });
}

TEST(CollectiveFault, DeadPeerAbortsAlltoallvWithTypedError) {
  collective_kill_run(
      4, /*kill_rank=*/2, /*kill_at=*/61, [](RankCtx& ctx, int round) {
        const int p = ctx.nranks();
        std::vector<std::uint64_t> counts(static_cast<std::size_t>(p), 2);
        std::vector<std::uint64_t> sdispls(static_cast<std::size_t>(p));
        for (int j = 0; j < p; ++j) {
          sdispls[static_cast<std::size_t>(j)] =
              static_cast<std::uint64_t>(j) * 2;
        }
        std::vector<std::uint64_t> src(static_cast<std::size_t>(p) * 2,
                                       static_cast<std::uint64_t>(round));
        std::vector<std::uint64_t> dst, recvcounts, rdispls;
        ctx.fabric().coll().alltoallv(ctx.rank(), src.data(), counts.data(),
                                      sdispls.data(), dst, recvcounts,
                                      rdispls);
      });
}

// --- progress-engine chaos: peer death under a suspended fiber fleet ----------

namespace {

/// Loops request-based fetch-and-ops at rank 1, parking on each handle,
/// until one retires with a typed failure.
class ChaosAmoFiber final : public fabric::progress::Fiber {
 public:
  ChaosAmoFiber(Win& win, int idx) : win_(win), idx_(idx) {}
  OpStatus final_status = OpStatus::ok;
  int completed = 0;

 protected:
  void step(fabric::progress::Scheduler& s) override {
    static constexpr std::uint64_t kOne = 1;
    FOMPI_FIBER_BEGIN();
    for (;;) {
      // One handle per request op, even toward a dead rank
      // (WinErrMode.RequestOpsTowardADeadRankRetireThroughOneHandle).
      req_ = win_.rfetch_and_op(&kOne, &fetched_, Elem::u64, RedOp::sum, 1,
                                static_cast<std::size_t>(idx_ % 8) * 8);
      FOMPI_FIBER_AWAIT(s, req_.handles()[0]);
      req_.dismiss();
      final_status = wake_status();
      if (final_status != OpStatus::ok) break;
      ++completed;
    }
    FOMPI_FIBER_END();
  }

 private:
  Win& win_;
  int idx_;
  core::RmaRequest req_;
  alignas(8) std::uint64_t fetched_ = 0;
};

/// Parks on a notify tag that is never posted; only the typed death of
/// the awaited source, rank 1, can wake it. Its ready-poll settles through
/// Domain::poll, so the wait keeps the one dead-peer rule.
class ChaosNotifyFiber final : public fabric::progress::Fiber {
 public:
  ChaosNotifyFiber(const Domain& dom, fabric::progress::NotifyPlane& plane,
                   int me, std::uint64_t tag)
      : dom_(dom), plane_(plane), me_(me), tag_(tag) {}
  OpStatus final_status = OpStatus::ok;

 protected:
  bool poll_ready() override {
    final_status = dom_.poll([&] { return plane_.probe(me_, tag_, &rec_); },
                             [&] { return !dom_.alive(1); });
    return final_status != OpStatus::pending;
  }
  void step(fabric::progress::Scheduler& s) override {
    FOMPI_FIBER_BEGIN();
    FOMPI_FIBER_AWAIT_READY(s);
    FOMPI_FIBER_END();
  }

 private:
  const Domain& dom_;
  fabric::progress::NotifyPlane& plane_;
  int me_;
  std::uint64_t tag_;
  fabric::progress::NotifyRecord rec_;
};

}  // namespace

TEST(FaultChaos, SuspendedFiberFleetUnwindsTypedOnPeerDeath) {
  // >= 32 fibers suspended mid-pipeline when the peer dies: 16 parked on
  // in-flight AMO completions, 16 on notify tags that will never arrive.
  // All of them must resume with the typed peer_dead (no hang), run()
  // must return, and no completion slot may leak.
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    fabric::FabricOptions opts;
    opts.domain.nranks = 2;
    opts.domain.ranks_per_node = 1;
    opts.domain.inject = Injection::model;  // real in-flight windows
    opts.domain.fault.seed = seed;
    opts.domain.fault.kill_rank = 1;
    // Past window setup + notify_enable; varies the death point per seed.
    opts.domain.fault.kill_at_op = 120 + 7 * seed;
    opts.errors_return = true;
    std::atomic<int> typed{0};
    std::atomic<std::size_t> leaked{1};
    fabric::run_ranks(
        2,
        [&](RankCtx& ctx) {
          WinConfig wcfg;
          wcfg.err_mode = core::ErrMode::errors_return;
          Win win = Win::allocate(ctx, 4096, wcfg);
          win.lock_all();
          win.notify_enable(ctx, 64);
          if (ctx.rank() == 1) {
            alignas(8) std::uint64_t v = 1;
            (void)win.put_notify(&v, 8, 0, 0, /*tag=*/5);
            for (int i = 0; i < 100000; ++i) {
              win.put(&v, 8, 0, 0);
              win.flush(0);
            }
            FAIL() << "rank 1 must have been killed";
          }
          fabric::progress::Scheduler sched(ctx.nic());
          std::vector<ChaosAmoFiber*> amos;
          std::vector<ChaosNotifyFiber*> waits;
          for (int i = 0; i < 16; ++i) {
            amos.push_back(&sched.spawn<ChaosAmoFiber>(win, i));
          }
          for (int i = 0; i < 16; ++i) {
            waits.push_back(&sched.spawn<ChaosNotifyFiber>(
                ctx.fabric().domain(), *win.notify_plane(), ctx.rank(),
                1000u + static_cast<std::uint64_t>(i)));
          }
          sched.run();  // returning at all means nothing hung
          for (const auto* f : amos) {
            if (f->final_status == OpStatus::peer_dead) ++typed;
          }
          for (const auto* f : waits) {
            if (f->final_status == OpStatus::peer_dead) ++typed;
          }
          leaked = sched.nic().explicit_outstanding();
          // No unlock_all()/free(): collective with a dead rank.
        },
        opts);
    EXPECT_EQ(typed.load(), 32) << "seed " << seed;
    EXPECT_EQ(leaked.load(), 0u) << "seed " << seed;
  }
}
