// Progress engine coverage: the fiber scheduler (interleaving, handle
// awaits and the data they retire, spawn-during-run, modeled overlap,
// priority fibers and admission, ready waits that never livelock), the
// put-with-notification
// plane (tag matching, per-source ordering, overflow-to-retry, typed
// peer_dead), and the app pipelines that ride them (DSDE nbx, MILC
// notify-queue halos).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "apps/dsde.hpp"
#include "apps/milc.hpp"
#include "common/buffer.hpp"
#include "common/error.hpp"
#include "common/instr.hpp"
#include "common/timing.hpp"
#include "core/window.hpp"
#include "fabric/fabric.hpp"
#include "fabric/progress/progress.hpp"
#include "rdma/nic.hpp"

using namespace fompi;
using namespace fompi::rdma;
using core::Win;
using fabric::RankCtx;
namespace progress = fompi::fabric::progress;

namespace {

DomainConfig raw_domain(Injection inject) {
  DomainConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 1;  // inter-node ("DMAPP") path
  cfg.inject = inject;
  cfg.delivery = Delivery::immediate;
  return cfg;
}

/// Appends its letter to a shared log `n` times, yielding between appends.
class LogFiber final : public progress::Fiber {
 public:
  LogFiber(std::string& log, char letter, int n)
      : log_(log), letter_(letter), n_(n) {}

 protected:
  void step(progress::Scheduler& s) override {
    FOMPI_FIBER_BEGIN();
    for (i_ = 0; i_ < n_; ++i_) {
      log_.push_back(letter_);
      FOMPI_FIBER_YIELD(s);
    }
    FOMPI_FIBER_END();
  }

 private:
  std::string& log_;
  char letter_;
  int n_, i_ = 0;
};

/// Issues `ops` explicit-handle AMOs to rank 1, awaiting each completion.
class AmoPipeline final : public progress::Fiber {
 public:
  AmoPipeline(Nic& nic, const RegionDesc& d, int ops)
      : nic_(nic), d_(d), ops_(ops) {}
  OpStatus last_status = OpStatus::ok;

 protected:
  void step(progress::Scheduler& s) override {
    FOMPI_FIBER_BEGIN();
    for (i_ = 0; i_ < ops_; ++i_) {
      h_ = nic_.amo_nb(1, d_, (static_cast<std::size_t>(i_) % 8) * 8,
                       AmoOp::fetch_add, 1, 0, &fetched_);
      FOMPI_FIBER_AWAIT(s, h_);
      last_status = wake_status();
      if (last_status != OpStatus::ok) break;
    }
    FOMPI_FIBER_END();
  }

 private:
  Nic& nic_;
  const RegionDesc& d_;
  int ops_, i_ = 0;
  Handle h_ = kDoneHandle;
  alignas(8) std::uint64_t fetched_ = 0;
};

/// Spawns `children` LogFibers from inside a running fiber.
class SpawnerFiber final : public progress::Fiber {
 public:
  SpawnerFiber(std::string& log, int children) : log_(log), n_(children) {}

 protected:
  void step(progress::Scheduler& s) override {
    FOMPI_FIBER_BEGIN();
    for (i_ = 0; i_ < n_; ++i_) {
      s.spawn<LogFiber>(log_, static_cast<char>('a' + i_), 2);
      FOMPI_FIBER_YIELD(s);
    }
    FOMPI_FIBER_END();
  }

 private:
  std::string& log_;
  int n_, i_ = 0;
};

/// A priority fiber that parks once until `delay_ns` from its first step.
class PrioritySleeper final : public progress::Fiber {
 public:
  explicit PrioritySleeper(std::uint64_t delay_ns) : delay_(delay_ns) {}
  std::uint64_t deadline = 0;  ///< 0 until the first step parked it
  bool resumed = false;

 protected:
  void step(progress::Scheduler& s) override {
    FOMPI_FIBER_BEGIN();
    s.set_priority(*this, true);
    deadline = now_ns() + delay_;
    FOMPI_FIBER_AWAIT_UNTIL(s, deadline);
    resumed = true;
    FOMPI_FIBER_END();
  }

 private:
  std::uint64_t delay_;
};

/// Always runnable: `n` steps of ~1 us each, counting the steps that began
/// after `sleeper`'s deadline while it had not resumed yet.
class BusyFiber final : public progress::Fiber {
 public:
  BusyFiber(const PrioritySleeper& sleeper, int n) : sleeper_(sleeper), n_(n) {}
  int late = 0;

 protected:
  void step(progress::Scheduler& s) override {
    FOMPI_FIBER_BEGIN();
    for (i_ = 0; i_ < n_; ++i_) {
      if (sleeper_.deadline != 0 && !sleeper_.resumed &&
          now_ns() >= sleeper_.deadline) {
        ++late;
      }
      spin_for_ns(1'000);
      FOMPI_FIBER_YIELD(s);
    }
    FOMPI_FIBER_END();
  }

 private:
  const PrioritySleeper& sleeper_;
  int n_, i_ = 0;
};

/// Asks the admission query while `sleeper` is parked, then again once it
/// finished.
class AdmissionProbe final : public progress::Fiber {
 public:
  explicit AdmissionProbe(const PrioritySleeper& sleeper) : sleeper_(sleeper) {}
  bool short_cost = false, long_cost = true, after = false;

 protected:
  bool poll_ready() override { return sleeper_.done(); }
  void step(progress::Scheduler& s) override {
    FOMPI_FIBER_BEGIN();
    short_cost = s.admits(1'000'000);   // ends well before the deadline
    long_cost = s.admits(40'000'000);   // would run past it
    FOMPI_FIBER_AWAIT_READY(s);
    after = s.admits(40'000'000);
    FOMPI_FIBER_END();
  }

 private:
  const PrioritySleeper& sleeper_;
};

/// Parks on a deadline (as a priority fiber when asked), then clears `flag`.
class FlagClearer final : public progress::Fiber {
 public:
  FlagClearer(bool& flag, bool priority) : flag_(flag), priority_(priority) {}

 protected:
  void step(progress::Scheduler& s) override {
    FOMPI_FIBER_BEGIN();
    s.set_priority(*this, priority_);
    FOMPI_FIBER_BACKOFF(s, 200'000);
    flag_ = false;
    FOMPI_FIBER_END();
  }

 private:
  bool& flag_;
  bool priority_;
};

/// Parks through await_ready until `flag` is clear.
class FlagWaiter final : public progress::Fiber {
 public:
  explicit FlagWaiter(const bool& flag) : flag_(flag) {}

 protected:
  bool poll_ready() override { return !flag_; }
  void step(progress::Scheduler& s) override {
    FOMPI_FIBER_BEGIN();
    while (flag_) FOMPI_FIBER_AWAIT_READY(s);
    FOMPI_FIBER_END();
  }

 private:
  const bool& flag_;
};

}  // namespace

// --- scheduler basics --------------------------------------------------------

TEST(Scheduler, IdleRunReturnsImmediately) {
  Domain dom(raw_domain(Injection::none));
  progress::Scheduler sched(dom.nic(0));
  sched.run();  // no fibers adopted: must be a no-op
  EXPECT_EQ(sched.switches(), 0u);
  EXPECT_EQ(sched.live(), 0u);
}

TEST(Scheduler, FibersInterleaveRoundRobin) {
  Domain dom(raw_domain(Injection::none));
  progress::Scheduler sched(dom.nic(0));
  std::string log;
  sched.spawn<LogFiber>(log, 'a', 3);
  sched.spawn<LogFiber>(log, 'b', 3);
  sched.run();
  EXPECT_EQ(log, "ababab");
  EXPECT_GE(sched.switches(), 6u);
  EXPECT_EQ(sched.live(), 0u);
}

TEST(Scheduler, AlwaysRunnableFibersCountNoRetry) {
  // Op::retry counts failed polls, and always-runnable fibers fail none:
  // the abort check on every 64th switch is a yield step that neither
  // spins nor counts, and it still polls the progress hook.
  Domain dom(raw_domain(Injection::none));
  int hooks = 0;
  dom.set_progress_hook([](void* n) { ++*static_cast<int*>(n); }, &hooks);
  progress::Scheduler sched(dom.nic(0));
  std::string log;
  for (int i = 0; i < 8; ++i) {
    sched.spawn<LogFiber>(log, static_cast<char>('a' + i), 100);
  }
  const OpCounters before = op_counters();
  sched.run();
  EXPECT_GE(sched.switches(), 640u);
  EXPECT_EQ(op_counters().since(before).get(Op::retry), 0u);
  EXPECT_EQ(static_cast<std::size_t>(hooks), sched.switches() / 64);
}

TEST(Scheduler, SpawnDuringRunIsPickedUp) {
  Domain dom(raw_domain(Injection::none));
  progress::Scheduler sched(dom.nic(0));
  std::string log;
  sched.spawn<SpawnerFiber>(log, 3);
  sched.run();
  std::sort(log.begin(), log.end());
  EXPECT_EQ(log, "aabbcc");
}

TEST(Scheduler, AwaitWithoutInjectedTimeCompletesInline) {
  // Injection::none: every op is complete at issue, so awaits retire on
  // the spot — the pipeline still finishes and the counters tick.
  Domain dom(raw_domain(Injection::none));
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(1 << 12);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 1 << 12);
  const OpCounters before = op_counters();
  progress::Scheduler sched(nic);
  auto& f = sched.spawn<AmoPipeline>(nic, d, 64);
  sched.run();
  EXPECT_EQ(f.last_status, OpStatus::ok);
  EXPECT_TRUE(f.done());
  EXPECT_EQ(nic.explicit_outstanding(), 0u);
  const OpCounters delta = op_counters().since(before);
  EXPECT_EQ(delta.get(Op::fiber_spawn), 1u);
  EXPECT_GE(delta.get(Op::fiber_switch), 1u);
}

TEST(Scheduler, AwaitRetiresTheHandleItParkedOn) {
  // Under deferred delivery an AMO lands in the target word only when its
  // handle retires, so the words count the awaits that retired. Eight
  // fibers of 32 fetch-adds over eight words leave every word at 32 and no
  // handle live, whether the awaits find their ops complete at issue
  // (Injection::none) or park on the deadline heap (Injection::model).
  for (const Injection inject : {Injection::none, Injection::model}) {
    DomainConfig cfg = raw_domain(inject);
    cfg.delivery = Delivery::deferred;
    Domain dom(cfg);
    Nic& nic = dom.nic(0);
    AlignedBuffer mem(1 << 12);
    const RegionDesc d = dom.registry().register_region(1, mem.data(), 1 << 12);
    progress::Scheduler sched(nic);
    std::vector<const AmoPipeline*> fibers;
    for (int f = 0; f < 8; ++f) {
      fibers.push_back(&sched.spawn<AmoPipeline>(nic, d, 32));
    }
    sched.run();
    for (const AmoPipeline* f : fibers) {
      EXPECT_EQ(f->last_status, OpStatus::ok);
    }
    for (std::size_t w = 0; w < 8; ++w) {
      std::uint64_t word = 0;
      std::memcpy(&word, mem.data() + 8 * w, 8);
      EXPECT_EQ(word, 32u) << "word " << w << ", model "
                           << (inject == Injection::model);
    }
    EXPECT_EQ(nic.explicit_outstanding(), 0u);
  }
}

TEST(Scheduler, ModeledOverlapBeatsSerialIssue) {
  // 8 fibers of 32 AMOs vs 1 fiber of 256: same modeled work, but the
  // pipelines overlap up to 8 network latencies. A 100 us AMO latency
  // (vs the Gemini 2.4 us) makes modeled time dominate software issue
  // overhead even under sanitizer instrumentation, so the conservative
  // 1.67x bound holds in every build flavor.
  const int kTotal = 256;
  auto wall_us = [&](int fibers) {
    DomainConfig cfg = raw_domain(Injection::model);
    cfg.model.amo_base_ns = 100'000;
    Domain dom(cfg);
    Nic& nic = dom.nic(0);
    AlignedBuffer mem(1 << 12);
    const RegionDesc d = dom.registry().register_region(1, mem.data(), 1 << 12);
    progress::Scheduler sched(nic);
    for (int f = 0; f < fibers; ++f) {
      sched.spawn<AmoPipeline>(nic, d, kTotal / fibers);
    }
    Timer t;
    sched.run();
    return t.elapsed_us();
  };
  const double serial = wall_us(1);
  const double overlapped = wall_us(8);
  EXPECT_LT(overlapped, 0.6 * serial)
      << "serial " << serial << " us, 8-fiber " << overlapped << " us";
}

// --- priority fibers ---------------------------------------------------------

TEST(Scheduler, DuePriorityFiberResumesBeforeRunnableOrdinaryFibers) {
  // Three always-runnable fibers of ~1 us steps never leave the run loop
  // idle. A priority fiber parked for 50 us must still resume at the first
  // step boundary after its deadline: at most one ordinary step (the one
  // in progress when the deadline passed) may begin late.
  Domain dom(raw_domain(Injection::none));
  progress::Scheduler sched(dom.nic(0));
  auto& sleeper = sched.spawn<PrioritySleeper>(50'000);
  std::vector<BusyFiber*> busy;
  for (int i = 0; i < 3; ++i) busy.push_back(&sched.spawn<BusyFiber>(sleeper, 400));
  sched.run();
  EXPECT_TRUE(sleeper.resumed);
  int late = 0;
  for (const BusyFiber* b : busy) late += b->late;
  EXPECT_LE(late, 1) << "ordinary steps ran past a due priority fiber";
}

TEST(Scheduler, AdmissionEndsBeforeTheEarliestPriorityDeadline) {
  {
    // No priority fiber: everything is admitted, and the modeled issue
    // cost is zero without injected time.
    Domain dom(raw_domain(Injection::none));
    progress::Scheduler sched(dom.nic(0));
    EXPECT_TRUE(sched.admits(~std::uint64_t{0} / 2));
    EXPECT_EQ(sched.issue_cost_ns(5), 0u);
  }
  DomainConfig cfg = raw_domain(Injection::model);
  cfg.time_scale = 2;
  Domain dom(cfg);
  progress::Scheduler sched(dom.nic(0));
  // A round of five ops rings one doorbell: the injection overhead once
  // plus four chain links, scaled.
  EXPECT_EQ(sched.issue_cost_ns(5),
            static_cast<std::uint64_t>(
                (cfg.model.inter_overhead_ns + 4 * cfg.model.chain_ns) *
                2));
  auto& sleeper = sched.spawn<PrioritySleeper>(20'000'000);  // 20 ms
  auto& probe = sched.spawn<AdmissionProbe>(sleeper);
  sched.run();
  EXPECT_TRUE(probe.short_cost);
  EXPECT_FALSE(probe.long_cost) << "admitted work that runs past the "
                                   "parked priority deadline";
  EXPECT_TRUE(probe.after) << "no priority fiber left, yet not admitted";
}

TEST(Scheduler, ReadyWaitOnAFlagADeadlineFiberClearsNeverLivelocks) {
  // A gate that yield-spun kept the runnable queue non-empty, so the loop
  // never polled the deadline heap and the fiber that would open the gate
  // never woke. Parked through await_ready, the waiters leave the loop
  // idle; the run returns after the 200 us backoff with a handful of
  // switches. A livelock trips the watchdog instead of hanging the test.
  for (const bool priority : {false, true}) {
    Domain dom(raw_domain(Injection::model));
    std::uint64_t t0 = now_ns();
    dom.set_progress_hook(
        [](void* start) {
          FOMPI_REQUIRE(now_ns() - *static_cast<std::uint64_t*>(start) <
                            5'000'000'000ull,
                        ErrClass::timeout, "scheduler livelocked");
        },
        &t0);
    progress::Scheduler sched(dom.nic(0));
    bool flag = true;
    for (int i = 0; i < 4; ++i) sched.spawn<FlagWaiter>(flag);
    sched.spawn<FlagClearer>(flag, priority);
    sched.run();
    EXPECT_FALSE(flag);
    EXPECT_LE(sched.switches(), 20u) << "priority " << priority;
  }
}

// --- notify plane ------------------------------------------------------------

TEST(Notify, TagMatchingAndPerSourceOrdering) {
  fabric::FabricOptions opts;
  opts.domain.nranks = 3;
  opts.domain.ranks_per_node = 1;
  fabric::run_ranks(3, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 4096);
    win.lock_all();
    win.notify_enable(ctx, 64);
    if (ctx.rank() != 0) {
      // Each producer: three records under its own tag, payload slots
      // 0/1/2, posted in order.
      alignas(8) std::uint64_t v = 0;
      for (int i = 0; i < 3; ++i) {
        v = static_cast<std::uint64_t>(100 * ctx.rank() + i);
        const std::size_t tdisp = static_cast<std::size_t>(
            16 * ctx.rank() + 8 * (i % 2));
        EXPECT_EQ(win.put_notify(&v, 8, 0, tdisp,
                                 static_cast<std::uint64_t>(ctx.rank())),
                  OpStatus::ok);
      }
    } else {
      // Probe for a tag nobody sends: must miss without consuming.
      progress::NotifyRecord rec;
      EXPECT_FALSE(win.notify_probe(99, &rec));
      // Tag matching decouples consumption from arrival interleaving:
      // drain tag 2 first, then tag 1; per-source records arrive in
      // posted (seq) order.
      for (const std::uint64_t tag : {2ull, 1ull}) {
        std::uint64_t prev_seq = 0;
        bool first = true;
        for (int got = 0; got < 3;) {
          const std::size_t n = win.notify_waitsome(tag, &rec, 1);
          ASSERT_EQ(n, 1u);
          EXPECT_EQ(rec.tag, tag);
          EXPECT_EQ(rec.source, static_cast<int>(tag));
          EXPECT_EQ(rec.bytes, 8u);
          if (!first) {
            EXPECT_GT(rec.seq, prev_seq) << "per-source order";
          }
          prev_seq = rec.seq;
          first = false;
          ++got;
        }
      }
      EXPECT_FALSE(win.notify_probe(progress::kAnyNotifyTag, &rec))
          << "ring fully drained";
    }
    win.unlock_all();
    ctx.barrier();
    win.free();
  }, opts);
}

TEST(Notify, OverflowRetriesUntilConsumerFreesSlots) {
  fabric::FabricOptions opts;
  opts.domain.nranks = 2;
  opts.domain.ranks_per_node = 1;
  constexpr int kPosts = 16;
  std::atomic<std::uint64_t> producer_retries{0};
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    win.lock_all();
    win.notify_enable(ctx, /*capacity=*/4);
    progress::NotifyPlane& plane = *win.notify_plane();
    if (ctx.rank() == 1) {
      const OpCounters before = op_counters();
      alignas(8) std::uint64_t v = 7;
      for (int i = 0; i < kPosts; ++i) {
        EXPECT_EQ(win.put_notify(&v, 8, 0, 0, 5), OpStatus::ok);
      }
      producer_retries = op_counters().since(before).get(Op::notify_retry);
    } else {
      // Give the producer time to slam into the full ring: consume
      // nothing until the 5th reservation (which cannot fit in a 4-slot
      // ring with cursor still at 0) has landed.
      while (plane.reserved(0) < 5) ctx.yield_check();
      progress::NotifyRecord rec;
      for (int got = 0; got < kPosts;) {
        got += static_cast<int>(win.notify_waitsome(5, &rec, 1));
      }
      EXPECT_EQ(plane.reserved(0), static_cast<std::uint64_t>(kPosts));
      EXPECT_EQ(plane.consumed(0), static_cast<std::uint64_t>(kPosts));
    }
    win.unlock_all();
    ctx.barrier();
    win.free();
  }, opts);
  EXPECT_GE(producer_retries.load(), 1u)
      << "the 4-slot ring must have forced overflow-to-retry";
}

TEST(Notify, PutNotifyCarriesPayloadUnderDeferredDelivery) {
  // Deferred delivery is the weakest legal RDMA behaviour: remote memory
  // commits only at op completion. put_notify flushes the payload before
  // posting the record, so a consumed record always implies visible data.
  for (const Delivery delivery : {Delivery::immediate, Delivery::deferred}) {
    fabric::FabricOptions opts;
    opts.domain.nranks = 2;
    opts.domain.ranks_per_node = 1;
    opts.domain.delivery = delivery;
    fabric::run_ranks(2, [](RankCtx& ctx) {
      Win win = Win::allocate(ctx, 256);
      win.lock_all();
      win.notify_enable(ctx, 16);
      if (ctx.rank() == 1) {
        alignas(8) std::uint64_t v = 0xfeedfacecafe0001ull;
        EXPECT_EQ(win.put_notify(&v, 8, 0, 24, 3), OpStatus::ok);
      } else {
        progress::NotifyRecord rec;
        ASSERT_EQ(win.notify_waitsome(3, &rec, 1), 1u);
        EXPECT_EQ(rec.tag, 3u);
        EXPECT_EQ(rec.source, 1);
        EXPECT_EQ(rec.tdisp, 24u);
        EXPECT_EQ(rec.bytes, 8u);
        std::uint64_t got = 0;
        std::memcpy(&got, static_cast<const std::byte*>(win.base()) + rec.tdisp,
                    8);
        EXPECT_EQ(got, 0xfeedfacecafe0001ull);
      }
      win.unlock_all();
      ctx.barrier();
      win.free();
    }, opts);
  }
}

TEST(Notify, WaitsomeReturnsTypedPeerDead) {
  fabric::FabricOptions opts;
  opts.domain.nranks = 2;
  opts.domain.ranks_per_node = 1;
  opts.domain.fault.kill_rank = 1;
  // Window setup ends near op 16 and notify_enable's collective follows;
  // op 80 is safely inside the victim's put loop.
  opts.domain.fault.kill_at_op = 80;
  opts.errors_return = true;
  fabric::run_ranks(2, [](RankCtx& ctx) {
    core::WinConfig wcfg;
    wcfg.err_mode = core::ErrMode::errors_return;
    Win win = Win::allocate(ctx, 256, wcfg);
    win.lock_all();
    win.notify_enable(ctx, 16);
    if (ctx.rank() == 1) {
      alignas(8) std::uint64_t v = 1;
      for (int i = 0; i < 1000; ++i) {
        win.put(&v, 8, 0, 0);
        win.flush(0);
      }
      FAIL() << "rank 1 must have been killed";
    }
    // Wait on a tag the producer never posts: the typed wait must return
    // 0 with peer_dead once the source dies, not hang.
    progress::NotifyRecord rec;
    OpStatus st = OpStatus::ok;
    const std::size_t n = win.notify_waitsome(42, &rec, 1, /*source=*/1, &st);
    EXPECT_EQ(n, 0u);
    EXPECT_EQ(st, OpStatus::peer_dead);
  }, opts);
}

// --- app pipelines on the engine ---------------------------------------------

TEST(AppFiber, DsdeNbxMatchesAlltoall) {
  fabric::FabricOptions opts;
  opts.domain.nranks = 4;
  opts.domain.ranks_per_node = 1;
  fabric::run_ranks(4, [](RankCtx& ctx) {
    const auto sends =
        apps::dsde_random_workload(ctx.rank(), ctx.nranks(), 3, 17);
    auto nbx = apps::dsde_exchange(ctx, apps::DsdeProto::nbx, sends);
    ctx.barrier();
    auto dense = apps::dsde_exchange(ctx, apps::DsdeProto::alltoall, sends);
    auto key = [](const apps::DsdeMsg& a, const apps::DsdeMsg& b) {
      return a.peer != b.peer ? a.peer < b.peer : a.payload < b.payload;
    };
    std::sort(nbx.begin(), nbx.end(), key);
    std::sort(dense.begin(), dense.end(), key);
    EXPECT_EQ(nbx, dense);
  }, opts);
}

TEST(AppFiber, MilcNotifyQueueHalosMatchFlagGetScheme) {
  fabric::FabricOptions opts;
  opts.domain.nranks = 4;
  opts.domain.ranks_per_node = 1;
  fabric::run_ranks(4, [](RankCtx& ctx) {
    apps::MilcConfig base;
    base.local = {4, 4, 4, 4};
    base.grid = apps::milc_default_grid(4);
    apps::MilcConfig flag_cfg = base;
    flag_cfg.backend = apps::MilcBackend::rma;
    apps::MilcConfig queue_cfg = base;
    queue_cfg.backend = apps::MilcBackend::rma_notify_queue;
    apps::MilcSolver flag(ctx, flag_cfg);
    apps::MilcSolver queue(ctx, queue_cfg);
    std::vector<double> in(flag.local_sites());
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<double>((ctx.rank() + 1) * 37 + i % 11) / 7.0;
    }
    std::vector<double> out_flag, out_queue;
    for (int iter = 0; iter < 3; ++iter) {  // exercise epoch reuse
      flag.apply_operator(ctx, in, out_flag);
      queue.apply_operator(ctx, in, out_queue);
      ASSERT_EQ(out_flag.size(), out_queue.size());
      for (std::size_t i = 0; i < out_flag.size(); ++i) {
        ASSERT_DOUBLE_EQ(out_flag[i], out_queue[i]) << "site " << i;
      }
    }
    queue.destroy(ctx);
    flag.destroy(ctx);
  }, opts);
}
