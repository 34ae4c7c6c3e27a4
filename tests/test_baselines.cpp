// Baseline comparators: the UPC/CAF-like PGAS layer and the MPI-2.2-style
// window wrapper.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>

#include "baselines/mpi22_rma.hpp"
#include "baselines/pgas.hpp"
#include "common/buffer.hpp"

using namespace fompi;
using baselines::Mpi22Win;
using baselines::SharedArray;
using fabric::RankCtx;

TEST(Pgas, MemputMemgetRoundtrip) {
  fabric::run_ranks(4, [](RankCtx& ctx) {
    SharedArray arr(ctx, 256);
    std::vector<std::uint64_t> vals(8);
    std::iota(vals.begin(), vals.end(),
              static_cast<std::uint64_t>(ctx.rank()) * 100);
    arr.memput((ctx.rank() + 1) % 4, 0, vals.data(), 64);
    arr.barrier();
    const int left = (ctx.rank() + 3) % 4;
    auto* mine = static_cast<std::uint64_t*>(arr.local());
    EXPECT_EQ(mine[0], static_cast<std::uint64_t>(left) * 100);
    std::uint64_t back = 0;
    arr.memget((ctx.rank() + 1) % 4, 8, &back, 8);
    arr.fence();
    EXPECT_EQ(back, static_cast<std::uint64_t>(ctx.rank()) * 100 + 1);
    arr.barrier();
    arr.destroy(ctx);
  });
}

TEST(Pgas, AtomicsMatchCrayExtensions) {
  const int p = 4;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    SharedArray arr(ctx, 64);
    for (int i = 0; i < 10; ++i) arr.amo_aadd(0, 0, 1);
    arr.barrier();
    if (ctx.rank() == 0) {
      auto* mine = static_cast<std::uint64_t*>(arr.local());
      EXPECT_EQ(mine[0], static_cast<std::uint64_t>(10 * p));
    }
    // acswap: only one rank wins the swap from 0.
    const std::uint64_t old = arr.amo_acswap(
        0, 8, 0, static_cast<std::uint64_t>(ctx.rank()) + 1);
    arr.barrier();
    if (ctx.rank() == 0) {
      auto* mine = static_cast<std::uint64_t*>(arr.local());
      EXPECT_NE(mine[1], 0u);
    }
    (void)old;
    arr.barrier();
    arr.destroy(ctx);
  });
}

TEST(Pgas, UpcConfigurationAddsOverheadUnderModel) {
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  opts.domain.inject = rdma::Injection::model;
  fabric::run_ranks(2, [](RankCtx& ctx) {
    SharedArray plain(ctx, 64);
    SharedArray upc(ctx, 64, baselines::make_upc_like());
    const std::uint64_t v = 1;
    // Modeled busy time from the NIC's meter, not wall time, which host
    // load also moves.
    const std::uint64_t m0 = ctx.nic().modeled_ns();
    for (int i = 0; i < 50; ++i) plain.memput(1 - ctx.rank(), 0, &v, 8);
    plain.fence();
    const std::uint64_t m1 = ctx.nic().modeled_ns();
    for (int i = 0; i < 50; ++i) upc.memput(1 - ctx.rank(), 0, &v, 8);
    upc.fence();
    const double base = static_cast<double>(m1 - m0) / 1e3;
    const double with_overhead =
        static_cast<double>(ctx.nic().modeled_ns() - m1) / 1e3;
    EXPECT_GT(with_overhead, base + 40.0)
        << "UPC layer must add ~1.2us per op";
    plain.destroy(ctx);
    upc.destroy(ctx);
  }, opts);
}

TEST(Mpi22, FunctionallyEquivalentToCore) {
  fabric::run_ranks(3, [](RankCtx& ctx) {
    Mpi22Win win = Mpi22Win::allocate(ctx, 128);
    win.fence();
    const std::uint64_t v = static_cast<std::uint64_t>(ctx.rank()) + 7;
    win.put(&v, 8, (ctx.rank() + 1) % 3, 0);
    win.fence();
    auto* mine = static_cast<std::uint64_t*>(win.base());
    EXPECT_EQ(mine[0], static_cast<std::uint64_t>((ctx.rank() + 2) % 3) + 7);
    const std::uint64_t one = 1;
    win.accumulate(&one, 1, Elem::u64, RedOp::sum, 0, 8);
    win.fence();
    if (ctx.rank() == 0) {
      EXPECT_EQ(mine[1], 3u);
    }
    win.free();
  });
}

TEST(Mpi22, PscwAndLocksWork) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Mpi22Win win = Mpi22Win::allocate(ctx, 64);
    const int peer = 1 - ctx.rank();
    win.post(fabric::Group{peer});
    win.start(fabric::Group{peer});
    const std::uint64_t v = 11;
    win.put(&v, 8, peer, 0);
    win.complete();
    win.wait();
    auto* mine = static_cast<std::uint64_t*>(win.base());
    EXPECT_EQ(mine[0], 11u);
    win.lock(core::LockType::exclusive, peer);
    const std::uint64_t w = 22;
    win.put(&w, 8, peer, 8);
    win.unlock(peer);
    ctx.barrier();
    EXPECT_EQ(mine[1], 22u);
    win.free();
  });
}

TEST(Mpi22, SlowerThanCoreUnderModel) {
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  opts.domain.inject = rdma::Injection::model;
  fabric::run_ranks(2, [](RankCtx& ctx) {
    core::Win fast = core::Win::allocate(ctx, 64);
    Mpi22Win slow = Mpi22Win::allocate(ctx, 64);
    const std::uint64_t v = 5;
    // Modeled busy time from the NIC's meter, as in the Pgas test above.
    rdma::Nic& nic = ctx.nic();
    fast.fence();
    const std::uint64_t f0 = nic.modeled_ns();
    for (int i = 0; i < 20; ++i) fast.put(&v, 8, 1 - ctx.rank(), 0);
    fast.fence();
    const double fast_us = static_cast<double>(nic.modeled_ns() - f0) / 1e3;
    slow.fence();
    const std::uint64_t s0 = nic.modeled_ns();
    for (int i = 0; i < 20; ++i) slow.put(&v, 8, 1 - ctx.rank(), 0);
    slow.fence();
    const double slow_us = static_cast<double>(nic.modeled_ns() - s0) / 1e3;
    EXPECT_GT(slow_us, fast_us + 100.0)
        << "MPI-2.2 comparator must pay ~9us per op";
    slow.free();
    fast.free();
  }, opts);
}

// Every layer charges modeled busy time through the NIC, so each charge
// below moves Nic::modeled_ns() by exactly the busy time it charges, scaled
// by time_scale; its waits (completions, gsync) add nothing. Under
// Injection::none nothing is charged.
TEST(ModeledMeter, EveryChargeReachesTheMeter) {
  for (const auto inject : {rdma::Injection::model, rdma::Injection::none}) {
    fabric::FabricOptions opts;
    opts.domain.ranks_per_node = 1;
    opts.domain.inject = inject;
    opts.domain.time_scale = 2.0;
    fabric::run_ranks(2, [inject](RankCtx& ctx) {
      SharedArray upc(ctx, 64, baselines::make_upc_like());
      Mpi22Win mpi22 = Mpi22Win::allocate(ctx, 64);
      const std::uint64_t v = 1;
      mpi22.fence();
      if (ctx.rank() == 0) {
        const rdma::NetworkModel& m = ctx.fabric().domain().config().model;
        const perf::BaselineModel bm;
        const double scale = inject == rdma::Injection::model ? 2.0 : 0.0;
        const auto busy = [scale](double ns) {
          return static_cast<std::uint64_t>(ns * scale);
        };
        rdma::Nic& nic = ctx.nic();
        const auto charged = [&nic](const std::function<void()>& op) {
          const std::uint64_t m0 = nic.modeled_ns();
          op();
          return nic.modeled_ns() - m0;
        };
        AlignedBuffer mem(64);
        const rdma::RegionDesc d =
            ctx.fabric().domain().registry().register_region(1, mem.data(),
                                                             64);
        EXPECT_EQ(charged([&] { nic.put(1, d, 0, &v, 8); }),
                  busy(m.inter_overhead_ns))
            << "inter-node blocking put";
        EXPECT_EQ(charged([&] { nic.charge_model_ns(1000); }), busy(1000))
            << "charge_model_ns";
        EXPECT_EQ(charged([&] {
                    nic.batch_begin();
                    for (int i = 0; i < 4; ++i) nic.put_nbi(1, d, 8 * i, &v, 8);
                    nic.batch_flush();
                    nic.gsync();
                  }),
                  busy(m.inter_overhead_ns + m.chain_latency_ns(4)))
            << "one doorbell for a 4-op batch";
        EXPECT_EQ(charged([&] {
                    upc.memput(1, 0, &v, 8);
                    upc.fence();
                  }),
                  busy(bm.upc_extra_us * 1e3) + busy(m.inter_overhead_ns))
            << "UPC memput";
        EXPECT_EQ(charged([&] { mpi22.put(&v, 8, 1, 0); }),
                  busy(bm.mpi22_extra_us * 1e3) + busy(m.inter_overhead_ns))
            << "MPI-2.2 put";
        EXPECT_EQ(charged([&] { ctx.send(1, 7, &v, 8); }),
                  busy(m.inter_overhead_ns))
            << "p2p send";
        ctx.fabric().domain().registry().deregister(d.rkey);
      } else {
        std::uint64_t got = 0;
        ctx.recv(0, 7, &got, 8);
        EXPECT_EQ(got, v);
      }
      mpi22.fence();
      mpi22.free();
      upc.destroy(ctx);
    }, opts);
  }
}
