// Baseline comparators: the UPC/CAF-like PGAS layer and the MPI-2.2-style
// window wrapper.
#include <gtest/gtest.h>

#include <numeric>

#include "common/timing.hpp"
#include "baselines/mpi22_rma.hpp"
#include "baselines/pgas.hpp"

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
    Timer t0;
    for (int i = 0; i < 50; ++i) plain.memput(1 - ctx.rank(), 0, &v, 8);
    plain.fence();
    const double base = t0.elapsed_us();
    Timer t1;
    for (int i = 0; i < 50; ++i) upc.memput(1 - ctx.rank(), 0, &v, 8);
    upc.fence();
    const double with_overhead = t1.elapsed_us();
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
    fast.fence();
    Timer t0;
    for (int i = 0; i < 20; ++i) fast.put(&v, 8, 1 - ctx.rank(), 0);
    fast.fence();
    const double fast_us = t0.elapsed_us();
    slow.fence();
    Timer t1;
    for (int i = 0; i < 20; ++i) slow.put(&v, 8, 1 - ctx.rank(), 0);
    slow.fence();
    const double slow_us = t1.elapsed_us();
    EXPECT_GT(slow_us, fast_us + 100.0)
        << "MPI-2.2 comparator must pay ~9us per op";
    slow.free();
    fast.free();
  }, opts);
}
