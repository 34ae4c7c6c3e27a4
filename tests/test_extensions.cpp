// Extensions beyond the MPI-3.0 surface: notified access (Win::put_notify),
// derived-datatype accumulates, and request-based accumulates.
#include <gtest/gtest.h>

#include <numeric>

#include "core/window.hpp"
#include "fabric/progress/progress.hpp"

using namespace fompi;
using core::Win;
using dt::Datatype;
using fabric::RankCtx;

TEST(Notify, WaitsomeConsumesAtMostMax) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    win.notify_enable(ctx, 16);
    if (ctx.rank() == 0) {
      alignas(8) const std::uint64_t v = 1;
      for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(win.put_notify(&v, 8, 1, 0, 7), rdma::OpStatus::ok);
      }
    }
    ctx.barrier();  // all five records stamped before the first wait
    if (ctx.rank() == 1) {
      std::array<fabric::progress::NotifyRecord, 3> recs;
      EXPECT_EQ(win.notify_waitsome(7, recs.data(), 3), 3u);
      EXPECT_EQ(win.notify_waitsome(7, recs.data(), 3), 2u);
      EXPECT_FALSE(win.notify_probe(7, recs.data()));
    }
    win.unlock_all();
    ctx.barrier();
    win.free();
  });
}

TEST(Notify, Validation) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    const int peer = 1 - ctx.rank();
    alignas(8) const std::uint64_t v = 0;
    fabric::progress::NotifyRecord rec;
    EXPECT_THROW(win.put_notify(&v, 8, peer, 0, 0), Error);  // not enabled
    EXPECT_THROW(win.notify_probe(0, &rec), Error);
    // put_notify reads the window's plane pointer without a lock: every
    // rank finishes its pre-enable checks before any rank enables.
    ctx.barrier();
    win.notify_enable(ctx, 16);
    EXPECT_THROW(win.put_notify(&v, 8, peer, 60, 0), Error);  // range
    win.unlock_all();
    ctx.barrier();
    win.free();
  });
}

TEST(DatatypeAccumulate, StridedSumAccelerated) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    auto* mine = static_cast<std::uint64_t*>(win.base());
    for (int i = 0; i < 8; ++i) mine[i] = 100;
    win.fence();
    if (ctx.rank() == 0) {
      // Add {1,2,3,4} into every other word of the target.
      const std::array<std::uint64_t, 4> vals{1, 2, 3, 4};
      const Datatype contig = Datatype::contiguous(4, Datatype::u64());
      const Datatype strided = Datatype::vector(4, 1, 2, Datatype::u64());
      win.accumulate(vals.data(), 1, contig, Elem::u64, RedOp::sum, 1, 0, 1,
                     strided);
    }
    win.fence();
    if (ctx.rank() == 1) {
      EXPECT_EQ(mine[0], 101u);
      EXPECT_EQ(mine[1], 100u);
      EXPECT_EQ(mine[2], 102u);
      EXPECT_EQ(mine[4], 103u);
      EXPECT_EQ(mine[6], 104u);
    }
    win.free();
  });
}

TEST(DatatypeAccumulate, StridedMinFallback) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    auto* mine = static_cast<double*>(win.base());
    for (int i = 0; i < 8; ++i) mine[i] = 50.0;
    win.fence();
    if (ctx.rank() == 0) {
      const std::array<double, 2> vals{10.0, 99.0};
      const Datatype contig = Datatype::contiguous(2, Datatype::f64());
      const Datatype strided = Datatype::vector(2, 1, 4, Datatype::f64());
      win.accumulate(vals.data(), 1, contig, Elem::f64, RedOp::min, 1, 0, 1,
                     strided);
    }
    win.fence();
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(mine[0], 10.0);
      EXPECT_DOUBLE_EQ(mine[4], 50.0);  // min(50, 99)
    }
    win.free();
  });
}

TEST(DatatypeAccumulate, MisalignedFragmentRejected) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    win.fence();
    // 4-byte blocks cannot carry 8-byte elements.
    const std::array<std::uint64_t, 2> vals{1, 2};
    const Datatype o = Datatype::contiguous(4, Datatype::i32());
    const Datatype t = Datatype::vector(4, 1, 2, Datatype::i32());
    EXPECT_THROW(win.accumulate(vals.data(), 1, o, Elem::u64, RedOp::sum,
                                1 - ctx.rank(), 0, 1, t),
                 Error);
    win.fence();
    win.free();
  });
}

TEST(Raccumulate, ExplicitCompletion) {
  const int p = 3;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    std::array<std::uint64_t, 4> vals{1, 1, 1, 1};
    core::RmaRequest req =
        win.raccumulate(vals.data(), 4, Elem::u64, RedOp::sum, 0, 0);
    req.wait();
    win.flush(0);
    win.unlock_all();
    ctx.barrier();
    if (ctx.rank() == 0) {
      const auto* mine = static_cast<const std::uint64_t*>(win.base());
      win.sync();
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(mine[i], static_cast<std::uint64_t>(p));
      }
    }
    win.free();
  });
}

TEST(Raccumulate, FallbackOpsCompleteEagerly) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    auto* mine = static_cast<double*>(win.base());
    mine[0] = 5.0;
    win.fence();
    if (ctx.rank() == 1) {
      const double v = 2.0;
      core::RmaRequest req =
          win.raccumulate(&v, 1, Elem::f64, RedOp::prod, 0, 0);
      EXPECT_TRUE(req.test());  // fallback: already done
    }
    win.fence();
    if (ctx.rank() == 0) {
      EXPECT_DOUBLE_EQ(mine[0], 10.0);
    }
    win.free();
  });
}
