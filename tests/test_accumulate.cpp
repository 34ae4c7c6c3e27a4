// The accumulate family: accelerated AMO path, fallback protocol,
// fetch_and_op, compare_and_swap, and elementwise atomicity under
// concurrency (linearizability property tests).
#include <gtest/gtest.h>

#include <array>
#include <atomic>

#include "common/instr.hpp"
#include "core/window.hpp"

using namespace fompi;
using core::LockType;
using core::Win;
using fabric::RankCtx;

TEST(Accumulate, AcceleratedSumsFromAllRanks) {
  const int p = 4;
  const int kIters = 50;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    const std::uint64_t one = 1;
    for (int i = 0; i < kIters; ++i) {
      win.accumulate(&one, 1, Elem::u64, RedOp::sum, 0, 0);
    }
    win.flush(0);
    win.unlock_all();
    ctx.barrier();
    if (ctx.rank() == 0) {
      auto* mine = static_cast<std::uint64_t*>(win.base());
      win.sync();
      EXPECT_EQ(mine[0], static_cast<std::uint64_t>(p * kIters));
    }
    win.free();
  });
}

TEST(Accumulate, MultiElementAccelerated) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.fence();
    const std::array<std::uint64_t, 4> vals{1, 2, 3, 4};
    win.accumulate(vals.data(), 4, Elem::u64, RedOp::sum, 0, 0);
    win.fence();
    if (ctx.rank() == 0) {
      auto* mine = static_cast<std::uint64_t*>(win.base());
      EXPECT_EQ(mine[0], 2u);
      EXPECT_EQ(mine[1], 4u);
      EXPECT_EQ(mine[2], 6u);
      EXPECT_EQ(mine[3], 8u);
    }
    win.free();
  });
}

TEST(Accumulate, BitwiseAcceleratedOps) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    auto* mine = static_cast<std::uint64_t*>(win.base());
    if (ctx.rank() == 0) mine[0] = 0b1111;
    win.fence();
    if (ctx.rank() == 1) {
      const std::uint64_t m = 0b1010;
      win.accumulate(&m, 1, Elem::u64, RedOp::band, 0, 0);
    }
    win.fence();
    if (ctx.rank() == 0) {
      EXPECT_EQ(mine[0], 0b1010u);
    }
    win.free();
  });
}

TEST(Accumulate, FallbackMinMaxProd) {
  fabric::run_ranks(3, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    auto* mine = static_cast<double*>(win.base());
    mine[0] = 100.0;
    mine[1] = -5.0;
    win.fence();
    const double v = static_cast<double>(ctx.rank() * 10 + 1);  // 1, 11, 21
    win.accumulate(&v, 1, Elem::f64, RedOp::min, 0, 0);
    win.accumulate(&v, 1, Elem::f64, RedOp::max, 0, 8);
    win.fence();
    if (ctx.rank() == 0) {
      EXPECT_DOUBLE_EQ(mine[0], 1.0);
      EXPECT_DOUBLE_EQ(mine[1], 21.0);
    }
    win.free();
  });
}

TEST(Accumulate, FallbackF64SumIsAtomicPerElement) {
  // f64 sum is not hardware-accelerated; concurrent fallback accumulates
  // must still not lose updates (the lock serializes them).
  const int p = 4;
  const int kIters = 20;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    const double one = 1.0;
    for (int i = 0; i < kIters; ++i) {
      win.accumulate(&one, 1, Elem::f64, RedOp::sum, 0, 0);
    }
    win.flush(0);
    win.unlock_all();
    ctx.barrier();
    if (ctx.rank() == 0) {
      auto* mine = static_cast<double*>(win.base());
      win.sync();
      EXPECT_DOUBLE_EQ(mine[0], static_cast<double>(p * kIters));
    }
    win.free();
  });
}

TEST(Accumulate, GetAccumulateReturnsPreviousValue) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    auto* mine = static_cast<std::uint64_t*>(win.base());
    if (ctx.rank() == 0) mine[0] = 7;
    win.fence();
    if (ctx.rank() == 1) {
      std::uint64_t add = 3, old = 0;
      win.get_accumulate(&add, &old, 1, Elem::u64, RedOp::sum, 0, 0);
      EXPECT_EQ(old, 7u);
    }
    win.fence();
    if (ctx.rank() == 0) {
      EXPECT_EQ(mine[0], 10u);
    }
    win.free();
  });
}

TEST(Accumulate, GetAccumulateNoOpIsAtomicRead) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    auto* mine = static_cast<std::uint64_t*>(win.base());
    if (ctx.rank() == 0) {
      mine[0] = 555;
      mine[1] = 666;
    }
    win.fence();
    if (ctx.rank() == 1) {
      std::array<std::uint64_t, 2> out{};
      win.get_accumulate(nullptr, out.data(), 2, Elem::u64, RedOp::no_op, 0,
                         0);
      EXPECT_EQ(out[0], 555u);
      EXPECT_EQ(out[1], 666u);
    }
    win.fence();
    if (ctx.rank() == 0) {
      EXPECT_EQ(mine[0], 555u);  // unchanged
    }
    win.free();
  });
}

TEST(Accumulate, FetchAndOpChainsAtomically) {
  // Every rank fetch-adds; the set of fetched values must be a permutation
  // of {0, step, 2*step, ...} — the linearizability witness.
  const int p = 4;
  const int kIters = 30;
  std::array<std::atomic<int>, static_cast<std::size_t>(p * kIters) + 1>
      seen{};
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    const std::uint64_t one = 1;
    for (int i = 0; i < kIters; ++i) {
      std::uint64_t old = ~0ull;
      win.fetch_and_op(&one, &old, Elem::u64, RedOp::sum, 0, 0);
      ASSERT_LT(old, static_cast<std::uint64_t>(p * kIters));
      seen[old].fetch_add(1);
    }
    win.unlock_all();
    win.free();
  });
  for (int i = 0; i < p * kIters; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].load(), 1)
        << "fetched value " << i << " seen wrong number of times";
  }
}

TEST(Accumulate, CompareAndSwap64) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    auto* mine = static_cast<std::uint64_t*>(win.base());
    if (ctx.rank() == 0) mine[0] = 10;
    win.fence();
    if (ctx.rank() == 1) {
      std::uint64_t desired = 20, expected = 10, old = 0;
      win.compare_and_swap(&desired, &expected, &old, Elem::u64, 0, 0);
      EXPECT_EQ(old, 10u);
      // Second CAS with a stale expected value must fail.
      desired = 30;
      win.compare_and_swap(&desired, &expected, &old, Elem::u64, 0, 0);
      EXPECT_EQ(old, 20u);
    }
    win.fence();
    if (ctx.rank() == 0) {
      EXPECT_EQ(mine[0], 20u);
    }
    win.free();
  });
}

TEST(Accumulate, CompareAndSwap32ViaFallback) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    auto* mine = static_cast<std::int32_t*>(win.base());
    if (ctx.rank() == 0) mine[0] = 5;
    win.fence();
    if (ctx.rank() == 1) {
      std::int32_t desired = 6, expected = 5, old = 0;
      win.compare_and_swap(&desired, &expected, &old, Elem::i32, 0, 0);
      EXPECT_EQ(old, 5);
    }
    win.fence();
    if (ctx.rank() == 0) {
      EXPECT_EQ(mine[0], 6);
    }
    win.free();
  });
}

TEST(Accumulate, CasOnFloatRejected) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    double d = 1, c = 1, r = 0;
    EXPECT_THROW(win.compare_and_swap(&d, &c, &r, Elem::f64, 0, 0), Error);
    win.unlock_all();
    win.free();
  });
}

TEST(Accumulate, AccumulateNoOpRejected) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    std::uint64_t v = 1;
    EXPECT_THROW(win.accumulate(&v, 1, Elem::u64, RedOp::no_op, 0, 0), Error);
    win.unlock_all();
    win.free();
  });
}

TEST(Accumulate, MixedAcceleratedAndFallbackTargetsDistinctWords) {
  const int p = 3;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    const std::uint64_t one = 1;
    const double half = 0.5;
    for (int i = 0; i < 10; ++i) {
      win.accumulate(&one, 1, Elem::u64, RedOp::sum, 0, 0);
      win.accumulate(&half, 1, Elem::f64, RedOp::sum, 0, 8);
    }
    win.flush(0);
    win.unlock_all();
    ctx.barrier();
    if (ctx.rank() == 0) {
      win.sync();
      auto* u = static_cast<std::uint64_t*>(win.base());
      auto* d = reinterpret_cast<double*>(u + 1);
      EXPECT_EQ(u[0], static_cast<std::uint64_t>(10 * p));
      EXPECT_DOUBLE_EQ(d[0], 5.0 * p);
    }
    win.free();
  });
}

TEST(Accumulate, DatatypeFallbackStridedSum) {
  // Non-contiguous f64 accumulate rides the fallback protocol's vectored
  // gather/combine/scatter: values land elementwise, gaps stay untouched.
  const int p = 3;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 512);
    if (ctx.rank() == 0) {
      auto* d = static_cast<double*>(win.base());
      for (int i = 0; i < 16; ++i) d[i] = (i % 2 == 0) ? 1.0 : -9.0;
    }
    ctx.barrier();
    const dt::Datatype strided =
        dt::Datatype::vector(8, 1, 2, dt::Datatype::f64());
    const dt::Datatype contig =
        dt::Datatype::contiguous(8, dt::Datatype::f64());
    std::array<double, 8> vals{};
    vals.fill(0.25);
    win.lock_all();
    win.accumulate(vals.data(), 1, contig, Elem::f64, RedOp::sum,
                   0, 0, 1, strided);
    win.flush(0);
    win.unlock_all();
    ctx.barrier();
    if (ctx.rank() == 0) {
      win.sync();
      auto* d = static_cast<double*>(win.base());
      for (int i = 0; i < 8; ++i) {
        EXPECT_DOUBLE_EQ(d[2 * i], 1.0 + 0.25 * p) << "element " << i;
        EXPECT_DOUBLE_EQ(d[2 * i + 1], -9.0) << "gap " << i;
      }
    }
    win.free();
  });
}

TEST(Accumulate, FallbackSteadyStateIsAllocationFree) {
  // The fallback's combine buffer and the datatype path's fragment list are
  // per-window scratch: after warmup, repeated accumulates allocate nothing.
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 4096);
    const dt::Datatype strided =
        dt::Datatype::vector(16, 1, 2, dt::Datatype::f64());
    const dt::Datatype contig =
        dt::Datatype::contiguous(16, dt::Datatype::f64());
    std::array<double, 16> vals{};
    vals.fill(1.0);
    double fetched[16] = {0};
    win.lock_all();
    auto cycle = [&] {
      win.accumulate(vals.data(), 16, Elem::f64, RedOp::sum, 0,
                     0);
      win.accumulate(vals.data(), 1, contig, Elem::f64,
                     RedOp::min, 0, 512, 1, strided);
      win.get_accumulate(vals.data(), fetched, 16, Elem::f64,
                         RedOp::sum, 0, 1024);
    };
    for (int i = 0; i < 8; ++i) cycle();  // warm scratch buffers

    const OpCounters before = op_counters();
    for (int i = 0; i < 500; ++i) cycle();
    const OpCounters delta = op_counters().since(before);
    EXPECT_EQ(delta.get(Op::pool_grow), 0u) << "steady state allocated";
    EXPECT_EQ(delta.get(Op::flatten_cache_build), 0u);
    win.unlock_all();
    win.free();
  });
}
