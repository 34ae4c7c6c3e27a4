// MCS queue lock extension: mutual exclusion, queue handoff, bounded
// remote traffic per acquisition.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/mcs_lock.hpp"

using namespace fompi;
using core::McsLock;
using core::Win;
using fabric::RankCtx;

TEST(Mcs, MutualExclusionCounter) {
  const int p = 4;
  const int kIters = 25;
  std::atomic<int> inside{0};
  std::atomic<std::uint64_t> counter{0};
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    McsLock lock(win, /*master=*/0, /*disp=*/0);
    for (int i = 0; i < kIters; ++i) {
      lock.acquire();
      EXPECT_EQ(inside.fetch_add(1), 0) << "two ranks inside the CS";
      const std::uint64_t v = counter.load(std::memory_order_relaxed);
      std::this_thread::yield();
      counter.store(v + 1, std::memory_order_relaxed);
      inside.fetch_sub(1);
      lock.release();
    }
    win.unlock_all();
    win.free();
  });
  EXPECT_EQ(counter.load(), static_cast<std::uint64_t>(p * kIters));
}

TEST(Mcs, UncontendedAcquireIsCheap) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    if (ctx.rank() == 0) {
      McsLock lock(win, 0);
      lock.acquire();
      EXPECT_EQ(lock.last_acquire_remote_ops(), 1);  // just the tail swap
      lock.release();
    }
    ctx.barrier();
    win.unlock_all();
    win.free();
  });
}

TEST(Mcs, ContendedAcquireBoundedRemoteOps) {
  const int p = 4;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    McsLock lock(win, 0);
    for (int i = 0; i < 10; ++i) {
      lock.acquire();
      // MCS guarantee: at most 2 remote ops per acquire, no matter the
      // contention (versus unbounded retries for the two-level lock).
      EXPECT_LE(lock.last_acquire_remote_ops(), 2);
      lock.release();
    }
    win.unlock_all();
    win.free();
  });
}

TEST(Mcs, HandoffOrderIsFifo) {
  // Ranks enqueue in a controlled order; the lock must be granted in the
  // same order. The order is read off the queue's tail word (at the
  // master, rank 0; r + 1 names rank r as the last one queued), not
  // forced by sleeps.
  const int p = 3;
  std::atomic<int> next_expected{1};
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    McsLock lock(win, 0);
    const auto wait_tail_names = [&](int r) {
      std::uint64_t tail = 0;
      while (true) {
        win.fetch_and_op(nullptr, &tail, Elem::u64, RedOp::no_op, 0, 0);
        if (tail == static_cast<std::uint64_t>(r) + 1) return;
        ctx.yield_check();
      }
    };
    if (ctx.rank() == 0) {
      lock.acquire();      // hold while the others queue up
      ctx.barrier();       // rank 1 then rank 2 enqueue (ordered below)
      wait_tail_names(2);  // both are in the queue
      lock.release();
      ctx.barrier();
    } else {
      ctx.barrier();
      if (ctx.rank() == 2) wait_tail_names(1);  // rank 1 queues first
      lock.acquire();
      EXPECT_EQ(next_expected.fetch_add(1), ctx.rank());
      lock.release();
      ctx.barrier();
    }
    win.unlock_all();
    win.free();
  });
}
