// Dynamic windows: attach/detach, absolute-address communication, the
// id-counter cache protocol and the optimized notify protocol.
#include <gtest/gtest.h>

#include <cstring>

#include "core/window.hpp"

using namespace fompi;
using core::DynMode;
using core::Win;
using core::WinConfig;
using fabric::RankCtx;

class DynBothModes : public ::testing::TestWithParam<DynMode> {
 protected:
  WinConfig cfg() const {
    WinConfig c;
    c.dyn_mode = GetParam();
    return c;
  }
};

TEST_P(DynBothModes, AttachCommunicateDetach) {
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    Win win = Win::create_dynamic(ctx, cfg());
    std::vector<std::uint64_t> mem(8, static_cast<std::uint64_t>(ctx.rank()));
    win.attach(mem.data(), mem.size() * 8);
    // Exchange the absolute addresses (MPI programs do the same).
    std::array<std::uint64_t, 2> addrs{};
    const std::uint64_t mine = reinterpret_cast<std::uint64_t>(mem.data());
    ctx.allgather(&mine, 1, addrs.data());
    win.lock_all();
    const int peer = 1 - ctx.rank();
    std::uint64_t v = 0;
    win.get(&v, 8, peer, addrs[static_cast<std::size_t>(peer)]);
    win.flush(peer);
    EXPECT_EQ(v, static_cast<std::uint64_t>(peer));
    win.unlock_all();
    ctx.barrier();
    win.detach(mem.data());
    win.free();
  });
}

TEST_P(DynBothModes, CacheTracksReattach) {
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    Win win = Win::create_dynamic(ctx, cfg());
    std::vector<std::uint64_t> a(4), b(4);
    std::array<std::uint64_t, 2> addrs{};
    if (ctx.rank() == 0) {
      a[0] = 111;
      win.attach(a.data(), 32);
    }
    const std::uint64_t mine = reinterpret_cast<std::uint64_t>(
        ctx.rank() == 0 ? a.data() : nullptr);
    ctx.allgather(&mine, 1, addrs.data());
    win.lock_all();
    if (ctx.rank() == 1) {
      std::uint64_t v = 0;
      win.get(&v, 8, 0, addrs[0]);  // warms the cache
      win.flush(0);
      EXPECT_EQ(v, 111u);
    }
    win.unlock_all();
    ctx.barrier();
    // Rank 0 detaches and attaches a different region.
    std::array<std::uint64_t, 2> addrs2{};
    if (ctx.rank() == 0) {
      win.detach(a.data());
      b[0] = 222;
      win.attach(b.data(), 32);
    }
    const std::uint64_t mine2 = reinterpret_cast<std::uint64_t>(
        ctx.rank() == 0 ? b.data() : nullptr);
    ctx.allgather(&mine2, 1, addrs2.data());
    win.lock_all();
    if (ctx.rank() == 1) {
      std::uint64_t v = 0;
      win.get(&v, 8, 0, addrs2[0]);  // must see the invalidation
      win.flush(0);
      EXPECT_EQ(v, 222u);
    }
    win.unlock_all();
    ctx.barrier();
    if (ctx.rank() == 0) win.detach(b.data());
    win.free();
  });
}

TEST_P(DynBothModes, AccessToDetachedRegionRaises) {
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    Win win = Win::create_dynamic(ctx, cfg());
    std::vector<std::uint64_t> mem(4);
    std::array<std::uint64_t, 2> addrs{};
    if (ctx.rank() == 0) win.attach(mem.data(), 32);
    const std::uint64_t mine = reinterpret_cast<std::uint64_t>(
        ctx.rank() == 0 ? mem.data() : nullptr);
    ctx.allgather(&mine, 1, addrs.data());
    ctx.barrier();
    if (ctx.rank() == 0) {
      win.detach(mem.data());
      ctx.barrier();
    } else {
      ctx.barrier();
      win.lock_all();
      std::uint64_t v = 0;
      EXPECT_THROW(
          {
            win.get(&v, 8, 0, addrs[0]);
            win.flush(0);
          },
          Error);
      win.unlock_all();
    }
    ctx.barrier();
    win.free();
  });
}

TEST_P(DynBothModes, MultipleRegionsResolvedByAddress) {
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    Win win = Win::create_dynamic(ctx, cfg());
    std::vector<std::uint64_t> r1(4), r2(4);
    if (ctx.rank() == 0) {
      r1[2] = 10;
      r2[1] = 20;
      win.attach(r1.data(), 32);
      win.attach(r2.data(), 32);
    }
    std::array<std::uint64_t, 2> a1{}, a2{};
    const std::uint64_t m1 =
        ctx.rank() == 0 ? reinterpret_cast<std::uint64_t>(r1.data()) : 0;
    const std::uint64_t m2 =
        ctx.rank() == 0 ? reinterpret_cast<std::uint64_t>(r2.data()) : 0;
    ctx.allgather(&m1, 1, a1.data());
    ctx.allgather(&m2, 1, a2.data());
    if (ctx.rank() == 1) {
      win.lock_all();
      std::uint64_t v1 = 0, v2 = 0;
      win.get(&v1, 8, 0, a1[0] + 16);
      win.get(&v2, 8, 0, a2[0] + 8);
      win.flush(0);
      EXPECT_EQ(v1, 10u);
      EXPECT_EQ(v2, 20u);
      win.unlock_all();
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      win.detach(r1.data());
      win.detach(r2.data());
    }
    win.free();
  });
}

INSTANTIATE_TEST_SUITE_P(Modes, DynBothModes,
                         ::testing::Values(DynMode::id_counter,
                                           DynMode::notify));

TEST(Dynamic, AttachValidation) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::create_dynamic(ctx);
    std::vector<std::uint64_t> mem(8);
    EXPECT_THROW(win.attach(nullptr, 8), Error);
    EXPECT_THROW(win.attach(mem.data(), 0), Error);
    win.attach(mem.data(), 64);
    // Overlapping attach rejected.
    EXPECT_THROW(win.attach(mem.data() + 2, 16), Error);
    // Unknown detach rejected.
    std::uint64_t other = 0;
    EXPECT_THROW(win.detach(&other), Error);
    win.detach(mem.data());
    // Re-attach after detach is fine.
    win.attach(mem.data(), 64);
    win.detach(mem.data());
    win.free();
  });
}

TEST(Dynamic, AttachOnNonDynamicWindowRejected) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    std::uint64_t mem = 0;
    EXPECT_THROW(win.attach(&mem, 8), Error);
    EXPECT_THROW(win.detach(&mem), Error);
    win.free();
  });
}

TEST(Dynamic, DirectoryExhaustionRaises) {
  fabric::run_ranks(1, [](RankCtx& ctx) {
    core::WinConfig cfg;
    cfg.max_dyn_regions = 2;
    Win win = Win::create_dynamic(ctx, cfg);
    std::vector<std::uint64_t> m1(2), m2(2), m3(2);
    win.attach(m1.data(), 16);
    win.attach(m2.data(), 16);
    EXPECT_THROW(win.attach(m3.data(), 16), Error);
    win.detach(m1.data());
    EXPECT_NO_THROW(win.attach(m3.data(), 16));  // slot reusable
    win.detach(m2.data());
    win.detach(m3.data());
    win.free();
  });
}

TEST(Dynamic, IdCounterModePaysRemoteReadEveryAccess) {
  // Instruction-count check of the documented protocol difference: the
  // id-counter mode issues a remote AMO per access, notify mode does not
  // (after the first).
  fabric::run_ranks(2, [](RankCtx& ctx) {
    for (DynMode mode : {DynMode::id_counter, DynMode::notify}) {
      WinConfig cfg;
      cfg.dyn_mode = mode;
      Win win = Win::create_dynamic(ctx, cfg);
      std::vector<std::uint64_t> mem(8);
      win.attach(mem.data(), 64);
      std::array<std::uint64_t, 2> addrs{};
      const std::uint64_t mine = reinterpret_cast<std::uint64_t>(mem.data());
      ctx.allgather(&mine, 1, addrs.data());
      win.lock_all();
      const int peer = 1 - ctx.rank();
      std::uint64_t v = 0;
      win.get(&v, 8, peer, addrs[static_cast<std::size_t>(peer)]);  // warm
      win.flush(peer);
      const auto before = op_counters();
      for (int i = 0; i < 10; ++i) {
        win.get(&v, 8, peer, addrs[static_cast<std::size_t>(peer)]);
      }
      win.flush(peer);
      const auto delta = op_counters().since(before);
      if (mode == DynMode::id_counter) {
        EXPECT_GE(delta.get(Op::transport_amo) + delta.get(Op::local_atomic),
                  10u);
      } else {
        EXPECT_EQ(delta.get(Op::transport_amo), 0u);
      }
      win.unlock_all();
      ctx.barrier();
      win.detach(mem.data());
      win.free();
    }
  });
}

TEST(Dynamic, AttachDetachStormDoesNotLeakRegistrations) {
  // Registration-churn leak check: a stress run of attach/put/detach cycles
  // plus window teardown must return the registry to its pre-window live
  // count (window control blocks included).
  fabric::run_ranks(2, [](RankCtx& ctx) {
    auto& reg = ctx.fabric().domain().registry();
    // Read between two barriers: window creation has rank 0 register every
    // rank's control block before its first barrier, so a base read after
    // rank 0 entered create_dynamic would count those blocks.
    ctx.barrier();
    const std::size_t base_live = reg.live_count();
    ctx.barrier();
    {
      Win win = Win::create_dynamic(ctx);
      for (int round = 0; round < 10; ++round) {
        std::vector<std::uint64_t> mem(8, 0);
        win.attach(mem.data(), 64);
        std::array<std::uint64_t, 2> addrs{};
        const std::uint64_t mine = reinterpret_cast<std::uint64_t>(mem.data());
        ctx.allgather(&mine, 1, addrs.data());
        win.lock_all();
        const int peer = 1 - ctx.rank();
        const std::uint64_t v = static_cast<std::uint64_t>(round);
        win.put(&v, 8, peer, addrs[static_cast<std::size_t>(peer)]);
        win.flush(peer);
        win.unlock_all();
        ctx.barrier();
        EXPECT_EQ(mem[0], static_cast<std::uint64_t>(round));
        win.detach(mem.data());
        ctx.barrier();  // mem must outlive every peer access
      }
      win.free();
    }
    ctx.barrier();
    EXPECT_EQ(reg.live_count(), base_live) << "registration leak";
  });
}
