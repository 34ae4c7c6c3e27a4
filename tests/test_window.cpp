// Window creation flavors, the symmetric heap protocol, shared windows,
// and teardown hygiene.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "core/window.hpp"

using namespace fompi;
using core::Win;
using fabric::RankCtx;

namespace {

/// Pages overlapping [p, p + bytes) that the kernel holds resident.
std::size_t resident_pages(std::byte* p, std::size_t bytes) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto lead = reinterpret_cast<std::uintptr_t>(p) % page;
  std::vector<unsigned char> vec((lead + bytes + page - 1) / page);
  EXPECT_EQ(::mincore(p - lead, lead + bytes, vec.data()), 0);
  std::size_t n = 0;
  for (const unsigned char v : vec) n += v & 1u;
  return n;
}

}  // namespace

TEST(Window, CreateExposesUserMemory) {
  fabric::run_ranks(4, [](RankCtx& ctx) {
    std::vector<std::uint64_t> mem(16, static_cast<std::uint64_t>(ctx.rank()));
    Win win = Win::create(ctx, mem.data(), mem.size() * 8);
    EXPECT_EQ(win.rank(), ctx.rank());
    EXPECT_EQ(win.nranks(), 4);
    EXPECT_EQ(win.base(), mem.data());
    EXPECT_EQ(win.size(), 128u);

    win.lock_all();
    const int peer = (ctx.rank() + 1) % 4;
    std::uint64_t v = 0;
    win.get(&v, 8, peer, 0);
    win.flush_all();
    EXPECT_EQ(v, static_cast<std::uint64_t>(peer));
    win.unlock_all();
    win.free();
  });
}

TEST(Window, CreateWithDifferentSizesPerRank) {
  fabric::run_ranks(3, [](RankCtx& ctx) {
    // Rank r exposes (r+1)*64 bytes; rank 0 may expose nothing at all.
    const std::size_t bytes = static_cast<std::size_t>(ctx.rank()) * 64;
    std::vector<std::byte> mem(bytes == 0 ? 1 : bytes);
    Win win = Win::create(ctx, bytes == 0 ? nullptr : mem.data(), bytes);
    EXPECT_EQ(win.size(0), 0u);
    EXPECT_EQ(win.size(1), 64u);
    EXPECT_EQ(win.size(2), 128u);
    win.free();
  });
}

TEST(Window, AllocateGivesSymmetricUsableMemory) {
  fabric::run_ranks(4, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    ASSERT_NE(win.base(), nullptr);
    auto* mine = static_cast<std::uint64_t*>(win.base());
    mine[0] = static_cast<std::uint64_t>(100 + ctx.rank());
    win.fence();
    std::uint64_t v = 0;
    win.get(&v, 8, (ctx.rank() + 1) % 4, 0);
    win.fence();
    EXPECT_EQ(v, static_cast<std::uint64_t>(100 + (ctx.rank() + 1) % 4));
    win.free();
  });
}

TEST(Window, AllocateManyWindowsCoexist) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    std::vector<Win> wins;
    for (int i = 0; i < 8; ++i) {
      wins.push_back(Win::allocate(ctx, 512));
      auto* p = static_cast<std::uint64_t*>(wins.back().base());
      p[0] = static_cast<std::uint64_t>(i * 10 + ctx.rank());
    }
    for (int i = 0; i < 8; ++i) {
      wins[static_cast<std::size_t>(i)].fence();
      std::uint64_t v = 0;
      wins[static_cast<std::size_t>(i)].get(&v, 8, 1 - ctx.rank(), 0);
      wins[static_cast<std::size_t>(i)].fence();
      EXPECT_EQ(v, static_cast<std::uint64_t>(i * 10 + 1 - ctx.rank()));
    }
    for (auto& w : wins) w.free();
  });
}

TEST(Window, AllocateReportsRetryAttempts) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    // Fill a small heap so the random-propose protocol has to retry.
    core::WinConfig cfg;
    cfg.symheap_bytes = 4096;
    std::vector<Win> wins;
    for (int i = 0; i < 4; ++i) wins.push_back(Win::allocate(ctx, 512, cfg));
    for (auto& w : wins) {
      EXPECT_GE(w.alloc_attempts(), 1);
      EXPECT_LT(w.alloc_attempts(), 1000);
    }
    for (auto& w : wins) w.free();
  });
}

TEST(Window, AllocateExhaustionRaisesNoMem) {
  EXPECT_THROW(fabric::run_ranks(2,
                                 [](RankCtx& ctx) {
                                   core::WinConfig cfg;
                                   cfg.symheap_bytes = 1024;
                                   Win w = Win::allocate(ctx, 4096, cfg);
                                   w.free();
                                 }),
               Error);
}

TEST(Window, HeapBlockReusableAfterFree) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    core::WinConfig cfg;
    cfg.symheap_bytes = 2048;
    for (int round = 0; round < 12; ++round) {
      Win w = Win::allocate(ctx, 1024, cfg);
      w.free();  // without the release, the heap would exhaust
    }
  });
}

TEST(Window, AllocateCommitsOnlyTouchedPages) {
  // The heap maps its arena instead of zeroing it, as the paper's processes
  // only mmap() the proposed address (Sec 2.2): a 4 KiB window in a heap of
  // 4 x 64 MiB (65,536 pages) commits the few pages it touches.
  constexpr std::size_t kBytes = 4096;
  std::size_t resident = 0;
  fabric::run_ranks(4, [&](RankCtx& ctx) {
    core::WinConfig cfg;
    cfg.symheap_bytes = std::size_t{64} << 20;
    Win win = Win::allocate(ctx, kBytes, cfg);
    const auto* mine = static_cast<const std::byte*>(win.base());
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < kBytes; ++i) nonzero += mine[i] != std::byte{0};
    EXPECT_EQ(nonzero, 0u) << "fresh window memory must read zero";
    ctx.barrier();
    if (ctx.rank() == 0) {
      auto heap = std::static_pointer_cast<core::SymHeap>(
          ctx.fabric().ext_get("core.symheap"));
      for (int r = 0; r < ctx.nranks(); ++r) {
        resident += resident_pages(heap->rank_ptr(r, 0), heap->capacity());
      }
    }
    ctx.barrier();
    win.free();
  });
  EXPECT_LE(resident, 256u);
}

TEST(Window, SharedQueryDirectStores) {
  fabric::run_ranks(4, [](RankCtx& ctx) {
    Win win = Win::allocate_shared(ctx, 64);
    auto* mine = static_cast<std::uint64_t*>(win.base());
    mine[0] = static_cast<std::uint64_t>(ctx.rank() + 1);
    win.sync();
    ctx.barrier();
    const int peer = (ctx.rank() + 1) % 4;
    auto* theirs = static_cast<std::uint64_t*>(win.shared_query(peer));
    win.sync();
    EXPECT_EQ(theirs[0], static_cast<std::uint64_t>(peer + 1));
    ctx.barrier();
    win.free();
  });
}

TEST(Window, SharedQueryRejectsOffNodeTarget) {
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  EXPECT_THROW(fabric::run_ranks(2,
                                 [](RankCtx& ctx) {
                                   Win win = Win::allocate_shared(ctx, 64);
                                   win.shared_query(1 - ctx.rank());
                                   win.free();
                                 },
                                 opts),
               Error);
}

TEST(Window, SizeQueriesValidateRank) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    EXPECT_THROW(win.size(5), Error);
    EXPECT_THROW(win.size(-1), Error);
    win.free();
  });
}

TEST(Window, UseAfterFreeRejected) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.free();
    EXPECT_THROW(win.fence(), Error);
  });
}

TEST(Window, EmptyHandleRejected) {
  Win win;
  EXPECT_THROW(win.rank(), Error);
  EXPECT_THROW(win.fence(), Error);
}

TEST(Window, RegistrationsReleasedOnFree) {
  fabric::FabricOptions opts;
  fabric::Fabric fabric([&] {
    auto o = opts;
    o.domain.nranks = 2;
    return o;
  }());
  std::vector<std::thread> threads;
  const std::size_t before = fabric.domain().registry().live_count();
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&fabric, r] {
      RankCtx ctx(fabric, r);
      std::vector<std::byte> mem(64);
      Win w = Win::create(ctx, mem.data(), mem.size());
      w.free();
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(fabric.first_error(), nullptr);
  EXPECT_EQ(fabric.domain().registry().live_count(), before);
}

TEST(Window, CommunicationOutsideEpochRejected) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    std::uint64_t v = 1;
    EXPECT_THROW(win.put(&v, 8, 1 - ctx.rank(), 0), Error);
    win.free();
  });
}

TEST(Window, OutOfRangeAccessRejected) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    std::uint64_t v = 1;
    EXPECT_THROW(win.put(&v, 8, 1 - ctx.rank(), 60), Error);
    EXPECT_THROW(win.put(&v, 8, 7, 0), Error);
    win.unlock_all();
    win.free();
  });
}
