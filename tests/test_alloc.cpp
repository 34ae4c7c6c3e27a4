// Steady-state ops allocate nothing: warm blocking KV gets and puts, every
// request-based RMA op followed by its wait, and the blocking put + flush
// and fetch_and_op. This binary replaces the global operator new with a
// per-thread counter, so it must stay out of the sanitizer builds, whose
// runtimes replace operator new themselves.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>

#include "core/window.hpp"
#include "kv/kv.hpp"

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n, std::size_t align) {
  ++t_allocs;
  const std::size_t size = n == 0 ? 1 : n;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace fompi;
using core::Win;
using fabric::RankCtx;

namespace {

constexpr int kWarm = 100;
constexpr int kOps = 1000;

/// Allocations on the calling thread over kOps calls of `op`, after kWarm
/// untimed calls that grow every pool to its steady size.
std::uint64_t allocs_per_1000(const std::function<void(int)>& op) {
  for (int i = 0; i < kWarm; ++i) op(i);
  const std::uint64_t before = t_allocs;
  for (int i = 0; i < kOps; ++i) op(i);
  return t_allocs - before;
}

}  // namespace

TEST(Alloc, CounterSeesAnAllocation) {
  const std::uint64_t before = t_allocs;
  void* p = ::operator new(8);
  EXPECT_EQ(t_allocs - before, 1u);
  ::operator delete(p);
}

TEST(Alloc, RequestOpsAllocateNothingInSteadyState) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 4096);
    win.lock_all();
    const int peer = 1 - ctx.rank();
    const std::uint64_t zero = 0, one = 1;
    std::uint64_t v = 0, old = 0;
    EXPECT_EQ(allocs_per_1000([&](int) {
                win.rput(&one, 8, peer, 0).wait();
              }),
              0u)
        << "rput";
    EXPECT_EQ(allocs_per_1000([&](int) {
                win.rget(&v, 8, peer, 8).wait();
              }),
              0u)
        << "rget";
    EXPECT_EQ(allocs_per_1000([&](int) {
                win.raccumulate(&one, 1, Elem::u64, RedOp::sum, peer, 16)
                    .wait();
              }),
              0u)
        << "raccumulate";
    EXPECT_EQ(allocs_per_1000([&](int) {
                win.rfetch_and_op(&one, &old, Elem::u64, RedOp::sum, peer, 24)
                    .wait();
              }),
              0u)
        << "rfetch_and_op";
    EXPECT_EQ(allocs_per_1000([&](int) {
                win.rcompare_and_swap(&one, &zero, &old, Elem::u64, peer, 32)
                    .wait();
              }),
              0u)
        << "rcompare_and_swap";
    EXPECT_EQ(allocs_per_1000([&](int) {
                win.put(&one, 8, peer, 48);
                win.flush(peer);
              }),
              0u)
        << "put + flush";
    EXPECT_EQ(allocs_per_1000([&](int) {
                win.fetch_and_op(&one, &old, Elem::u64, RedOp::sum, peer, 56);
              }),
              0u)
        << "fetch_and_op";
    win.unlock_all();
    win.free();
  });
}

TEST(Alloc, KvGetsAndPutsOfKnownKeysAllocateNothing) {
  fabric::run_ranks(3, [](RankCtx& ctx) {
    kv::KvStore store(ctx);
    constexpr int kKeys = 16;
    const auto key = [&](int i) {
      return static_cast<std::uint64_t>(ctx.rank()) * 1000 + 1 +
             static_cast<std::uint64_t>(i % kKeys);
    };
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_EQ(store.put(key(i), 1), rdma::OpStatus::ok);
    }
    ctx.barrier();
    std::uint64_t v = 0;
    bool found = false;
    EXPECT_EQ(allocs_per_1000([&](int i) {
                store.get(key(i), &v, &found);
              }),
              0u)
        << "get";
    EXPECT_TRUE(found);
    EXPECT_EQ(allocs_per_1000([&](int i) {
                store.put(key(i), static_cast<std::uint64_t>(i));
              }),
              0u)
        << "put";
    ctx.barrier();
    store.destroy(ctx);
  });
}
