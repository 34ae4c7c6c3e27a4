// Notified access extension demo: a ring pipeline where each stage pushes
// its result to the next rank with put_notify — data and readiness record
// travel in one operation, no epochs, no receiver-side gets.
//
// Usage: ./examples/notified_ring [rounds]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/window.hpp"
#include "fabric/progress/progress.hpp"

using namespace fompi;

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 6;
  constexpr int kRanks = 4;
  constexpr std::uint64_t kTagToken = 0;
  fabric::run_ranks(kRanks, [&](fabric::RankCtx& ctx) {
    core::Win win = core::Win::allocate(ctx, 64);
    win.lock_all();  // passive target, held for the ring's lifetime
    win.notify_enable(ctx);
    const int next = (ctx.rank() + 1) % kRanks;

    // Rank 0 seeds the token; every stage increments and forwards it.
    if (ctx.rank() == 0) {
      const std::uint64_t seed = 1000;
      win.put_notify(&seed, sizeof(seed), next, 0, kTagToken);
    }
    fabric::progress::NotifyRecord rec;
    for (int r = 0; r < rounds; ++r) {
      win.notify_waitsome(kTagToken, &rec, 1);
      std::uint64_t token = 0;
      std::memcpy(&token, static_cast<const std::byte*>(win.base()) + rec.tdisp,
                  sizeof(token));
      if (ctx.rank() == 0) {
        std::printf("round %d: token came home as %llu\n", r,
                    static_cast<unsigned long long>(token));
      }
      ++token;
      // The token visits rank 0 last in every lap; after the final lap it
      // stops there (a further put would never be consumed).
      const bool last = r == rounds - 1 && ctx.rank() == 0;
      if (!last) win.put_notify(&token, sizeof(token), next, 0, kTagToken);
    }
    win.unlock_all();
    ctx.barrier();
    win.free();
  });
  std::puts("notified_ring: done");
  return 0;
}
