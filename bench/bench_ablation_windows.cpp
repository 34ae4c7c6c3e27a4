// Ablation: window-creation strategies (Sec 2.2).
//
// Compares the four window flavors on creation cost and per-access
// metadata, and exercises the symmetric heap's propose/try/allreduce retry
// loop under fragmentation — the design choice that makes allocated
// windows O(1)-metadata instead of the traditional windows' Ω(p) table.
#include "bench_util.hpp"
#include "core/window.hpp"

using namespace fompi;
using namespace fompi::bench;

int main() {
  std::printf("Ablation: window creation strategies\n\n");

  // Each row: kReps creations + frees in one 4-rank fabric, each reduced
  // max-over-ranks. Wall time is a median with its quartiles, since host
  // load moves it; the modeled busy time (Nic::modeled_ns: injection
  // overheads, doorbells and charged copies) is exact, so its min and max
  // agree unless a flavour's protocol varies between reps.
  constexpr int kReps = 21;
  header("creation + free cost [us] (4 ranks, Gemini model, 21 reps)");
  std::printf("%-28s%12s%20s%14s%14s\n", "flavour", "wall p50",
              "wall [q1, q3]", "modeled min", "modeled max");
  auto timed = [&](const char* name,
                   const std::function<void(fabric::RankCtx&)>& body) {
    std::vector<double> wall(kReps, 0.0), modeled(kReps, 0.0);
    std::mutex mu;
    fabric::run_ranks(
        4,
        [&](fabric::RankCtx& ctx) {
          for (std::size_t r = 0; r < kReps; ++r) {
            ctx.barrier();
            const std::uint64_t m0 = ctx.nic().modeled_ns();
            Timer t;
            body(ctx);
            const double us = t.elapsed_us();
            const double mus =
                static_cast<double>(ctx.nic().modeled_ns() - m0) / 1e3;
            std::scoped_lock lock(mu);
            wall[r] = std::max(wall[r], us);
            modeled[r] = std::max(modeled[r], mus);
          }
        },
        internode_model());
    const Stats w = summarize(wall);
    const Stats m = summarize(modeled);
    std::printf("%-28s%12.1f%10.1f,%8.1f%14.2f%14.2f\n", name, w.median,
                wall[kReps / 4], wall[3 * kReps / 4], m.min, m.max);
  };
  timed("create (user memory)", [](fabric::RankCtx& ctx) {
    std::vector<std::byte> mem(4096);
    core::Win w = core::Win::create(ctx, mem.data(), mem.size());
    w.free();
  });
  timed("allocate (symmetric heap)", [](fabric::RankCtx& ctx) {
    core::Win w = core::Win::allocate(ctx, 4096);
    w.free();
  });
  {
    // The rows above run in one fabric, so the first allocate, which
    // builds the symmetric heap (4 x 16 MiB mapped, pages committed on
    // first touch), never reaches them. This row times the first allocate
    // + free of each of 5 fresh fabrics.
    std::vector<double> first;
    for (int f = 0; f < 5; ++f) {
      first.push_back(
          measure(4, internode_model(), 1, [](fabric::RankCtx& ctx) {
            Timer t;
            core::Win w = core::Win::allocate(ctx, 4096);
            w.free();
            return t.elapsed_us();
          }).median_us);
    }
    std::printf("%-28s%12.1f\n", "allocate, fresh fabric",
                summarize(first).median);
  }
  timed("create_dynamic + attach", [](fabric::RankCtx& ctx) {
    std::vector<std::byte> mem(4096);
    core::Win w = core::Win::create_dynamic(ctx);
    w.attach(mem.data(), mem.size());
    w.detach(mem.data());
    w.free();
  });
  timed("allocate_shared", [](fabric::RankCtx& ctx) {
    core::Win w = core::Win::allocate_shared(ctx, 4096);
    w.free();
  });

  header("symmetric-heap retry behaviour under fragmentation");
  std::printf("%-28s%12s\n", "heap occupancy", "attempts (median)");
  for (double fill : {0.0, 0.25, 0.5}) {
    const double attempts =
        measure(2, fabric::FabricOptions{}, 5, [&](fabric::RankCtx& ctx) {
          core::WinConfig cfg;
          cfg.symheap_bytes = 64 * 1024;
          // Pre-fragment the heap with randomly placed blocks.
          std::vector<core::Win> filler;
          const int blocks = static_cast<int>(fill * 16);
          for (int i = 0; i < blocks; ++i) {
            filler.push_back(core::Win::allocate(ctx, 4096 - 64, cfg));
          }
          core::Win probe = core::Win::allocate(ctx, 2048, cfg);
          const int a = probe.alloc_attempts();
          probe.free();
          for (auto& w : filler) w.free();
          return static_cast<double>(a);
        }).median_us;
    std::printf("%-28.2f%12.1f\n", fill, attempts);
  }
  std::printf("\nExpected: attempts grow with occupancy — the documented "
              "cost of the paper's\nrandom-propose mmap protocol; creation "
              "cost of allocated windows stays within\na small factor of "
              "traditional ones while eliminating the Ω(p) descriptor "
              "table.\n");
  return 0;
}
