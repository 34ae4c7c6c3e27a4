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

  header("creation + free cost [us] (4 ranks, Gemini model)");
  auto timed = [&](const char* name,
                   const std::function<void(fabric::RankCtx&)>& body) {
    const double us =
        measure(4, internode_model(), 3, [&](fabric::RankCtx& ctx) {
          Timer t;
          body(ctx);
          return t.elapsed_us();
        }).median_us;
    std::printf("%-28s%12.1f\n", name, us);
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
    // The rows above are medians of 3 reps in one fabric, so the first
    // allocate, which builds the symmetric heap (4 x 16 MiB mapped, pages
    // committed on first touch), never reaches them. This row times the
    // first allocate + free of each of 5 fresh fabrics.
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
