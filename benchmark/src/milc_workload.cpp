// milc_cg: repeated CG solves of the MILC proxy on 2 ranks with the
// paper's RMA halo scheme (pack / flush / fetch-add flag / get) and the
// persistent dot-product allreduce, on the paper's 4^3 x 8 local lattice.
#include <cmath>
#include <string>

#include "apps/milc.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "tracer.hpp"

namespace fompi::bench {
namespace {

constexpr int kRanks = 2;
constexpr int kChunkSolves = 16;
constexpr int kMaxIters = 100;

struct RankOut {
  std::vector<std::uint64_t> solve_ns;
  std::vector<int> iters;
  std::vector<bool> traced;
  OpCounters counters;
  double residual = 0;  ///< |b - A x| / |b| after the last solve
};

}  // namespace

Round run_milc_round(std::uint64_t seed, double seconds, Tracer* tracer) {
  std::vector<RankOut> outs(kRanks);
  SetupClock clock(kRanks);
  fabric::run_ranks(kRanks, [&](fabric::RankCtx& ctx) {
    const int r = ctx.rank();
    const auto i = static_cast<std::size_t>(r);
    RankOut& me = outs[i];
    clock.body[i] = now_ns();
    apps::MilcConfig cfg;
    cfg.grid = apps::milc_default_grid(kRanks);
    cfg.backend = apps::MilcBackend::rma;
    apps::MilcSolver solver(ctx, cfg);
    clock.ctor[i] = now_ns();
    Rng rng(chunk_seed(seed, static_cast<std::uint64_t>(r)));
    std::vector<double> b(solver.local_sites());
    for (auto& v : b) v = rng.uniform() - 0.5;
    std::vector<double> x;
    ctx.barrier();
    clock.seeded[i] = now_ns();
    if (tracer != nullptr) {
      const auto root = tracer->span(r, "setup", clock.entry, clock.seeded[i]);
      tracer->span(r, "fabric", clock.entry, clock.body[i], root);
      tracer->span(r, "MilcSolver", clock.body[i], clock.ctor[i], root);
      tracer->span(r, "rhs+barrier", clock.ctor[i], clock.seeded[i], root);
    }
    if (seconds == 0) {
      solver.destroy(ctx);
      return;
    }

    for (int w = 0; w < 4; ++w) {  // warm-up: pools, plan, page faults
      x.assign(b.size(), 0.0);
      solver.solve_cg(ctx, b, x, kMilcTol, kMaxIters);
    }
    const std::uint64_t deadline = deadline_after(seconds);
    const OpCounters c0 = op_counters();
    for (std::uint64_t c = 0;; ++c) {
      const bool traced = tracer != nullptr && c % 2 == 1;
      for (int s = 0; s < kChunkSolves; ++s) {
        x.assign(b.size(), 0.0);
        const std::uint64_t t0 = now_ns();
        const int iters = solver.solve_cg(ctx, b, x, kMilcTol, kMaxIters);
        const std::uint64_t t1 = now_ns();
        me.solve_ns.push_back(t1 - t0);
        me.iters.push_back(iters);
        me.traced.push_back(traced);
        if (traced) {
          tracer->span(r, "solve_cg", t0, t1, 0, me.solve_ns.size());
        }
      }
      if (!another_chunk(ctx, deadline, c + 1, tracer != nullptr)) break;
    }
    me.counters = op_counters().since(c0);

    // The true residual of the last solution, through the public operator.
    std::vector<double> ax;
    solver.apply_operator(ctx, x, ax);
    for (std::size_t k = 0; k < ax.size(); ++k) ax[k] = b[k] - ax[k];
    me.residual = std::sqrt(solver.dot(ctx, ax, ax) / solver.dot(ctx, b, b));
    solver.destroy(ctx);
  }, model_options());

  Round out;
  clock.fill(&out);
  if (seconds == 0) return out;
  const std::size_t solves = outs[0].solve_ns.size();
  std::vector<double> rates;  // CG iterations/s of each chunk of solves
  double chunk_ns = 0, chunk_iters = 0;
  std::uint64_t iters = 0;
  for (std::size_t s = 0; s < solves; ++s) {
    // The paper's reduction: each solve takes as long as its slowest rank.
    std::uint64_t ns = 0;
    for (const RankOut& o : outs) ns = std::max(ns, o.solve_ns[s]);
    const int it = outs[0].iters[s];
    if (it != outs[0].iters[0] || outs[1].iters[s] != it) {
      out.fail("CG iteration count changed between identical solves");
    }
    if (it >= kMaxIters) ++out.failed;  // did not converge
    iters += static_cast<std::uint64_t>(it);
    chunk_ns += static_cast<double>(ns);
    chunk_iters += it;
    if ((s + 1) % kChunkSolves == 0) {
      rates.push_back(chunk_iters / (chunk_ns / 1e9));
      chunk_ns = chunk_iters = 0;
    }
    const auto per_iter = ns / static_cast<std::uint64_t>(std::max(it, 1));
    out.primary.add(per_iter);
    (outs[0].traced[s] ? out.primary_traced : out.primary_untraced)
        .add(per_iter);
    out.secondary.add(ns);
  }
  for (const RankOut& o : outs) {
    add_counters(&out.counters, o.counters);
    if (!(o.residual <= kMilcTol)) {
      out.fail("relative residual " + std::to_string(o.residual) +
               " above tolerance");
    }
  }
  out.attempted = solves;
  out.ops = iters;
  out.ops_per_s = median(rates);
  out.detail.push_back({"cg_iters", "count",
                        static_cast<double>(outs[0].iters.at(0))});
  return out;
}

}  // namespace fompi::bench
