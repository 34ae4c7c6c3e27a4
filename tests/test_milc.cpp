// MILC-like lattice solver: operator correctness against a serial
// reference, backend equivalence, CG convergence, grid factorization.
#include <gtest/gtest.h>

#include <mutex>

#include "apps/milc.hpp"
#include "common/rng.hpp"

using namespace fompi;
using apps::MilcBackend;
using apps::MilcConfig;
using apps::MilcSolver;
using fabric::RankCtx;

namespace {

std::vector<double> random_field(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform() - 0.5;
  return v;
}

}  // namespace

TEST(MilcGrid, DefaultGridFactorsCorrectly) {
  for (int p : {1, 2, 4, 8, 16, 32, 64, 6}) {
    const auto g = apps::milc_default_grid(p);
    EXPECT_EQ(g[0] * g[1] * g[2] * g[3], p) << "p=" << p;
  }
  const auto g8 = apps::milc_default_grid(8);
  EXPECT_EQ(g8, (std::array<int, 4>{1, 2, 2, 2}));
}

class MilcBackends : public ::testing::TestWithParam<MilcBackend> {};

TEST_P(MilcBackends, OperatorMatchesSerialReference) {
  // Apply the operator on 4 ranks and on 1 rank over the same global
  // lattice; fields must match.
  MilcConfig serial_cfg;
  serial_cfg.local = {4, 4, 2, 4};
  serial_cfg.grid = {1, 1, 1, 1};
  serial_cfg.backend = GetParam();
  const std::size_t global_sites = 4 * 4 * 2 * 4;
  const auto global_in = random_field(global_sites, 3);
  std::vector<double> serial_out;
  fabric::run_ranks(1, [&](RankCtx& ctx) {
    MilcSolver solver(ctx, serial_cfg);
    solver.apply_operator(ctx, global_in, serial_out);
    solver.destroy(ctx);
  });

  // Parallel: split t (last dim) over 4 ranks: local t extent 1.
  MilcConfig par_cfg;
  par_cfg.local = {4, 4, 2, 1};
  par_cfg.grid = {1, 1, 1, 4};
  par_cfg.backend = GetParam();
  std::vector<double> par_out(global_sites);
  std::mutex mu;
  fabric::run_ranks(4, [&](RankCtx& ctx) {
    MilcSolver solver(ctx, par_cfg);
    // Site order is (x, y, z, t) nested loops; serial t range [1..4],
    // rank r owns global t index r.
    std::vector<double> in(solver.local_sites());
    std::size_t n = 0;
    for (int x = 0; x < 4; ++x) {
      for (int y = 0; y < 4; ++y) {
        for (int z = 0; z < 2; ++z) {
          in[n++] = global_in[static_cast<std::size_t>(
              ((x * 4 + y) * 2 + z) * 4 + ctx.rank())];
        }
      }
    }
    std::vector<double> out;
    solver.apply_operator(ctx, in, out);
    {
      std::scoped_lock lock(mu);
      n = 0;
      for (int x = 0; x < 4; ++x) {
        for (int y = 0; y < 4; ++y) {
          for (int z = 0; z < 2; ++z) {
            par_out[static_cast<std::size_t>(((x * 4 + y) * 2 + z) * 4 +
                                             ctx.rank())] = out[n++];
          }
        }
      }
    }
    solver.destroy(ctx);
  });
  for (std::size_t i = 0; i < global_sites; ++i) {
    EXPECT_NEAR(par_out[i], serial_out[i], 1e-12) << "site " << i;
  }
}

TEST_P(MilcBackends, CgSolvesTheSystem) {
  MilcConfig cfg;
  cfg.local = {2, 2, 2, 4};
  cfg.grid = apps::milc_default_grid(2);
  cfg.backend = GetParam();
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    MilcSolver solver(ctx, cfg);
    const auto b = random_field(solver.local_sites(),
                                static_cast<std::uint64_t>(ctx.rank()) + 7);
    std::vector<double> x;
    std::vector<double> history;
    const int iters = solver.solve_cg(ctx, b, x, 1e-10, 200, &history);
    EXPECT_GT(iters, 0);
    EXPECT_LT(iters, 200) << "CG failed to converge";
    // Residual history decreases overall.
    ASSERT_FALSE(history.empty());
    EXPECT_LT(history.back(), 1e-9);
    // Verify: A x == b.
    std::vector<double> ax;
    solver.apply_operator(ctx, x, ax);
    double err = 0;
    for (std::size_t i = 0; i < ax.size(); ++i) {
      err = std::max(err, std::abs(ax[i] - b[i]));
    }
    EXPECT_LT(err, 1e-8);
    solver.destroy(ctx);
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, MilcBackends,
                         ::testing::Values(MilcBackend::p2p,
                                           MilcBackend::rma,
                                           MilcBackend::rma_notify_queue));

TEST(Milc, BackendsProduceIdenticalIterates) {
  std::array<std::vector<double>, 2> solutions;
  std::array<int, 2> iters{};
  int idx = 0;
  std::mutex mu;
  for (MilcBackend b : {MilcBackend::p2p, MilcBackend::rma}) {
    MilcConfig cfg;
    cfg.local = {2, 2, 4, 2};
    cfg.grid = {1, 1, 2, 2};
    cfg.backend = b;
    fabric::run_ranks(4, [&](RankCtx& ctx) {
      MilcSolver solver(ctx, cfg);
      const auto rhs = random_field(
          solver.local_sites(), static_cast<std::uint64_t>(ctx.rank()) + 99);
      std::vector<double> x;
      const int it = solver.solve_cg(ctx, rhs, x, 1e-9, 150);
      {
        std::scoped_lock lock(mu);
        if (ctx.rank() == 0) {
          solutions[static_cast<std::size_t>(idx)] = x;
          iters[static_cast<std::size_t>(idx)] = it;
        }
      }
      solver.destroy(ctx);
    });
    ++idx;
  }
  EXPECT_EQ(iters[0], iters[1]);
  ASSERT_EQ(solutions[0].size(), solutions[1].size());
  for (std::size_t i = 0; i < solutions[0].size(); ++i) {
    EXPECT_NEAR(solutions[0][i], solutions[1][i], 1e-10);
  }
}

TEST(Milc, FourDimensionalDecomposition) {
  // Full 4D process grid 2x2x2x2 = 16 ranks: halos in all 8 directions.
  MilcConfig cfg;
  cfg.local = {2, 2, 2, 2};
  cfg.grid = {2, 2, 2, 2};
  fabric::run_ranks(16, [&](RankCtx& ctx) {
    MilcSolver solver(ctx, cfg);
    std::vector<double> in(solver.local_sites(), 1.0);
    std::vector<double> out;
    solver.apply_operator(ctx, in, out);
    // For a constant field, L f = 0: A f = f.
    for (const double v : out) EXPECT_NEAR(v, 1.0, 1e-13);
    solver.destroy(ctx);
  });
}

TEST(Milc, MisconfiguredGridRejected) {
  EXPECT_THROW(fabric::run_ranks(3,
                                 [](RankCtx& ctx) {
                                   MilcConfig cfg;
                                   cfg.grid = {1, 1, 1, 2};
                                   MilcSolver solver(ctx, cfg);
                                   solver.destroy(ctx);
                                 }),
               Error);
}

TEST(Milc, NeighborTopologyIsPeriodic) {
  MilcConfig cfg;
  cfg.local = {2, 2, 2, 2};
  cfg.grid = {1, 1, 2, 2};
  fabric::run_ranks(4, [&](RankCtx& ctx) {
    MilcSolver solver(ctx, cfg);
    // grid (z,t) 2x2: rank = cz*2 + ct.
    for (int d : {0, 1}) {
      EXPECT_EQ(solver.neighbor(d, +1), ctx.rank()) << "self in unit dims";
    }
    const int ct = ctx.rank() % 2;
    const int cz = ctx.rank() / 2;
    EXPECT_EQ(solver.neighbor(3, +1), cz * 2 + (ct + 1) % 2);
    EXPECT_EQ(solver.neighbor(2, +1), ((cz + 1) % 2) * 2 + ct);
    EXPECT_EQ(solver.neighbor(2, -1), solver.neighbor(2, +1))
        << "wraparound in a 2-wide dim";
    solver.destroy(ctx);
  });
}
