// Collectives over the RDMA substrate: barrier, ibarrier and the data
// collectives, across rank counts and transport configurations.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <utility>

#include "common/instr.hpp"
#include "fabric/fabric.hpp"

using namespace fompi;
using fabric::RankCtx;

class CollParam : public ::testing::TestWithParam<int> {};

TEST_P(CollParam, BarrierSeparatesPhases) {
  const int p = GetParam();
  std::atomic<int> arrived{0};
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    arrived.fetch_add(1);
    ctx.barrier();
    // After the barrier every rank must have arrived.
    EXPECT_EQ(arrived.load(), p);
  });
}

TEST_P(CollParam, RepeatedBarriersStayConsistent) {
  const int p = GetParam();
  std::atomic<std::uint64_t> counter{0};
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    for (int round = 0; round < 50; ++round) {
      counter.fetch_add(1);
      ctx.barrier();
      EXPECT_EQ(counter.load() % static_cast<unsigned>(p), 0u);
      ctx.barrier();
    }
  });
}

TEST_P(CollParam, Bcast) {
  const int p = GetParam();
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    std::vector<std::uint64_t> data(17, 0);
    if (ctx.rank() == 0) std::iota(data.begin(), data.end(), 5);
    ctx.bcast(0, data.data(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) EXPECT_EQ(data[i], 5 + i);
  });
}

TEST_P(CollParam, BcastFromNonZeroRoot) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    int v = ctx.rank() == 1 ? 77 : -1;
    ctx.fabric().coll().bcast(ctx.rank(), 1, &v, 1);
    EXPECT_EQ(v, 77);
  });
}

TEST_P(CollParam, Allgather) {
  const int p = GetParam();
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    const std::array<int, 3> mine{ctx.rank(), ctx.rank() * 10, 7};
    std::vector<int> all(static_cast<std::size_t>(3 * p));
    ctx.allgather(mine.data(), 3, all.data());
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[3 * r + 0], r);
      EXPECT_EQ(all[3 * r + 1], r * 10);
      EXPECT_EQ(all[3 * r + 2], 7);
    }
  });
}

TEST_P(CollParam, AllreduceSumAndMin) {
  const int p = GetParam();
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    const std::uint64_t mine = static_cast<std::uint64_t>(ctx.rank()) + 1;
    std::uint64_t sum = 0;
    ctx.allreduce(&mine, &sum, 1,
                  [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(sum, static_cast<std::uint64_t>(p) * (p + 1) / 2);
    std::uint64_t mn = 0;
    ctx.allreduce(&mine, &mn, 1, [](std::uint64_t a, std::uint64_t b) {
      return std::min(a, b);
    });
    EXPECT_EQ(mn, 1u);
  });
}

TEST_P(CollParam, ReduceScatterBlock) {
  const int p = GetParam();
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    // src[j] = rank + j; column j sums to p*j + p(p-1)/2.
    std::vector<std::uint64_t> src(static_cast<std::size_t>(p));
    for (int j = 0; j < p; ++j) {
      src[static_cast<std::size_t>(j)] =
          static_cast<std::uint64_t>(ctx.rank() + j);
    }
    std::uint64_t out = 0;
    ctx.fabric().coll().reduce_scatter_block(
        ctx.rank(), src.data(), &out, 1,
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    const std::uint64_t expect =
        static_cast<std::uint64_t>(p) * ctx.rank() +
        static_cast<std::uint64_t>(p) * (p - 1) / 2;
    EXPECT_EQ(out, expect);
  });
}

TEST_P(CollParam, Alltoall) {
  const int p = GetParam();
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    std::vector<int> src(static_cast<std::size_t>(2 * p));
    for (int j = 0; j < p; ++j) {
      src[static_cast<std::size_t>(2 * j)] = ctx.rank() * 100 + j;
      src[static_cast<std::size_t>(2 * j + 1)] = -j;
    }
    std::vector<int> dst(static_cast<std::size_t>(2 * p), 0);
    ctx.fabric().coll().alltoall(ctx.rank(), src.data(), std::size_t{2},
                                 dst.data());
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(dst[static_cast<std::size_t>(2 * r)], r * 100 + ctx.rank());
      EXPECT_EQ(dst[static_cast<std::size_t>(2 * r + 1)], -ctx.rank());
    }
  });
}

TEST_P(CollParam, IbarrierCompletesEverywhere) {
  const int p = GetParam();
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    auto& coll = ctx.fabric().coll();
    for (int round = 0; round < 5; ++round) {
      coll.ibarrier_begin(ctx.rank());
      int polls = 0;
      while (!coll.ibarrier_test(ctx.rank())) {
        ++polls;
        ctx.yield_check();
      }
      (void)polls;
      ctx.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollParam,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16));

TEST(Collectives, IbarrierDoubleBeginRejected) {
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    auto& coll = ctx.fabric().coll();
    if (ctx.rank() == 0) {
      coll.ibarrier_begin(0);
      EXPECT_THROW(coll.ibarrier_begin(0), Error);
      while (!coll.ibarrier_test(0)) ctx.yield_check();
    } else {
      coll.ibarrier_begin(1);
      while (!coll.ibarrier_test(1)) ctx.yield_check();
    }
  });
}

TEST(Collectives, BarrierWorksOverInterNodeModel) {
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  opts.domain.inject = rdma::Injection::model;
  fabric::run_ranks(4, [&](RankCtx& ctx) {
    for (int i = 0; i < 3; ++i) ctx.barrier();
  }, opts);
}

// --- one rank per node -----------------------------------------------------
// ranks_per_node = 1 makes every rank its own node, so every collective
// runs its tree over the inter-node transport with no member groups.

namespace {

fabric::FabricOptions tree_opts() {
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  return opts;
}

/// Drives every data collective once and checks the results; shared by
/// the one-rank-per-node, single-node, hierarchical and deferred-delivery
/// suites.
void exercise_all_collectives(RankCtx& ctx) {
  auto& coll = ctx.fabric().coll();
  const int p = ctx.nranks();
  const int r = ctx.rank();

  // bcast, small and large (large crosses the landing-grow path), from
  // rank 0 and from the last rank.
  for (const int root : {0, p - 1}) {
    std::vector<std::uint64_t> data(1200, 0);
    if (r == root) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = 900 + i;
      }
    }
    coll.bcast(r, root, data.data(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(data[i], 900 + i) << "root " << root;
    }
  }

  // allgather.
  std::vector<std::uint64_t> mine(5);
  for (std::size_t i = 0; i < mine.size(); ++i) {
    mine[i] = static_cast<std::uint64_t>(r) * 100 + i;
  }
  std::vector<std::uint64_t> all(static_cast<std::size_t>(p) * 5);
  coll.allgather(r, mine.data(), mine.size(), all.data());
  for (int j = 0; j < p; ++j) {
    for (std::size_t i = 0; i < 5; ++i) {
      ASSERT_EQ(all[static_cast<std::size_t>(j) * 5 + i],
                static_cast<std::uint64_t>(j) * 100 + i);
    }
  }

  // allreduce: sum of doubles (order-sensitive enough to catch fold
  // mistakes bit-wise across ranks) and min of u64.
  {
    std::vector<double> src(7), dst(7);
    for (std::size_t i = 0; i < src.size(); ++i) {
      src[i] = static_cast<double>(r + 1) * (static_cast<double>(i) + 0.5);
    }
    coll.allreduce(r, src.data(), dst.data(), src.size(),
                   [](double a, double b) { return a + b; });
    const double ranksum = static_cast<double>(p) * (p + 1) / 2;
    for (std::size_t i = 0; i < dst.size(); ++i) {
      ASSERT_NEAR(dst[i], ranksum * (static_cast<double>(i) + 0.5), 1e-9);
    }
  }

  // reduce to a non-zero root (commutative op).
  {
    const std::uint64_t v = static_cast<std::uint64_t>(r) + 1;
    std::uint64_t out = 0;
    const int root = p / 2;
    coll.reduce(r, root, &v, &out, 1,
                [](std::uint64_t a, std::uint64_t b) { return a + b; });
    if (r == root) {
      ASSERT_EQ(out, static_cast<std::uint64_t>(p) * (p + 1) / 2);
    }
  }

  // reduce_scatter_block.
  {
    std::vector<std::uint64_t> src(static_cast<std::size_t>(p));
    for (int j = 0; j < p; ++j) {
      src[static_cast<std::size_t>(j)] = static_cast<std::uint64_t>(r + j);
    }
    std::uint64_t out = 0;
    coll.reduce_scatter_block(
        r, src.data(), &out, 1,
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    ASSERT_EQ(out, static_cast<std::uint64_t>(p) * r +
                       static_cast<std::uint64_t>(p) * (p - 1) / 2);
  }

  // alltoall (direct put + arrival counter), small and large blocks.
  for (const std::size_t n : {std::size_t{2}, std::size_t{300}}) {
    std::vector<std::uint64_t> src(static_cast<std::size_t>(p) * n);
    for (int j = 0; j < p; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        src[static_cast<std::size_t>(j) * n + i] =
            static_cast<std::uint64_t>(r) * 1000000 +
            static_cast<std::uint64_t>(j) * 1000 + i;
      }
    }
    std::vector<std::uint64_t> dst(static_cast<std::size_t>(p) * n, 0);
    coll.alltoall(r, src.data(), n, dst.data());
    for (int j = 0; j < p; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst[static_cast<std::size_t>(j) * n + i],
                  static_cast<std::uint64_t>(j) * 1000000 +
                      static_cast<std::uint64_t>(r) * 1000 + i)
            << "n=" << n;
      }
    }
  }

  // alltoallv with skewed counts including zeros: rank r sends (r + j) % 3
  // elements to rank j.
  {
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(p));
    std::vector<std::uint64_t> sdispls(static_cast<std::size_t>(p));
    std::uint64_t tot = 0;
    for (int j = 0; j < p; ++j) {
      counts[static_cast<std::size_t>(j)] =
          static_cast<std::uint64_t>((r + j) % 3);
      sdispls[static_cast<std::size_t>(j)] = tot;
      tot += counts[static_cast<std::size_t>(j)];
    }
    std::vector<std::uint64_t> src(std::max<std::uint64_t>(tot, 1));
    for (int j = 0; j < p; ++j) {
      for (std::uint64_t i = 0; i < counts[static_cast<std::size_t>(j)];
           ++i) {
        src[sdispls[static_cast<std::size_t>(j)] + i] =
            static_cast<std::uint64_t>(r) * 1000 +
            static_cast<std::uint64_t>(j) * 10 + i;
      }
    }
    std::vector<std::uint64_t> dst, recvcounts, rdispls;
    coll.alltoallv(r, src.data(), counts.data(), sdispls.data(), dst,
                   recvcounts, rdispls);
    for (int j = 0; j < p; ++j) {
      ASSERT_EQ(recvcounts[static_cast<std::size_t>(j)],
                static_cast<std::uint64_t>((j + r) % 3));
      for (std::uint64_t i = 0; i < recvcounts[static_cast<std::size_t>(j)];
           ++i) {
        ASSERT_EQ(dst[rdispls[static_cast<std::size_t>(j)] + i],
                  static_cast<std::uint64_t>(j) * 1000 +
                      static_cast<std::uint64_t>(r) * 10 + i);
      }
    }
  }
}

}  // namespace

class TreeColl : public ::testing::TestWithParam<int> {};

TEST_P(TreeColl, AllDataCollectivesOverForcedTrees) {
  fabric::run_ranks(GetParam(),
                    [](RankCtx& ctx) { exercise_all_collectives(ctx); },
                    tree_opts());
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TreeColl,
                         ::testing::Values(2, 3, 5, 7, 12, 16));

TEST(TreeColl, WorksUnderGeminiModel) {
  auto opts = tree_opts();
  opts.domain.inject = rdma::Injection::model;
  fabric::run_ranks(4, [](RankCtx& ctx) { exercise_all_collectives(ctx); },
                    opts);
}

TEST(TreeColl, WorksOnOneNodeUnderGeminiModel) {
  // A single-node domain runs the same trees over the intra-node
  // transport, tiny payloads included.
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 0;
  opts.domain.inject = rdma::Injection::model;
  fabric::run_ranks(4, [](RankCtx& ctx) { exercise_all_collectives(ctx); },
                    opts);
}

TEST(TreeColl, OneRankPerNodeRunsNoMemberGroups) {
  // At one rank per node the two-tier allgather and allreduce are the flat
  // Bruck and recursive doubling at p = 4: a leading barrier and two
  // rounds, each a blocking data put plus a blocking flag put (2 + 2 * 2
  // puts), no doorbell and no gsync. An empty member gather or release
  // group would still gsync.
  fabric::run_ranks(
      4,
      [](RankCtx& ctx) {
        auto& coll = ctx.fabric().coll();
        const int r = ctx.rank();
        EXPECT_FALSE(coll.hierarchical());
        const std::uint64_t mine = static_cast<std::uint64_t>(r) + 1;
        std::uint64_t all[4] = {};
        OpCounters before = op_counters();
        coll.allgather(r, &mine, 1, all);
        OpCounters d = op_counters().since(before);
        EXPECT_EQ(d.get(Op::transport_put), 6u) << "allgather, rank " << r;
        EXPECT_EQ(d.get(Op::doorbell_ring), 0u) << "allgather, rank " << r;
        EXPECT_EQ(d.get(Op::bulk_sync), 0u) << "allgather, rank " << r;
        for (int j = 0; j < 4; ++j) {
          EXPECT_EQ(all[j], static_cast<std::uint64_t>(j) + 1);
        }
        std::uint64_t sum = 0;
        before = op_counters();
        coll.allreduce(r, &mine, &sum, 1,
                       [](std::uint64_t a, std::uint64_t b) { return a + b; });
        d = op_counters().since(before);
        EXPECT_EQ(d.get(Op::transport_put), 6u) << "allreduce, rank " << r;
        EXPECT_EQ(d.get(Op::doorbell_ring), 0u) << "allreduce, rank " << r;
        EXPECT_EQ(d.get(Op::bulk_sync), 0u) << "allreduce, rank " << r;
        EXPECT_EQ(sum, 10u);
      },
      tree_opts());
}

TEST(TreeColl, WorksUnderShuffledDeferredDelivery) {
  // Deferred + shuffled delivery is the adversarial ordering model: data
  // may land out of order, so the gsync-then-flag protocol is load-bearing.
  auto opts = tree_opts();
  opts.domain.delivery = rdma::Delivery::deferred;
  opts.domain.shuffle_deferred = true;
  fabric::run_ranks(5, [](RankCtx& ctx) { exercise_all_collectives(ctx); },
                    opts);
}

// --- two-tier hierarchy (PR 7) ----------------------------------------------

class HierColl : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(HierColl, AllDataCollectivesOverTwoTierTrees) {
  const auto [p, rpn] = GetParam();
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = rpn;
  fabric::run_ranks(p,
                    [&](RankCtx& ctx) {
                      EXPECT_TRUE(ctx.fabric().coll().hierarchical());
                      exercise_all_collectives(ctx);
                    },
                    opts);
}

INSTANTIATE_TEST_SUITE_P(Shapes, HierColl,
                         ::testing::Values(std::make_pair(8, 2),
                                           std::make_pair(12, 4),
                                           std::make_pair(16, 4)));

// --- persistent collectives (PR 7) -------------------------------------------

TEST(PersistentColl, AlltoallvPlanMatchesAdHocAndIsReusable) {
  const int p = 4;
  fabric::run_ranks(
      p,
      [&](RankCtx& ctx) {
        auto& coll = ctx.fabric().coll();
        const int r = ctx.rank();
        std::vector<std::uint64_t> counts(static_cast<std::size_t>(p));
        std::vector<std::uint64_t> sdispls(static_cast<std::size_t>(p));
        std::uint64_t tot = 0;
        for (int j = 0; j < p; ++j) {
          counts[static_cast<std::size_t>(j)] =
              static_cast<std::uint64_t>((r + j) % 3 + 1);
          sdispls[static_cast<std::size_t>(j)] = tot;
          tot += counts[static_cast<std::size_t>(j)];
        }
        auto plan = coll.plan_alltoallv(r, counts.data(), sdispls.data(),
                                        sizeof(std::uint64_t));
        for (int round = 0; round < 4; ++round) {
          std::vector<std::uint64_t> src(tot);
          for (std::uint64_t i = 0; i < tot; ++i) {
            src[i] = static_cast<std::uint64_t>(r) * 10000 +
                     static_cast<std::uint64_t>(round) * 100 + i;
          }
          // Reference via the ad-hoc path.
          std::vector<std::uint64_t> want, recvcounts, rdispls;
          coll.alltoallv(r, src.data(), counts.data(), sdispls.data(), want,
                         recvcounts, rdispls);
          std::vector<std::uint64_t> got(want.size(), 0);
          coll.run_alltoallv(r, *plan, src.data(), got.data());
          EXPECT_EQ(got, want) << "round " << round;
        }
        ctx.barrier();
      },
      tree_opts());
}

TEST(PersistentColl, AllreducePlanMatchesAdHocAndIsReusable) {
  const int p = 6;
  fabric::run_ranks(
      p,
      [&](RankCtx& ctx) {
        auto& coll = ctx.fabric().coll();
        const int r = ctx.rank();
        constexpr std::size_t n = 9;
        auto plan = coll.plan_allreduce(r, n, sizeof(double));
        for (int round = 0; round < 4; ++round) {
          std::vector<double> src(n), want(n), got(n);
          for (std::size_t i = 0; i < n; ++i) {
            src[i] = static_cast<double>(r + 1) *
                     (static_cast<double>(i) + 0.25 * (round + 1));
          }
          coll.allreduce(r, src.data(), want.data(), n,
                         [](double a, double b) { return a + b; });
          coll.run_allreduce(r, *plan, src.data(), got.data(),
                             [](double a, double b) { return a + b; });
          EXPECT_EQ(got, want) << "round " << round;  // bit-identical fold
        }
        ctx.barrier();
      },
      tree_opts());
}

TEST(PersistentColl, SteadyStateRunsAreAllocationFree) {
  // After a warm-up run, repeated run_alltoallv/run_allreduce must not
  // grow any NIC pool or register new regions: the plan owns all state.
  const int p = 4;
  fabric::run_ranks(
      p,
      [&](RankCtx& ctx) {
        auto& coll = ctx.fabric().coll();
        auto& reg = ctx.fabric().domain().registry();
        const int r = ctx.rank();
        std::vector<std::uint64_t> counts(static_cast<std::size_t>(p), 3);
        std::vector<std::uint64_t> sdispls(static_cast<std::size_t>(p));
        for (int j = 0; j < p; ++j) {
          sdispls[static_cast<std::size_t>(j)] =
              static_cast<std::uint64_t>(j) * 3;
        }
        auto a2av = coll.plan_alltoallv(r, counts.data(), sdispls.data(),
                                        sizeof(std::uint64_t));
        auto ar = coll.plan_allreduce(r, 4, sizeof(std::uint64_t));
        std::vector<std::uint64_t> src(static_cast<std::size_t>(p) * 3, 1);
        std::vector<std::uint64_t> dst(static_cast<std::size_t>(p) * 3, 0);
        std::uint64_t rs[4] = {1, 2, 3, 4}, rd[4];
        coll.run_alltoallv(r, *a2av, src.data(), dst.data());
        coll.run_allreduce(r, *ar, rs, rd,
                           [](std::uint64_t a, std::uint64_t b) {
                             return a + b;
                           });
        ctx.barrier();
        const std::size_t live_before = reg.live_count();
        const OpCounters before = op_counters();
        for (int round = 0; round < 8; ++round) {
          coll.run_alltoallv(r, *a2av, src.data(), dst.data());
          coll.run_allreduce(r, *ar, rs, rd,
                             [](std::uint64_t a, std::uint64_t b) {
                               return a + b;
                             });
        }
        const OpCounters delta = op_counters().since(before);
        EXPECT_EQ(delta.get(Op::pool_grow), 0u)
            << "steady-state persistent runs must not allocate";
        ctx.barrier();
        EXPECT_EQ(reg.live_count(), live_before)
            << "steady-state persistent runs must not register regions";
      },
      tree_opts());
}

TEST(Collectives, AbortPropagatesOutOfBarrier) {
  EXPECT_THROW(
      fabric::run_ranks(2,
                        [&](RankCtx& ctx) {
                          if (ctx.rank() == 0) {
                            raise(ErrClass::arg, "rank 0 fails");
                          }
                          ctx.barrier();  // rank 1 must not hang
                        }),
      Error);
}
