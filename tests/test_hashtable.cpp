// Distributed hashtable: all three backends agree, chains survive
// collisions, concurrency keeps counts exact.
#include <gtest/gtest.h>

#include <set>

#include "apps/hashtable.hpp"
#include "common/rng.hpp"

using namespace fompi;
using apps::DistHashtable;
using apps::HtBackend;
using fabric::RankCtx;

class HtBackends : public ::testing::TestWithParam<HtBackend> {};

TEST_P(HtBackends, BatchInsertCountsExactly) {
  const int p = 4;
  const int per_rank = 64;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    DistHashtable ht(ctx, GetParam(), 128, 512);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < per_rank; ++i) {
      keys.push_back(
          static_cast<std::uint64_t>(ctx.rank()) * 100000 + i + 1);
    }
    ht.batch_insert(ctx, keys);
    EXPECT_EQ(ht.global_count(ctx), static_cast<std::uint64_t>(p * per_rank));
    ht.destroy(ctx);
  });
}

TEST_P(HtBackends, DuplicatesNotDoubleCounted) {
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    DistHashtable ht(ctx, GetParam(), 64, 128);
    // Both ranks insert the same keys.
    std::vector<std::uint64_t> keys{11, 22, 33};
    ht.batch_insert(ctx, keys);
    // Each key stored at most twice (one table slot + possibly one
    // duplicate in a chain is avoided by the CAS-on-same-key check).
    EXPECT_LE(ht.global_count(ctx), 6u);
    EXPECT_GE(ht.global_count(ctx), 3u);
    ht.destroy(ctx);
  });
}

TEST_P(HtBackends, CollisionsSpillToOverflowChain) {
  // A single-slot table forces every insert through the overflow path.
  const int p = 3;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    DistHashtable ht(ctx, GetParam(), 1, 256);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 20; ++i) {
      keys.push_back(static_cast<std::uint64_t>(ctx.rank()) * 1000 + i + 1);
    }
    ht.batch_insert(ctx, keys);
    EXPECT_EQ(ht.global_count(ctx), static_cast<std::uint64_t>(20 * p));
    ht.destroy(ctx);
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, HtBackends,
                         ::testing::Values(HtBackend::rma, HtBackend::pgas,
                                           HtBackend::p2p));

TEST(Hashtable, ContainsFindsAllInsertedKeys) {
  fabric::run_ranks(4, [](RankCtx& ctx) {
    DistHashtable ht(ctx, HtBackend::rma, 32, 512);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 50; ++i) {
      keys.push_back(static_cast<std::uint64_t>(ctx.rank()) * 777 + i + 1);
    }
    ht.batch_insert(ctx, keys);
    for (const auto k : keys) {
      EXPECT_TRUE(ht.contains(k)) << "missing key " << k;
    }
    EXPECT_FALSE(ht.contains(0xdead0001));
    ctx.barrier();
    ht.destroy(ctx);
  });
}

TEST(Hashtable, RandomKeysAcrossOwners) {
  const int p = 4;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    DistHashtable ht(ctx, HtBackend::rma, 256, 2048);
    Rng rng(static_cast<std::uint64_t>(ctx.rank()) + 1);
    std::set<std::uint64_t> mine;
    while (mine.size() < 100) mine.insert(rng.next() | 1);
    std::vector<std::uint64_t> keys(mine.begin(), mine.end());
    ht.batch_insert(ctx, keys);
    // Collisions across ranks are possible in principle but the 64-bit
    // space makes duplicates vanishingly unlikely: counts must add up.
    EXPECT_EQ(ht.global_count(ctx), static_cast<std::uint64_t>(100 * p));
    for (const auto k : keys) EXPECT_TRUE(ht.contains(k));
    ctx.barrier();
    ht.destroy(ctx);
  });
}

TEST(Hashtable, HeapExhaustionRaises) {
  EXPECT_THROW(
      fabric::run_ranks(2,
                        [](RankCtx& ctx) {
                          DistHashtable ht(ctx, HtBackend::rma, 1, 2);
                          std::vector<std::uint64_t> keys;
                          for (int i = 0; i < 32; ++i) {
                            keys.push_back(
                                static_cast<std::uint64_t>(ctx.rank()) * 100 +
                                i + 1);
                          }
                          ht.batch_insert(ctx, keys);
                          ht.destroy(ctx);
                        }),
      Error);
}

TEST(Hashtable, ZeroKeyRejected) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    DistHashtable ht(ctx, HtBackend::rma, 8, 8);
    if (ctx.rank() == 0) {
      std::vector<std::uint64_t> keys{0};
      EXPECT_THROW(ht.batch_insert(ctx, keys), Error);
    }
    // Note: rank 1 skips the collective too (the throw is pre-comm).
    ht.destroy(ctx);
  });
}

TEST(Hashtable, LookupParityAcrossBackends) {
  // The same key set through every remote-capable backend: contains()
  // agrees on hits AND misses everywhere.
  const int p = 3;
  std::vector<std::uint64_t> probes;
  for (int r = 0; r < p; ++r) {
    for (int i = 0; i < 24; ++i) {
      probes.push_back(static_cast<std::uint64_t>(r) * 555 + i + 1);
    }
  }
  for (int i = 0; i < 8; ++i) probes.push_back(0x5eed0000ull + i);  // misses
  std::vector<std::vector<bool>> answers;
  for (HtBackend b : {HtBackend::rma, HtBackend::pgas}) {
    std::vector<bool> ans;
    fabric::run_ranks(p, [&](RankCtx& ctx) {
      DistHashtable ht(ctx, b, 16, 512);
      std::vector<std::uint64_t> keys;
      for (int i = 0; i < 24; ++i) {
        keys.push_back(static_cast<std::uint64_t>(ctx.rank()) * 555 + i + 1);
      }
      ht.batch_insert(ctx, keys);
      if (ctx.rank() == 0) {
        for (const std::uint64_t k : probes) ans.push_back(ht.contains(k));
      }
      ctx.barrier();
      ht.destroy(ctx);
    });
    answers.push_back(std::move(ans));
  }
  ASSERT_EQ(answers.size(), 2u);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const bool expect_hit = i < static_cast<std::size_t>(p) * 24;
    for (std::size_t b = 0; b < answers.size(); ++b) {
      ASSERT_EQ(answers[b].size(), probes.size());
      EXPECT_EQ(answers[b][i], expect_hit)
          << "backend " << b << " disagrees on probe " << probes[i];
    }
  }
}

TEST(Hashtable, BackendsProduceIdenticalMembership) {
  // Same keys through rma and pgas: identical global counts.
  const int p = 3;
  std::array<std::uint64_t, 2> counts{};
  int idx = 0;
  for (HtBackend b : {HtBackend::rma, HtBackend::pgas}) {
    fabric::run_ranks(p, [&](RankCtx& ctx) {
      DistHashtable ht(ctx, b, 16, 256);
      std::vector<std::uint64_t> keys;
      for (int i = 0; i < 40; ++i) {
        keys.push_back(static_cast<std::uint64_t>(ctx.rank()) * 55 + i + 1);
      }
      ht.batch_insert(ctx, keys);
      if (ctx.rank() == 0) counts[static_cast<std::size_t>(idx)] =
          ht.global_count(ctx);
      else ht.global_count(ctx);
      ht.destroy(ctx);
    });
    ++idx;
  }
  EXPECT_EQ(counts[0], counts[1]);
}
