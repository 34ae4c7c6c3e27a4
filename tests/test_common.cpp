// Unit tests for the common utilities.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/backoff.hpp"
#include "common/buffer.hpp"
#include "common/error.hpp"
#include "common/instr.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"
#include "rdma/nic.hpp"

using namespace fompi;

TEST(Error, CarriesClassAndMessage) {
  try {
    raise(ErrClass::rma_range, "out of bounds");
    FAIL() << "raise did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.err_class(), ErrClass::rma_range);
    EXPECT_NE(std::string(e.what()).find("out of bounds"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("FOMPI_ERR_RMA_RANGE"),
              std::string::npos);
  }
}

TEST(Error, RequireMacroPassesAndFails) {
  EXPECT_NO_THROW(FOMPI_REQUIRE(1 + 1 == 2, ErrClass::arg, "fine"));
  EXPECT_THROW(FOMPI_REQUIRE(false, ErrClass::arg, "bad"), Error);
}

TEST(Error, AllClassesHaveNames) {
  for (int i = 0; i <= static_cast<int>(ErrClass::no_mem); ++i) {
    EXPECT_NE(std::string(to_string(static_cast<ErrClass>(i))),
              "FOMPI_ERR_UNKNOWN");
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Rng a2(7), c2(8);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng r(123);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(r.below(bound), bound);
    }
  }
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowCoversSmallRange) {
  Rng r(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(r.below(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Timing, SpinForApproximatelyRightDuration) {
  Timer t;
  spin_for_ns(2'000'000);  // 2 ms
  EXPECT_GE(t.elapsed_ns(), 2'000'000u);
}

TEST(Timing, SummarizeStats) {
  std::vector<double> v{5, 1, 3, 2, 4};
  const Stats s = summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  std::vector<double> even{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(summarize(even).median, 2.5);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(summarize(empty).mean, 0);
}

TEST(Instr, CountersAccumulateAndDiff) {
  op_counters().reset();
  count(Op::transport_put);
  count(Op::transport_put);
  count(Op::bytes_copied, 64);
  const OpCounters snap = op_counters();
  count(Op::transport_get);
  const OpCounters d = op_counters().since(snap);
  EXPECT_EQ(d.get(Op::transport_get), 1u);
  EXPECT_EQ(d.get(Op::transport_put), 0u);
  EXPECT_EQ(op_counters().get(Op::transport_put), 2u);
  EXPECT_EQ(op_counters().get(Op::bytes_copied), 64u);
}

TEST(Instr, TotalOpsExcludesBytes) {
  op_counters().reset();
  count(Op::local_atomic, 3);
  count(Op::bytes_copied, 4096);
  EXPECT_EQ(op_counters().total_ops(), 3u);
}

TEST(Instr, CountersAreThreadLocal) {
  op_counters().reset();
  count(Op::retry, 5);
  std::thread t([] {
    op_counters().reset();
    count(Op::retry, 1);
    EXPECT_EQ(op_counters().get(Op::retry), 1u);
  });
  t.join();
  EXPECT_EQ(op_counters().get(Op::retry), 5u);
}

TEST(Buffer, AlignedAndZeroed) {
  AlignedBuffer buf(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kCacheLine, 0u);
  EXPECT_EQ(buf.size(), 100u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(std::to_integer<int>(buf.data()[i]), 0);
  }
}

TEST(Buffer, MoveCarriesTheMapping) {
  // The length travels with the mapping: the destination unmaps all of it,
  // and the moved-from buffer is empty.
  AlignedBuffer a(3 * 4096 + 100);
  a.data()[3 * 4096] = std::byte{7};
  AlignedBuffer b(std::move(a));
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b.size(), 3u * 4096 + 100);
  EXPECT_EQ(b.data()[3 * 4096], std::byte{7});
  AlignedBuffer c(64);
  c = std::move(b);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 3u * 4096 + 100);
  EXPECT_EQ(c.data()[3 * 4096], std::byte{7});
}

TEST(Buffer, EmptyBufferIsSafe) {
  AlignedBuffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  AlignedBuffer zero(0);
  EXPECT_TRUE(zero.empty());
}

TEST(Backoff, GrowsAndResets) {
  // A back-off is stepped only through the domain: each step counts one
  // Op::retry and polls the progress hook once, before and after a reset.
  rdma::Domain dom(rdma::DomainConfig{});
  int hooks = 0;
  dom.set_progress_hook([](void* n) { ++*static_cast<int*>(n); }, &hooks);
  Backoff b(16);
  op_counters().reset();
  for (int i = 0; i < 10; ++i) dom.backoff_step(b);
  EXPECT_EQ(op_counters().get(Op::retry), 10u);
  EXPECT_EQ(hooks, 10);
  b.reset();
  dom.backoff_step(b);
  EXPECT_EQ(op_counters().get(Op::retry), 11u);
  EXPECT_EQ(hooks, 11);
}
