// Unit tests for the RDMA substrate: registration, AMOs, the simulated NIC
// in all delivery/injection modes, the network model, and the issue fast
// path (rkey cache epochs, pooled completion handles, zero-alloc steady
// state).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "common/instr.hpp"
#include "common/timing.hpp"
#include "fabric/fabric.hpp"
#include "rdma/network_model.hpp"
#include "rdma/nic.hpp"
#include "trace/trace.hpp"

using namespace fompi;
using namespace fompi::rdma;

namespace {

DomainConfig two_rank_internode() {
  DomainConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 1;  // force the "DMAPP" path
  return cfg;
}

/// RAII thread binding so a failing ASSERT cannot leak a bound ring into
/// later tests.
struct TraceBind {
  explicit TraceBind(trace::Ring* r) { trace::bind_thread(r); }
  ~TraceBind() { trace::bind_thread(nullptr); }
};

/// dur_ns of the first issue event of class `cls` recorded at or after
/// ring index `from` (the op's modeled latency).
std::uint64_t issue_dur(trace::Ring& ring, std::size_t from,
                        trace::EvClass cls) {
  trace::flush_thread();
  for (std::size_t i = from; i < ring.size(); ++i) {
    if (ring[i].cls == cls && ring[i].phase == trace::EvPhase::issue) {
      return ring[i].dur_ns;
    }
  }
  ADD_FAILURE() << "no issue event of class " << trace::to_string(cls);
  return 0;
}

}  // namespace

// --- registration ------------------------------------------------------------

TEST(Region, RegisterResolveDeregister) {
  RegionRegistry reg;
  AlignedBuffer mem(256);
  const RegionDesc d = reg.register_region(3, mem.data(), 256);
  EXPECT_EQ(d.owner, 3);
  EXPECT_EQ(d.size, 256u);
  EXPECT_NE(d.rkey, 0u);
  EXPECT_EQ(reg.resolve(d.rkey, 3, 0, 256), mem.data());
  EXPECT_EQ(reg.resolve(d.rkey, 3, 16, 8), mem.data() + 16);
  reg.deregister(d.rkey);
  EXPECT_EQ(reg.live_count(), 0u);
  EXPECT_THROW(reg.resolve(d.rkey, 3, 0, 8), Error);
}

TEST(Region, RejectsOutOfRangeAccess) {
  RegionRegistry reg;
  AlignedBuffer mem(64);
  const RegionDesc d = reg.register_region(0, mem.data(), 64);
  EXPECT_THROW(reg.resolve(d.rkey, 0, 60, 8), Error);
  EXPECT_THROW(reg.resolve(d.rkey, 0, 65, 0), Error);
  EXPECT_NO_THROW(reg.resolve(d.rkey, 0, 56, 8));
  EXPECT_NO_THROW(reg.resolve(d.rkey, 0, 64, 0));
}

TEST(Region, RejectsWrongOwner) {
  RegionRegistry reg;
  AlignedBuffer mem(64);
  const RegionDesc d = reg.register_region(1, mem.data(), 64);
  EXPECT_THROW(reg.resolve(d.rkey, 2, 0, 8), Error);
}

TEST(Region, RejectsDoubleDeregister) {
  RegionRegistry reg;
  AlignedBuffer mem(64);
  const RegionDesc d = reg.register_region(0, mem.data(), 64);
  reg.deregister(d.rkey);
  EXPECT_THROW(reg.deregister(d.rkey), Error);
}

// --- AMO ALU --------------------------------------------------------------------

TEST(Amo, FetchAddReturnsOld) {
  alignas(8) std::uint64_t word = 10;
  EXPECT_EQ(apply_amo(&word, AmoOp::fetch_add, 5, 0), 10u);
  EXPECT_EQ(word, 15u);
}

TEST(Amo, BitwiseOps) {
  alignas(8) std::uint64_t word = 0b1100;
  EXPECT_EQ(apply_amo(&word, AmoOp::fetch_and, 0b1010, 0), 0b1100u);
  EXPECT_EQ(word, 0b1000u);
  apply_amo(&word, AmoOp::fetch_or, 0b0011, 0);
  EXPECT_EQ(word, 0b1011u);
  apply_amo(&word, AmoOp::fetch_xor, 0b1111, 0);
  EXPECT_EQ(word, 0b0100u);
}

TEST(Amo, SwapAndRead) {
  alignas(8) std::uint64_t word = 42;
  EXPECT_EQ(apply_amo(&word, AmoOp::swap, 7, 0), 42u);
  EXPECT_EQ(apply_amo(&word, AmoOp::read, 0, 0), 7u);
  EXPECT_EQ(word, 7u);
}

TEST(Amo, CasSucceedsAndFails) {
  alignas(8) std::uint64_t word = 5;
  EXPECT_EQ(apply_amo(&word, AmoOp::cas, 9, 5), 5u);  // matched: swapped
  EXPECT_EQ(word, 9u);
  EXPECT_EQ(apply_amo(&word, AmoOp::cas, 1, 5), 9u);  // mismatched: untouched
  EXPECT_EQ(word, 9u);
}

TEST(Amo, RejectsMisalignedTarget) {
  alignas(8) std::uint64_t words[2] = {0, 0};
  auto* misaligned = reinterpret_cast<std::byte*>(words) + 4;
  EXPECT_THROW(apply_amo(misaligned, AmoOp::fetch_add, 1, 0), Error);
}

// --- network model ----------------------------------------------------------------

TEST(NetworkModel, LatencyIsMonotoneInSize) {
  NetworkModel m;
  double prev = 0;
  for (std::size_t s = 8; s <= (1u << 20); s *= 2) {
    const double t = m.put_latency_ns(s);
    EXPECT_GT(t, 0.0);
    if (s > static_cast<std::size_t>(m.bte_threshold) * 2) {
      EXPECT_GT(t, prev);
    }
    prev = t;
  }
}

TEST(NetworkModel, MatchesPaperConstantsAtAnchors) {
  NetworkModel m;
  // P_put ≈ 1us small, P_get ≈ 1.9us small (Sec 3.1).
  EXPECT_NEAR(m.put_latency_ns(8), 1000.0, 150.0);
  EXPECT_NEAR(m.get_latency_ns(8), 1900.0, 150.0);
  EXPECT_NEAR(m.amo_latency_ns(), 2400.0, 1.0);
  // Large-message bandwidth close to the 0.145-0.17 ns/B regime.
  const double per_byte =
      (m.put_latency_ns(1 << 22) - m.put_latency_ns(1 << 21)) / (1 << 21);
  EXPECT_NEAR(per_byte, 0.145, 0.03);
}

TEST(NetworkModel, ProtocolChangeVisible) {
  NetworkModel m;
  // The FMA->BTE switch is a kink in the curve (the Fig 4a annotation):
  // extrapolating the FMA line past the threshold must disagree with the
  // actual BTE cost, and the per-byte slope must change across it.
  const std::size_t th = m.bte_threshold;
  const double fma_slope =
      (m.put_latency_ns(th - 64) - m.put_latency_ns(th - 128)) / 64.0;
  const double bte_slope =
      (m.put_latency_ns(2 * th) - m.put_latency_ns(2 * th - 64)) / 64.0;
  EXPECT_GT(std::abs(fma_slope - bte_slope), 1e-3);
  const double fma_extrapolated =
      m.put_latency_ns(th - 64) + fma_slope * 64.0;
  EXPECT_NE(fma_extrapolated, m.put_latency_ns(th));
  // BTE amortizes its setup: by 4x the threshold it must win over the
  // extrapolated FMA cost.
  const double fma_far = m.put_latency_ns(th - 64) +
                         fma_slope * static_cast<double>(3 * th + 64);
  EXPECT_LT(m.put_latency_ns(4 * th), fma_far);
}

// --- NIC data movement ---------------------------------------------------------------

class NicModes : public ::testing::TestWithParam<std::tuple<Delivery, bool>> {
};

TEST_P(NicModes, PutGetRoundtrip) {
  DomainConfig cfg = two_rank_internode();
  cfg.delivery = std::get<0>(GetParam());
  cfg.shuffle_deferred = std::get<1>(GetParam());
  Domain dom(cfg);
  AlignedBuffer mem(256);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 256);

  std::vector<std::uint8_t> src(64);
  std::iota(src.begin(), src.end(), 1);
  Nic& nic = dom.nic(0);
  nic.put(1, d, 32, src.data(), src.size());
  std::vector<std::uint8_t> back(64, 0);
  nic.get(1, d, 32, back.data(), back.size());
  EXPECT_EQ(back, src);
}

TEST_P(NicModes, ImplicitOpsCompleteAtGsync) {
  DomainConfig cfg = two_rank_internode();
  cfg.delivery = std::get<0>(GetParam());
  cfg.shuffle_deferred = std::get<1>(GetParam());
  Domain dom(cfg);
  AlignedBuffer mem(1024);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 1024);
  Nic& nic = dom.nic(0);
  std::vector<std::uint64_t> vals(16);
  std::iota(vals.begin(), vals.end(), 100);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    nic.put_nbi(1, d, i * 8, &vals[i], 8);
  }
  EXPECT_GT(nic.outstanding(), 0u);
  nic.gsync();
  EXPECT_EQ(nic.outstanding(), 0u);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    std::uint64_t v = 0;
    std::memcpy(&v, mem.data() + i * 8, 8);
    EXPECT_EQ(v, vals[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, NicModes,
    ::testing::Values(std::make_tuple(Delivery::immediate, false),
                      std::make_tuple(Delivery::deferred, false),
                      std::make_tuple(Delivery::deferred, true)));

TEST(Nic, DeferredPutInvisibleUntilCompletion) {
  DomainConfig cfg = two_rank_internode();
  cfg.delivery = Delivery::deferred;
  Domain dom(cfg);
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);
  Nic& nic = dom.nic(0);
  const std::uint64_t v = 0xdeadbeef;
  const Handle h = nic.put_nb(1, d, 0, &v, 8);
  std::uint64_t seen = 0;
  std::memcpy(&seen, mem.data(), 8);
  EXPECT_EQ(seen, 0u) << "deferred put leaked before completion";
  nic.wait(h);
  std::memcpy(&seen, mem.data(), 8);
  EXPECT_EQ(seen, v);
}

TEST(Nic, DeferredSourceBufferReusableAfterIssue) {
  // The NIC stages the payload at issue, so mutating the source afterwards
  // must not change what lands at the target.
  DomainConfig cfg = two_rank_internode();
  cfg.delivery = Delivery::deferred;
  Domain dom(cfg);
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);
  Nic& nic = dom.nic(0);
  std::uint64_t v = 111;
  const Handle h = nic.put_nb(1, d, 0, &v, 8);
  v = 222;
  nic.wait(h);
  std::uint64_t seen = 0;
  std::memcpy(&seen, mem.data(), 8);
  EXPECT_EQ(seen, 111u);
}

TEST(Nic, ExplicitHandleSurvivesGsync) {
  DomainConfig cfg = two_rank_internode();
  cfg.delivery = Delivery::deferred;
  Domain dom(cfg);
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);
  Nic& nic = dom.nic(0);
  const std::uint64_t v = 7;
  const Handle h = nic.put_nb(1, d, 0, &v, 8);
  nic.gsync();  // must not invalidate h
  EXPECT_NO_THROW(nic.wait(h));
}

TEST(Nic, BlockingAmoAppliesImmediatelyEvenDeferred) {
  DomainConfig cfg = two_rank_internode();
  cfg.delivery = Delivery::deferred;
  Domain dom(cfg);
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);
  Nic& nic = dom.nic(0);
  EXPECT_EQ(nic.amo(1, d, 0, AmoOp::fetch_add, 3), 0u);
  EXPECT_EQ(nic.amo(1, d, 0, AmoOp::fetch_add, 4), 3u);
  std::uint64_t seen = 0;
  std::memcpy(&seen, mem.data(), 8);
  EXPECT_EQ(seen, 7u);
}

TEST(Nic, AmoFetchThroughExplicitHandle) {
  Domain dom(two_rank_internode());
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);
  Nic& nic = dom.nic(0);
  nic.amo(1, d, 8, AmoOp::fetch_add, 41);
  std::uint64_t fetched = 0;
  const Handle h = nic.amo_nb(1, d, 8, AmoOp::fetch_add, 1, 0, &fetched);
  nic.wait(h);
  EXPECT_EQ(fetched, 41u);
}

TEST(Nic, UnknownHandleRaises) {
  Domain dom(two_rank_internode());
  Nic& nic = dom.nic(0);
  EXPECT_THROW(nic.wait(12345), Error);
  EXPECT_THROW(nic.test(12345), Error);
  EXPECT_NO_THROW(nic.wait(kDoneHandle));
  EXPECT_TRUE(nic.test(kDoneHandle));
}

TEST(Nic, GsyncIdempotentWhenIdle) {
  Domain dom(two_rank_internode());
  Nic& nic = dom.nic(0);
  EXPECT_EQ(nic.outstanding(), 0u);
  nic.gsync();
  nic.gsync();
  EXPECT_EQ(nic.outstanding(), 0u);
}

TEST(Nic, DeferredGetReadsAtCompletionTime) {
  // A deferred get must observe the target memory as of its completion,
  // not its issue — the weakest legal RDMA read behaviour.
  DomainConfig cfg = two_rank_internode();
  cfg.delivery = Delivery::deferred;
  Domain dom(cfg);
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);
  Nic& nic = dom.nic(0);
  std::uint64_t out = 0;
  const Handle h = nic.get_nb(1, d, 0, &out, 8);
  // Target memory changes after issue but before completion.
  std::atomic_ref<std::uint64_t>(
      *reinterpret_cast<std::uint64_t*>(mem.data()))
      .store(99, std::memory_order_release);
  nic.wait(h);
  EXPECT_EQ(out, 99u);
}

TEST(Domain, NodeMappingVariants) {
  DomainConfig cfg;
  cfg.nranks = 6;
  cfg.ranks_per_node = 0;
  EXPECT_TRUE(Domain(cfg).same_node(0, 5));
  cfg.ranks_per_node = 2;
  Domain dom(cfg);
  EXPECT_EQ(dom.node_of(0), 0);
  EXPECT_EQ(dom.node_of(1), 0);
  EXPECT_EQ(dom.node_of(2), 1);
  EXPECT_EQ(dom.node_of(5), 2);
  EXPECT_THROW(dom.nic(6), Error);
  EXPECT_THROW(dom.nic(-1), Error);
}

TEST(Nic, RangeViolationRaises) {
  Domain dom(two_rank_internode());
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);
  std::uint64_t v = 0;
  EXPECT_THROW(dom.nic(0).put(1, d, 60, &v, 8), Error);
  EXPECT_THROW(dom.nic(0).put(0, d, 0, &v, 8), Error);  // wrong owner
}

TEST(Nic, InjectionModelAddsLatency) {
  DomainConfig cfg = two_rank_internode();
  cfg.inject = Injection::model;
  cfg.time_scale = 1.0;
  Domain dom(cfg);
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);
  Nic& nic = dom.nic(0);
  const std::uint64_t v = 1;
  Timer t;
  for (int i = 0; i < 100; ++i) nic.put(1, d, 0, &v, 8);
  const double per_op_us = t.elapsed_us() / 100.0;
  // Modeled small-put latency is ~1us end to end.
  EXPECT_GT(per_op_us, 0.8);
}

TEST(Nic, ModeledLatencyMatchesCostModel) {
  // Pins the issue-time latency formula of every op shape: the issue
  // event's dur_ns is the NetworkModel latency at time_scale 1.
  if (!trace::kEnabled) GTEST_SKIP() << "built with FOMPI_TRACE=OFF";
  trace::TraceSession::Config tcfg;
  tcfg.postmortem_path.clear();
  trace::TraceSession session(1, tcfg);
  trace::Ring& ring = session.ring(0);
  const TraceBind bind(&ring);
  const NetworkModel m;
  const auto chain = [&](std::size_t nfrags) {
    return nfrags > 1 ? m.chain_ns * static_cast<double>(nfrags - 1)
                      : 0.0;
  };
  constexpr std::size_t kBte = 8192;  // >= bte_threshold
  static_assert(kBte >= NetworkModel{}.bte_threshold);

  DomainConfig cfg;
  cfg.nranks = 3;
  cfg.ranks_per_node = 2;  // rank 1 shares rank 0's node, rank 2 does not
  cfg.inject = Injection::model;
  Domain dom(cfg);
  Nic& nic = dom.nic(0);
  AlignedBuffer mem1(2 * kBte), mem2(2 * kBte);
  const RegionDesc descs[3] = {
      {}, dom.registry().register_region(1, mem1.data(), 2 * kBte),
      dom.registry().register_region(2, mem2.data(), 2 * kBte)};
  std::vector<std::byte> buf(kBte);
  const Frag frags[4] = {{0, 0, 8}, {8, 64, 8}, {16, 128, 8}, {24, 192, 8}};

  for (const int target : {1, 2}) {
    const bool inter = target == 2;
    const RegionDesc& d = descs[target];
    const auto put_ns = [&](std::size_t bytes, std::size_t nfrags) {
      return (inter ? m.put_latency_ns(bytes) : m.intra_latency_ns(bytes)) +
             chain(nfrags);
    };
    const auto get_ns = [&](std::size_t bytes, std::size_t nfrags) {
      return (inter ? m.get_latency_ns(bytes) : m.intra_latency_ns(bytes)) +
             chain(nfrags);
    };
    SCOPED_TRACE(::testing::Message() << "target " << target);
    using trace::EvClass;

    std::size_t from = ring.size();
    nic.put(target, d, 0, buf.data(), 8);
    EXPECT_EQ(issue_dur(ring, from, EvClass::put),
              static_cast<std::uint64_t>(put_ns(8, 1)));

    from = ring.size();
    nic.put(target, d, 0, buf.data(), kBte);
    EXPECT_EQ(issue_dur(ring, from, EvClass::put),
              static_cast<std::uint64_t>(put_ns(kBte, 1)));

    from = ring.size();
    nic.get(target, d, 0, buf.data(), 8);
    EXPECT_EQ(issue_dur(ring, from, EvClass::get),
              static_cast<std::uint64_t>(get_ns(8, 1)));

    from = ring.size();
    nic.amo(target, d, 0, AmoOp::fetch_add, 1);
    EXPECT_EQ(issue_dur(ring, from, EvClass::amo),
              static_cast<std::uint64_t>(inter ? m.amo_latency_ns()
                                               : m.intra_amo_ns));

    for (const std::size_t n : {std::size_t{1}, std::size_t{4}}) {
      from = ring.size();
      nic.wait(nic.put_nbv(target, d, 0, 200, buf.data(), frags, n));
      EXPECT_EQ(issue_dur(ring, from, EvClass::vectored),
                static_cast<std::uint64_t>(put_ns(8 * n, n)))
          << n << "-fragment put";

      from = ring.size();
      nic.wait(nic.get_nbv(target, d, 0, 200, buf.data(), frags, n));
      EXPECT_EQ(issue_dur(ring, from, EvClass::vectored),
                static_cast<std::uint64_t>(get_ns(8 * n, n)))
          << n << "-fragment get";
    }
  }
}

TEST(Nic, IntraNodeFasterThanInterNodeUnderModel) {
  DomainConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 2;  // ranks 0,1 on node 0; 2,3 on node 1
  cfg.inject = Injection::model;
  Domain dom(cfg);
  EXPECT_TRUE(dom.same_node(0, 1));
  EXPECT_FALSE(dom.same_node(1, 2));
  AlignedBuffer mem1(64), mem2(64);
  const RegionDesc d1 = dom.registry().register_region(1, mem1.data(), 64);
  const RegionDesc d2 = dom.registry().register_region(2, mem2.data(), 64);
  Nic& nic = dom.nic(0);
  const std::uint64_t v = 1;
  // The modeled busy time the NIC charged (80 ns intra vs 416 ns inter
  // issue overhead per put), read from its meter: wall time would also
  // carry host load.
  const std::uint64_t m0 = nic.modeled_ns();
  for (int i = 0; i < 200; ++i) nic.put(1, d1, 0, &v, 8);
  const std::uint64_t intra = nic.modeled_ns() - m0;
  const std::uint64_t m1 = nic.modeled_ns();
  for (int i = 0; i < 200; ++i) nic.put(2, d2, 0, &v, 8);
  const std::uint64_t inter = nic.modeled_ns() - m1;
  EXPECT_LT(intra, inter);
}

// --- issue fast path: rkey cache, handle pool, zero-alloc steady state -------

TEST(Region, GenerationAdvancesOnChurn) {
  RegionRegistry reg;
  AlignedBuffer mem(64);
  const std::uint64_t g0 = reg.generation();
  const RegionDesc d = reg.register_region(0, mem.data(), 64);
  EXPECT_GT(reg.generation(), g0);
  const std::uint64_t g1 = reg.generation();
  reg.deregister(d.rkey);
  EXPECT_GT(reg.generation(), g1);

  RegionSnapshot snap;
  EXPECT_FALSE(reg.snapshot(d.rkey, &snap));
  const RegionDesc d2 = reg.register_region(1, mem.data(), 64);
  ASSERT_TRUE(reg.snapshot(d2.rkey, &snap));
  EXPECT_EQ(snap.owner, 1);
  EXPECT_EQ(snap.base, mem.data());
  EXPECT_EQ(snap.size, 64u);
}

TEST(Nic, RkeyCacheHitsDominate) {
  // Acceptance check for the fast path: after one warming miss, a stable
  // working set resolves entirely from the per-NIC cache — the registry's
  // shared lock is taken once per (rkey, generation), not per op.
  Domain dom(two_rank_internode());
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);
  Nic& nic = dom.nic(0);
  const std::uint64_t v = 1;
  nic.put(1, d, 0, &v, 8);  // warm: exactly one locked resolve

  const OpCounters before = op_counters();
  for (int i = 0; i < 1000; ++i) nic.put(1, d, 0, &v, 8);
  const OpCounters delta = op_counters().since(before);
  EXPECT_EQ(delta.get(Op::rkey_cache_hit), 1000u);
  EXPECT_EQ(delta.get(Op::rkey_cache_miss), 0u);
}

TEST(Nic, StaleCacheRaisesAfterDeregister) {
  // A cached rkey must never outlive its registration: deregistering bumps
  // the registry generation, so the next access revalidates, misses, and
  // raises FOMPI_ERR_RMA_RANGE instead of touching freed memory.
  Domain dom(two_rank_internode());
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);
  Nic& nic = dom.nic(0);
  const std::uint64_t v = 5;
  nic.put(1, d, 0, &v, 8);  // cache now holds d.rkey
  dom.registry().deregister(d.rkey);
  try {
    nic.put(1, d, 0, &v, 8);
    FAIL() << "stale rkey access did not raise";
  } catch (const Error& e) {
    EXPECT_EQ(e.err_class(), ErrClass::rma_range);
  }
  // Re-registration issues a fresh descriptor that works immediately.
  const RegionDesc d2 = dom.registry().register_region(1, mem.data(), 64);
  EXPECT_NO_THROW(nic.put(1, d2, 0, &v, 8));
  EXPECT_THROW(nic.put(1, d, 0, &v, 8), Error);  // old key stays dead
}

TEST(Nic, HandleTagDetectsRecycledSlot) {
  // Completion slots are pooled; a retired handle must not alias the next
  // operation that recycles its slot (ABA protection via the tag bits).
  DomainConfig cfg = two_rank_internode();
  cfg.delivery = Delivery::deferred;
  Domain dom(cfg);
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);
  Nic& nic = dom.nic(0);
  const std::uint64_t v = 3;
  const Handle h1 = nic.put_nb(1, d, 0, &v, 8);
  nic.wait(h1);
  const Handle h2 = nic.put_nb(1, d, 8, &v, 8);
  EXPECT_EQ(h1 & 0xffffffffu, h2 & 0xffffffffu) << "slot was not recycled";
  EXPECT_NE(h1, h2) << "recycled slot reissued an identical handle";
  EXPECT_THROW(nic.wait(h1), Error);
  EXPECT_THROW(nic.test(h1), Error);
  EXPECT_NO_THROW(nic.wait(h2));
}

TEST(Nic, ExplicitAndImplicitAccountingDistinct) {
  DomainConfig cfg = two_rank_internode();
  cfg.delivery = Delivery::deferred;
  Domain dom(cfg);
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);
  Nic& nic = dom.nic(0);
  const std::uint64_t v = 9;

  nic.put_nbi(1, d, 0, &v, 8);
  EXPECT_EQ(nic.implicit_outstanding(), 1u);
  EXPECT_EQ(nic.explicit_outstanding(), 0u);
  EXPECT_EQ(nic.outstanding(), 1u);

  const Handle h = nic.put_nb(1, d, 8, &v, 8);
  EXPECT_EQ(nic.explicit_outstanding(), 1u);
  EXPECT_EQ(nic.outstanding(), 2u);

  nic.gsync();  // completes implicit ops; the explicit handle stays live
  EXPECT_EQ(nic.implicit_outstanding(), 0u);
  EXPECT_EQ(nic.explicit_outstanding(), 1u);
  EXPECT_EQ(nic.outstanding(), 1u);

  nic.wait(h);
  EXPECT_EQ(nic.outstanding(), 0u);
}

TEST(Nic, SteadyStateIssuesAreAllocationFree) {
  // Acceptance check: once pools are warm, issuing mixed operations —
  // including spill-sized deferred puts — performs zero heap allocations.
  // Every pool or spill growth is counted as Op::pool_grow.
  DomainConfig cfg = two_rank_internode();
  cfg.delivery = Delivery::deferred;
  Domain dom(cfg);
  AlignedBuffer mem(4096);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 4096);
  Nic& nic = dom.nic(0);
  std::uint64_t v = 7, fetched = 0;
  std::array<std::byte, 256> big{};  // above PendingOp::kInlineStage

  auto cycle = [&](int i) {
    nic.wait(nic.put_nb(1, d, (i % 8) * 8, &v, 8));
    nic.wait(nic.get_nb(1, d, 0, &v, 8));
    nic.wait(nic.amo_nb(1, d, 0, AmoOp::fetch_add, 1, 0, &fetched));
    nic.put_nbi(1, d, 1024, big.data(), big.size());    // implicit spill
    nic.wait(nic.put_nb(1, d, 2048, big.data(), big.size()));  // explicit spill
    if (i % 16 == 15) nic.gsync();
  };
  for (int i = 0; i < 64; ++i) cycle(i);  // warm every pool and spill buffer
  nic.gsync();

  const OpCounters before = op_counters();
  for (int i = 0; i < 10000; ++i) cycle(i);
  nic.gsync();
  const OpCounters delta = op_counters().since(before);
  EXPECT_EQ(delta.get(Op::pool_grow), 0u) << "steady state allocated";
  EXPECT_EQ(delta.get(Op::rkey_cache_miss), 0u);
  EXPECT_GE(delta.get(Op::rkey_cache_hit), 50000u);
}

TEST(Nic, RegistryChurnStormInvalidatesCaches) {
  // Concurrent register/deregister storms from every rank: live accesses
  // must land, stale descriptors must raise on every rank (never touching
  // freed memory), and no registration may leak.
  constexpr int kRanks = 4;
  constexpr int kRounds = 20;
  fabric::FabricOptions opts;
  opts.domain.nranks = kRanks;
  opts.domain.ranks_per_node = 1;
  fabric::run_ranks(
      kRanks,
      [&](fabric::RankCtx& ctx) {
        auto& reg = ctx.fabric().domain().registry();
        const int p = ctx.nranks();
        const int me = ctx.rank();
        const int succ = (me + 1) % p;
        const int pred = (me + p - 1) % p;
        ctx.barrier();
        const std::size_t base_live = reg.live_count();
        ctx.barrier();  // nobody registers until every rank read the baseline
        for (int r = 0; r < kRounds; ++r) {
          AlignedBuffer mem(128);
          const RegionDesc mine = reg.register_region(me, mem.data(), 128);
          std::vector<RegionDesc> descs(static_cast<std::size_t>(p));
          ctx.allgather(&mine, 1, descs.data());
          const std::uint64_t v = static_cast<std::uint64_t>(r) * 1000 + me;
          ctx.nic().put(succ, descs[static_cast<std::size_t>(succ)],
                        static_cast<std::size_t>(me) * 8, &v, 8);
          ctx.barrier();  // all puts of this round landed
          std::uint64_t got = 0;
          std::memcpy(&got, mem.data() + pred * 8, 8);
          EXPECT_EQ(got, static_cast<std::uint64_t>(r) * 1000 + pred);
          ctx.barrier();  // all verifies done before anyone deregisters
          reg.deregister(mine.rkey);
          ctx.barrier();  // every region of this round is gone
          bool caught = false;
          try {
            ctx.nic().put(succ, descs[static_cast<std::size_t>(succ)], 0, &v,
                          8);
          } catch (const Error& e) {
            caught = e.err_class() == ErrClass::rma_range;
          }
          EXPECT_TRUE(caught) << "stale descriptor did not raise";
          ctx.barrier();  // buffers stay alive until the round fully ends
        }
        EXPECT_EQ(reg.live_count(), base_live) << "registration leak";
      },
      opts);
}

TEST(Nic, DeadlineTestsAskTheLatestReading) {
  // The NIC owns its rank's clock. A wait ends on a reading; a deadline at
  // or behind it has passed, so waiting for it reads no clock and leaves
  // the reading as it was. A later deadline costs one decision read (the
  // spin's reads are iterations, not counted) and raises the reading to
  // at least the deadline.
  DomainConfig cfg = two_rank_internode();
  cfg.inject = Injection::model;
  Domain dom(cfg);
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);
  nic.wait(nic.amo_nb(1, d, 0, AmoOp::fetch_add, 1, 0, nullptr));
  const std::uint64_t seen = nic.last_now();
  ASSERT_NE(seen, 0u);
  const OpCounters before = op_counters();
  nic.wait_model_time(seen);
  nic.wait_model_time(seen - 1'000);
  EXPECT_TRUE(nic.passed(seen));
  EXPECT_EQ(nic.last_now(), seen);
  EXPECT_EQ(op_counters().since(before).get(Op::clock_read), 0u);
  const std::uint64_t later = seen + 20'000;  // past the 5 us polite spin
  nic.wait_model_time(later);
  EXPECT_GE(nic.last_now(), later);
  EXPECT_TRUE(nic.passed(later));
  EXPECT_EQ(op_counters().since(before).get(Op::clock_read), 1u);

  // Without injected time there is nothing to wait for: no read at all.
  Domain plain(two_rank_internode());
  Nic& pn = plain.nic(0);
  const OpCounters b2 = op_counters();
  pn.wait_model_time(now_ns() + 1'000'000);
  EXPECT_EQ(pn.last_now(), 0u);
  EXPECT_EQ(op_counters().since(b2).get(Op::clock_read), 0u);
}

TEST(Nic, KilledPeerAbortsWaitSpin) {
  // Regression for the CLAUDE.md spin-loop rule: a rank parked in wait() on
  // a modeled completion must notice a peer failure through the progress
  // hook and abort, instead of sleeping out the full modeled latency.
  fabric::FabricOptions opts;
  opts.domain.nranks = 2;
  opts.domain.ranks_per_node = 1;
  opts.domain.inject = Injection::model;
  opts.domain.model.inter_overhead_ns = 0.0;  // keep the issue path instant
  // Inflate the *get* latency only: the runtime's dissemination barrier is
  // built on modeled puts, which must stay fast for setup to finish.
  opts.domain.model.get_base_ns = 30e9;  // 30 s modeled completion
  std::vector<AlignedBuffer> bufs;  // outlives the fleet
  bufs.emplace_back(64);
  bufs.emplace_back(64);
  Timer t;
  EXPECT_ANY_THROW(fabric::run_ranks(
      2,
      [&](fabric::RankCtx& ctx) {
        auto& reg = ctx.fabric().domain().registry();
        const RegionDesc mine = reg.register_region(
            ctx.rank(), bufs[static_cast<std::size_t>(ctx.rank())].data(), 64);
        std::vector<RegionDesc> descs(2);
        ctx.allgather(&mine, 1, descs.data());
        if (ctx.rank() == 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          throw std::runtime_error("injected peer failure");
        }
        std::uint64_t v = 0;
        const Handle h = ctx.nic().get_nb(1, descs[1], 0, &v, 8);
        ctx.nic().wait(h);  // must abort via the progress hook
      },
      opts));
  EXPECT_LT(t.elapsed_us(), 10e6) << "wait spin outlived the dead peer";
}

// --- vectored (chained-descriptor) operations --------------------------------

TEST(NetworkModel, VectoredLatencyBeatsPerFragmentIssue) {
  NetworkModel m;
  // One chained op pays the base latency once; n separate ops pay it n
  // times. The chain must also degenerate to the contiguous cost at n = 1.
  EXPECT_DOUBLE_EQ(m.put_vec_latency_ns(1, 512), m.put_latency_ns(512));
  EXPECT_DOUBLE_EQ(m.get_vec_latency_ns(1, 512), m.get_latency_ns(512));
  const std::size_t n = 64, frag = 8;
  EXPECT_LT(m.put_vec_latency_ns(n, n * frag),
            static_cast<double>(n) * m.put_latency_ns(frag));
  EXPECT_GT(m.put_vec_latency_ns(n, n * frag), m.put_latency_ns(n * frag));
}

TEST(Nic, VectoredPutScattersAndGetGathers) {
  Domain dom(two_rank_internode());
  AlignedBuffer mem(256);
  std::memset(mem.data(), 0, 256);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 256);
  Nic& nic = dom.nic(0);

  std::array<std::uint8_t, 24> src{};
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i + 1);
  }
  // Three fragments scattered over [16, 16+96): gaps must stay zero.
  const std::array<Frag, 3> frags{{{0, 0, 8}, {8, 32, 8}, {16, 88, 8}}};

  const OpCounters before = op_counters();
  nic.wait(nic.put_nbv(1, d, 16, 96, src.data(), frags.data(), frags.size()));
  const OpCounters delta = op_counters().since(before);
  EXPECT_EQ(delta.get(Op::transport_put), 1u) << "one doorbell per vector";
  EXPECT_EQ(delta.get(Op::vectored_op), 1u);
  EXPECT_EQ(delta.get(Op::bytes_copied), 24u);

  auto* t = reinterpret_cast<const std::uint8_t*>(mem.data());
  for (const Frag& f : frags) {
    for (std::size_t i = 0; i < f.len; ++i) {
      ASSERT_EQ(t[16 + f.remote_off + i], src[f.local_off + i]);
    }
  }
  EXPECT_EQ(t[16 + 8], 0u) << "gap written";
  EXPECT_EQ(t[16 + 87], 0u) << "gap written";

  std::array<std::uint8_t, 24> back{};
  nic.wait(nic.get_nbv(1, d, 16, 96, back.data(), frags.data(), frags.size()));
  EXPECT_EQ(back, src);
}

TEST(Nic, VectoredDeferredAppliesAtCompletion) {
  DomainConfig cfg = two_rank_internode();
  cfg.delivery = Delivery::deferred;
  Domain dom(cfg);
  AlignedBuffer mem(256);
  std::memset(mem.data(), 0, 256);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 256);
  Nic& nic = dom.nic(0);

  std::array<std::uint8_t, 16> src{};
  src.fill(0xAB);
  const std::array<Frag, 2> frags{{{0, 0, 8}, {8, 64, 8}}};

  // Explicit handle: nothing lands until wait(); the origin buffer is
  // reusable immediately (payload staged at issue).
  const Handle h =
      nic.put_nbv(1, d, 0, 128, src.data(), frags.data(), frags.size());
  src.fill(0xFF);  // must not affect the staged payload
  auto* t = reinterpret_cast<const std::uint8_t*>(mem.data());
  EXPECT_EQ(t[0], 0u);
  nic.wait(h);
  EXPECT_EQ(t[0], 0xABu);
  EXPECT_EQ(t[64 + 7], 0xABu);

  // Gapped, out-of-order local fragments: the staged payload is packed, so
  // each fragment must still land with its own source bytes.
  std::array<std::uint8_t, 48> src3{};
  for (std::size_t i = 0; i < src3.size(); ++i) {
    src3[i] = static_cast<std::uint8_t>(i + 1);
  }
  const std::array<Frag, 2> gapped{{{40, 16, 8}, {8, 96, 8}}};
  nic.wait(
      nic.put_nbv(1, d, 0, 128, src3.data(), gapped.data(), gapped.size()));
  for (const Frag& f : gapped) {
    for (std::size_t i = 0; i < f.len; ++i) {
      ASSERT_EQ(t[f.remote_off + i], src3[f.local_off + i]);
    }
  }

  // Implicit vector: lands at gsync.
  std::array<std::uint8_t, 16> src2{};
  src2.fill(0x5C);
  nic.put_nbiv(1, d, 0, 128, src2.data(), frags.data(), frags.size());
  EXPECT_EQ(t[64], 0xABu);
  nic.gsync();
  EXPECT_EQ(t[64], 0x5Cu);

  // Deferred vectored get: fragments land in local memory at wait().
  std::array<std::uint8_t, 16> back{};
  const Handle hg =
      nic.get_nbv(1, d, 0, 128, back.data(), frags.data(), frags.size());
  nic.wait(hg);
  for (std::size_t i = 0; i < back.size(); ++i) ASSERT_EQ(back[i], 0x5Cu);
}

TEST(Nic, VectoredHandleTestSemantics) {
  DomainConfig cfg = two_rank_internode();
  cfg.delivery = Delivery::deferred;
  Domain dom(cfg);
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);
  Nic& nic = dom.nic(0);
  const std::array<Frag, 2> frags{{{0, 0, 4}, {4, 16, 4}}};
  std::array<std::uint8_t, 8> src{};

  // Zero fragments complete at issue.
  EXPECT_EQ(nic.put_nbv(1, d, 0, 32, src.data(), frags.data(), 0),
            kDoneHandle);

  const Handle h =
      nic.put_nbv(1, d, 0, 32, src.data(), frags.data(), frags.size());
  EXPECT_NE(h, kDoneHandle);
  EXPECT_EQ(nic.explicit_outstanding(), 1u);
  EXPECT_TRUE(nic.test(h));  // no model time: completes and retires
  EXPECT_EQ(nic.explicit_outstanding(), 0u);
  EXPECT_THROW(nic.wait(h), Error);  // retired handle stays dead
}

TEST(Nic, VectoredSpanIsBoundsChecked) {
  Domain dom(two_rank_internode());
  AlignedBuffer mem(64);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 64);
  Nic& nic = dom.nic(0);
  std::array<std::uint8_t, 8> src{};
  const std::array<Frag, 1> frags{{{0, 0, 8}}};
  // The single up-front check covers the whole span: a vector whose span
  // leaves the region raises before any fragment moves.
  try {
    nic.put_nbv(1, d, 32, 40, src.data(), frags.data(), frags.size());
    FAIL() << "out-of-span vector did not raise";
  } catch (const Error& e) {
    EXPECT_EQ(e.err_class(), ErrClass::rma_range);
  }
  EXPECT_NO_THROW(nic.wait(
      nic.put_nbv(1, d, 32, 32, src.data(), frags.data(), frags.size())));
}

TEST(Nic, VectoredSteadyStateIssuesAreAllocationFree) {
  // The vectored path reuses the same pooled records and staging buffers as
  // the contiguous fast path: once warm, no per-op heap allocation.
  DomainConfig cfg = two_rank_internode();
  cfg.delivery = Delivery::deferred;
  Domain dom(cfg);
  AlignedBuffer mem(4096);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 4096);
  Nic& nic = dom.nic(0);

  std::array<std::uint8_t, 512> buf{};  // above PendingOp::kInlineStage
  std::vector<Frag> frags;
  for (std::size_t i = 0; i < 32; ++i) {
    frags.push_back({i * 16, i * 64, 16});
  }
  auto cycle = [&] {
    nic.wait(nic.put_nbv(1, d, 0, 2048, buf.data(), frags.data(),
                         frags.size()));
    nic.put_nbiv(1, d, 2048, 2048, buf.data(), frags.data(), frags.size());
    nic.wait(nic.get_nbv(1, d, 0, 2048, buf.data(), frags.data(),
                         frags.size()));
    nic.gsync();
  };
  for (int i = 0; i < 32; ++i) cycle();  // warm pools, spill and frag lists

  const OpCounters before = op_counters();
  for (int i = 0; i < 2000; ++i) cycle();
  const OpCounters delta = op_counters().since(before);
  EXPECT_EQ(delta.get(Op::pool_grow), 0u) << "steady state allocated";
  EXPECT_EQ(delta.get(Op::rkey_cache_miss), 0u);
  EXPECT_EQ(delta.get(Op::vectored_op), 6000u);
}

TEST(Nic, VectoredKilledPeerAbortsWaitSpin) {
  // Same spin-loop rule as the contiguous path: waiting on a vectored get
  // whose modeled completion is far out must abort when the peer dies.
  fabric::FabricOptions opts;
  opts.domain.nranks = 2;
  opts.domain.ranks_per_node = 1;
  opts.domain.inject = Injection::model;
  opts.domain.model.inter_overhead_ns = 0.0;
  opts.domain.model.get_base_ns = 30e9;  // 30 s modeled completion
  std::vector<AlignedBuffer> bufs;
  bufs.emplace_back(64);
  bufs.emplace_back(64);
  Timer t;
  EXPECT_ANY_THROW(fabric::run_ranks(
      2,
      [&](fabric::RankCtx& ctx) {
        auto& reg = ctx.fabric().domain().registry();
        const RegionDesc mine = reg.register_region(
            ctx.rank(), bufs[static_cast<std::size_t>(ctx.rank())].data(), 64);
        std::vector<RegionDesc> descs(2);
        ctx.allgather(&mine, 1, descs.data());
        if (ctx.rank() == 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          throw std::runtime_error("injected peer failure");
        }
        std::array<std::uint8_t, 16> back{};
        const std::array<Frag, 2> frags{{{0, 0, 8}, {8, 32, 8}}};
        const Handle h = ctx.nic().get_nbv(1, descs[1], 0, 48, back.data(),
                                           frags.data(), frags.size());
        ctx.nic().wait(h);  // must abort via the progress hook
      },
      opts));
  EXPECT_LT(t.elapsed_us(), 10e6) << "wait spin outlived the dead peer";
}

// --- waiting: one back-off step, one dead-peer rule (Domain::wait_until) ------

namespace {

/// Rank 1 is the peer a wait watches; rank 2 a bystander.
DomainConfig three_ranks() {
  DomainConfig cfg;
  cfg.nranks = 3;
  cfg.ranks_per_node = 1;
  return cfg;
}

}  // namespace

TEST(Wait, ConditionMetTogetherWithTheDeathMarkReturnsOk) {
  // A peer's last store precedes its death mark. Here it stores and dies
  // right after the waiter's first poll read the condition unmet: the
  // waiter sees the death next, and must poll once more and find the
  // condition met instead of reporting the peer lost.
  Domain dom(three_ranks());
  bool flag = false;
  int polls = 0;
  const OpCounters before = op_counters();
  const OpStatus st = dom.wait_until(
      [&] {
        ++polls;
        const bool met = flag;
        if (!met) {
          flag = true;
          dom.mark_dead(1);
        }
        return met;
      },
      [&] { return !dom.alive(1); });
  EXPECT_EQ(st, OpStatus::ok);
  EXPECT_EQ(polls, 2);
  EXPECT_EQ(op_counters().since(before).get(Op::retry), 0u);
}

TEST(Wait, UnmetConditionReportsTheWatchedPeersDeath) {
  // A bystander's death moves the epoch but not the watched peer: the wait
  // goes on. Once the watched peer dies, one more poll, then peer_dead.
  Domain dom(three_ranks());
  dom.mark_dead(2);
  int polls = 0;
  const OpCounters before = op_counters();
  const OpStatus st = dom.wait_until(
      [&] {
        if (++polls == 5) dom.mark_dead(1);
        return false;
      },
      [&] { return !dom.alive(1); });
  EXPECT_EQ(st, OpStatus::peer_dead);
  EXPECT_EQ(polls, 6);
  EXPECT_EQ(op_counters().since(before).get(Op::retry), 4u);
}

TEST(Wait, UnmetConditionReportsAnyDeath) {
  // A wait that cannot name its writer (an arrival counter) fails on any
  // death, after the same one extra poll.
  Domain dom(three_ranks());
  int polls = 0;
  const OpStatus st = dom.wait_until(
      [&] {
        if (++polls == 3) dom.mark_dead(2);
        return false;
      },
      [] { return true; });
  EXPECT_EQ(st, OpStatus::peer_dead);
  EXPECT_EQ(polls, 4);
}

TEST(Wait, EachStepCountsOneRetryAndPollsTheHookOnce) {
  Domain dom(three_ranks());
  int hooks = 0;
  dom.set_progress_hook([](void* n) { ++*static_cast<int*>(n); }, &hooks);
  int polls = 0;
  const OpCounters before = op_counters();
  EXPECT_EQ(dom.wait_until([&] { return ++polls == 6; }), OpStatus::ok);
  EXPECT_EQ(op_counters().since(before).get(Op::retry), 5u);
  EXPECT_EQ(hooks, 5);
}

TEST(Wait, FleetAbortUnwindsAWaitTyped) {
  // Rank 1 fails; rank 0 waits on a condition nobody will meet. Its next
  // back-off step polls the fabric's hook and unwinds it typed.
  std::atomic<int> waiter_class{-1};
  const auto body = [&](fabric::RankCtx& ctx) {
    if (ctx.rank() == 1) throw std::runtime_error("injected peer failure");
    try {
      ctx.fabric().domain().wait_until([] { return false; });
    } catch (const Error& e) {
      waiter_class = static_cast<int>(e.err_class());
      throw;
    }
  };
  EXPECT_THROW(fabric::run_ranks(2, body), std::runtime_error);
  EXPECT_EQ(waiter_class.load(), static_cast<int>(ErrClass::internal));
}

TEST(Wait, HangWatchdogUnwindsAWaitTyped) {
  // No rank fails, but the wait never ends: the watchdog, fired from the
  // hook of a later step, aborts the fleet with a typed timeout.
  fabric::FabricOptions opts;
  opts.hang_timeout_ns = 50'000'000;  // 50 ms
  Timer t;
  try {
    fabric::run_ranks(
        1,
        [](fabric::RankCtx& ctx) {
          ctx.fabric().domain().wait_until([] { return false; });
        },
        opts);
    ADD_FAILURE() << "the watchdog did not fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.err_class(), ErrClass::timeout);
  }
  EXPECT_LT(t.elapsed_us(), 10e6) << "wait outlived the watchdog";
}
