// src/trace flight recorder: ring semantics, lifecycle instrumentation,
// histograms, Perfetto export, and the post-mortem dump on fleet abort.
//
// The concurrency-sensitive tests (all rank threads recording while the
// main thread reads sizes) run under TSan in scripts/ci.sh: the ring's
// release-publish / acquire-size protocol must be clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>

#include "common/error.hpp"
#include "common/instr.hpp"
#include "core/window.hpp"
#include "fabric/progress/progress.hpp"
#include "trace/trace.hpp"

using namespace fompi;
using trace::EvClass;
using trace::EvPhase;
using trace::Ring;
using trace::TraceSession;

namespace {

/// RAII thread binding so a failing ASSERT cannot leak a bound ring into
/// later tests.
struct BindGuard {
  explicit BindGuard(Ring* r) { trace::bind_thread(r); }
  ~BindGuard() { trace::bind_thread(nullptr); }
};

trace::Event make_event(EvClass cls, std::uint64_t arg = 0) {
  trace::Event e;
  e.wall_ns = now_ns();
  e.arg = arg;
  e.cls = cls;
  e.phase = EvPhase::issue;
  return e;
}

}  // namespace

// ---------------------------------------------------------------------------
// Exhaustive enum-name round trips: a new enum value without a name string
// must fail here instead of printing "unknown" in bench JSON.
// ---------------------------------------------------------------------------

TEST(TraceNames, OpToStringRoundTripsExhaustively) {
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(Op::kCount); ++i) {
    const Op op = static_cast<Op>(i);
    const std::string name = to_string(op);
    EXPECT_NE(name, "unknown") << "Op value " << i << " has no name string";
    Op parsed{};
    ASSERT_TRUE(op_from_string(name.c_str(), &parsed))
        << "Op name '" << name << "' does not parse back";
    EXPECT_EQ(parsed, op) << "Op name '" << name
                          << "' is ambiguous (duplicate string)";
  }
  EXPECT_FALSE(op_from_string("unknown", nullptr));
  EXPECT_FALSE(op_from_string("no_such_op", nullptr));
}

TEST(TraceNames, EvClassAndPhaseNamesAreExhaustiveAndUnique) {
  std::set<std::string> seen;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(EvClass::kCount);
       ++i) {
    const std::string name = to_string(static_cast<EvClass>(i));
    EXPECT_NE(name, "unknown") << "EvClass value " << i << " unnamed";
    EXPECT_TRUE(seen.insert(name).second) << "duplicate EvClass name " << name;
  }
  seen.clear();
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(EvPhase::kCount);
       ++i) {
    const std::string name = to_string(static_cast<EvPhase>(i));
    EXPECT_NE(name, "unknown") << "EvPhase value " << i << " unnamed";
    EXPECT_TRUE(seen.insert(name).second) << "duplicate EvPhase name " << name;
  }
}

// ---------------------------------------------------------------------------
// Ring semantics
// ---------------------------------------------------------------------------

TEST(TraceRing, RecordsInOrderUpToCapacityThenDropsWithCounter) {
  Ring ring(8);
  for (std::uint64_t i = 0; i < 12; ++i) ring.push(make_event(EvClass::put, i));
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.dropped(), 4u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].arg, i) << "oldest events must be kept, newest dropped";
  }
}

TEST(TraceRing, UnboundThreadEmitsNothing) {
  ASSERT_EQ(trace::bound_ring(), nullptr);
  trace::emit(EvClass::put, EvPhase::issue);
  { trace::Span sp(EvClass::fence); }
  // Nothing to observe without a ring: the assertion is that no crash
  // happened and a subsequently bound ring starts empty.
  Ring ring(4);
  BindGuard bind(&ring);
  EXPECT_EQ(ring.size(), 0u);
  trace::emit(EvClass::put, EvPhase::issue);
  trace::flush_thread();  // publish the thread-local staging buffer
  EXPECT_EQ(ring.size(), trace::kEnabled ? 1u : 0u);
}

TEST(TraceRing, StagedEventsPublishOnBatchFillAndUnbind) {
  if (!trace::kEnabled) GTEST_SKIP() << "built with FOMPI_TRACE=OFF";
  constexpr std::size_t kBatch = trace::detail::Stage::kStageEvents;
  Ring ring(4 * kBatch);
  {
    BindGuard bind(&ring);
    // One short of a full staging buffer: nothing published yet.
    for (std::size_t i = 0; i < kBatch - 1; ++i) {
      trace::emit(EvClass::put, EvPhase::issue, -1, i);
    }
    EXPECT_EQ(ring.size(), 0u) << "staged events published early";
    // The batch-filling event publishes all of them with one release store.
    trace::emit(EvClass::put, EvPhase::issue, -1, kBatch - 1);
    ASSERT_EQ(ring.size(), kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      EXPECT_EQ(ring[i].arg, i) << "batch publish must preserve order";
    }
    // A partial batch stays staged until flushed or unbound.
    trace::emit(EvClass::get, EvPhase::issue, -1, kBatch);
    EXPECT_EQ(ring.size(), kBatch);
  }
  // BindGuard unbind flushed the partial batch.
  ASSERT_EQ(ring.size(), kBatch + 1);
  EXPECT_EQ(ring[kBatch].cls, EvClass::get);
}

TEST(TraceRing, SpanArmsOnlyWhenBoundAtConstruction) {
  Ring ring(16);
  {
    BindGuard bind(&ring);
    trace::Span sp(EvClass::fence, 3, 7);
  }
  if (trace::kEnabled) {
    ASSERT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring[0].phase, EvPhase::begin);
    EXPECT_EQ(ring[0].cls, EvClass::fence);
    EXPECT_EQ(ring[0].target, 3);
    EXPECT_EQ(ring[0].arg, 7u);
    EXPECT_EQ(ring[1].phase, EvPhase::end);
    EXPECT_GE(ring[1].wall_ns, ring[0].wall_ns);
  }
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

TEST(TraceHisto, BucketMappingIsMonotoneAndTight) {
  using H = trace::LatencyHisto;
  std::size_t prev = 0;
  for (std::uint64_t v : {0ull, 1ull, 15ull, 16ull, 17ull, 100ull, 1000ull,
                          123456ull, 1ull << 40, ~0ull}) {
    const std::size_t b = H::bucket_of(v);
    ASSERT_LT(b, H::kBuckets);
    EXPECT_GE(b, prev) << "bucket index must be monotone in the value";
    prev = b;
    // The bucket floor must not exceed the value and must be within the
    // sub-bucket resolution (~1/8 of the octave) below it.
    const std::uint64_t floor = H::bucket_floor(b);
    EXPECT_LE(floor, v);
    if (v > 0) {
      EXPECT_GE(floor, v - v / 8 - 1);
    }
  }
}

TEST(TraceHisto, QuantilesAndMergeBehaveSanely) {
  trace::LatencyHisto h;
  for (std::uint64_t i = 1; i <= 1000; ++i) h.add(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  const std::uint64_t p50 = h.quantile(0.50);
  const std::uint64_t p99 = h.quantile(0.99);
  EXPECT_GE(p50, 400u);
  EXPECT_LE(p50, 520u);
  EXPECT_GE(p99, 850u);
  EXPECT_LE(p99, 1000u);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, h.max());

  trace::LatencyHisto other;
  other.add(1u << 20);
  other.merge(h);
  EXPECT_EQ(other.count(), 1001u);
  EXPECT_EQ(other.max(), 1u << 20);
  EXPECT_GE(other.quantile(1.0), 1000u);
  trace::LatencyHisto empty;
  EXPECT_EQ(empty.quantile(0.5), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end recording through the real protocol stack
// ---------------------------------------------------------------------------

TEST(TraceSessionTest, AllRankThreadsRecordConcurrently) {
  if (!trace::kEnabled) GTEST_SKIP() << "built with FOMPI_TRACE=OFF";
  constexpr int kRanks = 4;
  TraceSession session(kRanks);
  fabric::run_ranks(kRanks, [](fabric::RankCtx& ctx) {
    core::Win win = core::Win::allocate(ctx, 4096);
    win.fence();
    std::uint64_t v = 0xabcdefull + static_cast<std::uint64_t>(ctx.rank());
    for (int i = 0; i < 16; ++i) {
      win.put(&v, 8, (ctx.rank() + 1) % ctx.nranks(),
              static_cast<std::size_t>(i) * 8);
    }
    win.fence();
    win.lock_all();
    win.flush_all();
    win.unlock_all();
    win.free();
  });
  EXPECT_EQ(session.total_dropped(), 0u);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_GT(session.ring(r).size(), 0u) << "rank " << r << " recorded nothing";
  }
  // Every rank issued 16 puts inside the fence epoch; fence + lock_all +
  // flush_all spans must have been recorded.
  const auto puts = session.summary(EvClass::put);
  EXPECT_GE(puts.count, 0u);  // puts carry no modeled latency w/o injection
  const auto fences = session.summary(EvClass::fence);
  EXPECT_GE(fences.count, 2u * kRanks);
  EXPECT_LE(fences.p50_ns, fences.p99_ns);
  EXPECT_LE(fences.p99_ns, fences.max_ns);
  std::uint64_t put_events = 0;
  for (int r = 0; r < kRanks; ++r) {
    const trace::Ring& ring = session.ring(r);
    for (std::size_t i = 0; i < ring.size(); ++i) {
      if (ring[i].cls == EvClass::put && ring[i].phase == EvPhase::issue) {
        ++put_events;
      }
    }
  }
  EXPECT_GE(put_events, 16u * kRanks);
}

TEST(TraceSessionTest, ModeledInjectionStampsSimTimeAndFillsHistogram) {
  if (!trace::kEnabled) GTEST_SKIP() << "built with FOMPI_TRACE=OFF";
  TraceSession session(2);
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;  // inter-node: modeled Gemini latency
  opts.domain.inject = rdma::Injection::model;
  fabric::run_ranks(2, [](fabric::RankCtx& ctx) {
    core::Win win = core::Win::allocate(ctx, 4096);
    win.fence();
    if (ctx.rank() == 0) {
      std::uint64_t v = 42;
      for (int i = 0; i < 8; ++i) win.put(&v, 8, 1, 0);
    }
    win.fence();
    win.free();
  }, opts);
  const auto puts = session.summary(EvClass::put);
  EXPECT_GE(puts.count, 8u);
  // An 8-byte inter-node put is modeled at ~1 us end-to-end.
  EXPECT_GT(puts.p50_ns, 500u);
  EXPECT_LE(puts.p50_ns, puts.max_ns);
  bool saw_sim_stamp = false;
  const trace::Ring& ring = session.ring(0);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    if (ring[i].cls == EvClass::put && ring[i].sim_ns != 0) {
      EXPECT_LE(ring[i].dur_ns, ring[i].sim_ns)
          << "modeled latency cannot exceed the absolute completion stamp";
      saw_sim_stamp = true;
    }
  }
  EXPECT_TRUE(saw_sim_stamp) << "no put carried a modeled completion stamp";
}

TEST(TraceSessionTest, OverflowDropsAreCountedNotBlocking) {
  if (!trace::kEnabled) GTEST_SKIP() << "built with FOMPI_TRACE=OFF";
  TraceSession::Config cfg;
  cfg.ring_capacity = 32;  // deliberately tiny
  cfg.postmortem_path.clear();
  TraceSession session(2, cfg);
  fabric::run_ranks(2, [](fabric::RankCtx& ctx) {
    core::Win win = core::Win::allocate(ctx, 4096);
    win.lock_all();
    std::uint64_t v = 7;
    for (int i = 0; i < 256; ++i) {
      win.put(&v, 8, (ctx.rank() + 1) % 2, 0);
    }
    win.unlock_all();
    win.free();
  });
  EXPECT_EQ(session.ring(0).size(), 32u);
  EXPECT_GT(session.total_dropped(), 0u);
}

TEST(TraceSessionTest, OnlyOneActiveSessionAtATime) {
  TraceSession session(1);
  EXPECT_EQ(TraceSession::active(), &session);
  EXPECT_THROW(TraceSession(1), Error);
}

// ---------------------------------------------------------------------------
// Consumers: Perfetto JSON and the post-mortem dump
// ---------------------------------------------------------------------------

TEST(TraceExport, ChromeJsonHasPerRankTracksAndBalancedStructure) {
  if (!trace::kEnabled) GTEST_SKIP() << "built with FOMPI_TRACE=OFF";
  TraceSession session(2);
  fabric::run_ranks(2, [](fabric::RankCtx& ctx) {
    core::Win win = core::Win::allocate(ctx, 1024);
    win.fence();
    win.fence();
    win.free();
  });
  const std::string json = session.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 1\""), std::string::npos);
  EXPECT_NE(json.find("\"fence\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
  // Crude structural balance check (no string literals with braces are
  // emitted, so counting is meaningful).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TraceExport, PostMortemDumpOnKilledPeer) {
  if (!trace::kEnabled) GTEST_SKIP() << "built with FOMPI_TRACE=OFF";
  const std::string path = "test_trace_postmortem.trace.json";
  std::remove(path.c_str());
  TraceSession::Config cfg;
  cfg.postmortem_path = path;
  TraceSession session(2, cfg);
  EXPECT_THROW(
      fabric::run_ranks(2,
                        [](fabric::RankCtx& ctx) {
                          core::Win win = core::Win::allocate(ctx, 256);
                          win.fence();
                          if (ctx.rank() == 1) {
                            throw std::runtime_error("injected rank death");
                          }
                          // Rank 0 parks in a collective; the abort
                          // propagates through yield_check and unwinds it.
                          ctx.barrier();
                          win.fence();
                          win.free();
                        }),
      std::exception);
  // The post-mortem trace must exist and contain evidence from rank 0 (the
  // survivor) — at least its fence epoch.
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << "post-mortem dump not written";
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"fence\""), std::string::npos);
  EXPECT_NE(content.find("\"rank 0\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceExport, WriteChromeJsonRoundTripsToDisk) {
  if (!trace::kEnabled) GTEST_SKIP() << "built with FOMPI_TRACE=OFF";
  TraceSession session(1);
  {
    BindGuard bind(&session.ring(0));
    trace::Span sp(EvClass::barrier);
  }
  const std::string path = "test_trace_roundtrip.trace.json";
  ASSERT_TRUE(session.write_chrome_json(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Notified access records its wait span
// ---------------------------------------------------------------------------

TEST(TraceSessionTest, NotifyWaitSpansRecorded) {
  if (!trace::kEnabled) GTEST_SKIP() << "built with FOMPI_TRACE=OFF";
  TraceSession session(2);
  fabric::run_ranks(2, [](fabric::RankCtx& ctx) {
    core::Win win = core::Win::allocate(ctx, 256);
    win.lock_all();
    win.notify_enable(ctx, 16);
    if (ctx.rank() == 0) {
      const std::uint64_t v = 99;
      win.put_notify(&v, 8, 1, 0, 2);
    } else {
      fabric::progress::NotifyRecord rec;
      win.notify_waitsome(2, &rec, 1);
    }
    win.unlock_all();
    ctx.barrier();
    win.free();
  });
  const auto waits = session.summary(EvClass::notify_wait);
  EXPECT_EQ(waits.count, 1u);
}
