// Datatype-path microbenchmark: fragment-loop baseline vs the flatten-cached
// vectored / pack-unpack issue paths for non-contiguous RMA.
//
// Two sections:
//   * software  (Injection::none)  — pure per-element software overhead of
//     lowering + issue, no modeled network time.  This is the acceptance
//     harness for the datatype-engine rework: the one-call datatype path
//     must beat a loop of per-fragment contiguous puts by >=2x ns/element
//     at 1024 fragments.
//   * modeled   (Injection::model) — the same shapes under the injected
//     Gemini cost model, where the vectored chain discount and the
//     single-transfer pack protocol show up as end-to-end latency.
//
// Counter deltas over the measured loop are emitted per case so the JSON
// also documents which strategy ran (vectored_op vs packed_bytes), the
// flatten-cache hit rate, and that steady state allocates nothing
// (pool_grow == 0).  Output: one JSON object on stdout (consumed by
// scripts/bench_smoke.sh into BENCH_datatype.json).
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/instr.hpp"
#include "common/timing.hpp"
#include "core/window.hpp"
#include "datatype/datatype.hpp"
#include "trace/trace.hpp"

using namespace fompi;
using fompi::dt::Datatype;

namespace {

struct CaseResult {
  std::string name;
  double ns_per_elem = 0;
  std::size_t elems = 0;   // elements moved per iteration
  OpCounters delta;        // counters over the measured loop
};

/// One timed configuration on rank 0: `op()` moves `elems` elements and is
/// remotely completed by flush inside the timed region (part of the
/// amortized cost, as in the figure benches).
CaseResult time_case(const std::string& name, std::size_t elems, int warm,
                     int iters, core::Win& win,
                     const std::function<void()>& op) {
  for (int i = 0; i < warm; ++i) op();
  win.flush(1);
  const OpCounters before = op_counters();
  Timer t;
  for (int i = 0; i < iters; ++i) {
    op();
    win.flush(1);
  }
  const double ns = static_cast<double>(t.elapsed_ns());
  CaseResult r;
  r.name = name;
  r.elems = elems;
  r.ns_per_elem = ns / (static_cast<double>(iters) * static_cast<double>(elems));
  r.delta = op_counters().since(before);
  return r;
}

/// Runs the full shape matrix on a 2-rank fabric and appends results.
/// Only rank 0 measures (the target rank sits in the barrier), so the
/// numbers are single-issuer software/model cost, not contention.
void section(rdma::Injection inject, int iters,
             std::vector<CaseResult>& out) {
  fabric::FabricOptions o;
  o.domain.ranks_per_node = 1;  // inter-node ("DMAPP") path
  o.domain.inject = inject;
  fabric::run_ranks(2, [&](fabric::RankCtx& ctx) {
    core::Win win = core::Win::allocate(ctx, 1 << 17);
    if (ctx.rank() == 0) {
      win.lock(core::LockType::exclusive, 1);
      const Datatype i32 = Datatype::i32();
      const Datatype i64 = Datatype::i64();

      // Small fragments, strided origin -> contiguous target: n blocks of
      // one i32, stride 2 elements.  The remote side is contiguous, so the
      // cost model picks the pack (put) / unpack (get) protocol here.
      for (const int n : {16, 128, 1024}) {
        const Datatype vec = Datatype::vector(n, 1, 2, i32);
        std::vector<std::uint32_t> src(2 * static_cast<std::size_t>(n), 7u);
        std::vector<std::uint32_t> dst(2 * static_cast<std::size_t>(n), 0u);
        const std::size_t elems = static_cast<std::size_t>(n);

        out.push_back(time_case(
            "put_frag_loop_" + std::to_string(n), elems, 8, iters, win,
            [&] {
              for (int i = 0; i < n; ++i) {
                win.put(src.data() + 2 * i, 4, 1,
                        64 + 4 * static_cast<std::size_t>(i));
              }
            }));
        out.push_back(time_case(
            "put_pack_" + std::to_string(n), elems, 8, iters, win, [&] {
              win.put(src.data(), 1, vec, 1, 64, n, i32);
            }));
        out.push_back(time_case(
            "get_frag_loop_" + std::to_string(n), elems, 8, iters, win,
            [&] {
              for (int i = 0; i < n; ++i) {
                win.get(dst.data() + 2 * i, 4, 1,
                        64 + 4 * static_cast<std::size_t>(i));
              }
            }));
        out.push_back(time_case(
            "get_unpack_" + std::to_string(n), elems, 8, iters, win, [&] {
              win.get(dst.data(), 1, vec, 1, 64, n, i32);
            }));
      }

      // Strided on both sides: a one-put scatter is impossible, so this is
      // the vectored NIC path (one doorbell, chained fragments).
      {
        const Datatype vec = Datatype::vector(1024, 1, 2, i32);
        std::vector<std::uint32_t> src(2048, 7u);
        out.push_back(time_case("put_vectored_1024", 1024, 8, iters, win,
                                [&] {
                                  win.put(src.data(), 1, vec, 1, 64, 1, vec);
                                }));
      }

      // Large fragments: 4 blocks of 2 KiB.  The cost model keeps these on
      // the vectored path even with a contiguous remote side (packing would
      // copy 8 KiB per call).
      {
        const Datatype big = Datatype::vector(4, 256, 512, i64);
        std::vector<std::uint64_t> src(2048, 7u);
        out.push_back(time_case("put_vectored_4x2048B", 1024, 8, iters, win,
                                [&] {
                                  win.put(src.data(), 1, big, 1, 0, 1024, i64);
                                }));
      }

      win.unlock(1);
    }
    ctx.barrier();
    win.free();
  }, o);
}

/// Traced vs untraced rerun of the 1024-fragment vectored case. run_ranks
/// auto-binds rank threads while a TraceSession is active, so the untraced
/// control explicitly unbinds first — that run exercises the production
/// off-path (thread-local load + branch per emit site) and must record
/// nothing; the bound rerun pays for real ring appends.
struct TraceOverhead {
  double untraced_ns_per_elem = 0;
  double traced_ns_per_elem = 0;
  std::uint64_t untraced_events = 0;  ///< must stay 0: the off path is off
  std::uint64_t traced_events = 0;
};

TraceOverhead measure_trace_overhead(int iters) {
  trace::TraceSession::Config tcfg;
  tcfg.postmortem_path.clear();
  trace::TraceSession session(2, tcfg);
  TraceOverhead r;

  fabric::FabricOptions o;
  o.domain.ranks_per_node = 1;
  o.domain.inject = rdma::Injection::none;
  fabric::run_ranks(2, [&](fabric::RankCtx& ctx) {
    trace::bind_thread(nullptr);  // untraced control phase
    core::Win win = core::Win::allocate(ctx, 1 << 17);
    if (ctx.rank() == 0) {
      win.lock(core::LockType::exclusive, 1);
      const Datatype i32 = Datatype::i32();
      const Datatype vec = Datatype::vector(1024, 1, 2, i32);
      std::vector<std::uint32_t> src(2048, 7u);
      const auto op = [&] { win.put(src.data(), 1, vec, 1, 64, 1, vec); };

      r.untraced_ns_per_elem =
          time_case("vectored_untraced", 1024, 8, iters, win, op).ns_per_elem;
      r.untraced_events = session.total_events();

      trace::bind_thread(&session.ring(0));
      r.traced_ns_per_elem =
          time_case("vectored_traced", 1024, 8, iters, win, op).ns_per_elem;
      win.unlock(1);
    }
    ctx.barrier();
    win.free();
    trace::bind_thread(nullptr);
  }, o);
  r.traced_events = session.total_events();
  return r;
}

void emit_json(const std::vector<CaseResult>& sw,
               const std::vector<CaseResult>& model, int sw_iters,
               int model_iters, const TraceOverhead& trace_ovh) {
  std::printf("{\n  \"bench\": \"datatype\",\n");
  auto emit = [](const char* name, const std::vector<CaseResult>& results,
                 int iters, bool last) {
    std::printf("  \"%s\": {\"iters\": %d, \"cases\": [\n", name, iters);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      std::printf("    {\"name\": \"%s\", \"elems\": %zu, \"ns_per_elem\": %.2f",
                  r.name.c_str(), r.elems, r.ns_per_elem);
      for (std::uint32_t o = 0; o < static_cast<std::uint32_t>(Op::kCount);
           ++o) {
        const std::uint64_t v = r.delta.get(static_cast<Op>(o));
        if (v != 0) {
          std::printf(", \"%s\": %llu", to_string(static_cast<Op>(o)),
                      static_cast<unsigned long long>(v));
        }
      }
      std::printf("}%s\n", i + 1 == results.size() ? "" : ",");
    }
    std::printf("  ]}%s\n", last ? "" : ",");
  };
  emit("software", sw, sw_iters, false);
  emit("modeled", model, model_iters, false);
  std::printf("  \"trace_overhead\": [\n"
              "    {\"name\": \"put_vectored_1024_untraced\", \"elems\": 1024, "
              "\"ns_per_elem\": %.2f, \"trace_events\": %llu},\n"
              "    {\"name\": \"put_vectored_1024_traced\", \"elems\": 1024, "
              "\"ns_per_elem\": %.2f, \"trace_events\": %llu}\n  ]\n",
              trace_ovh.untraced_ns_per_elem,
              static_cast<unsigned long long>(trace_ovh.untraced_events),
              trace_ovh.traced_ns_per_elem,
              static_cast<unsigned long long>(trace_ovh.traced_events));
  std::printf("}\n");
}

}  // namespace

int main() {
  constexpr int kSwIters = 400;
  constexpr int kModelIters = 20;
  std::vector<CaseResult> sw;
  std::vector<CaseResult> model;
  section(rdma::Injection::none, kSwIters, sw);
  section(rdma::Injection::model, kModelIters, model);
  const TraceOverhead trace_ovh = measure_trace_overhead(kSwIters);
  emit_json(sw, model, kSwIters, kModelIters, trace_ovh);
  if (trace_ovh.untraced_events != 0) {
    std::fprintf(stderr, "FAIL: unbound (untraced) run recorded trace "
                         "events — the off path is not off\n");
    return 1;
  }
  if (trace::kEnabled && trace_ovh.traced_events == 0) {
    std::fprintf(stderr, "FAIL: bound (traced) rerun recorded no events\n");
    return 1;
  }
  return 0;
}
