// Software-overhead microbenchmark for the RMA issue fast path.
//
// Measures pure per-operation software cost (ns/op) of the simulated NIC
// with Injection::none — no model latency is charged, so the numbers are
// our bookkeeping only, NOT comparable with the figure benches (which run
// Injection::model to reproduce hardware latencies). This is the regression
// harness for the paper's central claim (Sec 2.4/6): the issue path must
// add only a thin constant veneer over the transport, with no locks and no
// heap allocation in steady state.
//
// Matrix: {put, get, amo} x {blocking, explicit-nb, implicit-nb}
//         x {immediate, deferred} delivery, plus a >64 B spill put.
// Output: one JSON object on stdout (consumed by scripts/bench_smoke.sh).
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "common/instr.hpp"
#include "common/timing.hpp"
#include "fabric/progress/progress.hpp"
#include "rdma/nic.hpp"
#include "trace/trace.hpp"

using namespace fompi;
using namespace fompi::rdma;

namespace {

constexpr int kWarmup = 2048;
constexpr int kIters = 100000;
constexpr int kGsyncBatch = 256;  // implicit ops completed in batches

struct CaseResult {
  std::string name;
  double ns_per_op = 0;
  OpCounters delta;  // counters over the measured (post-warmup) loop
};

/// Runs `op(i)` kWarmup times, then kIters timed times; `drain` completes
/// any outstanding work and is excluded from per-op attribution by running
/// inside the timed region only at batch boundaries (it is part of the
/// amortized cost, as on real hardware).
CaseResult run_case(const std::string& name, const std::function<void(int)>& op,
                    const std::function<void()>& drain) {
  for (int i = 0; i < kWarmup; ++i) {
    op(i);
    if ((i + 1) % kGsyncBatch == 0) drain();
  }
  drain();
  const OpCounters before = op_counters();
  Timer t;
  for (int i = 0; i < kIters; ++i) {
    op(i);
    if ((i + 1) % kGsyncBatch == 0) drain();
  }
  drain();
  const double ns = static_cast<double>(t.elapsed_ns());
  CaseResult r;
  r.name = name;
  r.ns_per_op = ns / kIters;
  r.delta = op_counters().since(before);
  return r;
}

/// Traced vs untraced put8 fast path. The untraced run executes with a
/// TraceSession active but the thread UNBOUND — the exact production
/// off-path (one thread-local load + branch per emit site) — and must
/// record zero events. The traced run binds the thread and pays for real
/// ring appends; the delta is the record-path cost.
struct TraceOverhead {
  double untraced_ns_per_op = 0;
  double traced_ns_per_op = 0;
  std::uint64_t untraced_events = 0;  ///< must stay 0: the off path is off
  std::uint64_t traced_events = 0;
  std::uint64_t traced_dropped = 0;
};

void emit_json(const std::vector<CaseResult>& results,
               const TraceOverhead& trace_ovh) {
  std::printf("{\n  \"bench\": \"fastpath\",\n  \"injection\": \"none\",\n");
  std::printf("  \"iters\": %d,\n  \"cases\": [\n", kIters);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    std::printf("    {\"name\": \"%s\", \"ns_per_op\": %.1f", r.name.c_str(),
                r.ns_per_op);
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
  std::printf("  ],\n");
  std::printf("  \"trace_overhead\": [\n"
              "    {\"name\": \"put8_untraced\", \"ns_per_op\": %.1f, "
              "\"trace_events\": %llu},\n"
              "    {\"name\": \"put8_traced\", \"ns_per_op\": %.1f, "
              "\"trace_events\": %llu, \"trace_dropped\": %llu}\n  ]\n",
              trace_ovh.untraced_ns_per_op,
              static_cast<unsigned long long>(trace_ovh.untraced_events),
              trace_ovh.traced_ns_per_op,
              static_cast<unsigned long long>(trace_ovh.traced_events),
              static_cast<unsigned long long>(trace_ovh.traced_dropped));
  std::printf("}\n");
}

/// Runs the put8 blocking case twice under an active TraceSession: first
/// with the thread unbound (production off-path), then bound to a ring.
TraceOverhead measure_trace_overhead() {
  trace::TraceSession::Config tcfg;
  tcfg.ring_capacity = std::size_t{1} << 18;  // warmup + kIters events fit
  tcfg.postmortem_path.clear();
  trace::TraceSession session(1, tcfg);

  DomainConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 1;
  cfg.inject = Injection::none;
  cfg.delivery = Delivery::immediate;
  Domain dom(cfg);
  Nic& nic = dom.nic(0);
  AlignedBuffer mem(1 << 16);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 1 << 16);
  alignas(8) std::uint64_t src = 0x0123456789abcdefull;

  TraceOverhead r;
  const auto put8 = [&](int i) { nic.put(1, d, (i % 64) * 8u, &src, 8); };
  r.untraced_ns_per_op = run_case("put8_untraced", put8, [] {}).ns_per_op;
  r.untraced_events = session.total_events();

  trace::bind_thread(&session.ring(0));
  r.traced_ns_per_op = run_case("put8_traced", put8, [] {}).ns_per_op;
  trace::bind_thread(nullptr);
  r.traced_events = session.total_events();
  r.traced_dropped = session.total_dropped();
  return r;
}

}  // namespace

int main() {
  std::vector<CaseResult> results;

  for (const Delivery delivery : {Delivery::immediate, Delivery::deferred}) {
    DomainConfig cfg;
    cfg.nranks = 2;
    cfg.ranks_per_node = 1;  // inter-node ("DMAPP") path
    cfg.inject = Injection::none;
    cfg.delivery = delivery;
    Domain dom(cfg);
    Nic& nic = dom.nic(0);
    AlignedBuffer mem(1 << 16);
    const RegionDesc d = dom.registry().register_region(1, mem.data(), 1 << 16);
    const std::string tag =
        delivery == Delivery::immediate ? "_immediate" : "_deferred";

    alignas(8) std::uint64_t src = 0x0123456789abcdefull;
    alignas(8) std::uint64_t dst = 0;
    alignas(64) std::byte big[256] = {};
    std::uint64_t fetched = 0;

    // --- blocking ---------------------------------------------------------
    results.push_back(run_case(
        "put8_blocking" + tag,
        [&](int i) { nic.put(1, d, (i % 64) * 8u, &src, 8); }, [] {}));
    results.push_back(run_case(
        "get8_blocking" + tag,
        [&](int i) { nic.get(1, d, (i % 64) * 8u, &dst, 8); }, [] {}));
    results.push_back(run_case(
        "amo8_blocking" + tag,
        [&](int i) {
          nic.amo(1, d, (i % 64) * 8u, AmoOp::fetch_add, 1);
        },
        [] {}));

    // --- explicit nonblocking (handle completed at once) ------------------
    results.push_back(run_case(
        "put8_nb_explicit" + tag,
        [&](int i) { nic.wait(nic.put_nb(1, d, (i % 64) * 8u, &src, 8)); },
        [] {}));
    results.push_back(run_case(
        "get8_nb_explicit" + tag,
        [&](int i) { nic.wait(nic.get_nb(1, d, (i % 64) * 8u, &dst, 8)); },
        [] {}));
    results.push_back(run_case(
        "amo8_nb_explicit" + tag,
        [&](int i) {
          nic.wait(nic.amo_nb(1, d, (i % 64) * 8u, AmoOp::fetch_add, 1, 0,
                              &fetched));
        },
        [] {}));

    // --- implicit nonblocking (bulk-completed by gsync) -------------------
    results.push_back(run_case(
        "put8_nbi_implicit" + tag,
        [&](int i) { nic.put_nbi(1, d, (i % 64) * 8u, &src, 8); },
        [&] { nic.gsync(); }));
    results.push_back(run_case(
        "get8_nbi_implicit" + tag,
        [&](int i) { nic.get_nbi(1, d, (i % 64) * 8u, &dst, 8); },
        [&] { nic.gsync(); }));
    results.push_back(run_case(
        "amo8_nbi_implicit" + tag,
        [&](int i) {
          nic.amo_nbi(1, d, (i % 64) * 8u, AmoOp::fetch_add, 1);
        },
        [&] { nic.gsync(); }));

    // --- spill-size put (payload larger than any inline stage buffer) -----
    results.push_back(run_case(
        "put256_nb_explicit" + tag,
        [&](int i) {
          nic.wait(nic.put_nb(1, d, (i % 16) * 256u, big, sizeof big));
        },
        [] {}));
  }

  // --- fault plan armed but quiescent -----------------------------------
  // Every scheduled site lands inside the warmup (horizon_ops < kWarmup),
  // so the timed loop pays only the armed-plan branch on the issue path.
  // The guard: this must match put8_blocking_immediate — arming a fault
  // plan may not tax the fault-free fast path (the measured-loop counter
  // delta proves no fault fired: fault_injected is absent from its JSON).
  {
    DomainConfig cfg;
    cfg.nranks = 2;
    cfg.ranks_per_node = 1;
    cfg.inject = Injection::none;
    cfg.delivery = Delivery::immediate;
    cfg.fault.seed = 42;
    cfg.fault.transient_faults_per_rank = 2;
    cfg.fault.horizon_ops = 100;  // all sites fire during warmup
    cfg.fault.max_repeats = 2;
    cfg.fault.retry_budget = 4;   // survivable: no failed handles linger
    Domain dom(cfg);
    Nic& nic = dom.nic(0);
    AlignedBuffer mem(1 << 16);
    const RegionDesc d = dom.registry().register_region(1, mem.data(), 1 << 16);
    alignas(8) std::uint64_t src = 1;
    results.push_back(run_case(
        "put8_blocking_fault_armed_idle",
        [&](int i) { nic.put(1, d, (i % 64) * 8u, &src, 8); }, [] {}));
  }

  // --- fiber scheduler linked but idle -----------------------------------
  // A Scheduler is constructed against the NIC (the progress engine is
  // linked in and armed) but no fiber is ever spawned: blocking puts must
  // stay on the plain fast path. scripts/ci.sh gates this case against
  // put8_blocking_immediate (<= 1.25x), so the overlap engine can never
  // tax the latency path it sits beside.
  {
    DomainConfig cfg;
    cfg.nranks = 2;
    cfg.ranks_per_node = 1;
    cfg.inject = Injection::none;
    cfg.delivery = Delivery::immediate;
    Domain dom(cfg);
    Nic& nic = dom.nic(0);
    AlignedBuffer mem(1 << 16);
    const RegionDesc d = dom.registry().register_region(1, mem.data(), 1 << 16);
    alignas(8) std::uint64_t src = 1;
    fompi::fabric::progress::Scheduler sched(nic);
    results.push_back(run_case(
        "put8_blocking_sched_idle",
        [&](int i) { nic.put(1, d, (i % 64) * 8u, &src, 8); }, [] {}));
    sched.run();  // no fibers: must return immediately
  }

  const TraceOverhead trace_ovh = measure_trace_overhead();
  emit_json(results, trace_ovh);
  if (trace_ovh.untraced_events != 0) {
    std::fprintf(stderr, "FAIL: unbound (untraced) run recorded trace "
                         "events — the off path is not off\n");
    return 1;
  }
  if (trace::kEnabled && trace_ovh.traced_events == 0) {
    std::fprintf(stderr, "FAIL: bound (traced) run recorded no events\n");
    return 1;
  }
  return 0;
}
