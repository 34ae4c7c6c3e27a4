// Solo probes for the per-layer metrics: one public call at a time by one
// client with no other load, timed from outside, under the same Gemini
// cost model as the workloads. Each probe reports the median call.
#include <string>

#include "apps/milc.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "core/window.hpp"
#include "kv/kv.hpp"
#include "tracer.hpp"

namespace fompi::bench {
namespace {

/// Times `reps` calls of `call`; returns per-call ns.
template <class F>
std::vector<double> time_calls(int reps, F&& call) {
  std::vector<double> ns(static_cast<std::size_t>(reps));
  for (auto& v : ns) {
    const std::uint64_t t0 = now_ns();
    call();
    v = static_cast<double>(now_ns() - t0);
  }
  return ns;
}

/// Per-repetition maximum over ranks of per-rank samples.
std::vector<double> max_over_ranks(const std::vector<std::vector<double>>& s) {
  std::vector<double> out(s[0].size(), 0.0);
  for (const auto& rank : s) {
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = std::max(out[k], rank[k]);
  }
  return out;
}

void probe_kv(int reps, Tracer* tracer, std::vector<Metric>* m) {
  std::vector<double> get_ns, uncached_ns, put_ns;
  double amo_uncached = 0, amo_put = 0;
  fabric::run_ranks(2, [&](fabric::RankCtx& ctx) {
    kv::KvStore cached(ctx);
    kv::KvConfig cfg;
    cfg.client_cache = false;
    kv::KvStore uncached(ctx, cfg);
    if (ctx.rank() == 0) {
      // A key of a shard rank 1 owns: every access crosses the cost model.
      std::uint64_t key = 1;
      while (cached.owner_of(cached.shard_of(key)) != 1) ++key;
      cached.put(key, key * 3);
      uncached.put(key, key * 3);
      std::uint64_t v = 0;
      bool found = false;
      cached.get(key, &v, &found);  // fills the cache
      const std::uint64_t t0 = now_ns();
      get_ns = time_calls(reps, [&] { cached.get(key, &v, &found); });
      const std::uint64_t t1 = now_ns();
      const std::uint64_t a0 = op_counters().get(Op::transport_amo);
      uncached_ns = time_calls(reps / 4, [&] { uncached.get(key, &v, &found); });
      const std::uint64_t a1 = op_counters().get(Op::transport_amo);
      const std::uint64_t t2 = now_ns();
      put_ns = time_calls(reps / 4, [&] { uncached.put(key, key * 31 + 7); });
      const std::uint64_t a2 = op_counters().get(Op::transport_amo);
      const std::uint64_t t3 = now_ns();
      amo_uncached = static_cast<double>(a1 - a0) / (reps / 4);
      amo_put = static_cast<double>(a2 - a1) / (reps / 4);
      if (tracer != nullptr) {
        tracer->span(0, "probe:KvStore::get cached", t0, t1);
        tracer->span(0, "probe:KvStore::get uncached", t1, t2);
        tracer->span(0, "probe:KvStore::put", t2, t3);
      }
    }
    ctx.barrier();
    cached.destroy(ctx);
    uncached.destroy(ctx);
  }, model_options());
  m->push_back({"kv.get_solo_us", "us", median(get_ns) / 1e3});
  m->push_back({"kv.get_uncached_solo_us", "us", median(uncached_ns) / 1e3});
  m->push_back({"kv.put_solo_us", "us", median(put_ns) / 1e3});
  m->push_back({"kv.amo_per_get_uncached", "count", amo_uncached});
  m->push_back({"kv.amo_per_put", "count", amo_put});
}

/// Raw NIC calls on a registered region, no fabric: the rdma layer alone.
double probe_rdma(int reps, Tracer* tracer, std::vector<Metric>* m) {
  double amo_ns = 0;
  for (const auto inject : {rdma::Injection::model, rdma::Injection::none}) {
    rdma::DomainConfig dc;
    dc.nranks = 2;
    dc.ranks_per_node = 1;
    dc.inject = inject;
    rdma::Domain dom(dc);
    rdma::Nic& nic = dom.nic(0);
    std::vector<std::uint64_t> mem(512, 0);
    const rdma::RegionDesc d =
        dom.registry().register_region(1, mem.data(), mem.size() * 8);
    const std::uint64_t src = 42;
    std::vector<double> issue(static_cast<std::size_t>(reps));
    std::vector<double> gsync(static_cast<std::size_t>(reps));
    const std::uint64_t t0 = now_ns();
    for (std::size_t k = 0; k < issue.size(); ++k) {
      const std::uint64_t a = now_ns();
      nic.put_nbi(1, d, (k % 64) * 8, &src, 8);
      const std::uint64_t b = now_ns();
      nic.gsync();
      issue[k] = static_cast<double>(b - a);
      gsync[k] = static_cast<double>(now_ns() - b);
    }
    const std::uint64_t t1 = now_ns();
    if (inject == rdma::Injection::none) {
      m->push_back({"rdma.put8_issue_sw_ns", "ns", median(issue)});
      if (tracer != nullptr) tracer->span(0, "probe:Nic::put_nbi none", t0, t1);
    } else {
      const auto amo = time_calls(reps, [&] {
        nic.amo(1, d, 0, rdma::AmoOp::fetch_add, 1);
      });
      amo_ns = median(amo);
      m->push_back({"rdma.amo_solo_us", "us", amo_ns / 1e3});
      m->push_back({"rdma.put8_issue_ns", "ns", median(issue)});
      m->push_back({"rdma.gsync_us", "us", median(gsync) / 1e3});
      if (tracer != nullptr) {
        tracer->span(0, "probe:Nic::put_nbi+gsync model", t0, t1);
        tracer->span(0, "probe:Nic::amo model", t1, now_ns());
      }
    }
    dom.registry().deregister(d.rkey);
  }
  return amo_ns;
}

void probe_core(int reps, double raw_amo_ns, Tracer* tracer,
                std::vector<Metric>* m) {
  std::vector<double> put_ns, flush_ns, fao_ns, big_ns;
  fabric::run_ranks(2, [&](fabric::RankCtx& ctx) {
    constexpr std::size_t kBig = 64 * 1024;
    core::Win win = core::Win::allocate(ctx, kBig + 4096);
    if (ctx.rank() == 0) {
      win.lock_all();
      const std::uint64_t v = 7, one = 1;
      std::uint64_t old = 0;
      std::vector<std::uint64_t> big(kBig / 8, 1);
      const std::uint64_t t0 = now_ns();
      for (int k = 0; k < reps; ++k) {
        const std::uint64_t a = now_ns();
        win.put(&v, 8, 1, 4096);
        const std::uint64_t b = now_ns();
        win.flush(1);
        put_ns.push_back(static_cast<double>(b - a));
        flush_ns.push_back(static_cast<double>(now_ns() - b));
      }
      const std::uint64_t t1 = now_ns();
      fao_ns = time_calls(reps, [&] {
        win.fetch_and_op(&one, &old, Elem::u64, RedOp::sum, 1, 0);
      });
      const std::uint64_t t2 = now_ns();
      big_ns = time_calls(reps / 8, [&] {
        win.put(big.data(), kBig, 1, 4096);
        win.flush(1);
      });
      if (tracer != nullptr) {
        tracer->span(0, "probe:Win::put+flush", t0, t1);
        tracer->span(0, "probe:Win::fetch_and_op", t1, t2);
        tracer->span(0, "probe:Win::put 64 KiB+flush", t2, now_ns());
      }
      win.unlock_all();
    }
    ctx.barrier();
    win.free();
  }, model_options());
  m->push_back({"core.put8_call_ns", "ns", median(put_ns)});
  m->push_back({"core.flush_us", "us", median(flush_ns) / 1e3});
  m->push_back({"core.amo_veneer_ns", "ns", median(fao_ns) - raw_amo_ns});
  m->push_back({"core.put64k_us", "us", median(big_ns) / 1e3});
}

/// Barrier, the MILC dot-product allreduce, apply_operator and CG solves.
void probe_fabric_apps(int reps, Tracer* tracer, std::vector<Metric>* m) {
  std::vector<std::vector<double>> barrier_ns(2), dot_ns(2), apply_ns(2),
      solve_ns(2);
  int iters = 0;
  fabric::run_ranks(2, [&](fabric::RankCtx& ctx) {
    const int r = ctx.rank();
    const auto i = static_cast<std::size_t>(r);
    apps::MilcConfig cfg;
    cfg.grid = apps::milc_default_grid(2);
    apps::MilcSolver solver(ctx, cfg);
    Rng rng(1 + i);
    std::vector<double> b(solver.local_sites()), x, out;
    for (auto& v : b) v = rng.uniform() - 0.5;
    ctx.barrier();
    const std::uint64_t t0 = now_ns();
    barrier_ns[i] = time_calls(reps, [&] { ctx.barrier(); });
    const std::uint64_t t1 = now_ns();
    dot_ns[i] = time_calls(reps, [&] { solver.dot(ctx, b, b); });
    const std::uint64_t t2 = now_ns();
    apply_ns[i] = time_calls(reps / 4, [&] { solver.apply_operator(ctx, b, out); });
    const std::uint64_t t3 = now_ns();
    int it = 0;
    solve_ns[i] = time_calls(std::max(3, reps / 100), [&] {
      x.assign(b.size(), 0.0);
      it = solver.solve_cg(ctx, b, x, kMilcTol, 100);
    });
    if (r == 0) iters = it;
    if (tracer != nullptr) {
      tracer->span(r, "probe:barrier", t0, t1);
      tracer->span(r, "probe:MilcSolver::dot", t1, t2);
      tracer->span(r, "probe:MilcSolver::apply_operator", t2, t3);
      tracer->span(r, "probe:MilcSolver::solve_cg", t3, now_ns());
    }
    solver.destroy(ctx);
  }, model_options());
  m->push_back({"fabric.barrier_us", "us", median(max_over_ranks(barrier_ns)) / 1e3});
  m->push_back({"fabric.allreduce_us", "us", median(max_over_ranks(dot_ns)) / 1e3});
  m->push_back({"apps.milc_apply_us", "us", median(max_over_ranks(apply_ns)) / 1e3});
  m->push_back({"apps.milc_iters", "count", static_cast<double>(iters)});
  // The milc_cg workload's CG-iteration time, demoted from its end-to-end
  // metrics because it does not repeat within a tenth (see README.md).
  m->push_back({"apps.milc_iter_us", "us",
                median(max_over_ranks(solve_ns)) / std::max(iters, 1) / 1e3});
}

}  // namespace

std::vector<Metric> run_probes(int reps, Tracer* tracer) {
  std::vector<Metric> m;
  probe_kv(reps, tracer, &m);
  const double raw_amo_ns = probe_rdma(reps, tracer, &m);
  probe_core(reps, raw_amo_ns, tracer, &m);
  probe_fabric_apps(reps, tracer, &m);
  return m;
}

}  // namespace fompi::bench
