// Figures 5b/5c: message rate (million messages per second) for put
// communication, inter-node and intra-node.
//
// The paper's method: start 1000 transactions back to back without
// synchronization, bulk-complete once; the per-message cost is the
// injection overhead (416 ns inter-node, 80 ns intra-node for foMPI).
#include "baselines/mpi22_rma.hpp"
#include "baselines/pgas.hpp"
#include "bench_util.hpp"
#include "core/window.hpp"

using namespace fompi;
using namespace fompi::bench;

namespace {

const std::vector<std::size_t> kSizes{8, 64, 512, 4096, 32768};
constexpr int kBurst = 500;

template <class IssueFn, class CompleteFn>
double rate_mmps(IssueFn&& issue, CompleteFn&& complete) {
  Timer t;
  for (int i = 0; i < kBurst; ++i) issue();
  complete();
  const double us = t.elapsed_us();
  return kBurst / us;  // messages per microsecond == M msgs/s
}

void panel(const char* title, const fabric::FabricOptions& opts) {
  header(title);
  std::printf("%-24s", "size [B]");
  for (auto s : kSizes) std::printf("%12zu", s);
  std::printf("\n");

  auto run_fompi = [&](std::size_t s) {
    return measure(2, opts, 3, [&](fabric::RankCtx& ctx) {
             static thread_local std::vector<std::byte> buf;
             buf.resize(s);
             core::Win win = core::Win::allocate(
                 ctx, kSizes.back() * 2);
             double r = 0;
             if (ctx.rank() == 0) {
               win.lock(core::LockType::exclusive, 1);
               r = rate_mmps([&] { win.put(buf.data(), s, 1, 0); },
                             [&] { win.flush(1); });
               win.unlock(1);
             }
             ctx.barrier();
             win.free();
             return r;
           }).median_us;
  };
  auto run_pgas = [&](std::size_t s, baselines::PgasConfig cfg) {
    return measure(2, opts, 3, [&](fabric::RankCtx& ctx) {
             static thread_local std::vector<std::byte> buf;
             buf.resize(s);
             baselines::SharedArray arr(ctx, kSizes.back() * 2, cfg);
             double r = 0;
             if (ctx.rank() == 0) {
               r = rate_mmps([&] { arr.memput(1, 0, buf.data(), s); },
                             [&] { arr.fence(); });
             }
             ctx.barrier();
             arr.destroy(ctx);
             return r;
           }).median_us;
  };
  auto run_mpi1 = [&](std::size_t s) {
    return measure(2, opts, 3, [&](fabric::RankCtx& ctx) {
             static thread_local std::vector<std::byte> buf;
             buf.resize(s);
             auto& p2p = ctx.fabric().p2p();
             double r = 0;
             if (ctx.rank() == 0) {
               std::vector<fabric::P2PRequest> reqs;
               reqs.reserve(kBurst);
               Timer t;
               for (int i = 0; i < kBurst; ++i) {
                 reqs.push_back(p2p.isend(0, 1, 5, buf.data(), s));
               }
               p2p.waitall(reqs);
               r = kBurst / t.elapsed_us();
               const int go = 1;
               p2p.send(0, 1, 6, &go, sizeof(go));
             } else {
               // Drain the burst (posted lazily: models a busy receiver).
               for (int i = 0; i < kBurst; ++i) {
                 p2p.recv(1, 0, 5, buf.data(), s);
               }
               int go = 0;
               p2p.recv(1, 0, 6, &go, sizeof(go));
             }
             ctx.barrier();
             return r;
           }).median_us;
  };

  std::vector<double> fompi, upc, caf, mpi22, mpi1;
  for (auto s : kSizes) {
    fompi.push_back(run_fompi(s));
    upc.push_back(run_pgas(s, baselines::make_upc_like()));
    caf.push_back(run_pgas(s, baselines::make_caf_like()));
    mpi1.push_back(run_mpi1(s));
  }
  row("FOMPI MPI-3.0", fompi, "%12.3f");
  row("Cray-UPC-like", upc, "%12.3f");
  row("Cray-CAF-like", caf, "%12.3f");
  row("MPI-1 isend", mpi1, "%12.3f");
  // Same rates in absolute ops/s (1 M msgs/s == 1e6 ops/s).
  std::vector<double> ops;
  for (double r : fompi) ops.push_back(r * 1e6);
  row("FOMPI [ops/s]", ops, "%12.3g");
}

}  // namespace

int main() {
  std::printf("Figures 5b/5c: message rate [million messages/s]\n");
  panel("Fig 5b: inter-node", internode_model());
  panel("Fig 5c: intra-node", intranode_model());
  std::printf("\nExpected shape: foMPI ~2.4 M msgs/s inter-node (416 ns "
              "injection) and ~12 M intra-node (80 ns),\nPGAS layers below, "
              "rates falling once the per-byte term dominates.\n");
  return 0;
}
