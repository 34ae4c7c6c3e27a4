// Ablation: put-with-notification vs the paper's flag+get scheme.
//
// The paper's MILC communication needs three network operations per
// neighbor (flag AMO by the producer, then a get and its flush by the
// consumer). Win::put_notify delivers the data and a notification record
// into the neighbor's ring in one producer-side call. This bench measures
// MILC's halo exchange with both schemes and with MPI-1 messages.
#include "apps/milc.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"

using namespace fompi;
using namespace fompi::bench;

namespace {

double exchange_us(int p, apps::MilcBackend backend) {
  return measure(p, internode_model(), 3, [&](fabric::RankCtx& ctx) {
           apps::MilcConfig cfg;
           cfg.local = {4, 4, 4, 4};
           cfg.grid = apps::milc_default_grid(p);
           cfg.backend = backend;
           apps::MilcSolver solver(ctx, cfg);
           std::vector<double> field(solver.local_sites(), 1.0);
           std::vector<double> out;
           solver.apply_operator(ctx, field, out);  // warm-up
           ctx.barrier();
           Timer t;
           for (int i = 0; i < 5; ++i) {
             solver.apply_operator(ctx, field, out);
           }
           const double us = t.elapsed_us() / 5;
           solver.destroy(ctx);
           return us;
         }).median_us;
}

}  // namespace

int main() {
  std::printf("Ablation: halo-exchange schemes (one operator application, "
              "4^4 local lattice) [us]\n\n");
  std::printf("%-8s%18s%18s%18s\n", "p", "MPI-1 sendrecv",
              "flag+get (paper)", "put-with-notify");
  for (int p : {2, 4, 8}) {
    std::printf("%-8d%18.0f%18.0f%18.0f\n", p,
                exchange_us(p, apps::MilcBackend::p2p),
                exchange_us(p, apps::MilcBackend::rma),
                exchange_us(p, apps::MilcBackend::rma_notify_queue));
  }
  std::printf("\nExpected: put-with-notify drops the consumer-side get+flush "
              "round trips of the\npaper's scheme (the producer pushes the "
              "data and a sequenced, tag-matched record\ninto the neighbor's "
              "notification ring) — the foMPI-NA follow-up. Each post\npays "
              "put, flush, reserve, record and stamp in series, so the ring "
              "trails flag+get\nuntil its posts are batched.\n");
  return 0;
}
