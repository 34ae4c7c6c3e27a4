// Figure 7a: distributed hashtable inserts per second vs process count,
// for foMPI RMA, the UPC-like layer, and MPI-1 active messages.
//
// Small process counts run the real hashtable (16k-scaled-down batches of
// random-key inserts including synchronization, as in the paper); the
// scaling tail uses the calibrated throughput model (see
// simtime/sim_apps.hpp for the calibration notes).
#include "apps/hashtable.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "simtime/sim_apps.hpp"

using namespace fompi;
using namespace fompi::bench;

namespace {
constexpr int kPerRank = 512;

double run_backend(int p, apps::HtBackend backend,
                   const fabric::FabricOptions& opts) {
  return measure(p, opts, 3, [&](fabric::RankCtx& ctx) {
           apps::DistHashtable table(ctx, backend, 4096, 8192);
           Rng rng(99 + static_cast<std::uint64_t>(ctx.rank()));
           std::vector<std::uint64_t> keys;
           for (int i = 0; i < kPerRank; ++i) keys.push_back(rng.next() | 1);
           ctx.barrier();
           Timer t;
           table.batch_insert(ctx, keys);
           const double us = t.elapsed_us();
           table.destroy(ctx);
           return us;
         }).median_us;
}

}  // namespace

int main() {
  std::printf("Figure 7a: hashtable inserts per second (%d inserts/rank "
              "incl. synchronization)\n\n", kPerRank);

  header("thread-rank execution [million inserts/s]");
  std::printf("%-12s%16s%16s%16s\n", "p", "FOMPI MPI-3.0", "UPC-like",
              "MPI-1 AM");
  for (int p : {2, 4, 8}) {
    const auto opts = intranode_model();  // a single "node", like the
                                          // paper's leftmost points
    const double total = static_cast<double>(p) * kPerRank;
    const double rma = total / run_backend(p, apps::HtBackend::rma, opts);
    const double pgas = total / run_backend(p, apps::HtBackend::pgas, opts);
    const double p2p = total / run_backend(p, apps::HtBackend::p2p, opts);
    std::printf("%-12d%16.2f%16.2f%16.2f\n", p, rma, pgas, p2p);
  }

  header("throughput model to 32k processes [billion inserts/s]");
  std::printf("%-12s%16s%16s%16s\n", "p", "FOMPI MPI-3.0", "UPC-like",
              "MPI-1 AM");
  for (int p = 2; p <= 32768; p *= 4) {
    const auto s = sim::simulate_hashtable(p);
    std::printf("%-12d%16.3f%16.3f%16.3f\n", p, s.fompi_ginserts,
                s.upc_ginserts, s.mpi1_ginserts);
  }
  std::printf("\nExpected shape: foMPI and UPC close together and scaling "
              "linearly;\nMPI-1 competitive intra-node, then capped by "
              "handler service + O(p) termination\n(the paper: a single "
              "node's insert rate is unreachable for MPI-1 even at 32k "
              "cores).\n");
  return 0;
}
