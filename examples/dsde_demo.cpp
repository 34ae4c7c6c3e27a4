// Dynamic sparse data exchange demo (the Sec 4.2 motif).
//
// Each of 8 ranks has 8-byte messages for 6 random peers; nobody knows in
// advance how many messages it will receive. Runs the exchange with all
// four protocols of Hoefler et al. [15] and verifies they deliver the same
// multiset of messages.
//
// Usage: ./examples/dsde_demo [k_neighbors]
#include <cstdio>
#include <cstdlib>

#include "apps/dsde.hpp"
#include "common/timing.hpp"

using namespace fompi;

int main(int argc, char** argv) {
  const int k = argc > 1 ? std::atoi(argv[1]) : 6;
  constexpr int kRanks = 8;

  for (const auto proto :
       {apps::DsdeProto::alltoall, apps::DsdeProto::alltoall_p2p,
        apps::DsdeProto::reduce_scatter, apps::DsdeProto::nbx,
        apps::DsdeProto::rma}) {
    double us = 0;
    std::uint64_t delivered = 0, checksum = 0;
    fabric::run_ranks(kRanks, [&](fabric::RankCtx& ctx) {
      const auto sends =
          apps::dsde_random_workload(ctx.rank(), kRanks, k, /*seed=*/2024);
      std::vector<apps::DsdeMsg> received;
      double mine_us = 0;
      if (proto == apps::DsdeProto::rma) {
        // The application holds its window; creation is setup cost.
        apps::DsdeRmaExchanger ex(ctx, kRanks * 8 + 64);
        ctx.barrier();
        Timer t;
        received = ex.exchange(ctx, sends);
        mine_us = t.elapsed_us();
        ex.destroy(ctx);
      } else {
        ctx.barrier();
        Timer t;
        received = apps::dsde_exchange(ctx, proto, sends);
        mine_us = t.elapsed_us();
      }
      std::uint64_t local_n = received.size(), local_sum = 0;
      for (const auto& m : received) local_sum += m.payload;
      std::uint64_t n = 0, sum = 0;
      ctx.allreduce(&local_n, &n, 1,
                    [](std::uint64_t a, std::uint64_t b) { return a + b; });
      ctx.allreduce(&local_sum, &sum, 1,
                    [](std::uint64_t a, std::uint64_t b) { return a + b; });
      if (ctx.rank() == 0) {
        us = mine_us;
        delivered = n;
        checksum = sum;
      }
    });
    std::printf("%-16s delivered %4llu msgs in %8.1f us (payload checksum %016llx)\n",
                apps::to_string(proto),
                static_cast<unsigned long long>(delivered), us,
                static_cast<unsigned long long>(checksum));
  }
  return 0;
}
