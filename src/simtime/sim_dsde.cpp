#include "simtime/sim_dsde.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "rdma/network_model.hpp"
#include "simtime/des.hpp"
#include "simtime/sim_sync.hpp"

namespace fompi::sim {

namespace {

using rdma::kGemini;
// The NIC's costs, in microseconds: a small message's one-way latency, the
// injection overhead, and a remote accumulate's latency.
constexpr double kMsgLatencyUs = kGemini.put_base_ns / 1e3;
constexpr double kOverheadUs = kGemini.inter_overhead_ns / 1e3;
constexpr double kAmoUs = kGemini.amo_base_ns / 1e3;

/// NBX, event-driven: every rank issues k synchronous sends to random
/// targets; once all acks are in, it joins a nonblocking dissemination
/// barrier. The exchange is complete when the last rank leaves the barrier.
double simulate_nbx(int p, const DsdeParams& params) {
  if (p <= 1) return 0.0;
  const int rounds = std::bit_width(static_cast<unsigned>(p - 1));
  Sim sim;
  struct RankState {
    int acks_pending;
    int round = -1;  // -1: not yet in the barrier
    std::vector<bool> received;
    bool sent_current = false;
    double exit_time = -1;
  };
  std::vector<RankState> ranks(static_cast<std::size_t>(p));
  for (auto& r : ranks) {
    r.acks_pending = params.k;
    r.received.assign(static_cast<std::size_t>(rounds), false);
  }

  std::function<void(int)> advance = [&](int rank) {
    auto& st = ranks[static_cast<std::size_t>(rank)];
    while (true) {
      if (st.round == rounds) {
        st.exit_time = sim.now();
        return;
      }
      const int r = st.round;
      if (!st.sent_current) {
        st.sent_current = true;
        const int partner = static_cast<int>(
            (static_cast<std::uint64_t>(rank) + (1ull << r)) %
            static_cast<std::uint64_t>(p));
        sim.after(kOverheadUs + kMsgLatencyUs + params.p2p_msg_extra_us,
                  [&, partner, r] {
          auto& pst = ranks[static_cast<std::size_t>(partner)];
          pst.received[static_cast<std::size_t>(r)] = true;
          if (pst.round == r && pst.sent_current) advance(partner);
        });
      }
      if (!st.received[static_cast<std::size_t>(r)]) return;
      ++st.round;
      st.sent_current = false;
    }
  };

  auto join_barrier = [&](int rank) {
    ranks[static_cast<std::size_t>(rank)].round = 0;
    advance(rank);
  };

  for (int rank = 0; rank < p; ++rank) {
    sim.at(0.0, [&, rank] {
      auto& st = ranks[static_cast<std::size_t>(rank)];
      if (params.k == 0) {
        join_barrier(rank);
        return;
      }
      for (int i = 0; i < params.k; ++i) {
        // Synchronous send: completes after the round trip (RTS + ack)
        // through the two-sided matching path.
        const double issue = (i + 1) * kOverheadUs;
        const double rtt = 2 * (kMsgLatencyUs + params.p2p_msg_extra_us);
        sim.after(issue + rtt, [&, rank] {
          auto& s = ranks[static_cast<std::size_t>(rank)];
          if (--s.acks_pending == 0) join_barrier(rank);
        });
      }
      (void)st;
    });
  }
  sim.run();
  double max_exit = 0;
  for (const auto& st : ranks) max_exit = std::max(max_exit, st.exit_time);
  return max_exit;
}

}  // namespace

DsdeSeries simulate_dsde(int p, const DsdeParams& params) {
  DsdeSeries out{};
  SyncParams sp;  // the NIC model's message latency and overhead
  sp.seed = params.seed;

  // foMPI RMA: fence, k remote accumulates (pipelined: k injection
  // overheads, one latency), fence.
  const double fence = simulate_dissemination_barrier(p, sp);
  out.fompi_rma_us = 2 * fence + params.k * kOverheadUs + kAmoUs;

  // The same protocol over Cray's MPI-2.2 one sided: per-op software cost
  // and a slower fence (perf::BaselineModel).
  const perf::BaselineModel bm;
  SyncParams sp22 = sp;
  sp22.msg_latency_us = sp.msg_latency_us * bm.mpi22_fence_per_log_us /
                        perf::PaperModel{}.fence_per_log_us;
  const double fence22 = simulate_dissemination_barrier(p, sp22);
  out.mpi22_rma_us =
      2 * fence22 + params.k * (kOverheadUs + bm.mpi22_extra_us) + kAmoUs;

  // NBX (LibNBC-style), event-driven.
  out.nbx_us = simulate_nbx(p, params);

  // Reduce_scatter protocol: counts via a vector reduce_scatter (the
  // vector is p entries long — linear work), then k direct messages.
  out.reduce_scatter_us =
      20.0 + 0.1 * p + params.k * (kOverheadUs + kMsgLatencyUs);

  // Alltoall protocol: dense personalized exchange, pairwise algorithm —
  // p-1 rounds regardless of the sparse payload.
  out.alltoall_us = (p - 1) * (kOverheadUs + 0.2) + kMsgLatencyUs;

  return out;
}

}  // namespace fompi::sim
