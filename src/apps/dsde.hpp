// Dynamic sparse data exchange (Sec 4.2, Fig 7b).
//
// Every process holds data for a few arbitrary targets; nobody knows who
// will send to them. The four protocols of Hoefler et al. [15], all
// implemented for real over the fabric:
//   * alltoall       — dense count exchange + payload movement, both as
//                      one RMA-native alltoallv (put/notify trees);
//   * alltoall_p2p   — the classic form: dense count exchange, then
//                      two-sided point-to-point messages (kept as the
//                      old-vs-new comparison baseline in Fig 7b);
//   * reduce_scatter — each rank learns only its incoming count, then
//                      wildcard-receives that many messages;
//   * nbx            — speculative synchronous sends + nonblocking barrier
//                      (proved optimal in [15]; the "LibNBC" curve), run as
//                      two fibers on the progress engine: a sender fiber
//                      drives the synchronous sends, a receiver fiber
//                      parks on probe/ibarrier readiness, and the
//                      scheduler's idle loop does the waiting;
//   * rma            — remote accumulates into per-source slots inside a
//                      fence epoch (the foMPI protocol of Fig 7b).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/window.hpp"

namespace fompi::apps {

enum class DsdeProto {
  alltoall,
  alltoall_p2p,
  reduce_scatter,
  nbx,
  rma,
};

const char* to_string(DsdeProto p) noexcept;

struct DsdeMsg {
  int peer;                ///< target on send, source on receive
  std::uint64_t payload;
  friend bool operator==(const DsdeMsg&, const DsdeMsg&) = default;
};

/// Collective: delivers every (target, payload) pair in `sends`; returns
/// the messages received by this rank (in unspecified order).
std::vector<DsdeMsg> dsde_exchange(fabric::RankCtx& ctx, DsdeProto proto,
                                   const std::vector<DsdeMsg>& sends);

/// Reusable RMA exchanger: allocates the landing window once and runs any
/// number of fence/accumulate exchanges over it (how an application would
/// use the protocol; window creation is not part of the exchange cost).
class DsdeRmaExchanger {
 public:
  /// Collective. `max_incoming` bounds the messages a rank can receive in
  /// one exchange.
  DsdeRmaExchanger(fabric::RankCtx& ctx, std::size_t max_incoming);
  /// Collective.
  void destroy(fabric::RankCtx& ctx);
  /// Collective: one complete exchange.
  std::vector<DsdeMsg> exchange(fabric::RankCtx& ctx,
                                const std::vector<DsdeMsg>& sends);

 private:
  std::size_t max_incoming_;
  core::Win win_;
};

/// Generates the paper's benchmark workload: k random targets per rank
/// (excluding self), 8-byte payloads, deterministic per (seed, rank).
std::vector<DsdeMsg> dsde_random_workload(int rank, int nranks, int k,
                                          std::uint64_t seed);

}  // namespace fompi::apps
