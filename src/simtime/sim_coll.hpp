// Closed-form latency models for the RMA-native collectives
// (src/fabric/collectives) at the paper's scales (up to 512k+ processes).
//
// The thread-rank runtime measures the real put/notify trees at up to a few
// dozen ranks; these forms extend the curves reading the NIC's own Gemini
// model (rdma::kGemini), so the claims they support are about round-count
// *shape* — O(log p) for the tree collectives, O(log nodes) for the
// hierarchical ones — not absolute numbers.
//
// Model gap: the alltoallv form charges a leading barrier plus k counter
// AMOs, the O(log p) + O(k) shape SimColl.AlltoallvSteadyStateIsLogPUpTo512k
// pins. run_alltoallv runs no barrier and issues p - 1 counter AMOs per
// rank (alltoallv_put_core), because the dense counter is what makes its
// two landing banks safe: at p = 256 that is 4 doorbells and about 13 us of
// busy time, against the form's 0.78 us for the AMO group.
#pragma once

#include <cstddef>

namespace fompi::sim {

enum class CollOp {
  barrier,    ///< dissemination: ceil(log2 p) 8-byte notify rounds
  bcast,      ///< binomial tree (hierarchical when ranks_per_node > 1)
  allreduce,  ///< recursive doubling (hierarchical when ranks_per_node > 1)
  allgather,  ///< Bruck: log rounds, total bytes still (p-1) * nbytes
  alltoallv,  ///< persistent-plan run path: barrier + k sparse puts + AMOs
};

struct CollParams {
  /// Ranks per node: 1 = flat trees over all p ranks; > 1 enables the
  /// two-tier hierarchy (intra-node gather, inter-node tree over p /
  /// ranks_per_node leaders).
  int ranks_per_node = 1;
  /// Nonzero destinations per rank in the (sparse) persistent alltoallv.
  int neighbors = 8;
  /// Per-destination payload (bcast/allreduce: full vector; allgather:
  /// contribution block; alltoallv: bytes per neighbor).
  std::size_t nbytes = 8;
};

/// Latency in microseconds of one collective over p processes. The
/// alltoallv form models the *persistent* run path (plan_alltoallv +
/// run_alltoallv): the dense O(p) count exchange is paid once at plan time
/// and amortized away, which is exactly what makes the steady-state cost
/// O(log p) + O(neighbors).
double simulate_coll_us(CollOp op, int p, const CollParams& params = {});

}  // namespace fompi::sim
