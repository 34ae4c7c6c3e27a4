#include "simtime/sim_coll.hpp"

#include <algorithm>
#include <cmath>

#include "rdma/network_model.hpp"

namespace fompi::sim {

namespace {

using rdma::kGemini;
// The NIC's costs the forms read more than once, in microseconds.
constexpr double kOverheadUs = kGemini.inter_overhead_ns / 1e3;
constexpr double kPutBaseUs = kGemini.put_base_ns / 1e3;
constexpr double kIntraOverheadUs = kGemini.intra_overhead_ns / 1e3;

int ceil_log2(int n) {
  int r = 0;
  while ((1 << r) < n) ++r;
  return r;
}

/// One tree round on the critical path: issue the data put, issue the
/// notify flag (second doorbell group), wire latency for both.
double inter_round_us(std::size_t nbytes) {
  return 2.0 * kOverheadUs + kPutBaseUs +
         static_cast<double>(nbytes) * kGemini.put_byte_ns * 1e-3;
}

double intra_round_us(std::size_t nbytes) {
  return kIntraOverheadUs + kGemini.intra_base_ns / 1e3 +
         static_cast<double>(nbytes) * kGemini.intra_byte_ns * 1e-3;
}

double barrier_us(int p) { return ceil_log2(p) * (kOverheadUs + kPutBaseUs); }

}  // namespace

double simulate_coll_us(CollOp op, int p, const CollParams& c) {
  if (p <= 1) return 0.0;
  const int rpn = std::max(1, c.ranks_per_node);
  const bool hier = rpn > 1 && p > rpn;
  const int nnodes = hier ? (p + rpn - 1) / rpn : p;
  // Every data collective opens with the leading barrier (landing reuse
  // protocol); the hierarchy adds one intra gather and one intra release
  // on the critical path.
  const double lead = barrier_us(p);
  const double intra =
      hier ? intra_round_us(c.nbytes) + (rpn - 1) * kIntraOverheadUs : 0.0;

  switch (op) {
    case CollOp::barrier:
      return barrier_us(p);
    case CollOp::bcast:
      // Binomial depth over nodes; members get the release as one more
      // intra hop.
      return lead + ceil_log2(nnodes) * inter_round_us(c.nbytes) +
             (hier ? 2.0 * intra : 0.0);
    case CollOp::allreduce:
      // Recursive doubling: every round exchanges the full vector; the
      // non-power-of-two fold adds at most two extra rounds (bounded,
      // ignored here — shape, not absolutes).
      return lead + ceil_log2(nnodes) * inter_round_us(c.nbytes) +
             (hier ? 2.0 * intra : 0.0);
    case CollOp::allgather: {
      // Bruck: log rounds of doorbells, but the wire still carries
      // (p - 1) * nbytes in total — rounds dominate for small blocks,
      // bytes for large ones.
      const double rounds = ceil_log2(nnodes) * inter_round_us(0);
      const double bytes = static_cast<double>(nnodes - 1) *
                           static_cast<double>(c.nbytes) * rpn *
                           kGemini.put_byte_ns * 1e-3;
      return lead + rounds + bytes + (hier ? 2.0 * intra : 0.0);
    }
    case CollOp::alltoallv: {
      // Persistent run path: leading barrier, then one doorbell-batched
      // group of k sparse payload puts (overhead once, chained
      // descriptors), one batched group of k counter AMOs, and the
      // arrival wait. The dense count exchange happened at plan time.
      // (run_alltoallv issues p - 1 counter AMOs and no barrier: the model
      // gap in the header.)
      const int k = std::min(c.neighbors, p - 1);
      const double chain_us = kGemini.chain_ns / 1e3;
      const double puts = kOverheadUs + k * chain_us + kPutBaseUs +
                          static_cast<double>(k) *
                              static_cast<double>(c.nbytes) *
                              kGemini.put_byte_ns * 1e-3;
      const double amos =
          kOverheadUs + k * chain_us + kGemini.amo_base_ns / 1e3;
      return lead + puts + amos;
    }
  }
  return 0.0;
}

}  // namespace fompi::sim
