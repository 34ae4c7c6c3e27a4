#include "simtime/sim_overlap.hpp"

namespace fompi::sim {

OverlapModel overlap_model_put8() {
  return {.latency_ns = rdma::kGemini.put_latency_ns(8)};
}

OverlapModel overlap_model_get8() {
  return {.latency_ns = rdma::kGemini.get_latency_ns(8)};
}

OverlapModel overlap_model_amo8() {
  return {.latency_ns = rdma::kGemini.amo_latency_ns()};
}

}  // namespace fompi::sim
