// Closed-form model for suspend-on-wait overlap (the fiber progress
// engine, src/fabric/progress).
//
// One fiber issuing blocking ops pays overhead + software + latency per
// op. F fibers pipelining the same op keep F requests in flight: the
// origin still serializes the issue path (overhead + software per op),
// but the network latency of up to F ops overlaps. Steady-state cost per
// op is therefore
//
//   ns_per_op(F) = max(o + s, (o + s + L) / F)
//
// — latency-bound below the saturation point F* = (o+s+L)/(o+s),
// issue-bound above it. bench_overlap measures the real scheduler against
// this form; tests/test_simtime.cpp asserts its shape (monotone rate,
// saturation, and the amo >= 4x headline the bench gates on).
#pragma once

#include "rdma/network_model.hpp"

namespace fompi::sim {

struct OverlapModel {
  /// Origin injection overhead per op (the NIC model's inter_overhead_ns).
  double overhead_ns = rdma::kGemini.inter_overhead_ns;
  /// Issue-path software cost per op: one fiber switch plus the
  /// completion-heap push/pop around each suspended op. Calibrated against
  /// bench_overlap's software-only (Injection::none) rows, which measure
  /// exactly this cost plus the NIC bookkeeping.
  double software_ns = 60.0;
  /// Network completion latency of the pipelined op (default: the NIC
  /// model's AMO round trip).
  double latency_ns = rdma::kGemini.amo_base_ns;

  /// Steady-state cost per op with `fibers` suspend-on-wait pipelines.
  double ns_per_op(int fibers) const noexcept {
    const double issue = overhead_ns + software_ns;
    const double f = fibers < 1 ? 1.0 : static_cast<double>(fibers);
    const double pipelined = (issue + latency_ns) / f;
    return issue > pipelined ? issue : pipelined;
  }

  /// Modeled message rate in Mops/s at `fibers` pipelines.
  double rate_mops(int fibers) const noexcept {
    return 1e3 / ns_per_op(fibers);
  }

  /// Speedup of `fibers` pipelines over one blocking fiber.
  double speedup(int fibers) const noexcept {
    return ns_per_op(1) / ns_per_op(fibers);
  }

  /// Fiber count beyond which the issue path, not latency, is the
  /// bottleneck (fractional; ceil for the first saturated integer count).
  double saturation_fibers() const noexcept {
    const double issue = overhead_ns + software_ns;
    return (issue + latency_ns) / issue;
  }
};

/// Factories charged with the NIC's model (rdma::kGemini) for the three
/// ops bench_overlap pipelines.
OverlapModel overlap_model_put8();
OverlapModel overlap_model_get8();
OverlapModel overlap_model_amo8();

}  // namespace fompi::sim
