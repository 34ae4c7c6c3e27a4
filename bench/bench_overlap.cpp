// Suspend-on-wait overlap: modeled message rate and issue overhead vs
// fiber count (the src/fabric/progress engine).
//
// Two questions, the first with a built-in acceptance gate (exit 1):
//
//   1. Modeled throughput (Injection::model — MODELED numbers, wall time
//      tracks the charged Gemini costs; see CLAUDE.md): one rank runs
//      F in {1, 8, 64, 512} fibers, each pipelining 8-byte AMOs (the
//      gated workload), gets, or puts to a passive peer. One fiber is
//      the blocking baseline (o + s + L per op); F fibers overlap up to
//      F network latencies while the origin serializes only the issue
//      path. Gate: >= 4x the 1-fiber rate at 64 fibers for the amo
//      pipeline, monotone (with tolerance) up to 64. The closed-form
//      model (simtime/sim_overlap.hpp) is printed beside every measured
//      rate.
//   2. Issue overhead (Injection::none — software-only, same caveat as
//      bench_fastpath): the identical pipelines with no modeled time
//      charged, i.e. the host-side cost of issue + fiber switch +
//      completion bookkeeping per op, vs fiber count.
//
// An informational third section drives the put-with-notification
// producer pipeline (reserve/record/stamp, 3 awaits per post) against a
// live consumer on the fabric.
//
// Output: one JSON object on stdout (consumed by scripts/bench_smoke.sh
// as BENCH_overlap.json).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/buffer.hpp"
#include "common/timing.hpp"
#include "core/window.hpp"
#include "fabric/progress/progress.hpp"
#include "rdma/nic.hpp"
#include "simtime/sim_overlap.hpp"

using namespace fompi;
using namespace fompi::bench;
namespace progress = fompi::fabric::progress;

namespace {

constexpr int kReps = 3;
constexpr int kTotalOps = 4096;   // per timed rep, split across fibers
constexpr int kNotifyPosts = 512;
const int kFiberCounts[] = {1, 8, 64, 512};

enum class Kind { put, get, amo };

const char* to_string(Kind k) {
  switch (k) {
    case Kind::put: return "put8";
    case Kind::get: return "get8";
    case Kind::amo: return "amo8";
  }
  return "?";
}

sim::OverlapModel model_for(Kind k) {
  switch (k) {
    case Kind::put: return sim::overlap_model_put8();
    case Kind::get: return sim::overlap_model_get8();
    case Kind::amo: return sim::overlap_model_amo8();
  }
  return {};
}

/// One sliding-window pipeline: issues `ops` operations of one kind to
/// rank 1, suspending on each completion. F of these per rank keep F ops
/// in flight.
class OpPipeline final : public progress::Fiber {
 public:
  OpPipeline(rdma::Nic& nic, const rdma::RegionDesc& d, Kind kind, int ops)
      : nic_(nic), d_(d), kind_(kind), ops_(ops) {}

 protected:
  void step(progress::Scheduler& s) override {
    FOMPI_FIBER_BEGIN();
    for (i_ = 0; i_ < ops_; ++i_) {
      issue();
      FOMPI_FIBER_AWAIT(s, h_);
    }
    FOMPI_FIBER_END();
  }

 private:
  void issue() {
    const std::size_t off = (static_cast<std::size_t>(i_) % 64) * 8;
    switch (kind_) {
      case Kind::put: h_ = nic_.put_nb(1, d_, off, &src_, 8); break;
      case Kind::get: h_ = nic_.get_nb(1, d_, off, &dst_, 8); break;
      case Kind::amo:
        h_ = nic_.amo_nb(1, d_, off, rdma::AmoOp::fetch_add, 1, 0, &fetched_);
        break;
    }
  }

  rdma::Nic& nic_;
  const rdma::RegionDesc& d_;
  Kind kind_;
  int ops_ = 0;
  int i_ = 0;
  rdma::Handle h_ = rdma::kDoneHandle;
  alignas(8) std::uint64_t src_ = 1;
  alignas(8) std::uint64_t dst_ = 0;
  alignas(8) std::uint64_t fetched_ = 0;
};

/// Median wall ns/op of kTotalOps ops split over `fibers` pipelines.
double pipeline_ns_per_op(Kind kind, int fibers, rdma::Injection inject) {
  rdma::DomainConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 1;  // inter-node ("DMAPP") path
  cfg.inject = inject;
  cfg.delivery = rdma::Delivery::immediate;
  rdma::Domain dom(cfg);
  rdma::Nic& nic = dom.nic(0);
  AlignedBuffer mem(1 << 16);
  const rdma::RegionDesc d =
      dom.registry().register_region(1, mem.data(), 1 << 16);

  const int per_fiber = std::max(1, kTotalOps / fibers);
  const int total = per_fiber * fibers;
  std::vector<double> ns;
  for (int r = 0; r < kReps + 1; ++r) {  // first rep is warmup
    progress::Scheduler sched(nic);
    for (int f = 0; f < fibers; ++f) {
      sched.spawn<OpPipeline>(nic, d, kind, per_fiber);
    }
    Timer t;
    sched.run();
    if (r > 0) ns.push_back(static_cast<double>(t.elapsed_ns()) / total);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Put-with-notification producer pipeline: reserve -> record -> stamp,
/// one await per step (the decomposition Win::put_notify's blocking post
/// takes in one call).
class NotifyPostFiber final : public progress::Fiber {
 public:
  NotifyPostFiber(progress::NotifyPlane& plane, int me, int target, int posts)
      : plane_(plane), me_(me), target_(target), posts_(posts) {}

 protected:
  void step(progress::Scheduler& s) override {
    FOMPI_FIBER_BEGIN();
    for (i_ = 0; i_ < posts_; ++i_) {
      h_ = plane_.reserve_nb(me_, target_, &seq_);
      FOMPI_FIBER_AWAIT(s, h_);
      while (!plane_.fits(seq_, cursor_)) {
        h_ = plane_.cursor_nb(me_, target_, &cursor_);
        FOMPI_FIBER_AWAIT(s, h_);
      }
      h_ = plane_.record_nb(me_, target_, seq_, /*tag=*/7, /*tdisp=*/0,
                            /*bytes=*/8);
      FOMPI_FIBER_AWAIT(s, h_);
      h_ = plane_.stamp_nb(me_, target_, seq_);
      FOMPI_FIBER_AWAIT(s, h_);
    }
    FOMPI_FIBER_END();
  }

 private:
  progress::NotifyPlane& plane_;
  int me_, target_, posts_;
  int i_ = 0;
  std::uint64_t seq_ = 0, cursor_ = 0;
  rdma::Handle h_ = rdma::kDoneHandle;
};

/// Modeled notify-post rate at `fibers` producer pipelines against a live
/// consumer (2 thread-ranks; the consumer competes for the host core, so
/// this row is informational, not gated).
double notify_rate_mops(int fibers) {
  const int per_fiber = std::max(1, kNotifyPosts / fibers);
  const int total = per_fiber * fibers;
  const double us =
      measure(2, internode_model(), kReps, [&](fabric::RankCtx& ctx) {
        core::Win win = core::Win::allocate(ctx, 64);
        win.lock_all();
        win.notify_enable(ctx, /*capacity=*/1024);
        progress::NotifyPlane& plane = *win.notify_plane();
        double us = 0;
        if (ctx.rank() == 0) {
          progress::Scheduler sched(ctx.nic());
          for (int f = 0; f < fibers; ++f) {
            sched.spawn<NotifyPostFiber>(plane, 0, 1, per_fiber);
          }
          Timer t;
          sched.run();
          us = t.elapsed_us();
        } else {
          progress::NotifyRecord rec;
          int got = 0;
          while (got < total) {
            got += static_cast<int>(
                plane.waitsome(1, progress::kAnyNotifyTag, &rec, 1));
          }
        }
        ctx.barrier();  // producer's ring writes all consumed before free
        win.unlock_all();
        win.free();
        return us;
      }).median_us;
  return static_cast<double>(total) / us;
}

struct RateCase {
  Kind kind;
  int fibers = 1;
  double mops = 0;        ///< measured under Injection::model
  double model_mops = 0;  ///< closed form at the same fiber count
};

struct OverheadCase {
  Kind kind;
  int fibers = 1;
  double ns_per_op = 0;  ///< software-only (Injection::none)
};

}  // namespace

int main() {
  // --- modeled throughput, gated on the amo pipeline -----------------------
  // The gate retries: thread-rank wall time on the shared host can smear
  // one attempt, but three consecutive failures mean the engine really
  // does not overlap.
  std::vector<RateCase> rates;
  bool gate_ok = false;
  std::string gate_msg;
  for (int attempt = 0; attempt < 3 && !gate_ok; ++attempt) {
    rates.clear();
    for (Kind kind : {Kind::amo, Kind::get, Kind::put}) {
      const sim::OverlapModel m = model_for(kind);
      for (int f : kFiberCounts) {
        RateCase c;
        c.kind = kind;
        c.fibers = f;
        c.mops = 1e3 / pipeline_ns_per_op(kind, f, rdma::Injection::model);
        c.model_mops = m.rate_mops(f);
        rates.push_back(c);
      }
    }
    // rates[0..3] is the amo sweep in kFiberCounts order.
    const double r1 = rates[0].mops, r8 = rates[1].mops, r64 = rates[2].mops;
    gate_ok = true;
    gate_msg.clear();
    char buf[160];
    if (r64 < 4.0 * r1) {
      std::snprintf(buf, sizeof buf,
                    "amo rate at 64 fibers %.2f Mops/s < 4x 1-fiber %.2f",
                    r64, r1);
      gate_msg = buf;
      gate_ok = false;
    } else if (r8 < 0.90 * r1 || r64 < 0.90 * r8) {
      // Monotone up to 64 fibers, with slack for host-timing smear (the
      // pipeline saturates near F* ~ 6, so 8 and 64 sit on the plateau).
      std::snprintf(buf, sizeof buf,
                    "amo rate not monotone: f1 %.2f f8 %.2f f64 %.2f", r1, r8,
                    r64);
      gate_msg = buf;
      gate_ok = false;
    }
  }

  // --- software-only issue overhead ----------------------------------------
  std::vector<OverheadCase> overheads;
  for (Kind kind : {Kind::amo, Kind::get, Kind::put}) {
    for (int f : kFiberCounts) {
      OverheadCase c;
      c.kind = kind;
      c.fibers = f;
      c.ns_per_op = pipeline_ns_per_op(kind, f, rdma::Injection::none);
      overheads.push_back(c);
    }
  }

  // --- notified-access producer pipeline (informational) -------------------
  std::vector<std::pair<int, double>> notify;
  for (int f : {1, 8, 64}) notify.emplace_back(f, notify_rate_mops(f));

  std::printf("{\n  \"bench\": \"overlap\",\n  \"injection\": \"model\",\n");
  std::printf("  \"ops_per_rep\": %d,\n  \"cases\": [\n", kTotalOps);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const RateCase& c = rates[i];
    std::printf("    {\"name\": \"%s_pipeline_f%d\", \"fibers\": %d, "
                "\"mops_per_s\": %.2f, \"model_mops_per_s\": %.2f}%s\n",
                to_string(c.kind), c.fibers, c.fibers, c.mops, c.model_mops,
                i + 1 == rates.size() ? "" : ",");
  }
  std::printf("  ],\n  \"issue_overhead_ns\": [\n");
  for (std::size_t i = 0; i < overheads.size(); ++i) {
    const OverheadCase& c = overheads[i];
    std::printf("    {\"name\": \"%s_issue_f%d\", \"fibers\": %d, "
                "\"ns_per_op\": %.1f}%s\n",
                to_string(c.kind), c.fibers, c.fibers, c.ns_per_op,
                i + 1 == overheads.size() ? "" : ",");
  }
  std::printf("  ],\n  \"notify_post_pipeline\": [\n");
  for (std::size_t i = 0; i < notify.size(); ++i) {
    std::printf("    {\"name\": \"notify_post_f%d\", \"fibers\": %d, "
                "\"mops_per_s\": %.3f}%s\n",
                notify[i].first, notify[i].first, notify[i].second,
                i + 1 == notify.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");

  if (!gate_ok) {
    std::fprintf(stderr, "FAIL: %s\n", gate_msg.c_str());
    return 1;
  }
  return 0;
}
