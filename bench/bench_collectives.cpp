// RMA-native collectives: modeled cost of the dissemination barrier and
// the persistent alltoallv run path (Injection::model — MODELED numbers,
// wall time ~= modeled time; see CLAUDE.md).
//
// Thread-rank executions cover p = 2..8 (above that, host scheduling
// noise dominates); the 8..256-rank tail comes from the simtime closed
// forms (simulate_coll_us), which tests/test_simtime.cpp shape-asserts
// out to 512k ranks. Both sections report microseconds per operation.
//
// Output: one JSON object on stdout (consumed by scripts/bench_smoke.sh
// as BENCH_collectives.json). Acceptance gates run on the DES section
// only (thread-rank numbers are scheduler-noise-dominated on this
// one-core host): barrier and alltoallv at 256 ranks must stay within 8x
// of their 8-rank cost — log-p round counts, not linear.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/timing.hpp"
#include "simtime/sim_coll.hpp"

using namespace fompi;
using namespace fompi::bench;

namespace {

constexpr int kReps = 5;
constexpr int kOpsPerRep = 64;
constexpr std::uint64_t kA2avElems = 8;  // u64 elements per (src,dst) pair

// Two-tier topology: p/rpn "nodes" of rpn ranks.
fabric::FabricOptions hier_model(int rpn) {
  fabric::FabricOptions o = internode_model();
  o.domain.ranks_per_node = rpn;
  return o;
}

double bcast_us_per_op(int p, const fabric::FabricOptions& o) {
  return measure(p, o, kReps, [&](fabric::RankCtx& ctx) {
           std::uint64_t v = ctx.rank() == 0 ? 42 : 0;
           ctx.barrier();
           Timer t;
           for (int i = 0; i < kOpsPerRep; ++i) {
             ctx.fabric().coll().bcast(ctx.rank(), 0, &v, 1);
           }
           return t.elapsed_us() / kOpsPerRep;
         }).median_us;
}

double barrier_us_per_op(int p) {
  return measure(p, internode_model(), kReps, [&](fabric::RankCtx& ctx) {
           Timer t;
           for (int i = 0; i < kOpsPerRep; ++i) ctx.barrier();
           return t.elapsed_us() / kOpsPerRep;
         }).median_us;
}

double alltoallv_us_per_op(int p) {
  return measure(p, internode_model(), kReps, [&](fabric::RankCtx& ctx) {
           auto& coll = ctx.fabric().coll();
           const int r = ctx.rank();
           std::vector<std::uint64_t> counts(static_cast<std::size_t>(p),
                                             kA2avElems);
           std::vector<std::uint64_t> sdispls(static_cast<std::size_t>(p));
           for (int j = 0; j < p; ++j) {
             sdispls[static_cast<std::size_t>(j)] =
                 static_cast<std::uint64_t>(j) * kA2avElems;
           }
           auto plan = coll.plan_alltoallv(r, counts.data(), sdispls.data(),
                                           sizeof(std::uint64_t));
           const std::size_t n = static_cast<std::size_t>(p) * kA2avElems;
           std::vector<std::uint64_t> src(n, 7), dst(n, 0);
           coll.run_alltoallv(r, *plan, src.data(), dst.data());  // warmup
           ctx.barrier();
           Timer t;
           for (int i = 0; i < kOpsPerRep; ++i) {
             coll.run_alltoallv(r, *plan, src.data(), dst.data());
           }
           const double us = t.elapsed_us() / kOpsPerRep;
           ctx.barrier();  // all runs retired before the plan is dropped
           return us;
         }).median_us;
}

struct Case {
  std::string name;
  int p;
  const char* kind;  // "measured" | "des"
  double us_per_op;
};

}  // namespace

int main() {
  std::vector<Case> cases;
  for (int p : {2, 4, 8}) {
    cases.push_back({"barrier_p" + std::to_string(p), p, "measured",
                     barrier_us_per_op(p)});
  }
  for (int p : {2, 4, 8}) {
    cases.push_back({"alltoallv_p" + std::to_string(p), p, "measured",
                     alltoallv_us_per_op(p)});
  }
  sim::CollParams cp;
  cp.nbytes = kA2avElems * 8;
  for (int p : {8, 64, 256}) {
    cases.push_back({"des_barrier_p" + std::to_string(p), p, "des",
                     sim::simulate_coll_us(sim::CollOp::barrier, p, cp)});
  }
  for (int p : {8, 64, 256}) {
    cases.push_back({"des_alltoallv_p" + std::to_string(p), p, "des",
                     sim::simulate_coll_us(sim::CollOp::alltoallv, p, cp)});
  }

  // One node vs one rank per node vs two-tier (8-byte bcast), all the one
  // binomial put/notify tree under the Gemini model: intranode runs it
  // over the intra-node transport.
  cases.push_back({"bcast8_intranode_p8", 8, "measured",
                   bcast_us_per_op(8, intranode_model())});
  cases.push_back(
      {"bcast8_tree_p8", 8, "measured", bcast_us_per_op(8, internode_model())});
  cases.push_back({"bcast8_tree_p16", 16, "measured",
                   bcast_us_per_op(16, internode_model())});
  cases.push_back({"bcast8_hier_p16_rpn4", 16, "measured",
                   bcast_us_per_op(16, hier_model(4))});
  for (int rpn : {1, 4}) {
    sim::CollParams hp = cp;
    hp.ranks_per_node = rpn;
    for (int p : {64, 256}) {
      cases.push_back({"des_bcast_p" + std::to_string(p) + "_rpn" +
                           std::to_string(rpn),
                       p, "des",
                       sim::simulate_coll_us(sim::CollOp::bcast, p, hp)});
    }
  }

  std::printf("{\n  \"bench\": \"collectives\",\n  \"injection\": \"model\",\n");
  std::printf("  \"alltoallv_bytes_per_pair\": %llu,\n",
              static_cast<unsigned long long>(kA2avElems * 8));
  std::printf("  \"cases\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    std::printf("    {\"name\": \"%s\", \"p\": %d, \"kind\": \"%s\", "
                "\"us_per_op\": %.2f}%s\n",
                c.name.c_str(), c.p, c.kind, c.us_per_op,
                i + 1 == cases.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");

  // --- acceptance gates (DES only; see header comment) ---------------------
  const auto val = [&](const char* name) {
    for (const Case& c : cases) {
      if (c.name == name) return c.us_per_op;
    }
    std::fprintf(stderr, "FAIL: missing case %s\n", name);
    std::exit(2);
  };
  int rc = 0;
  const double db8 = val("des_barrier_p8"), db256 = val("des_barrier_p256");
  if (db256 >= 8.0 * db8) {
    std::fprintf(stderr,
                 "FAIL: DES barrier not log-shaped: p256 %.2f us >= 8x "
                 "p8 %.2f us\n",
                 db256, db8);
    rc = 1;
  }
  const double d8 = val("des_alltoallv_p8"), d256 = val("des_alltoallv_p256");
  if (d256 >= 8.0 * d8) {
    std::fprintf(stderr,
                 "FAIL: DES alltoallv not log-shaped: p256 %.2f us >= 8x "
                 "p8 %.2f us\n",
                 d256, d8);
    rc = 1;
  }
  const double hflat = val("des_bcast_p256_rpn1");
  const double htier = val("des_bcast_p256_rpn4");
  if (htier >= hflat) {
    std::fprintf(stderr,
                 "FAIL: two-tier bcast not cheaper in DES: rpn4 %.2f us >= "
                 "rpn1 %.2f us at p=256\n",
                 htier, hflat);
    rc = 1;
  }
  return rc;
}
