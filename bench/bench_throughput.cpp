// Doorbell batching under the injected Gemini cost model (Injection::model
// — these are MODELED numbers, not host timings; see CLAUDE.md).
//
// Small-op injection rate: 8-byte implicit puts, unbatched vs batched, the
// batched burst inside one explicit scope (Nic::batch_begin, closed by
// gsync), so each 64-descriptor chain rings one doorbell that starts at
// its first post. Doorbell coalescing must deliver >= 2x the unbatched
// rate (the Fig 5b plateau is overhead-limited; one doorbell per chain
// amortizes it away); the bench exits 1 otherwise. Each row prints the
// sim::simulate_msgrate_mops closed form for its batch beside the
// measured rate.
//
// Output: one JSON object on stdout (consumed by scripts/bench_smoke.sh as
// BENCH_throughput.json).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "common/instr.hpp"
#include "common/timing.hpp"
#include "rdma/nic.hpp"
#include "simtime/sim_apps.hpp"

using namespace fompi;
using namespace fompi::rdma;

namespace {

constexpr int kReps = 5;
constexpr int kSmallOps = 4096;  // 8-byte puts per timed rep

DomainConfig internode_model() {
  DomainConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 1;  // inter-node ("DMAPP") path
  cfg.inject = Injection::model;
  cfg.delivery = Delivery::immediate;
  return cfg;
}

/// Median wall time of kReps runs of `body` (one warmup rep first).
template <typename Body>
double median_ns(Body&& body) {
  body();  // warmup
  std::vector<double> ns;
  ns.reserve(kReps);
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    body();
    ns.push_back(static_cast<double>(t.elapsed_ns()));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

struct RateResult {
  std::string name;
  bool batched = false;
  double mops_per_s = 0;
  double model_mops_per_s = 0;   ///< sim::simulate_msgrate_mops
  std::uint64_t doorbells = 0;   ///< doorbells rung per timed rep
  std::uint64_t batched_ops = 0; ///< ops that rode a coalesced doorbell
};

/// 8-byte implicit-put injection rate (gsync-completed), Mops/s. A batched
/// burst runs inside one explicit scope.
RateResult small_op_rate(const std::string& name, bool batched) {
  Domain dom(internode_model());
  Nic& n = dom.nic(0);
  AlignedBuffer mem(1 << 16);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 1 << 16);
  alignas(8) std::uint64_t src = 0x0123456789abcdefull;

  const std::uint64_t db_before = n.doorbells_rung();
  const OpCounters before = op_counters();
  const double ns = median_ns([&] {
    if (batched) n.batch_begin();
    for (int i = 0; i < kSmallOps; ++i) n.put_nbi(1, d, (i % 64) * 8u, &src, 8);
    n.gsync();
  });
  const OpCounters delta = op_counters().since(before);

  sim::MsgRateParams prm;
  if (!batched) prm.batch = 1;
  RateResult r;
  r.name = name;
  r.batched = batched;
  r.mops_per_s = kSmallOps / ns * 1e3;
  r.model_mops_per_s = sim::simulate_msgrate_mops(prm);
  r.doorbells = (n.doorbells_rung() - db_before) / (kReps + 1);
  r.batched_ops = delta.get(Op::batched_op) / (kReps + 1);
  return r;
}

}  // namespace

int main() {
  const std::vector<RateResult> rates = {
      small_op_rate("put8_nbi_unbatched", false),
      small_op_rate("put8_nbi_batched", true)};

  std::printf("{\n  \"bench\": \"throughput\",\n  \"injection\": \"model\",\n");
  std::printf("  \"small_op_bytes\": 8,\n  \"ops_per_rep\": %d,\n", kSmallOps);
  std::printf("  \"cases\": [\n");
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const RateResult& r = rates[i];
    std::printf("    {\"name\": \"%s\", \"batched\": %s, "
                "\"mops_per_s\": %.2f, \"model_mops_per_s\": %.2f, "
                "\"doorbells_per_rep\": %llu, "
                "\"batched_ops_per_rep\": %llu}%s\n",
                r.name.c_str(), r.batched ? "true" : "false", r.mops_per_s,
                r.model_mops_per_s,
                static_cast<unsigned long long>(r.doorbells),
                static_cast<unsigned long long>(r.batched_ops),
                i + 1 == rates.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");

  // --- acceptance gates ----------------------------------------------------
  int rc = 0;
  const double unbatched = rates[0].mops_per_s;
  const double batched = rates[1].mops_per_s;
  if (batched < 2.0 * unbatched) {
    std::fprintf(stderr,
                 "FAIL: batched rate %.2f Mops/s < 2x unbatched %.2f Mops/s\n",
                 batched, unbatched);
    rc = 1;
  }
  if (rates[1].doorbells == 0 || rates[1].batched_ops == 0) {
    std::fprintf(stderr, "FAIL: batched case rang no coalesced doorbells\n");
    rc = 1;
  }
  return rc;
}
