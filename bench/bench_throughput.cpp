// Throughput mode: doorbell batching and multi-channel striping under the
// injected Gemini cost model (Injection::model — these are MODELED numbers,
// not host timings; see CLAUDE.md).
//
// Two questions, each with a built-in acceptance gate (exit 1 on violation):
//
//   1. Small-op injection rate: 8-byte implicit puts, unbatched vs
//      auto-batched at 1/2/4 channels. Doorbell coalescing must deliver
//      >= 2x the unbatched rate (the Fig 5b plateau is overhead-limited;
//      one doorbell per batch amortizes it away).
//   2. Large-transfer striping: one 1 MiB blocking put with the payload
//      striped round-robin across 1/2/4 BTE channels. Modeled wall time
//      must decrease monotonically with the channel count.
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

using namespace fompi;
using namespace fompi::rdma;

namespace {

constexpr int kReps = 5;
constexpr int kSmallOps = 4096;     // 8-byte puts per timed rep
constexpr std::size_t kBigBytes = std::size_t{1} << 20;  // striped transfer

DomainConfig internode_model(const NicConfig& nic) {
  DomainConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 1;  // inter-node ("DMAPP") path
  cfg.inject = Injection::model;
  cfg.delivery = Delivery::immediate;
  cfg.nic = nic;
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
  int channels = 1;
  bool batched = false;
  double mops_per_s = 0;
  std::uint64_t doorbells = 0;   ///< doorbells rung per timed rep
  std::uint64_t batched_ops = 0; ///< ops that rode a coalesced doorbell
};

/// 8-byte implicit-put injection rate (gsync-completed), Mops/s.
RateResult small_op_rate(const std::string& name, const NicConfig& nic) {
  Domain dom(internode_model(nic));
  Nic& n = dom.nic(0);
  AlignedBuffer mem(1 << 16);
  const RegionDesc d = dom.registry().register_region(1, mem.data(), 1 << 16);
  alignas(8) std::uint64_t src = 0x0123456789abcdefull;

  const std::uint64_t db_before = n.doorbells_rung();
  const OpCounters before = op_counters();
  const double ns = median_ns([&] {
    for (int i = 0; i < kSmallOps; ++i) n.put_nbi(1, d, (i % 64) * 8u, &src, 8);
    n.gsync();
  });
  const OpCounters delta = op_counters().since(before);

  RateResult r;
  r.name = name;
  r.channels = nic.channels;
  r.batched = nic.auto_batch;
  r.mops_per_s = kSmallOps / ns * 1e3;
  r.doorbells = (n.doorbells_rung() - db_before) / (kReps + 1);
  r.batched_ops = delta.get(Op::batched_op) / (kReps + 1);
  return r;
}

struct StripeResult {
  int channels = 1;
  double us_per_put = 0;  ///< modeled wall time of one 1 MiB blocking put
};

StripeResult stripe_time(int channels) {
  NicConfig nic;
  nic.channels = channels;
  Domain dom(internode_model(nic));
  Nic& n = dom.nic(0);
  AlignedBuffer mem(2 * kBigBytes);
  const RegionDesc d =
      dom.registry().register_region(1, mem.data(), 2 * kBigBytes);
  AlignedBuffer payload(kBigBytes);

  StripeResult r;
  r.channels = channels;
  r.us_per_put =
      median_ns([&] { n.put(1, d, 0, payload.data(), kBigBytes); }) / 1e3;
  return r;
}

}  // namespace

int main() {
  std::vector<RateResult> rates;
  {
    NicConfig unbatched;  // defaults: no batching, one channel
    rates.push_back(small_op_rate("put8_nbi_unbatched", unbatched));
    for (int ch : {1, 2, 4}) {
      NicConfig nic;
      nic.auto_batch = true;
      nic.channels = ch;
      rates.push_back(
          small_op_rate("put8_nbi_batched_ch" + std::to_string(ch), nic));
    }
  }
  std::vector<StripeResult> stripes;
  for (int ch : {1, 2, 4}) stripes.push_back(stripe_time(ch));

  std::printf("{\n  \"bench\": \"throughput\",\n  \"injection\": \"model\",\n");
  std::printf("  \"small_op_bytes\": 8,\n  \"ops_per_rep\": %d,\n", kSmallOps);
  std::printf("  \"cases\": [\n");
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const RateResult& r = rates[i];
    std::printf("    {\"name\": \"%s\", \"channels\": %d, \"batched\": %s, "
                "\"mops_per_s\": %.2f, \"doorbells_per_rep\": %llu, "
                "\"batched_ops_per_rep\": %llu}%s\n",
                r.name.c_str(), r.channels, r.batched ? "true" : "false",
                r.mops_per_s, static_cast<unsigned long long>(r.doorbells),
                static_cast<unsigned long long>(r.batched_ops),
                i + 1 == rates.size() ? "" : ",");
  }
  std::printf("  ],\n  \"stripe_1mib_put\": [\n");
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    std::printf("    {\"name\": \"ch%d\", \"channels\": %d, "
                "\"us_per_put\": %.1f}%s\n",
                stripes[i].channels, stripes[i].channels, stripes[i].us_per_put,
                i + 1 == stripes.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");

  // --- acceptance gates ----------------------------------------------------
  int rc = 0;
  const double unbatched = rates[0].mops_per_s;
  const double batched1 = rates[1].mops_per_s;
  if (batched1 < 2.0 * unbatched) {
    std::fprintf(stderr,
                 "FAIL: batched rate %.2f Mops/s < 2x unbatched %.2f Mops/s\n",
                 batched1, unbatched);
    rc = 1;
  }
  if (rates[1].doorbells == 0 || rates[1].batched_ops == 0) {
    std::fprintf(stderr, "FAIL: batched case rang no coalesced doorbells\n");
    rc = 1;
  }
  for (std::size_t i = 1; i < stripes.size(); ++i) {
    if (stripes[i].us_per_put >= stripes[i - 1].us_per_put) {
      std::fprintf(stderr,
                   "FAIL: striping not monotone: ch%d %.1f us >= ch%d %.1f us\n",
                   stripes[i].channels, stripes[i].us_per_put,
                   stripes[i - 1].channels, stripes[i - 1].us_per_put);
      rc = 1;
    }
  }
  return rc;
}
