// Shared types of the foMPI-R benchmark (see benchmark/README.md).
//
// A workload round runs on a fresh run_ranks fleet: set-up, one untimed
// warm-up, then chunks of measured work until the round's time is up.
// Rank 0 decides after each chunk whether another one starts, so every
// rank runs the same number of chunks. A round of 0 seconds stops after
// set-up and reports only the set-up times.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/instr.hpp"
#include "common/timing.hpp"
#include "fabric/fabric.hpp"
#include "trace/trace.hpp"

namespace fompi::bench {

class Tracer;

/// One named number with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What one round of a workload measured. Latencies are in ns.
struct Round {
  bool correct = true;
  std::string error;  ///< first failed check, empty when correct
  std::uint64_t attempted = 0, failed = 0;

  double setup_s = 0, fabric_s = 0, ctor_s = 0, seed_s = 0;
  /// Median over the round's chunks of chunk ops / chunk wall time: a
  /// chunk slowed by outside interference moves it less than a total would.
  double ops_per_s = 0;
  trace::LatencyHisto primary, secondary;
  /// The primary class split by chunk kind (trace mode alternates traced
  /// and untraced chunks; untraced mode fills only `primary`).
  trace::LatencyHisto primary_traced, primary_untraced;

  std::uint64_t ops = 0;  ///< workload ops in the measured chunks
  OpCounters counters;    ///< deltas over the measured chunks, all ranks
  std::uint64_t kv_gets = 0, kv_cache_hits = 0, kv_read_retries = 0;
  std::vector<Metric> detail;  ///< workload-specific extras

  void fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

/// Set-up stamps of one fleet: run_ranks entry, then per rank the body
/// entry, the end of construction, and the exit of the post-seed barrier.
/// Each rank writes only its own slots; they are read after the join.
struct SetupClock {
  explicit SetupClock(int nranks)
      : body(static_cast<std::size_t>(nranks)),
        ctor(static_cast<std::size_t>(nranks)),
        seeded(static_cast<std::size_t>(nranks)) {}
  std::uint64_t entry = now_ns();
  std::vector<std::uint64_t> body, ctor, seeded;

  void fill(Round* r) const {
    const auto last = [](const std::vector<std::uint64_t>& v) {
      return *std::max_element(v.begin(), v.end());
    };
    r->fabric_s = static_cast<double>(last(body) - entry) / 1e9;
    r->ctor_s = static_cast<double>(last(ctor) - last(body)) / 1e9;
    r->seed_s = static_cast<double>(last(seeded) - last(ctor)) / 1e9;
    r->setup_s = static_cast<double>(last(seeded) - entry) / 1e9;
  }
};

/// Every rank on its own node with the Gemini cost model injected: the
/// configuration of the repository's figure benchmarks.
inline fabric::FabricOptions model_options() {
  fabric::FabricOptions o;
  o.domain.ranks_per_node = 1;
  o.domain.inject = rdma::Injection::model;
  return o;
}

inline void add_counters(OpCounters* into, const OpCounters& d) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Op::kCount); ++i) {
    into->add(static_cast<Op>(i), d.get(static_cast<Op>(i)));
  }
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Rank 0's "another chunk?" decision after `chunks_done` chunks, broadcast
/// so all ranks agree. A traced round alternates traced and untraced
/// chunks, so it runs at least two.
inline bool another_chunk(fabric::RankCtx& ctx, std::uint64_t deadline_ns,
                          std::uint64_t chunks_done, bool traced_round) {
  const bool more_wanted =
      now_ns() < deadline_ns || (traced_round && chunks_done < 2);
  int more = ctx.rank() == 0 && more_wanted ? 1 : 0;
  ctx.bcast(0, &more, 1);
  return more != 0;
}

inline std::uint64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

/// Stable per-chunk seed derived from a round seed.
inline std::uint64_t chunk_seed(std::uint64_t seed, std::uint64_t chunk) {
  return seed * 0x9e3779b97f4a7c15ull + chunk + 1;
}

// --- workloads (one fresh fleet per call) -----------------------------------
/// Closed-loop KV fleet: 3 ranks x 8 fibers, Zipf 0.9 over 256 keys.
Round run_kv_round(double read_ratio, int chunk_ops, std::uint64_t seed,
                   double seconds, Tracer* tracer);
/// Raw RMA mix on 2 ranks inside one lock_all epoch.
Round run_rma_round(std::uint64_t seed, double seconds, Tracer* tracer);
/// MILC CG solves on 2 ranks with the paper's halo scheme.
Round run_milc_round(std::uint64_t seed, double seconds, Tracer* tracer);

/// Solo probes: one call at a time, no other load. `reps` scales them.
std::vector<Metric> run_probes(int reps, Tracer* tracer);

/// Most rank threads any workload runs (nproc = 4 leaves one for the OS).
inline constexpr int kMaxRanks = 3;
inline constexpr std::uint64_t kKvKeys = 256;
inline constexpr double kMilcTol = 1e-8;

}  // namespace fompi::bench
