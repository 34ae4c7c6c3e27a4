// rma_ops: the paper's Fig 4a/5b/6a microbenchmarks as one closed loop.
// Rank 0 holds a lock_all epoch on rank 1 and repeats a cycle of 8 B
// put+flush, 8 B fetch_and_op (u64 sum), a burst of 1000 x 8 B puts closed
// by one flush, and 64 KiB put+flush (the BTE path). Only core + rdma run:
// no kv, no fibers, no collectives inside the loop.
#include <cstring>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/window.hpp"
#include "quantile.hpp"
#include "tracer.hpp"

namespace fompi::bench {
namespace {

constexpr int kRanks = 2;
constexpr int kLatOps = 64;   ///< put8 and AMO calls per cycle
constexpr int kBurst = 1000;  ///< puts per message-rate burst
constexpr int kBigOps = 4;    ///< 64 KiB puts per cycle
constexpr std::size_t kSlots = 1024;
constexpr std::size_t kBig = 64 * 1024;
// Window layout: [AMO word][1024 x 8 B put slots][64 KiB put target].
constexpr std::size_t kAmoOff = 0;
constexpr std::size_t kSlotOff = 64;
constexpr std::size_t kBigOff = 16 * 1024;
constexpr std::size_t kWinBytes = kBigOff + kBig;

}  // namespace

Round run_rma_round(std::uint64_t seed, double seconds, Tracer* tracer) {
  Round out;
  SetupClock clock(kRanks);
  trace::LatencyHisto big_hist;
  std::uint64_t amo_calls = 0, burst_puts = 0;
  std::vector<double> burst_rates;  // puts/s of each measured burst
  std::vector<std::uint64_t> expect(kSlots, 0);
  std::vector<std::uint64_t> big(kBig / 8);
  std::vector<std::uint64_t> image(kWinBytes / 8);  // rank 1's window at end

  fabric::run_ranks(kRanks, [&](fabric::RankCtx& ctx) {
    const int r = ctx.rank();
    const auto i = static_cast<std::size_t>(r);
    clock.body[i] = now_ns();
    core::Win win = core::Win::allocate(ctx, kWinBytes);
    if (r == 0) win.lock_all();
    clock.ctor[i] = now_ns();
    std::memset(win.base(), 0, kWinBytes);
    Rng rng(seed);  // rank 0's payloads
    if (r == 0) {
      for (auto& w : big) w = rng.next();
    }
    ctx.barrier();
    clock.seeded[i] = now_ns();
    if (tracer != nullptr) {
      const auto root = tracer->span(r, "setup", clock.entry, clock.seeded[i]);
      tracer->span(r, "fabric", clock.entry, clock.body[i], root);
      tracer->span(r, "Win::allocate+lock_all", clock.body[i], clock.ctor[i],
                   root);
      tracer->span(r, "zero+barrier", clock.ctor[i], clock.seeded[i], root);
    }
    if (seconds == 0) {
      if (r == 0) win.unlock_all();
      win.free();
      return;
    }

    if (r == 0) {
      const std::uint64_t one = 1;
      std::uint64_t req = 0;
      const auto cycle = [&](std::uint64_t c, bool measured) {
        const bool traced = measured && tracer != nullptr && c % 2 == 1;
        for (int k = 0; k < kLatOps; ++k, ++req) {
          std::uint64_t v = rng.next();
          expect[static_cast<std::size_t>(k)] = v;
          const std::uint64_t t0 = now_ns();
          win.put(&v, 8, 1, kSlotOff + static_cast<std::size_t>(k) * 8);
          const std::uint64_t t1 = traced ? now_ns() : 0;
          win.flush(1);
          const std::uint64_t t2 = now_ns();
          if (!measured) continue;
          out.primary.add(t2 - t0);
          (traced ? out.primary_traced : out.primary_untraced).add(t2 - t0);
          if (traced) {
            const auto id = tracer->span(0, "put8+flush", t0, t2, 0, req);
            tracer->span(0, "put", t0, t1, id, req);
            tracer->span(0, "flush", t1, t2, id, req);
          }
        }
        for (int k = 0; k < kLatOps; ++k, ++req) {
          std::uint64_t old = 0;
          const std::uint64_t t0 = now_ns();
          win.fetch_and_op(&one, &old, Elem::u64, RedOp::sum, 1, kAmoOff);
          const std::uint64_t t1 = now_ns();
          if (old != amo_calls++) out.fail("fetch_and_op returned a stale count");
          if (!measured) continue;
          out.secondary.add(t1 - t0);
          if (traced) tracer->span(0, "fetch_and_op", t0, t1, 0, req);
        }
        const std::uint64_t t0 = now_ns();
        for (std::size_t k = 0; k < static_cast<std::size_t>(kBurst); ++k) {
          expect[k] = rng.next();
          win.put(&expect[k], 8, 1, kSlotOff + k * 8);
        }
        const std::uint64_t t1 = traced ? now_ns() : 0;
        win.flush(1);
        const std::uint64_t t2 = now_ns();
        if (measured) {
          burst_puts += kBurst;
          burst_rates.push_back(kBurst / (static_cast<double>(t2 - t0) / 1e9));
        }
        if (traced) {
          const auto id = tracer->span(0, "burst_1000_put8+flush", t0, t2, 0, req);
          tracer->span(0, "flush", t1, t2, id, req);
        }
        ++req;
        for (int k = 0; k < kBigOps; ++k, ++req) {
          big[0] = req;  // stamp: the final image must hold the last payload
          const std::uint64_t b0 = now_ns();
          win.put(big.data(), kBig, 1, kBigOff);
          win.flush(1);
          const std::uint64_t b1 = now_ns();
          if (measured) big_hist.add(b1 - b0);
          if (traced) tracer->span(0, "put64k+flush", b0, b1, 0, req);
        }
      };
      cycle(0, false);  // warm-up: NIC pools, rkey cache, page faults
      const OpCounters c0 = op_counters();
      const std::uint64_t deadline = deadline_after(seconds);
      for (std::uint64_t c = 0;
           now_ns() < deadline || (tracer != nullptr && c < 2); ++c) {
        cycle(c, true);
      }
      out.counters = op_counters().since(c0);
    }
    ctx.barrier();
    if (r == 1) std::memcpy(image.data(), win.base(), kWinBytes);
    ctx.barrier();
    if (r == 0) win.unlock_all();
    win.free();
  }, model_options());

  clock.fill(&out);
  if (seconds == 0) return out;
  // The target's AMO word counts every fetch_and_op; the put slots and the
  // 64 KiB region hold the last value written to them.
  if (image[kAmoOff / 8] != amo_calls) out.fail("AMO word != fetch_and_op calls");
  if (std::memcmp(&image[kSlotOff / 8], expect.data(), kSlots * 8) != 0) {
    out.fail("8 B put slots do not hold the last values put");
  }
  if (std::memcmp(&image[kBigOff / 8], big.data(), kBig) != 0) {
    out.fail("64 KiB region does not hold the last payload put");
  }
  const std::uint64_t lat_ops = out.primary.count() + out.secondary.count();
  out.ops = lat_ops + burst_puts + big_hist.count();
  out.attempted = out.ops;
  out.ops_per_s = median(burst_rates);
  out.detail.push_back(
      {"put64k_p50_us", "us", interpolated_quantile(big_hist, 0.5) / 1e3});
  return out;
}

}  // namespace fompi::bench
