// Self-healing recovery for the KV service (DESIGN.md §13).
//
// Fail-stop decoupling is the enabling property: a dead rank's registered
// memory stays READABLE (one-sided gets and fetch-AMOs succeed against the
// frozen image; only mutating ops retire peer_dead). Recovery exploits it
// three ways:
//
//   * election  — the coordinator is the lowest alive rank (monotone over
//     the fail-stop liveness table, so takeover after a coordinator death
//     is race-free: an odd generation the new leader did not set can only
//     have been set by a now-dead lower rank, and redoing its work is
//     idempotent — partially-published entries are valid reconfigurations
//     and drains fully overwrite their spare regions).
//   * drain     — each dead copy's frozen shard image is pulled with
//     chunked one-sided gets and pushed into a spare-bank region on a
//     surviving rank, restoring 2x redundancy without any cooperation
//     from the dead rank.
//   * scrub     — the key-wise anti-entropy pass (KvStore::scrub, kv.cpp)
//     reconciles the surviving copy with the drained frozen image, which
//     may hold writes whose replica half never landed.
//
// All waiting is fiber-based or takes the domain's back-off step —
// recovery never raw-spins, and costs nothing until a death is observed.
#include <algorithm>
#include <vector>

#include "common/instr.hpp"
#include "fabric/progress/progress.hpp"
#include "kv/kv.hpp"
#include "trace/trace.hpp"

namespace fompi::kv {

namespace {

/// One planned re-replication: copy `src`'s (usually frozen) region into
/// the spare-bank region `dst`, then publish `word` as the shard's routing
/// entry. `status` is filled by the drain fiber.
struct DrainPlan {
  int shard = -1;
  Copy src;
  Copy dst;
  std::uint64_t word = 0;
  bool promoted = false;  ///< the dead copy was the primary
  rdma::OpStatus status = rdma::OpStatus::ok;
};

}  // namespace

// --- drain fiber -------------------------------------------------------------

struct KvStore::DrainFiber final : fabric::progress::Fiber {
  DrainFiber(KvStore& kv, DrainPlan* plan, std::uint64_t* drained)
      : kv(kv), plan(plan), drained(drained) {}

  void step(fabric::progress::Scheduler& s) override {
    FOMPI_FIBER_BEGIN();
    total = kv.shard_region_bytes();
    buf.resize(kDrainChunk);
    for (off = 0; off < total; off += kDrainChunk) {
      n = std::min(kDrainChunk, total - off);
      // Frozen-image read: succeeds even when src's host rank is dead.
      // Win::rget and Win::rput each retire through exactly one handle.
      req = kv.win_.rget(buf.data(), n, plan->src.rank,
                         kv.copy_base(plan->src) + off);
      FOMPI_FIBER_AWAIT(s, req.handles()[0]);
      if (wake_status() != rdma::OpStatus::ok) fail(wake_status());
      req.dismiss();
      if (plan->status != rdma::OpStatus::ok) return finish();
      // The spare target is alive (or was when planned): a mutating put,
      // so a mid-drain death surfaces here as a typed failure.
      req = kv.win_.rput(buf.data(), n, plan->dst.rank,
                         kv.copy_base(plan->dst) + off);
      FOMPI_FIBER_AWAIT(s, req.handles()[0]);
      if (wake_status() != rdma::OpStatus::ok) fail(wake_status());
      req.dismiss();
      if (plan->status != rdma::OpStatus::ok) return finish();
      *drained += n;
      count(Op::kv_drain_chunk);
      trace::emit(trace::EvClass::recovery, trace::EvPhase::doorbell,
                  plan->src.rank, static_cast<std::uint64_t>(plan->shard),
                  n);
    }
    FOMPI_FIBER_END();
  }

  void fail(rdma::OpStatus st) {
    if (plan->status == rdma::OpStatus::ok) plan->status = st;
  }

  KvStore& kv;
  DrainPlan* plan;
  std::uint64_t* drained;
  std::vector<std::uint8_t> buf;
  std::size_t total = 0, off = 0, n = 0;
  core::RmaRequest req;
};

// --- spare placement ---------------------------------------------------------

Copy KvStore::pick_spare(int owner_rank,
                         std::vector<std::uint8_t>* spare_used) const {
  // First alive rank after the surviving copy's host (never the host
  // itself: co-locating both copies would void the redundancy), first free
  // spare-bank slot on it.
  for (int d = 1; d < nranks_; ++d) {
    const int r = (owner_rank + d) % nranks_;
    if (r == owner_rank || !win_.peer_alive(r)) continue;
    for (int sl = 0; sl < spare_slots(); ++sl) {
      auto& used =
          (*spare_used)[static_cast<std::size_t>(r * spare_slots() + sl)];
      if (used == 0) {
        used = 1;
        return Copy{r, 2, sl};
      }
    }
  }
  return Copy{};  // rank -1: no spare capacity among survivors
}

// --- coordinator body --------------------------------------------------------

rdma::OpStatus KvStore::coordinate(std::uint64_t gen, RecoveryReport* rep) {
  count(Op::kv_recovery);
  trace::emit(trace::EvClass::recovery, trace::EvPhase::begin, rank_, 0, gen);
  // The generation is ours (odd), so no other writer moves the table.
  std::uint64_t held = 0;
  std::vector<std::uint64_t> table;
  auto st = read_routing(&held, &table);
  if (st != rdma::OpStatus::ok) return st;

  // Spare-bank occupancy from the table itself: the generation CAS
  // serializes coordinators, so a single scan is authoritative.
  std::vector<std::uint8_t> spare_used(
      static_cast<std::size_t>(nranks_ * spare_slots()), 0);
  for (const auto w : table) {
    const Copy a = unpack_copy(static_cast<std::uint32_t>(w));
    const Copy b = unpack_copy(static_cast<std::uint32_t>(w >> 32));
    if (a.bank == 2 && a.rank >= 0) {
      spare_used[static_cast<std::size_t>(a.rank * spare_slots() + a.slot)] =
          1;
    }
    if (b.bank == 2 && b.rank >= 0) {
      spare_used[static_cast<std::size_t>(b.rank * spare_slots() + b.slot)] =
          1;
    }
  }

  std::vector<int> touched;
  Backoff bo;
  while (true) {
    // Plan: one drain per shard with exactly one dead copy. Re-planned
    // after every pass so a rank that dies mid-drain or mid-scrub gets
    // folded in instead of wedging recovery.
    std::vector<DrainPlan> plans;
    rep->lost = 0;
    for (int s = 0; s < cfg_.shards; ++s) {
      const std::uint64_t w = table[static_cast<std::size_t>(s)];
      const Copy prim = unpack_copy(static_cast<std::uint32_t>(w));
      const Copy repl = unpack_copy(static_cast<std::uint32_t>(w >> 32));
      const bool pa = win_.peer_alive(prim.rank);
      const bool ra = win_.peer_alive(repl.rank);
      if (pa && ra) continue;
      if (!pa && !ra) {
        ++rep->lost;  // unrecoverable: clients retire data_loss
        continue;
      }
      DrainPlan p;
      p.shard = s;
      p.promoted = !pa;              // the primary died: replica promotes
      const Copy keep = pa ? prim : repl;
      p.src = pa ? repl : prim;      // drain the dead copy's frozen image
      p.dst = pick_spare(keep.rank, &spare_used);
      FOMPI_REQUIRE(p.dst.rank >= 0, ErrClass::no_mem,
                    "kv recovery: spare bank exhausted among survivors");
      p.word = static_cast<std::uint64_t>(pack_copy(keep)) |
               (static_cast<std::uint64_t>(pack_copy(p.dst)) << 32);
      plans.push_back(p);
    }
    if (plans.empty()) break;

    // Drain all frozen images concurrently on the progress engine.
    {
      fabric::progress::Scheduler sched(fabric_->domain().nic(rank_));
      for (auto& p : plans) {
        sched.spawn<DrainFiber>(*this, &p, &rep->drained_bytes);
      }
      sched.run();
    }

    // Publish the entries whose drains landed; a failed drain (spare died
    // mid-copy) leaves its shard for the next planning pass.
    bool all_ok = true;
    for (auto& p : plans) {
      const Copy keep =
          unpack_copy(static_cast<std::uint32_t>(p.word));
      if (p.status != rdma::OpStatus::ok || !win_.peer_alive(p.dst.rank) ||
          !win_.peer_alive(keep.rank)) {
        all_ok = false;
        continue;
      }
      st = amo_write(cfg_.routing_rank,
                     16 + 8 * static_cast<std::size_t>(p.shard), p.word);
      if (st != rdma::OpStatus::ok) return st;
      table[static_cast<std::size_t>(p.shard)] = p.word;
      if (p.promoted) ++rep->promoted;
      ++rep->rereplicated;
      touched.push_back(p.shard);
      trace::emit(trace::EvClass::recovery, trace::EvPhase::issue,
                  keep.rank, static_cast<std::uint64_t>(p.shard), 0);
    }
    if (all_ok) {
      // Adopt the published table locally (the coordinator is also a
      // client) and reconcile every touched pair: the drained frozen image
      // carries writes the promoted replica may have never seen, and the
      // promoted copy carries writes newer than the frozen image.
      apply_routing(table);
      bool rescan = false;
      for (const int s : touched) {
        const ScrubResult sr = scrub(s);
        rep->scrub_keys += sr.keys;
        rep->scrub_repairs += sr.repairs;
        if (sr.status != rdma::OpStatus::ok) rescan = true;  // death mid-scrub
      }
      touched.clear();
      if (!rescan) break;
    }
    fabric_->domain().backoff_step(bo);
  }

  // Release the generation: even again, one CAS-visible word. gen_seen_
  // follows so the coordinator's own ops validate clean.
  st = amo_write(cfg_.routing_rank, 0, gen + 1);
  if (st != rdma::OpStatus::ok) return st;
  gen_seen_ = gen + 1;
  rep->generation = gen + 1;
  trace::emit(trace::EvClass::recovery, trace::EvPhase::complete, rank_, 0,
              gen + 1);
  if (rep->lost > 0) {
    if (cfg_.abort_on_data_loss) {
      raise(ErrClass::data_loss,
            "kv recovery: shard lost owner and replica (unrecoverable)");
    }
    return rdma::OpStatus::data_loss;
  }
  return rdma::OpStatus::ok;
}

// --- heal --------------------------------------------------------------------

RecoveryReport KvStore::heal() {
  RecoveryReport rep;
  rep.generation = gen_seen_;
  if (!any_peer_dead()) return rep;  // nothing armed: zero-cost no-op
  if (!win_.peer_alive(cfg_.routing_rank)) {
    // The routing home is dead: the generation word and table are frozen
    // (still readable, never again writable) — no reconfiguration can be
    // published. Documented limitation; survivors stay on degraded
    // fail-over routing.
    rep.status = rdma::OpStatus::peer_dead;
    rep.coordinator = fabric_->lowest_alive();
    return rep;
  }
  Backoff bo;
  std::uint64_t first_even = ~std::uint64_t{0};
  while (true) {
    // Election re-evaluated every pass: if the current coordinator dies
    // mid-recovery, the next lowest alive rank observes itself elected,
    // adopts the odd generation, and redoes the work idempotently.
    const int leader = fabric_->lowest_alive();
    rep.coordinator = leader;
    if (leader == rank_) {
      std::uint64_t g = 0;
      auto st = amo_read(cfg_.routing_rank, 0, &g);
      if (st != rdma::OpStatus::ok) {
        rep.status = st;
        return rep;
      }
      if ((g & 1) == 0) {
        std::uint64_t prev = 0;
        st = amo_cas(cfg_.routing_rank, 0, g, g + 1, &prev);
        if (st != rdma::OpStatus::ok) {
          rep.status = st;
          return rep;
        }
        if (prev != g) {  // raced another claimant: observe and retry
          fabric_->domain().backoff_step(bo);
          continue;
        }
        g = g + 1;
      }
      rep.acted = true;
      rep.status = coordinate(g, &rep);
      rep.generation = gen_seen_;
      return rep;
    }
    // Follower: wait for the coordinator to finish (generation even AND
    // every shard either fully healthy or terminally lost). Each stable
    // {generation, table} pair read on the way is installed, so the last
    // one is the new table. Politely — one back-off step per pass, never a
    // raw spin. A recovery that completed since we started waiting
    // (generation moved to a NEW even value) also releases the wait: a
    // death that arrived after the coordinator returned belongs to the
    // caller's next heal() pass, not this one.
    const auto st = try_fetch_routing();
    if (st != rdma::OpStatus::ok && st != rdma::OpStatus::retry_routing) {
      rep.status = st;
      return rep;
    }
    if (st == rdma::OpStatus::ok) {
      if (first_even == ~std::uint64_t{0}) first_even = gen_seen_;
      bool settled = true;
      int lost = 0;
      for (const auto w : routing_) {
        const bool pa = win_.peer_alive(
            unpack_copy(static_cast<std::uint32_t>(w)).rank);
        const bool ra = win_.peer_alive(
            unpack_copy(static_cast<std::uint32_t>(w >> 32)).rank);
        if (!pa && !ra) {
          ++lost;
          continue;
        }
        if (!pa || !ra) {
          settled = false;
          break;
        }
      }
      if (settled || gen_seen_ != first_even) {
        rep.generation = gen_seen_;
        rep.lost = lost;
        if (lost > 0) {
          if (cfg_.abort_on_data_loss) {
            raise(ErrClass::data_loss,
                  "kv recovery: shard lost owner and replica "
                  "(unrecoverable)");
          }
          rep.status = rdma::OpStatus::data_loss;
        }
        return rep;
      }
    }
    fabric_->domain().backoff_step(bo);
  }
}

}  // namespace fompi::kv
