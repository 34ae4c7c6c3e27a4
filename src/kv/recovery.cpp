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
//   * scrub     — an anti-entropy pass reconciles the surviving copy with
//     the drained frozen image by seqlock snapshots + version-winner
//     repair, which is exactly what recovers writes that were acked on
//     the dead primary but never reached the replica.
//
// All waiting is fiber- or backoff-based through Fabric::yield_check —
// recovery never raw-spins, and costs nothing until a death is observed.
#include <algorithm>
#include <vector>

#include "common/backoff.hpp"
#include "common/instr.hpp"
#include "fabric/progress/progress.hpp"
#include "kv/kv.hpp"
#include "trace/trace.hpp"

namespace fompi::kv {

namespace {

// Cell word offsets, mirrored from kv.cpp (one seqlock protocol, two TUs).
constexpr std::size_t kVerOff = 8;
constexpr std::size_t kValOff = 16;

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
    buf.resize(kv.cfg_.drain_chunk);
    for (off = 0; off < total; off += kv.cfg_.drain_chunk) {
      n = std::min(kv.cfg_.drain_chunk, total - off);
      // Frozen-image read: succeeds even when src's host rank is dead.
      req = kv.win_.rget(buf.data(), n, plan->src.rank,
                         kv.copy_base(plan->src) + off);
      for (hi = 0; hi < req.handles().size(); ++hi) {
        FOMPI_FIBER_AWAIT(s, req.handles()[hi]);
        if (wake_status() != rdma::OpStatus::ok) fail(wake_status());
      }
      req.dismiss();
      if (plan->status != rdma::OpStatus::ok) return finish();
      // The spare target is alive (or was when planned): a mutating put,
      // so a mid-drain death surfaces here as a typed failure.
      req = kv.win_.rput(buf.data(), n, plan->dst.rank,
                         kv.copy_base(plan->dst) + off);
      if (req.handles().empty()) {
        const auto le = kv.win_.last_error();
        kv.win_.clear_last_error();
        fail(le != rdma::OpStatus::ok ? le : rdma::OpStatus::peer_dead);
      }
      for (hi = 0; hi < req.handles().size(); ++hi) {
        FOMPI_FIBER_AWAIT(s, req.handles()[hi]);
        if (wake_status() != rdma::OpStatus::ok) fail(wake_status());
      }
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
  std::size_t total = 0, off = 0, n = 0, hi = 0;
  core::RmaRequest req;
};

// --- scrub fiber -------------------------------------------------------------

struct KvStore::ScrubFiber final : fabric::progress::Fiber {
  ScrubFiber(KvStore& kv, Copy prim, Copy repl, std::size_t* cursor,
             ScrubResult* res)
      : kv(kv),
        prim(prim),
        repl(repl),
        pl(kv.layout_of(prim)),
        rl(kv.layout_of(repl)),
        cursor(cursor),
        res(res) {}

  void step(fabric::progress::Scheduler& s) override {
    FOMPI_FIBER_BEGIN();
    cells = kv.cfg_.table_slots + kv.cfg_.heap_slots;
    while (*cursor < cells) {
      i = (*cursor)++;
      heap_cell = i >= kv.cfg_.table_slots;
      poff = heap_cell ? pl.off_heap(i - kv.cfg_.table_slots)
                       : pl.off_table(i);
      roff = heap_cell ? rl.off_heap(i - kv.cfg_.table_slots)
                       : rl.off_table(i);
      ++res->cells;
      count(Op::kv_scrub_cell);
      // Seqlock snapshot of BOTH sides, pipelined pairwise: versions,
      // then key+value words, then versions again. All reads, so they
      // succeed against frozen images too.
      qa = kv.win_.rfetch_and_op(nullptr, &pv1, Elem::u64, RedOp::no_op,
                                 prim.rank, poff + kVerOff);
      qb = kv.win_.rfetch_and_op(nullptr, &rv1, Elem::u64, RedOp::no_op,
                                 repl.rank, roff + kVerOff);
      FOMPI_FIBER_AWAIT(s, qa.handles()[0]);
      if (wake_status() != rdma::OpStatus::ok) fail(wake_status());
      FOMPI_FIBER_AWAIT(s, qb.handles()[0]);
      if (wake_status() != rdma::OpStatus::ok) fail(wake_status());
      qa.dismiss();
      qb.dismiss();
      if (res->status != rdma::OpStatus::ok) return finish();
      if ((pv1 & 1) != 0 || (rv1 & 1) != 0) {
        ++res->skipped;  // write in progress: the writer will converge it
        continue;
      }
      qa = kv.win_.rfetch_and_op(nullptr, &pk, Elem::u64, RedOp::no_op,
                                 prim.rank, poff);
      qb = kv.win_.rfetch_and_op(nullptr, &pval, Elem::u64, RedOp::no_op,
                                 prim.rank, poff + kValOff);
      qc = kv.win_.rfetch_and_op(nullptr, &rk, Elem::u64, RedOp::no_op,
                                 repl.rank, roff);
      qd = kv.win_.rfetch_and_op(nullptr, &rval, Elem::u64, RedOp::no_op,
                                 repl.rank, roff + kValOff);
      FOMPI_FIBER_AWAIT(s, qa.handles()[0]);
      if (wake_status() != rdma::OpStatus::ok) fail(wake_status());
      FOMPI_FIBER_AWAIT(s, qb.handles()[0]);
      if (wake_status() != rdma::OpStatus::ok) fail(wake_status());
      FOMPI_FIBER_AWAIT(s, qc.handles()[0]);
      if (wake_status() != rdma::OpStatus::ok) fail(wake_status());
      FOMPI_FIBER_AWAIT(s, qd.handles()[0]);
      if (wake_status() != rdma::OpStatus::ok) fail(wake_status());
      qa.dismiss();
      qb.dismiss();
      qc.dismiss();
      qd.dismiss();
      if (res->status != rdma::OpStatus::ok) return finish();
      qa = kv.win_.rfetch_and_op(nullptr, &pv2, Elem::u64, RedOp::no_op,
                                 prim.rank, poff + kVerOff);
      qb = kv.win_.rfetch_and_op(nullptr, &rv2, Elem::u64, RedOp::no_op,
                                 repl.rank, roff + kVerOff);
      FOMPI_FIBER_AWAIT(s, qa.handles()[0]);
      if (wake_status() != rdma::OpStatus::ok) fail(wake_status());
      FOMPI_FIBER_AWAIT(s, qb.handles()[0]);
      if (wake_status() != rdma::OpStatus::ok) fail(wake_status());
      qa.dismiss();
      qb.dismiss();
      if (res->status != rdma::OpStatus::ok) return finish();
      if (pv1 != pv2 || rv1 != rv2) {
        ++res->skipped;  // torn snapshot: racing writer owns the cell
        continue;
      }
      if (pk == rk && pval == rval) continue;  // converged
      if (pk != rk && heap_cell) {
        // Heap cells with different keys are STRUCTURAL chain divergence
        // (the two regions allocated overflow cells in different orders);
        // copying one over the other would orphan a key under the wrong
        // slot chain. Count and leave them — per-key correctness is
        // carried by whichever region's chain holds the key.
        ++res->skipped;
        continue;
      }
      // Version winner; key conflicts on a top slot go to the primary
      // (the authoritative region for reads).
      to_repl = (pk != rk) ? true : (rv1 > pv1 ? false : true);
      {
        const auto st =
            to_repl ? kv.repair_cell(repl, roff, rv1, pk, pval, pv1)
                    : kv.repair_cell(prim, poff, pv1, rk, rval, rv1);
        if (st == rdma::OpStatus::ok) {
          ++res->repairs;
          count(Op::kv_scrub_repair);
          trace::emit(trace::EvClass::recovery, trace::EvPhase::retry,
                      to_repl ? repl.rank : prim.rank, to_repl ? roff : poff,
                      0);
        } else if (st == rdma::OpStatus::retired) {
          ++res->skipped;  // lost the lock race to a live writer: converges
        } else {
          fail(st);
          return finish();
        }
      }
    }
    FOMPI_FIBER_END();
  }

  void fail(rdma::OpStatus st) {
    if (res->status == rdma::OpStatus::ok) res->status = st;
  }

  KvStore& kv;
  Copy prim, repl;
  BucketLayout pl, rl;
  std::size_t* cursor;
  ScrubResult* res;
  std::size_t cells = 0, i = 0, poff = 0, roff = 0;
  bool heap_cell = false, to_repl = false;
  std::uint64_t pv1 = 0, pv2 = 0, rv1 = 0, rv2 = 0;
  std::uint64_t pk = 0, rk = 0, pval = 0, rval = 0;
  core::RmaRequest qa, qb, qc, qd;
};

// --- cell repair -------------------------------------------------------------

rdma::OpStatus KvStore::repair_cell(const Copy& loser, std::size_t cell_off,
                                    std::uint64_t locked_ver,
                                    std::uint64_t key, std::uint64_t value,
                                    std::uint64_t winner_ver) {
  // Lock the loser cell through its own seqlock: CAS the even version we
  // snapshotted to odd. Losing the CAS means a live writer moved the cell
  // first — report `retired` so the caller skips (the writer's update is
  // newer than our snapshot anyway).
  std::uint64_t prev = 0;
  auto st = amo_cas(loser.rank, cell_off + kVerOff, locked_ver,
                    locked_ver + 1, &prev);
  if (st != rdma::OpStatus::ok) return st;
  if (prev != locked_ver) return rdma::OpStatus::retired;
  st = amo_write(loser.rank, cell_off, key);
  if (st == rdma::OpStatus::ok) {
    st = amo_write(loser.rank, cell_off + kValOff, value);
  }
  // Release at (at least) the winner's version so the pair compares equal
  // on the next scrub pass; never release below our own lock. The release
  // also invalidates cached entries: their version is now in the past.
  std::uint64_t rel = locked_ver + 2;
  if ((winner_ver & 1) == 0 && winner_ver > rel) rel = winner_ver;
  const auto relst = amo_write(loser.rank, cell_off + kVerOff, rel);
  return st == rdma::OpStatus::ok ? relst : st;
}

// --- scrub -------------------------------------------------------------------

ScrubResult KvStore::scrub(int shard) {
  ScrubResult res;
  const Copy prim = copy_of(shard, false);
  const Copy repl = copy_of(shard, true);
  // Repairs mutate the loser: both sides must be writable. (Snapshots of a
  // frozen image would work, but a repair against a dead rank cannot.)
  if (!win_.peer_alive(prim.rank) || !win_.peer_alive(repl.rank)) {
    res.status = rdma::OpStatus::peer_dead;
    return res;
  }
  fabric::progress::Scheduler sched(*fabric_, rank_);
  std::size_t cursor = 0;
  const int pool = std::max(1, std::min(cfg_.scrub_fibers,
                                        static_cast<int>(cfg_.table_slots)));
  for (int i = 0; i < pool; ++i) {
    sched.spawn<ScrubFiber>(*this, prim, repl, &cursor, &res);
  }
  sched.run();
  return res;
}

// --- spare placement ---------------------------------------------------------

Copy KvStore::pick_spare(int owner_rank,
                         const std::vector<std::uint64_t>& table,
                         std::vector<std::uint8_t>* spare_used) const {
  (void)table;  // occupancy is pre-scanned into spare_used by coordinate()
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
  std::vector<std::uint64_t> table;
  auto st = raw_fetch_table(&table);
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
    fabric_->yield_check();
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
      p.dst = pick_spare(keep.rank, table, &spare_used);
      FOMPI_REQUIRE(p.dst.rank >= 0, ErrClass::no_mem,
                    "kv recovery: spare bank exhausted among survivors");
      p.word = static_cast<std::uint64_t>(pack_copy(keep)) |
               (static_cast<std::uint64_t>(pack_copy(p.dst)) << 32);
      plans.push_back(p);
    }
    if (plans.empty()) break;

    // Drain all frozen images concurrently on the progress engine.
    {
      fabric::progress::Scheduler sched(*fabric_, rank_);
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
      const std::vector<std::uint64_t> old = routing_;
      routing_ = table;
      apply_routing(old);
      bool rescan = false;
      for (const int s : touched) {
        const ScrubResult sr = scrub(s);
        rep->scrub_cells += sr.cells;
        rep->scrub_repairs += sr.repairs;
        if (sr.status != rdma::OpStatus::ok) rescan = true;  // death mid-scrub
      }
      touched.clear();
      if (!rescan) break;
    }
    bo.pause();
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
          bo.pause();
          fabric_->yield_check();
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
    // every shard either fully healthy or terminally lost), then install
    // the new table. Politely — backoff + yield_check, never a raw spin.
    // A recovery that completed since we started waiting (generation moved
    // to a NEW even value) also releases the wait: a death that arrived
    // after the coordinator returned belongs to the caller's next heal()
    // pass, not this one.
    std::uint64_t g = 0;
    auto st = amo_read(cfg_.routing_rank, 0, &g);
    if (st != rdma::OpStatus::ok) {
      rep.status = st;
      return rep;
    }
    if (first_even == ~std::uint64_t{0} && (g & 1) == 0) first_even = g;
    if ((g & 1) == 0) {
      std::vector<std::uint64_t> table;
      st = raw_fetch_table(&table);
      if (st != rdma::OpStatus::ok) {
        rep.status = st;
        return rep;
      }
      bool settled = true;
      int lost = 0;
      for (const auto w : table) {
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
      if (settled || g != first_even) {
        st = fetch_routing();
        if (st != rdma::OpStatus::ok) {
          rep.status = st;
          return rep;
        }
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
    bo.pause();
    fabric_->yield_check();
  }
}

}  // namespace fompi::kv
