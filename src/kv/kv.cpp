#include "kv/kv.hpp"

#include <algorithm>

#include "common/instr.hpp"
#include "common/rng.hpp"
#include "fabric/progress/progress.hpp"
#include "kv/zipf.hpp"

namespace fompi::kv {

namespace {

// A KV cell is {key, version, value(, next)}: key at +0, seqlock version
// word at +8, value at +16 — identical for top cells (stride 24) and
// overflow cells (stride 32, next link last).
constexpr std::size_t kVerOff = 8;
constexpr std::size_t kValOff = 16;
constexpr std::size_t kTopStride = 24;
constexpr std::size_t kCellStride = 32;

// Seqlock spins stuck this long on an odd version check for a dead writer
// before attempting revocation (mirrors the window's dead-lock-holder path).
constexpr int kRevokeSpins = 256;

}  // namespace

KvStore::KvStore(fabric::RankCtx& ctx, KvConfig cfg)
    : cfg_(cfg),
      nranks_(ctx.nranks()),
      rank_(ctx.rank()),
      fabric_(&ctx.fabric()) {
  FOMPI_REQUIRE(cfg_.shards >= 1, ErrClass::arg, "kv needs >= 1 shard");
  FOMPI_REQUIRE(cfg_.table_slots > 0 && cfg_.heap_slots > 0, ErrClass::arg,
                "kv needs nonzero shard capacities");
  FOMPI_REQUIRE(cfg_.routing_rank >= 0 && cfg_.routing_rank < nranks_,
                ErrClass::arg, "kv routing rank out of range");
  shards_per_rank_ = (cfg_.shards + nranks_ - 1) / nranks_;

  core::WinConfig wc;
  wc.err_mode = core::ErrMode::errors_return;  // service degrades, not dies
  const std::size_t bytes =
      routing_bytes() +
      (2 * static_cast<std::size_t>(shards_per_rank_) +
       static_cast<std::size_t>(spare_slots())) *
          shard_region_bytes();
  win_ = core::Win::allocate(ctx, bytes, wc);

  // The routing home publishes the generation word (offset 0; even =
  // stable, odd = reconfiguration in flight) and the authoritative table
  // into its own region before the barrier; clients fetch the consistent
  // {generation, table} pair one-sided afterwards (MR-fetch idiom: one
  // rget at attach time, no metadata traffic per op).
  if (rank_ == cfg_.routing_rank) {
    auto* words = static_cast<std::uint64_t*>(win_.base());
    words[0] = 0;  // generation
    words[1] = 0;  // pad: keeps the table 16-byte aligned
    for (int s = 0; s < cfg_.shards; ++s) {
      const int owner = s % nranks_;
      const int repl = (owner + 1) % nranks_;
      const int slot = s / nranks_;
      words[2 + s] =
          static_cast<std::uint64_t>(pack_copy(Copy{owner, 0, slot})) |
          (static_cast<std::uint64_t>(pack_copy(Copy{repl, 1, slot})) << 32);
    }
  }
  win_.lock_all();  // passive epoch held for the service's lifetime
  ctx.barrier();

  routing_.assign(static_cast<std::size_t>(cfg_.shards), 0);
  degraded_.assign(static_cast<std::size_t>(cfg_.shards), false);
  cache_.assign(static_cast<std::size_t>(cfg_.shards), {});
  const auto st = fetch_routing();
  FOMPI_REQUIRE(st == rdma::OpStatus::ok, ErrClass::internal,
                "kv routing-table fetch failed");
  ctx.barrier();  // no traffic before every client holds the table
}

void KvStore::destroy(fabric::RankCtx& ctx) {
  ctx.barrier();
  win_.unlock_all();
  win_.free();
}

// --- layout -----------------------------------------------------------------

std::size_t KvStore::routing_bytes() const {
  // [generation | pad][8-byte packed entry per shard].
  return 16 + 8 * static_cast<std::size_t>(cfg_.shards);
}

std::size_t KvStore::shard_region_bytes() const {
  BucketLayout l;
  l.table_slots = cfg_.table_slots;
  l.heap_slots = cfg_.heap_slots;
  l.table_stride = kTopStride;
  l.cell_stride = kCellStride;
  return 16 + l.region_bytes();  // [probe word][pad] + buckets
}

std::size_t KvStore::copy_base(const Copy& c) const {
  // Banks 0 (primary) and 1 (replica) hold shards_per_rank regions each;
  // bank 2 (spares) is kSpareFactor times wider.
  const std::size_t spr = static_cast<std::size_t>(shards_per_rank_);
  const std::size_t regions =
      c.bank < 2 ? static_cast<std::size_t>(c.bank) * spr +
                       static_cast<std::size_t>(c.slot)
                 : 2 * spr + static_cast<std::size_t>(c.slot);
  return routing_bytes() + regions * shard_region_bytes();
}

BucketLayout KvStore::layout_of(const Copy& c) const {
  BucketLayout l;
  l.base = copy_base(c) + 16;
  l.table_slots = cfg_.table_slots;
  l.heap_slots = cfg_.heap_slots;
  l.table_stride = kTopStride;
  l.cell_stride = kCellStride;
  return l;
}

int KvStore::shard_of(std::uint64_t key) const {
  return static_cast<int>(mix64(key) %
                          static_cast<std::uint64_t>(cfg_.shards));
}

std::size_t KvStore::slot_of(std::uint64_t key) const {
  return static_cast<std::size_t>(mix64(key) >> 32) % cfg_.table_slots;
}

Copy KvStore::copy_of(int shard, bool replica) const {
  const std::uint64_t w = routing_[static_cast<std::size_t>(shard)];
  return unpack_copy(static_cast<std::uint32_t>(replica ? (w >> 32) : w));
}

int KvStore::owner_of(int shard) const { return copy_of(shard, false).rank; }

int KvStore::replica_of(int shard) const { return copy_of(shard, true).rank; }

std::size_t KvStore::cached_entries(int shard) const {
  const auto& entries = cache_[static_cast<std::size_t>(shard)];
  return static_cast<std::size_t>(
      std::count_if(entries.begin(), entries.end(),
                    [](const auto& e) { return e.second.version != 0; }));
}

rdma::OpStatus KvStore::probe_owner(int shard) {
  // Identity accumulate (+0): pure reads are served from a dead rank's
  // frozen memory image under the fail-stop model, so only a mutating AMO
  // yields the typed peer_dead. Adding zero leaves the region header as is.
  return amo_add(owner_of(shard), copy_base(copy_of(shard, false)), 0);
}

// --- typed-status AMO helpers ------------------------------------------------
//
// Every remote word access goes through the request-based ops, each of
// which adds exactly one handle: faults and dead targets retire as typed
// statuses on it instead of raising, so the client can degrade per shard.
// An awaited rput/raccumulate is remotely complete at retire, which the
// seqlock's publish ordering relies on.

rdma::OpStatus KvStore::wait_req(core::RmaRequest& req) {
  rdma::OpStatus st = rdma::OpStatus::ok;
  for (const auto h : req.handles()) {
    const auto s = req.nic()->wait_status(h);
    if (s != rdma::OpStatus::ok && st == rdma::OpStatus::ok) st = s;
  }
  req.dismiss();
  return st;
}

rdma::OpStatus KvStore::amo_read(int t, std::size_t off, std::uint64_t* v) {
  auto req = win_.rfetch_and_op(nullptr, v, Elem::u64, RedOp::no_op, t, off);
  return wait_req(req);
}

rdma::OpStatus KvStore::amo_cas(int t, std::size_t off, std::uint64_t expect,
                                std::uint64_t desired, std::uint64_t* prev) {
  auto req =
      win_.rcompare_and_swap(&desired, &expect, prev, Elem::u64, t, off);
  return wait_req(req);
}

rdma::OpStatus KvStore::amo_add(int t, std::size_t off, std::uint64_t add) {
  auto req = win_.raccumulate(&add, 1, Elem::u64, RedOp::sum, t, off);
  return wait_req(req);
}

rdma::OpStatus KvStore::amo_write(int t, std::size_t off, std::uint64_t v) {
  auto req = win_.raccumulate(&v, 1, Elem::u64, RedOp::replace, t, off);
  return wait_req(req);
}

// --- versioned routing -------------------------------------------------------
//
// The routing table carries a generation word: even = stable, odd = a
// reconfiguration is in flight. Clients that have observed a death read
// the generation inside every op's first round (RegionOp::issue); a
// mismatch fails that round on every machine of the op, which retires
// typed retry_routing and — once the generation is stable again —
// re-fetches a consistent {generation, table} pair. Before any death the
// generation cannot have moved, so the healthy fast path skips all of this
// for the cost of one atomic load and a branch.

bool KvStore::routing_suspect() const {
  return fabric_->domain().death_epoch() != 0;
}

std::uint64_t KvStore::generation() {
  std::uint64_t g = 0;
  amo_read(cfg_.routing_rank, 0, &g);
  return g;
}

rdma::OpStatus KvStore::handle_gen_mismatch(std::uint64_t gen) {
  ++stats_.retry_routing;
  count(Op::kv_retry_routing);
  // Odd generation: the coordinator is mid-reconfiguration. Retire the op
  // typed instead of blocking the client under the coordinator's drain;
  // the caller reissues and refreshes once the generation stabilizes. A
  // stable one is refetched once; a refetch that races a new
  // reconfiguration leaves the table to the next op's check.
  if ((gen & 1) == 0) {
    const auto st = try_fetch_routing();
    if (st != rdma::OpStatus::ok && st != rdma::OpStatus::retry_routing) {
      return st;
    }
  }
  return rdma::OpStatus::retry_routing;
}

rdma::OpStatus KvStore::read_routing(std::uint64_t* gen,
                                     std::vector<std::uint64_t>* table) {
  // A snapshot like a cell's: the coordinator writes entries only while
  // the generation is odd, and generations only grow, so two equal, even
  // reads around the table prove no entry moved between them (an odd
  // pair is only whole to the coordinator that holds it). The three
  // requests apply in issue order, and the rget moves whole aligned words,
  // each atomic against the coordinator's AMO writes.
  const int t = cfg_.routing_rank;
  table->assign(static_cast<std::size_t>(cfg_.shards), 0);
  std::uint64_t again = 0;
  core::RmaRequest reqs[3] = {
      win_.rfetch_and_op(nullptr, gen, Elem::u64, RedOp::no_op, t, 0),
      win_.rget(table->data(), 8 * table->size(), t, 16),
      win_.rfetch_and_op(nullptr, &again, Elem::u64, RedOp::no_op, t, 0)};
  rdma::OpStatus st = rdma::OpStatus::ok;
  for (auto& req : reqs) {
    const auto s = wait_req(req);
    if (s != rdma::OpStatus::ok && st == rdma::OpStatus::ok) st = s;
  }
  if (st != rdma::OpStatus::ok) return st;
  return *gen == again ? rdma::OpStatus::ok : rdma::OpStatus::retry_routing;
}

rdma::OpStatus KvStore::try_fetch_routing() {
  // Only a stable (even) generation names a published table. This is what
  // makes a LATE first fetch safe: a client attaching while a recovery is
  // republishing entries can never install a half-new table under an old
  // generation stamp.
  std::uint64_t gen = 0;
  std::vector<std::uint64_t> table;
  const auto st = read_routing(&gen, &table);
  if (st != rdma::OpStatus::ok) return st;
  if ((gen & 1) != 0) return rdma::OpStatus::retry_routing;
  gen_seen_ = gen;
  apply_routing(std::move(table));
  return rdma::OpStatus::ok;
}

rdma::OpStatus KvStore::fetch_routing() {
  // A reconfiguration in flight answers retry_routing: wait it out.
  rdma::OpStatus st = rdma::OpStatus::ok;
  fabric_->domain().wait_until([&] {
    st = try_fetch_routing();
    return st != rdma::OpStatus::retry_routing;
  });
  return st;
}

void KvStore::apply_routing(std::vector<std::uint64_t> table) {
  routing_.swap(table);  // `table` holds the replaced entries from here on
  for (int s = 0; s < cfg_.shards; ++s) {
    const auto i = static_cast<std::size_t>(s);
    if (table.size() == routing_.size() && table[i] != routing_[i]) {
      // The shard's copies moved: entries hold the old primary's versions.
      cache_[i].clear();
    }
    degraded_[i] = !win_.peer_alive(copy_of(s, false).rank);
  }
}

rdma::OpStatus KvStore::refresh_routing() { return fetch_routing(); }

// --- failover ----------------------------------------------------------------

bool KvStore::any_peer_dead() const {
  for (int r = 0; r < nranks_; ++r) {
    if (!win_.peer_alive(r)) return true;
  }
  return false;
}

void KvStore::fail_over(int shard) {
  if (degraded_[static_cast<std::size_t>(shard)]) return;
  degraded_[static_cast<std::size_t>(shard)] = true;
  // Values, versions and cells of the primary copy no longer serve; the
  // replica's cells do, so degraded writes still take them.
  auto& entries = cache_[static_cast<std::size_t>(shard)];
  for (auto it = entries.begin(); it != entries.end();) {
    it = forget_primary(it->second) ? entries.erase(it) : std::next(it);
  }
  ++stats_.failovers;
  count(Op::kv_failover);
}

bool KvStore::forget_primary(CacheEntry& e) {
  e.cell[0] = 0;
  e.version = 0;
  return e.cell[1] == 0;
}

// --- region-op machine -------------------------------------------------------
//
// One KV op against ONE copy of a shard. issue() posts the current round's
// requests (at most four, all in flight together, a client op's first
// round counting its routing generation read); advance() consumes
// their results and picks the next state. The drivers own the waiting (see
// "drivers" below). Within a round the NIC applies one origin's requests
// to a target in issue order (as an RC queue pair does), and the drivers
// retire them in issue order, which is when deferred delivery applies
// them. The machine relies on that in five places: a read's snapshot reads
// the version, the whole cell, then the version again; a write's located
// round reads a cell's version before its key; a take sets a cell's odd
// bit before it reads the key; a reclaim writes the value before the key;
// and a write round stores the data before the release that publishes it.
// Only a step that needs another's result waits a round: the lock after
// the located round, the write after the lock.
//
// One cell per key per copy (DESIGN.md §12): a put that finds its key
// nowhere in the slot first locks the TOP cell at the version its top round
// read (the slot lock; a top still at version 0 counts as held). Every
// cell creation holds that lock, so winning it proves the walk still
// stands; only then does the put reclaim the first tombstone it passed or
// link a fresh cell.
//
// A lock at a version the walk did not locate the key at is a *take*: a
// fetch-or of the odd bit, then a read of the key word. It locks the cell
// iff the version it returns is even, and an odd one is left as it was, so
// a take also polls a held cell. The key read lands under the lock, so a
// taken cell that holds another key is released at +2 and the walk starts
// over. A client write whose entry names the key's cell on a copy (a hint)
// starts there with a take: two rounds, {take} -> {write, release}.

struct KvStore::RegionOp {
  using Kind = KvStore::Kind;
  enum class Step : std::uint8_t { done, next, contended };
  enum class State : std::uint8_t {
    check,    // cached read: the cached cell's version
    top,      // a read's snapshot of the top cell; a write's top
              // version + top key (a claim CAS for puts)
    head,     // chain head
    cell,     // a read's snapshot of a chain cell; a write's version +
              // key + next
    snap,     // read: a snapshot of the cell it cached, hinted or located
    guard,    // creating put: CAS the top version even -> odd (slot lock)
    acquire,  // fresh overflow cell: FAA next_free
    fill,     // rput the whole cell {key, version 2, value, next}
    link,     // CAS the chain head to the new cell
    lock,     // CAS the located version even -> odd; else a take
    revoke,   // CAS a version a dead writer left odd forward
    bury,     // CAS a dead claimer's top (version 0 or 1) to a new odd one
    write,    // the data store(s), then the release(s)
    release,  // release without a write: a won link, a back-off, a failure
              // under the slot lock
    done,
  };
  /// What the write round stores in the cell the lock is taken on.
  enum class Act : std::uint8_t {
    update,    // the key's own cell: value, or the tombstone for erase
    reclaim,   // a tombstone under the slot lock: value, then key
    bury,      // a dead claimer's top: the tombstone, then re-locate
    back_off,  // a take won over another key: release and re-locate
    link,      // a won link: release the slot lock; the key is in the new
               // cell
  };

  /// An op on one copy that starts with the walk from the top. A read
  /// begun here is a full seqlock read that skips the client cache and the
  /// generation check (the scrub reads while coordinate() holds it odd).
  void begin(KvStore& kv, Kind k, int s, bool rep, std::uint64_t ky,
             std::uint64_t val) {
    *this = RegionOp{};
    kind = k;
    shard = s;
    replica = rep;
    key = ky;
    value = val;
    const Copy c = kv.copy_of(s, rep);
    home = pack_copy(c);
    t = c.rank;
    l = kv.layout_of(c);
    slot = kv.slot_of(ky);
    st = State::top;
  }

  /// A client op starts from the key's entry, its first round validated by
  /// the routing generation once a death was seen. A read with the cache
  /// on checks the cached version or snapshots the hinted cell in place; a
  /// write takes the cell the entry names on this copy.
  void begin_client(KvStore& kv, Kind k, int s, bool rep, std::uint64_t ky,
                    std::uint64_t val) {
    begin(kv, k, s, rep, ky, val);
    with_gen = kv.routing_suspect();
    if (k == Kind::read) {
      with_cache = kv.cfg_.client_cache && !rep;
      if (!with_cache) return;
    }
    const auto& entries = kv.cache_[static_cast<std::size_t>(s)];
    const auto it = entries.find(ky);
    if (it == entries.end() || it->second.cell[rep] == 0) return;
    cell = it->second.cell[rep];
    if (k != Kind::read) {
      take = true;
      st = State::lock;
    } else if (it->second.version != 0) {
      ver = it->second.version;
      value = it->second.value;
      st = State::check;
    } else {
      st = State::snap;
    }
  }

  /// Posts the round's requests. In a client op's first round once a
  /// death was seen (`with_gen`), the lead machine, the op's serving copy,
  /// then reads the routing generation for every machine of the op;
  /// issued last, it leaves a take's fetch-or request 0.
  void issue(KvStore& kv, bool lead) {
    round_st = rdma::OpStatus::ok;
    const std::size_t top = l.off_table(slot);
    switch (st) {
      case State::check: read(kv, t, cell + kVerOff, &w[0]); break;
      case State::top:
        if (kind == Kind::read) {
          snapshot(kv, top, kTopStride);
          break;
        }
        read(kv, t, top + kVerOff, &w[1]);
        // A stale op must not leave a claim at version 0: a put claims
        // only once the generation has passed.
        if (kind == Kind::put && !with_gen) {
          cas(kv, top, 0, key, &w[0]);
        } else {
          read(kv, t, top, &w[0]);
        }
        break;
      case State::head: read(kv, t, l.off_chain(slot), &w[0]); break;
      case State::cell:
        if (kind == Kind::read) {
          snapshot(kv, l.off_heap(idx), kCellStride);
          break;
        }
        read(kv, t, l.off_heap(idx) + kVerOff, &w[1]);
        read(kv, t, l.off_heap(idx), &w[0]);
        read(kv, t, l.off_cell_next(idx), &w[3]);
        break;
      case State::snap: snapshot(kv, cell, kTopStride); break;
      case State::guard:
        cas(kv, top + kVerOff, top_ver, top_ver + 1, &w[0]);
        break;
      case State::acquire:
        fetch(kv, RedOp::sum, l.off_next_free(), 1, &w[0]);
        break;
      case State::fill:
        add([&] { return kv.win_.rput(img, sizeof img, t, l.off_heap(idx)); });
        break;
      case State::link: cas(kv, l.off_chain(slot), head, idx + 1, &w[0]); break;
      case State::lock:
        if (take) {
          // The odd bit at whatever version the cell holds, then the key.
          fetch(kv, RedOp::bor, cell + kVerOff, 1, &w[0]);
          read(kv, t, cell, &w[1]);
        } else {
          cas(kv, cell + kVerOff, ver, ver + 1, &w[0]);
        }
        break;
      case State::revoke: cas(kv, cell + kVerOff, ver, ver + 1, &w[0]); break;
      case State::bury:
        cas(kv, cell + kVerOff, ver, (ver + 1) | 1, &w[0]);
        break;
      case State::write:
        // The data, then the release that publishes it, in one round.
        // Erase overwrites the KEY word (readers then miss) and leaves the
        // value word alone. A reclaim stores the value first: a writer
        // that dies between the two leaves a tombstone, never the new key
        // over the erased key's value. A repair releases the cell no lower
        // than the winner's version.
        if (act == Act::reclaim) {
          store(kv, cell + kValOff, value);
          store(kv, cell, key);
        } else if (act == Act::bury || kind == Kind::erase) {
          store(kv, cell, kTombstone);
        } else {
          store(kv, cell + kValOff, value);
        }
        unlock(kv, std::max(ver + 2, win_ver));
        break;
      case State::release: unlock(kv, ver + 2); break;
      case State::done: break;
    }
    if (with_gen && lead) read(kv, kv.cfg_.routing_rank, 0, &gen);
  }

  /// Retires request `r` of the round with status `s`.
  void fold(int r, rdma::OpStatus s) {
    req_st[r] = s;
    if (s != rdma::OpStatus::ok && round_st == rdma::OpStatus::ok) {
      round_st = s;
    }
  }

  /// Requests the next issue() posts: issue() run without posting, so the
  /// count can never drift from what the round sends.
  int width(KvStore& kv) {
    sizing = true;
    issue(kv, true);
    sizing = false;
    const int n = nreq;
    nreq = 0;
    return n;
  }

  Step advance(KvStore& kv) {
    nreq = 0;
    const bool gen_round = with_gen;
    with_gen = false;  // validated once per op, in its first round
    // Past the lock a failure still releases, so it cannot wedge the cell.
    // A failure under the slot lock releases the top before it retires,
    // and so does a take whose fetch-or set the odd bit of an even version
    // and whose key read failed or whose op read a stale generation: it
    // holds that cell.
    if (round_st != rdma::OpStatus::ok && st != State::write &&
        st != State::revoke) {
      const bool took = st == State::lock && take &&
                        req_st[0] == rdma::OpStatus::ok && (w[0] & 1) == 0;
      if (!(guarded || took) || st == State::release) {
        return finish(held != rdma::OpStatus::ok ? held : round_st);
      }
      held = round_st;
      if (took) {
        ver = w[0];
      } else {
        guarded = false;
        cell = l.off_table(slot);
        ver = top_ver;
      }
      act = Act::update;
      return go(State::release);
    }
    switch (st) {
      case State::check:
        // Unchanged version: the cell still holds the pair, and it is the
        // key's only cell on this copy. The hit linearizes here.
        if (w[0] == ver) {
          hit = found = true;
          return finish(rdma::OpStatus::ok);
        }
        return go(State::snap);  // most likely still the key's cell
      case State::top:
        // A free slot that the validating round only read: claim it now.
        if (gen_round && kind == Kind::put && w[0] == 0) return go(State::top);
        if (w[0] == key || (kind == Kind::put && w[0] == 0)) {
          cell = l.off_table(slot);
          return kind == Kind::read ? snapped(kv) : located(w[1]);
        }
        if (w[0] == 0) return finish(rdma::OpStatus::ok);  // never claimed
        top_ver = w[1];
        if (kind == Kind::put && w[0] == kTombstone) {
          passed_tombstone(l.off_table(slot), w[1]);
        }
        return go(State::head);
      case State::head:
        head = w[0];
        return follow(kv, head);
      case State::cell:
        if (w[0] == key) {
          cell = l.off_heap(idx);
          return kind == Kind::read ? snapped(kv) : located(w[1]);
        }
        if (kind == Kind::put && w[0] == kTombstone) {
          passed_tombstone(l.off_heap(idx), w[1]);
        }
        return follow(kv, w[3]);
      case State::snap:  // a cell that lost the key: walk from the top
        return w[0] == key ? snapped(kv) : go(State::top);
      case State::guard:
        // A moved top version may be a creation the walk did not see.
        if (w[0] != top_ver) return relocate();
        guarded = true;
        if (tomb == 0) return go(State::acquire);
        cell = tomb;
        ver = tomb_ver;
        act = Act::reclaim;
        // A top tombstone's own lock is the slot lock just taken.
        return go(tomb == l.off_table(slot) ? State::write : State::lock);
      case State::acquire:
        FOMPI_REQUIRE(w[0] < l.heap_slots, ErrClass::no_mem,
                      "kv shard overflow heap exhausted");
        // Published fully formed (version even and nonzero, value in
        // place) before the link: reachable implies readable.
        idx = w[0];
        img[0] = key;
        img[1] = std::max<std::uint64_t>(2, win_ver);
        img[2] = value;
        img[3] = head;
        return go(State::fill);
      case State::fill: return go(State::link);
      case State::link:
        if (w[0] == head) {
          act = Act::link;
          cell = l.off_table(slot);  // release the slot lock
          ver = top_ver;
          return go(State::release);
        }
        head = img[3] = w[0];  // lost the link race: relink at the new head
        return contend(State::fill);
      case State::lock:
        if (take) {
          ver = w[0];
          // Odd: another writer holds the cell, and the fetch-or left it.
          if ((ver & 1) != 0) return stuck_held(kv, State::lock);
          if (w[1] != key) {
            act = Act::back_off;  // the cell holds another key now
            return go(State::release);
          }
          return go(State::write);
        }
        if (w[0] == ver) return go(State::write);
        if (act == Act::reclaim) {
          // The tombstone moved under the slot lock: link a fresh cell
          // rather than wait on it while holding the slot.
          act = Act::update;
          return go(State::acquire);
        }
        // A repair writes only over the version the scrub read.
        if (repair) return finish(rdma::OpStatus::retired);
        // The version moved since the walk read it: take the cell.
        ver = w[0];
        take = true;
        return (ver & 1) != 0 ? stuck_held(kv, State::lock)
                              : contend(State::lock);
      case State::revoke:
        // The cell's host died with it locked: the frozen image stays odd
        // forever and revocation cannot land. Retire typed so the caller
        // fails over instead of spinning on the corpse.
        if (round_st == rdma::OpStatus::peer_dead) return finish(round_st);
        return contend(resume);
      case State::bury:
        if (w[0] != ver) return relocate();  // the claimer went on after all
        ver = (ver + 1) & ~std::uint64_t{1};  // released at 2 or 4
        act = Act::bury;
        return go(State::write);
      case State::write:
        // The round released the cell: a failed store leaves the write's
        // effect unknown.
        if (round_st != rdma::OpStatus::ok) return finish(round_st);
        if (act == Act::bury) return relocate();
        return finish(rdma::OpStatus::ok);
      case State::release:
        if (act == Act::bury || act == Act::back_off) return relocate();
        if (act == Act::link) cell = l.off_heap(idx);  // the key's cell
        return finish(held);
      case State::done: break;
    }
    return Step::done;
  }

  // --- state-transition helpers ---------------------------------------------
  Step go(State s) {
    st = s;
    return Step::next;
  }
  Step contend(State s) {
    st = s;
    return Step::contended;
  }
  Step finish(rdma::OpStatus s) {
    status = s;
    st = State::done;
    if (s != rdma::OpStatus::ok) found = false;
    return Step::done;
  }
  /// Starts the walk over from the top round, holding no lock.
  Step relocate() {
    act = Act::update;
    guarded = take = false;
    tomb = 0;
    return contend(State::top);
  }
  /// A put remembers the first tombstone it passes, if no writer holds it,
  /// as the cell to reclaim should its key turn out to be absent.
  void passed_tombstone(std::size_t off, std::uint64_t v) {
    if (tomb == 0 && v != 0 && (v & 1) == 0) {
      tomb = off;
      tomb_ver = v;
    }
  }
  /// The chain continues at link `n` (cell index + 1), or ended.
  Step follow(KvStore& kv, std::uint64_t n) {
    if (n != 0) {
      idx = n - 1;
      return go(State::cell);
    }
    if (kind != Kind::put) return finish(rdma::OpStatus::ok);  // absent
    // The key is in no cell of the slot: creating one takes the slot lock
    // at the version the top round read. Odd, or 0 (a claim that has not
    // linearized), means another writer holds the top: walk again later.
    if (top_ver != 0 && (top_ver & 1) == 0) return go(State::guard);
    cell = l.off_table(slot);
    ver = top_ver;
    tomb = 0;
    return stuck_held(kv, State::top);
  }
  /// A write's key is in `cell` at version `v`, read before its key: the
  /// write locks from there, by a take once the holder of an odd `v` lets
  /// go. A repair creates its key only while the copy lacks it (a claimed
  /// top at version 0 has not linearized).
  Step located(std::uint64_t v) {
    ver = v;
    if (repair && v != 0) return finish(rdma::OpStatus::retired);
    take = (v & 1) != 0;
    return go(State::lock);
  }
  /// A read's snapshot found the key in `cell`. The copy in w[0..3] is the
  /// cell at one version if the versions read before and after it, w[4]
  /// and w[5], are equal and even: no lock fell between them.
  Step snapped(KvStore& kv) {
    ver = w[5];
    // Version 0 before the copy: the insert has not linearized, a miss.
    if (w[4] == 0) return finish(rdma::OpStatus::ok);
    if (w[4] == ver && (ver & 1) == 0) {
      found = true;
      value = w[2];
      return finish(rdma::OpStatus::ok);
    }
    retried(kv);
    return (ver & 1) != 0 ? stuck_held(kv, State::snap)
                          : contend(State::snap);
  }
  /// Another writer holds `cell` at version `ver` (odd, or a claimed top
  /// at 0). Once a death has been observed, a hold stuck past kRevokeSpins
  /// is broken by CAS. A top at version 0 or 1 is a claim whose value was
  /// never released, so it is buried (taken at a new odd version,
  /// tombstoned, released at 2 or 4). Any other odd version is revoked
  /// forward. Against a live writer the CAS fails, or its take finds the
  /// key gone. A revoked cell's last in-flight write may or may not have
  /// landed: fail-stop, either value is legal.
  Step stuck_held(KvStore& kv, State again) {
    if (++stuck > kRevokeSpins) {
      stuck = 0;
      if (kv.any_peer_dead()) {
        resume = again;
        return go(ver <= 1 ? State::bury : State::revoke);
      }
    }
    return contend(again);
  }
  void retried(KvStore& kv) {
    ++kv.stats_.read_retries;
    count(Op::kv_read_retry);
  }

  // --- request helpers (typed: faults retire as statuses) ------------------
  /// Posts one request, or only counts it while width() sizes the round.
  template <class Post>
  void add(Post&& post) {
    if (!sizing) req[nreq] = post();
    ++nreq;
  }
  void read(KvStore& kv, int target, std::size_t off, std::uint64_t* out) {
    add([&] {
      return kv.win_.rfetch_and_op(nullptr, out, Elem::u64, RedOp::no_op,
                                   target, off);
    });
  }
  /// `op` with `operand` on the copy's word at `off`; the old value to
  /// `out`.
  void fetch(KvStore& kv, RedOp op, std::size_t off, std::uint64_t operand,
             std::uint64_t* out) {
    add([&] {
      return kv.win_.rfetch_and_op(&operand, out, Elem::u64, op, t, off);
    });
  }
  /// A read's snapshot round: the cell's version, `bytes` of the cell at
  /// `off` in one word-atomic get, then the version again. A cell that
  /// does not hold the key is walked past on the copy's key word alone,
  /// one atomic word as a write's walk reads it.
  void snapshot(KvStore& kv, std::size_t off, std::size_t bytes) {
    read(kv, t, off + kVerOff, &w[4]);
    add([&] { return kv.win_.rget(w, bytes, t, off); });
    read(kv, t, off + kVerOff, &w[5]);
  }
  void cas(KvStore& kv, std::size_t off, std::uint64_t expect,
           std::uint64_t desired, std::uint64_t* out) {
    add([&] {
      return kv.win_.rcompare_and_swap(&desired, &expect, out, Elem::u64, t,
                                       off);
    });
  }
  void store(KvStore& kv, std::size_t off, std::uint64_t v) {
    add([&] {
      return kv.win_.raccumulate(&v, 1, Elem::u64, RedOp::replace, t, off);
    });
  }
  /// Releases the cell at version `v`, and the slot lock too when the op
  /// holds it for another cell.
  void unlock(KvStore& kv, std::uint64_t v) {
    store(kv, cell + kVerOff, v);
    const std::size_t top = l.off_table(slot);
    if (guarded && cell != top) store(kv, top + kVerOff, top_ver + 2);
  }

  Kind kind = Kind::read;
  State st = State::done, resume = State::done;
  Act act = Act::update;
  int shard = 0, t = 0, stuck = 0, nreq = 0;
  bool replica = false, with_gen = false, with_cache = false;
  bool take = false;     ///< lock by a take: not at the located version
  bool guarded = false;  ///< holds the slot lock (the top cell's version)
  bool sizing = false;   ///< width(): issue() counts instead of posting
  bool hit = false;      ///< served from the version-validated cache
  bool found = false;
  bool repair = false;   ///< scrub repair: conditional lock and creation
  std::uint32_t home = 0;  ///< pack_copy() of the copy this op addresses
  BucketLayout l;
  std::size_t slot = 0, cell = 0;
  std::size_t tomb = 0;  ///< first tombstone a put passed (0 = none)
  std::uint64_t key = 0, value = 0, ver = 0, head = 0, idx = 0;
  std::uint64_t top_ver = 0;    ///< top version the walk started from
  std::uint64_t tomb_ver = 0;  ///< the tombstone's version
  std::uint64_t gen = 0;
  std::uint64_t win_ver = 0;    ///< repair: the winner's version
  /// Words fetched by this round. A walk's rounds (top, cell, snap) put a
  /// cell's {key, version, value, next} at w[0..3], however they read it,
  /// and a read's snapshot the versions around its copy at w[4] and w[5].
  std::uint64_t w[6] = {};
  std::uint64_t img[4] = {};  ///< fresh overflow cell staged for the rput
  rdma::OpStatus status = rdma::OpStatus::ok;
  rdma::OpStatus round_st = rdma::OpStatus::ok;  ///< the round's first failure
  /// Status of the failed round a release of a held lock follows.
  rdma::OpStatus held = rdma::OpStatus::ok;
  core::RmaRequest req[4];
  rdma::OpStatus req_st[4] = {};  ///< each request of the retired round
};

// One client op in flight. start() arms a get's serving copy, or a write's
// owner and replica in lockstep; a driver runs ops[0..n) round by round
// until none is live, then settle() retires the op, or re-arms it on the
// replica when the owner died under it and returns pending again.
struct KvStore::ClientOp {
  ClientOp() = default;
  ClientOp(const ClientOp&) = delete;  // ops points into copy
  ClientOp& operator=(const ClientOp&) = delete;

  RegionOp copy[2];  ///< [0] the serving copy, [1] a healthy write's replica
  RegionOp* ops[2] = {&copy[0], &copy[1]};
  int n = 0;
  std::uint64_t value = 0;  ///< get: the value read
  bool found = false;       ///< get: the key was present
  bool hit = false;         ///< get: served from the client cache
};

// --- drivers -----------------------------------------------------------------
//
// One round routine serves both drivers: issue_round() posts every live
// machine's requests, and retire_round() retires them in issue order,
// fails the round on every machine if the lead's generation is stale, then
// advances each machine. drive() runs it on the calling thread, where the
// first retirement spins until its request's deadline and the rest find
// theirs behind the NIC's latest reading; the fleet's fibers park once per
// round until the deadline issue_round() returns and retire after it.

bool KvStore::live(RegionOp* const* ops, int n) {
  for (int i = 0; i < n; ++i) {
    if (ops[i]->st != RegionOp::State::done) return true;
  }
  return false;
}

std::uint64_t KvStore::issue_round(RegionOp* const* ops, int n) {
  count(Op::kv_round);
  // A round's requests are independent by construction, so they chain
  // behind one doorbell: the rank pays the injection overhead once per
  // round, plus a chain link per extra request. The doorbells computed
  // every request's completion, so the round's deadline is theirs, with
  // no handle looked up.
  rdma::Nic& nic = fabric_->domain().nic(rank_);
  nic.batch_begin();
  for (int i = 0; i < n; ++i) {
    if (ops[i]->st != RegionOp::State::done) ops[i]->issue(*this, i == 0);
  }
  return nic.batch_flush();
}

bool KvStore::retire_round(RegionOp* const* ops, int n) {
  for (int i = 0; i < n; ++i) {
    for (int r = 0; r < ops[i]->nreq; ++r) {
      ops[i]->fold(r, wait_req(ops[i]->req[r]));
    }
  }
  // A stale generation, the lead's last request, fails the round on every
  // machine of the op: each takes its failure path, which releases a cell
  // that a take locked, and settle() refetches the table.
  const RegionOp& lead = *ops[0];
  if (lead.with_gen && lead.req_st[lead.nreq - 1] == rdma::OpStatus::ok &&
      lead.gen != gen_seen_) {
    for (int i = 0; i < n; ++i) {
      ops[i]->round_st = rdma::OpStatus::retry_routing;
    }
  }
  bool contended = false;
  for (int i = 0; i < n; ++i) {
    if (ops[i]->nreq > 0 &&
        ops[i]->advance(*this) == RegionOp::Step::contended) {
      contended = true;
    }
  }
  return contended;
}

void KvStore::drive(RegionOp* const* ops, int n) {
  // Rounds run back to back; a contended round backs off before the next.
  fabric_->domain().wait_until([&] {
    while (live(ops, n)) {
      issue_round(ops, n);
      if (retire_round(ops, n)) return false;
    }
    return true;
  });
}

void KvStore::drive(RegionOp& op) {
  RegionOp* p = &op;
  drive(&p, 1);
}

rdma::OpStatus KvStore::debug_write_copy(std::uint64_t key, bool replica,
                                         std::uint64_t value) {
  RegionOp op;
  op.begin(*this, Kind::put, shard_of(key), replica, key, value);
  drive(op);
  return op.status;
}

rdma::OpStatus KvStore::debug_read_copy(std::uint64_t key, bool replica,
                                        std::uint64_t* value, bool* found) {
  RegionOp op;
  op.begin(*this, Kind::read, shard_of(key), replica, key, 0);
  drive(op);
  *found = op.found;
  *value = op.found ? op.value : 0;
  return op.status;
}

std::uint64_t KvStore::debug_round(const std::vector<std::uint64_t>& keys,
                                   bool write, std::uint64_t value,
                                   std::uint64_t* latest) {
  std::vector<ClientOp> cs(keys.size());
  std::vector<bool> started(keys.size());
  std::vector<RegionOp*> ops;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    started[i] = start(cs[i], write ? Kind::put : Kind::read, keys[i],
                       value) == rdma::OpStatus::pending;
    for (int m = 0; started[i] && m < cs[i].n; ++m) ops.push_back(cs[i].ops[m]);
  }
  const int n = static_cast<int>(ops.size());
  const std::uint64_t parked = issue_round(ops.data(), n);
  *latest = 0;
  for (RegionOp* op : ops) {
    for (int r = 0; r < op->nreq; ++r) {
      for (const auto h : op->req[r].handles()) {
        *latest = std::max(*latest, op->req[r].nic()->completion_deadline(h));
      }
    }
  }
  retire_round(ops.data(), n);
  drive(ops.data(), n);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (started[i]) run(cs[i], settle(cs[i]));
  }
  return parked;
}

// --- anti-entropy scrub ------------------------------------------------------
//
// Key by key (DESIGN.md §13): the cells of both copies only name candidate
// keys; each candidate is read on both copies and the loser rewritten by a
// write machine, so a repair keeps one cell per key like any write. Copies
// may hold a key at different offsets (racing creations link cells in
// different orders), and two cells' versions say nothing about each other,
// so the version decides only between cells at one offset.

ScrubResult KvStore::scrub(int shard) {
  ScrubResult res;
  const auto fold = [&res](rdma::OpStatus st) {
    if (st != rdma::OpStatus::ok && res.status == rdma::OpStatus::ok) {
      res.status = st;
    }
  };
  const auto run = [this](std::vector<RegionOp>& ops) {
    std::vector<RegionOp*> live;
    for (auto& op : ops) live.push_back(&op);
    drive(live.data(), static_cast<int>(live.size()));
  };
  const Copy copies[2] = {copy_of(shard, false), copy_of(shard, true)};
  // Repairs mutate the loser: both sides must be writable.
  if (!win_.peer_alive(copies[0].rank) || !win_.peer_alive(copies[1].rank)) {
    res.status = rdma::OpStatus::peer_dead;
    return res;
  }

  // Candidate keys: the key word of every cell of both copies, from rgets
  // of whole words (word-atomic against the AMOs racing them).
  const std::size_t words = shard_region_bytes() / 8;
  const std::size_t chunk = kDrainChunk / 8;
  std::vector<std::uint64_t> image(2 * words);
  std::vector<core::RmaRequest> reqs;
  for (int c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < words; i += chunk) {
      reqs.push_back(win_.rget(&image[c * words + i],
                               8 * std::min(chunk, words - i), copies[c].rank,
                               copy_base(copies[c]) + 8 * i));
    }
  }
  for (auto& req : reqs) fold(wait_req(req));
  if (res.status != rdma::OpStatus::ok) return res;
  BucketLayout l = layout_of(copies[0]);
  l.base -= copy_base(copies[0]);  // byte offsets within one image
  std::vector<std::uint64_t> keys;
  for (int c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < l.table_slots + l.heap_slots; ++i) {
      const std::size_t off = i < l.table_slots
                                  ? l.off_table(i)
                                  : l.off_heap(i - l.table_slots);
      const std::uint64_t k = image[c * words + off / 8];
      if (k != 0 && k != kTombstone) keys.push_back(k);
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  res.keys = keys.size();
  count(Op::kv_scrub_key, keys.size());

  // Read every candidate on both copies, all machines overlapped.
  std::vector<RegionOp> reads(2 * keys.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    reads[i].begin(*this, Kind::read, shard, i % 2 != 0, keys[i / 2], 0);
  }
  run(reads);
  for (const auto& op : reads) fold(op.status);
  if (res.status != rdma::OpStatus::ok) return res;

  // The primary decides presence; diverged values go to the higher
  // version if both cells sit at one offset, else to the primary.
  std::vector<RegionOp> fixes;
  fixes.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const RegionOp& p = reads[2 * i];
    const RegionOp& r = reads[2 * i + 1];
    if (!p.found && !r.found) continue;
    if (p.found && r.found && p.value == r.value) continue;
    const bool to_primary = p.found && r.found &&
                            p.cell - p.l.base == r.cell - r.l.base &&
                            r.ver > p.ver;
    const RegionOp& win = to_primary ? r : p;
    const RegionOp& lose = to_primary ? p : r;
    RegionOp& fix = fixes.emplace_back();
    fix.begin(*this, win.found ? Kind::put : Kind::erase,
              shard, !to_primary, keys[i], win.value);
    fix.repair = true;
    fix.win_ver = win.found ? win.ver : 0;
    if (lose.found) {  // lock the loser's cell at the version read
      fix.cell = lose.cell;
      fix.ver = lose.ver;
      fix.st = RegionOp::State::lock;
    }
  }
  run(fixes);
  for (const auto& fix : fixes) {
    if (fix.status == rdma::OpStatus::retired) continue;  // a writer won
    fold(fix.status);
    if (fix.status != rdma::OpStatus::ok) continue;
    ++res.repairs;
    count(Op::kv_scrub_repair);
    trace::emit(trace::EvClass::recovery, trace::EvPhase::retry, fix.t,
                fix.key, 0);
  }
  return res;
}

// --- client ops --------------------------------------------------------------

namespace {
void require_user_key(std::uint64_t key) {
  FOMPI_REQUIRE(key != 0 && key != kTombstone, ErrClass::arg,
                "kv keys must be nonzero and not the tombstone");
}
}  // namespace

rdma::OpStatus KvStore::data_loss_on(int /*shard*/) {
  // The addressed shard's owner AND replica are dead: under fail-stop the
  // frozen images stay readable, but serving them would hand out values
  // that can never be repaired or invalidated — retire typed instead.
  ++stats_.data_loss_ops;
  return rdma::OpStatus::data_loss;
}

rdma::OpStatus KvStore::start(ClientOp& c, Kind kind,
                              std::uint64_t key, std::uint64_t value) {
  require_user_key(key);
  c.found = c.hit = false;
  c.value = 0;
  const int shard = shard_of(key);
  const auto s = static_cast<std::size_t>(shard);
  if (kind == Kind::read) {
    ++stats_.gets;
  } else {
    ++(kind == Kind::erase ? stats_.erases : stats_.puts);
    // The write moves the cell's version anyway; dropping the value first
    // spares the next get a doomed check round. The cells stay: the write
    // takes its locks there.
    const auto it = cache_[s].find(key);
    if (it != cache_[s].end()) it->second.version = 0;
  }
  if (!degraded_[s] && !win_.peer_alive(owner_of(shard))) fail_over(shard);
  const bool deg = degraded_[s];
  if (deg && !win_.peer_alive(replica_of(shard))) return data_loss_on(shard);
  c.copy[0].begin_client(*this, kind, shard, deg, key, value);
  c.n = 1;
  if (kind != Kind::read && !deg && cfg_.replicate) {
    c.copy[1].begin_client(*this, kind, shard, true, key, value);
    c.n = 2;
  }
  return rdma::OpStatus::pending;
}

bool KvStore::serves(const RegionOp& m) const {
  return m.home == pack_copy(copy_of(m.shard, m.replica)) &&
         (m.replica || !degraded_[static_cast<std::size_t>(m.shard)]);
}

rdma::OpStatus KvStore::settle(ClientOp& c) {
  RegionOp& own = c.copy[0];
  // A stale generation retired every machine, each having released what
  // it took: no key or value was written, and the table is refetched.
  if (own.status == rdma::OpStatus::retry_routing) {
    return handle_gen_mismatch(own.gen);
  }
  const int shard = own.shard;
  const auto s = static_cast<std::size_t>(shard);
  auto& entries = cache_[s];
  if (own.kind == Kind::erase) {
    entries.erase(own.key);  // the key has no cell left to hint
  } else if (own.kind == Kind::put) {
    // Each copy's cell that a put located or wrote its key in is the hint
    // for that copy, while the copy still serves in that role (a parked
    // write can straddle a routing change).
    for (int i = 0; i < c.n; ++i) {
      const RegionOp& m = c.copy[i];
      if (m.status == rdma::OpStatus::ok && serves(m)) {
        entries[m.key].cell[m.replica] = m.cell;
      }
    }
  }
  // An owner that died under the op: fail over, and move a get (or an
  // unreplicated write) to the replica.
  if (own.status == rdma::OpStatus::peer_dead && !own.replica) {
    ++stats_.peer_dead_ops;
    fail_over(shard);
    if (!win_.peer_alive(replica_of(shard))) return data_loss_on(shard);
    if (own.kind == Kind::read || c.n == 1) {
      own.begin_client(*this, own.kind, shard, true, own.key, own.value);
      c.n = 1;
      return rdma::OpStatus::pending;
    }
    return c.copy[1].status;
  }
  if (own.kind != Kind::read) {
    if (c.n == 1) return own.status;
    if (c.copy[1].status == rdma::OpStatus::peer_dead) {
      ++stats_.peer_dead_ops;  // the owner holds the write: absorbed
      return own.status;
    }
    return own.status != rdma::OpStatus::ok ? own.status : c.copy[1].status;
  }
  c.hit = own.hit;
  if (own.with_cache && own.status == rdma::OpStatus::ok) {
    // Every retired cached read is a hit or a miss; a stale check that
    // re-read the cell is a miss.
    ++(own.hit ? stats_.cache_hits : stats_.cache_misses);
    count(own.hit ? Op::kv_cache_hit : Op::kv_cache_miss);
  }
  if (own.status != rdma::OpStatus::ok) return own.status;
  c.found = own.found;
  if (own.found) c.value = own.value;
  // Cache a clean snapshot (v1 == v2, even, nonzero) of the key's cell,
  // top or chain (a key has one cell per copy), while the copy the machine
  // read still serves as primary. A miss leaves the key no cell there.
  if (!own.with_cache || own.hit || !serves(own)) return own.status;
  if (own.found) {
    CacheEntry& e = entries[own.key];
    e.cell[0] = own.cell;
    e.version = own.ver;
    e.value = own.value;
  } else if (const auto it = entries.find(own.key);
             it != entries.end() && forget_primary(it->second)) {
    entries.erase(it);
  }
  return own.status;
}

rdma::OpStatus KvStore::run(ClientOp& c, rdma::OpStatus st) {
  while (st == rdma::OpStatus::pending) {
    drive(c.ops, c.n);
    st = settle(c);
  }
  return st;
}

rdma::OpStatus KvStore::put(std::uint64_t key, std::uint64_t value) {
  ClientOp c;
  return run(c, start(c, Kind::put, key, value));
}

rdma::OpStatus KvStore::erase(std::uint64_t key) {
  ClientOp c;
  return run(c, start(c, Kind::erase, key, 0));
}

rdma::OpStatus KvStore::get(std::uint64_t key, std::uint64_t* value,
                            bool* found) {
  ClientOp c;
  const auto st = run(c, start(c, Kind::read, key, 0));
  *found = c.found;
  *value = c.value;
  return st;
}

// --- closed-loop client fleet -------------------------------------------------
//
// Each fiber pulls ops off a shared per-rank cursor and runs every round of
// them on the fiber through the drivers' round routine: issue, park once
// until the round's last deadline, retire in issue order, advance. Chain
// walks, seqlock retries, revocations and failover re-issues are rounds
// like any other, a contended machine parks on a fiber-native backoff, and
// no step issues more than one round. A write is a priority fiber: once
// due, its next round starts before any read step, and a read starts a
// round only if the round's doorbell, its modeled issue time
// (Scheduler::issue_cost_ns), ends before the write's next deadline
// (Scheduler::admits); a read prices its round only while a priority
// fiber is pending. While the rank's write is in flight no fiber pulls a
// new op, as when the write held the thread. A gated fiber parks on
// poll_ready; it never yield-spins. A fleet op's latency runs from its
// pull to its retirement: the fiber's previous end stamp, unless it parked
// at the pull since, to a fresh read of the NIC's clock.

namespace {
// Fiber-native backoff of a contended machine: doubles from the first to
// the last value per op.
constexpr std::uint64_t kContendNs = 1'000;
constexpr std::uint64_t kMaxContendNs = 8'000;
}  // namespace

struct KvStore::ClientFiber final : fabric::progress::Fiber {
  struct FleetOp {
    std::uint64_t key;
    bool is_read;
  };
  /// What the rank's client fibers share.
  struct Fleet {
    const std::vector<FleetOp>& ops;
    fabric::progress::Scheduler& sched;
    FleetResult* res;
    std::size_t cursor = 0;
    bool writing = false;  ///< a write is in flight: no fiber pulls an op
  };

  ClientFiber(KvStore& kv, Fleet& fleet) : kv(kv), fleet(fleet) {}

  /// The gate this fiber is parked at: its round's admission, or the pull.
  bool poll_ready() override {
    return admitting ? fleet.sched.admits(cost) : !fleet.writing;
  }

  /// Retires the op: one fresh end stamp, which the fiber's next op starts
  /// from unless the fiber parks at the pull first.
  void record(rdma::OpStatus st) {
    FleetResult* res = fleet.res;
    // Retirement identity: every pulled op lands in exactly one bucket, so
    // issued == ok + peer_dead + retry_routing + data_loss + failed_other
    // (the chaos tests assert this).
    switch (st) {
      case rdma::OpStatus::ok: ++res->ok_ops; break;
      case rdma::OpStatus::peer_dead: ++res->peer_dead; break;
      case rdma::OpStatus::retry_routing: ++res->retry_routing; break;
      case rdma::OpStatus::data_loss: ++res->data_loss; break;
      default: ++res->failed_other; break;
    }
    if (c.hit) ++res->cache_hits;
    const std::uint64_t end = fleet.sched.nic().now();
    const std::uint64_t dur = end - t0;
    t0 = end;
    if (write) {
      ++res->writes;
      res->write_hist.add(dur);
    } else {
      ++res->reads;
      res->read_hist.add(dur);
    }
    trace::emit(trace::EvClass::kv, trace::EvPhase::issue, target,
                fleet.ops[at].key, dur);
  }

  void step(fabric::progress::Scheduler& s) override {
    FOMPI_FIBER_BEGIN();
    while (true) {
      while (fleet.writing) {
        t0 = 0;  // the previous end stamp no longer starts the next op
        FOMPI_FIBER_AWAIT_READY(s);
      }
      if (fleet.cursor >= fleet.ops.size()) break;
      at = fleet.cursor++;
      ++fleet.res->issued;
      if (t0 == 0) t0 = s.nic().now();
      key = fleet.ops[at].key;
      if (trace::bound_ring() != nullptr) {
        target = kv.owner_of(kv.shard_of(key));  // trace label
      }
      write = !fleet.ops[at].is_read;
      if (write) {
        fleet.writing = true;
        s.set_priority(*this, true);
      }
      st = kv.start(c, write ? Kind::put : Kind::read, key, key * 31 + 7);
      pause_ns = kContendNs;
      while (st == rdma::OpStatus::pending) {
        if (!write && s.priority_pending()) {
          cost = s.issue_cost_ns(c.copy[0].width(kv));  // a get: one copy
          admitting = true;
          while (!s.admits(cost)) FOMPI_FIBER_AWAIT_READY(s);
          admitting = false;
        }
        deadline = kv.issue_round(c.ops, c.n);
        FOMPI_FIBER_AWAIT_UNTIL(s, deadline);
        if (kv.retire_round(c.ops, c.n)) {
          FOMPI_FIBER_BACKOFF(s, pause_ns);
          pause_ns = std::min(2 * pause_ns, kMaxContendNs);
        }
        if (!kv.live(c.ops, c.n)) st = kv.settle(c);
      }
      if (write) {
        fleet.writing = false;
        s.set_priority(*this, false);
      }
      record(st);
    }
    FOMPI_FIBER_END();
  }

  KvStore& kv;
  Fleet& fleet;
  ClientOp c;
  rdma::OpStatus st = rdma::OpStatus::ok;
  std::size_t at = 0;
  std::uint64_t t0 = 0;  ///< the op's start stamp; 0 = read one at the pull
  std::uint64_t key = 0, deadline = 0, cost = 0;
  std::uint64_t pause_ns = kContendNs;
  int target = 0;
  bool write = false;
  bool admitting = false;  ///< parked at the admission gate, not the pull
};

KvStore::FleetResult KvStore::run_fleet(fabric::RankCtx& ctx,
                                        const FleetConfig& fc) {
  FOMPI_REQUIRE(fc.ops_per_rank >= 0 && fc.fibers >= 1 && fc.keyspace >= 1,
                ErrClass::arg, "bad fleet config");
  // The op stream is an exact function of (seed, rank): the chaos gates
  // compare fleet counter totals across runs.
  Zipf zipf(fc.keyspace, fc.zipf_s,
            fc.seed * 0x9e3779b9u + static_cast<std::uint64_t>(ctx.rank()));
  Rng coin(fc.seed ^ (0xc0ffee + static_cast<std::uint64_t>(ctx.rank())));
  std::vector<ClientFiber::FleetOp> ops(
      static_cast<std::size_t>(fc.ops_per_rank));
  for (auto& op : ops) {
    op.key = zipf.next() + 1;  // keys are 1-based (0 is reserved-empty)
    op.is_read = coin.uniform() < fc.read_ratio;
  }
  FleetResult res;
  fabric::progress::Scheduler sched(fabric_->domain().nic(rank_));
  ClientFiber::Fleet fleet{ops, sched, &res};
  const std::size_t pool = std::min<std::size_t>(
      static_cast<std::size_t>(fc.fibers),
      std::max<std::size_t>(1, ops.size()));
  for (std::size_t i = 0; i < pool; ++i) {
    sched.spawn<ClientFiber>(*this, fleet);
  }
  sched.run();
  return res;
}

}  // namespace fompi::kv
