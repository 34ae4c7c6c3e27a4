// Sharded RDMA key-value service on MPI-3 one-sided (DESIGN.md §12, §13).
//
// The fig7a hashtable grown into a service: 64-bit keys hash to shards,
// shards map to owner ranks through a registered routing table fetched
// with one-sided gets (the ROLEX MR-fetch idiom, made reconfiguration-safe
// by a generation word — see below) — no two-sided traffic exists on any
// data path. Each shard region reuses the CAS-bucket scheme (kv/bucket.hpp)
// with widened cells {key, version, value(, next)}:
//
//   * region ops — every access to one copy of a shard is a RegionOp: a
//     small state machine whose rounds post at most four requests
//     together. One round routine (issue every live machine, wait
//     once until the round's last deadline, retire in issue order,
//     advance) serves both drivers: drive() spins through the wait on the
//     calling thread, a fleet fiber parks through it. A round's requests
//     are independent, so both copies' requests and the generation read
//     chain behind ONE NIC doorbell: the rank pays the 416 ns injection
//     overhead once per round plus 45 ns per extra request, not once per
//     request (Nic::batch_flush). RegionOp (kv.cpp) is the only code that
//     knows the cell layout past the key word, or the seqlock.
//   * get  — a one-sided versioned read: the 8-byte version word is a
//     seqlock over RMA (odd = write in progress). One round snapshots a
//     cell: {v1, one get of the whole cell, v2}, issued in that order and
//     clean when v1 == v2 is even, retried on mismatch; version 0 means
//     the insert has not linearized yet and reads as a miss. An uncached
//     top-cell get is that one round (2 AMOs, 1 get); a chain walk reads
//     the head and snapshots each cell it passes.
//   * put / erase — the owner and replica machines run in lockstep. A
//     write of a key this rank wrote or read before starts with a *take*
//     of the cell its entry names on each copy: a fetch-or of the odd bit,
//     then a read of the key word, locking the cell iff the version it
//     returns is even; then {value or tombstone write, release}. Two
//     overlapped rounds and four AMOs per copy, top cell or chain. A take
//     that finds another key under its lock releases at +2 and walks from
//     the top, like a first write: {version read, claim CAS} -> lock CAS
//     -> {write, release}, three rounds and five AMOs per copy for a top
//     cell. The last round issues the data store before the release; one
//     origin's requests to a target apply in issue order, and the drivers
//     retire them in that order. A key has at most one cell per copy: a
//     put that must create a cell walks the whole chain, takes the slot
//     lock (the top cell's seqlock, at the version its walk started from)
//     and only under it reclaims the first tombstone it passed or links a
//     fresh overflow cell (the hashtable's fetch_add + link-at-head
//     protocol). A lock CAS that loses to a moved version becomes a take.
//     Erase tombstones the key word so the cell can be reclaimed. A non-ok
//     status means "unknown effect": the copies may disagree (the replica
//     may be ahead of a failed owner) until the scrub reconciles them.
//   * anti-entropy scrub — key by key on the same machines: chunked rgets
//     of both copies name the keys, read machines compare them, and put or
//     erase machines in a conditional repair mode rewrite the loser, so a
//     repair keeps one cell per key like any write (rule: scrub()).
//   * client cache — per key: an entry holds the key's cell, top or
//     chain, on each copy (hints, from cells a machine located or wrote,
//     so always linked), and {version, value} of the primary cell, filled
//     from a clean snapshot. A cell's key and value change only while its
//     version is odd (or where no entry can name it: an unclaimed slot, an
//     unlinked overflow cell) and versions only grow, so an unchanged
//     version proves the cell still holds the pair; with one cell per key
//     no other cell can serve or take a value for it. A hit is ONE round
//     of one AMO; a stale entry, or one with only the cell, snapshots the
//     cell in place and walks from the top only if the key left it. The
//     rank's own write drops the value and keeps the cells (an erase drops
//     the entry); a write to another key leaves an entry warm. Writes keep
//     and take hints whatever client_cache says; it governs reads.
//   * replication / failover — writes fan out to a replica region on rank
//     (owner+1)%p; a client observing the owner dead (fail-stop liveness
//     or a typed peer_dead status) marks the shard degraded and routes to
//     the replica. Degraded reads bypass the cache (its entries hold
//     versions of the primary copy's cells, which the replica's need not
//     match), which is the modeled SLO degradation bench_kv measures;
//     degraded writes still take the replica's cells.
//   * self-healing recovery (DESIGN.md §13) — heal() turns the degraded
//     state back into a healthy one: the lowest alive rank is elected
//     coordinator, CAS-claims the routing generation word (even = stable,
//     odd = reconfiguring), promotes each dead owner's replica to primary,
//     drains the dead rank's FROZEN shard image with one-sided gets into a
//     spare region on a surviving rank (fail-stop memory stays readable —
//     the paper's decoupling claim doing fault-tolerance work), reconciles
//     the pair with the scrub, publishes the new entries and
//     releases the generation. Once a death has been observed (zero
//     healthy-path cost before), every client op, read or write, reads
//     the generation with one more request in its first round; a stale
//     one fails that round on every copy (a take releases at +2, and a put
//     claims a free top slot only one round later), so racing ops retire
//     typed retry_routing having written no key or value. The table is
//     read like a cell, in one round: {generation, one rget, generation}.
//     A shard whose owner AND replica died retires data_loss, never a
//     stale frozen value.
//
// The closed-loop fleet (run_fleet) drives this with Zipfian keys from
// fibers on the progress engine. Every round of every op, chain walks,
// seqlock retries and failover re-issues included, runs on the client
// fiber through the shared round routine, one round per fiber step. A
// write runs as a priority fiber: its next round starts before any read
// step, and a read starts a round only if the round's doorbell (its
// modeled issue time) ends before the write's next completion. While a
// rank's write is in flight its fibers pull no new op, so a rank has one
// write and any number of reads in flight. Per-op-class latencies go into
// trace LatencyHistos.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/window.hpp"
#include "kv/bucket.hpp"
#include "trace/trace.hpp"

namespace fompi::kv {

/// Key reserved as the erase tombstone; user keys must be nonzero and
/// different from it.
inline constexpr std::uint64_t kTombstone = ~std::uint64_t{0};

struct KvConfig {
  int shards = 8;                ///< total shards, round-robin over ranks
  std::size_t table_slots = 64;  ///< top cells per shard
  std::size_t heap_slots = 256;  ///< overflow cells per shard
  bool replicate = true;         ///< write-through replica at (owner+1)%p
  bool client_cache = true;      ///< version-validated read cache
  /// Rank hosting the routing table + generation word. A dead routing home
  /// makes further reconfiguration impossible (documented limitation);
  /// tests place it on a high rank to exercise coordinator takeover.
  int routing_rank = 0;
  /// heal() raises ErrClass::data_loss (fleet abort + post-mortem trace
  /// dump) when a shard lost both copies; false returns it typed instead.
  bool abort_on_data_loss = false;
};

/// Per-client (per-rank) operation statistics; mirrored into the global
/// Op counters (kv_cache_hit / kv_cache_miss / kv_read_retry / kv_failover).
struct KvStats {
  std::uint64_t gets = 0, puts = 0, erases = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t read_retries = 0;   ///< seqlock validate/locked rereads
  std::uint64_t failovers = 0;      ///< shard reroutes to the replica
  std::uint64_t peer_dead_ops = 0;  ///< typed peer_dead statuses absorbed
  std::uint64_t retry_routing = 0;  ///< ops retired typed retry_routing
  std::uint64_t data_loss_ops = 0;  ///< ops retired typed data_loss
};

/// One physical copy of a shard: which rank hosts it, in which region bank
/// (0 = primary, 1 = replica, 2 = spare — spares hold re-replicated copies
/// after recovery), at which local slot. Packed into the routing table as
/// rank (bits 0-15) | bank (16-19) | slot (20-31); a 64-bit entry is
/// pack(owner) | pack(replica) << 32.
struct Copy {
  int rank = -1;
  int bank = 0;
  int slot = 0;
};

inline std::uint32_t pack_copy(const Copy& c) {
  return (static_cast<std::uint32_t>(c.rank) & 0xffffu) |
         ((static_cast<std::uint32_t>(c.bank) & 0xfu) << 16) |
         ((static_cast<std::uint32_t>(c.slot) & 0xfffu) << 20);
}
inline Copy unpack_copy(std::uint32_t w) {
  return Copy{static_cast<int>(w & 0xffffu),
              static_cast<int>((w >> 16) & 0xfu),
              static_cast<int>((w >> 20) & 0xfffu)};
}

/// Outcome of one heal() pass (see DESIGN.md §13).
struct RecoveryReport {
  rdma::OpStatus status = rdma::OpStatus::ok;  ///< ok | data_loss |
                                               ///< peer_dead (routing home)
  int coordinator = -1;   ///< elected rank (lowest alive at completion)
  bool acted = false;     ///< this rank performed the reconfiguration
  std::uint64_t generation = 0;  ///< routing generation after recovery
  int promoted = 0;       ///< shards whose replica became primary
  int rereplicated = 0;   ///< shards granted a fresh spare-bank copy
  int lost = 0;           ///< shards with owner AND replica dead
  std::uint64_t drained_bytes = 0;  ///< frozen-image bytes re-replicated
  std::uint64_t scrub_keys = 0, scrub_repairs = 0;
};

/// Outcome of one anti-entropy scrub pass over a shard's copy pair.
struct ScrubResult {
  rdma::OpStatus status = rdma::OpStatus::ok;
  std::uint64_t keys = 0;     ///< keys either copy held, each read on both
  std::uint64_t repairs = 0;  ///< losing copies rewritten (create, update or
                              ///< erase); repairs that met a newer write
                              ///< retire and are not counted
};

class KvStore {
 public:
  /// Collective: allocates the sharded window, rank 0 publishes the
  /// routing table, every rank fetches it one-sided.
  KvStore(fabric::RankCtx& ctx, KvConfig cfg = {});
  /// Collective; do NOT call after a rank kill (survivors cannot meet the
  /// barrier) — mirror the fault tests and let the window unwind.
  void destroy(fabric::RankCtx& ctx);

  // --- blocking one-sided client ops --------------------------------------
  /// Writes both copies in lockstep. ok, or: owner dead -> the replica's
  /// status (data_loss when it died too); replica dead -> absorbed; any
  /// other failure -> the first one seen, with the write's effect unknown
  /// (one copy may hold it; scrub() reconciles the pair).
  rdma::OpStatus put(std::uint64_t key, std::uint64_t value);
  rdma::OpStatus erase(std::uint64_t key);
  /// Versioned one-sided read; `*found` false on miss. Serves from the
  /// version-validated cache when possible.
  rdma::OpStatus get(std::uint64_t key, std::uint64_t* value, bool* found);

  // --- routing / introspection ---------------------------------------------
  int shard_of(std::uint64_t key) const;
  int owner_of(int shard) const;    ///< from the fetched routing table
  int replica_of(int shard) const;
  bool degraded(int shard) const {
    return degraded_[static_cast<std::size_t>(shard)];
  }
  /// Fail-stop liveness view of a rank (forwarded from the window).
  bool peer_alive(int rank) const { return win_.peer_alive(rank); }
  /// Typed one-sided probe of a shard primary's region header: ok while
  /// the owner serves, peer_dead once it was killed (confinement checks).
  rdma::OpStatus probe_owner(int shard);
  const KvStats& stats() const noexcept { return stats_; }
  const KvConfig& config() const noexcept { return cfg_; }
  /// Keys whose value this client caches for `shard` (an entry that holds
  /// only the key's cells does not count).
  std::size_t cached_entries(int shard) const;

  // --- recovery (DESIGN.md §13) --------------------------------------------
  /// Self-healing pass; any surviving rank may call it (not collective).
  /// The lowest alive rank coordinates: replica promotion, one-sided drain
  /// of the dead rank's frozen image into a spare region, version-winner
  /// scrub, generation bump. Other callers wait (one back-off step per
  /// poll) for the generation to stabilize, then refresh. Returns a
  /// typed report; with cfg.abort_on_data_loss an unrecoverable shard
  /// raises ErrClass::data_loss (fleet abort + post-mortem trace dump).
  RecoveryReport heal();
  /// Key-wise anti-entropy pass over one shard's {primary, replica} pair.
  /// Every key either copy holds is read on both, and the loser is
  /// rewritten: a key only on the primary is created on the replica, a key
  /// only on the replica is erased there, and two values go to the higher
  /// version if both cells sit at the same offset, else to the primary.
  /// Repairs are conditional (they lock the loser only at the version read,
  /// create only while the key is absent), so a racing writer wins. Skips
  /// the client cache and the generation check; both copies must be alive.
  ScrubResult scrub(int shard);
  /// One-sided read of the current routing generation (even = stable).
  std::uint64_t generation();
  /// Re-fetches a consistent {generation, table} pair (retries while a
  /// reconfiguration is in flight) and re-derives degraded()/cache state.
  rdma::OpStatus refresh_routing();
  /// Physical copy of `shard` currently serving as primary/replica.
  Copy copy_of(int shard, bool replica) const;
  /// Test / anti-entropy-drill seam: writes ONE copy of the key's shard,
  /// deliberately diverging the pair so a scrub has something to repair.
  rdma::OpStatus debug_write_copy(std::uint64_t key, bool replica,
                                  std::uint64_t value);
  /// Read twin of debug_write_copy: a versioned read of ONE copy.
  rdma::OpStatus debug_read_copy(std::uint64_t key, bool replica,
                                 std::uint64_t* value, bool* found);
  /// Test seam for the round deadline: starts client ops on `keys` (puts
  /// of `value` when `write`, else gets), posts their first rounds as ONE
  /// round the way a fleet fiber does, and returns the deadline that round
  /// parks on; `*latest` receives the latest Nic::completion_deadline over
  /// the round's handles. Then drives every op to retirement.
  std::uint64_t debug_round(const std::vector<std::uint64_t>& keys,
                            bool write, std::uint64_t value,
                            std::uint64_t* latest);

  // --- closed-loop DES client fleet ---------------------------------------
  struct FleetConfig {
    int ops_per_rank = 1024;
    int fibers = 8;            ///< concurrent client fibers per rank
    double read_ratio = 0.95;  ///< fraction of ops that are gets
    std::uint64_t keyspace = 256;  ///< keys drawn from [1, keyspace]
    double zipf_s = 0.9;       ///< key popularity skew
    std::uint64_t seed = 1;
  };
  struct FleetResult {
    trace::LatencyHisto read_hist;   ///< ns per completed get
    trace::LatencyHisto write_hist;  ///< ns per completed put
    std::uint64_t reads = 0, writes = 0;
    std::uint64_t cache_hits = 0;
    // Retirement identity: every issued op retires exactly once, so
    // issued == ok_ops + peer_dead + retry_routing + data_loss +
    // failed_other (the chaos tests assert this).
    std::uint64_t issued = 0;
    std::uint64_t ok_ops = 0;
    std::uint64_t peer_dead = 0;      ///< typed peer_dead retirements
    std::uint64_t retry_routing = 0;  ///< ops that raced a reconfiguration
    std::uint64_t data_loss = 0;      ///< ops whose shard lost every copy
    std::uint64_t failed_other = 0;   ///< transient-fault budget exhaustion
  };
  /// Runs this rank's share of the fleet: `fibers` client fibers pull a
  /// deterministic (seed- and rank-stamped) Zipfian op stream off a shared
  /// cursor and pipeline gets/puts on the progress engine. Latencies are
  /// recorded per op class and, when a TraceSession is active, emitted as
  /// EvClass::kv events. Not collective; callers barrier around it.
  FleetResult run_fleet(fabric::RankCtx& ctx, const FleetConfig& fc);

 private:
  enum class Kind : std::uint8_t { read, put, erase };
  struct RegionOp;
  struct ClientOp;
  struct ClientFiber;
  friend struct ClientFiber;
  struct DrainFiber;
  friend struct DrainFiber;

  // Window layout: [generation | pad | routing table][bank 0: primary
  // regions][bank 1: replica regions][bank 2: spare regions]. Every rank
  // reserves the routing prefix so region offsets stay symmetric; only the
  // routing home's copy is authoritative.
  std::size_t routing_bytes() const;
  std::size_t shard_region_bytes() const;
  /// Drain and scrub-listing chunk bytes.
  static constexpr std::size_t kDrainChunk = 2048;
  /// Spare-bank slots per rank = kSpareFactor * shards_per_rank. One slot
  /// per hosted shard survives a single failure; sequential failures park
  /// promoted spares in the bank permanently, so capacity for the tests'
  /// kill-heal-kill chains needs headroom.
  static constexpr int kSpareFactor = 2;
  /// Spare-bank (bank 2) slots hosted per rank.
  int spare_slots() const { return kSpareFactor * shards_per_rank_; }
  /// Byte offset of a physical copy's region in its host rank's window.
  std::size_t copy_base(const Copy& c) const;
  BucketLayout layout_of(const Copy& c) const;
  std::size_t slot_of(std::uint64_t key) const;

  // --- versioned routing ----------------------------------------------------
  /// Routing validation is armed only once a death has been observed
  /// (reconfigurations happen only after deaths), so the healthy fast path
  /// pays one load + branch — the PR 5 fault-gate discipline.
  /// Once armed, every client op reads the generation in its first round.
  bool routing_suspect() const;
  /// Classifies a generation word that differs from gen_seen_: refreshes
  /// on a stable (even) generation, and always retires retry_routing.
  rdma::OpStatus handle_gen_mismatch(std::uint64_t gen);
  /// One round to the routing home, retired in issue order: the
  /// generation, one rget of the table, the generation again. ok iff the
  /// two generation reads agree; `*table` is then the table published at
  /// `*gen` when `*gen` is even. Else retry_routing.
  rdma::OpStatus read_routing(std::uint64_t* gen,
                              std::vector<std::uint64_t>* table);
  /// read_routing() at a stable (even) generation, installed; else
  /// retry_routing.
  rdma::OpStatus try_fetch_routing();
  /// try_fetch_routing() retried (with backoff) until it installs a table.
  rdma::OpStatus fetch_routing();
  /// Installs `table`: recomputes degraded() from liveness and drops caches
  /// of shards whose entries moved.
  void apply_routing(std::vector<std::uint64_t> table);

  // --- recovery internals (kv/recovery.cpp) ---------------------------------
  /// Coordinator body: claim/adopt the generation, plan promotions and
  /// re-replications, drain frozen images (fibers), publish entries, scrub
  /// affected pairs, release the generation.
  rdma::OpStatus coordinate(std::uint64_t gen, RecoveryReport* rep);
  /// Picks a spare-bank slot on the first alive rank after `owner_rank`
  /// (never owner_rank itself); `spare_used` is the occupancy coordinate()
  /// scanned from the routing table, updated with the pick.
  Copy pick_spare(int owner_rank, std::vector<std::uint8_t>* spare_used) const;

  // Typed-status AMO helpers (request-based, so faults never raise).
  rdma::OpStatus wait_req(core::RmaRequest& req);
  rdma::OpStatus amo_read(int t, std::size_t off, std::uint64_t* v);
  rdma::OpStatus amo_cas(int t, std::size_t off, std::uint64_t expect,
                         std::uint64_t desired, std::uint64_t* prev);
  rdma::OpStatus amo_add(int t, std::size_t off, std::uint64_t add);
  rdma::OpStatus amo_write(int t, std::size_t off, std::uint64_t v);

  // --- region-op drivers ----------------------------------------------------
  /// The round routine both drivers share. issue_round() posts every live
  /// machine's requests, ops[0] leading (it reads a client op's routing
  /// generation), behind one NIC doorbell (one per 64 requests), and
  /// returns the latest completion those doorbells computed: the round's
  /// deadline (0 when due now); retire_round() retires the requests in
  /// issue order, which is the order deferred delivery applies them in,
  /// fails every machine's round on a stale generation, and advances
  /// every machine, returning true when one of them contended.
  static bool live(RegionOp* const* ops, int n);
  std::uint64_t issue_round(RegionOp* const* ops, int n);
  bool retire_round(RegionOp* const* ops, int n);
  /// Blocking driver: the round routine until every machine is done, each
  /// retirement spinning until its deadline; a contended round waits one
  /// back-off step (Domain::wait_until) before the next.
  void drive(RegionOp* const* ops, int n);
  void drive(RegionOp& op);
  /// Routes a get, put or erase: arms `c` with the serving copy's machine,
  /// and for a healthy write the replica's in lockstep, and returns
  /// pending, or returns the op's typed retirement (data_loss).
  rdma::OpStatus start(ClientOp& c, Kind kind, std::uint64_t key,
                       std::uint64_t value);
  /// Retires a driven op: a stale generation refetches the table; on an
  /// owner peer_dead it fails over and re-arms a get or an unreplicated
  /// write on the replica (pending again); a get fills the cache and `c`'s
  /// result.
  rdma::OpStatus settle(ClientOp& c);
  /// Blocking: drives `c` from start()'s status `st` to retirement.
  rdma::OpStatus run(ClientOp& c, rdma::OpStatus st);
  /// Marks `shard` degraded (first peer_dead / liveness miss on its owner).
  void fail_over(int shard);
  /// True while the copy `m` addressed still serves `shard` in that role
  /// (a parked op can straddle a routing change), a primary only while the
  /// shard is not degraded: the cell it found may enter the key's entry.
  bool serves(const RegionOp& m) const;
  /// Retires an op addressed at a shard whose owner AND replica are dead.
  rdma::OpStatus data_loss_on(int shard);
  bool any_peer_dead() const;

  KvConfig cfg_;
  int nranks_ = 0;
  int rank_ = -1;
  int shards_per_rank_ = 0;
  core::Win win_;
  fabric::Fabric* fabric_ = nullptr;
  std::vector<std::uint64_t> routing_;  ///< pack(owner) | pack(replica)<<32
  std::uint64_t gen_seen_ = 0;          ///< generation the table was read at
  std::vector<bool> degraded_;          ///< per shard, client-local view

  // Per-key entry. cell[0] and cell[1] are the key's cells on shard s's
  // primary and replica copies when this rank last located or wrote the
  // key there: hints, which a write takes and a read snapshots, validating
  // the key under the lock or in the snapshot. {version, value} is a value
  // cached from the primary cell, valid while that cell's version is
  // unchanged; version 0 means none.
  struct CacheEntry {
    std::size_t cell[2] = {};  ///< byte offsets in the window, 0 = unknown
    std::uint64_t version = 0, value = 0;
  };
  /// Drops what `e` knows of the primary copy; true if nothing is left.
  static bool forget_primary(CacheEntry& e);
  std::vector<std::unordered_map<std::uint64_t, CacheEntry>> cache_;
  KvStats stats_;
};

}  // namespace fompi::kv
