// Simulated RDMA NIC ("DMAPP" stand-in) and intra-node direct access
// ("XPMEM" stand-in).
//
// Operation taxonomy mirrors DMAPP exactly (Sec 2.1 of the paper):
//   - blocking put/get/amo,
//   - explicit nonblocking (returns a handle completed with test/wait),
//   - implicit nonblocking (completed only by bulk completion, gsync()).
// Puts and gets move arbitrary byte ranges; AMOs operate on 8-byte words.
//
// Two orthogonal simulation knobs (see network_model.hpp):
//   Injection::model  — charge the Gemini cost model by busy-waiting, so
//                       real-time benchmarks reproduce the paper's shapes;
//   Delivery::deferred — inter-node data becomes visible only when the
//                       origin completes the op (weakest legal RDMA
//                       behaviour), optionally applied in shuffled order.
//                       This is the failure-injection mode used by tests to
//                       catch code that assumes eager remote visibility.
//
// Every op, contiguous or vectored, blocking or not, goes through ONE issue
// pipeline: a contiguous op is one fragment, a vectored op a fragment list
// under one span check, an AMO its 8-byte word. The fault gate, transport
// counters, latency formula, overhead charge, trace event, immediate/
// deferred split and pooled record each exist once; blocking calls and the
// throwing test/wait only wrap the status-returning completions.
//
// Issue fast path (the paper's central claim is that this path adds no
// software overhead; see DESIGN.md "fast path"):
//   - rkey resolution goes through a per-NIC direct-mapped cache validated
//     against the registry's generation counter — the registry's shared
//     lock is taken once per (rkey, registration epoch), not once per op;
//   - completion state lives in a slab/free-list pool indexed by the
//     handle's low bits (high bits carry an ABA tag), so issue/test/wait/
//     gsync do no map operations;
//   - deferred put payloads of up to PendingOp::kInlineStage bytes stage
//     into a fixed in-struct buffer; only larger payloads touch a spill
//     vector whose capacity is recycled with the slot, and a contiguous
//     op keeps its single fragment inline (no fragment list).
//   Steady state performs zero heap allocations per op; every pool or
//   spill growth is counted as Op::pool_grow (asserted by tests/bench).
//
// A Nic is owned and driven by exactly one rank thread (not thread-safe);
// the memory it targets is shared, with AMO words accessed via CPU atomics.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/backoff.hpp"
#include "common/buffer.hpp"
#include "common/instr.hpp"
#include "common/rng.hpp"
#include "rdma/amo.hpp"
#include "rdma/network_model.hpp"
#include "rdma/region.hpp"
#include "trace/trace.hpp"

namespace fompi::rdma {

class Domain;

/// Completion handle for explicit nonblocking operations. Handle 0 denotes
/// an operation that completed at issue (fast path). Nonzero handles encode
/// a pool slot index in the low 32 bits and a nonzero ABA tag in the high
/// 32 bits, so a retired handle is detected instead of aliasing a recycled
/// slot.
using Handle = std::uint64_t;
inline constexpr Handle kDoneHandle = 0;

/// One fragment of a vectored transfer (one chained FMA descriptor).
/// Offsets are relative to the op's local base pointer and to the op's
/// remote base offset, so one rkey resolution and one bounds check cover
/// the whole vector.
struct Frag {
  std::size_t local_off;
  std::size_t remote_off;
  std::size_t len;
};

/// Cache-line aligned: each rank thread writes its own NIC on every op, and
/// Domain allocates the NICs back to back, so an unaligned NIC's tail would
/// share a line with the next rank's head.
class alignas(kCacheLine) Nic {
 public:
  Nic(Domain& domain, int rank);
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  int rank() const noexcept { return rank_; }
  const Domain& domain() const noexcept { return domain_; }

  // --- explicit nonblocking ------------------------------------------------
  Handle put_nb(int target, const RegionDesc& rd, std::size_t offset,
                const void* src, std::size_t len);
  Handle get_nb(int target, const RegionDesc& rd, std::size_t offset,
                void* dst, std::size_t len);
  /// If `fetch_out` is nonnull it receives the previous value once the
  /// operation completes.
  Handle amo_nb(int target, const RegionDesc& rd, std::size_t offset,
                AmoOp op, std::uint64_t operand, std::uint64_t compare,
                std::uint64_t* fetch_out);

  // --- implicit nonblocking (bulk-completed by gsync) ----------------------
  void put_nbi(int target, const RegionDesc& rd, std::size_t offset,
               const void* src, std::size_t len);
  void get_nbi(int target, const RegionDesc& rd, std::size_t offset,
               void* dst, std::size_t len);
  void amo_nbi(int target, const RegionDesc& rd, std::size_t offset, AmoOp op,
               std::uint64_t operand, std::uint64_t compare = 0);

  // --- vectored (multi-fragment, single doorbell) --------------------------
  // The NIC analogue of chained Gemini FMA descriptors: every fragment of
  // `frags` moves in one operation that charges the software/doorbell
  // overhead once plus a per-fragment chain cost on the wire, and completes
  // through ONE handle (or one implicit op). `base_off` / `span_len` bound
  // the remote bytes the vector touches: rkey resolution and the range
  // check happen once, not per fragment. Fragment offsets are relative to
  // `local_base` and `base_off`.
  Handle put_nbv(int target, const RegionDesc& rd, std::size_t base_off,
                 std::size_t span_len, const void* local_base,
                 const Frag* frags, std::size_t nfrags);
  Handle get_nbv(int target, const RegionDesc& rd, std::size_t base_off,
                 std::size_t span_len, void* local_base, const Frag* frags,
                 std::size_t nfrags);
  void put_nbiv(int target, const RegionDesc& rd, std::size_t base_off,
                std::size_t span_len, const void* local_base,
                const Frag* frags, std::size_t nfrags);
  void get_nbiv(int target, const RegionDesc& rd, std::size_t base_off,
                std::size_t span_len, void* local_base, const Frag* frags,
                std::size_t nfrags);

  // --- blocking ------------------------------------------------------------
  void put(int target, const RegionDesc& rd, std::size_t offset,
           const void* src, std::size_t len);
  void get(int target, const RegionDesc& rd, std::size_t offset, void* dst,
           std::size_t len);
  std::uint64_t amo(int target, const RegionDesc& rd, std::size_t offset,
                    AmoOp op, std::uint64_t operand,
                    std::uint64_t compare = 0);

  // --- completion ------------------------------------------------------------
  /// test_status, raising instead of returning a failure (legacy
  /// errors-are-fatal API): ErrClass::arg for a stale handle, the typed
  /// class (timeout/cq/peer_dead) for a failed op.
  bool test(Handle h);
  /// wait_status, raising exactly like test.
  void wait(Handle h);
  /// Bulk completion of ALL outstanding operations of this NIC (DMAPP
  /// gsync). Guarantees remote visibility of every put/amo issued so far.
  /// Throws if any implicit op retired with a failure status.
  void gsync();

  // --- error-returning completion (MPI_ERRORS_RETURN analogue) ---------------
  /// Nonblocking completion probe. Returns true once the handle is retired;
  /// *out then holds the op's final status (ok or a typed failure). A stale
  /// or double-waited handle retires immediately with OpStatus::retired
  /// instead of aliasing a recycled slot or throwing.
  bool test_status(Handle h, OpStatus* out);
  /// Blocking completion; returns the op's typed final status. Never
  /// throws for fault-model outcomes (stale handle -> OpStatus::retired).
  OpStatus wait_status(Handle h);
  /// Bulk completion; returns ok or the first implicit-op failure recorded
  /// since the previous gsync (and clears it). Flushes an open batch first,
  /// so every core-layer sync point (flush/fence/unlock/complete all route
  /// through gsync) preserves MPI RMA completion semantics under batching.
  OpStatus gsync_status();

  // --- progress-engine hooks (completion -> fiber wakeup) --------------------
  /// Absolute modeled completion time (ns) of an explicit handle, for
  /// suspend-on-wait waiters: FOMPI_FIBER_AWAIT parks its fiber until this
  /// deadline, then retires the handle through wait_status without a spin.
  /// Flushes a pending batch first (an op cannot complete behind an unrung
  /// doorbell). Returns 0 when the handle can retire right now — already
  /// complete, failed at issue, stale, or running under Injection::none.
  std::uint64_t completion_deadline(Handle h);

  // --- the rank's clock: the NIC is its one owner ----------------------------
  /// A fresh clock read (now_ns) for an anchor: an op's issue start, an
  /// explicit doorbell's first post, charge_model_ns, a fleet op's end
  /// stamp, a backoff's start. It becomes the latest reading and counts one
  /// Op::clock_read. Reads the clock under Injection::none too: wall-time
  /// contracts (backoffs) still need it.
  std::uint64_t now() noexcept {
    count(Op::clock_read);
    now_ = now_ns();
    return now_;
  }
  /// The latest reading this NIC took; every modeled-time spin ends on
  /// one. Never reads the clock, and never runs ahead of it.
  std::uint64_t last_now() const noexcept { return now_; }
  /// Has the absolute now_ns() `deadline` passed? The latest reading
  /// settles a deadline at or behind it; only a later one costs a fresh
  /// read (DESIGN.md §8: a deadline test asks the NIC; an anchor reads
  /// fresh).
  bool passed(std::uint64_t deadline) noexcept {
    return deadline <= now_ || deadline <= now();
  }

  // --- doorbell batching ------------------------------------------------------
  /// Opens a batch scope: subsequent batchable ops (contiguous and
  /// FMA-sized, i.e. below the model's bte_threshold) accumulate into one
  /// chained descriptor list and ring a single doorbell at batch_flush().
  /// Idempotent. BTE transfers and vectored ops (already one chained
  /// doorbell) bypass the batch.
  void batch_begin();
  /// Rings the doorbell for the open scope, charging the injection
  /// overhead once plus chain_ns per extra descriptor
  /// (NetworkModel::doorbell_ns), and assigns every batched op its modeled
  /// completion time: the doorbell's start plus the chain plus the op's
  /// own latency. The overhead overlaps the wire as it does for an
  /// unbatched op, so a one-descriptor doorbell completes when the op
  /// would have unbatched. A doorbell starts at its chain's first post, so
  /// the host time spent posting the rest runs inside the modeled overhead
  /// and chain. Closes the scope; no-op when none is open. Also invoked by
  /// gsync and by test/wait on a batch-pending handle. A chain that
  /// reaches kDoorbellDescs descriptors rings at once and leaves the scope
  /// open, so its later ops chain behind the next doorbell. Returns the
  /// latest modeled completion among the descriptors of every doorbell the
  /// scope rang, the one deadline a round of its ops waits for (0 when no
  /// scope was open, and under Injection::none).
  std::uint64_t batch_flush();
  /// True while a batch scope is open.
  bool batch_active() const noexcept { return batch_open_; }
  /// Descriptors enqueued in the open batch.
  std::size_t batch_depth() const noexcept { return batch_ndesc_; }
  /// Doorbells rung so far (each covers >= 1 descriptors).
  std::uint64_t doorbells_rung() const noexcept { return doorbells_; }

  /// Local memory fence (x86 mfence equivalent); orders CPU stores for the
  /// intra-node path.
  void local_fence();

  // --- modeled time: the one place it is charged and waited for -----------
  /// Charges `ns` of modeled busy time to this rank for work the NIC did
  /// not perform itself: MPI-2.2's per-call software layer, the UPC/CAF
  /// baselines' per-op extras, p2p's send overhead. Scaled by
  /// Domain::model_ns, metered, folded into latest_complete_at_ and waited
  /// for; a no-op under Injection::none.
  void charge_model_ns(double ns);
  /// Blocks until the absolute now_ns() `deadline` under Injection::model
  /// (returns at once otherwise). A deadline at or behind the latest
  /// reading returns without a clock read. It yields and polls the
  /// domain's progress hook while the deadline is more than 5 us away, so
  /// a wait on a dead fleet aborts instead of hanging, then spins to the
  /// deadline; the read that ends the spin becomes the latest reading.
  void wait_model_time(std::uint64_t deadline);
  /// Modeled busy time (ns, scaled) this NIC charged its rank so far:
  /// unbatched issue overheads, doorbells and charge_model_ns. Waits for
  /// completions are not counted. 0 under Injection::none.
  std::uint64_t modeled_ns() const noexcept { return modeled_ns_; }

  /// Explicit nonblocking operations with a live (unretired) handle.
  std::size_t explicit_outstanding() const noexcept { return explicit_live_; }
  /// Implicit operations issued since the last gsync. Counts every
  /// implicit op — including ones whose data moved at issue — because
  /// DMAPP-style implicit ops are only *completed* by bulk sync.
  std::size_t implicit_outstanding() const noexcept {
    return static_cast<std::size_t>(implicit_live_);
  }
  /// Outstanding (not yet completed) operation count: explicit + implicit.
  std::size_t outstanding() const noexcept {
    return explicit_outstanding() + implicit_outstanding();
  }

  // --- fault plan introspection (tests / diagnostics) ------------------------
  /// One scheduled transient fault: fires when this NIC issues its
  /// at_op-th operation, injecting `kind` for `repeats` consecutive
  /// (re)issues of that op.
  struct FaultSite {
    std::uint64_t at_op = 0;
    FaultKind kind = FaultKind::none;
    int repeats = 1;
  };
  /// The precomputed per-rank schedule (empty when the plan is disabled).
  /// Deterministic: a pure function of (plan.seed, rank).
  const std::vector<FaultSite>& fault_schedule() const noexcept {
    return fault_sched_;
  }
  /// Operations issued by this NIC so far (fault-plan op index).
  std::uint64_t issued_ops() const noexcept { return issued_ops_; }

 private:
  enum class Kind : std::uint8_t { put, get, amo };

  /// Plain-data description of one operation, passed by the public entry
  /// points; the fast path never materializes a PendingOp. A contiguous op
  /// is one fragment {0, 0, len} (`frags` null), a vectored op the list
  /// `frags[0, nfrags)`, an AMO its 8-byte word.
  struct OpReq {
    Kind kind = Kind::put;
    bool implicit = false;        // completed by gsync, not by a handle
    void* local = nullptr;        // put source / get destination base
    const Frag* frags = nullptr;  // vectored fragments; null = contiguous
    std::size_t nfrags = 1;
    std::size_t len = 0;  // total payload bytes
    AmoOp aop = AmoOp::read;
    std::uint64_t operand = 0, compare = 0;
    std::uint64_t* fetch_out = nullptr;
  };

  struct PendingOp {
    /// Inline staging capacity: covers every protocol-flag word and
    /// notified-access put the library issues on its own behalf.
    static constexpr std::size_t kInlineStage = 64;

    /// The op as issued (set only by a deferred issue). Its `local` and
    /// `frags` still point at caller memory; apply() reads the staged
    /// payload and frags_ instead.
    OpReq req;
    bool applied = false;  // data movement already performed
    bool batch_pending = false;  // enqueued behind an unrung doorbell
    std::byte* remote = nullptr;
    std::uint64_t complete_at = 0;  // ns timestamp when model says done

    std::size_t staged_len = 0;  // deferred put payload length
    OpStatus status = OpStatus::ok;  // typed failure, set at issue time
    alignas(8) std::array<std::byte, kInlineStage> stage_{};
    std::vector<std::byte> spill_;  // payloads > kInlineStage only
    std::vector<Frag> frags_;  // vectored-op fragments (capacity recycled)

    /// Deferred-op stager for puts and vectored ops: copies a vectored
    /// op's fragment list and gathers a put's payload back-to-back into the
    /// staging buffer (each staged fragment's local_off becomes its staged
    /// position), spilling to the heap only above kInlineStage; capacity is
    /// recycled with the slot.
    void stage(const OpReq& r);
    const std::byte* staged_data() const noexcept {
      return staged_len <= kInlineStage ? stage_.data() : spill_.data();
    }
    /// Clears per-op state but keeps spill/fragment capacity for recycling.
    void reset() noexcept {
      applied = false;
      batch_pending = false;
      staged_len = 0;
      status = OpStatus::ok;
      complete_at = 0;
    }
  };

  /// One slab slot: the pooled op plus free-list / liveness bookkeeping.
  struct Slot {
    PendingOp op;
    std::uint32_t tag = 1;  // never 0: 0-tagged handles are always invalid
    std::uint32_t next_free = 0;
    bool live = false;
  };

  /// Per-NIC direct-mapped rkey cache entry (see resolve_cached).
  struct RkeyEntry {
    std::uint64_t rkey = 0;  // 0 = empty
    std::uint64_t gen = 0;   // registry generation the snapshot was taken at
    std::byte* base = nullptr;
    std::size_t size = 0;
    int owner = -1;
  };
  static constexpr std::size_t kRkeyCacheSize = 64;  // power of two
  static_assert((kRkeyCacheSize & (kRkeyCacheSize - 1)) == 0);

  bool inter_node(int target) const noexcept;
  /// Epoch-validated cached resolve; falls back to a locked registry
  /// snapshot only when the cache entry is absent or the registration
  /// generation moved. Raises exactly like RegionRegistry::resolve.
  std::byte* resolve_cached(std::uint64_t rkey, int expected_owner,
                            std::size_t offset, std::size_t len);
  /// Issues one op whose remote bytes lie in [offset, offset + span); one
  /// rkey resolution and one bounds check cover every fragment. Returns
  /// kDoneHandle when the op completed at issue.
  Handle issue(int target, const RegionDesc& rd, std::size_t offset,
               std::size_t span, const OpReq& req);
  /// Builds a vectored op's request (its fragment list and their total
  /// length) and issues it; an empty list is done without an issue.
  Handle issue_frags(int target, const RegionDesc& rd, std::size_t base_off,
                     std::size_t span_len, Kind kind, bool implicit,
                     const void* local_base, const Frag* frags,
                     std::size_t nfrags);
  /// The one data mover, shared by ops applied at issue and deferred ops
  /// applied from their staged record: a put copies local + local_off to
  /// remote + remote_off per fragment of `frags`, a get copies the other
  /// way, an AMO applies to its word. A contiguous op (`frags` null) takes
  /// a single-fragment branch.
  static void move_data(const OpReq& r, std::byte* remote, void* local,
                        const Frag* frags);
  /// Performs a deferred op's data movement (once) from its staged record.
  void apply(PendingOp& op);
  /// Trace class of an op: vectored, else its kind.
  static trace::EvClass ev_class(const OpReq& r) noexcept;
  /// Retires a live explicit handle: moves the data of a successful op,
  /// emits its completion event, frees the slot; returns the op's status.
  OpStatus retire(Handle h);

  /// Per-issue fault-plan gate: advances the op index, fires the kill/hang
  /// schedule, runs the bounded retransmission loop for a scheduled
  /// transient fault, and detects a dead target. Reads (`is_read`) of a
  /// dead rank's frozen memory image still succeed — that is what lets
  /// survivors inspect a dead peer's protocol words to revoke its locks —
  /// while writes and mutating AMOs retire with peer_dead. Returns the
  /// status the op must retire with (ok = proceed) and a latency
  /// multiplier.
  struct FaultVerdict {
    OpStatus status = OpStatus::ok;
    double latency_scale = 1.0;
  };
  /// Armed-plan fast gate (inline, defined after Domain below): advances
  /// the op index and falls through in two compares when nothing can fire
  /// at this index, so an armed-but-idle plan stays within noise of the
  /// disarmed path (bench_fastpath's put8_blocking_fault_armed_idle case).
  FaultVerdict pre_issue_fault(int target, bool is_read);
  /// Out-of-line worker: kill/hang schedule, dead-target detection, and
  /// the bounded retransmission loop for a scheduled transient fault.
  FaultVerdict pre_issue_fault_slow(int target, bool is_read,
                                    std::uint64_t my_op);
  /// Recomputes next_fault_op_ = earliest op index at which the kill or
  /// the next unconsumed schedule entry can fire (~0 when neither can).
  void update_next_fault_op() noexcept;
  /// Builds a failed explicit handle (no data movement, no model time).
  Handle make_failed_handle(OpStatus st, bool implicit);

  // --- doorbell batching internals -------------------------------------------
  /// One descriptor of the open batch. Pool entries are referenced by index
  /// (slab_/implicit_ops_ may reallocate between enqueue and flush); ops
  /// with no pooled record (immediate implicit) carry only their latency.
  struct BatchEntry {
    std::uint32_t slot = kNoSlot2;      ///< explicit slab index, or none
    std::uint32_t implicit_idx = kNoSlot2;  ///< implicit pool index, or none
    std::uint64_t lat_ns = 0;           ///< modeled op latency (scaled)
    static constexpr std::uint32_t kNoSlot2 = ~std::uint32_t{0};
  };
  /// Records one op into the open batch (model-time bookkeeping only; the
  /// caller has already done counters/data movement).
  void batch_enqueue(const BatchEntry& e, bool inter);

  // Slab pool management (explicit handles).
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  Slot* lookup(Handle h);
  static Handle encode(std::uint32_t index, std::uint32_t tag) noexcept {
    return (static_cast<Handle>(tag) << 32) | index;
  }

  PendingOp& acquire_implicit();

  Domain& domain_;
  int rank_;
  Rng rng_;

  std::array<RkeyEntry, kRkeyCacheSize> rkey_cache_{};

  // Explicit-handle pool: slab + intrusive LIFO free list.
  std::vector<Slot> slab_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t explicit_live_ = 0;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // Implicit-op pool: entries [0, implicit_count_) are live; gsync resets
  // the count but keeps the entries (and their spill capacity).
  std::vector<PendingOp> implicit_ops_;
  std::size_t implicit_count_ = 0;
  std::uint64_t implicit_live_ = 0;  // incl. ops whose data moved at issue

  std::vector<PendingOp*> drain_scratch_;  // gsync working set, recycled
  std::uint64_t latest_complete_at_ = 0;   // max completion time seen
  std::uint64_t modeled_ns_ = 0;           // see modeled_ns()
  std::uint64_t now_ = 0;                  // see last_now()

  // Doorbell batching. With no scope open the issue path pays one
  // predictable branch.
  bool batch_open_ = false;
  bool batch_inter_ = false;  // any inter-node descriptor enqueued
  std::size_t batch_ndesc_ = 0;
  std::uint64_t batch_start_ = 0;  // first post of the open chain
  std::uint64_t batch_done_ = 0;   // latest completion the scope assigned
  std::vector<BatchEntry> batch_entries_;  // capacity recycled across flushes
  std::uint64_t doorbells_ = 0;

  // Fault plan state. fault_armed_ is the ONLY fault-path check on the
  // fault-free issue path (one branch); everything below it is untouched
  // when the plan is disabled.
  bool fault_armed_ = false;
  std::vector<FaultSite> fault_sched_;  // sorted by at_op
  std::size_t fault_next_ = 0;          // next unfired schedule entry
  std::uint64_t next_fault_op_ = ~std::uint64_t{0};  // fast-gate threshold
  std::uint64_t issued_ops_ = 0;        // fault-plan op index
  std::uint64_t implicit_failed_ = 0;   // failed implicit ops since gsync
  OpStatus implicit_fail_status_ = OpStatus::ok;  // first such failure
};

struct DomainConfig {
  int nranks = 1;
  /// Ranks per simulated node; 0 means all ranks share one node (pure
  /// "XPMEM"), 1 means every rank is its own node (pure "DMAPP").
  int ranks_per_node = 0;
  Injection inject = Injection::none;
  Delivery delivery = Delivery::immediate;
  /// With deferred delivery, apply drained ops in shuffled order to model
  /// the network's lack of ordering guarantees.
  bool shuffle_deferred = false;
  /// Multiplier on all injected model times (1.0 = realistic).
  double time_scale = 1.0;
  NetworkModel model = kGemini;
  std::uint64_t seed = 42;
  /// Seeded deterministic fault injection (disabled by default; when
  /// disabled the issue path pays exactly one extra branch).
  FaultPlan fault{};
};

/// One RDMA domain: the registry plus one NIC per rank.
class Domain {
 public:
  explicit Domain(DomainConfig cfg);

  int nranks() const noexcept { return cfg_.nranks; }
  int node_of(int rank) const noexcept {
    return cfg_.ranks_per_node <= 0 ? 0 : rank / cfg_.ranks_per_node;
  }
  bool same_node(int a, int b) const noexcept {
    return node_of(a) == node_of(b);
  }

  RegionRegistry& registry() noexcept { return registry_; }
  const DomainConfig& config() const noexcept { return cfg_; }
  Nic& nic(int rank);

  /// The one conversion from a cost-model duration to modeled time: `ns`
  /// x time_scale under Injection::model, 0 under Injection::none.
  double model_ns(double ns) const noexcept {
    return cfg_.inject == Injection::model ? ns * cfg_.time_scale : 0.0;
  }

  /// Polled by every back-off step of a blocking wait and by the NIC's
  /// long model-time waits; the runtime installs a hook that raises when
  /// the fleet aborted or its hang watchdog expired, so a dead fleet
  /// unwinds instead of hanging (DESIGN.md §8).
  using ProgressHook = void (*)(void* arg);
  void set_progress_hook(ProgressHook hook, void* arg) noexcept {
    progress_hook_ = hook;
    progress_arg_ = arg;
  }
  void progress_check() const {
    if (progress_hook_ != nullptr) progress_hook_(progress_arg_);
  }

  // --- waiting: the one back-off step and the one dead-peer rule -----------
  /// One yield, then the progress hook: a step that neither spins nor
  /// counts, for a loop that stays abortable where no poll failed (the
  /// fiber scheduler's periodic check between runnable fibers).
  void yield_step() const {
    std::this_thread::yield();
    progress_check();
  }
  /// One back-off step of a blocking wait whose poll failed: yield_step,
  /// then the exponential spin. Counts one Op::retry.
  void backoff_step(Backoff& bo) const {
    yield_step();
    bo.spin();
  }
  /// The `gone` of a wait that no death settles.
  struct NoPeer {
    bool operator()() const noexcept { return false; }
  };
  /// The one poll and its dead-peer rule (DESIGN.md §8): ok once `ready()`
  /// holds, pending while it does not. Once a death has been seen and
  /// `gone()` says the party the wait depends on is dead, it polls
  /// `ready()` once more, because a dead peer's stores precede its death
  /// mark, and returns peer_dead only if the condition is still unmet.
  /// `ready` may consume what it finds: a caller polls again only after
  /// pending. A fiber waiting on a condition settles through this from its
  /// poll_ready.
  template <class Ready, class Gone = NoPeer>
  OpStatus poll(Ready&& ready, Gone&& gone = Gone()) const {
    if (ready()) return OpStatus::ok;
    if (death_epoch() == 0 || !gone()) return OpStatus::pending;
    return ready() ? OpStatus::ok : OpStatus::peer_dead;
  }
  /// The one blocking wait: poll(), taking one back-off step after each
  /// pending. A wait that restarts its back-off on progress passes its own
  /// `bo` and resets it from `ready`.
  template <class Ready, class Gone = NoPeer>
  OpStatus wait_until(Ready&& ready, Gone&& gone = Gone(),
                      Backoff* bo = nullptr) const {
    Backoff own;
    Backoff& b = bo != nullptr ? *bo : own;
    for (;;) {
      const OpStatus st = poll(ready, gone);
      if (st != OpStatus::pending) return st;
      backoff_step(b);
    }
  }

  // --- liveness (fail-stop fault model) -------------------------------------
  /// True while `rank` has not been killed by the fault plan. The fail-stop
  /// model: a dead rank's memory stays mapped and *readable* (survivors can
  /// inspect its frozen protocol words, as in checkpoint-free recovery for
  /// one-sided models), but writes and mutating AMOs targeting it retire
  /// with OpStatus::peer_dead.
  bool alive(int rank) const noexcept {
    return !dead_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }
  /// Advances the death epoch and marks `rank` dead (idempotent; only the
  /// dying rank calls it). The epoch moves first: every dead-target check
  /// reads `death_epoch() != 0 && !alive(r)`, so a peer that already sees
  /// the flag must also see the epoch, or its next write to the corpse
  /// would land instead of retiring peer_dead.
  void mark_dead(int rank) noexcept {
    if (!alive(rank)) return;
    death_epoch_.fetch_add(1, std::memory_order_acq_rel);
    dead_[static_cast<std::size_t>(rank)].store(true,
                                                std::memory_order_release);
  }
  /// Number of rank deaths so far; liveness-aware spin loops re-probe
  /// their peer only when this moves (cheap monotonic epoch).
  std::uint64_t death_epoch() const noexcept {
    return death_epoch_.load(std::memory_order_acquire);
  }

 private:
  DomainConfig cfg_;
  RegionRegistry registry_;
  std::vector<std::unique_ptr<Nic>> nics_;
  ProgressHook progress_hook_ = nullptr;
  void* progress_arg_ = nullptr;
  // One flag per rank, true = dead. unique_ptr array: atomics can't live
  // in a resizable vector.
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::atomic<std::uint64_t> death_epoch_{0};
};

/// Armed-plan fast gate. Defined here (after Domain) so the idle case —
/// nothing scheduled at this index, no deaths in the fleet — is a handful
/// of inlined loads and branches at every issue site instead of a call
/// into the fault machinery. next_fault_op_ is maintained conservatively:
/// it never exceeds the true next interesting index, so taking the slow
/// path spuriously is possible but missing a site is not.
inline Nic::FaultVerdict Nic::pre_issue_fault(int target, bool is_read) {
  const std::uint64_t my_op = issued_ops_++;
  if (my_op >= next_fault_op_ ||
      (!is_read && domain_.death_epoch() != 0)) {
    return pre_issue_fault_slow(target, is_read, my_op);
  }
  return {};
}

}  // namespace fompi::rdma
