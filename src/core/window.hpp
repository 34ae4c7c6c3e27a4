// MPI-3.0 One Sided windows: the paper's contribution.
//
// A Win is one rank's handle to a collectively created window. The four
// creation flavors of MPI-3.0 are all provided (Sec 2.2):
//   create          - exposes existing user memory; requires Ω(p) remote
//                     descriptors per process (kept deliberately, as the
//                     paper notes traditional windows are non-scalable);
//   allocate        - library-allocated memory on the symmetric heap,
//                     O(1) remote metadata per window;
//   create_dynamic  - attach/detach of regions at runtime, with the
//                     id-counter cache protocol (plus the optimized
//                     invalidation-notify variant, see DynMode);
//   allocate_shared - like allocate, plus shared_query() for direct
//                     load/store by same-node peers.
//
// Synchronization (Sec 2.3): fence, general active target (post/start/
// complete/wait with the remote matching-list protocol of Fig 2), passive
// target locks (the two-level global/local protocol of Fig 3), and the
// flush family. Communication (Sec 2.4): put/get with the contiguous fast
// path or full datatype lowering, the accumulate family with the
// DMAPP-accelerated path and the lock-based fallback, and request-based
// rput/rget.
//
// Memory model: "unified" only, as in the paper.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "core/ops.hpp"
#include "core/sym_heap.hpp"
#include "datatype/datatype.hpp"
#include "fabric/fabric.hpp"
#include "fabric/group.hpp"

namespace fompi::fabric::progress {
class NotifyPlane;
struct NotifyRecord;
}  // namespace fompi::fabric::progress

namespace fompi::core {

/// Passive-target lock type (MPI_LOCK_SHARED / MPI_LOCK_EXCLUSIVE).
enum class LockType : std::uint8_t { shared, exclusive };

/// Dynamic-window descriptor-cache coherence protocol (Sec 2.2).
enum class DynMode : std::uint8_t {
  id_counter,  ///< origins poll the target's id counter before every access
  notify,      ///< targets push invalidations to registered cachers
};

/// Window error-handler mode (MPI_Win_set_errhandler analogue). Controls
/// what the plain (void) synchronization calls do when an operation retired
/// with a typed fault status (timeout / cq_error / peer_dead):
///   errors_are_fatal — raise a typed Error (default, MPI_ERRORS_ARE_FATAL);
///   errors_return    — record the status (query with Win::last_error) and
///                      return, so the caller can degrade gracefully. The
///                      *_checked variants return the status directly and
///                      behave identically under both modes.
enum class ErrMode : std::uint8_t { errors_are_fatal, errors_return };

/// Window flavor (defined in win_internal.hpp).
enum class WinKind : std::uint8_t;

/// Tuning knobs fixed at window creation.
struct WinConfig {
  /// Capacity of the PSCW matching list: the maximum number of concurrent
  /// exposure-epoch neighbors k (the paper assumes k ∈ O(log p)).
  int max_neighbors = 64;
  /// Maximum regions attachable to a dynamic window per rank.
  int max_dyn_regions = 32;
  /// Maximum registered cachers per rank in DynMode::notify.
  int max_cachers = 64;
  DynMode dyn_mode = DynMode::id_counter;
  /// Per-rank symmetric heap capacity, used when this window triggers heap
  /// construction (first allocated window on the fabric).
  std::size_t symheap_bytes = std::size_t{16} << 20;
  /// Error-handler mode for fault-model failures (see ErrMode).
  ErrMode err_mode = ErrMode::errors_are_fatal;
};

/// Completion handle for request-based operations (rput/rget/raccumulate).
/// The first handle lives inline, so a one-op request allocates nothing;
/// only a multi-element raccumulate spills its handles to the heap.
class RmaRequest {
 public:
  RmaRequest() = default;
  bool valid() const noexcept { return nic_ != nullptr; }
  /// True (and releases the request) once all fragments completed.
  bool test();
  /// Blocks until all fragments completed.
  void wait();

  // --- progress-engine hooks ----------------------------------------------
  /// Fragment handles, exposed so a fiber can park on them (await) instead
  /// of spin-testing. Empty for requests that completed eagerly.
  std::span<const rdma::Handle> handles() const noexcept {
    if (!spill_.empty()) return spill_;
    return {&one_, n_};
  }
  rdma::Nic* nic() const noexcept { return nic_; }
  /// Releases the request without waiting: the caller retired every handle
  /// itself (e.g. through FOMPI_FIBER_AWAIT).
  void dismiss() noexcept {
    nic_ = nullptr;
    n_ = 0;
    spill_.clear();
  }

 private:
  friend class Win;
  /// Appends a handle: inline while it is the only one, else all of them
  /// in the spill.
  void add(rdma::Handle h);

  rdma::Nic* nic_ = nullptr;
  rdma::Handle one_ = 0;
  std::size_t n_ = 0;  ///< handles held inline (0 or 1)
  std::vector<rdma::Handle> spill_;
};

class Win {
 public:
  // --- collective creation / destruction ----------------------------------
  static Win create(fabric::RankCtx& ctx, void* base, std::size_t bytes,
                    WinConfig cfg = {});
  static Win allocate(fabric::RankCtx& ctx, std::size_t bytes,
                      WinConfig cfg = {});
  static Win create_dynamic(fabric::RankCtx& ctx, WinConfig cfg = {});
  static Win allocate_shared(fabric::RankCtx& ctx, std::size_t bytes,
                             WinConfig cfg = {});
  /// Collective; releases registrations and (for allocated windows) the
  /// symmetric-heap block. Every rank must call it.
  void free();

  Win() noexcept;
  Win(Win&&) noexcept;
  Win& operator=(Win&&) noexcept;
  Win(const Win&) = delete;
  Win& operator=(const Win&) = delete;
  ~Win();

  // --- introspection -----------------------------------------------------------
  int rank() const;
  int nranks() const;
  /// Local window base (null for dynamic windows).
  void* base() const;
  std::size_t size() const { return size(rank()); }
  std::size_t size(int target) const;
  /// Direct load/store pointer to a same-node peer's window memory
  /// (MPI_Win_shared_query; allocate_shared windows only).
  void* shared_query(int target) const;

  // --- dynamic windows -----------------------------------------------------------
  /// Non-collective. Exposes [base, base+bytes) for remote access through
  /// this window; remote ranks address it by absolute remote address.
  void attach(void* base, std::size_t bytes);
  /// Non-collective. Ends exposure of a region previously attached.
  void detach(void* base);

  // --- synchronization: active target ------------------------------------------
  /// Collective epoch separator (MPI_Win_fence).
  void fence();
  /// Opens an exposure epoch for `group` (MPI_Win_post). Nonblocking.
  void post(const fabric::Group& group);
  /// Opens an access epoch to `group` (MPI_Win_start). Blocks until every
  /// group member posted a matching exposure epoch.
  void start(const fabric::Group& group);
  /// Closes the access epoch (MPI_Win_complete): commits all operations
  /// remotely, then notifies the exposure side.
  void complete();
  /// Closes the exposure epoch (MPI_Win_wait): blocks until every access
  /// group member called complete.
  void wait();
  /// Nonblocking MPI_Win_test: true once the exposure epoch finished.
  bool test();

  // --- synchronization: passive target ----------------------------------------
  void lock(LockType type, int target);
  void unlock(int target);
  void lock_all();
  void unlock_all();
  /// Remote completion of all operations to `target` (MPI_Win_flush).
  void flush(int target);
  /// Local completion only (origin buffers reusable).
  void flush_local(int target);
  void flush_all();
  void flush_local_all();
  /// Memory barrier for mixed direct-store / RMA access (MPI_Win_sync).
  void sync();

  // --- error-returning synchronization (ErrMode-independent) -------------------
  /// Like the void variants, but faults retire as a typed status instead of
  /// raising / recording: rdma::OpStatus::ok on success, else the first
  /// failure observed (timeout / cq_error / peer_dead). Epoch bookkeeping is
  /// still torn down on failure so the window stays usable for recovery.
  rdma::OpStatus lock_checked(LockType type, int target);
  rdma::OpStatus unlock_checked(int target);
  rdma::OpStatus flush_checked(int target);
  rdma::OpStatus flush_all_checked();
  rdma::OpStatus complete_checked();
  rdma::OpStatus wait_checked();

  /// Last fault status recorded by a plain call under ErrMode::errors_return
  /// (ok if none since the last clear_last_error()).
  rdma::OpStatus last_error() const;
  void clear_last_error();
  /// False once the fault plan killed `target` (fail-stop liveness view).
  bool peer_alive(int target) const;

  // --- communication -----------------------------------------------------------
  /// Contiguous fast path: `len` bytes to byte displacement `tdisp`.
  void put(const void* origin, std::size_t len, int target,
           std::size_t tdisp);
  void get(void* origin, std::size_t len, int target, std::size_t tdisp);
  /// Full datatype path: both sides are lowered to minimal block lists and
  /// one transport operation is issued per contiguous fragment pair.
  void put(const void* origin, int ocount, const dt::Datatype& otype,
           int target, std::size_t tdisp, int tcount,
           const dt::Datatype& ttype);
  void get(void* origin, int ocount, const dt::Datatype& otype, int target,
           std::size_t tdisp, int tcount, const dt::Datatype& ttype);

  /// Request-based variants (MPI_Rput / MPI_Rget).
  RmaRequest rput(const void* origin, std::size_t len, int target,
                  std::size_t tdisp);
  RmaRequest rget(void* origin, std::size_t len, int target,
                  std::size_t tdisp);

  // --- accumulate family ---------------------------------------------------------
  /// target[i] = op(target[i], origin[i]) for `count` elements of type `e`
  /// at byte displacement `tdisp`. Atomic per element with respect to
  /// other accumulates of the same element type.
  void accumulate(const void* origin, std::size_t count, Elem e, RedOp op,
                  int target, std::size_t tdisp);
  /// Atomically fetches the previous target contents into `result` and
  /// applies the reduction (MPI_Get_accumulate). op = no_op is an atomic
  /// read.
  void get_accumulate(const void* origin, void* result, std::size_t count,
                      Elem e, RedOp op, int target, std::size_t tdisp);
  /// Derived-datatype accumulate: both sides are lowered to fragments
  /// (block lengths must be element-aligned) and the reduction applies
  /// elementwise, atomically per element.
  void accumulate(const void* origin, int ocount, const dt::Datatype& otype,
                  Elem e, RedOp op, int target, std::size_t tdisp,
                  int tcount, const dt::Datatype& ttype);
  /// Request-based accumulate (MPI_Raccumulate); accelerated ops only
  /// issue explicit-handle AMOs, fallback ops complete before returning.
  RmaRequest raccumulate(const void* origin, std::size_t count, Elem e,
                         RedOp op, int target, std::size_t tdisp);
  /// Single-element MPI_Fetch_and_op.
  void fetch_and_op(const void* origin, void* result, Elem e, RedOp op,
                    int target, std::size_t tdisp);
  /// Single-element MPI_Compare_and_swap; `result` receives the previous
  /// target value.
  void compare_and_swap(const void* origin, const void* compare, void* result,
                        Elem e, int target, std::size_t tdisp);
  /// Request-based single-element fetch-and-op: accelerated ops issue one
  /// explicit-handle AMO whose fetch result lands in `result` at completion
  /// (keep it alive until the request retires); fallback ops complete before
  /// returning.
  RmaRequest rfetch_and_op(const void* origin, void* result, Elem e, RedOp op,
                           int target, std::size_t tdisp);
  /// Request-based compare-and-swap; 8-byte types map to one explicit AMO,
  /// 4-byte types run the lock-based fallback eagerly.
  RmaRequest rcompare_and_swap(const void* origin, const void* compare,
                               void* result, Elem e, int target,
                               std::size_t tdisp);

  // --- notified access (put-with-notification) --------------------------------
  /// Collective. Arms this window for put_notify by allocating a per-rank
  /// notification ring of `capacity` records (first caller's capacity wins;
  /// call with matching values). Idempotent.
  void notify_enable(fabric::RankCtx& ctx, std::size_t capacity = 256);
  /// Contiguous put plus a sequenced notification record {tag, tdisp, len,
  /// source} delivered into the target's notification ring after the payload
  /// is remotely complete. Returns the first failure observed (ring-full
  /// overflow retries internally; a dead target retires as peer_dead).
  rdma::OpStatus put_notify(const void* origin, std::size_t len, int target,
                            std::size_t tdisp, std::uint64_t tag);
  /// Nonblocking: consumes and returns the oldest local record matching
  /// `tag` (kAnyNotifyTag matches all). False if none is pending.
  bool notify_probe(std::uint64_t tag, fabric::progress::NotifyRecord* out);
  /// Blocks (through Domain::wait_until) until at least one matching record
  /// arrived; consumes up to `max` of them. `source` = -1 matches any
  /// origin. If every candidate source died first: with `status` non-null
  /// stores peer_dead and returns 0, else raises.
  std::size_t notify_waitsome(std::uint64_t tag,
                              fabric::progress::NotifyRecord* out,
                              std::size_t max, int source = -1,
                              rdma::OpStatus* status = nullptr);
  /// The underlying plane (null before notify_enable); a fiber waits on it
  /// through FOMPI_FIBER_AWAIT_READY, probing from its poll_ready and
  /// settling through rdma::Domain::poll.
  fabric::progress::NotifyPlane* notify_plane();

  // --- diagnostics ---------------------------------------------------------------
  /// Number of proposal rounds the symmetric heap needed (allocated
  /// windows; 0 otherwise). For the ablation bench.
  int alloc_attempts() const;

  /// The RDMA domain under the window. A wait built on window memory (the
  /// MCS lock) goes through its wait_until, like every blocking wait.
  const rdma::Domain& domain() const;

 private:
  struct Shared;
  struct DynCache;
  struct RankState;

  Win(std::shared_ptr<Shared> shared, int rank);

  static Win make_collective(fabric::RankCtx& ctx, WinConfig cfg,
                             const std::function<void(Shared&)>& init_leader,
                             const std::function<void(Shared&, int)>& init_rank);
  /// allocate and allocate_shared: a symmetric-heap block whose kind the
  /// leader sets once, before make_collective's barrier publishes it.
  static Win allocate_on_heap(fabric::RankCtx& ctx, std::size_t bytes,
                              WinConfig cfg, WinKind kind);

  RankState& st() const;
  Shared& sh() const;
  rdma::Nic& nic() const;
  /// Raises unless the calling rank is inside an epoch granting access to
  /// `target`.
  void require_access(int target) const;
  /// Resolves (target, tdisp, len) to the descriptor + offset to use —
  /// trivial for static windows, cache-protocol lookup for dynamic ones.
  void resolve_target(int target, std::size_t tdisp, std::size_t len,
                      rdma::RegionDesc* desc, std::size_t* offset);
  /// Dynamic-window resolution: runs the descriptor-cache protocol
  /// (id-counter poll or invalidation check), refreshing the cache with
  /// one-sided reads when stale. `tdisp` is the absolute remote address.
  void resolve_dynamic(int target, std::size_t tdisp, std::size_t len,
                       rdma::RegionDesc* desc, std::size_t* offset);
  /// Re-reads the target's dynamic directory with the seqlock-style
  /// id / entries / id protocol.
  void refresh_dyn_cache(int target);

  /// Issues the fragments of a datatype transfer as implicit nonblocking
  /// NIC ops; `collect` non-null gathers explicit handles instead (rput).
  void issue_put(const void* origin, int ocount, const dt::Datatype& otype,
                 int target, std::size_t tdisp, int tcount,
                 const dt::Datatype& ttype, std::vector<rdma::Handle>* collect);
  void issue_get(void* origin, int ocount, const dt::Datatype& otype,
                 int target, std::size_t tdisp, int tcount,
                 const dt::Datatype& ttype, std::vector<rdma::Handle>* collect);

  /// Fallback accumulate protocol: lock-get-combine-put-unlock.
  void accumulate_fallback(const void* origin, void* fetch, std::size_t count,
                           Elem e, RedOp op, int target, std::size_t tdisp);
  void acc_lock_acquire(int target);
  void acc_lock_release(int target);

  /// Commits all outstanding operations of this rank remotely.
  void commit_all();
  /// Same, but returns the aggregated fault status instead of raising.
  rdma::OpStatus commit_all_checked();
  /// Routes a fault status through the window's ErrMode: ok is a no-op,
  /// errors_return records it for last_error(), errors_are_fatal raises.
  void handle_failure(rdma::OpStatus st, const char* what);

  rdma::OpStatus lock_impl(LockType type, int target);
  rdma::OpStatus unlock_impl(int target);
  rdma::OpStatus complete_impl();
  rdma::OpStatus wait_impl();
  /// Dead-holder revocation: called by lock spinners when the fault plan is
  /// armed; frees `target`'s local lock word if its recorded exclusive owner
  /// died mid-critical-section.
  void try_revoke_dead_owner(int target);

  std::shared_ptr<Shared> shared_;
  int rank_ = -1;
  std::unique_ptr<RankState> state_;
};

}  // namespace fompi::core
