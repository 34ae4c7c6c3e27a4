// Progress engine: put-with-notification + per-rank fiber scheduler.
//
// Two pieces, both below the core (MPI window) layer so windows, apps and
// benches can all sit on them (see DESIGN.md §11):
//
//   * NotifyPlane — put-with-notification as a first-class op. Each rank
//     registers a ring of sequenced notification records; a producer
//     reserves a slot with one remote fetch-add, writes the record body
//     with a put, then commits it with an 8-byte stamp put. Consumers
//     drain ready records into a local queue and match them by tag, so
//     tag matching is decoupled from arrival order and ring slots free up
//     immediately. The ring generalizes the collectives' fixed 64-slot
//     data_seq plane: any capacity, overflow-to-retry against a published
//     read cursor, and typed OpStatus (peer_dead) instead of a hang when
//     the far side died.
//
//   * Scheduler + Fiber — suspend-on-wait overlap (the R2/ROLEX idiom,
//     with explicit continuation frames instead of stackful coroutines:
//     every fiber runs on its rank's own thread, so the engine is
//     TSan-clean and a context switch costs nanoseconds, not a sigmask
//     save). `await(handle)` parks the fiber on the op's modeled
//     completion deadline, `await_notify(tag)` on the notify plane,
//     `await_epoch()` on the NIC's quiesce deadline; the scheduler's
//     retire path makes them runnable again. A rank with N fibers keeps N
//     ops in flight while burning issue overhead only — no spin between
//     issue and completion. The single idle loop goes through the
//     fabric's yield_check, so fault kills unwind parked fleets with
//     typed statuses instead of hanging them. Priority fibers resume
//     before ordinary ones; while one is parked on a deadline, every step
//     boundary checks that deadline, and admits() tells an ordinary fiber
//     whether work of a given modeled issue time ends before it.
//
// Continuation frames: a fiber's `step()` is re-entered at the last
// suspension point via a Duff's-device switch on `pc_`. All state that
// must survive a suspension lives in fiber members; at most one
// FOMPI_FIBER_* suspension per source line.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "rdma/nic.hpp"

namespace fompi::fabric {

class Fabric;

namespace progress {

class Scheduler;

/// Matches every tag in notify_probe / notify waits.
inline constexpr std::uint64_t kAnyNotifyTag = ~std::uint64_t{0};

/// One consumed notification: what the producer's put_notify carried.
struct NotifyRecord {
  std::uint64_t tag = 0;    ///< user tag the consumer matches on
  std::uint64_t seq = 0;    ///< position in the consumer's arrival order
  std::uint64_t tdisp = 0;  ///< displacement the producer wrote payload to
  std::uint32_t bytes = 0;  ///< payload length in bytes
  int source = -1;          ///< producing rank
};

/// Per-rank registered notification ring (wire format in DESIGN.md §11).
/// Construction is split: one thread creates the plane, every rank calls
/// attach() for its own ring, and the caller barriers before first use.
class NotifyPlane {
 public:
  NotifyPlane(Fabric& fabric, std::size_t capacity);
  ~NotifyPlane();
  NotifyPlane(const NotifyPlane&) = delete;
  NotifyPlane& operator=(const NotifyPlane&) = delete;

  /// Registers the calling rank's ring. Each rank calls once; barrier
  /// with the other ranks before posting or probing.
  void attach(int rank);

  std::size_t capacity() const noexcept { return cap_; }

  /// Blocking post of one record into `target`'s ring: reserve slot,
  /// wait for ring space (overflow-to-retry against the consumer's
  /// published read cursor), write body, stamp. Returns a typed status —
  /// peer_dead when the consumer died — instead of raising.
  rdma::OpStatus post(int me, int target, std::uint64_t tag,
                      std::uint64_t tdisp, std::uint32_t bytes);

  // --- producer steps decomposed for the fiber engine ----------------------
  // A fiber pipelines post() as: await(reserve_nb) -> [fits? else
  // await(cursor_nb) and retry] -> await(record_nb) -> await(stamp_nb).
  rdma::Handle reserve_nb(int me, int target, std::uint64_t* seq_out);
  rdma::Handle cursor_nb(int me, int target, std::uint64_t* cursor_out);
  /// True when `seq` fits the ring given the last observed read cursor.
  bool fits(std::uint64_t seq, std::uint64_t cursor) const noexcept {
    return seq - cursor < cap_;
  }
  rdma::Handle record_nb(int me, int target, std::uint64_t seq,
                         std::uint64_t tag, std::uint64_t tdisp,
                         std::uint32_t bytes);
  rdma::Handle stamp_nb(int me, int target, std::uint64_t seq);

  // --- consumer side (purely local) ----------------------------------------
  /// Drains ready ring slots, then consumes one record matching `tag`
  /// (kAnyNotifyTag matches all). Nonblocking.
  bool probe(int me, std::uint64_t tag, NotifyRecord* out);
  /// Blocks until >= 1 matching records arrived; consumes up to `max` of
  /// them. With `source >= 0` the wait is typed: if that rank dies the
  /// call returns 0 with *status = peer_dead (or raises when `status` is
  /// null) instead of hanging. Suspension goes through yield_check.
  std::size_t waitsome(int me, std::uint64_t tag, NotifyRecord* out,
                       std::size_t max, int source = -1,
                       rdma::OpStatus* status = nullptr);

  /// True once `rank` was killed by the fault plan (death-epoch gated).
  bool source_dead(int rank) const;

  // --- diagnostics (tests) -------------------------------------------------
  /// Records reserved in my ring by producers so far (local read).
  std::uint64_t reserved(int me) const;
  /// Records this rank drained out of its ring so far.
  std::uint64_t consumed(int me) const;

 private:
  friend class Scheduler;
  struct RankRing;

  bool drain(int me);  // ring -> pending deque; true if any record moved
  std::size_t match(int me, std::uint64_t tag, NotifyRecord* out,
                    std::size_t max);
  rdma::Nic& nic(int me);

  Fabric& fabric_;
  std::size_t cap_ = 0;
  int nranks_ = 0;
  std::vector<std::unique_ptr<RankRing>> rings_;
  // Producer-side cache of each target's read cursor, indexed
  // me * nranks + target; only thread `me` touches its row, so the common
  // non-full post skips the remote cursor read entirely.
  std::vector<std::uint64_t> cursor_cache_;
};

/// Base class for continuation-frame fibers. Subclasses implement step()
/// with the FOMPI_FIBER_* macros and keep suspension-surviving state in
/// members. wake_status()/wake_record() hold the result of the await the
/// fiber just resumed from.
class Fiber {
 public:
  virtual ~Fiber() = default;
  bool done() const noexcept { return done_; }
  /// Status of the op/notify the fiber last awaited (ok, or typed —
  /// peer_dead etc. — when it failed).
  rdma::OpStatus wake_status() const noexcept { return wake_status_; }
  /// Record delivered by the await_notify the fiber last resumed from.
  const NotifyRecord& wake_record() const noexcept { return wake_record_; }

 protected:
  /// One quantum: runs until the next FOMPI_FIBER_* suspension or the end.
  virtual void step(Scheduler& s) = 0;
  /// Polled while parked by FOMPI_FIBER_AWAIT_READY; return true to wake.
  /// Must be cheap and callable repeatedly from the scheduler idle loop.
  virtual bool poll_ready() { return true; }
  void finish() noexcept { done_ = true; }
  int pc_ = 0;  ///< continuation frame resume point (macro-managed)

 private:
  friend class Scheduler;
  rdma::OpStatus wake_status_ = rdma::OpStatus::ok;
  NotifyRecord wake_record_{};
  std::uint32_t id_ = 0;
  bool done_ = false;
  bool priority_ = false;
};

/// Per-rank cooperative scheduler. Owns its fibers; run() executes until
/// every fiber finished. Completion is pull-based (the simulated NIC has
/// no background thread), so parked handle-waiters sit on a min-heap
/// keyed by the op's modeled completion deadline and the idle loop
/// retires the due ones — O(log n) per wakeup, no per-op spin.
class Scheduler {
 public:
  /// Fabric-integrated: suspension points run ctx-equivalent yield_check,
  /// so a fleet abort unwinds out of run().
  Scheduler(Fabric& fabric, int rank);
  /// Raw-domain form (benches without a fabric): `yield_check` is invoked
  /// on every idle iteration and must provide equivalent abort semantics.
  Scheduler(rdma::Nic& nic, std::function<void()> yield_check);

  /// Constructs and adopts a fiber; runnable immediately. Valid to call
  /// from inside a running fiber. The reference stays valid until the
  /// scheduler is destroyed.
  template <class F, class... Args>
  F& spawn(Args&&... args) {
    auto f = std::make_unique<F>(std::forward<Args>(args)...);
    F& ref = *f;
    adopt(std::move(f));
    return ref;
  }
  Fiber& adopt(std::unique_ptr<Fiber> fiber);

  /// Runs until every adopted fiber is done. The only blocking point is
  /// the internal idle loop (yield_check + deadline/notify/ready polling
  /// with reset-on-progress backoff).
  void run();

  std::size_t switches() const noexcept { return switches_; }
  std::size_t live() const noexcept { return live_; }
  rdma::Nic& nic() noexcept { return nic_; }
  int rank() const noexcept { return nic_.rank(); }

  // --- priority -------------------------------------------------------------
  /// Makes `f` a priority fiber, or an ordinary one again; a fiber calls it
  /// on itself from its own step. A priority fiber resumes before every
  /// ordinary one, and while one is parked on a deadline each step boundary
  /// checks it, so a due priority fiber waits behind at most the step in
  /// progress.
  void set_priority(Fiber& f, bool on) noexcept { f.priority_ = on; }
  /// Admission for ordinary fibers: true when work whose modeled issue time
  /// is `cost_ns` (see issue_cost_ns) ends, started now, no later than the
  /// earliest deadline a priority fiber is parked on. Always true while no
  /// priority fiber is parked or runnable.
  bool admits(std::uint64_t cost_ns) const;
  /// Modeled issue time of a round of `ops` operations chained behind one
  /// inter-node doorbell (NetworkModel::doorbell_ns: the injection
  /// overhead once plus the chain links), scaled; 0 under Injection::none.
  std::uint64_t issue_cost_ns(int ops) const noexcept;

  // --- suspension hooks (called by the FOMPI_FIBER_* macros) ---------------
  void await_handle(Fiber& f, rdma::Handle h);
  void await_epoch(Fiber& f);
  void await_notify(Fiber& f, NotifyPlane& plane, std::uint64_t tag,
                    int source);
  void await_ready(Fiber& f);
  void await_yield(Fiber& f);
  /// Parks the fiber until the absolute now_ns() `deadline`, retiring
  /// nothing: the caller waits once for a set of ops and retires them
  /// itself, in its own order. 0 or a past deadline is a plain yield.
  void await_until(Fiber& f, std::uint64_t deadline);
  /// Parks the fiber for `delay_ns` wall nanoseconds on the deadline heap —
  /// a fiber-native backoff for retry loops (scrub re-reads, routing
  /// re-fetches), so a waiting fiber never raw-spins: the scheduler's idle
  /// loop (and its yield_check) stays the engine's single suspension point.
  void await_backoff(Fiber& f, std::uint64_t delay_ns);

 private:
  struct HandleWait {
    std::uint64_t deadline;
    Fiber* fiber;
    rdma::Handle handle;  // kDoneHandle marks an epoch (gsync) wait
    bool epoch;
    bool sleep = false;  // pure timed backoff: wake with ok at deadline
  };
  struct NotifyWait {
    Fiber* fiber;
    NotifyPlane* plane;
    std::uint64_t tag;
    int source;
  };

  void make_runnable(Fiber* f, rdma::OpStatus st);
  bool poll_once();
  /// Wakes every entry of `heap` due at now_cache_; true if any woke.
  bool wake_due(std::vector<HandleWait>& heap);
  void heap_push(HandleWait w);
  static HandleWait heap_pop(std::vector<HandleWait>& heap);

  rdma::Nic& nic_;
  std::function<void()> yield_check_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::deque<Fiber*> urgent_;    // runnable priority fibers, served first
  std::deque<Fiber*> runnable_;
  std::vector<HandleWait> heap_;       // min-heap by deadline
  std::vector<HandleWait> prio_heap_;  // the same, for priority fibers
  std::vector<NotifyWait> notify_waits_;
  std::vector<Fiber*> ready_waits_;
  std::size_t live_ = 0;
  std::size_t switches_ = 0;
  std::size_t idle_spins_ = 0;  ///< idle passes while a priority fiber parks
  std::uint32_t next_id_ = 0;
  std::uint64_t now_cache_ = 0;  ///< last poll_once clock read (see .cpp)
};

}  // namespace progress
}  // namespace fompi::fabric

// --- continuation-frame macros ----------------------------------------------
// Usage:
//   void step(Scheduler& s) override {
//     FOMPI_FIBER_BEGIN();
//     ... h_ = nic.put_nb(...);
//     FOMPI_FIBER_AWAIT(s, h_);          // suspends; resumes here
//     if (wake_status() != rdma::OpStatus::ok) { ... }
//     FOMPI_FIBER_END();
//   }
// Rules: one FOMPI_FIBER_* suspension per source line; no locals alive
// across a suspension (keep them as members); code before
// FOMPI_FIBER_BEGIN() runs on every re-entry.
#define FOMPI_FIBER_BEGIN() \
  switch (this->pc_) {      \
    case 0:

#define FOMPI_FIBER_SUSPEND_(call) \
  do {                             \
    this->pc_ = __LINE__;          \
    call;                          \
    return;                        \
    case __LINE__:;                \
  } while (0)

/// Parks the fiber until explicit handle `h` retires; wake_status() holds
/// the typed result.
#define FOMPI_FIBER_AWAIT(s, h) \
  FOMPI_FIBER_SUSPEND_((s).await_handle(*this, (h)))
/// Parks until every op this rank issued so far completed (gsync).
#define FOMPI_FIBER_AWAIT_EPOCH(s) \
  FOMPI_FIBER_SUSPEND_((s).await_epoch(*this))
/// Parks until a record matching `tag` arrives on `plane` (wake_record()),
/// or `source` (>= 0) dies (wake_status() == peer_dead).
#define FOMPI_FIBER_AWAIT_NOTIFY(s, plane, tag, source) \
  FOMPI_FIBER_SUSPEND_((s).await_notify(*this, (plane), (tag), (source)))
/// Parks until this->poll_ready() returns true.
#define FOMPI_FIBER_AWAIT_READY(s) \
  FOMPI_FIBER_SUSPEND_((s).await_ready(*this))
/// Parks until the absolute now_ns() `deadline` without retiring anything.
#define FOMPI_FIBER_AWAIT_UNTIL(s, deadline) \
  FOMPI_FIBER_SUSPEND_((s).await_until(*this, (deadline)))
/// Parks for `ns` wall nanoseconds (fiber-native backoff; no raw spin).
#define FOMPI_FIBER_BACKOFF(s, ns) \
  FOMPI_FIBER_SUSPEND_((s).await_backoff(*this, (ns)))
/// Cooperative reschedule: goes to the back of the runnable queue.
#define FOMPI_FIBER_YIELD(s) \
  FOMPI_FIBER_SUSPEND_((s).await_yield(*this))

#define FOMPI_FIBER_END() \
  }                       \
  this->finish();
