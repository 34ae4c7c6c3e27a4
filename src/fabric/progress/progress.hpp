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
//     save). A fiber parks on one of two things: a deadline on the
//     scheduler's heaps (AWAIT_UNTIL, BACKOFF) or its own poll_ready()
//     (AWAIT_READY). A handle wait, AWAIT(h), is a deadline plus a
//     retire: it parks until the op's modeled completion deadline, then
//     the fiber retires the handle itself. A wait on a condition (a notify
//     tag, a flag) is a ready-poll that settles through
//     rdma::Domain::poll, which holds the one dead-peer rule. A rank with
//     N fibers keeps N ops in flight while burning issue overhead only —
//     no spin between issue and completion. The single idle loop takes
//     the domain's back-off step, so fault kills unwind parked fleets with
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
  /// them. With `source >= 0` the wait is typed: if that rank dies with
  /// no matching record left, the call returns 0 with *status = peer_dead
  /// (or raises when `status` is null) instead of hanging. Waits through
  /// rdma::Domain::wait_until.
  std::size_t waitsome(int me, std::uint64_t tag, NotifyRecord* out,
                       std::size_t max, int source = -1,
                       rdma::OpStatus* status = nullptr);

  // --- diagnostics (tests) -------------------------------------------------
  /// Records reserved in my ring by producers so far (local read).
  std::uint64_t reserved(int me) const;
  /// Records this rank drained out of its ring so far.
  std::uint64_t consumed(int me) const;

 private:
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
/// members.
class Fiber {
 public:
  virtual ~Fiber() = default;
  bool done() const noexcept { return done_; }
  /// Status of the handle the fiber last awaited with FOMPI_FIBER_AWAIT
  /// (ok, or typed — peer_dead etc. — when the op failed).
  rdma::OpStatus wake_status() const noexcept { return wake_status_; }

 protected:
  /// One quantum: runs until the next FOMPI_FIBER_* suspension or the end.
  virtual void step(Scheduler& s) = 0;
  /// Polled while parked by FOMPI_FIBER_AWAIT_READY; return true to wake.
  /// Must be cheap and callable repeatedly from the scheduler idle loop. A
  /// condition that a dead peer can leave unmet settles through
  /// rdma::Domain::poll here, so the fiber wakes with a typed peer_dead.
  virtual bool poll_ready() { return true; }
  void finish() noexcept { done_ = true; }
  int pc_ = 0;  ///< continuation frame resume point (macro-managed)
  rdma::OpStatus wake_status_ = rdma::OpStatus::ok;  ///< FOMPI_FIBER_AWAIT's

 private:
  friend class Scheduler;
  std::uint32_t id_ = 0;
  bool done_ = false;
  bool priority_ = false;
};

/// Per-rank cooperative scheduler. Owns its fibers; run() executes until
/// every fiber finished. Completion is pull-based (the simulated NIC has
/// no background thread), so a fiber parked on a deadline sits on a
/// min-heap keyed by it and the idle loop makes the due ones runnable —
/// O(log n) per wakeup, no per-op spin.
class Scheduler {
 public:
  /// Runs on `nic`'s rank thread. Its idle passes take the domain's
  /// back-off step, so the progress hook (Fabric installs the fleet abort
  /// and hang watchdog) unwinds run().
  explicit Scheduler(rdma::Nic& nic);

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
  /// the internal idle loop (deadline and ready polling with one
  /// reset-on-progress back-off step per pass that woke nothing).
  void run();

  std::size_t switches() const noexcept { return switches_; }
  std::size_t live() const noexcept { return live_; }
  rdma::Nic& nic() noexcept { return nic_; }

  // --- priority -------------------------------------------------------------
  /// Makes `f` a priority fiber, or an ordinary one again; a fiber calls it
  /// on itself from its own step. A priority fiber resumes before every
  /// ordinary one, and while one is parked on a deadline each step boundary
  /// checks it, so a due priority fiber waits behind at most the step in
  /// progress.
  void set_priority(Fiber& f, bool on) noexcept { f.priority_ = on; }
  /// True while a priority fiber is parked on a deadline or runnable: the
  /// only time admits() can refuse, so an ordinary fiber prices its work
  /// only then.
  bool priority_pending() const noexcept {
    return !urgent_.empty() || !prio_heap_.empty();
  }
  /// Admission for ordinary fibers: true when work whose modeled issue time
  /// is `cost_ns` (see issue_cost_ns) ends, started now, no later than the
  /// earliest deadline a priority fiber is parked on. Always true while no
  /// priority fiber is parked or runnable. The NIC's latest reading settles
  /// a refusal; only an admission may cost a clock read.
  bool admits(std::uint64_t cost_ns);
  /// Modeled issue time of a round of `ops` operations chained behind one
  /// inter-node doorbell (NetworkModel::doorbell_ns: the injection
  /// overhead once plus the chain links), scaled; 0 under Injection::none.
  std::uint64_t issue_cost_ns(int ops) const noexcept;

  // --- suspension hooks (called by the FOMPI_FIBER_* macros) ---------------
  /// Parks the fiber until its poll_ready() returns true.
  void await_ready(Fiber& f);
  /// Parks the fiber until the absolute now_ns() `deadline`, retiring
  /// nothing: the caller waits once for one op or a set of them and
  /// retires them itself, in its own order. 0 or a past deadline is a
  /// plain yield.
  void await_until(Fiber& f, std::uint64_t deadline);
  /// Parks the fiber for `delay_ns` wall nanoseconds on the deadline heap —
  /// a fiber-native backoff for retry loops (scrub re-reads, routing
  /// re-fetches), so a waiting fiber never raw-spins: the scheduler's idle
  /// loop (and its back-off step) stays the engine's single suspension
  /// point.
  void await_backoff(Fiber& f, std::uint64_t delay_ns);

 private:
  struct Parked {
    std::uint64_t deadline;
    Fiber* fiber;
  };

  void make_runnable(Fiber* f);
  bool poll_once();
  /// Wakes every entry of `heap` due at the NIC's latest reading; true if
  /// any woke.
  bool wake_due(std::vector<Parked>& heap);

  rdma::Nic& nic_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::deque<Fiber*> urgent_;    // runnable priority fibers, served first
  std::deque<Fiber*> runnable_;
  std::vector<Parked> heap_;       // min-heap by deadline
  std::vector<Parked> prio_heap_;  // the same, for priority fibers
  std::vector<Fiber*> ready_waits_;
  std::size_t live_ = 0;
  std::size_t switches_ = 0;
  std::size_t idle_spins_ = 0;  ///< idle passes while a priority fiber parks
  std::uint32_t next_id_ = 0;
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
// FOMPI_FIBER_BEGIN() runs on every re-entry. Every suspension is one
// statement, so it can be a loop body.
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

/// Parks until explicit handle `h` can retire (its modeled completion
/// deadline), then retires it; wake_status() holds the typed result. `h`
/// is read again on resume, so it names fiber state (a member).
#define FOMPI_FIBER_AWAIT(s, h)                                   \
  do {                                                            \
    FOMPI_FIBER_AWAIT_UNTIL(s, (s).nic().completion_deadline(h)); \
    this->wake_status_ = (s).nic().wait_status(h);                \
  } while (0)
/// Parks until this->poll_ready() returns true.
#define FOMPI_FIBER_AWAIT_READY(s) \
  FOMPI_FIBER_SUSPEND_((s).await_ready(*this))
/// Parks until the absolute now_ns() `deadline` without retiring anything;
/// 0 or a past deadline is a yield.
#define FOMPI_FIBER_AWAIT_UNTIL(s, deadline) \
  FOMPI_FIBER_SUSPEND_((s).await_until(*this, (deadline)))
/// Parks for `ns` wall nanoseconds (fiber-native backoff; no raw spin).
#define FOMPI_FIBER_BACKOFF(s, ns) \
  FOMPI_FIBER_SUSPEND_((s).await_backoff(*this, (ns)))
/// Cooperative reschedule: goes to the back of the runnable queue.
#define FOMPI_FIBER_YIELD(s) FOMPI_FIBER_AWAIT_UNTIL(s, 0)

#define FOMPI_FIBER_END() \
  }                       \
  this->finish();
