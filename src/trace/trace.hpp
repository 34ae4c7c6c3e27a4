// Flight-recorder tracing: per-rank lock-free event rings, sync-epoch
// spans, and modeled-time op lifecycle stamps.
//
// The paper argues foMPI's value with per-operation cost breakdowns and
// epoch timelines (Figs 4-6); OpCounters alone cannot show *when* an op was
// issued or how an epoch overlapped communication. This subsystem records
// both, cheaply enough to leave on:
//
//   * One Ring per rank, single-producer (the rank thread owns it, mirroring
//     the Nic ownership rule) / single-consumer (a dump after the fact).
//     Fixed capacity, zero allocation and no locks on the record path; on
//     overflow new events are DROPPED and counted, so a full ring degrades
//     to a truthful partial trace instead of blocking the traced code.
//     Bound threads stage events in a small thread-local buffer and publish
//     them in batches with one release store (push_batch), so the common
//     record cost is a couple of thread-local stores; unbinding flushes.
//   * The off path is a single thread-local load + branch: a rank thread
//     records only while bound to a ring (run_ranks binds automatically
//     when a TraceSession is active). Compile out entirely with
//     -DFOMPI_TRACE=OFF (CMake option).
//   * Events carry a wall-clock stamp (now_ns, the shared steady clock) and,
//     for NIC ops under Injection::model, the modeled network_model stamps:
//     dur_ns = injected completion latency, sim_ns = the absolute modeled
//     completion time. Outside injection mode both are 0.
//
// Consumers (see TraceSession): a Chrome/Perfetto trace-event JSON exporter
// (one track per rank; spans for epochs, instants for ops) and log-bucketed
// latency histograms per event class with p50/p99/max queries.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/timing.hpp"

#ifndef FOMPI_TRACE
#define FOMPI_TRACE 1
#endif

namespace fompi::trace {

inline constexpr bool kEnabled = FOMPI_TRACE != 0;

/// What happened. Op classes (put..bulk_sync) come from the NIC; the rest
/// are the window-layer sync epochs and fabric collectives.
enum class EvClass : std::uint8_t {
  put,            ///< contiguous put handed to the NIC
  get,            ///< contiguous get handed to the NIC
  amo,            ///< remote atomic handed to the NIC
  vectored,       ///< multi-fragment (chained-FMA) op, one doorbell
  bulk_sync,      ///< NIC gsync: bulk completion of implicit ops
  fence,          ///< MPI_Win_fence epoch separator
  pscw_post,      ///< MPI_Win_post (matching-list insertion)
  pscw_start,     ///< MPI_Win_start (spin on local matching list)
  pscw_complete,  ///< MPI_Win_complete (commit + counter bumps)
  pscw_wait,      ///< MPI_Win_wait (spin on completion counter)
  lock,           ///< MPI_Win_lock / lock_all acquisition
  unlock,         ///< MPI_Win_unlock / unlock_all release
  flush,          ///< flush family (remote/local bulk completion)
  win_sync,       ///< MPI_Win_sync memory barrier
  notify_wait,    ///< notification-ring wait (Win::notify_waitsome)
  barrier,        ///< fabric dissemination barrier
  fault,          ///< FaultPlan event (injection / retry / permanent failure)
  batch,          ///< coalesced doorbell rung (arg = chained descriptors)
  fiber,          ///< fiber resumed (begin) / finished (complete); arg = id
  notify_post,    ///< put-with-notification record posted (arg = tag/seq)
  kv,             ///< KV service client op (arg = key, dur = op latency)
  recovery,       ///< KV recovery: heal span (begin/end), promotion (issue,
                  ///< arg = shard), drain chunk (doorbell, arg = bytes),
                  ///< generation release (complete, arg = generation),
                  ///< scrub repair (retry, arg = key)
  kCount,
};

/// Lifecycle phase of the event.
enum class EvPhase : std::uint8_t {
  issue,     ///< op entered the NIC and its data moved at issue
  doorbell,  ///< op handed to the wire; data committed at sim_ns, not yet
  complete,  ///< explicit-handle retirement (test/wait observed completion)
  begin,     ///< sync-epoch span opened
  end,       ///< sync-epoch span closed
  retry,     ///< op re-issued after a transient injected fault
  kCount,
};

const char* to_string(EvClass cls) noexcept;
const char* to_string(EvPhase ph) noexcept;

/// One fixed-size trace record (rank is implicit: one ring per rank).
struct Event {
  std::uint64_t wall_ns = 0;  ///< steady-clock stamp at record time
  std::uint64_t sim_ns = 0;   ///< modeled absolute completion time (0 = n/a)
  std::uint64_t dur_ns = 0;   ///< modeled op latency (0 = n/a)
  std::uint64_t arg = 0;      ///< payload bytes / class-specific argument
  std::int32_t target = -1;   ///< peer rank (-1 = none)
  EvClass cls = EvClass::put;
  EvPhase phase = EvPhase::issue;
  std::uint16_t pad_ = 0;
};
static_assert(sizeof(Event) == 40);

/// Fixed-capacity single-producer event buffer. The producer appends with
/// one relaxed load + store and a release publish; it never blocks and
/// never allocates. When full, push() drops the event and bumps the drop
/// counter (relaxed atomic). A concurrent reader sees a consistent prefix:
/// size() is an acquire load, and slots below it are never rewritten.
class Ring {
 public:
  explicit Ring(std::size_t capacity) : slots_(capacity) {}
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  /// Record-path append (single producer). Lock-free, allocation-free.
  void push(const Event& ev) noexcept {
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    if (n >= slots_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slots_[n] = ev;
    count_.store(n + 1, std::memory_order_release);
  }

  /// Batched append (single producer): copies what fits and publishes it
  /// with ONE release store; the overflow remainder is dropped and counted,
  /// preserving push()'s oldest-events-kept semantics. This is the staging
  /// buffer's publish path — the per-event record cost is a plain store
  /// into thread-local memory, not a shared-counter update.
  void push_batch(const Event* evs, std::size_t n) noexcept {
    const std::uint64_t c = count_.load(std::memory_order_relaxed);
    const std::size_t cap = slots_.size();
    std::size_t take = 0;
    if (c < cap) take = std::min<std::size_t>(n, cap - c);
    for (std::size_t i = 0; i < take; ++i) slots_[c + i] = evs[i];
    if (take != 0) count_.store(c + take, std::memory_order_release);
    if (take != n) dropped_.fetch_add(n - take, std::memory_order_relaxed);
  }

  std::size_t capacity() const noexcept { return slots_.size(); }
  /// Events recorded so far (readable prefix; safe from any thread).
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(count_.load(std::memory_order_acquire));
  }
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Valid for i < size() observed by this thread.
  const Event& operator[](std::size_t i) const noexcept { return slots_[i]; }

 private:
  std::vector<Event> slots_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

namespace detail {
/// Per-thread staging buffer: emit() appends into this plain thread-local
/// array and publishes to the bound ring in batches with ONE release store
/// (Ring::push_batch), so the per-event record cost is a thread-local store,
/// not a shared-counter publish. Flushed on batch fill, on rebind/unbind,
/// and explicitly via flush_thread(). An unbound thread (ring == nullptr)
/// stages nothing — the drop-with-counter and records-nothing guarantees of
/// the unstaged design are preserved.
struct Stage {
  static constexpr std::size_t kStageEvents = 16;
  Ring* ring = nullptr;   ///< bound ring (null = tracing off for this thread)
  std::uint32_t n = 0;    ///< staged events not yet published
  std::array<Event, kStageEvents> buf{};
};
extern thread_local Stage tl_stage;
/// Publishes staged events to the bound ring (one release store) and empties
/// the stage. Safe to call unbound or empty (no-op).
void flush_stage() noexcept;
}  // namespace detail

/// Binds the calling thread to `ring` (null unbinds). Any events still
/// staged for the previously bound ring are flushed to it first, so an
/// unbind never loses the tail of a trace. The record path of an unbound
/// thread is one thread-local load and one branch.
void bind_thread(Ring* ring) noexcept;
/// The ring the calling thread records into (null if unbound).
Ring* bound_ring() noexcept;
/// Publishes the calling thread's staged events to its bound ring. Readers
/// observing ring.size() from the producer thread (tests, in-run dumps)
/// call this first; unbinding flushes implicitly.
void flush_thread() noexcept;

/// Records one event on the calling thread's ring, if bound. This is THE
/// record path: a branch when unbound; a clock read plus one store into the
/// thread-local staging buffer when bound (the ring publish is amortized
/// over Stage::kStageEvents events). Never locks, never allocates.
inline void emit(EvClass cls, EvPhase phase, std::int32_t target = -1,
                 std::uint64_t arg = 0, std::uint64_t dur_ns = 0,
                 std::uint64_t sim_ns = 0) noexcept {
#if FOMPI_TRACE
  detail::Stage& st = detail::tl_stage;
  if (st.ring == nullptr) return;
  Event& ev = st.buf[st.n];
  ev.wall_ns = now_ns();
  ev.sim_ns = sim_ns;
  ev.dur_ns = dur_ns;
  ev.arg = arg;
  ev.target = target;
  ev.cls = cls;
  ev.phase = phase;
  if (++st.n == detail::Stage::kStageEvents) detail::flush_stage();
#else
  (void)cls; (void)phase; (void)target; (void)arg; (void)dur_ns; (void)sim_ns;
#endif
}

/// RAII sync-epoch span: begin at construction, end at destruction. Arms
/// only if the thread was bound at construction, so a span never emits an
/// unmatched end.
class Span {
 public:
  explicit Span(EvClass cls, std::int32_t target = -1,
                std::uint64_t arg = 0) noexcept
#if FOMPI_TRACE
      : cls_(cls), target_(target), armed_(detail::tl_stage.ring != nullptr) {
    if (armed_) emit(cls_, EvPhase::begin, target_, arg);
  }
  ~Span() {
    if (armed_) emit(cls_, EvPhase::end, target_);
  }
#else
  {
    (void)cls; (void)target; (void)arg;
  }
  ~Span() = default;
#endif
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
#if FOMPI_TRACE
  EvClass cls_;
  std::int32_t target_;
  bool armed_;
#endif
};

/// Log-bucketed (HDR-style) latency histogram: 8 sub-buckets per octave,
/// so any quantile is exact to within ~12.5% of the true value while the
/// whole 64-bit nanosecond range fits in a fixed 496-entry array.
class LatencyHisto {
 public:
  static constexpr int kSubBits = 3;  // sub-buckets per octave = 2^kSubBits
  static constexpr std::size_t kBuckets =
      ((64 - kSubBits) << kSubBits) + (1u << kSubBits);

  void add(std::uint64_t ns) noexcept;
  void merge(const LatencyHisto& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t max() const noexcept { return max_; }
  /// Value at quantile q in [0,1] (lower bound of the containing bucket;
  /// 0 when empty). quantile(0.5) is p50, quantile(0.99) is p99.
  std::uint64_t quantile(double q) const noexcept;

  static std::size_t bucket_of(std::uint64_t ns) noexcept;
  /// Lower bound of the value range mapped to `bucket`.
  static std::uint64_t bucket_floor(std::size_t bucket) noexcept;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

/// p50/p99/max summary of one event class (see TraceSession::summary).
struct HistoSummary {
  std::uint64_t count = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t max_ns = 0;
};

/// One tracing run: per-rank rings plus the consumers. Constructing a
/// session installs it as the process-global active session (at most one at
/// a time); run_ranks binds each rank thread to ring(rank) while a session
/// is active, and dumps a post-mortem trace on fleet abort. Threads driving
/// a raw Nic (no fabric) bind manually with bind_thread().
class TraceSession {
 public:
  struct Config {
    std::size_t ring_capacity = std::size_t{1} << 16;  ///< events per rank
    /// Where run_ranks writes the trace when a fleet abort kills the run
    /// (empty = no post-mortem dump).
    std::string postmortem_path = "fompi_postmortem.trace.json";
  };

  explicit TraceSession(int nranks);  // default Config
  TraceSession(int nranks, Config cfg);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The installed session (null if none).
  static TraceSession* active() noexcept;

  int nranks() const noexcept { return static_cast<int>(rings_.size()); }
  Ring& ring(int rank) { return *rings_[static_cast<std::size_t>(rank)]; }
  const Ring& ring(int rank) const {
    return *rings_[static_cast<std::size_t>(rank)];
  }
  /// Wall-clock origin: event timestamps in exports are relative to this.
  std::uint64_t start_wall_ns() const noexcept { return start_wall_ns_; }
  const Config& config() const noexcept { return cfg_; }

  std::uint64_t total_events() const noexcept;
  std::uint64_t total_dropped() const noexcept;

  /// Latency histogram of one event class across all ranks: modeled op
  /// latencies (dur_ns of issue/doorbell events) plus wall-clock span
  /// durations (begin/end pairs).
  LatencyHisto histogram(EvClass cls) const;
  HistoSummary summary(EvClass cls) const;

  /// Chrome trace-event JSON ("Perfetto JSON"): load in ui.perfetto.dev or
  /// chrome://tracing. One thread track per rank; epochs are B/E spans, ops
  /// are instants carrying bytes/dur_ns/sim_ns args.
  std::string chrome_json() const;
  /// Writes chrome_json() to `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;
  /// Post-mortem dump to config().postmortem_path (no-op if empty); used by
  /// run_ranks when a fleet abort kills the run. Returns the path written,
  /// or empty on failure/no-op.
  std::string write_postmortem() const;

 private:
  Config cfg_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::uint64_t start_wall_ns_ = 0;
};

}  // namespace fompi::trace
