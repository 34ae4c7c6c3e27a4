#include "fabric/progress/progress.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/backoff.hpp"
#include "common/error.hpp"
#include "common/buffer.hpp"
#include "common/instr.hpp"
#include "common/timing.hpp"
#include "fabric/fabric.hpp"
#include "trace/trace.hpp"

namespace fompi::fabric::progress {

// --- NotifyPlane ------------------------------------------------------------
//
// Ring wire format (per rank, all words 8-byte aligned):
//   word 0              reserve counter — producers fetch_add a sequence no.
//   word 1              read cursor — consumer republishes its drain head;
//                       producers read it remotely on the overflow path
//   slot i (32 bytes)   [tag][source<<32|bytes][tdisp][stamp]; the stamp is
//                       written last and holds seq+1, so a slot is ready
//                       exactly when stamp == head+1 (seq is absolute:
//                       wraparound reuse can never alias an old stamp)

namespace {
constexpr std::size_t kReserveOff = 0;
constexpr std::size_t kCursorOff = 8;
constexpr std::size_t kSlotBytes = 32;
constexpr std::size_t kTagOff = 0;
constexpr std::size_t kSrcBytesOff = 8;
constexpr std::size_t kTdispOff = 16;
constexpr std::size_t kStampOff = 24;

std::uint64_t load_word(const std::byte* p, std::memory_order mo) {
  return std::atomic_ref<const std::uint64_t>(
             *reinterpret_cast<const std::uint64_t*>(p))
      .load(mo);
}
}  // namespace

struct NotifyPlane::RankRing {
  AlignedBuffer mem;
  rdma::RegionDesc desc{};
  std::uint64_t head = 0;            ///< next seq the consumer drains
  std::deque<NotifyRecord> pending;  ///< drained, not yet tag-matched
};

NotifyPlane::NotifyPlane(Fabric& fabric, std::size_t capacity)
    : fabric_(fabric), cap_(capacity), nranks_(fabric.nranks()) {
  FOMPI_REQUIRE(cap_ >= 2, ErrClass::arg,
                "notify plane needs a capacity of at least 2 records");
  rings_.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    rings_.push_back(std::make_unique<RankRing>());
  }
  cursor_cache_.assign(
      static_cast<std::size_t>(nranks_) * static_cast<std::size_t>(nranks_),
      0);
}

NotifyPlane::~NotifyPlane() {
  auto& reg = fabric_.domain().registry();
  for (auto& ring : rings_) {
    if (ring->desc.rkey != 0) reg.deregister(ring->desc.rkey);
  }
}

void NotifyPlane::attach(int rank) {
  RankRing& ring = *rings_[static_cast<std::size_t>(rank)];
  FOMPI_REQUIRE(ring.desc.rkey == 0, ErrClass::arg,
                "notify plane: rank attached twice");
  ring.mem = AlignedBuffer(16 + kSlotBytes * cap_);
  ring.desc =
      fabric_.domain().registry().register_region(rank, ring.mem.data(),
                                                  ring.mem.size());
}

rdma::Nic& NotifyPlane::nic(int me) { return fabric_.domain().nic(me); }

rdma::Handle NotifyPlane::reserve_nb(int me, int target,
                                     std::uint64_t* seq_out) {
  return nic(me).amo_nb(target, rings_[static_cast<std::size_t>(target)]->desc,
                        kReserveOff, rdma::AmoOp::fetch_add, 1, 0, seq_out);
}

rdma::Handle NotifyPlane::cursor_nb(int me, int target,
                                    std::uint64_t* cursor_out) {
  return nic(me).get_nb(target, rings_[static_cast<std::size_t>(target)]->desc,
                        kCursorOff, cursor_out, 8);
}

rdma::Handle NotifyPlane::record_nb(int me, int target, std::uint64_t seq,
                                    std::uint64_t tag, std::uint64_t tdisp,
                                    std::uint32_t bytes) {
  const std::size_t slot = 16 + kSlotBytes * (seq % cap_);
  std::uint64_t body[3];
  body[0] = tag;
  body[1] = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(me)) << 32) |
            bytes;
  body[2] = tdisp;
  return nic(me).put_nb(target, rings_[static_cast<std::size_t>(target)]->desc,
                        slot + kTagOff, body, sizeof body);
}

rdma::Handle NotifyPlane::stamp_nb(int me, int target, std::uint64_t seq) {
  const std::size_t slot = 16 + kSlotBytes * (seq % cap_);
  // Stamp staged by value at issue: seq+1 commits the record. The NIC's
  // 8-byte put is a word-atomic store, so the consumer's acquire load of
  // the stamp is race-free.
  const std::uint64_t stamp = seq + 1;
  return nic(me).put_nb(target, rings_[static_cast<std::size_t>(target)]->desc,
                        slot + kStampOff, &stamp, 8);
}

rdma::OpStatus NotifyPlane::post(int me, int target, std::uint64_t tag,
                                 std::uint64_t tdisp, std::uint32_t bytes) {
  trace::emit(trace::EvClass::notify_post, trace::EvPhase::issue, target,
              static_cast<std::uint64_t>(tag));
  rdma::Nic& n = nic(me);
  std::uint64_t seq = 0;
  rdma::OpStatus st = n.wait_status(reserve_nb(me, target, &seq));
  if (st != rdma::OpStatus::ok) return st;

  // Overflow-to-retry: wait until the consumer's published read cursor
  // frees the slot. The cached cursor makes the non-full post free of the
  // extra round trip; only misses re-read it remotely.
  std::uint64_t& cached =
      cursor_cache_[static_cast<std::size_t>(me) *
                        static_cast<std::size_t>(nranks_) +
                    static_cast<std::size_t>(target)];
  if (!fits(seq, cached)) {
    const rdma::Domain& dom = fabric_.domain();
    // A dead consumer's cursor is frozen: the wait types the failure
    // instead of retrying forever. (Reads of dead memory still succeed, so
    // the cursor get does not catch it.)
    const rdma::OpStatus waited = dom.wait_until(
        [&] {
          std::uint64_t cursor = 0;
          st = n.wait_status(cursor_nb(me, target, &cursor));
          if (st != rdma::OpStatus::ok) return true;
          // Order our upcoming slot reuse after the consumer's reads of the
          // previous record in this slot (pairs with its cursor release
          // store).
          std::atomic_thread_fence(std::memory_order_acquire);
          if (cursor > cached) cached = cursor;
          if (fits(seq, cached)) return true;
          count(Op::notify_retry);
          trace::emit(trace::EvClass::notify_post, trace::EvPhase::retry,
                      target, seq);
          return false;
        },
        [&] { return !dom.alive(target); });
    if (st != rdma::OpStatus::ok) return st;
    if (waited != rdma::OpStatus::ok) return waited;
  }

  st = n.wait_status(record_nb(me, target, seq, tag, tdisp, bytes));
  if (st != rdma::OpStatus::ok) return st;
  st = n.wait_status(stamp_nb(me, target, seq));
  if (st != rdma::OpStatus::ok) return st;
  count(Op::notify_posted);
  return rdma::OpStatus::ok;
}

bool NotifyPlane::drain(int me) {
  RankRing& ring = *rings_[static_cast<std::size_t>(me)];
  std::byte* base = ring.mem.data();
  bool progressed = false;
  while (true) {
    const std::byte* slot = base + 16 + kSlotBytes * (ring.head % cap_);
    if (load_word(slot + kStampOff, std::memory_order_acquire) !=
        ring.head + 1) {
      break;
    }
    // The stamp's acquire pairs with the producer-side release fence that
    // followed the body put, so these plain reads are ordered.
    NotifyRecord rec;
    rec.seq = ring.head;
    std::memcpy(&rec.tag, slot + kTagOff, 8);
    std::uint64_t src_bytes = 0;
    std::memcpy(&src_bytes, slot + kSrcBytesOff, 8);
    rec.source = static_cast<int>(src_bytes >> 32);
    rec.bytes = static_cast<std::uint32_t>(src_bytes);
    std::memcpy(&rec.tdisp, slot + kTdispOff, 8);
    ring.pending.push_back(rec);
    ++ring.head;
    count(Op::notify_consumed);
    progressed = true;
  }
  if (progressed) {
    // Republish the read cursor: frees the drained slots for producers
    // (their overflow path acquires against this release).
    std::atomic_ref<std::uint64_t>(
        *reinterpret_cast<std::uint64_t*>(base + kCursorOff))
        .store(ring.head, std::memory_order_release);
  }
  return progressed;
}

std::size_t NotifyPlane::match(int me, std::uint64_t tag, NotifyRecord* out,
                               std::size_t max) {
  RankRing& ring = *rings_[static_cast<std::size_t>(me)];
  std::size_t n = 0;
  for (auto it = ring.pending.begin(); it != ring.pending.end() && n < max;) {
    if (tag == kAnyNotifyTag || it->tag == tag) {
      out[n++] = *it;
      it = ring.pending.erase(it);
    } else {
      ++it;
    }
  }
  return n;
}

bool NotifyPlane::probe(int me, std::uint64_t tag, NotifyRecord* out) {
  drain(me);
  return match(me, tag, out, 1) == 1;
}

std::size_t NotifyPlane::waitsome(int me, std::uint64_t tag,
                                  NotifyRecord* out, std::size_t max,
                                  int source, rdma::OpStatus* status) {
  const trace::Span sp(trace::EvClass::notify_wait, source, tag);
  const rdma::Domain& dom = fabric_.domain();
  std::size_t n = 0;
  Backoff backoff;  // restarts whenever records arrive, matching or not
  // A producer stamps its records before its death mark, so the wait
  // drains once more after seeing the death before it reports it.
  const rdma::OpStatus st = dom.wait_until(
      [&] {
        if (drain(me)) backoff.reset();
        n = match(me, tag, out, max);
        return n > 0;
      },
      [&] { return source >= 0 && !dom.alive(source); }, &backoff);
  if (status != nullptr) {
    *status = st;
  } else if (st != rdma::OpStatus::ok) {
    raise(ErrClass::peer_dead, "notify wait: producing rank died");
  }
  return n;
}

std::uint64_t NotifyPlane::reserved(int me) const {
  return load_word(rings_[static_cast<std::size_t>(me)]->mem.data() +
                       kReserveOff,
                   std::memory_order_acquire);
}

std::uint64_t NotifyPlane::consumed(int me) const {
  return rings_[static_cast<std::size_t>(me)]->head;
}

// --- Scheduler --------------------------------------------------------------

namespace {
// Min-heap order of the deadline heaps.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.deadline > b.deadline;
};
}  // namespace

Scheduler::Scheduler(rdma::Nic& nic) : nic_(nic) {}

std::uint64_t Scheduler::issue_cost_ns(int ops) const noexcept {
  const rdma::Domain& dom = nic_.domain();
  return static_cast<std::uint64_t>(dom.model_ns(
      dom.config().model.doorbell_ns(static_cast<std::size_t>(ops), true)));
}

Fiber& Scheduler::adopt(std::unique_ptr<Fiber> fiber) {
  Fiber& f = *fiber;
  f.id_ = next_id_++;
  fibers_.push_back(std::move(fiber));
  runnable_.push_back(&f);
  ++live_;
  count(Op::fiber_spawn);
  return f;
}

void Scheduler::make_runnable(Fiber* f) {
  (f->priority_ ? urgent_ : runnable_).push_back(f);
}

void Scheduler::await_ready(Fiber& f) { ready_waits_.push_back(&f); }

void Scheduler::await_until(Fiber& f, std::uint64_t deadline) {
  // The NIC's latest reading instead of a fresh clock read: a ~35 ns read
  // per park is the difference between the saturated pipeline rate and
  // the closed-form model. A stale reading only parks a due fiber on the
  // heap, where the next poll wakes it. A due park is still a yield point
  // — the fiber goes to the back of the runnable queue, keeping
  // interleaving fair even when every op completes at issue.
  if (deadline <= nic_.last_now()) {
    make_runnable(&f);
    return;
  }
  auto& heap = f.priority_ ? prio_heap_ : heap_;
  heap.push_back(Parked{deadline, &f});
  std::push_heap(heap.begin(), heap.end(), kLater);
}

void Scheduler::await_backoff(Fiber& f, std::uint64_t delay_ns) {
  // A fresh read, not the NIC's latest: a backoff is a wall-time contract
  // and the latest reading can be arbitrarily stale on a quiet scheduler.
  await_until(f, nic_.now() + delay_ns);
}

bool Scheduler::admits(std::uint64_t cost_ns) {
  if (!urgent_.empty()) return false;
  if (prio_heap_.empty()) return true;
  // Work started now ends by the deadline iff the latest start, deadline -
  // cost, has not passed; a reading already past it refuses without a read.
  const std::uint64_t deadline = prio_heap_.front().deadline;
  return cost_ns <= deadline && !nic_.passed(deadline - cost_ns + 1);
}

bool Scheduler::wake_due(std::vector<Parked>& heap) {
  // Reads no clock: every woken deadline lies at or behind the NIC's
  // latest reading. Anything becoming due after that reading is caught by
  // the next poll.
  bool progressed = false;
  while (!heap.empty() && heap.front().deadline <= nic_.last_now()) {
    std::pop_heap(heap.begin(), heap.end(), kLater);
    make_runnable(heap.back().fiber);
    heap.pop_back();
    progressed = true;
  }
  return progressed;
}

bool Scheduler::poll_once() {
  // Due deadlines. At most one clock read covers both heaps: none when the
  // NIC's latest reading already settles the earlier front.
  if (!heap_.empty() || !prio_heap_.empty()) {
    std::uint64_t first = ~std::uint64_t{0};
    if (!heap_.empty()) first = heap_.front().deadline;
    if (!prio_heap_.empty()) first = std::min(first, prio_heap_.front().deadline);
    nic_.passed(first);
  }
  bool progressed = wake_due(prio_heap_);
  if (wake_due(heap_)) progressed = true;
  for (auto it = ready_waits_.begin(); it != ready_waits_.end();) {
    if ((*it)->poll_ready()) {
      make_runnable(*it);
      it = ready_waits_.erase(it);
      progressed = true;
    } else {
      ++it;
    }
  }
  return progressed;
}

void Scheduler::run() {
  const rdma::Domain& dom = nic_.domain();
  Backoff backoff;
  while (live_ > 0) {
    // A parked priority fiber is checked at every step boundary, so once
    // due it waits behind at most the step in progress. Without one this
    // is a single empty() test.
    if (!prio_heap_.empty() && nic_.passed(prio_heap_.front().deadline)) {
      wake_due(prio_heap_);
    }
    std::deque<Fiber*>& queue = urgent_.empty() ? runnable_ : urgent_;
    if (!queue.empty()) {
      Fiber* f = queue.front();
      queue.pop_front();
      ++switches_;
      // A chain of always-runnable fibers never reaches the idle path below;
      // a periodic yield step keeps even that loop abortable on peer death
      // without taxing every switch. No poll failed, so it neither spins
      // nor counts a retry.
      if ((switches_ & 63u) == 0) dom.yield_step();
      count(Op::fiber_switch);
      trace::emit(trace::EvClass::fiber, trace::EvPhase::begin, -1, f->id_);
      f->step(*this);
      if (f->done()) {
        --live_;
        trace::emit(trace::EvClass::fiber, trace::EvPhase::complete, -1,
                    f->id_);
      }
      backoff.reset();
      continue;
    }
    // Every fiber is parked. This is the engine's single suspension point:
    // a pass that woke nothing takes one back-off step, whose progress hook
    // keeps fault-kill semantics (a fleet abort unwinds out of run()), and
    // the back-off restarts whenever a wakeup fired. A parked priority
    // fiber is waited for as a blocking wait would be: the NIC waits for
    // the next deadline (Nic::wait_model_time), whose last read settles the
    // check at the top of the loop, and only every 64th pass takes a yield
    // step (no spin, no retry: the NIC's wait is the back-off).
    if (poll_once()) {
      backoff.reset();
      continue;
    }
    if (prio_heap_.empty()) {
      dom.backoff_step(backoff);
      continue;
    }
    std::uint64_t wait_to = prio_heap_.front().deadline;
    if (!heap_.empty()) wait_to = std::min(wait_to, heap_.front().deadline);
    if ((++idle_spins_ & 63u) == 0) dom.yield_step();
    nic_.wait_model_time(wait_to);
  }
}

}  // namespace fompi::fabric::progress
