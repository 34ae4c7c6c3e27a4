#include "rdma/nic.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "common/backoff.hpp"
#include "common/error.hpp"
#include "common/instr.hpp"
#include "common/timing.hpp"
#include "trace/trace.hpp"

namespace fompi::rdma {

const char* to_string(OpStatus st) noexcept {
  switch (st) {
    case OpStatus::ok:        return "ok";
    case OpStatus::pending:   return "pending";
    case OpStatus::retired:   return "retired";
    case OpStatus::timeout:   return "timeout";
    case OpStatus::cq_error:  return "cq_error";
    case OpStatus::peer_dead: return "peer_dead";
    case OpStatus::retry_routing: return "retry_routing";
    case OpStatus::data_loss:     return "data_loss";
  }
  return "unknown";
}

const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::none:             return "none";
    case FaultKind::nic_timeout:      return "nic_timeout";
    case FaultKind::cq_error:         return "cq_error";
    case FaultKind::dropped_doorbell: return "dropped_doorbell";
    case FaultKind::latency_spike:    return "latency_spike";
  }
  return "unknown";
}

namespace {

/// ErrClass the legacy (errors-are-fatal) completion APIs throw for a
/// typed op failure.
ErrClass err_class_of(OpStatus st) noexcept {
  switch (st) {
    case OpStatus::timeout:   return ErrClass::timeout;
    case OpStatus::cq_error:  return ErrClass::cq;
    case OpStatus::peer_dead: return ErrClass::peer_dead;
    case OpStatus::data_loss: return ErrClass::data_loss;
    default:                  return ErrClass::internal;
  }
}

[[noreturn]] void raise_status(OpStatus st, const char* where) {
  raise(err_class_of(st),
        std::string(where) + ": operation failed (" + to_string(st) + ")");
}

template <class Word>
bool word_aligned(const void* p) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) & (sizeof(Word) - 1)) == 0;
}

/// The aligned-word atomic dance shared by puts and gets: Gemini commits
/// naturally aligned 4- and 8-byte transfers as single atomic words, which
/// is what lets protocol flags written by puts be polled concurrently
/// without a data race.
template <class Word>
void store_word(void* dst, const void* src) noexcept {
  Word v;
  std::memcpy(&v, src, sizeof(Word));
  std::atomic_ref<Word>(*static_cast<Word*>(dst))
      .store(v, std::memory_order_release);
}

template <class Word>
void load_word(void* dst, const void* src) noexcept {
  const Word v = std::atomic_ref<const Word>(*static_cast<const Word*>(src))
                     .load(std::memory_order_acquire);
  std::memcpy(dst, &v, sizeof(Word));
}

/// Moves `len` bytes; aligned word-multiple spans go word-by-word through
/// CPU atomics, single 4-byte words cover i32 accumulate/CAS fallback
/// traffic. Word-atomic bulk transfers matter beyond flag words: a bulk
/// get can target a region whose words earlier AMOs touched atomically
/// (e.g. a dead rank's frozen shard image being drained), and reading
/// those words with one plain memcpy would be a mixed-atomicity race.
void place_bytes(void* dst, const void* src, std::size_t len) {
  if (len >= 8 && (len & 7) == 0 && word_aligned<std::uint64_t>(dst) &&
      word_aligned<std::uint64_t>(src)) {
    for (std::size_t i = 0; i < len; i += 8) {
      store_word<std::uint64_t>(static_cast<std::byte*>(dst) + i,
                                static_cast<const std::byte*>(src) + i);
    }
    return;
  }
  if (len == 4 && word_aligned<std::uint32_t>(dst) &&
      word_aligned<std::uint32_t>(src)) {
    store_word<std::uint32_t>(dst, src);
    return;
  }
  std::memcpy(dst, src, len);
}

void fetch_bytes(void* dst, const void* src, std::size_t len) {
  if (len >= 8 && (len & 7) == 0 && word_aligned<std::uint64_t>(dst) &&
      word_aligned<std::uint64_t>(src)) {
    for (std::size_t i = 0; i < len; i += 8) {
      load_word<std::uint64_t>(static_cast<std::byte*>(dst) + i,
                               static_cast<const std::byte*>(src) + i);
    }
    return;
  }
  if (len == 4 && word_aligned<std::uint32_t>(dst) &&
      word_aligned<std::uint32_t>(src)) {
    load_word<std::uint32_t>(dst, src);
    return;
  }
  std::memcpy(dst, src, len);
}

/// The fragment loop of a vectored op, kept out of line so the
/// single-fragment path of Nic::move_data stays small enough to inline.
[[gnu::noinline]] void move_frags(bool put, std::byte* remote,
                                  std::byte* local, const Frag* frags,
                                  std::size_t nfrags) {
  for (std::size_t i = 0; i < nfrags; ++i) {
    const Frag& f = frags[i];
    if (put) {
      place_bytes(remote + f.remote_off, local + f.local_off, f.len);
    } else {
      fetch_bytes(local + f.local_off, remote + f.remote_off, f.len);
    }
  }
}

}  // namespace

Nic::Nic(Domain& domain, int rank)
    : domain_(domain), rank_(rank), rng_(domain.config().seed + 0x9e37 * rank) {
  const NicConfig& nc = domain.config().nic;
  channels_ = std::max(1, nc.channels);
  auto_batch_ = nc.auto_batch;
  if (auto_batch_) batch_entries_.reserve(kBatchCapacity);

  const FaultPlan& plan = domain.config().fault;
  if (!plan.enabled()) return;
  fault_armed_ = true;
  if (plan.transient_faults_per_rank > 0) {
    // Per-rank fault stream: a pure function of (plan.seed, rank),
    // independent of the domain's workload seed so fault schedules don't
    // shift when a test changes its data pattern.
    Rng frng(plan.seed ^
             (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(rank) + 1)));
    fault_sched_.reserve(
        static_cast<std::size_t>(plan.transient_faults_per_rank));
    const std::uint64_t horizon = std::max<std::uint64_t>(1, plan.horizon_ops);
    const std::uint64_t repeat_span =
        static_cast<std::uint64_t>(std::max(1, plan.max_repeats));
    for (int i = 0; i < plan.transient_faults_per_rank; ++i) {
      FaultSite site;
      site.at_op = frng.below(horizon);
      switch (frng.below(4)) {
        case 0:  site.kind = FaultKind::nic_timeout; break;
        case 1:  site.kind = FaultKind::cq_error; break;
        case 2:  site.kind = FaultKind::dropped_doorbell; break;
        default: site.kind = FaultKind::latency_spike; break;
      }
      site.repeats = 1 + static_cast<int>(frng.below(repeat_span));
      fault_sched_.push_back(site);
    }
    std::stable_sort(fault_sched_.begin(), fault_sched_.end(),
                     [](const FaultSite& a, const FaultSite& b) {
                       return a.at_op < b.at_op;
                     });
  }
  update_next_fault_op();
}

void Nic::update_next_fault_op() noexcept {
  const FaultPlan& plan = domain_.config().fault;
  std::uint64_t next = fault_next_ < fault_sched_.size()
                           ? fault_sched_[fault_next_].at_op
                           : ~std::uint64_t{0};
  // The kill stays folded in unconditionally: it only leaves the schedule
  // by firing (which throws or parks), so next_fault_op_ must never move
  // past an unfired kill site.
  const std::uint64_t kill_at = plan.kill_at(rank_);
  if (kill_at < next) next = kill_at;
  next_fault_op_ = next;
}

Nic::FaultVerdict Nic::pre_issue_fault_slow(int target, bool is_read,
                                            std::uint64_t my_op) {
  const FaultPlan& plan = domain_.config().fault;

  // Scheduled death: this rank dies (or silently hangs) at the first
  // issued operation at-or-after its kill site (kill_rank or any
  // kills-list site). At-or-after, not exact equality: the site index is
  // normally hit exactly (issued_ops_ is per-rank monotone), but >= keeps
  // the death guaranteed even if a future issue path consumes op indices
  // without this check — a missed kill strands survivors that wait on the
  // death forever.
  if (my_op >= plan.kill_at(rank_)) {
    if (plan.hang_instead_of_kill) {
      // Park in an abortable spin: a silent hang, broken only by the
      // fabric hang watchdog (progress_check raises once the fleet
      // aborts).
      for (;;) {
        std::this_thread::yield();
        domain_.progress_check();
      }
    }
    domain_.mark_dead(rank_);
    trace::emit(trace::EvClass::fault, trace::EvPhase::complete, rank_,
                static_cast<std::uint64_t>(OpStatus::peer_dead));
    throw RankKilledError(rank_);
  }

  // Writes and mutating AMOs addressed to a dead rank retire with
  // peer_dead; reads of its frozen memory image succeed (fail-stop
  // recovery model, see Domain::alive). death_epoch() is a cheap monotonic
  // pre-filter so the common no-deaths case is one load.
  if (!is_read && domain_.death_epoch() != 0 && !domain_.alive(target)) {
    count(Op::op_failed);
    trace::emit(trace::EvClass::fault, trace::EvPhase::complete, target,
                static_cast<std::uint64_t>(OpStatus::peer_dead));
    return {OpStatus::peer_dead, 1.0};
  }

  // Scheduled faults at fixed op indices. Multiple sites on one index
  // compose in schedule order; sites shadowed by an earlier permanent
  // failure on the same index (at_op < my_op by the time we look again)
  // are consumed without firing.
  FaultVerdict v;
  while (fault_next_ < fault_sched_.size() &&
         fault_sched_[fault_next_].at_op <= my_op) {
    const FaultSite site = fault_sched_[fault_next_++];
    if (site.at_op != my_op) continue;
    if (site.kind == FaultKind::latency_spike) {
      count(Op::fault_injected);
      trace::emit(trace::EvClass::fault, trace::EvPhase::issue, target,
                  static_cast<std::uint64_t>(site.kind));
      v.latency_scale *= plan.spike_scale;
      continue;
    }
    // Bounded retransmission. Attempt k of the op is faulted while
    // k <= site.repeats; each faulted attempt below the retry budget
    // triggers one backed-off retry. The op survives iff
    // repeats <= retry_budget; counters are therefore an exact function
    // of the schedule: injections = min(repeats, budget + 1),
    // retries = min(repeats, budget), failed = (repeats > budget).
    Backoff backoff;
    int remaining = site.repeats;
    int retries = 0;
    while (remaining > 0) {
      --remaining;
      count(Op::fault_injected);
      trace::emit(trace::EvClass::fault, trace::EvPhase::issue, target,
                  static_cast<std::uint64_t>(site.kind));
      if (retries == plan.retry_budget) {
        count(Op::op_failed);
        const OpStatus st = site.kind == FaultKind::cq_error
                                ? OpStatus::cq_error
                                : OpStatus::timeout;
        trace::emit(trace::EvClass::fault, trace::EvPhase::complete, target,
                    static_cast<std::uint64_t>(st));
        v.status = st;
        update_next_fault_op();
        return v;
      }
      ++retries;
      count(Op::op_retried);
      trace::emit(trace::EvClass::fault, trace::EvPhase::retry, target,
                  static_cast<std::uint64_t>(site.kind));
      backoff.pause();
    }
  }
  update_next_fault_op();
  return v;
}

Handle Nic::make_failed_handle(OpStatus st, bool implicit) {
  if (implicit) {
    ++implicit_failed_;
    if (implicit_fail_status_ == OpStatus::ok) implicit_fail_status_ = st;
    return kDoneHandle;
  }
  const std::uint32_t idx = acquire_slot();
  PendingOp& op = slab_[idx].op;
  op.applied = true;  // nothing to apply: the op never reached the wire
  op.status = st;
  return encode(idx, slab_[idx].tag);
}

bool Nic::inter_node(int target) const noexcept {
  return !domain_.same_node(rank_, target);
}

// ---------------------------------------------------------------------------
// Throughput mode: doorbell coalescing and channel striping
// ---------------------------------------------------------------------------

void Nic::batch_begin() {
  if (batch_open_) {
    batch_explicit_ = true;  // adopt an open auto-batch scope
    return;
  }
  batch_open_ = true;
  batch_explicit_ = true;
  if (batch_entries_.capacity() < kBatchCapacity) {
    batch_entries_.reserve(kBatchCapacity);
  }
}

bool Nic::batch_accepts(std::size_t len) noexcept {
  // BTE-sized transfers own their doorbell (the bulk engine is not part of
  // an FMA descriptor chain), so they bypass the batch in every mode.
  if (len >= domain_.config().model.bte_threshold) return false;
  if (batch_open_) return true;
  // auto_batch: the first batchable op between sync points opens a scope.
  batch_open_ = true;
  batch_explicit_ = false;
  return true;
}

void Nic::batch_enqueue(const BatchEntry& e, bool inter) {
  count(Op::batched_op);
  if (inter) batch_inter_ = true;
  if (batch_entries_.size() == batch_entries_.capacity()) {
    count(Op::pool_grow);
  }
  batch_entries_.push_back(e);
  if (++batch_ndesc_ < kBatchCapacity) return;
  // A full chain rings its doorbell. An explicit scope stays open for the
  // rest of its ops; an auto scope reopens on the next batchable op.
  const bool keep = batch_explicit_;
  batch_flush();
  batch_open_ = keep;
  batch_explicit_ = keep;
}

void Nic::batch_flush() {
  if (!batch_open_) return;
  batch_open_ = false;
  batch_explicit_ = false;
  const std::size_t n = batch_ndesc_;
  batch_ndesc_ = 0;
  const bool inter = batch_inter_;
  batch_inter_ = false;
  if (n == 0) return;
  ++doorbells_;
  count(Op::doorbell_ring);

  // One doorbell for the whole chain: the injection overhead is charged
  // once, plus batch_chain_ns per extra descriptor — drained round-robin
  // over the configured channels (per-channel ordering preserved). As for
  // an unbatched op, the overhead overlaps the wire: each descriptor
  // completes the chain plus its own latency after the doorbell starts,
  // so a one-descriptor doorbell lands when the same op unbatched would.
  // An explicit scope posts its chain back to back, so its doorbell starts
  // at the chain's first post, and the host time spent posting the rest
  // falls inside the modeled overhead and chain instead of adding to them.
  // An auto scope spans whatever code runs between sync points, so its
  // doorbell starts here.
  std::uint64_t start = 0;
  std::uint64_t doorbell_ns = 0;
  std::uint64_t chain_ns = 0;
  const DomainConfig& cfg = domain_.config();
  if (cfg.inject == Injection::model) {
    doorbell_ns = static_cast<std::uint64_t>(
        domain_.model_ns(cfg.model.doorbell_ns(n, inter, channels_)));
    chain_ns = static_cast<std::uint64_t>(
        domain_.model_ns(cfg.model.batch_chain_latency_ns(n, channels_)));
    start = batch_start_ != 0 ? batch_start_ : now_ns();
    modeled_ns_ += doorbell_ns;
  }
  batch_start_ = 0;
  const std::uint64_t doorbell_end = start + doorbell_ns;
  for (const BatchEntry& e : batch_entries_) {
    PendingOp* op = nullptr;
    if (e.slot != BatchEntry::kNoSlot2) {
      op = &slab_[e.slot].op;
    } else if (e.implicit_idx != BatchEntry::kNoSlot2) {
      op = &implicit_ops_[e.implicit_idx];
    }
    const std::uint64_t done = start + chain_ns + e.lat_ns;
    if (op != nullptr) {
      op->batch_pending = false;
      op->complete_at = done;
    }
    if (done > latest_complete_at_) latest_complete_at_ = done;
  }
  batch_entries_.clear();
  trace::emit(trace::EvClass::batch, trace::EvPhase::doorbell, -1, n,
              doorbell_ns, doorbell_end);
  // The origin is busy until the doorbell write retires; the wait routes
  // through the domain progress hook, so a batched spin still aborts on a
  // dead fleet (Fabric::yield_check).
  wait_model_time(doorbell_end);
}

void Nic::wait_model_time(std::uint64_t deadline) const {
  if (domain_.config().inject != Injection::model) return;
  // A long wait is an unbounded (minutes under large time_scale) completion
  // spin: yield and poll the domain's progress hook so a peer failure
  // aborts the wait instead of letting the fleet hang on a dead rank. The
  // last 5 us busy-spin to the absolute deadline, for timing fidelity.
  constexpr std::uint64_t kPoliteThreshold = 5'000;  // 5 us
  std::uint64_t t = now_ns();
  while (t + kPoliteThreshold < deadline) {
    std::this_thread::yield();
    domain_.progress_check();
    t = now_ns();
  }
  while (t < deadline) t = now_ns();
}

void Nic::charge_model_ns(double ns) {
  const auto busy =
      static_cast<std::uint64_t>(std::max(0.0, domain_.model_ns(ns)));
  if (busy == 0) return;
  modeled_ns_ += busy;
  const std::uint64_t done = now_ns() + busy;
  if (done > latest_complete_at_) latest_complete_at_ = done;
  wait_model_time(done);
}

void Nic::PendingOp::stage(const OpReq& r) {
  if (r.frags != nullptr) {
    if (r.nfrags > frags_.capacity()) count(Op::pool_grow);
    frags_.assign(r.frags, r.frags + r.nfrags);
  }
  if (r.kind != Kind::put) return;  // gets and AMOs carry no payload
  staged_len = r.len;
  std::byte* dst = stage_.data();
  if (r.len > kInlineStage) {
    if (r.len > spill_.capacity()) count(Op::pool_grow);
    spill_.resize(r.len);
    dst = spill_.data();
  }
  const auto* src = static_cast<const std::byte*>(r.local);
  if (r.frags == nullptr) {
    std::memcpy(dst, src, r.len);
    return;
  }
  std::size_t pos = 0;
  for (Frag& f : frags_) {
    std::memcpy(dst + pos, src + f.local_off, f.len);
    f.local_off = pos;
    pos += f.len;
  }
}

void Nic::move_data(const OpReq& r, std::byte* remote, void* local,
                    const Frag* frags) {
  auto* lbase = static_cast<std::byte*>(local);
  if (frags != nullptr) {
    move_frags(r.kind == Kind::put, remote, lbase, frags, r.nfrags);
  } else if (r.kind == Kind::put) {
    place_bytes(remote, lbase, r.len);
  } else if (r.kind == Kind::get) {
    if (r.len != 0) fetch_bytes(lbase, remote, r.len);
  } else {
    const std::uint64_t prev = apply_amo(remote, r.aop, r.operand, r.compare);
    if (r.fetch_out != nullptr) *r.fetch_out = prev;
  }
  // Publish the effect: pairs with acquire loads in readers polling the
  // target memory (protocol counters are read with atomics anyway; this
  // fence covers plain payload reads after synchronization).
  std::atomic_thread_fence(std::memory_order_release);
}

trace::EvClass Nic::ev_class(const OpReq& r) noexcept {
  // Kind's values are the op classes', so the mapping is a cast.
  static_assert(static_cast<int>(trace::EvClass::put) ==
                    static_cast<int>(Kind::put) &&
                static_cast<int>(trace::EvClass::get) ==
                    static_cast<int>(Kind::get) &&
                static_cast<int>(trace::EvClass::amo) ==
                    static_cast<int>(Kind::amo));
  return r.frags != nullptr ? trace::EvClass::vectored
                            : static_cast<trace::EvClass>(r.kind);
}

void Nic::apply(PendingOp& op) {
  if (op.applied) return;
  op.applied = true;
  const OpReq& r = op.req;
  move_data(r, op.remote,
            r.kind == Kind::put ? const_cast<std::byte*>(op.staged_data())
                                : r.local,
            r.frags != nullptr ? op.frags_.data() : nullptr);
}

std::byte* Nic::resolve_cached(std::uint64_t rkey, int expected_owner,
                               std::size_t offset, std::size_t len) {
  count(Op::validation_check);
  RkeyEntry& e = rkey_cache_[rkey & (kRkeyCacheSize - 1)];
  // Read the generation BEFORE any locked lookup: a register/deregister
  // racing with the fill lands the entry with a stale generation, so the
  // next access revalidates instead of trusting a possibly-freed mapping.
  const std::uint64_t gen = domain_.registry().generation();
  if (e.rkey == rkey && e.gen == gen) {
    count(Op::rkey_cache_hit);
  } else {
    count(Op::rkey_cache_miss);
    RegionSnapshot snap;
    FOMPI_REQUIRE(domain_.registry().snapshot(rkey, &snap),
                  ErrClass::rma_range, "access to unregistered region");
    e.rkey = rkey;
    e.gen = gen;
    e.base = snap.base;
    e.size = snap.size;
    e.owner = snap.owner;
  }
  FOMPI_REQUIRE(e.owner == expected_owner, ErrClass::rma_range,
                "rkey does not belong to the addressed rank");
  FOMPI_REQUIRE(offset <= e.size && len <= e.size - offset,
                ErrClass::rma_range, "RMA access outside registered region");
  return e.base + offset;
}

std::uint32_t Nic::acquire_slot() {
  std::uint32_t idx;
  if (free_head_ != kNoSlot) {
    idx = free_head_;
    free_head_ = slab_[idx].next_free;
  } else {
    count(Op::pool_grow);
    idx = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Slot& s = slab_[idx];
  s.live = true;
  s.op.reset();
  ++explicit_live_;
  return idx;
}

void Nic::release_slot(std::uint32_t index) {
  Slot& s = slab_[index];
  s.live = false;
  if (++s.tag == 0) s.tag = 1;  // tag 0 must stay permanently invalid
  s.next_free = free_head_;
  free_head_ = index;
  --explicit_live_;
}

Nic::Slot* Nic::lookup(Handle h) {
  const std::uint32_t idx = static_cast<std::uint32_t>(h);
  const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
  if (idx >= slab_.size()) return nullptr;
  Slot& s = slab_[idx];
  if (!s.live || s.tag != tag) return nullptr;
  return &s;
}

Nic::PendingOp& Nic::acquire_implicit() {
  if (implicit_count_ == implicit_ops_.size()) {
    count(Op::pool_grow);
    implicit_ops_.emplace_back();
  }
  PendingOp& op = implicit_ops_[implicit_count_++];
  op.reset();
  return op;
}

Handle Nic::issue(int target, const RegionDesc& rd, std::size_t offset,
                  std::size_t span, const OpReq& req) {
  const DomainConfig& cfg = domain_.config();
  const bool inter = inter_node(target);
  const bool vectored = req.frags != nullptr;
  std::byte* remote = resolve_cached(rd.rkey, target, offset, span);

  // Fault plan gate: one predictable branch when disarmed. A permanent
  // failure retires the op here — before the transport counters — so the
  // transport_* counts only ever reflect ops that reached the wire. A
  // vectored op is one op behind one doorbell: it faults as one unit.
  double fault_scale = 1.0;
  if (fault_armed_) {
    const bool is_read =
        req.kind == Kind::get ||
        (req.kind == Kind::amo && req.aop == AmoOp::read);
    const FaultVerdict fv = pre_issue_fault(target, is_read);
    if (fv.status != OpStatus::ok) {
      return make_failed_handle(fv.status, req.implicit);
    }
    fault_scale = fv.latency_scale;
  }

  // One transport op regardless of fragment count.
  switch (req.kind) {
    case Kind::put: count(Op::transport_put); break;
    case Kind::get: count(Op::transport_get); break;
    case Kind::amo:
      count(inter ? Op::transport_amo : Op::local_atomic);
      break;
  }
  if (vectored) count(Op::vectored_op);
  if (req.len != 0) count(Op::bytes_copied, req.len);

  // Throughput mode: a contiguous FMA-sized op inside a batch scope
  // (explicit or auto) skips its private doorbell; completion times are
  // assigned when batch_flush rings the shared one. A vectored op is
  // already one chained doorbell and keeps it. One predictable branch
  // when idle.
  bool batched = false;
  if ((batch_open_ || auto_batch_) && !vectored) {
    batched = batch_accepts(req.len);
  }

  // Model time accounting: only the injection mode consults the clock; the
  // functional mode (Injection::none) runs the pure software path.
  std::uint64_t complete_at = 0;
  std::uint64_t model_lat = 0;
  if (cfg.inject == Injection::model) {
    const NetworkModel& m = cfg.model;
    double overhead_ns = 0.0;
    double latency_ns = 0.0;
    if (inter) {
      // Payloads stripe over the channels once they cross into BTE
      // territory, vectored or not.
      overhead_ns = m.inter_overhead_ns;
      switch (req.kind) {
        case Kind::put:
          latency_ns = m.put_striped_latency_ns(req.len, channels_);
          break;
        case Kind::get:
          latency_ns = m.get_striped_latency_ns(req.len, channels_);
          break;
        case Kind::amo:
          latency_ns = m.amo_latency_ns();
          break;
      }
      if (channels_ > 1 && req.len >= m.bte_threshold &&
          req.kind != Kind::amo) {
        count(Op::channel_stripe);
        trace::emit(trace::EvClass::channel, trace::EvPhase::issue, target,
                    static_cast<std::uint64_t>(channels_));
      }
    } else {
      overhead_ns = m.intra_overhead_ns;
      latency_ns = req.kind == Kind::amo ? m.intra_amo_ns
                                         : m.intra_latency_ns(req.len);
    }
    if (vectored) latency_ns += m.vec_chain_latency_ns(req.nfrags);
    const double scale = cfg.time_scale;
    model_lat = static_cast<std::uint64_t>(latency_ns * scale * fault_scale);
    if (!batched) {
      // Not wait_model_time: the overhead spin never raises.
      const std::uint64_t issue_start = now_ns();
      const auto busy = static_cast<std::uint64_t>(overhead_ns * scale);
      modeled_ns_ += busy;
      spin_until_ns(issue_start + busy);
      complete_at = issue_start + model_lat;
      latest_complete_at_ = std::max(latest_complete_at_, complete_at);
    } else if (batch_ndesc_ == 0 && batch_explicit_) {
      // The first post of an explicit chain opens its doorbell window,
      // read where an unbatched op reads its issue start (batch_flush).
      batch_start_ = now_ns();
    }
  }

  // Data movement -----------------------------------------------------------
  // Intra-node ("XPMEM") ops are CPU loads/stores: always applied at issue.
  // Inter-node ops are applied at issue under immediate delivery, and
  // postponed to completion under deferred delivery.
  const bool defer = inter && cfg.delivery == Delivery::deferred;
  // `issue` = data moved at issue; `doorbell` = handed to the wire, remote
  // memory commits at sim_ns (deferred delivery).
  trace::emit(ev_class(req),
              defer ? trace::EvPhase::doorbell : trace::EvPhase::issue,
              target, req.len, model_lat, complete_at);
  if (!defer) {
    move_data(req, remote, req.local, req.frags);
    if (req.implicit) {
      ++implicit_live_;
      if (batched) {
        // No pooled record: only the batch's completion horizon matters.
        batch_enqueue({BatchEntry::kNoSlot2, BatchEntry::kNoSlot2, model_lat},
                      inter);
      }
      return kDoneHandle;
    }
    if (cfg.inject == Injection::model) {
      // Data already placed; the handle still completes at the modeled
      // time.
      const std::uint32_t idx = acquire_slot();
      PendingOp& op = slab_[idx].op;
      op.req = {req.kind};  // contiguous, len 0: what its retirement traces
      op.applied = true;
      op.complete_at = complete_at;
      const Handle h = encode(idx, slab_[idx].tag);
      if (batched) {
        op.batch_pending = true;
        batch_enqueue({idx, BatchEntry::kNoSlot2, model_lat}, inter);
      }
      return h;
    }
    if (batched) {
      batch_enqueue({BatchEntry::kNoSlot2, BatchEntry::kNoSlot2, 0}, inter);
    }
    return kDoneHandle;
  }

  // Deferred: one pooled record covers the whole op; data moves at
  // completion. Real NICs read the put source asynchronously; staging the
  // payload at issue models a NIC that has already DMA-read the source,
  // keeping the (legal) late-visibility behaviour at the target only.
  std::uint32_t idx = kNoSlot;
  PendingOp* op;
  if (req.implicit) {
    op = &acquire_implicit();
  } else {
    idx = acquire_slot();
    op = &slab_[idx].op;
  }
  op->req = req;
  op->remote = remote;
  op->complete_at = complete_at;
  op->batch_pending = batched;
  if (req.kind == Kind::put || vectored) op->stage(req);
  if (req.implicit) {
    ++implicit_live_;
    if (batched) {
      batch_enqueue({BatchEntry::kNoSlot2,
                     static_cast<std::uint32_t>(implicit_count_ - 1),
                     model_lat},
                    inter);
    }
    return kDoneHandle;
  }
  const Handle h = encode(idx, slab_[idx].tag);
  if (batched) batch_enqueue({idx, BatchEntry::kNoSlot2, model_lat}, inter);
  return h;
}

Handle Nic::issue_frags(int target, const RegionDesc& rd, std::size_t base_off,
                        std::size_t span_len, Kind kind, bool implicit,
                        const void* local_base, const Frag* frags,
                        std::size_t nfrags) {
  if (nfrags == 0) return kDoneHandle;
  OpReq req;
  req.kind = kind;
  req.implicit = implicit;
  req.local = const_cast<void*>(local_base);
  req.frags = frags;
  req.nfrags = nfrags;
  for (std::size_t i = 0; i < nfrags; ++i) req.len += frags[i].len;
  return issue(target, rd, base_off, span_len, req);
}

Handle Nic::put_nbv(int target, const RegionDesc& rd, std::size_t base_off,
                    std::size_t span_len, const void* local_base,
                    const Frag* frags, std::size_t nfrags) {
  return issue_frags(target, rd, base_off, span_len, Kind::put,
                     /*implicit=*/false, local_base, frags, nfrags);
}

Handle Nic::get_nbv(int target, const RegionDesc& rd, std::size_t base_off,
                    std::size_t span_len, void* local_base, const Frag* frags,
                    std::size_t nfrags) {
  return issue_frags(target, rd, base_off, span_len, Kind::get,
                     /*implicit=*/false, local_base, frags, nfrags);
}

void Nic::put_nbiv(int target, const RegionDesc& rd, std::size_t base_off,
                   std::size_t span_len, const void* local_base,
                   const Frag* frags, std::size_t nfrags) {
  issue_frags(target, rd, base_off, span_len, Kind::put, /*implicit=*/true,
              local_base, frags, nfrags);
}

void Nic::get_nbiv(int target, const RegionDesc& rd, std::size_t base_off,
                   std::size_t span_len, void* local_base, const Frag* frags,
                   std::size_t nfrags) {
  issue_frags(target, rd, base_off, span_len, Kind::get, /*implicit=*/true,
              local_base, frags, nfrags);
}

Handle Nic::put_nb(int target, const RegionDesc& rd, std::size_t offset,
                   const void* src, std::size_t len) {
  OpReq req;
  req.kind = Kind::put;
  req.local = const_cast<void*>(src);
  req.len = len;
  return issue(target, rd, offset, len, req);
}

Handle Nic::get_nb(int target, const RegionDesc& rd, std::size_t offset,
                   void* dst, std::size_t len) {
  OpReq req;
  req.kind = Kind::get;
  req.local = dst;
  req.len = len;
  return issue(target, rd, offset, len, req);
}

Handle Nic::amo_nb(int target, const RegionDesc& rd, std::size_t offset,
                   AmoOp aop, std::uint64_t operand, std::uint64_t compare,
                   std::uint64_t* fetch_out) {
  OpReq req;
  req.kind = Kind::amo;
  req.len = 8;
  req.aop = aop;
  req.operand = operand;
  req.compare = compare;
  req.fetch_out = fetch_out;
  return issue(target, rd, offset, 8, req);
}

void Nic::put_nbi(int target, const RegionDesc& rd, std::size_t offset,
                  const void* src, std::size_t len) {
  OpReq req;
  req.kind = Kind::put;
  req.implicit = true;
  req.local = const_cast<void*>(src);
  req.len = len;
  issue(target, rd, offset, len, req);
}

void Nic::get_nbi(int target, const RegionDesc& rd, std::size_t offset,
                  void* dst, std::size_t len) {
  OpReq req;
  req.kind = Kind::get;
  req.implicit = true;
  req.local = dst;
  req.len = len;
  issue(target, rd, offset, len, req);
}

void Nic::amo_nbi(int target, const RegionDesc& rd, std::size_t offset,
                  AmoOp aop, std::uint64_t operand, std::uint64_t compare) {
  OpReq req;
  req.kind = Kind::amo;
  req.implicit = true;
  req.len = 8;
  req.aop = aop;
  req.operand = operand;
  req.compare = compare;
  issue(target, rd, offset, 8, req);
}

void Nic::put(int target, const RegionDesc& rd, std::size_t offset,
              const void* src, std::size_t len) {
  wait(put_nb(target, rd, offset, src, len));
}

void Nic::get(int target, const RegionDesc& rd, std::size_t offset, void* dst,
              std::size_t len) {
  wait(get_nb(target, rd, offset, dst, len));
}

std::uint64_t Nic::amo(int target, const RegionDesc& rd, std::size_t offset,
                       AmoOp aop, std::uint64_t operand,
                       std::uint64_t compare) {
  std::uint64_t fetched = 0;
  wait(amo_nb(target, rd, offset, aop, operand, compare, &fetched));
  return fetched;
}

// Inline: it folds into wait_status/test_status, so retiring a handle
// costs no call frame of its own on the blocking fast path.
inline OpStatus Nic::retire(Handle h) {
  const auto idx = static_cast<std::uint32_t>(h);
  PendingOp& op = slab_[idx].op;
  const OpStatus st = op.status;
  if (st == OpStatus::ok) {
    apply(op);
    trace::emit(ev_class(op.req), trace::EvPhase::complete, -1, op.req.len, 0,
                op.complete_at);
  }
  release_slot(idx);
  return st;
}

bool Nic::test(Handle h) {
  OpStatus st = OpStatus::ok;
  if (!test_status(h, &st)) return false;
  FOMPI_REQUIRE(st != OpStatus::retired, ErrClass::arg,
                "test: unknown handle");
  if (st != OpStatus::ok) raise_status(st, "test");
  return true;
}

void Nic::wait(Handle h) {
  const OpStatus st = wait_status(h);
  FOMPI_REQUIRE(st != OpStatus::retired, ErrClass::arg,
                "wait: unknown handle");
  if (st != OpStatus::ok) raise_status(st, "wait");
}

bool Nic::test_status(Handle h, OpStatus* out) {
  FOMPI_REQUIRE(out != nullptr, ErrClass::arg, "test_status: null out");
  if (h == kDoneHandle) {
    *out = OpStatus::ok;
    return true;
  }
  Slot* s = lookup(h);
  if (s == nullptr) {
    // Stale or double-waited handle: retires with a typed status instead
    // of throwing (or worse, aliasing a recycled slot — the ABA tag rules
    // that out).
    *out = OpStatus::retired;
    return true;
  }
  // Probing a batched op forces its doorbell (MPI progress): the op cannot
  // complete while it sits behind an unrung doorbell.
  if (s->op.batch_pending) batch_flush();
  if (s->op.status == OpStatus::ok &&
      domain_.config().inject == Injection::model &&
      now_ns() < s->op.complete_at) {
    *out = OpStatus::pending;
    return false;
  }
  *out = retire(h);
  return true;
}

OpStatus Nic::wait_status(Handle h) {
  if (h == kDoneHandle) return OpStatus::ok;
  Slot* s = lookup(h);
  if (s == nullptr) return OpStatus::retired;
  if (s->op.batch_pending) batch_flush();
  if (s->op.status == OpStatus::ok) wait_model_time(s->op.complete_at);
  return retire(h);
}

std::uint64_t Nic::completion_deadline(Handle h) {
  if (h == kDoneHandle) return 0;
  Slot* s = lookup(h);
  if (s == nullptr) return 0;  // stale: wait_status retires it immediately
  if (s->op.batch_pending) batch_flush();
  if (s->op.status != OpStatus::ok) return 0;  // typed failure, ready now
  if (domain_.config().inject != Injection::model) return 0;
  return s->op.complete_at;
}

void Nic::gsync() {
  const OpStatus st = gsync_status();
  if (st != OpStatus::ok) raise_status(st, "gsync");
}

OpStatus Nic::gsync_status() {
  // An open batch (explicit or auto) is flushed before bulk completion:
  // this is what guarantees flush/fence/unlock/complete — which all route
  // through gsync — ring every outstanding doorbell (MPI RMA semantics).
  batch_flush();
  count(Op::bulk_sync);
  const trace::Span sp(trace::EvClass::bulk_sync, -1, outstanding());
  // Drain deferred operations, optionally in shuffled order to model the
  // absence of network ordering guarantees. Explicit handles stay valid for
  // a later test/wait; their data movement happens here at the latest.
  drain_scratch_.clear();
  for (std::size_t i = 0; i < implicit_count_; ++i) {
    drain_scratch_.push_back(&implicit_ops_[i]);
  }
  if (explicit_live_ != 0) {
    for (Slot& s : slab_) {
      if (s.live) drain_scratch_.push_back(&s.op);
    }
  }
  if (domain_.config().shuffle_deferred && drain_scratch_.size() > 1) {
    for (std::size_t i = drain_scratch_.size() - 1; i > 0; --i) {
      std::swap(drain_scratch_[i], drain_scratch_[rng_.below(i + 1)]);
    }
  }
  for (PendingOp* op : drain_scratch_) apply(*op);
  implicit_count_ = 0;
  wait_model_time(latest_complete_at_);
  implicit_live_ = 0;
  local_fence();
  // Surface the first implicit-op failure recorded since the previous
  // gsync, then reset: each bulk-completion epoch reports independently.
  const OpStatus st = implicit_fail_status_;
  implicit_fail_status_ = OpStatus::ok;
  implicit_failed_ = 0;
  return st;
}

void Nic::local_fence() {
  count(Op::memory_fence);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

Domain::Domain(DomainConfig cfg) : cfg_(cfg) {
  FOMPI_REQUIRE(cfg_.nranks >= 1, ErrClass::arg, "Domain needs >= 1 rank");
  FOMPI_REQUIRE(cfg_.ranks_per_node >= 0, ErrClass::arg,
                "ranks_per_node must be >= 0");
  dead_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(cfg_.nranks));
  for (int r = 0; r < cfg_.nranks; ++r) {
    dead_[static_cast<std::size_t>(r)].store(false, std::memory_order_relaxed);
  }
  nics_.reserve(static_cast<std::size_t>(cfg_.nranks));
  for (int r = 0; r < cfg_.nranks; ++r) {
    nics_.push_back(std::make_unique<Nic>(*this, r));
  }
}

Nic& Domain::nic(int rank) {
  FOMPI_REQUIRE(rank >= 0 && rank < cfg_.nranks, ErrClass::rank,
                "Domain::nic rank out of range");
  return *nics_[static_cast<std::size_t>(rank)];
}

}  // namespace fompi::rdma
