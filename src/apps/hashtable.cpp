#include "apps/hashtable.hpp"

#include <atomic>

#include "common/buffer.hpp"

namespace fompi::apps {

namespace {

constexpr int kTagElem = 101;
constexpr int kTagDone = 102;

}  // namespace

DistHashtable::DistHashtable(fabric::RankCtx& ctx, HtBackend backend,
                             std::size_t table_slots, std::size_t heap_slots)
    : backend_(backend),
      nranks_(ctx.nranks()),
      rank_(ctx.rank()),
      table_slots_(table_slots),
      heap_slots_(heap_slots),
      layout_{/*base=*/0, table_slots, heap_slots},  // fig7a strides
      fabric_(&ctx.fabric()) {
  FOMPI_REQUIRE(table_slots_ > 0 && heap_slots_ > 0, ErrClass::arg,
                "hashtable needs nonzero capacities");
  switch (backend_) {
    case HtBackend::rma:
      win_ = core::Win::allocate(ctx, volume_bytes());
      win_.lock_all();  // passive epoch held for the table's lifetime
      break;
    case HtBackend::pgas:
      shared_.emplace(ctx, volume_bytes(), baselines::make_upc_like());
      break;
    case HtBackend::p2p: {
      // Local volume only; remote access travels in messages. A plain
      // window is still used as storage so that the layout helpers match.
      win_ = core::Win::allocate(ctx, volume_bytes());
      break;
    }
  }
  ctx.barrier();
}

void DistHashtable::destroy(fabric::RankCtx& ctx) {
  ctx.barrier();
  switch (backend_) {
    case HtBackend::rma:
      win_.unlock_all();
      win_.free();
      break;
    case HtBackend::pgas:
      shared_->destroy(ctx);
      shared_.reset();
      break;
    case HtBackend::p2p:
      win_.free();
      break;
  }
}

std::size_t DistHashtable::slot_of(std::uint64_t key) const {
  return static_cast<std::size_t>(kv::mix64(key) >> 32) % table_slots_;
}

int DistHashtable::owner_of(std::uint64_t key) const {
  return static_cast<int>(kv::mix64(key) %
                          static_cast<std::uint64_t>(nranks_));
}

// --- RMA backend -----------------------------------------------------------

void DistHashtable::insert_rma(std::uint64_t key) {
  const int owner = owner_of(key);
  const std::size_t slot = slot_of(key);
  const std::uint64_t one = 1;
  const std::uint64_t old = kv::claim_slot(win_, owner, layout_, slot, key);
  if (old == key) return;  // duplicate
  if (old != 0) {
    // Collision: acquire an overflow cell, fill it, link it at the head.
    const std::uint64_t idx = kv::acquire_cell(win_, owner, layout_);
    win_.put(&key, 8, owner, off_heap(static_cast<std::size_t>(idx)));
    kv::link_cell(win_, owner, layout_, slot, idx);
  }
  win_.accumulate(&one, 1, Elem::u64, RedOp::sum, owner, off_count());
}

// --- PGAS backend --------------------------------------------------------------

void DistHashtable::insert_pgas(std::uint64_t key) {
  const int owner = owner_of(key);
  const std::size_t slot = slot_of(key);
  const std::uint64_t old =
      shared_->amo_acswap(owner, off_table(slot), 0, key);
  if (old == key) return;
  if (old != 0) {
    const std::uint64_t idx = shared_->amo_aadd(owner, off_next_free(), 1);
    FOMPI_REQUIRE(idx < heap_slots_, ErrClass::no_mem,
                  "hashtable overflow heap exhausted");
    shared_->memput(owner, off_heap(static_cast<std::size_t>(idx)), &key, 8);
    while (true) {
      // UPC has no remote atomic read; an acswap with an impossible pair
      // acts as one (the paper's UPC code uses CAS loops the same way).
      const std::uint64_t head =
          shared_->amo_acswap(owner, off_chain(slot), ~0ull, ~0ull);
      shared_->memput(owner, off_heap(static_cast<std::size_t>(idx)) + 8,
                      &head, 8);
      shared_->fence();
      if (shared_->amo_acswap(owner, off_chain(slot), head, idx + 1) ==
          head) {
        break;
      }
    }
  }
  shared_->amo_aadd(owner, off_count(), 1);
}

// --- owner-local insert (p2p handler and local fast path) ---------------------

void DistHashtable::insert_local(std::uint64_t key) {
  auto* base = static_cast<std::byte*>(win_.base());
  auto word = [&](std::size_t off) {
    return std::atomic_ref<std::uint64_t>(
        *reinterpret_cast<std::uint64_t*>(base + off));
  };
  const std::size_t slot = slot_of(key);
  std::uint64_t expected = 0;
  if (word(off_table(slot)).compare_exchange_strong(expected, key)) {
    word(off_count()).fetch_add(1);
    return;
  }
  if (expected == key) return;
  const std::uint64_t idx = word(off_next_free()).fetch_add(1);
  FOMPI_REQUIRE(idx < heap_slots_, ErrClass::no_mem,
                "hashtable overflow heap exhausted");
  word(off_heap(static_cast<std::size_t>(idx))).store(key);
  while (true) {
    const std::uint64_t head = word(off_chain(slot)).load();
    word(off_heap(static_cast<std::size_t>(idx)) + 8).store(head);
    std::uint64_t h = head;
    if (word(off_chain(slot)).compare_exchange_strong(h, idx + 1)) break;
  }
  word(off_count()).fetch_add(1);
}

// --- batch driver -----------------------------------------------------------------

void DistHashtable::batch_insert(fabric::RankCtx& ctx,
                                 const std::vector<std::uint64_t>& keys) {
  for (const std::uint64_t k : keys) {
    FOMPI_REQUIRE(k != 0, ErrClass::arg, "hashtable keys must be nonzero");
  }
  switch (backend_) {
    case HtBackend::rma:
      for (const std::uint64_t k : keys) insert_rma(k);
      win_.flush_all();
      ctx.barrier();
      return;
    case HtBackend::pgas:
      for (const std::uint64_t k : keys) insert_pgas(k);
      shared_->fence();
      shared_->barrier();
      return;
    case HtBackend::p2p: {
      auto& p2p = fabric_->p2p();
      const std::uint64_t done_token = 0;
      // Interleave sending our batch with serving incoming elements.
      auto poll = [&] {
        fabric::Status st;
        while (p2p.iprobe(rank_, fabric::kAnySource, kTagElem, &st)) {
          std::uint64_t k = 0;
          p2p.recv(rank_, st.source, kTagElem, &k, 8);
          insert_local(k);
        }
      };
      for (const std::uint64_t k : keys) {
        const int owner = owner_of(k);
        if (owner == rank_) {
          insert_local(k);
        } else {
          p2p.send(rank_, owner, kTagElem, &k, 8);
        }
        poll();
      }
      // Termination detection: notify all other processes, then drain
      // until everyone's notification arrived (pairwise ordering makes
      // the DONE message a barrier for that sender's elements).
      for (int r = 0; r < nranks_; ++r) {
        if (r != rank_) p2p.send(rank_, r, kTagDone, &done_token, 8);
      }
      int dones = 0;
      while (dones < nranks_ - 1) {
        fabric::Status st;
        std::uint64_t payload = 0;
        p2p.recv(rank_, fabric::kAnySource, fabric::kAnyTag, &payload, 8,
                 &st);
        if (st.tag == kTagElem) {
          insert_local(payload);
        } else {
          ++dones;
        }
      }
      ctx.barrier();
      return;
    }
  }
}

// --- queries ------------------------------------------------------------------------

bool DistHashtable::chain_contains(int owner, std::size_t slot,
                                   std::uint64_t key) {
  if (backend_ == HtBackend::rma) {
    return kv::find_in_chain(win_, owner, layout_, slot, key) != 0;
  }
  auto read_remote = [&](std::size_t off) {
    std::uint64_t v = 0;
    shared_->memget(owner, off, &v, 8);
    shared_->fence();
    return v;
  };
  std::uint64_t head = read_remote(off_chain(slot));
  while (head != 0) {
    const std::size_t idx = static_cast<std::size_t>(head - 1);
    if (read_remote(off_heap(idx)) == key) return true;
    head = read_remote(off_heap(idx) + 8);
  }
  return false;
}

bool DistHashtable::chain_contains_local(std::size_t slot,
                                         std::uint64_t key) const {
  const auto* base =
      static_cast<const std::byte*>(const_cast<core::Win&>(win_).base());
  auto word = [&](std::size_t off) {
    return std::atomic_ref<const std::uint64_t>(
               *reinterpret_cast<const std::uint64_t*>(base + off))
        .load();
  };
  std::uint64_t head = word(off_chain(slot));
  while (head != 0) {
    const std::size_t idx = static_cast<std::size_t>(head - 1);
    if (word(off_heap(idx)) == key) return true;
    head = word(off_heap(idx) + 8);
  }
  return false;
}

bool DistHashtable::contains(std::uint64_t key) {
  const int owner = owner_of(key);
  const std::size_t slot = slot_of(key);
  if (backend_ == HtBackend::p2p) {
    FOMPI_REQUIRE(owner == rank_, ErrClass::arg,
                  "p2p backend supports local lookups only");
    auto* base = static_cast<std::byte*>(win_.base());
    const std::uint64_t top = std::atomic_ref<std::uint64_t>(
        *reinterpret_cast<std::uint64_t*>(base + off_table(slot)))
                                  .load();
    if (top == key) return true;
    return chain_contains_local(slot, key);
  }
  std::uint64_t top = 0;
  if (backend_ == HtBackend::rma) {
    top = kv::read_word(win_, owner, off_table(slot));
  } else {
    shared_->memget(owner, off_table(slot), &top, 8);
    shared_->fence();
  }
  if (top == key) return true;
  return chain_contains(owner, slot, key);
}

std::uint64_t DistHashtable::local_count() const {
  const auto* base = static_cast<const std::byte*>(
      backend_ == HtBackend::pgas
          ? const_cast<DistHashtable*>(this)->shared_->local()
          : const_cast<DistHashtable*>(this)->win_.base());
  return std::atomic_ref<const std::uint64_t>(
             *reinterpret_cast<const std::uint64_t*>(base + off_count()))
      .load();
}

std::uint64_t DistHashtable::global_count(fabric::RankCtx& ctx) {
  const std::uint64_t mine = local_count();
  std::uint64_t total = 0;
  ctx.allreduce(&mine, &total, 1,
                [](std::uint64_t a, std::uint64_t b) { return a + b; });
  return total;
}

}  // namespace fompi::apps
