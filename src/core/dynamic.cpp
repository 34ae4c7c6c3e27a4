// Dynamic windows (Sec 2.2, "Dynamic Windows").
//
// attach/detach are non-collective: the owner maintains a directory of
// exposed regions in its control block and bumps an id counter on every
// change. Origins address dynamic windows by absolute remote address and
// keep a per-target descriptor cache. Two coherence protocols:
//   * DynMode::id_counter (the paper's base design): before every access
//     the origin reads the target's id with one remote read; on mismatch
//     it refetches the directory with one-sided reads (seqlock-style:
//     id / directory / id, retry while they differ).
//   * DynMode::notify (the paper's optimized variant): origins register in
//     the target's cacher list; detach pushes an invalidation flag to all
//     registered cachers and discards the list, so the common-case access
//     needs only a local flag check. Better latency, small memory overhead,
//     suboptimal for frequent detaches — the trade-off quoted in the paper
//     and measured by bench_ablation_dynamic.
#include "core/window.hpp"

#include <cstring>

#include "common/instr.hpp"
#include "core/win_internal.hpp"

namespace fompi::core {

void Win::attach(void* base, std::size_t bytes) {
  Shared& s = sh();
  RankState& rs = st();
  FOMPI_REQUIRE(s.kind == WinKind::dynamic, ErrClass::win,
                "attach requires a dynamic window");
  FOMPI_REQUIRE(base != nullptr && bytes > 0, ErrClass::arg,
                "attach: empty region");
  const auto addr = reinterpret_cast<std::uint64_t>(base);
  for (const auto& [b, att] : rs.attached) {
    const auto a = reinterpret_cast<std::uint64_t>(b);
    FOMPI_REQUIRE(addr + bytes <= a || a + att.size <= addr,
                  ErrClass::rma_attach,
                  "attach: region overlaps an attached region");
  }
  const rdma::RegionDesc desc =
      s.fabric->domain().registry().register_region(rank_, base, bytes);
  // Find a free directory slot (we are the only writer of our directory).
  const CtrlLayout& L = s.layout;
  int slot = -1;
  for (int i = 0; i < L.max_dyn; ++i) {
    if (s.ctrl_word(rank_, L.dyndir_off(i) + 24)
            .load(std::memory_order_acquire) == 0) {
      slot = i;
      break;
    }
  }
  if (slot < 0) {
    s.fabric->domain().registry().deregister(desc.rkey);
    raise(ErrClass::rma_attach,
          "attach: directory full (raise WinConfig::max_dyn_regions)");
  }
  const std::size_t off = L.dyndir_off(slot);
  s.ctrl_word(rank_, off + 0).store(addr, std::memory_order_relaxed);
  s.ctrl_word(rank_, off + 8).store(bytes, std::memory_order_relaxed);
  s.ctrl_word(rank_, off + 16).store(desc.rkey, std::memory_order_relaxed);
  s.ctrl_word(rank_, off + 24).store(1, std::memory_order_release);
  s.ctrl_word(rank_, CtrlLayout::kDynId)
      .fetch_add(1, std::memory_order_acq_rel);
  rs.attached.emplace(base, RankState::Attached{desc.rkey, slot, bytes});
}

void Win::detach(void* base) {
  Shared& s = sh();
  RankState& rs = st();
  FOMPI_REQUIRE(s.kind == WinKind::dynamic, ErrClass::win,
                "detach requires a dynamic window");
  const auto it = rs.attached.find(base);
  FOMPI_REQUIRE(it != rs.attached.end(), ErrClass::rma_attach,
                "detach: region was not attached");
  const CtrlLayout& L = s.layout;
  const std::size_t off = L.dyndir_off(it->second.slot);
  s.ctrl_word(rank_, off + 24).store(0, std::memory_order_release);
  s.ctrl_word(rank_, CtrlLayout::kDynId)
      .fetch_add(1, std::memory_order_acq_rel);
  s.fabric->domain().registry().deregister(it->second.rkey);
  rs.attached.erase(it);

  if (s.cfg.dyn_mode == DynMode::notify) {
    // Push an invalidation to every registered cacher, then discard the
    // cacher list (it rebuilds on the cachers' next access).
    rdma::Nic& n = nic();
    for (int i = 0; i < L.max_cachers; ++i) {
      auto slot_word = s.ctrl_word(rank_, L.cachers_off(i));
      const std::uint64_t v = slot_word.exchange(0, std::memory_order_acq_rel);
      if (v == 0) continue;
      const int cacher = static_cast<int>(v - 1);
      n.amo(cacher, s.ctrl_desc[static_cast<std::size_t>(cacher)],
            CtrlLayout::kDynInval, rdma::AmoOp::swap, 1);
    }
  }
}

void Win::refresh_dyn_cache(int target) {
  Shared& s = sh();
  RankState& rs = st();
  const CtrlLayout& L = s.layout;
  rdma::Nic& n = nic();
  const auto& tdesc = s.ctrl_desc[static_cast<std::size_t>(target)];
  auto& cache = rs.dyn_cache[static_cast<std::size_t>(target)];
  std::vector<std::uint64_t> dir(4 * static_cast<std::size_t>(L.max_dyn));
  std::uint64_t id1 = 0;
  // Seqlock-style: the directory snapshot is only valid if the id did not
  // change while we were reading it.
  s.fabric->domain().wait_until([&] {
    id1 = n.amo(target, tdesc, CtrlLayout::kDynId, rdma::AmoOp::read, 0);
    n.get(target, tdesc, L.dyndir_off(0), dir.data(),
          dir.size() * sizeof(std::uint64_t));
    return n.amo(target, tdesc, CtrlLayout::kDynId, rdma::AmoOp::read, 0) ==
           id1;
  });
  cache.entries.clear();
  for (int i = 0; i < L.max_dyn; ++i) {
    const std::size_t base = 4 * static_cast<std::size_t>(i);
    if (dir[base + 3] == 0) continue;  // slot not valid
    cache.entries.push_back(
        RankState::DynEntry{dir[base + 0], dir[base + 1], dir[base + 2]});
  }
  cache.id = id1;
}

void Win::resolve_dynamic(int target, std::size_t tdisp, std::size_t len,
                          rdma::RegionDesc* desc, std::size_t* offset) {
  Shared& s = sh();
  RankState& rs = st();
  const CtrlLayout& L = s.layout;
  auto& cache = rs.dyn_cache[static_cast<std::size_t>(target)];
  rdma::Nic& n = nic();
  const auto& tdesc = s.ctrl_desc[static_cast<std::size_t>(target)];

  if (s.cfg.dyn_mode == DynMode::id_counter) {
    // Base protocol: one remote read of the id per access.
    const std::uint64_t id =
        n.amo(target, tdesc, CtrlLayout::kDynId, rdma::AmoOp::read, 0);
    if (id != cache.id) refresh_dyn_cache(target);
  } else {
    // Optimized protocol: a local flag check in the common case.
    auto inval = s.ctrl_word(rank_, CtrlLayout::kDynInval);
    if (inval.exchange(0, std::memory_order_acq_rel) != 0) {
      // Some target detached: all caches and registrations are stale.
      for (auto& c : rs.dyn_cache) {
        c.id = ~std::uint64_t{0};
        c.entries.clear();
        c.registered = false;
      }
    }
    if (cache.id == ~std::uint64_t{0}) refresh_dyn_cache(target);
    if (!cache.registered) {
      // Register for detach notifications: acquire a cacher-list slot.
      const std::uint64_t mine = static_cast<std::uint64_t>(rank_) + 1;
      bool placed = false;
      for (int i = 0; i < L.max_cachers && !placed; ++i) {
        placed = n.amo(target, tdesc, L.cachers_off(i), rdma::AmoOp::cas,
                       mine, 0) == 0;
      }
      FOMPI_REQUIRE(placed, ErrClass::rma_attach,
                    "dynamic window: cacher list full");
      cache.registered = true;
    }
  }

  auto lookup = [&]() -> const RankState::DynEntry* {
    for (const auto& e : cache.entries) {
      if (tdisp >= e.addr && tdisp + len <= e.addr + e.size) return &e;
    }
    return nullptr;
  };
  const RankState::DynEntry* entry = lookup();
  if (entry == nullptr) {
    // A fresh attach may not be reflected yet (notify mode invalidates only
    // on detach): refetch once before reporting an error.
    refresh_dyn_cache(target);
    entry = lookup();
  }
  FOMPI_REQUIRE(entry != nullptr, ErrClass::rma_range,
                "dynamic window: address not attached at target");
  desc->rkey = entry->rkey;
  desc->owner = target;
  desc->size = entry->size;
  *offset = tdisp - entry->addr;
}

}  // namespace fompi::core
