// Window creation, destruction and shared plumbing (Sec 2.2).
#include "core/window.hpp"

#include <functional>

#include "common/instr.hpp"
#include "core/win_internal.hpp"

namespace fompi::core {

Win::Win(std::shared_ptr<Shared> shared, int rank)
    : shared_(std::move(shared)), rank_(rank),
      state_(std::make_unique<RankState>()) {
  state_->dyn_cache.resize(static_cast<std::size_t>(shared_->nranks));
}

Win::Win() noexcept = default;
Win::Win(Win&&) noexcept = default;
Win& Win::operator=(Win&&) noexcept = default;
Win::~Win() = default;

Win::Shared& Win::sh() const {
  FOMPI_REQUIRE(shared_ != nullptr, ErrClass::win, "use of an empty window");
  FOMPI_REQUIRE(!shared_->freed, ErrClass::win, "use of a freed window");
  return *shared_;
}

Win::RankState& Win::st() const { return *state_; }

rdma::Nic& Win::nic() const { return sh().fabric->domain().nic(rank_); }

int Win::rank() const {
  FOMPI_REQUIRE(shared_ != nullptr, ErrClass::win, "use of an empty window");
  return rank_;
}

int Win::nranks() const { return sh().nranks; }

void* Win::base() const {
  Shared& s = sh();
  if (s.kind == WinKind::dynamic) return nullptr;
  return s.bases[static_cast<std::size_t>(rank_)];
}

std::size_t Win::size(int target) const {
  Shared& s = sh();
  FOMPI_REQUIRE(target >= 0 && target < s.nranks, ErrClass::rank,
                "size: target out of range");
  if (s.kind == WinKind::dynamic) return 0;
  return s.sizes[static_cast<std::size_t>(target)];
}

void* Win::shared_query(int target) const {
  Shared& s = sh();
  FOMPI_REQUIRE(s.kind == WinKind::shared_mem, ErrClass::win,
                "shared_query requires an allocate_shared window");
  FOMPI_REQUIRE(target >= 0 && target < s.nranks, ErrClass::rank,
                "shared_query: target out of range");
  FOMPI_REQUIRE(s.fabric->domain().same_node(rank_, target), ErrClass::win,
                "shared_query: target is not on this node");
  return s.bases[static_cast<std::size_t>(target)];
}

int Win::alloc_attempts() const { return sh().alloc_attempts; }

const rdma::Domain& Win::domain() const { return sh().fabric->domain(); }

// ---------------------------------------------------------------------------
// Collective creation
// ---------------------------------------------------------------------------

Win Win::make_collective(
    fabric::RankCtx& ctx, WinConfig cfg,
    const std::function<void(Shared&)>& init_leader,
    const std::function<void(Shared&, int)>& init_rank) {
  auto& coll = ctx.fabric().coll();
  const int me = ctx.rank();
  std::shared_ptr<Shared> shared;
  if (me == 0) {
    shared = std::make_shared<Shared>();
    shared->cfg = cfg;
    shared->layout = CtrlLayout(cfg);
    shared->fabric = &ctx.fabric();
    shared->nranks = ctx.nranks();
    const int p = ctx.nranks();
    shared->ctrl_mem.reserve(static_cast<std::size_t>(p));
    shared->ctrl_desc.reserve(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      shared->ctrl_mem.emplace_back(shared->layout.total_bytes());
      shared->ctrl_desc.push_back(
          ctx.fabric().domain().registry().register_region(
              r, shared->ctrl_mem.back().data(),
              shared->ctrl_mem.back().size()));
    }
    shared->data_desc.resize(static_cast<std::size_t>(p));
    shared->bases.resize(static_cast<std::size_t>(p), nullptr);
    shared->sizes.resize(static_cast<std::size_t>(p), 0);
    if (init_leader) init_leader(*shared);
    coll.publish(0, &shared);
  }
  coll.barrier(me);
  if (me != 0) {
    shared = *static_cast<const std::shared_ptr<Shared>*>(coll.peer_ptr(0));
  }
  coll.barrier(me);
  if (init_rank) init_rank(*shared, me);
  coll.barrier(me);
  return Win(std::move(shared), me);
}

Win Win::create(fabric::RankCtx& ctx, void* base, std::size_t bytes,
                WinConfig cfg) {
  FOMPI_REQUIRE(base != nullptr || bytes == 0, ErrClass::arg,
                "create: null base with nonzero size");
  auto& registry = ctx.fabric().domain().registry();
  Win w = make_collective(
      ctx, cfg, /*init_leader=*/[](Shared& s) { s.kind = WinKind::created; },
      /*init_rank=*/
      [&, base, bytes](Shared& s, int me) {
        // Each rank exposes its own user memory: the per-rank descriptor
        // lands in the Ω(p) table (the paper's scalability caveat for
        // traditional windows).
        const auto idx = static_cast<std::size_t>(me);
        s.bases[idx] = static_cast<std::byte*>(base);
        s.sizes[idx] = bytes;
        if (bytes > 0) {
          s.data_desc[idx] = registry.register_region(me, base, bytes);
        }
      });
  return w;
}

Win Win::allocate(fabric::RankCtx& ctx, std::size_t bytes, WinConfig cfg) {
  return allocate_on_heap(ctx, bytes, cfg, WinKind::allocated);
}

Win Win::allocate_shared(fabric::RankCtx& ctx, std::size_t bytes,
                         WinConfig cfg) {
  // Same layout as allocate, plus shared_query.
  return allocate_on_heap(ctx, bytes, cfg, WinKind::shared_mem);
}

Win Win::allocate_on_heap(fabric::RankCtx& ctx, std::size_t bytes,
                          WinConfig cfg, WinKind kind) {
  // The symmetric heap is a per-fabric singleton, constructed on first use.
  auto& fabric = ctx.fabric();
  std::shared_ptr<SymHeap> heap;
  if (ctx.rank() == 0) {
    auto existing = fabric.ext_get("core.symheap");
    if (existing == nullptr) {
      auto fresh =
          std::make_shared<SymHeap>(fabric.domain(), cfg.symheap_bytes);
      existing = fabric.ext_put_once("core.symheap", fresh);
    }
    heap = std::static_pointer_cast<SymHeap>(existing);
  }
  ctx.barrier();
  if (ctx.rank() != 0) {
    heap = std::static_pointer_cast<SymHeap>(fabric.ext_get("core.symheap"));
  }

  int attempts = 0;
  const std::size_t offset = heap->allocate(ctx, bytes, &attempts);

  Win w = make_collective(
      ctx, cfg,
      /*init_leader=*/
      [&, offset, bytes, attempts, kind](Shared& s) {
        s.kind = kind;
        s.heap = heap;
        s.heap_off = offset;
        s.alloc_bytes = bytes;
        s.alloc_attempts = attempts;
      },
      /*init_rank=*/
      [&, offset, bytes](Shared& s, int me) {
        const auto idx = static_cast<std::size_t>(me);
        s.bases[idx] = s.heap->rank_ptr(me, offset);
        s.sizes[idx] = bytes;
      });
  return w;
}

Win Win::create_dynamic(fabric::RankCtx& ctx, WinConfig cfg) {
  return make_collective(
      ctx, cfg,
      /*init_leader=*/[](Shared& s) { s.kind = WinKind::dynamic; },
      /*init_rank=*/nullptr);
}

void Win::free() {
  Shared& s = sh();
  auto& registry = s.fabric->domain().registry();
  auto& coll = s.fabric->coll();
  // No rank may still be in an epoch.
  // A trailing fence epoch counts as closed; passive/PSCW epochs must end.
  FOMPI_REQUIRE(!st().lock_all && st().locks.empty() && !st().access_group &&
                    !st().exposure_group,
                ErrClass::rma_sync, "free: window still inside an epoch");
  coll.barrier(rank_);
  // Per-rank cleanup.
  if (s.kind == WinKind::created &&
      s.sizes[static_cast<std::size_t>(rank_)] > 0) {
    registry.deregister(s.data_desc[static_cast<std::size_t>(rank_)].rkey);
  }
  if (s.kind == WinKind::dynamic) {
    for (auto& [base, att] : st().attached) registry.deregister(att.rkey);
    st().attached.clear();
  }
  coll.barrier(rank_);
  if (s.kind == WinKind::allocated || s.kind == WinKind::shared_mem) {
    fabric::RankCtx ctx(*s.fabric, rank_);
    s.heap->deallocate(ctx, s.heap_off);
  }
  // Leader releases the control blocks after everyone passed the barrier.
  if (rank_ == 0) {
    for (auto& d : s.ctrl_desc) registry.deregister(d.rkey);
    s.ctrl_desc.clear();
    s.notify.reset();  // notify rings deregister while the registry is live
    s.freed = true;
  }
  coll.barrier(rank_);
  shared_.reset();
}

// ---------------------------------------------------------------------------
// Access checks and target resolution
// ---------------------------------------------------------------------------

void Win::require_access(int target) const {
  Shared& s = sh();
  FOMPI_REQUIRE(target >= 0 && target < s.nranks, ErrClass::rank,
                "communication target out of range");
  count(Op::validation_check);
  RankState& rs = st();
  if (rs.fence_active || rs.lock_all) return;
  if (rs.locks.count(target) != 0) return;
  if (rs.access_group && rs.access_group->contains(target)) return;
  raise(ErrClass::rma_sync,
        "communication outside any access epoch for this target");
}

void Win::commit_all() {
  handle_failure(commit_all_checked(), "commit");
}

rdma::OpStatus Win::commit_all_checked() { return nic().gsync_status(); }

void Win::handle_failure(rdma::OpStatus st_, const char* what) {
  if (st_ == rdma::OpStatus::ok) return;
  if (sh().cfg.err_mode == ErrMode::errors_return) {
    st().last_error = st_;
    return;
  }
  const ErrClass cls = st_ == rdma::OpStatus::timeout    ? ErrClass::timeout
                       : st_ == rdma::OpStatus::cq_error ? ErrClass::cq
                       : st_ == rdma::OpStatus::peer_dead ? ErrClass::peer_dead
                                                          : ErrClass::internal;
  raise(cls, std::string(what) + ": operation failed under the fault plan");
}

rdma::OpStatus Win::last_error() const { return st().last_error; }

void Win::clear_last_error() { st().last_error = rdma::OpStatus::ok; }

bool Win::peer_alive(int target) const {
  Shared& s = sh();
  FOMPI_REQUIRE(target >= 0 && target < s.nranks, ErrClass::rank,
                "peer_alive: target out of range");
  return s.fabric->domain().alive(target);
}

}  // namespace fompi::core
