// Passive target synchronization: the two-level lock protocol (Sec 2.3,
// Fig 3) and the flush family.
//
// One global lock word lives at the master (rank 0 of the window); its low
// half counts lock_all (global shared) holders, its high half counts
// processes holding at least one exclusive lock. One local lock word per
// rank implements a reader-writer lock: MSB = writer bit, low bits = shared
// holder count. The two invariants for a local exclusive lock:
//   (1) no global shared lock may be held or acquired during it — enforced
//       by registering in the global writer half and backing off if the
//       shared half is nonzero;
//   (2) no local lock may be held — enforced by CAS(local, 0 -> WRITER).
// All retries use exponential back-off. Shared locks cost one AMO when
// uncontended; exclusive locks cost two (one if the origin already holds
// an exclusive lock); unlocks cost one (plus one for the last exclusive).
//
// Fault model (armed plans only): an exclusive acquirer additionally
// records rank+1 in the target's kLockOwner word. Spinners periodically
// probe it; if the recorded owner died mid-critical-section, exactly one
// spinner wins a CAS on the owner word (the revocation ticket) and releases
// the lock on the dead holder's behalf — clearing the writer bit and the
// holder's global exclusive registration. Limitations (see DESIGN.md): a
// dead rank is assumed to hold at most one exclusive lock, and death of the
// window master is unsupported. All of this is gated on
// FaultPlan::enabled() so the fault-free AMO counts stay exactly those
// asserted by test_instr_bounds.
#include "core/window.hpp"

#include "common/instr.hpp"
#include "core/win_internal.hpp"
#include "trace/trace.hpp"

namespace fompi::core {

namespace {
constexpr int kMaster = 0;
/// Spin iterations between dead-owner probes in the lock spinners (the
/// probe costs a remote read, so it stays off the common contended path).
constexpr int kOwnerProbePeriod = 16;

bool is_fault_class(ErrClass ec) noexcept {
  return ec == ErrClass::timeout || ec == ErrClass::cq ||
         ec == ErrClass::peer_dead;
}

rdma::OpStatus status_of(ErrClass ec) noexcept {
  switch (ec) {
    case ErrClass::timeout:   return rdma::OpStatus::timeout;
    case ErrClass::cq:        return rdma::OpStatus::cq_error;
    case ErrClass::peer_dead: return rdma::OpStatus::peer_dead;
    default:                  return rdma::OpStatus::ok;
  }
}
}  // namespace

void Win::try_revoke_dead_owner(int target) {
  Shared& s = sh();
  rdma::Domain& d = s.fabric->domain();
  if (d.death_epoch() == 0) return;
  rdma::Nic& n = nic();
  const auto& tdesc = s.ctrl_desc[static_cast<std::size_t>(target)];
  // The owner word is only maintained while a fault plan is armed, so a
  // nonzero value here is trustworthy.
  const std::uint64_t owner =
      n.amo(target, tdesc, CtrlLayout::kLockOwner, rdma::AmoOp::read, 0);
  if (owner == 0) return;
  const int owner_rank = static_cast<int>(owner) - 1;
  if (d.alive(owner_rank)) return;
  // Revocation ticket: exactly one spinner wins this CAS and performs the
  // release on the dead holder's behalf.
  const std::uint64_t seen = n.amo(target, tdesc, CtrlLayout::kLockOwner,
                                   rdma::AmoOp::cas, 0, owner);
  if (seen != owner) return;
  n.amo(target, tdesc, CtrlLayout::kLocalLock, rdma::AmoOp::fetch_add,
        ~kWriterBit + 1);
  n.amo(kMaster, s.ctrl_desc[kMaster], CtrlLayout::kGlobalLock,
        rdma::AmoOp::fetch_add, ~kGlobalExclUnit + 1);
}

rdma::OpStatus Win::lock_impl(LockType type, int target) {
  Shared& s = sh();
  RankState& rs = st();
  FOMPI_REQUIRE(target >= 0 && target < s.nranks, ErrClass::rank,
                "lock: target out of range");
  rs.fence_active = false;  // a preceding fence acts as the closing fence
  FOMPI_REQUIRE(!rs.lock_all, ErrClass::rma_sync,
                "lock inside a lock_all epoch");
  FOMPI_REQUIRE(rs.locks.count(target) == 0, ErrClass::rma_sync,
                "lock: target already locked by this origin");
  const trace::Span tsp(trace::EvClass::lock, target,
                        type == LockType::exclusive ? 1 : 0);
  rdma::Nic& n = nic();
  rdma::Domain& d = s.fabric->domain();
  const bool fault_on = d.config().fault.enabled();
  const auto& tdesc = s.ctrl_desc[static_cast<std::size_t>(target)];
  const auto& mdesc = s.ctrl_desc[kMaster];

  if (fault_on && d.death_epoch() != 0 && !d.alive(target)) {
    return rdma::OpStatus::peer_dead;
  }

  bool registered = false;  // holds a global exclusive registration now
  try {
    if (type == LockType::shared) {
      // One atomic registers the shared lock; if a writer holds the lock we
      // keep the registration and wait for the writer bit to clear.
      const std::uint64_t old = n.amo(target, tdesc, CtrlLayout::kLocalLock,
                                      rdma::AmoOp::fetch_add, 1);
      if ((old & kWriterBit) != 0) {
        int probe = 0;
        d.wait_until([&] {
          if ((n.amo(target, tdesc, CtrlLayout::kLocalLock, rdma::AmoOp::read,
                     0) &
               kWriterBit) == 0) {
            return true;
          }
          if (fault_on && ++probe % kOwnerProbePeriod == 0) {
            try_revoke_dead_owner(target);
          }
          return false;
        });
      }
    } else {
      int probe = 0;
      d.wait_until([&] {
        count(Op::protocol_branch);
        bool registered_now = false;
        if (rs.excl_held == 0 && !registered) {
          // Invariant (1): register in the global writer half; back off if
          // any lock_all holder exists.
          const std::uint64_t old =
              n.amo(kMaster, mdesc, CtrlLayout::kGlobalLock,
                    rdma::AmoOp::fetch_add, kGlobalExclUnit);
          if ((old & kGlobalShrdMask) != 0) {
            n.amo(kMaster, mdesc, CtrlLayout::kGlobalLock,
                  rdma::AmoOp::fetch_add, ~kGlobalExclUnit + 1);  // -unit
            return false;
          }
          registered_now = true;
          registered = true;
        }
        // Invariant (2): the local lock must be completely free.
        const std::uint64_t old = n.amo(target, tdesc, CtrlLayout::kLocalLock,
                                        rdma::AmoOp::cas, kWriterBit, 0);
        if (old == 0) return true;
        if (registered_now) {
          // Release the global registration while waiting, so lock_all
          // requests are not starved (the paper's two-step retry).
          n.amo(kMaster, mdesc, CtrlLayout::kGlobalLock, rdma::AmoOp::fetch_add,
                ~kGlobalExclUnit + 1);
          registered = false;
        }
        if (fault_on && ++probe % kOwnerProbePeriod == 0) {
          try_revoke_dead_owner(target);
        }
        return false;
      });
      if (fault_on) {
        // Record ownership so survivors can revoke if this rank dies while
        // holding the lock.
        n.amo(target, tdesc, CtrlLayout::kLockOwner, rdma::AmoOp::swap,
              static_cast<std::uint64_t>(rank_) + 1);
      }
      ++rs.excl_held;
    }
  } catch (const RankKilledError&) {
    throw;
  } catch (const Error& e) {
    if (!is_fault_class(e.err_class())) throw;
    if (registered && rs.excl_held == 0) {
      // Best effort: drop the partial global registration so lock_all
      // callers are not wedged by this failed acquire.
      try {
        n.amo(kMaster, mdesc, CtrlLayout::kGlobalLock, rdma::AmoOp::fetch_add,
              ~kGlobalExclUnit + 1);
      } catch (const Error&) {
      }
    }
    return status_of(e.err_class());
  }
  rs.locks.emplace(target, type);
  return rdma::OpStatus::ok;
}

void Win::lock(LockType type, int target) {
  handle_failure(lock_impl(type, target), "lock");
}

rdma::OpStatus Win::lock_checked(LockType type, int target) {
  return lock_impl(type, target);
}

rdma::OpStatus Win::unlock_impl(int target) {
  Shared& s = sh();
  RankState& rs = st();
  const auto it = rs.locks.find(target);
  FOMPI_REQUIRE(it != rs.locks.end(), ErrClass::rma_sync,
                "unlock: target not locked");
  const trace::Span tsp(trace::EvClass::unlock, target);
  rdma::Nic& n = nic();
  rdma::Domain& d = s.fabric->domain();
  const bool fault_on = d.config().fault.enabled();
  const auto& tdesc = s.ctrl_desc[static_cast<std::size_t>(target)];
  // The epoch's operations must be remotely complete before the lock is
  // observable as released; failed ones surface in the aggregate status but
  // do not keep the lock held (graceful degradation).
  rdma::OpStatus status = commit_all_checked();
  const bool target_dead =
      fault_on && d.death_epoch() != 0 && !d.alive(target);
  auto guarded_amo = [&](int r, const rdma::RegionDesc& desc, std::size_t off,
                         rdma::AmoOp op, std::uint64_t operand) {
    try {
      n.amo(r, desc, off, op, operand);
    } catch (const RankKilledError&) {
      throw;
    } catch (const Error& e) {
      if (!is_fault_class(e.err_class())) throw;
      if (status == rdma::OpStatus::ok) status = status_of(e.err_class());
    }
  };
  if (it->second == LockType::shared) {
    if (!target_dead) {
      guarded_amo(target, tdesc, CtrlLayout::kLocalLock,
                  rdma::AmoOp::fetch_add, ~std::uint64_t{0});  // -1
    }
  } else {
    if (!target_dead) {
      if (fault_on) {
        guarded_amo(target, tdesc, CtrlLayout::kLockOwner, rdma::AmoOp::swap,
                    0);
      }
      guarded_amo(target, tdesc, CtrlLayout::kLocalLock,
                  rdma::AmoOp::fetch_add, ~kWriterBit + 1);  // clear writer
    }
    --rs.excl_held;
    if (rs.excl_held == 0) {
      guarded_amo(kMaster, s.ctrl_desc[kMaster], CtrlLayout::kGlobalLock,
                  rdma::AmoOp::fetch_add, ~kGlobalExclUnit + 1);
    }
  }
  rs.locks.erase(it);
  if (target_dead && status == rdma::OpStatus::ok) {
    status = rdma::OpStatus::peer_dead;
  }
  return status;
}

void Win::unlock(int target) { handle_failure(unlock_impl(target), "unlock"); }

rdma::OpStatus Win::unlock_checked(int target) { return unlock_impl(target); }

void Win::lock_all() {
  Shared& s = sh();
  RankState& rs = st();
  FOMPI_REQUIRE(!rs.lock_all, ErrClass::rma_sync, "lock_all already held");
  FOMPI_REQUIRE(rs.locks.empty(), ErrClass::rma_sync,
                "lock_all while holding per-target locks");
  rs.fence_active = false;  // a preceding fence acts as the closing fence
  const trace::Span tsp(trace::EvClass::lock);
  rdma::Nic& n = nic();
  const auto& mdesc = s.ctrl_desc[kMaster];
  s.fabric->domain().wait_until([&] {
    const std::uint64_t old = n.amo(kMaster, mdesc, CtrlLayout::kGlobalLock,
                                    rdma::AmoOp::fetch_add, 1);
    if ((old >> 32) == 0) return true;  // no exclusive holder registered
    n.amo(kMaster, mdesc, CtrlLayout::kGlobalLock, rdma::AmoOp::fetch_add,
          ~std::uint64_t{0});
    return false;
  });
  rs.lock_all = true;
}

void Win::unlock_all() {
  Shared& s = sh();
  RankState& rs = st();
  FOMPI_REQUIRE(rs.lock_all, ErrClass::rma_sync,
                "unlock_all without lock_all");
  const trace::Span tsp(trace::EvClass::unlock);
  commit_all();
  nic().amo(kMaster, s.ctrl_desc[kMaster], CtrlLayout::kGlobalLock,
            rdma::AmoOp::fetch_add, ~std::uint64_t{0});
  rs.lock_all = false;
}

// ---------------------------------------------------------------------------
// Flush family (Sec 2.3, "Flush"): remote bulk completion + memory fence.
// All four calls share one implementation, as in foMPI.
// ---------------------------------------------------------------------------

namespace {
void require_passive(const char* what, bool lock_all, bool any_lock) {
  FOMPI_REQUIRE(lock_all || any_lock, ErrClass::rma_sync,
                std::string(what) + " requires a passive-target epoch");
}
}  // namespace

void Win::flush(int target) {
  RankState& rs = st();
  require_passive("flush", rs.lock_all, rs.locks.count(target) != 0);
  const trace::Span tsp(trace::EvClass::flush, target);
  commit_all();
}

rdma::OpStatus Win::flush_checked(int target) {
  RankState& rs = st();
  require_passive("flush", rs.lock_all, rs.locks.count(target) != 0);
  const trace::Span tsp(trace::EvClass::flush, target);
  return commit_all_checked();
}

void Win::flush_local(int target) {
  RankState& rs = st();
  require_passive("flush_local", rs.lock_all, rs.locks.count(target) != 0);
  const trace::Span tsp(trace::EvClass::flush, target);
  commit_all();
}

void Win::flush_all() {
  RankState& rs = st();
  require_passive("flush_all", rs.lock_all, !rs.locks.empty());
  const trace::Span tsp(trace::EvClass::flush);
  commit_all();
}

rdma::OpStatus Win::flush_all_checked() {
  RankState& rs = st();
  require_passive("flush_all", rs.lock_all, !rs.locks.empty());
  const trace::Span tsp(trace::EvClass::flush);
  return commit_all_checked();
}

void Win::flush_local_all() {
  RankState& rs = st();
  require_passive("flush_local_all", rs.lock_all, !rs.locks.empty());
  const trace::Span tsp(trace::EvClass::flush);
  commit_all();
}

}  // namespace fompi::core
