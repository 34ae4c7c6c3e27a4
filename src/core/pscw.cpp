// General active target synchronization (PSCW; Sec 2.3 and Fig 2).
//
// The scalable matching protocol: a process posting an exposure epoch
// announces itself by writing its rank into a matching list *local to each
// origin* in the group; the origin's start() spins on its own memory until
// every target of its access group is present. The matching list storage is
// managed remotely and without any receiver involvement: a poster acquires
// a free element with remote CAS operations (the free-storage management of
// Fig 2c — here a CAS scan over the fixed-capacity slot array, starting at
// a hashed position). wait() blocks on a completion counter that each
// complete() increments remotely after committing its epoch's operations.
//
// post/complete issue O(k) messages for k neighbors; start/wait issue none.
#include "core/window.hpp"

#include "common/instr.hpp"
#include "core/win_internal.hpp"
#include "trace/trace.hpp"

namespace fompi::core {

namespace {
/// Encoded slot value for a poster: rank + 1 (0 means "free").
std::uint64_t slot_value(int rank) {
  return static_cast<std::uint64_t>(rank) + 1;
}
}  // namespace

void Win::post(const fabric::Group& group) {
  Shared& s = sh();
  RankState& rs = st();
  FOMPI_REQUIRE(!rs.exposure_group, ErrClass::rma_sync,
                "post: exposure epoch already open");
  rs.fence_active = false;  // a preceding fence acts as the closing fence
  const trace::Span tsp(trace::EvClass::pscw_post, -1,
                        static_cast<std::uint64_t>(group.size()));
  const CtrlLayout& L = s.layout;
  rdma::Nic& n = nic();
  // Make prior local stores to the exposed memory visible before any
  // origin can observe the post.
  n.local_fence();
  for (int origin : group) {
    FOMPI_REQUIRE(origin >= 0 && origin < s.nranks, ErrClass::rank,
                  "post: origin out of range");
    // Free-storage management: acquire a free matching-list element at the
    // origin via remote CAS, starting at a position hashed by our rank to
    // spread concurrent posters.
    const int cap = L.max_neighbors;
    int sweep = 0;
    s.fabric->domain().wait_until([&] {
      FOMPI_REQUIRE(sweep++ < 64, ErrClass::rma_sync,
                    "post: matching list full (raise WinConfig::max_neighbors)");
      for (int i = 0; i < cap; ++i) {
        const int slot = (rank_ + i) % cap;
        const std::uint64_t old =
            n.amo(origin, s.ctrl_desc[static_cast<std::size_t>(origin)],
                  L.slot_off(slot), rdma::AmoOp::cas, slot_value(rank_),
                  /*compare=*/0);
        count(Op::protocol_branch);
        if (old == 0) return true;
      }
      return false;
    });
  }
  rs.exposure_group = group;
}

void Win::start(const fabric::Group& group) {
  Shared& s = sh();
  RankState& rs = st();
  FOMPI_REQUIRE(!rs.access_group, ErrClass::rma_sync,
                "start: access epoch already open");
  rs.fence_active = false;  // a preceding fence acts as the closing fence
  const trace::Span tsp(trace::EvClass::pscw_start, -1,
                        static_cast<std::uint64_t>(group.size()));
  const CtrlLayout& L = s.layout;
  rdma::Domain& d = s.fabric->domain();
  // Wait (purely locally) until every target of the access group has
  // announced its matching post, consuming one announcement each.
  for (int target : group) {
    FOMPI_REQUIRE(target >= 0 && target < s.nranks, ErrClass::rank,
                  "start: target out of range");
    const std::uint64_t want = slot_value(target);
    const auto posted = [&] {
      for (int slot = 0; slot < L.max_neighbors; ++slot) {
        auto word = s.ctrl_word(rank_, L.slot_off(slot));
        if (word.load(std::memory_order_acquire) != want) continue;
        // Consume: only the local rank removes entries, so a plain
        // exchange is race-free against remote CAS(0 -> v) insertions.
        if (word.exchange(0, std::memory_order_acq_rel) == want) return true;
      }
      return false;
    };
    // A target the fault plan killed will never post; raise instead of
    // waiting forever (a typed error in either ErrMode: there is no epoch
    // to tear down yet).
    if (d.wait_until(posted, [&] { return !d.alive(target); }) !=
        rdma::OpStatus::ok) {
      raise(ErrClass::peer_dead, "start: target rank died before posting");
    }
  }
  rs.access_group = group;
}

rdma::OpStatus Win::complete_impl() {
  Shared& s = sh();
  RankState& rs = st();
  FOMPI_REQUIRE(rs.access_group.has_value(), ErrClass::rma_sync,
                "complete without a matching start");
  const trace::Span tsp(trace::EvClass::pscw_complete, -1,
                        static_cast<std::uint64_t>(rs.access_group->size()));
  rdma::Domain& d = s.fabric->domain();
  // Guarantee remote visibility of every RMA operation of this epoch, then
  // bump each exposure side's completion counter. Failed operations surface
  // in the aggregate status, but the epoch is closed either way.
  rdma::OpStatus status = commit_all_checked();
  rdma::Nic& n = nic();
  for (int target : *rs.access_group) {
    if (d.death_epoch() != 0 && !d.alive(target)) {
      if (status == rdma::OpStatus::ok) status = rdma::OpStatus::peer_dead;
      continue;  // a dead exposure side will never wait on the counter
    }
    try {
      n.amo(target, s.ctrl_desc[static_cast<std::size_t>(target)],
            CtrlLayout::kCompletion, rdma::AmoOp::fetch_add, 1);
    } catch (const RankKilledError&) {
      throw;
    } catch (const Error& e) {
      if (e.err_class() != ErrClass::timeout && e.err_class() != ErrClass::cq &&
          e.err_class() != ErrClass::peer_dead) {
        throw;
      }
      if (status == rdma::OpStatus::ok) {
        status = e.err_class() == ErrClass::timeout ? rdma::OpStatus::timeout
                 : e.err_class() == ErrClass::cq    ? rdma::OpStatus::cq_error
                                                    : rdma::OpStatus::peer_dead;
      }
    }
  }
  rs.access_group.reset();
  return status;
}

void Win::complete() { handle_failure(complete_impl(), "complete"); }

rdma::OpStatus Win::complete_checked() { return complete_impl(); }

rdma::OpStatus Win::wait_impl() {
  Shared& s = sh();
  RankState& rs = st();
  FOMPI_REQUIRE(rs.exposure_group.has_value(), ErrClass::rma_sync,
                "wait without a matching post");
  const trace::Span tsp(trace::EvClass::pscw_wait, -1,
                        static_cast<std::uint64_t>(rs.exposure_group->size()));
  rdma::Domain& d = s.fabric->domain();
  const auto expected =
      static_cast<std::uint64_t>(rs.exposure_group->size());
  auto counter = s.ctrl_word(rank_, CtrlLayout::kCompletion);
  const auto origin_dead = [&] {
    for (int origin : *rs.exposure_group) {
      if (!d.alive(origin)) return true;
    }
    return false;
  };
  if (d.wait_until(
          [&] { return counter.load(std::memory_order_acquire) >= expected; },
          origin_dead) != rdma::OpStatus::ok) {
    // An access-group member the fault plan killed never called
    // complete(): abandon the epoch (drain whatever completions arrived so
    // the counter is clean for the next epoch) and report peer_dead.
    counter.exchange(0, std::memory_order_acq_rel);
    nic().local_fence();
    rs.exposure_group.reset();
    return rdma::OpStatus::peer_dead;
  }
  counter.fetch_sub(expected, std::memory_order_acq_rel);
  // The origins' puts are already globally visible (they committed before
  // incrementing the counter); a local fence orders our subsequent reads.
  nic().local_fence();
  rs.exposure_group.reset();
  return rdma::OpStatus::ok;
}

void Win::wait() { handle_failure(wait_impl(), "wait"); }

rdma::OpStatus Win::wait_checked() { return wait_impl(); }

bool Win::test() {
  Shared& s = sh();
  RankState& rs = st();
  FOMPI_REQUIRE(rs.exposure_group.has_value(), ErrClass::rma_sync,
                "test without a matching post");
  const auto expected =
      static_cast<std::uint64_t>(rs.exposure_group->size());
  auto counter = s.ctrl_word(rank_, CtrlLayout::kCompletion);
  if (counter.load(std::memory_order_acquire) < expected) return false;
  counter.fetch_sub(expected, std::memory_order_acq_rel);
  nic().local_fence();
  rs.exposure_group.reset();
  return true;
}

}  // namespace fompi::core
