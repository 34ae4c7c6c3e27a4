#include "core/mcs_lock.hpp"

#include <atomic>

#include "core/win_internal.hpp"

namespace fompi::core {

namespace {

std::atomic_ref<std::uint64_t> local_word(Win& win, std::size_t disp) {
  auto* p = reinterpret_cast<std::uint64_t*>(
      static_cast<std::byte*>(win.base()) + disp);
  return std::atomic_ref<std::uint64_t>(*p);
}

/// Back-off steps between dead-predecessor probes while queued (each probe
/// costs one remote read, so it stays off the fault-free path entirely:
/// probes fire only once a rank has actually died).
constexpr int kDeadProbePeriod = 32;

}  // namespace

void McsLock::acquire() {
  last_ops_ = 0;
  const std::uint64_t mine = static_cast<std::uint64_t>(win_.rank()) + 1;
  // Prepare our queue node before publishing it.
  local_word(win_, disp_ + kNext).store(0, std::memory_order_relaxed);
  local_word(win_, disp_ + kLocked).store(1, std::memory_order_release);

  // Enqueue: one remote SWAP on the tail.
  std::uint64_t prev = 0;
  win_.fetch_and_op(&mine, &prev, Elem::u64, RedOp::replace, master_,
                    disp_ + kTail);
  ++last_ops_;
  if (prev == 0) {
    // Lock was free. Clear our own flag so the invariant "locked == 0 iff
    // this rank holds the lock" covers the uncontended case too — recovery
    // reads a dead rank's frozen flag to decide whether it died holding
    // the lock (a local store: remote op counts are unchanged).
    local_word(win_, disp_ + kLocked).store(0, std::memory_order_release);
    return;
  }

  // Link behind the predecessor: one remote SWAP on its next pointer.
  const int pred = static_cast<int>(prev - 1);
  std::uint64_t ignored = 0;
  bool linked = true;
  try {
    win_.fetch_and_op(&mine, &ignored, Elem::u64, RedOp::replace, pred,
                      disp_ + kNext);
  } catch (const RankKilledError&) {
    throw;
  } catch (const Error& e) {
    if (e.err_class() != ErrClass::peer_dead || win_.peer_alive(pred)) throw;
    linked = false;
  }
  ++last_ops_;
  if (!linked) {
    // The predecessor died before we could link behind it. Its memory image
    // is frozen and still readable: flag == 0 means it died holding the
    // lock, so we inherit it (the tail already points at us, so the queue
    // stays consistent). flag == 1 means it died while itself queued —
    // recovering the rest of its wait chain is unsupported; surface a typed
    // error rather than deadlocking.
    std::uint64_t pflag = 1;
    win_.get_accumulate(nullptr, &pflag, 1, Elem::u64, RedOp::no_op, pred,
                        disp_ + kLocked);
    FOMPI_REQUIRE(pflag == 0, ErrClass::peer_dead,
                  "mcs: predecessor died while queued (unsupported)");
    local_word(win_, disp_ + kLocked).store(0, std::memory_order_release);
    return;
  }

  // Wait on our own flag — purely local memory, zero remote traffic. The
  // wait's back-off step propagates a peer failure instead of waiting
  // forever on a flag nobody will ever clear. Once the predecessor has
  // died, periodically probe it: if it died *holding* the lock (frozen
  // flag == 0), steal it.
  auto flag = local_word(win_, disp_ + kLocked);
  int probe = 0;
  win_.domain().wait_until([&] {
    if (flag.load(std::memory_order_acquire) == 0) return true;
    if (++probe % kDeadProbePeriod != 0 || win_.peer_alive(pred)) return false;
    std::uint64_t pflag = 1;
    win_.get_accumulate(nullptr, &pflag, 1, Elem::u64, RedOp::no_op, pred,
                        disp_ + kLocked);
    if (pflag == 0) {
      flag.store(0, std::memory_order_release);
      return true;
    }
    // The predecessor died while waiting; the releaser-side skip hands the
    // lock past it to us, so keep waiting on our own flag.
    return false;
  });
}

void McsLock::release() {
  const std::uint64_t mine = static_cast<std::uint64_t>(win_.rank()) + 1;
  auto next = local_word(win_, disp_ + kNext);
  if (next.load(std::memory_order_acquire) == 0) {
    // No known successor: try to swing the tail back to free.
    const std::uint64_t zero = 0;
    std::uint64_t prev = 0;
    win_.compare_and_swap(&zero, &mine, &prev, Elem::u64, master_,
                          disp_ + kTail);
    if (prev == mine) return;  // nobody queued behind us
    // A successor is in the middle of linking: wait for the pointer.
    win_.domain().wait_until(
        [&] { return next.load(std::memory_order_acquire) != 0; });
  }
  std::uint64_t succ_val = next.load(std::memory_order_acquire);
  while (true) {
    const int succ = static_cast<int>(succ_val - 1);
    const std::uint64_t zero = 0;
    std::uint64_t ignored = 0;
    try {
      win_.fetch_and_op(&zero, &ignored, Elem::u64, RedOp::replace, succ,
                        disp_ + kLocked);
      return;
    } catch (const RankKilledError&) {
      throw;
    } catch (const Error& e) {
      if (e.err_class() != ErrClass::peer_dead || win_.peer_alive(succ)) throw;
    }
    // The successor died while queued: skip it. Its frozen next pointer
    // tells us whether anyone had queued behind it.
    std::uint64_t snext = 0;
    win_.get_accumulate(nullptr, &snext, 1, Elem::u64, RedOp::no_op, succ,
                        disp_ + kNext);
    if (snext != 0) {
      succ_val = snext;
      continue;  // hand the lock to the rank queued behind the dead one
    }
    // The dead successor was the tail: swing the tail free on its behalf.
    std::uint64_t prev = 0;
    win_.compare_and_swap(&zero, &succ_val, &prev, Elem::u64, master_,
                          disp_ + kTail);
    if (prev == succ_val) return;
    // A third rank swapped the tail after the dead successor but could not
    // link behind it (the link write to dead memory fails); it surfaces a
    // typed error on its side, and so do we — neither side hangs.
    raise(ErrClass::peer_dead,
          "mcs: release raced with an enqueue behind a dead rank "
          "(unsupported)");
  }
}

}  // namespace fompi::core
