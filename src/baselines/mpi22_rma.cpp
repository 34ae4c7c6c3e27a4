#include "baselines/mpi22_rma.hpp"

#include <cmath>

namespace fompi::baselines {

Mpi22Win Mpi22Win::allocate(fabric::RankCtx& ctx, std::size_t bytes) {
  return Mpi22Win(core::Win::allocate(ctx, bytes), &ctx.fabric());
}

void Mpi22Win::free() { win_.free(); }

void Mpi22Win::charge_us(double us) const {
  fabric_->domain().nic(win_.rank()).charge_model_ns(us * 1e3);
}

void Mpi22Win::put(const void* src, std::size_t len, int target,
                   std::size_t tdisp) {
  charge_us(model_.mpi22_extra_us);
  win_.put(src, len, target, tdisp);
}

void Mpi22Win::get(void* dst, std::size_t len, int target,
                   std::size_t tdisp) {
  charge_us(model_.mpi22_extra_us);
  win_.get(dst, len, target, tdisp);
}

void Mpi22Win::accumulate(const void* origin, std::size_t count, Elem e,
                          RedOp op, int target, std::size_t tdisp) {
  charge_us(model_.mpi22_extra_us);
  win_.accumulate(origin, count, e, op, target, tdisp);
}

void Mpi22Win::fence() {
  // Worse-scaling barrier: extra per-round software cost.
  const int p = std::max(2, win_.nranks());
  charge_us((model_.mpi22_fence_per_log_us -
             perf::PaperModel{}.fence_per_log_us) *
            std::log2(p));
  win_.fence();
}

void Mpi22Win::post(const fabric::Group& g) {
  charge_us(model_.mpi22_pscw_base_us / 2 +
            model_.mpi22_pscw_per_proc_ns * 1e-3 * win_.nranks() / 2);
  win_.post(g);
}

void Mpi22Win::start(const fabric::Group& g) {
  charge_us(model_.mpi22_pscw_base_us / 2 +
            model_.mpi22_pscw_per_proc_ns * 1e-3 * win_.nranks() / 2);
  win_.start(g);
}

void Mpi22Win::complete() {
  charge_us(model_.mpi22_extra_us);
  win_.complete();
}

void Mpi22Win::wait() {
  charge_us(model_.mpi22_extra_us);
  win_.wait();
}

void Mpi22Win::lock(core::LockType t, int target) {
  charge_us(model_.mpi22_extra_us);
  win_.lock(t, target);
}

void Mpi22Win::unlock(int target) {
  charge_us(model_.mpi22_extra_us);
  win_.unlock(target);
}

void Mpi22Win::flush(int target) {
  charge_us(model_.mpi22_extra_us);
  win_.flush(target);
}

}  // namespace fompi::baselines
