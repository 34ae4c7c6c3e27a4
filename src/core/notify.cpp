// Win notified access (put-with-notification): a veneer over
// fabric::progress::NotifyPlane, one notification ring per rank.
#include <mutex>

#include "core/win_internal.hpp"
#include "core/window.hpp"
#include "fabric/progress/progress.hpp"

namespace fompi::core {

void Win::notify_enable(fabric::RankCtx& ctx, std::size_t capacity) {
  Shared& s = sh();
  {
    std::lock_guard<std::mutex> g(s.notify_mu);
    if (s.notify == nullptr) {
      s.notify = std::make_shared<fabric::progress::NotifyPlane>(*s.fabric,
                                                                 capacity);
    }
  }
  s.notify->attach(rank_);
  ctx.barrier();  // every ring registered before anyone posts
}

rdma::OpStatus Win::put_notify(const void* origin, std::size_t len, int target,
                               std::size_t tdisp, std::uint64_t tag) {
  Shared& s = sh();
  FOMPI_REQUIRE(s.notify != nullptr, ErrClass::op,
                "put_notify: call notify_enable first");
  put(origin, len, target, tdisp);
  // Remote completion of the payload must precede the notification record:
  // RDMA gives no ordering between a put and the record's stamp, and the
  // stamp is the consumer's readiness signal for the payload.
  const rdma::OpStatus st = flush_checked(target);
  if (st != rdma::OpStatus::ok) return st;
  return s.notify->post(rank_, target, tag, tdisp, len);
}

bool Win::notify_probe(std::uint64_t tag, fabric::progress::NotifyRecord* out) {
  Shared& s = sh();
  FOMPI_REQUIRE(s.notify != nullptr, ErrClass::op,
                "notify_probe: call notify_enable first");
  return s.notify->probe(rank_, tag, out);
}

std::size_t Win::notify_waitsome(std::uint64_t tag,
                                 fabric::progress::NotifyRecord* out,
                                 std::size_t max, int source,
                                 rdma::OpStatus* status) {
  Shared& s = sh();
  FOMPI_REQUIRE(s.notify != nullptr, ErrClass::op,
                "notify_waitsome: call notify_enable first");
  return s.notify->waitsome(rank_, tag, out, max, source, status);
}

fabric::progress::NotifyPlane* Win::notify_plane() { return sh().notify.get(); }

}  // namespace fompi::core
