#include "fabric/p2p.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/instr.hpp"
#include "common/timing.hpp"

namespace fompi::fabric {

P2P::P2P(rdma::Domain& domain, std::size_t eager_threshold)
    : domain_(domain), eager_threshold_(eager_threshold) {
  mail_.reserve(static_cast<std::size_t>(domain.nranks()));
  for (int r = 0; r < domain.nranks(); ++r) {
    mail_.push_back(std::make_unique<Mailbox>());
    (void)r;
  }
}

std::uint64_t P2P::model_now() const noexcept { return now_ns(); }

double P2P::eager_latency_ns(int me, int dst, std::size_t len) const {
  const auto& m = domain_.config().model;
  if (domain_.same_node(me, dst)) {
    // Shared-memory eager: one staging copy plus the delivery copy.
    return domain_.model_ns(m.intra_latency_ns(len) +
                            m.intra_byte_ns * double(len));
  }
  // Network put plus the receiver-side eager copy out of the system buffer.
  return domain_.model_ns(m.put_latency_ns(len) +
                          m.intra_byte_ns * double(len));
}

double P2P::rndv_latency_ns(int me, int dst, std::size_t len) const {
  const auto& m = domain_.config().model;
  if (domain_.same_node(me, dst)) {
    return domain_.model_ns(2.0 * m.intra_base_ns + m.intra_latency_ns(len));
  }
  // RTS/CTS handshake (two small control messages) plus the bulk transfer.
  return domain_.model_ns(2.0 * m.put_latency_ns(8) + m.put_latency_ns(len));
}

void P2P::complete_now(const std::shared_ptr<detail::ReqState>& st, int src,
                       int tag, std::size_t len, std::uint64_t ready_at,
                       bool truncated) {
  st->status = Status{src, tag, len};
  st->ready_at.store(ready_at, std::memory_order_relaxed);
  st->truncated.store(truncated, std::memory_order_relaxed);
  st->done.store(true, std::memory_order_release);
}

void P2P::spin_until_done(detail::ReqState& st, int peer) {
  if (domain_.wait_until(
          [&] { return st.done.load(std::memory_order_acquire); },
          [&] { return peer >= 0 && !domain_.alive(peer); }) !=
      rdma::OpStatus::ok) {
    raise(ErrClass::peer_dead, "p2p: peer rank died");
  }
  domain_.nic(st.owner).wait_model_time(
      st.ready_at.load(std::memory_order_relaxed));
}

void P2P::deposit(int me, int dst, int tag, const void* buf, std::size_t len,
                  bool synchronous,
                  const std::shared_ptr<detail::ReqState>& sreq) {
  FOMPI_REQUIRE(dst >= 0 && dst < domain_.nranks(), ErrClass::rank,
                "send: destination rank out of range");
  const auto& m = domain_.config().model;
  domain_.nic(me).charge_model_ns(domain_.same_node(me, dst)
                                      ? m.intra_overhead_ns
                                      : m.inter_overhead_ns);
  count(Op::transport_put);
  count(Op::bytes_copied, len);

  const bool eager = !synchronous && len <= eager_threshold_;
  Mailbox& box = *mail_[static_cast<std::size_t>(dst)];
  std::unique_lock lock(box.mu);

  // Tag matching against posted receives (in post order).
  for (auto it = box.posted.begin(); it != box.posted.end(); ++it) {
    if (!matches(*it, me, tag)) continue;
    Posted posted = *it;
    box.posted.erase(it);
    lock.unlock();
    const double lat =
        eager ? eager_latency_ns(me, dst, len) : rndv_latency_ns(me, dst, len);
    const std::uint64_t arrival =
        model_now() + static_cast<std::uint64_t>(lat);
    const bool trunc = len > posted.cap;
    if (!trunc && len > 0) std::memcpy(posted.buf, buf, len);
    complete_now(posted.state, me, tag, len, arrival, trunc);
    // Synchronous/rendezvous senders complete at the same modeled time;
    // eager senders completed locally already.
    complete_now(sreq, me, tag, len, (eager ? model_now() : arrival), false);
    return;
  }

  // No posted receive: enqueue as unexpected.
  Unexpected u;
  u.src = me;
  u.tag = tag;
  u.len = len;
  if (eager) {
    u.arrive_at =
        model_now() + static_cast<std::uint64_t>(eager_latency_ns(me, dst, len));
    u.payload.assign(static_cast<const std::byte*>(buf),
                     static_cast<const std::byte*>(buf) + len);
    complete_now(sreq, me, tag, len, model_now(), false);
  } else {
    // Rendezvous: only the ready-to-send envelope travels now.
    u.arrive_at = model_now() + static_cast<std::uint64_t>(
                                    domain_.model_ns(m.put_latency_ns(8)));
    u.sender_buf = buf;
    u.sender = sreq;  // completed by the receiver at match time
  }
  box.unexpected.push_back(std::move(u));
}

void P2P::send(int me, int dst, int tag, const void* buf, std::size_t len) {
  auto sreq = std::make_shared<detail::ReqState>(me);
  deposit(me, dst, tag, buf, len, /*synchronous=*/false, sreq);
  spin_until_done(*sreq, dst);
}

void P2P::ssend(int me, int dst, int tag, const void* buf, std::size_t len) {
  auto sreq = std::make_shared<detail::ReqState>(me);
  deposit(me, dst, tag, buf, len, /*synchronous=*/true, sreq);
  spin_until_done(*sreq, dst);
}

P2PRequest P2P::isend(int me, int dst, int tag, const void* buf,
                      std::size_t len) {
  P2PRequest req;
  req.state_ = std::make_shared<detail::ReqState>(me);
  deposit(me, dst, tag, buf, len, /*synchronous=*/false, req.state_);
  return req;
}

P2PRequest P2P::issend(int me, int dst, int tag, const void* buf,
                       std::size_t len) {
  P2PRequest req;
  req.state_ = std::make_shared<detail::ReqState>(me);
  deposit(me, dst, tag, buf, len, /*synchronous=*/true, req.state_);
  return req;
}

P2PRequest P2P::irecv(int me, int src, int tag, void* buf, std::size_t cap) {
  FOMPI_REQUIRE(src == kAnySource || (src >= 0 && src < domain_.nranks()),
                ErrClass::rank, "irecv: source rank out of range");
  P2PRequest req;
  req.state_ = std::make_shared<detail::ReqState>(me);
  Mailbox& box = *mail_[static_cast<std::size_t>(me)];
  std::unique_lock lock(box.mu);
  // Match the unexpected queue in arrival order (ignoring modeled arrival
  // time: a queued message is logically in flight, so the receive must
  // consume it; the model time is paid by waiting below).
  for (auto it = box.unexpected.begin(); it != box.unexpected.end(); ++it) {
    if ((src != kAnySource && it->src != src) ||
        (tag != kAnyTag && it->tag != tag)) {
      continue;
    }
    Unexpected u = std::move(*it);
    box.unexpected.erase(it);
    lock.unlock();
    const bool trunc = u.len > cap;
    std::uint64_t arrival = u.arrive_at;
    if (u.sender != nullptr) {
      // Rendezvous: copy straight out of the sender buffer, then release
      // the sender at the modeled completion of the bulk transfer.
      const std::uint64_t t_done =
          model_now() +
          static_cast<std::uint64_t>(rndv_latency_ns(u.src, me, u.len));
      if (!trunc && u.len > 0) std::memcpy(buf, u.sender_buf, u.len);
      complete_now(u.sender, u.src, u.tag, u.len, t_done, false);
      arrival = t_done;
    } else if (!trunc && u.len > 0) {
      std::memcpy(buf, u.payload.data(), u.len);
    }
    complete_now(req.state_, u.src, u.tag, u.len, arrival, trunc);
    return req;
  }
  box.posted.push_back(Posted{src, tag, buf, cap, req.state_});
  return req;
}

void P2P::recv(int me, int src, int tag, void* buf, std::size_t cap,
               Status* st) {
  P2PRequest req = irecv(me, src, tag, buf, cap);
  wait(req, st);
}

void P2P::sendrecv(int me, int dst, int stag, const void* sbuf,
                   std::size_t slen, int src, int rtag, void* rbuf,
                   std::size_t rcap, Status* st) {
  P2PRequest sreq = isend(me, dst, stag, sbuf, slen);
  recv(me, src, rtag, rbuf, rcap, st);
  wait(sreq);
}

bool P2P::test(P2PRequest& req, Status* st) {
  FOMPI_REQUIRE(req.valid(), ErrClass::arg, "test on an invalid request");
  detail::ReqState& s = *req.state_;
  if (!s.done.load(std::memory_order_acquire)) return false;
  if (s.ready_at.load(std::memory_order_relaxed) > model_now()) return false;
  FOMPI_REQUIRE(!s.truncated.load(std::memory_order_relaxed),
                ErrClass::truncate, "message longer than receive buffer");
  if (st != nullptr) *st = s.status;
  req.state_.reset();
  return true;
}

void P2P::wait(P2PRequest& req, Status* st) {
  FOMPI_REQUIRE(req.valid(), ErrClass::arg, "wait on an invalid request");
  spin_until_done(*req.state_);
  FOMPI_REQUIRE(!req.state_->truncated.load(std::memory_order_relaxed),
                ErrClass::truncate, "message longer than receive buffer");
  if (st != nullptr) *st = req.state_->status;
  req.state_.reset();
}

void P2P::waitall(std::vector<P2PRequest>& reqs) {
  for (auto& r : reqs) {
    if (r.valid()) wait(r);
  }
}

bool P2P::iprobe(int me, int src, int tag, Status* st) {
  Mailbox& box = *mail_[static_cast<std::size_t>(me)];
  const std::uint64_t t = model_now();
  std::scoped_lock lock(box.mu);
  for (const auto& u : box.unexpected) {
    if (!matches(u, src, tag, t)) continue;
    if (st != nullptr) *st = Status{u.src, u.tag, u.len};
    return true;
  }
  return false;
}

}  // namespace fompi::fabric
