// Two-sided message passing over the RDMA substrate: the "MPI-1" baseline.
//
// The paper's motivation section explains why message passing over RDMA
// costs more than native RMA: tag matching, the eager protocol's extra copy
// for small messages, and the rendezvous protocol's synchronization for
// large ones. This module implements exactly those mechanisms so the
// baseline exhibits the structural overheads the paper measures:
//   * eager (len <= eager_threshold): the payload is copied into the
//     receiver's unexpected queue (or directly into a matching posted
//     receive); the sender completes locally.
//   * rendezvous (len > threshold, and all synchronous sends): the payload
//     stays at the sender until the receiver matches, then moves in one
//     copy; the sender blocks until matched (RTS/CTS handshake).
// Matching follows MPI ordering: per (source, tag) pairs are matched in
// program order; wildcards kAnySource / kAnyTag are supported.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "rdma/nic.hpp"

namespace fompi::fabric {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Status {
  int source = -1;
  int tag = -1;
  std::size_t len = 0;
};

namespace detail {
struct ReqState {
  explicit ReqState(int owner) : owner(owner) {}
  const int owner;  // the rank that waits on it (whose NIC waits)
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> ready_at{0};  // modeled arrival time (ns)
  std::atomic<bool> truncated{false};
  Status status{};
};
}  // namespace detail

/// Completion handle for nonblocking sends/receives.
class P2PRequest {
 public:
  P2PRequest() = default;
  bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class P2P;
  std::shared_ptr<detail::ReqState> state_;
};

class P2P {
 public:
  P2P(rdma::Domain& domain, std::size_t eager_threshold);

  std::size_t eager_threshold() const noexcept { return eager_threshold_; }

  // --- blocking --------------------------------------------------------------
  void send(int me, int dst, int tag, const void* buf, std::size_t len);
  /// Synchronous send: completes only once the receiver matched it.
  void ssend(int me, int dst, int tag, const void* buf, std::size_t len);
  void recv(int me, int src, int tag, void* buf, std::size_t cap,
            Status* st = nullptr);
  /// Combined send+recv (deadlock-free pairwise exchange).
  void sendrecv(int me, int dst, int stag, const void* sbuf, std::size_t slen,
                int src, int rtag, void* rbuf, std::size_t rcap,
                Status* st = nullptr);

  // --- nonblocking -------------------------------------------------------------
  P2PRequest isend(int me, int dst, int tag, const void* buf, std::size_t len);
  P2PRequest issend(int me, int dst, int tag, const void* buf,
                    std::size_t len);
  P2PRequest irecv(int me, int src, int tag, void* buf, std::size_t cap);
  bool test(P2PRequest& req, Status* st = nullptr);
  void wait(P2PRequest& req, Status* st = nullptr);
  void waitall(std::vector<P2PRequest>& reqs);

  /// Nonblocking probe of the unexpected queue.
  bool iprobe(int me, int src, int tag, Status* st = nullptr);

 private:
  struct Unexpected {
    int src;
    int tag;
    std::size_t len;
    std::uint64_t arrive_at;                  // not matchable before this
    std::vector<std::byte> payload;           // eager payload
    const void* sender_buf = nullptr;         // rendezvous source
    std::shared_ptr<detail::ReqState> sender; // rendezvous completion
  };

  struct Posted {
    int src;
    int tag;
    void* buf;
    std::size_t cap;
    std::shared_ptr<detail::ReqState> state;
  };

  struct alignas(64) Mailbox {
    std::mutex mu;
    std::deque<Unexpected> unexpected;
    std::deque<Posted> posted;
  };

  bool matches(const Posted& p, int src, int tag) const noexcept {
    return (p.src == kAnySource || p.src == src) &&
           (p.tag == kAnyTag || p.tag == tag);
  }
  bool matches(const Unexpected& u, int src, int tag,
               std::uint64_t now) const noexcept {
    return (src == kAnySource || u.src == src) &&
           (tag == kAnyTag || u.tag == tag) && u.arrive_at <= now;
  }

  std::uint64_t model_now() const noexcept;
  double eager_latency_ns(int me, int dst, std::size_t len) const;
  double rndv_latency_ns(int me, int dst, std::size_t len) const;

  void deposit(int me, int dst, int tag, const void* buf, std::size_t len,
               bool synchronous, const std::shared_ptr<detail::ReqState>& sreq);
  void complete_now(const std::shared_ptr<detail::ReqState>& st, int src,
                    int tag, std::size_t len, std::uint64_t ready_at,
                    bool truncated);
  /// Waits until the request completes (Domain::wait_until), then waits
  /// for its modeled arrival on the owner's NIC. When `peer` is a valid
  /// rank, a fault-plan death of that peer raises a typed peer_dead error
  /// instead of waiting forever (-1 = unknown peer, e.g. a wildcard
  /// receive).
  void spin_until_done(detail::ReqState& st, int peer = -1);

  rdma::Domain& domain_;
  std::size_t eager_threshold_;
  std::vector<std::unique_ptr<Mailbox>> mail_;
};

}  // namespace fompi::fabric
