#include "apps/dsde.hpp"

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"
#include "fabric/progress/progress.hpp"

namespace fompi::apps {

namespace {
constexpr int kTagData = 301;
}

const char* to_string(DsdeProto p) noexcept {
  switch (p) {
    case DsdeProto::alltoall:       return "alltoall";
    case DsdeProto::alltoall_p2p:   return "alltoall_p2p";
    case DsdeProto::reduce_scatter: return "reduce_scatter";
    case DsdeProto::nbx:            return "nbx";
    case DsdeProto::rma:            return "rma";
  }
  return "unknown";
}

std::vector<DsdeMsg> dsde_random_workload(int rank, int nranks, int k,
                                          std::uint64_t seed) {
  Rng rng(seed * 1315423911u + static_cast<std::uint64_t>(rank));
  std::vector<DsdeMsg> sends;
  sends.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    int target = rank;
    if (nranks > 1) {
      while (target == rank) {
        target = static_cast<int>(rng.below(static_cast<std::uint64_t>(nranks)));
      }
    }
    sends.push_back(DsdeMsg{target, rng.next() | 1});
  }
  return sends;
}

namespace {

std::vector<DsdeMsg> exchange_alltoall(fabric::RankCtx& ctx,
                                       const std::vector<DsdeMsg>& sends) {
  // Counts and payloads both travel through the RMA-native alltoallv:
  // the count exchange rides the put/notify trees and the payload phase
  // is one put per nonzero destination plus the arrival counter — no
  // two-sided matching anywhere.
  const int p = ctx.nranks();
  auto& coll = ctx.fabric().coll();
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(p), 0);
  for (const auto& m : sends) ++counts[static_cast<std::size_t>(m.peer)];
  std::vector<std::uint64_t> sdispls(static_cast<std::size_t>(p), 0);
  for (int j = 1; j < p; ++j) {
    sdispls[static_cast<std::size_t>(j)] =
        sdispls[static_cast<std::size_t>(j - 1)] +
        counts[static_cast<std::size_t>(j - 1)];
  }
  // Pack payloads grouped by destination.
  std::vector<std::uint64_t> packed(sends.size());
  {
    std::vector<std::uint64_t> fill = sdispls;
    for (const auto& m : sends) {
      packed[static_cast<std::size_t>(fill[static_cast<std::size_t>(m.peer)]++)] =
          m.payload;
    }
  }
  std::vector<std::uint64_t> dst, recvcounts, rdispls;
  coll.alltoallv(ctx.rank(), packed.data(), counts.data(), sdispls.data(), dst,
                 recvcounts, rdispls);
  std::vector<DsdeMsg> received;
  received.reserve(dst.size());
  for (int src = 0; src < p; ++src) {
    for (std::uint64_t i = 0; i < recvcounts[static_cast<std::size_t>(src)];
         ++i) {
      received.push_back(DsdeMsg{
          src, dst[static_cast<std::size_t>(
                   rdispls[static_cast<std::size_t>(src)] + i)]});
    }
  }
  return received;
}

std::vector<DsdeMsg> exchange_alltoall_p2p(fabric::RankCtx& ctx,
                                           const std::vector<DsdeMsg>& sends) {
  const int p = ctx.nranks();
  auto& p2p = ctx.fabric().p2p();
  // Dense count matrix: column exchange via alltoall.
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(p), 0);
  for (const auto& m : sends) ++counts[static_cast<std::size_t>(m.peer)];
  std::vector<std::uint64_t> incoming(static_cast<std::size_t>(p), 0);
  ctx.fabric().coll().alltoall(ctx.rank(), counts.data(), std::size_t{1},
                               incoming.data());
  // Data movement with known counts.
  std::vector<fabric::P2PRequest> reqs;
  for (const auto& m : sends) {
    reqs.push_back(
        p2p.isend(ctx.rank(), m.peer, kTagData, &m.payload, 8));
  }
  std::vector<DsdeMsg> received;
  for (int src = 0; src < p; ++src) {
    for (std::uint64_t i = 0; i < incoming[static_cast<std::size_t>(src)];
         ++i) {
      std::uint64_t v = 0;
      p2p.recv(ctx.rank(), src, kTagData, &v, 8);
      received.push_back(DsdeMsg{src, v});
    }
  }
  p2p.waitall(reqs);
  ctx.barrier();
  return received;
}

std::vector<DsdeMsg> exchange_reduce_scatter(
    fabric::RankCtx& ctx, const std::vector<DsdeMsg>& sends) {
  const int p = ctx.nranks();
  auto& p2p = ctx.fabric().p2p();
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(p), 0);
  for (const auto& m : sends) ++counts[static_cast<std::size_t>(m.peer)];
  std::uint64_t my_incoming = 0;
  ctx.fabric().coll().reduce_scatter_block(
      ctx.rank(), counts.data(), &my_incoming, 1,
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  std::vector<fabric::P2PRequest> reqs;
  for (const auto& m : sends) {
    reqs.push_back(p2p.isend(ctx.rank(), m.peer, kTagData, &m.payload, 8));
  }
  std::vector<DsdeMsg> received;
  for (std::uint64_t i = 0; i < my_incoming; ++i) {
    std::uint64_t v = 0;
    fabric::Status st;
    p2p.recv(ctx.rank(), fabric::kAnySource, kTagData, &v, 8, &st);
    received.push_back(DsdeMsg{st.source, v});
  }
  p2p.waitall(reqs);
  ctx.barrier();
  return received;
}

// NBX on the progress engine, as two fibers. The sender fiber issues the
// synchronous sends and drives them to completion; the receiver fiber
// drains probe-able messages, starts the nonblocking barrier once the local
// sends finished, and parks on poll_ready() in between — the scheduler's
// idle loop (one reset-on-progress back-off step per idle pass) does the
// waiting.
namespace progress = fabric::progress;

class NbxSenderFiber final : public progress::Fiber {
 public:
  NbxSenderFiber(fabric::RankCtx& ctx, const std::vector<DsdeMsg>& sends,
                 bool* all_sent)
      : ctx_(ctx), sends_(sends), all_sent_(all_sent) {}

 protected:
  void step(progress::Scheduler& s) override {
    auto& p2p = ctx_.fabric().p2p();
    FOMPI_FIBER_BEGIN();
    for (const auto& m : sends_) {
      reqs_.push_back(p2p.issend(ctx_.rank(), m.peer, kTagData, &m.payload, 8));
    }
    for (i_ = 0; i_ < reqs_.size(); ++i_) {
      while (reqs_[i_].valid() && !p2p.test(reqs_[i_])) {
        FOMPI_FIBER_AWAIT_READY(s);
      }
    }
    *all_sent_ = true;
    FOMPI_FIBER_END();
  }

 private:
  fabric::RankCtx& ctx_;
  const std::vector<DsdeMsg>& sends_;
  bool* all_sent_;
  std::vector<fabric::P2PRequest> reqs_;
  std::size_t i_ = 0;
};

class NbxReceiverFiber final : public progress::Fiber {
 public:
  NbxReceiverFiber(fabric::RankCtx& ctx, const bool* all_sent,
                   std::vector<DsdeMsg>* out)
      : ctx_(ctx), all_sent_(all_sent), out_(out) {}

 protected:
  void step(progress::Scheduler& s) override {
    auto& p2p = ctx_.fabric().p2p();
    auto& coll = ctx_.fabric().coll();
    FOMPI_FIBER_BEGIN();
    while (true) {
      while (p2p.iprobe(ctx_.rank(), fabric::kAnySource, kTagData, &st_)) {
        v_ = 0;
        p2p.recv(ctx_.rank(), st_.source, kTagData, &v_, 8);
        out_->push_back(DsdeMsg{st_.source, v_});
      }
      if (!barrier_started_ && *all_sent_) {
        coll.ibarrier_begin(ctx_.rank());
        barrier_started_ = true;
      }
      if (barrier_done_) break;
      FOMPI_FIBER_AWAIT_READY(s);
    }
    FOMPI_FIBER_END();
  }

  bool poll_ready() override {
    // ibarrier_test raises once the barrier already completed, so the
    // result is latched here and step() consumes the flag.
    if (barrier_started_ && !barrier_done_ &&
        ctx_.fabric().coll().ibarrier_test(ctx_.rank())) {
      barrier_done_ = true;
    }
    if (barrier_done_) return true;
    fabric::Status st;
    if (ctx_.fabric().p2p().iprobe(ctx_.rank(), fabric::kAnySource, kTagData,
                                   &st)) {
      return true;
    }
    // Until our sends finished we must keep running to observe all_sent
    // flipping (the sender fiber cannot wake us).
    return !barrier_started_;
  }

 private:
  fabric::RankCtx& ctx_;
  const bool* all_sent_;
  std::vector<DsdeMsg>* out_;
  fabric::Status st_{};
  std::uint64_t v_ = 0;
  bool barrier_started_ = false;
  bool barrier_done_ = false;
};

std::vector<DsdeMsg> exchange_nbx(fabric::RankCtx& ctx,
                                  const std::vector<DsdeMsg>& sends) {
  std::vector<DsdeMsg> received;
  bool all_sent = false;
  progress::Scheduler sched(ctx.nic());
  sched.spawn<NbxSenderFiber>(ctx, sends, &all_sent);
  sched.spawn<NbxReceiverFiber>(ctx, &all_sent, &received);
  sched.run();
  return received;
}

}  // namespace

DsdeRmaExchanger::DsdeRmaExchanger(fabric::RankCtx& ctx,
                                   std::size_t max_incoming)
    : max_incoming_(max_incoming),
      win_(core::Win::allocate(ctx, 8 + max_incoming * 16)) {}

void DsdeRmaExchanger::destroy(fabric::RankCtx& ctx) {
  ctx.barrier();
  win_.free();
}

std::vector<DsdeMsg> DsdeRmaExchanger::exchange(
    fabric::RankCtx& ctx, const std::vector<DsdeMsg>& sends) {
  struct Slot {
    std::uint64_t source_plus_1;
    std::uint64_t payload;
  };
  // Reset the fill counter from the previous round, then exchange inside
  // one pair of fences: fetch_add reserves a slot at the target, a put
  // fills it (the accumulate protocol of Fig 7b).
  auto* base = static_cast<std::byte*>(win_.base());
  std::memset(base, 0, 8);
  win_.fence();
  const std::uint64_t one = 1;
  for (const auto& m : sends) {
    FOMPI_REQUIRE(m.peer >= 0 && m.peer < ctx.nranks(), ErrClass::rank,
                  "dsde: target out of range");
    std::uint64_t idx = 0;
    win_.fetch_and_op(&one, &idx, Elem::u64, RedOp::sum, m.peer, 0);
    FOMPI_REQUIRE(idx < max_incoming_, ErrClass::no_mem,
                  "dsde rma slot array exhausted");
    const Slot s{static_cast<std::uint64_t>(ctx.rank()) + 1, m.payload};
    win_.put(&s, sizeof(Slot), m.peer,
             8 + static_cast<std::size_t>(idx) * sizeof(Slot));
  }
  win_.fence();
  std::vector<DsdeMsg> received;
  std::uint64_t n = 0;
  std::memcpy(&n, base, 8);
  for (std::uint64_t i = 0; i < n; ++i) {
    Slot s;
    std::memcpy(&s, base + 8 + i * sizeof(Slot), sizeof(Slot));
    received.push_back(
        DsdeMsg{static_cast<int>(s.source_plus_1 - 1), s.payload});
  }
  win_.fence();  // nobody reuses the window before all reads finished
  return received;
}

std::vector<DsdeMsg> dsde_exchange(fabric::RankCtx& ctx, DsdeProto proto,
                                   const std::vector<DsdeMsg>& sends) {
  for (const auto& m : sends) {
    FOMPI_REQUIRE(m.peer >= 0 && m.peer < ctx.nranks(), ErrClass::rank,
                  "dsde: target out of range");
  }
  switch (proto) {
    case DsdeProto::alltoall:       return exchange_alltoall(ctx, sends);
    case DsdeProto::alltoall_p2p:   return exchange_alltoall_p2p(ctx, sends);
    case DsdeProto::reduce_scatter: return exchange_reduce_scatter(ctx, sends);
    case DsdeProto::nbx:            return exchange_nbx(ctx, sends);
    case DsdeProto::rma: {
      DsdeRmaExchanger ex(ctx,
                          static_cast<std::size_t>(ctx.nranks()) * 8 + 64);
      auto out = ex.exchange(ctx, sends);
      ex.destroy(ctx);
      return out;
    }
  }
  raise(ErrClass::arg, "bad dsde protocol");
}

}  // namespace fompi::apps
