#include "fabric/collectives.hpp"

#include <atomic>
#include <bit>

#include "common/backoff.hpp"
#include "common/error.hpp"
#include "trace/trace.hpp"

namespace fompi::fabric {

namespace {
/// floor(log2 n) for n >= 1.
int floor_log2(int n) noexcept {
  return std::bit_width(static_cast<unsigned>(n)) - 1;
}
}  // namespace

Collectives::Collectives(rdma::Domain& domain)
    : domain_(domain),
      state_(static_cast<std::size_t>(domain.nranks())),
      published_(static_cast<std::size_t>(domain.nranks())) {
  const int p = domain_.nranks();
  log2p_ = std::bit_width(static_cast<unsigned>(p - 1));  // ceil(log2 p)
  FOMPI_REQUIRE(log2p_ <= kMaxRounds, ErrClass::arg, "too many ranks");

  const int rpn_cfg = domain_.config().ranks_per_node;
  nnodes_ = p;
  if (rpn_cfg >= 2 && rpn_cfg <= kMaxIntra && p % rpn_cfg == 0 &&
      p / rpn_cfg >= 2) {
    rpn_ = rpn_cfg;
    nnodes_ = p / rpn_cfg;
  }

  flag_mem_.reserve(static_cast<std::size_t>(p));
  flag_desc_.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    flag_mem_.emplace_back((kMaxRounds + kDataSlots + 1) * kFlagBytes);
    flag_desc_.push_back(domain_.registry().register_region(
        r, flag_mem_.back().data(), flag_mem_.back().size()));
  }
  // Landing regions are registered eagerly (at their minimum size) so the
  // registry's live-region count is stable from construction onward; growth
  // in ensure_landing swaps the registration, never adds one.
  land_mem_.resize(static_cast<std::size_t>(p));
  land_desc_.resize(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) ensure_landing(r, 1);
  scratch_.resize(static_cast<std::size_t>(p));
  put_displ_.resize(static_cast<std::size_t>(p));
  cx_mem_.reserve(static_cast<std::size_t>(p));
  cx_desc_.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    cx_mem_.emplace_back((4 * static_cast<std::size_t>(p) + 2) * kFlagBytes);
    cx_desc_.push_back(domain_.registry().register_region(
        r, cx_mem_.back().data(), cx_mem_.back().size()));
  }
}

Collectives::~Collectives() {
  for (const auto& d : cx_desc_) {
    if (d.rkey != 0) domain_.registry().deregister(d.rkey);
  }
  for (const auto& d : land_desc_) {
    if (d.rkey != 0) domain_.registry().deregister(d.rkey);
  }
  for (const auto& d : flag_desc_) {
    if (d.rkey != 0) domain_.registry().deregister(d.rkey);
  }
}

int Collectives::rounds_() const noexcept { return log2p_; }

std::uint64_t Collectives::load_word(int rank, int word) const {
  const std::size_t off = static_cast<std::size_t>(word) * kFlagBytes;
  const auto* w = reinterpret_cast<const std::uint64_t*>(
      flag_mem_[static_cast<std::size_t>(rank)].data() + off);
  return std::atomic_ref<const std::uint64_t>(*w).load(
      std::memory_order_acquire);
}

const std::uint64_t* Collectives::ctr_word_ptr(int rank) const {
  return reinterpret_cast<const std::uint64_t*>(
      flag_mem_[static_cast<std::size_t>(rank)].data() +
      static_cast<std::size_t>(kCtrWord) * kFlagBytes);
}

void Collectives::barrier(int rank) {
  if (nranks() == 1) return;
  const trace::Span tsp(trace::EvClass::barrier);
  const RankState& st = state_[static_cast<std::size_t>(rank)];
  ibarrier_begin(rank);
  // A fresh back-off per dissemination round, as each round is a new wait.
  // The poll itself raises peer_dead once a round's writer died with its
  // flag still missing.
  Backoff backoff;
  int round = st.ib_round;
  domain_.wait_until(
      [&] {
        if (ibarrier_test(rank)) return true;
        if (st.ib_round != round) {
          round = st.ib_round;
          backoff.reset();
        }
        return false;
      },
      rdma::Domain::NoPeer(), &backoff);
}

void Collectives::ibarrier_begin(int rank) {
  RankState& st = state_[static_cast<std::size_t>(rank)];
  FOMPI_REQUIRE(!st.ib_active, ErrClass::rma_sync,
                "only one ibarrier may be in flight per rank");
  st.ib_active = true;
  ++st.ib_gen;
  st.ib_round = 0;
  st.ib_notified = false;
}

bool Collectives::ibarrier_test(int rank) {
  const int p = nranks();
  RankState& st = state_[static_cast<std::size_t>(rank)];
  FOMPI_REQUIRE(st.ib_active, ErrClass::rma_sync,
                "ibarrier_test without ibarrier_begin");
  // Cleared up front: a poll that raises (dead peer) ends this barrier, so
  // the rank's next barrier starts clean and fails typed again.
  st.ib_active = false;
  rdma::Nic& nic = domain_.nic(rank);
  while (st.ib_round < rounds_() && p > 1) {
    const int r = st.ib_round;
    if (!st.ib_notified) {
      const int partner = static_cast<int>(
          (static_cast<std::uint64_t>(rank) + (1ull << r)) %
          static_cast<std::uint64_t>(p));
      nic.put(partner, flag_desc_[static_cast<std::size_t>(partner)],
              static_cast<std::size_t>(r) * kFlagBytes, &st.ib_gen,
              kFlagBytes);
      st.ib_notified = true;
    }
    if (load_word(rank, r) < st.ib_gen) {
      // Round r's flag is written by rank - 2^r (mod p). If that writer
      // died (fault-plan kill under errors_return) its flag never arrives;
      // raise a typed peer_dead instead of polling forever. death_epoch()
      // keeps the common no-deaths case to one load. The flag must be
      // re-checked AFTER observing the death: on a one-core host the writer
      // can deliver its flag, run ahead, and die all inside our yield
      // window, and its flag stores precede the death mark — so only a flag
      // still missing from a dead writer can never arrive.
      const int writer = static_cast<int>(
          (static_cast<std::uint64_t>(rank) + static_cast<std::uint64_t>(p) -
           ((1ull << r) % static_cast<std::uint64_t>(p))) %
          static_cast<std::uint64_t>(p));
      if (domain_.death_epoch() != 0 && !domain_.alive(writer) &&
          load_word(rank, r) < st.ib_gen) {
        raise(ErrClass::peer_dead, "barrier: peer rank died");
      }
      st.ib_active = true;
      return false;
    }
    ++st.ib_round;
    st.ib_notified = false;
  }
  return true;
}

void Collectives::publish(int rank, const void* p) {
  published_[static_cast<std::size_t>(rank)].store(p,
                                                   std::memory_order_release);
}

const void* Collectives::peer_ptr(int r) const {
  return published_[static_cast<std::size_t>(r)].load(
      std::memory_order_acquire);
}

// --- data-plane plumbing ----------------------------------------------------

void Collectives::put_slot(int rank, int target, int slot, std::uint64_t seq) {
  domain_.nic(rank).put(target, flag_desc_[static_cast<std::size_t>(target)],
                        slot_off(slot), &seq, kFlagBytes);
}

void Collectives::wait_slot(int rank, int slot, std::uint64_t seq,
                            int writer) {
  const int word = kMaxRounds + slot;
  if (domain_.wait_until([&] { return load_word(rank, word) >= seq; },
                         [&] { return !domain_.alive(writer); }) !=
      rdma::OpStatus::ok) {
    raise(ErrClass::peer_dead, "collective: peer rank died");
  }
}

void Collectives::wait_counter(int rank, const std::uint64_t* word,
                               std::uint64_t target) {
  (void)rank;
  std::atomic_ref<const std::uint64_t> w(*word);
  // Arrival counters aggregate all senders, so a missing increment cannot
  // be attributed to a specific peer. Every rank participates in a
  // collective, so ANY death means it cannot be completed reliably: fail
  // with a typed peer_dead (MPI semantics: a collective over a
  // communicator with a dead member fails).
  if (domain_.wait_until(
          [&] { return w.load(std::memory_order_acquire) >= target; },
          [] { return true; }) != rdma::OpStatus::ok) {
    raise(ErrClass::peer_dead, "collective: peer rank died");
  }
}

void Collectives::ensure_landing(int rank, std::size_t bytes) {
  auto& mem = land_mem_[static_cast<std::size_t>(rank)];
  if (mem.size() >= bytes) return;
  std::size_t ns = std::max<std::size_t>(mem.size() * 2, 4096);
  if (ns < bytes) ns = bytes;
  auto& desc = land_desc_[static_cast<std::size_t>(rank)];
  if (desc.rkey != 0) domain_.registry().deregister(desc.rkey);
  mem = AlignedBuffer(ns);
  desc = domain_.registry().register_region(rank, mem.data(), ns);
}

std::byte* Collectives::scratch_bytes(int rank, std::size_t bytes) {
  auto& mem = scratch_[static_cast<std::size_t>(rank)];
  if (mem.size() < bytes) {
    std::size_t ns = std::max<std::size_t>(mem.size() * 2, 4096);
    if (ns < bytes) ns = bytes;
    mem = AlignedBuffer(ns);
  }
  return mem.data();
}

std::uint64_t Collectives::enter_data(int rank, std::size_t landing_bytes) {
  ensure_landing(rank, std::max<std::size_t>(landing_bytes, kFlagBytes));
  const std::uint64_t seq = ++state_[static_cast<std::size_t>(rank)].data_seq;
  // The leading barrier does double duty: it publishes freshly grown
  // landing descriptors, and it orders every rank's exit from the previous
  // collective before any rank's new traffic (see the header's protocol
  // note) — no trailing barrier needed.
  barrier(rank);
  return seq;
}

std::size_t Collectives::allreduce_cap(std::size_t nbytes) const noexcept {
  // Member gather area (the leader's own share stays in its accumulator),
  // then the recursive-doubling rounds and the two fold slots.
  return (static_cast<std::size_t>(rpn_) - 1 +
          static_cast<std::size_t>(floor_log2(nnodes_)) + 2) *
         nbytes;
}

// --- bcast ------------------------------------------------------------------

void Collectives::bcast_bytes(int rank, int root, void* data,
                              std::size_t nbytes) {
  const int p = nranks();
  FOMPI_REQUIRE(root >= 0 && root < p, ErrClass::rank,
                "bcast: root out of range");
  if (nbytes == 0 || p == 1) return;
  const std::uint64_t seq = enter_data(rank, nbytes);
  const int node = rank / rpn_;
  const int root_node = root / rpn_;
  // The root represents its own node; every other node is represented by
  // its first rank.
  const int rep = node == root_node ? root : node * rpn_;
  rdma::Nic& nic = domain_.nic(rank);
  std::byte* land = land_mem_[static_cast<std::size_t>(rank)].data();

  if (rank != rep) {
    wait_slot(rank, kSlotIntraRel, seq, rep);
    std::memcpy(data, land, nbytes);
    return;
  }
  // MPICH binomial over nodes: receive from vnode with the lowest set bit
  // cleared, then fan out to vnode + m for every mask m below that bit.
  const int vnode = (node - root_node + nnodes_) % nnodes_;
  int mask = 1;
  while (mask < nnodes_) {
    if (vnode & mask) {
      const int pnode = ((vnode & ~mask) + root_node) % nnodes_;
      const int parent = pnode == root_node ? root : pnode * rpn_;
      wait_slot(rank, std::countr_zero(static_cast<unsigned>(mask)), seq,
                parent);
      std::memcpy(data, land, nbytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  // Inter-node children and intra-node members share two doorbell-batched
  // groups: all data puts, gsync (global visibility — mandatory under
  // deferred delivery), then all notify flags.
  nic.batch_begin();
  for (int m = mask; m > 0; m >>= 1) {
    if (vnode + m >= nnodes_) continue;
    // vnode + m != 0 (mod nnodes), so the child is never the root's node
    // and its representative is its first rank.
    const int child = ((vnode + m + root_node) % nnodes_) * rpn_;
    nic.put_nbi(child, land_desc_[static_cast<std::size_t>(child)], 0, data,
                nbytes);
  }
  for (int j = node * rpn_; j < (node + 1) * rpn_; ++j) {
    if (j == rank) continue;
    nic.put_nbi(j, land_desc_[static_cast<std::size_t>(j)], 0, data, nbytes);
  }
  nic.gsync();
  nic.batch_begin();
  for (int m = mask; m > 0; m >>= 1) {
    if (vnode + m >= nnodes_) continue;
    const int child = ((vnode + m + root_node) % nnodes_) * rpn_;
    const std::size_t off =
        slot_off(std::countr_zero(static_cast<unsigned>(m)));
    nic.put_nbi(child, flag_desc_[static_cast<std::size_t>(child)], off, &seq,
                kFlagBytes);
  }
  const std::size_t rel_off = slot_off(kSlotIntraRel);
  for (int j = node * rpn_; j < (node + 1) * rpn_; ++j) {
    if (j == rank) continue;
    nic.put_nbi(j, flag_desc_[static_cast<std::size_t>(j)], rel_off, &seq,
                kFlagBytes);
  }
  nic.gsync();
}

// --- reduce -----------------------------------------------------------------

void Collectives::reduce_bytes(int rank, int root, const void* src, void* dst,
                               std::size_t nelems, std::size_t esize,
                               Combiner cb) {
  const int p = nranks();
  FOMPI_REQUIRE(root >= 0 && root < p, ErrClass::rank,
                "reduce: root out of range");
  const std::size_t nbytes = nelems * esize;
  if (nbytes == 0) return;
  if (p == 1) {
    if (rank == root) std::memcpy(dst, src, nbytes);
    return;
  }
  const std::uint64_t seq =
      enter_data(rank, static_cast<std::size_t>(rounds_()) * nbytes);
  reduce_tree(rank, root, src, dst, nelems, esize, cb, seq);
}

void Collectives::reduce_tree(int rank, int root, const void* src, void* dst,
                              std::size_t nelems, std::size_t esize,
                              Combiner cb, std::uint64_t seq) {
  const int p = nranks();
  const std::size_t nbytes = nelems * esize;
  const int rel = (rank - root + p) % p;
  rdma::Nic& nic = domain_.nic(rank);
  std::byte* land = land_mem_[static_cast<std::size_t>(rank)].data();
  std::byte* acc = rank == root ? static_cast<std::byte*>(dst)
                                : scratch_bytes(rank, nbytes);
  std::memcpy(acc, src, nbytes);
  // Binomial gather-fold: round r either absorbs the child rel + 2^r (its
  // acc covers [rel + 2^r, rel + 2^(r+1)), so acc stays the left operand)
  // or ships acc to the parent and is done. Per-round landing offsets keep
  // concurrent child payloads apart.
  int round = 0;
  for (int m = 1; m < p; m <<= 1, ++round) {
    if (rel & m) {
      const int parent = ((rel & ~m) + root) % p;
      nic.put(parent, land_desc_[static_cast<std::size_t>(parent)],
              static_cast<std::size_t>(round) * nbytes, acc, nbytes);
      put_slot(rank, parent, round, seq);
      break;
    }
    if (rel + m < p) {
      const int child = (rel + m + root) % p;
      wait_slot(rank, round, seq, child);
      cb.fn(cb.ctx, acc, land + static_cast<std::size_t>(round) * nbytes,
            nelems, /*acc_left=*/true);
    }
  }
}

// --- allgather --------------------------------------------------------------

void Collectives::allgather_bytes(int rank, const void* src,
                                  std::size_t block, void* dst) {
  const int p = nranks();
  if (block == 0) return;
  if (p == 1) {
    std::memcpy(dst, src, block);
    return;
  }
  const std::uint64_t seq =
      enter_data(rank, static_cast<std::size_t>(p) * block);
  const int node = rank / rpn_;
  const int idx = rank % rpn_;
  const int leader = node * rpn_;
  rdma::Nic& nic = domain_.nic(rank);
  std::byte* land = land_mem_[static_cast<std::size_t>(rank)].data();
  std::byte* d = static_cast<std::byte*>(dst);

  if (idx != 0) {
    nic.put(leader, land_desc_[static_cast<std::size_t>(leader)],
            static_cast<std::size_t>(idx) * block, src, block);
    put_slot(rank, leader, kSlotIntraGather + idx, seq);
    wait_slot(rank, kSlotIntraRel, seq, leader);
    std::memcpy(dst, land, static_cast<std::size_t>(p) * block);
    return;
  }
  // Leader: assemble the node block in land[0, nblk), then Bruck it across
  // node leaders with the landing as the working buffer. After the round
  // with count c, land[k] holds the node block of node (node + k) %
  // nnodes for k < 2c. The blocking put reads land[0, send) while the
  // peer writes my land[c*nblk, ...) — disjoint ranges, so in-place is
  // race-free, and so are the members' gather puts into [block, nblk).
  std::memcpy(land, src, block);
  for (int j = 1; j < rpn_; ++j) {
    wait_slot(rank, kSlotIntraGather + j, seq, rank + j);
  }
  const std::size_t nblk = static_cast<std::size_t>(rpn_) * block;
  int round = 0;
  for (int cnt = 1; cnt < nnodes_; cnt <<= 1, ++round) {
    const std::size_t send =
        static_cast<std::size_t>(std::min(cnt, nnodes_ - cnt)) * nblk;
    const int to = ((node - cnt + nnodes_) % nnodes_) * rpn_;
    const int from = ((node + cnt) % nnodes_) * rpn_;
    nic.put(to, land_desc_[static_cast<std::size_t>(to)],
            static_cast<std::size_t>(cnt) * nblk, land, send);
    put_slot(rank, to, round, seq);
    wait_slot(rank, round, seq, from);
  }
  for (int k = 0; k < nnodes_; ++k) {
    const int n2 = (node + k) % nnodes_;
    std::memcpy(d + static_cast<std::size_t>(n2) * nblk,
                land + static_cast<std::size_t>(k) * nblk, nblk);
  }
  if (rpn_ == 1) return;
  nic.batch_begin();
  for (int j = 1; j < rpn_; ++j) {
    nic.put_nbi(rank + j, land_desc_[static_cast<std::size_t>(rank + j)], 0,
                dst, static_cast<std::size_t>(p) * block);
  }
  nic.gsync();
  const std::size_t rel_off = slot_off(kSlotIntraRel);
  nic.batch_begin();
  for (int j = 1; j < rpn_; ++j) {
    nic.put_nbi(rank + j, flag_desc_[static_cast<std::size_t>(rank + j)],
                rel_off, &seq, kFlagBytes);
  }
  nic.gsync();
}

// --- allreduce --------------------------------------------------------------

void Collectives::allreduce_bytes(int rank, const void* src, void* dst,
                                  std::size_t nelems, std::size_t esize,
                                  Combiner cb) {
  const int p = nranks();
  const std::size_t nbytes = nelems * esize;
  if (nbytes == 0) return;
  if (p == 1) {
    std::memcpy(dst, src, nbytes);
    return;
  }
  const std::uint64_t seq = enter_data(rank, allreduce_cap(nbytes));
  allreduce_core(rank, src, dst, nelems, esize, cb, land_desc_.data(),
                 land_mem_[static_cast<std::size_t>(rank)].data(), 0, seq);
}

void Collectives::allreduce_core(int rank, const void* src, void* dst,
                                 std::size_t nelems, std::size_t esize,
                                 Combiner cb, const rdma::RegionDesc* descs,
                                 std::byte* my_base, std::size_t base_off,
                                 std::uint64_t seq) {
  const std::size_t nbytes = nelems * esize;
  std::byte* acc = static_cast<std::byte*>(dst);
  std::memcpy(acc, src, nbytes);
  rdma::Nic& nic = domain_.nic(rank);
  const int node = rank / rpn_;
  const int idx = rank % rpn_;
  const int leader = node * rpn_;
  // Member j's share lands in its leader's gather slot j - 1.
  if (idx != 0) {
    nic.put(leader, descs[leader],
            base_off + static_cast<std::size_t>(idx - 1) * nbytes, acc,
            nbytes);
    put_slot(rank, leader, kSlotIntraGather + idx, seq);
    wait_slot(rank, kSlotIntraRel, seq, leader);
    std::memcpy(acc, my_base, nbytes);
    return;
  }
  // Leader: fold members in ascending rank order (keeps every rank's result
  // bit-identical), recursive-double across node leaders, release.
  for (int j = 1; j < rpn_; ++j) {
    wait_slot(rank, kSlotIntraGather + j, seq, rank + j);
    cb.fn(cb.ctx, acc, my_base + static_cast<std::size_t>(j - 1) * nbytes,
          nelems, /*acc_left=*/true);
  }
  const std::size_t rd_off = static_cast<std::size_t>(rpn_ - 1) * nbytes;
  rd_allreduce(rank, node, nnodes_, rpn_, acc, nelems, esize, cb, descs,
               my_base + rd_off, base_off + rd_off, seq);
  if (rpn_ == 1) return;
  nic.batch_begin();
  for (int j = 1; j < rpn_; ++j) {
    nic.put_nbi(rank + j, descs[rank + j], base_off, acc, nbytes);
  }
  nic.gsync();
  const std::size_t rel_off = slot_off(kSlotIntraRel);
  nic.batch_begin();
  for (int j = 1; j < rpn_; ++j) {
    nic.put_nbi(rank + j, flag_desc_[static_cast<std::size_t>(rank + j)],
                rel_off, &seq, kFlagBytes);
  }
  nic.gsync();
}

void Collectives::rd_allreduce(int rank, int idx, int nmemb, int stride,
                               std::byte* acc, std::size_t nelems,
                               std::size_t esize, Combiner cb,
                               const rdma::RegionDesc* descs, std::byte* land,
                               std::size_t land_off, std::uint64_t seq) {
  const std::size_t nbytes = nelems * esize;
  rdma::Nic& nic = domain_.nic(rank);
  const int pow2 = static_cast<int>(std::bit_floor(static_cast<unsigned>(nmemb)));
  const int nr = floor_log2(pow2);
  const int rem = nmemb - pow2;
  // MPICH non-power-of-two fold: the first 2*rem participants pair up; odd
  // members ship their vector to the even partner (landing slot nr) and sit
  // out, collecting the result afterwards (slot nr + 1).
  int newidx;
  if (idx < 2 * rem) {
    if (idx % 2 != 0) {
      const int peer = (idx - 1) * stride;
      nic.put(peer, descs[peer], land_off + static_cast<std::size_t>(nr) * nbytes,
              acc, nbytes);
      put_slot(rank, peer, kSlotFoldPre, seq);
      wait_slot(rank, kSlotFoldPost, seq, peer);
      std::memcpy(acc, land + static_cast<std::size_t>(nr + 1) * nbytes, nbytes);
      return;
    }
    wait_slot(rank, kSlotFoldPre, seq, (idx + 1) * stride);
    cb.fn(cb.ctx, acc, land + static_cast<std::size_t>(nr) * nbytes, nelems,
          /*acc_left=*/true);
    newidx = idx / 2;
  } else {
    newidx = idx - rem;
  }
  // Recursive doubling over the pow2 survivors. acc always covers a
  // contiguous block of participants, so acc is the left operand exactly
  // when newidx is below the partner.
  int round = 0;
  for (int mask = 1; mask < pow2; mask <<= 1, ++round) {
    const int npart = newidx ^ mask;
    const int pidx = npart < rem ? npart * 2 : npart + rem;
    const int peer = pidx * stride;
    nic.put(peer, descs[peer],
            land_off + static_cast<std::size_t>(round) * nbytes, acc, nbytes);
    put_slot(rank, peer, round, seq);
    wait_slot(rank, round, seq, peer);
    cb.fn(cb.ctx, acc, land + static_cast<std::size_t>(round) * nbytes, nelems,
          /*acc_left=*/newidx < npart);
  }
  if (idx < 2 * rem) {
    const int peer = (idx + 1) * stride;
    nic.put(peer, descs[peer],
            land_off + static_cast<std::size_t>(nr + 1) * nbytes, acc, nbytes);
    put_slot(rank, peer, kSlotFoldPost, seq);
  }
}

// --- reduce_scatter ---------------------------------------------------------

void Collectives::reduce_scatter_block_bytes(int rank, const void* src,
                                             void* dst, std::size_t nelems,
                                             std::size_t esize, Combiner cb) {
  const int p = nranks();
  const std::size_t block = nelems * esize;
  if (block == 0) return;
  if (p == 1) {
    std::memcpy(dst, src, block);
    return;
  }
  // Allreduce the whole vector and keep own block: O(log p) rounds, and
  // the scratch stays this call's (allreduce does not touch scratch_).
  std::byte* tmp = scratch_bytes(rank, static_cast<std::size_t>(p) * block);
  allreduce_bytes(rank, src, tmp, static_cast<std::size_t>(p) * nelems, esize,
                  cb);
  std::memcpy(dst, tmp + static_cast<std::size_t>(rank) * block, block);
}

// --- alltoall ---------------------------------------------------------------

void Collectives::alltoall_bytes(int rank, const void* src,
                                 std::size_t block, void* dst) {
  const int p = nranks();
  if (block == 0) return;
  if (p == 1) {
    std::memcpy(dst, src, block);
    return;
  }
  enter_data(rank, static_cast<std::size_t>(p) * block);
  rdma::Nic& nic = domain_.nic(rank);
  const std::byte* s = static_cast<const std::byte*>(src);
  std::byte* d = static_cast<std::byte*>(dst);
  std::byte* land = land_mem_[static_cast<std::size_t>(rank)].data();
  RankState& st = state_[static_cast<std::size_t>(rank)];
  // Direct exchange: everyone puts block i straight into peer i's landing
  // at rank*block (two batched doorbell groups: payloads, then one
  // fetch_add per peer on the arrival counter). Peer order is rotated by
  // rank so the fleet doesn't converge on one target at a time.
  nic.batch_begin();
  for (int i = 1; i < p; ++i) {
    const int peer = (rank + i) % p;
    nic.put_nbi(peer, land_desc_[static_cast<std::size_t>(peer)],
                static_cast<std::size_t>(rank) * block,
                s + static_cast<std::size_t>(peer) * block, block);
  }
  nic.gsync();
  nic.batch_begin();
  for (int i = 1; i < p; ++i) {
    const int peer = (rank + i) % p;
    nic.amo_nbi(peer, flag_desc_[static_cast<std::size_t>(peer)],
                static_cast<std::size_t>(kCtrWord) * kFlagBytes,
                rdma::AmoOp::fetch_add, 1);
  }
  nic.gsync();
  std::memcpy(d + static_cast<std::size_t>(rank) * block,
              s + static_cast<std::size_t>(rank) * block, block);
  st.ctr_expected += static_cast<std::uint64_t>(p - 1);
  wait_counter(rank, ctr_word_ptr(rank), st.ctr_expected);
  for (int j = 0; j < p; ++j) {
    if (j == rank) continue;
    std::memcpy(d + static_cast<std::size_t>(j) * block,
                land + static_cast<std::size_t>(j) * block, block);
  }
}

// --- alltoallv --------------------------------------------------------------

std::uint64_t Collectives::alltoallv_counts(int rank,
                                            const std::uint64_t* sendcounts,
                                            std::uint64_t* recvcounts,
                                            std::uint64_t* rdispls,
                                            std::size_t esize) {
  const int p = nranks();
  auto& pd = put_displ_[static_cast<std::size_t>(rank)];
  if (p == 1) {
    recvcounts[0] = sendcounts[0];
    rdispls[0] = 0;
    pd.assign(1, 0);
    return sendcounts[0];
  }
  // Both 8-byte exchanges run barrier-free over the dedicated
  // count-exchange plane (cx_mem_, registered once at construction). Slot
  // reuse is safe with just two parity banks: completing generation g
  // requires one arrival from every peer for g (the cumulative counter
  // target is (g+1)*(p-1) and no peer can be past g+1 until everyone
  // reaches g — induction on the first rank to complete each generation),
  // and a peer only issues its g+1 puts after reading its own g slots, so
  // nobody can be writing bank g%2 for generation g+2 while any rank still
  // reads it for g. Each peer's data put is globally visible before its
  // counter AMO (separate batched gsyncs), so a counter at target implies
  // every generation-g slot has landed. The counters are cumulative and
  // need no parity.
  RankState& st = state_[static_cast<std::size_t>(rank)];
  const std::size_t P = static_cast<std::size_t>(p);
  const std::size_t par = static_cast<std::size_t>(st.cx_seq++ & 1);
  const auto* cx = reinterpret_cast<const std::uint64_t*>(
      cx_mem_[static_cast<std::size_t>(rank)].data());
  rdma::Nic& nic = domain_.nic(rank);

  // Round 1: per-peer send counts.
  nic.batch_begin();
  for (int i = 1; i < p; ++i) {
    const int j = (rank + i) % p;
    nic.put_nbi(j, cx_desc_[static_cast<std::size_t>(j)],
                (par * P + static_cast<std::size_t>(rank)) * kFlagBytes,
                &sendcounts[j], kFlagBytes);
  }
  nic.gsync();
  nic.batch_begin();
  for (int i = 1; i < p; ++i) {
    const int j = (rank + i) % p;
    nic.amo_nbi(j, cx_desc_[static_cast<std::size_t>(j)], 4 * P * kFlagBytes,
                rdma::AmoOp::fetch_add, 1);
  }
  nic.gsync();
  st.cx_counts_expected += static_cast<std::uint64_t>(p - 1);
  wait_counter(rank, cx + 4 * P, st.cx_counts_expected);
  std::uint64_t total = 0;
  for (int j = 0; j < p; ++j) {
    recvcounts[j] = (j == rank) ? sendcounts[rank]
                                : cx[par * P + static_cast<std::size_t>(j)];
    rdispls[j] = total;
    total += recvcounts[j];
  }

  // Between the rounds is the one window with provably no put in flight
  // toward this rank's landing (call-N payload puts need our round-2
  // arrival; the previous call's were all counter-acknowledged before we
  // returned from it), so a requested landing regrow is safe here without
  // any barrier — and the paired alltoallv_put needs no leading barrier.
  if (esize != 0) {
    ensure_landing(rank, std::max<std::size_t>(
                             static_cast<std::size_t>(total) * esize,
                             kFlagBytes));
  }

  // Round 2: receive displacements back to the senders — after it,
  // pd[j] = rdispls_of_j[rank]. Disjoint slots and counter, same protocol.
  pd.resize(P);
  nic.batch_begin();
  for (int i = 1; i < p; ++i) {
    const int j = (rank + i) % p;
    nic.put_nbi(j, cx_desc_[static_cast<std::size_t>(j)],
                ((2 + par) * P + static_cast<std::size_t>(rank)) * kFlagBytes,
                &rdispls[j], kFlagBytes);
  }
  nic.gsync();
  nic.batch_begin();
  for (int i = 1; i < p; ++i) {
    const int j = (rank + i) % p;
    nic.amo_nbi(j, cx_desc_[static_cast<std::size_t>(j)],
                (4 * P + 1) * kFlagBytes, rdma::AmoOp::fetch_add, 1);
  }
  nic.gsync();
  st.cx_displs_expected += static_cast<std::uint64_t>(p - 1);
  wait_counter(rank, cx + 4 * P + 1, st.cx_displs_expected);
  for (int j = 0; j < p; ++j) {
    pd[static_cast<std::size_t>(j)] =
        (j == rank) ? rdispls[rank]
                    : cx[(2 + par) * P + static_cast<std::size_t>(j)];
  }
  return total;
}

void Collectives::alltoallv_put(int rank, const void* src,
                                const std::uint64_t* sendcounts,
                                const std::uint64_t* sdispls,
                                std::size_t esize, void* dst,
                                const std::uint64_t* recvcounts,
                                const std::uint64_t* rdispls) {
  const int p = nranks();
  if (p == 1) {
    std::memcpy(dst,
                static_cast<const std::byte*>(src) + sdispls[0] * esize,
                static_cast<std::size_t>(sendcounts[0]) * esize);
    return;
  }
  // The paired alltoallv_counts grew the landing, and its two handshakes
  // order generations: no peer can issue this call's payload puts before
  // our round-2 arrival, which followed the previous call's copy-out.
  alltoallv_put_core(
      rank, src, sendcounts, sdispls, esize, dst, recvcounts, rdispls,
      put_displ_[static_cast<std::size_t>(rank)].data(), land_desc_.data(),
      land_mem_[static_cast<std::size_t>(rank)].data(), 0, flag_desc_.data(),
      static_cast<std::size_t>(kCtrWord) * kFlagBytes, ctr_word_ptr(rank),
      &state_[static_cast<std::size_t>(rank)].ctr_expected);
}

void Collectives::alltoallv_put_core(
    int rank, const void* src, const std::uint64_t* sendcounts,
    const std::uint64_t* sdispls, std::size_t esize, void* dst,
    const std::uint64_t* recvcounts, const std::uint64_t* rdispls,
    const std::uint64_t* put_displ, const rdma::RegionDesc* descs,
    std::byte* my_data, std::size_t base_off,
    const rdma::RegionDesc* ctr_descs, std::size_t ctr_off,
    const std::uint64_t* ctr_word, std::uint64_t* ctr_expected) {
  const int p = nranks();
  rdma::Nic& nic = domain_.nic(rank);
  const std::byte* s = static_cast<const std::byte*>(src);
  std::byte* d = static_cast<std::byte*>(dst);
  // Payload group: one put per nonzero destination, landing directly at the
  // receiver-assigned displacement (so the landing mirrors the receiver's
  // dst layout). Then one fetch_add per peer — senders with nothing to send
  // still bump the counter, so the expected total is always p - 1.
  nic.batch_begin();
  for (int i = 1; i < p; ++i) {
    const int j = (rank + i) % p;
    if (sendcounts[j] == 0) continue;
    nic.put_nbi(j, descs[j],
                base_off + static_cast<std::size_t>(put_displ[j]) * esize,
                s + static_cast<std::size_t>(sdispls[j]) * esize,
                static_cast<std::size_t>(sendcounts[j]) * esize);
  }
  nic.gsync();
  nic.batch_begin();
  for (int i = 1; i < p; ++i) {
    const int j = (rank + i) % p;
    nic.amo_nbi(j, ctr_descs[j], ctr_off, rdma::AmoOp::fetch_add, 1);
  }
  nic.gsync();
  if (sendcounts[rank] != 0) {
    std::memcpy(d + static_cast<std::size_t>(rdispls[rank]) * esize,
                s + static_cast<std::size_t>(sdispls[rank]) * esize,
                static_cast<std::size_t>(sendcounts[rank]) * esize);
  }
  *ctr_expected += static_cast<std::uint64_t>(p - 1);
  wait_counter(rank, ctr_word, *ctr_expected);
  for (int j = 0; j < p; ++j) {
    if (j == rank || recvcounts[j] == 0) continue;
    std::memcpy(d + static_cast<std::size_t>(rdispls[j]) * esize,
                my_data + static_cast<std::size_t>(rdispls[j]) * esize,
                static_cast<std::size_t>(recvcounts[j]) * esize);
  }
}

// --- persistent plans -------------------------------------------------------

AlltoallvPlan::~AlltoallvPlan() {
  if (domain_ == nullptr) return;
  for (const auto& d : desc_) {
    if (d.rkey != 0) domain_->registry().deregister(d.rkey);
  }
}

AllreducePlan::~AllreducePlan() {
  if (domain_ == nullptr) return;
  for (const auto& d : desc_) {
    if (d.rkey != 0) domain_->registry().deregister(d.rkey);
  }
}

std::shared_ptr<AlltoallvPlan> Collectives::plan_alltoallv(
    int rank, const std::uint64_t* sendcounts, const std::uint64_t* sdispls,
    std::size_t esize) {
  const int p = nranks();
  // Rank 0 stages the shared plan object; the surrounding barriers order
  // the staging store before any reader and the readers before the reset.
  barrier(rank);
  if (rank == 0) {
    auto staged = std::make_shared<AlltoallvPlan>();
    staged->domain_ = &domain_;
    staged->esize_ = esize;
    staged->pr_.resize(static_cast<std::size_t>(p));
    staged->desc_.resize(static_cast<std::size_t>(p));
    plan_stage_ = staged;
  }
  barrier(rank);
  auto plan = std::static_pointer_cast<AlltoallvPlan>(plan_stage_);
  auto& mine = plan->pr_[static_cast<std::size_t>(rank)];
  mine.sendcounts.assign(sendcounts, sendcounts + p);
  mine.sdispls.assign(sdispls, sdispls + p);
  mine.recvcounts.resize(static_cast<std::size_t>(p));
  mine.rdispls.resize(static_cast<std::size_t>(p));
  mine.total_recv = alltoallv_counts(rank, sendcounts, mine.recvcounts.data(),
                                     mine.rdispls.data(), /*esize=*/0);
  mine.put_displ = put_displ_[static_cast<std::size_t>(rank)];
  // The landing holds two parity banks so runs can alternate without a
  // barrier. The bank stride must be uniform (senders address any
  // receiver's bank), so take the max landing size over all ranks.
  std::uint64_t bank =
      (std::max<std::uint64_t>(mine.total_recv * esize, kFlagBytes) +
       kCacheLine - 1) /
      kCacheLine * kCacheLine;
  std::uint64_t bank_max = 0;
  auto max_op = [](std::uint64_t a, std::uint64_t b) { return a > b ? a : b; };
  allreduce_bytes(rank, &bank, &bank_max, 1, sizeof(std::uint64_t),
                  make_combiner<std::uint64_t>(max_op));
  mine.bank_bytes = static_cast<std::size_t>(bank_max);
  const std::size_t bytes = AlltoallvPlan::kDataOff + 2 * mine.bank_bytes;
  mine.landing = AlignedBuffer(bytes);
  plan->desc_[static_cast<std::size_t>(rank)] =
      domain_.registry().register_region(rank, mine.landing.data(), bytes);
  barrier(rank);  // all landings registered before anyone may run the plan
  if (rank == 0) plan_stage_.reset();
  return plan;
}

void Collectives::run_alltoallv(int rank, AlltoallvPlan& plan, const void* src,
                                void* dst) {
  const int p = nranks();
  auto& mine = plan.pr_[static_cast<std::size_t>(rank)];
  if (p == 1) {
    std::memcpy(dst,
                static_cast<const std::byte*>(src) +
                    static_cast<std::size_t>(mine.sdispls[0]) * plan.esize_,
                static_cast<std::size_t>(mine.sendcounts[0]) * plan.esize_);
    return;
  }
  // No barrier: runs alternate between the two parity banks, and the
  // cumulative counter orders generations. Completing run N requires one
  // (data-then-AMO gsync'd) arrival from every peer for run N, and a peer
  // only issues its run N+1 puts after copying run N out of its own
  // landing — so by induction on the first rank to complete each run,
  // nobody can be writing bank N%2 for run N+2 while any rank still reads
  // it for run N.
  const std::size_t off = AlltoallvPlan::kDataOff +
                          static_cast<std::size_t>(mine.run_seq++ & 1) *
                              mine.bank_bytes;
  alltoallv_put_core(
      rank, src, mine.sendcounts.data(), mine.sdispls.data(), plan.esize_, dst,
      mine.recvcounts.data(), mine.rdispls.data(), mine.put_displ.data(),
      plan.desc_.data(), mine.landing.data() + off, off, plan.desc_.data(), 0,
      reinterpret_cast<const std::uint64_t*>(mine.landing.data()),
      &mine.ctr_expected);
}

std::shared_ptr<AllreducePlan> Collectives::plan_allreduce(int rank,
                                                           std::size_t nelems,
                                                           std::size_t esize) {
  const int p = nranks();
  barrier(rank);
  if (rank == 0) {
    auto staged = std::make_shared<AllreducePlan>();
    staged->domain_ = &domain_;
    staged->nelems_ = nelems;
    staged->esize_ = esize;
    staged->pr_.resize(static_cast<std::size_t>(p));
    staged->desc_.resize(static_cast<std::size_t>(p));
    plan_stage_ = staged;
  }
  barrier(rank);
  auto plan = std::static_pointer_cast<AllreducePlan>(plan_stage_);
  const std::size_t bytes =
      std::max<std::size_t>(allreduce_cap(nelems * esize), kFlagBytes);
  auto& mine = plan->pr_[static_cast<std::size_t>(rank)];
  mine.landing = AlignedBuffer(bytes);
  plan->desc_[static_cast<std::size_t>(rank)] =
      domain_.registry().register_region(rank, mine.landing.data(), bytes);
  barrier(rank);
  if (rank == 0) plan_stage_.reset();
  return plan;
}

void Collectives::run_allreduce(int rank, AllreducePlan& plan, const void* src,
                                void* dst, Combiner cb) {
  const std::size_t nbytes = plan.nelems_ * plan.esize_;
  if (nbytes == 0) return;
  if (nranks() == 1) {
    std::memcpy(dst, src, nbytes);
    return;
  }
  // Same prologue as enter_data, minus landing growth (plan-time fixed):
  // lockstep sequence bump, then the leading barrier.
  const std::uint64_t seq =
      ++state_[static_cast<std::size_t>(rank)].data_seq;
  barrier(rank);
  allreduce_core(rank, src, dst, plan.nelems_, plan.esize_, cb,
                 plan.desc_.data(),
                 plan.pr_[static_cast<std::size_t>(rank)].landing.data(), 0,
                 seq);
}

}  // namespace fompi::fabric
