// Collective operations over the RDMA substrate.
//
// Window creation (Sec 2.2) needs Allgather/Allreduce/Bcast; the DSDE
// baselines (Sec 4.2) need Alltoall(v), Reduce_scatter and a nonblocking
// barrier; the FFT/MILC exchange loops (Sec 4.3/4.4) need a cheap
// re-drivable alltoallv/allreduce. foMPI layers on the host MPI's
// collectives; here they are built from scratch, one algorithm per
// collective for every topology:
//   * synchronization (barrier / ibarrier) is a dissemination algorithm
//     whose O(log p) notification rounds are real 8-byte NIC puts, so the
//     modeled network time gives realistic collective latencies;
//   * the data plane is RMA-native: binomial-tree bcast/reduce,
//     recursive-doubling allreduce, Bruck allgather, and a direct
//     put+arrival-counter alltoall(v) — all issued as real put/AMO NIC ops
//     (data put, gsync, then an 8-byte notify flag), charged under the
//     Gemini model, riding doorbell batching for the fan-out rounds;
//   * bcast, allgather and allreduce run one two-tier tree: the first rank
//     of each node (DomainConfig::ranks_per_node) is its leader, members
//     gather over the intra-node transport, leaders run the inter-node
//     tree, so round counts scale with log(nodes), not log(ranks). Any
//     other topology (one rank per node, a single-node domain, a rank
//     count the hierarchy does not divide) is the same tree over p
//     one-rank nodes, with no member groups;
//   * persistent plans (plan_alltoallv / plan_allreduce) front-load the
//     count/displacement exchange and landing registration once; run_*
//     re-drives only the data movement, allocation-free in steady state.
//
// Completion/overwrite protocol of the tree data plane: every data
// collective starts with a leading barrier. At the moment a rank exits a
// collective, every remote write TO that rank has been waited on (notify
// flag or arrival counter), and the leading barrier of the NEXT collective
// orders every rank's exit before any rank's new traffic — so landing
// regions and notify slots can be reused with no trailing barrier. Notify
// slots carry a per-rank monotonic sequence number (data_seq) that all
// ranks advance in lockstep, which disambiguates a slot's generations.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "rdma/nic.hpp"

namespace fompi::fabric {

/// Type-erased element-wise reduction: fn(ctx, acc, in, nelems, acc_left)
/// folds `in` into `acc` over `nelems` elements. `acc_left` tells the
/// combiner which operand is logically on the left (acc op in vs in op
/// acc), which is what keeps recursive-doubling results bit-identical on
/// every rank for non-commutative reductions.
struct Combiner {
  void (*fn)(void* ctx, void* acc, const void* in, std::size_t nelems,
             bool acc_left);
  void* ctx;
};

class Collectives;

/// Persistent alltoallv handle: counts, displacements, peer landing
/// offsets and the arrival-counter slot are captured once at plan time
/// (Collectives::plan_alltoallv, collective); run_alltoallv re-drives only
/// the puts + counter, allocation-free in steady state. All ranks share
/// one plan object (each holds a shared_ptr copy); drop the last reference
/// only at a point where no rank can still be inside run_alltoallv.
class AlltoallvPlan {
 public:
  AlltoallvPlan() = default;
  ~AlltoallvPlan();
  AlltoallvPlan(const AlltoallvPlan&) = delete;
  AlltoallvPlan& operator=(const AlltoallvPlan&) = delete;

  std::size_t esize() const noexcept { return esize_; }
  /// Elements this rank receives in total / from each source / at which
  /// element displacement (fixed at plan time).
  std::uint64_t total_recv(int rank) const {
    return pr_[static_cast<std::size_t>(rank)].total_recv;
  }
  const std::vector<std::uint64_t>& recvcounts(int rank) const {
    return pr_[static_cast<std::size_t>(rank)].recvcounts;
  }
  const std::vector<std::uint64_t>& rdispls(int rank) const {
    return pr_[static_cast<std::size_t>(rank)].rdispls;
  }

 private:
  friend class Collectives;
  /// Landing layout: the 8-byte arrival counter lives at offset 0; payload
  /// data starts at kDataOff (own cache line, no false sharing with the
  /// counter word peers AMO on).
  static constexpr std::size_t kDataOff = kCacheLine;

  struct PerRank {
    AlignedBuffer landing;
    std::vector<std::uint64_t> sendcounts, sdispls, put_displ;
    std::vector<std::uint64_t> recvcounts, rdispls;
    std::uint64_t total_recv = 0;
    std::uint64_t ctr_expected = 0;
    /// Byte stride of one parity bank (uniform across ranks — max-reduced
    /// at plan time so senders can address any receiver's bank) and the
    /// run generation whose low bit selects the bank.
    std::size_t bank_bytes = 0;
    std::uint64_t run_seq = 0;
  };
  rdma::Domain* domain_ = nullptr;
  std::size_t esize_ = 0;
  std::vector<PerRank> pr_;
  std::vector<rdma::RegionDesc> desc_;
};

/// Persistent allreduce handle: per-rank landing regions for the
/// recursive-doubling rounds are sized and registered once at plan time;
/// run_allreduce re-drives the exchange allocation-free. The element-wise
/// op is supplied per run (the plan captures only geometry).
class AllreducePlan {
 public:
  AllreducePlan() = default;
  ~AllreducePlan();
  AllreducePlan(const AllreducePlan&) = delete;
  AllreducePlan& operator=(const AllreducePlan&) = delete;

  std::size_t nelems() const noexcept { return nelems_; }
  std::size_t esize() const noexcept { return esize_; }

 private:
  friend class Collectives;
  struct PerRank {
    AlignedBuffer landing;
  };
  rdma::Domain* domain_ = nullptr;
  std::size_t nelems_ = 0, esize_ = 0;
  std::vector<PerRank> pr_;
  std::vector<rdma::RegionDesc> desc_;
};

class Collectives {
 public:
  /// Every wait takes the domain's back-off step, whose progress hook
  /// aborts a collective when a peer has failed.
  explicit Collectives(rdma::Domain& domain);
  ~Collectives();

  int nranks() const noexcept { return domain_.nranks(); }
  /// True when bcast/allreduce/allgather run with more than one rank per
  /// node (intra-node member groups around the inter-node tree).
  bool hierarchical() const noexcept { return rpn_ > 1; }

  /// Dissemination barrier: O(log p) rounds of remote 8-byte puts. Runs the
  /// nonblocking barrier to completion (begin, then poll with back-off).
  void barrier(int rank);

  /// Nonblocking barrier (MPI_Ibarrier equivalent): at most one in flight
  /// per rank, blocking barrier included. Used by the NBX dynamic sparse
  /// data exchange protocol. A poll raises a typed peer_dead once a round's
  /// writer died with its flag still missing.
  void ibarrier_begin(int rank);
  bool ibarrier_test(int rank);

  // --- bootstrap pointer share ---------------------------------------------
  /// Shares a pointer among the ranks, which all live in one process: window
  /// creation and the PGAS baseline hand rank 0's shared state to the
  /// others this way. A reader calls peer_ptr after a barrier that follows
  /// the publish; the publisher keeps the object alive until a second
  /// barrier.
  void publish(int rank, const void* p);
  const void* peer_ptr(int r) const;

  // --- typed data collectives ----------------------------------------------
  template <class T>
  void bcast(int rank, int root, T* data, std::size_t n) {
    bcast_bytes(rank, root, data, n * sizeof(T));
  }

  /// Gathers n elements from every rank; dst must hold n * nranks().
  template <class T>
  void allgather(int rank, const T* src, std::size_t n, T* dst) {
    allgather_bytes(rank, src, n * sizeof(T), dst);
  }

  /// Element-wise reduction over all ranks; every rank computes the same
  /// (bit-identical) result. src and dst may not alias.
  template <class T, class BinOp>
  void allreduce(int rank, const T* src, T* dst, std::size_t n, BinOp op) {
    allreduce_bytes(rank, src, dst, n, sizeof(T), make_combiner<T>(op));
  }

  /// Rooted reduction: `root` receives the element-wise fold over all
  /// ranks in rank order; dst is only written at the root.
  template <class T, class BinOp>
  void reduce(int rank, int root, const T* src, T* dst, std::size_t n,
              BinOp op) {
    reduce_bytes(rank, root, src, dst, n, sizeof(T), make_combiner<T>(op));
  }

  /// Reduce-scatter with equal blocks: src holds nranks()*n elements; rank
  /// r receives the element-wise reduction of everyone's block r into dst
  /// (n elements).
  template <class T, class BinOp>
  void reduce_scatter_block(int rank, const T* src, T* dst, std::size_t n,
                            BinOp op) {
    reduce_scatter_block_bytes(rank, src, dst, n, sizeof(T),
                               make_combiner<T>(op));
  }

  /// Personalized all-to-all: src holds nranks()*n elements, block j going
  /// to rank j; dst receives block `rank` of every peer, in rank order.
  template <class T>
  void alltoall(int rank, const T* src, std::size_t n, T* dst) {
    alltoall_bytes(rank, src, n * sizeof(T), dst);
  }

  /// Vector all-to-all: rank j receives sendcounts[j] elements read from
  /// src + sdispls[j]. Resizes dst to the received total; recvcounts[j] /
  /// rdispls[j] describe where source j's elements landed in dst.
  template <class T>
  void alltoallv(int rank, const T* src, const std::uint64_t* sendcounts,
                 const std::uint64_t* sdispls, std::vector<T>& dst,
                 std::vector<std::uint64_t>& recvcounts,
                 std::vector<std::uint64_t>& rdispls) {
    const std::size_t p = static_cast<std::size_t>(nranks());
    recvcounts.resize(p);
    rdispls.resize(p);
    const std::uint64_t total = alltoallv_counts(
        rank, sendcounts, recvcounts.data(), rdispls.data(), sizeof(T));
    dst.resize(total);
    alltoallv_put(rank, src, sendcounts, sdispls, sizeof(T), dst.data(),
                  recvcounts.data(), rdispls.data());
  }

  // --- byte-level engine ----------------------------------------------------
  // The typed templates above are thin wrappers over these. Block/element
  // sizes must agree across ranks (landing offsets are size-derived).
  void bcast_bytes(int rank, int root, void* data, std::size_t nbytes);
  void reduce_bytes(int rank, int root, const void* src, void* dst,
                    std::size_t nelems, std::size_t esize, Combiner cb);
  void allreduce_bytes(int rank, const void* src, void* dst,
                       std::size_t nelems, std::size_t esize, Combiner cb);
  void reduce_scatter_block_bytes(int rank, const void* src, void* dst,
                                  std::size_t nelems, std::size_t esize,
                                  Combiner cb);
  void allgather_bytes(int rank, const void* src, std::size_t block,
                       void* dst);
  void alltoall_bytes(int rank, const void* src, std::size_t block,
                      void* dst);

  // --- persistent collectives ----------------------------------------------
  /// Collective. Captures counts/displacements, exchanges landing offsets,
  /// and registers a dedicated landing region per rank. Every rank must
  /// pass the same esize; counts may differ per rank.
  std::shared_ptr<AlltoallvPlan> plan_alltoallv(
      int rank, const std::uint64_t* sendcounts, const std::uint64_t* sdispls,
      std::size_t esize);
  /// Re-drives the planned exchange with no barrier at all: the landing
  /// has two parity banks (runs alternate) and a cumulative arrival
  /// counter, so a run is just batched puts + AMOs + one counter wait.
  /// Zero allocations in steady state.
  void run_alltoallv(int rank, AlltoallvPlan& plan, const void* src,
                     void* dst);

  /// Collective. Sizes and registers per-rank landing regions for an
  /// allreduce of nelems * esize bytes.
  std::shared_ptr<AllreducePlan> plan_allreduce(int rank, std::size_t nelems,
                                                std::size_t esize);
  void run_allreduce(int rank, AllreducePlan& plan, const void* src, void* dst,
                     Combiner cb);
  template <class T, class BinOp>
  void run_allreduce(int rank, AllreducePlan& plan, const T* src, T* dst,
                     BinOp op) {
    run_allreduce(rank, plan, static_cast<const void*>(src),
                  static_cast<void*>(dst), make_combiner<T>(op));
  }

  /// Builds a Combiner from a binary functor; `op` must outlive the call
  /// the Combiner is passed to (the typed wrappers keep it on the stack).
  template <class T, class BinOp>
  static Combiner make_combiner(BinOp& op) noexcept {
    return Combiner{&combine_thunk<T, BinOp>, &op};
  }

 private:
  static constexpr int kMaxRounds = 32;
  static constexpr std::size_t kFlagBytes = 8;
  /// Data-plane notify slots (8-byte words after the kMaxRounds barrier
  /// words): tree/recursive-doubling rounds use slots
  /// [0, kMaxRounds); the non-power-of-two fold and the hierarchy phases
  /// get dedicated slots so no slot is written twice per collective.
  static constexpr int kDataSlots = 64;
  static constexpr int kSlotFoldPre = kMaxRounds;       // odd -> even fold
  static constexpr int kSlotFoldPost = kMaxRounds + 1;  // result back to odd
  static constexpr int kMaxIntra = 16;  // hierarchy cap on ranks per node
  static constexpr int kSlotIntraGather = kMaxRounds + 2;  // +member index
  static constexpr int kSlotIntraRel = kSlotIntraGather + kMaxIntra;
  /// 8-byte AMO arrival counter for the direct alltoall(v) path
  /// (cumulative, never reset; each rank tracks its expected total).
  static constexpr int kCtrWord = kMaxRounds + kDataSlots;
  /// Byte offset of data notify slot `slot` in a rank's flag block.
  static constexpr std::size_t slot_off(int slot) noexcept {
    return static_cast<std::size_t>(kMaxRounds + slot) * kFlagBytes;
  }

  struct alignas(kCacheLine) RankState {
    /// Barrier state (blocking and nonblocking share one flag bank).
    std::uint64_t ib_gen = 0;
    int ib_round = 0;
    bool ib_notified = false;
    bool ib_active = false;
    /// Data-collective sequence number, advanced in lockstep on all ranks
    /// by every tree-path collective; stamps every notify-slot write.
    std::uint64_t data_seq = 0;
    /// Expected cumulative value of this rank's arrival counter.
    std::uint64_t ctr_expected = 0;
    /// Count-exchange plane generation (low bit selects the parity bank)
    /// and the expected cumulative totals of its two arrival counters.
    std::uint64_t cx_seq = 0;
    std::uint64_t cx_counts_expected = 0;
    std::uint64_t cx_displs_expected = 0;
  };

  template <class T, class BinOp>
  static void combine_thunk(void* ctx, void* acc, const void* in,
                            std::size_t nelems, bool acc_left) {
    BinOp& op = *static_cast<BinOp*>(ctx);
    T* a = static_cast<T*>(acc);
    const T* b = static_cast<const T*>(in);
    if (acc_left) {
      for (std::size_t i = 0; i < nelems; ++i) a[i] = op(a[i], b[i]);
    } else {
      for (std::size_t i = 0; i < nelems; ++i) a[i] = op(b[i], a[i]);
    }
  }

  int rounds_() const noexcept;
  std::uint64_t load_word(int rank, int word) const;
  const std::uint64_t* ctr_word_ptr(int rank) const;

  /// Blocking 8-byte put of `seq` into `target`'s data notify slot.
  void put_slot(int rank, int target, int slot, std::uint64_t seq);
  /// Waits until this rank's data slot reaches `seq`; raises peer_dead if
  /// `writer` died with the flag still missing.
  void wait_slot(int rank, int slot, std::uint64_t seq, int writer);
  /// Waits until this rank's arrival counter reaches `target`. Counters
  /// aggregate all senders, so a missing increment cannot be attributed:
  /// any rank death aborts the collective (all ranks are participants).
  void wait_counter(int rank, const std::uint64_t* word,
                    std::uint64_t target);

  /// Grows (and re-registers) this rank's landing region. Only called
  /// before the leading barrier, so peers never see a stale descriptor.
  void ensure_landing(int rank, std::size_t bytes);
  std::byte* scratch_bytes(int rank, std::size_t bytes);
  /// Tree-collective prologue: landing growth, lockstep sequence bump,
  /// leading barrier.
  std::uint64_t enter_data(int rank, std::size_t landing_bytes);
  std::size_t allreduce_cap(std::size_t nbytes) const noexcept;

  void reduce_tree(int rank, int root, const void* src, void* dst,
                   std::size_t nelems, std::size_t esize, Combiner cb,
                   std::uint64_t seq);
  /// Shared by the ad-hoc path and run_allreduce: member gather, recursive
  /// doubling over node leaders, member release (no member groups at one
  /// rank per node), over the landing regions described by `descs` (my
  /// data area at `my_base`, remote offset `base_off`).
  void allreduce_core(int rank, const void* src, void* dst,
                      std::size_t nelems, std::size_t esize, Combiner cb,
                      const rdma::RegionDesc* descs, std::byte* my_base,
                      std::size_t base_off, std::uint64_t seq);
  /// Recursive doubling with the MPICH non-power-of-two fold over `nmemb`
  /// participants (participant i = rank i * stride); `land`/`land_off`
  /// locate the RD round area of this rank's landing.
  void rd_allreduce(int rank, int idx, int nmemb, int stride, std::byte* acc,
                    std::size_t nelems, std::size_t esize, Combiner cb,
                    const rdma::RegionDesc* descs, std::byte* land,
                    std::size_t land_off, std::uint64_t seq);
  /// Phase 1 of the ad-hoc alltoallv: exchanges per-peer element counts and
  /// assigns receive displacements (prefix sums, rank order); returns the
  /// total element count this rank will receive. A nonzero `esize` also
  /// grows this rank's landing to the received total between the two
  /// handshake rounds — the one window with provably no put in flight
  /// toward it — so the paired alltoallv_put needs no leading barrier.
  /// plan_alltoallv passes 0 (its plan owns its landing).
  std::uint64_t alltoallv_counts(int rank, const std::uint64_t* sendcounts,
                                 std::uint64_t* recvcounts,
                                 std::uint64_t* rdispls, std::size_t esize);
  /// Phase 2: one put per nonzero destination plus an AMO arrival counter;
  /// dst holds the total the paired alltoallv_counts returned.
  void alltoallv_put(int rank, const void* src,
                     const std::uint64_t* sendcounts,
                     const std::uint64_t* sdispls, std::size_t esize,
                     void* dst, const std::uint64_t* recvcounts,
                     const std::uint64_t* rdispls);
  /// Shared by alltoallv_put and run_alltoallv: batched puts, gsync,
  /// batched counter AMOs, gsync, counter wait, landing -> dst copies.
  void alltoallv_put_core(int rank, const void* src,
                          const std::uint64_t* sendcounts,
                          const std::uint64_t* sdispls, std::size_t esize,
                          void* dst, const std::uint64_t* recvcounts,
                          const std::uint64_t* rdispls,
                          const std::uint64_t* put_displ,
                          const rdma::RegionDesc* descs, std::byte* my_data,
                          std::size_t base_off,
                          const rdma::RegionDesc* ctr_descs,
                          std::size_t ctr_off, const std::uint64_t* ctr_word,
                          std::uint64_t* ctr_expected);

  rdma::Domain& domain_;
  int log2p_;
  // Topology of the trees (fixed at construction from
  // DomainConfig::ranks_per_node): ranks per node and node count, or 1
  // and nranks when the hierarchy does not apply.
  int rpn_ = 1;
  int nnodes_ = 1;
  /// Per-rank flag block: kMaxRounds barrier slots + kDataSlots data
  /// notify slots + the arrival counter, each an 8-byte word, registered
  /// for remote puts/AMOs.
  std::vector<AlignedBuffer> flag_mem_;
  std::vector<rdma::RegionDesc> flag_desc_;
  /// Per-rank growable landing region for the tree data plane (grown only
  /// in enter_data, before the leading barrier).
  std::vector<AlignedBuffer> land_mem_;
  std::vector<rdma::RegionDesc> land_desc_;
  /// Per-rank local scratch (reduce accumulator, reduce_scatter's
  /// allreduce result).
  std::vector<AlignedBuffer> scratch_;
  /// Per-rank map peer -> element displacement where that peer wants this
  /// rank's alltoallv data (filled by alltoallv_counts).
  std::vector<std::vector<std::uint64_t>> put_displ_;
  /// Per-rank count-exchange plane: 4p slot words (counts and displs, each
  /// with two parity banks) plus two cumulative arrival counters, sized and
  /// registered once at construction (never regrown). Lets
  /// alltoallv_counts run both 8-byte exchanges with no barrier at all —
  /// see the protocol argument in its definition.
  std::vector<AlignedBuffer> cx_mem_;
  std::vector<rdma::RegionDesc> cx_desc_;
  std::vector<RankState> state_;
  /// Per-rank bootstrap pointer (publish / peer_ptr).
  std::vector<std::atomic<const void*>> published_;
  /// Rank 0's staging slot for collective plan creation (guarded by the
  /// surrounding barriers, not a lock).
  std::shared_ptr<void> plan_stage_;
};

}  // namespace fompi::fabric
