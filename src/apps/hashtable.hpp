// Distributed hashtable (Sec 4.1, Fig 7a).
//
// Each rank owns a local volume: a table of 8-byte elements plus an
// overflow heap; a next-free pointer and per-slot chain heads live in the
// same window. Three backends, exactly the paper's comparison set:
//   * rma  — MPI-3.0 one sided: insert is one remote CAS on the slot; on
//     collision, a fetch_add acquires an overflow cell and a second CAS
//     links it into the slot's chain (all under one lock_all epoch with
//     flushes, as in the paper's listing);
//   * pgas — the same algorithm through the UPC-like layer (Cray atomic
//     extensions amo_acswap / amo_aadd);
//   * p2p  — MPI-1 active messages: the element travels in a message, the
//     owner's handler performs the local insert, and batch completion uses
//     the paper's termination protocol (each process notifies all others).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "baselines/pgas.hpp"
#include "core/window.hpp"
#include "kv/bucket.hpp"

namespace fompi::apps {

enum class HtBackend { rma, pgas, p2p };

class DistHashtable {
 public:
  /// Collective. `table_slots` and `heap_slots` are per rank.
  DistHashtable(fabric::RankCtx& ctx, HtBackend backend,
                std::size_t table_slots, std::size_t heap_slots);
  /// Collective.
  void destroy(fabric::RankCtx& ctx);

  /// Collective: every rank inserts its batch of keys (keys must be
  /// nonzero); returns once the exchange is globally complete.
  void batch_insert(fabric::RankCtx& ctx,
                    const std::vector<std::uint64_t>& keys);

  /// One-sided lookup (rma/pgas backends; collective-free). For the p2p
  /// backend only local volumes can be queried.
  bool contains(std::uint64_t key);

  /// Collective: total elements stored across all ranks.
  std::uint64_t global_count(fabric::RankCtx& ctx);

  /// Elements stored in this rank's volume.
  std::uint64_t local_count() const;

  int owner_of(std::uint64_t key) const;

 private:
  // Window layout (bytes): the shared CAS-bucket scheme at fig7a strides
  // (bare {key} top cells, {key, next} overflow cells) — kv/bucket.hpp
  // keeps these offsets bit-identical to the pre-extraction layout.
  std::size_t off_next_free() const { return layout_.off_next_free(); }
  std::size_t off_count() const { return layout_.off_count(); }
  std::size_t off_table(std::size_t slot) const {
    return layout_.off_table(slot);
  }
  std::size_t off_chain(std::size_t slot) const {
    return layout_.off_chain(slot);
  }
  std::size_t off_heap(std::size_t idx) const { return layout_.off_heap(idx); }
  std::size_t volume_bytes() const { return layout_.region_bytes(); }

  std::size_t slot_of(std::uint64_t key) const;
  void insert_rma(std::uint64_t key);
  void insert_pgas(std::uint64_t key);
  void insert_local(std::uint64_t key);  // owner-side (p2p handler)
  bool chain_contains(int owner, std::size_t slot, std::uint64_t key);
  bool chain_contains_local(std::size_t slot, std::uint64_t key) const;

  HtBackend backend_;
  int nranks_ = 0;
  int rank_ = -1;
  std::size_t table_slots_ = 0;
  std::size_t heap_slots_ = 0;
  kv::BucketLayout layout_;
  core::Win win_;                                // rma backend
  std::optional<baselines::SharedArray> shared_; // pgas backend
  fabric::Fabric* fabric_ = nullptr;
};

}  // namespace fompi::apps
