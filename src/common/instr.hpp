// Operation-count instrumentation.
//
// The paper reports x86 instruction counts for the critical paths (78 for
// flush, 173 for put/get fast path). We cannot count retired instructions in
// a portable library, so we count *architectural events* on the critical
// path instead: transport operations, atomics, branches taken in protocol
// code, and bytes copied. bench_instr reports these per public call, which
// plays the same role: showing that the MPI layering adds only a thin,
// constant-size veneer over the raw transport.
#pragma once

#include <array>
#include <cstdint>

namespace fompi {

enum class Op : std::uint32_t {
  transport_put,     ///< one NIC put / shared-memory store batch issued
  transport_get,     ///< one NIC get / shared-memory load batch issued
  transport_amo,     ///< one remote atomic issued
  local_atomic,      ///< one CPU atomic on shared protocol state
  memory_fence,      ///< one full fence (mfence equivalent)
  bulk_sync,         ///< one NIC bulk completion (gsync equivalent)
  protocol_branch,   ///< one protocol decision branch
  validation_check,  ///< one argument/epoch validation check
  bytes_copied,      ///< payload bytes moved (counted in bytes)
  retry,             ///< one back-off retry (lock/alloc protocols)
  rkey_cache_hit,    ///< rkey resolved from the NIC cache (no registry lock)
  rkey_cache_miss,   ///< rkey resolve took the registry's shared lock
  pool_grow,         ///< NIC completion/staging pool grew (heap allocation)
  flatten_cache_hit,   ///< datatype lowering served from the cached blocks
  flatten_cache_build, ///< one-time tree walk at datatype construction
  vectored_op,       ///< one vectored (multi-fragment) NIC op issued
  packed_bytes,      ///< bytes staged through the pack/unpack protocol
  fault_injected,    ///< one fault injected by the FaultPlan (any kind)
  op_retried,        ///< one NIC-level retransmission of a faulted op
  op_failed,         ///< one op retired with a failure status (budget spent)
  doorbell_ring,     ///< one coalesced doorbell rung (covers >= 1 descriptors)
  batched_op,        ///< one op enqueued behind a coalesced doorbell
  fiber_spawn,       ///< one fiber adopted by a progress-engine scheduler
  fiber_switch,      ///< one fiber resume (continuation-frame re-entry)
  notify_posted,     ///< one put-with-notification record committed
  notify_consumed,   ///< one notify record drained out of the ring
  notify_retry,      ///< one overflow-to-retry pass on a full notify ring
  kv_cache_hit,      ///< KV get served by the version-validated client cache
  kv_cache_miss,     ///< KV get not served by the cache (stale or absent entry)
  kv_read_retry,     ///< KV seqlock read retried (locked / version moved)
  kv_failover,       ///< KV shard rerouted to its replica (owner dead)
  kv_retry_routing,  ///< KV op raced a reconfiguration; retired typed retry
  kv_scrub_key,      ///< one key the scrub read on both copies of a shard
  kv_scrub_repair,   ///< one losing copy of a key rewritten by the scrub
  kv_drain_chunk,    ///< one re-replication chunk drained (frozen image get)
  kv_recovery,       ///< one completed heal() pass (any outcome)
  kv_round,          ///< one KV driver round (every live copy's AMOs overlapped)
  clock_read,        ///< one NIC clock read for a decision or an anchor
                     ///< (not the iterations of a modeled-time spin)
  kCount,
};

const char* to_string(Op op) noexcept;

/// Inverse of to_string: linear scan over all Op values. Returns false for
/// unknown names (including "unknown" itself). With the exhaustive
/// round-trip test this guarantees every Op has a distinct name string.
bool op_from_string(const char* name, Op* out) noexcept;

/// Per-thread counter block. Each rank thread owns one; benches snapshot it
/// around a call to attribute costs to that call.
class OpCounters {
 public:
  void add(Op op, std::uint64_t n = 1) noexcept {
    c_[static_cast<std::size_t>(op)] += n;
  }
  std::uint64_t get(Op op) const noexcept {
    return c_[static_cast<std::size_t>(op)];
  }
  void reset() noexcept { c_ = {}; }

  /// Difference of two snapshots (this - earlier).
  OpCounters since(const OpCounters& earlier) const noexcept {
    OpCounters d;
    for (std::size_t i = 0; i < c_.size(); ++i) d.c_[i] = c_[i] - earlier.c_[i];
    return d;
  }

  /// Sum of all non-byte counters: the "op count" proxy for instructions.
  std::uint64_t total_ops() const noexcept;

 private:
  std::array<std::uint64_t, static_cast<std::size_t>(Op::kCount)> c_{};
};

/// Counters of the calling thread (each rank thread gets its own block).
OpCounters& op_counters() noexcept;

/// Convenience: count an event on the calling thread. Compiled in always;
/// the increment is a single thread-local add and is itself part of the
/// measured software path.
inline void count(Op op, std::uint64_t n = 1) noexcept { op_counters().add(op, n); }

}  // namespace fompi
