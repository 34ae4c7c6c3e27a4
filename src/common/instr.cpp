#include "common/instr.hpp"

#include <cstring>

namespace fompi {

const char* to_string(Op op) noexcept {
  switch (op) {
    case Op::transport_put:    return "transport_put";
    case Op::transport_get:    return "transport_get";
    case Op::transport_amo:    return "transport_amo";
    case Op::local_atomic:     return "local_atomic";
    case Op::memory_fence:     return "memory_fence";
    case Op::bulk_sync:        return "bulk_sync";
    case Op::protocol_branch:  return "protocol_branch";
    case Op::validation_check: return "validation_check";
    case Op::bytes_copied:     return "bytes_copied";
    case Op::retry:            return "retry";
    case Op::rkey_cache_hit:   return "rkey_cache_hit";
    case Op::rkey_cache_miss:  return "rkey_cache_miss";
    case Op::pool_grow:        return "pool_grow";
    case Op::flatten_cache_hit:   return "flatten_cache_hit";
    case Op::flatten_cache_build: return "flatten_cache_build";
    case Op::vectored_op:      return "vectored_op";
    case Op::packed_bytes:     return "packed_bytes";
    case Op::fault_injected:   return "fault_injected";
    case Op::op_retried:       return "op_retried";
    case Op::op_failed:        return "op_failed";
    case Op::doorbell_ring:    return "doorbell_ring";
    case Op::batched_op:       return "batched_op";
    case Op::fiber_spawn:      return "fiber_spawn";
    case Op::fiber_switch:     return "fiber_switch";
    case Op::notify_posted:    return "notify_posted";
    case Op::notify_consumed:  return "notify_consumed";
    case Op::notify_retry:     return "notify_retry";
    case Op::kv_cache_hit:     return "kv_cache_hit";
    case Op::kv_cache_miss:    return "kv_cache_miss";
    case Op::kv_read_retry:    return "kv_read_retry";
    case Op::kv_failover:      return "kv_failover";
    case Op::kv_retry_routing: return "kv_retry_routing";
    case Op::kv_scrub_key:     return "kv_scrub_key";
    case Op::kv_scrub_repair:  return "kv_scrub_repair";
    case Op::kv_drain_chunk:   return "kv_drain_chunk";
    case Op::kv_recovery:      return "kv_recovery";
    case Op::kv_round:         return "kv_round";
    case Op::clock_read:       return "clock_read";
    case Op::kCount:           break;
  }
  return "unknown";
}

bool op_from_string(const char* name, Op* out) noexcept {
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(Op::kCount); ++i) {
    const Op op = static_cast<Op>(i);
    const char* s = to_string(op);
    if (std::strcmp(s, name) == 0 && std::strcmp(s, "unknown") != 0) {
      if (out != nullptr) *out = op;
      return true;
    }
  }
  return false;
}

std::uint64_t OpCounters::total_ops() const noexcept {
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < c_.size(); ++i) {
    if (i == static_cast<std::size_t>(Op::bytes_copied)) continue;
    if (i == static_cast<std::size_t>(Op::packed_bytes)) continue;
    t += c_[i];
  }
  return t;
}

OpCounters& op_counters() noexcept {
  thread_local OpCounters counters;
  return counters;
}

}  // namespace fompi
