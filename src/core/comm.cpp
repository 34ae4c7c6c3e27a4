// Communication functions (Sec 2.4): put/get with the contiguous fast path
// and the full datatype lowering, plus request-based rput/rget.
//
// All plain puts/gets are issued as implicit nonblocking NIC operations and
// completed in bulk by the next synchronization (fence, unlock, flush,
// complete) — mirroring foMPI, where DMAPP nbi operations are closed by
// gsync. Request-based variants use explicit handles.
//
// The datatype path lowers both sides through the allocation-free
// pair_layouts() walk (cached block lists, no heap block vectors) and then
// picks a transfer strategy per call:
//   * vectored — ship the fragment pairs as one chained NIC op behind a
//     single doorbell (put_nbv / get_nbv);
//   * pack     — when the remote side is one contiguous block and fragments
//     are small and numerous, gather the origin into a recycled staging
//     buffer and issue one contiguous transfer (puts), or fetch the block
//     and scatter it locally (gets).
// The choice comes from perf::DatatypePathModel, fed the chained-descriptor
// cost of the NIC's own model. For static windows (created/allocated/shared)
// resolve_target() is hoisted out of the fragment loop: one descriptor and
// one span bounds check cover the whole transfer. Dynamic windows keep the
// per-fragment resolution, since fragments may land in different attached
// regions.
#include "core/window.hpp"

#include "common/instr.hpp"
#include "core/win_internal.hpp"
#include "perfmodel/cost_functions.hpp"

namespace fompi::core {

namespace {

using DtPath = perf::DatatypePathModel;

/// Chain cost, under the NIC's model, of shipping `count` elements of `t`
/// as one vectored op: what the chooser weighs packing against.
double vectored_ns(const rdma::Nic& n, const dt::Datatype& t, int count) {
  return n.domain().config().model.chain_latency_ns(
      t.block_count() * static_cast<std::size_t>(count));
}

/// Bytes a transfer of `count` elements of `t` may touch past its base
/// displacement — the single hoisted bounds check of the static-window path.
std::size_t layout_span(const dt::Datatype& t, int count) {
  if (count <= 0) return 0;
  return static_cast<std::size_t>(count - 1) * t.extent() + t.span_end();
}

/// Notes an upcoming capacity growth of a recycled scratch vector, so the
/// steady-state issue path stays observably allocation-free.
void note_growth(std::size_t need, std::size_t capacity) {
  if (need > capacity) count(Op::pool_grow);
}

}  // namespace

void Win::resolve_target(int target, std::size_t tdisp, std::size_t len,
                         rdma::RegionDesc* desc, std::size_t* offset) {
  Shared& s = sh();
  switch (s.kind) {
    case WinKind::created:
    case WinKind::shared_mem: {
      const auto idx = static_cast<std::size_t>(target);
      FOMPI_REQUIRE(tdisp + len <= s.sizes[idx], ErrClass::rma_range,
                    "access beyond the target window");
      *desc = s.kind == WinKind::created ? s.data_desc[idx]
                                         : s.heap->rank_desc(target);
      *offset = s.kind == WinKind::created ? tdisp : s.heap_off + tdisp;
      return;
    }
    case WinKind::allocated: {
      // O(1) metadata: one heap descriptor per rank plus the symmetric
      // offset — no per-window descriptor table (Sec 2.2).
      FOMPI_REQUIRE(tdisp + len <= s.alloc_bytes, ErrClass::rma_range,
                    "access beyond the target window");
      *desc = s.heap->rank_desc(target);
      *offset = s.heap_off + tdisp;
      return;
    }
    case WinKind::dynamic:
      resolve_dynamic(target, tdisp, len, desc, offset);
      return;
  }
  raise(ErrClass::internal, "bad window kind");
}

void Win::put(const void* origin, std::size_t len, int target,
              std::size_t tdisp) {
  require_access(target);
  rdma::RegionDesc desc;
  std::size_t off = 0;
  resolve_target(target, tdisp, len, &desc, &off);
  nic().put_nbi(target, desc, off, origin, len);
}

void Win::get(void* origin, std::size_t len, int target, std::size_t tdisp) {
  require_access(target);
  rdma::RegionDesc desc;
  std::size_t off = 0;
  resolve_target(target, tdisp, len, &desc, &off);
  nic().get_nbi(target, desc, off, origin, len);
}

void Win::issue_put(const void* origin, int ocount, const dt::Datatype& otype,
                    int target, std::size_t tdisp, int tcount,
                    const dt::Datatype& ttype,
                    std::vector<rdma::Handle>* collect) {
  require_access(target);
  const std::size_t len = otype.size() * static_cast<std::size_t>(ocount);
  FOMPI_REQUIRE(len == ttype.size() * static_cast<std::size_t>(tcount),
                ErrClass::type, "put: origin/target payload mismatch");
  // Fast path: both sides contiguous — one transport operation, no
  // flattening (the ~173-instruction path the paper highlights).
  if (otype.is_contiguous() && ttype.is_contiguous()) {
    rdma::RegionDesc desc;
    std::size_t off = 0;
    resolve_target(target, tdisp, len, &desc, &off);
    if (collect != nullptr) {
      collect->push_back(nic().put_nb(target, desc, off, origin, len));
    } else {
      nic().put_nbi(target, desc, off, origin, len);
    }
    return;
  }
  if (len == 0) return;
  const auto* obase = static_cast<const std::byte*>(origin);
  rdma::Nic& n = nic();

  if (sh().kind == WinKind::dynamic) {
    dt::pair_layouts(
        otype, ocount, ttype, tcount, tdisp,
        [&](std::size_t ooff, std::size_t toff, std::size_t flen) {
          rdma::RegionDesc desc;
          std::size_t off = 0;
          resolve_target(target, toff, flen, &desc, &off);
          if (collect != nullptr) {
            collect->push_back(n.put_nb(target, desc, off, obase + ooff, flen));
          } else {
            n.put_nbi(target, desc, off, obase + ooff, flen);
          }
        });
    return;
  }

  // Static window: one descriptor and one bounds check cover the span.
  rdma::RegionDesc desc;
  std::size_t off = 0;
  const std::size_t span = layout_span(ttype, tcount);
  resolve_target(target, tdisp, span, &desc, &off);
  RankState& rs = st();

  if (ttype.is_contiguous() &&
      DtPath::choose_put(vectored_ns(n, otype, ocount), len) ==
          DtPath::Strategy::pack) {
    // Pack protocol: gather the origin layout into the recycled staging
    // buffer, one contiguous transfer. The buffer is reusable as soon as
    // the NIC returns — it either applies the put at issue or stages the
    // payload itself (deferred delivery).
    note_growth(len, rs.dt_staging.capacity());
    rs.dt_staging.resize(len);
    otype.pack(origin, ocount, rs.dt_staging.data());
    count(Op::packed_bytes, len);
    if (collect != nullptr) {
      collect->push_back(n.put_nb(target, desc, off, rs.dt_staging.data(),
                                  len));
    } else {
      n.put_nbi(target, desc, off, rs.dt_staging.data(), len);
    }
    return;
  }

  // Vectored issue: lower to fragment pairs once, ship them as one chained
  // NIC op behind a single doorbell.
  rs.frag_scratch.clear();
  dt::pair_layouts(otype, ocount, ttype, tcount, tdisp,
                   [&](std::size_t ooff, std::size_t toff, std::size_t flen) {
                     note_growth(rs.frag_scratch.size() + 1,
                                 rs.frag_scratch.capacity());
                     rs.frag_scratch.push_back({ooff, toff - tdisp, flen});
                   });
  if (collect != nullptr) {
    collect->push_back(n.put_nbv(target, desc, off, span, origin,
                                 rs.frag_scratch.data(),
                                 rs.frag_scratch.size()));
  } else {
    n.put_nbiv(target, desc, off, span, origin, rs.frag_scratch.data(),
               rs.frag_scratch.size());
  }
}

void Win::issue_get(void* origin, int ocount, const dt::Datatype& otype,
                    int target, std::size_t tdisp, int tcount,
                    const dt::Datatype& ttype,
                    std::vector<rdma::Handle>* collect) {
  require_access(target);
  const std::size_t len = otype.size() * static_cast<std::size_t>(ocount);
  FOMPI_REQUIRE(len == ttype.size() * static_cast<std::size_t>(tcount),
                ErrClass::type, "get: origin/target payload mismatch");
  if (otype.is_contiguous() && ttype.is_contiguous()) {
    rdma::RegionDesc desc;
    std::size_t off = 0;
    resolve_target(target, tdisp, len, &desc, &off);
    if (collect != nullptr) {
      collect->push_back(nic().get_nb(target, desc, off, origin, len));
    } else {
      nic().get_nbi(target, desc, off, origin, len);
    }
    return;
  }
  if (len == 0) return;
  auto* obase = static_cast<std::byte*>(origin);
  rdma::Nic& n = nic();

  if (sh().kind == WinKind::dynamic) {
    dt::pair_layouts(
        otype, ocount, ttype, tcount, tdisp,
        [&](std::size_t ooff, std::size_t toff, std::size_t flen) {
          rdma::RegionDesc desc;
          std::size_t off = 0;
          resolve_target(target, toff, flen, &desc, &off);
          if (collect != nullptr) {
            collect->push_back(n.get_nb(target, desc, off, obase + ooff, flen));
          } else {
            n.get_nbi(target, desc, off, obase + ooff, flen);
          }
        });
    return;
  }

  rdma::RegionDesc desc;
  std::size_t off = 0;
  const std::size_t span = layout_span(ttype, tcount);
  resolve_target(target, tdisp, span, &desc, &off);
  RankState& rs = st();

  if (ttype.is_contiguous() &&
      DtPath::choose_get(vectored_ns(n, otype, ocount), len) ==
          DtPath::Strategy::pack) {
    // Unpack protocol: one contiguous fetch into the recycled staging
    // buffer, scatter locally. The scatter needs the data, so this waits
    // for the transfer — the strategy model biases against it accordingly.
    note_growth(len, rs.dt_staging.capacity());
    rs.dt_staging.resize(len);
    n.wait(n.get_nb(target, desc, off, rs.dt_staging.data(), len));
    otype.unpack(rs.dt_staging.data(), ocount, origin);
    count(Op::packed_bytes, len);
    return;
  }

  rs.frag_scratch.clear();
  dt::pair_layouts(otype, ocount, ttype, tcount, tdisp,
                   [&](std::size_t ooff, std::size_t toff, std::size_t flen) {
                     note_growth(rs.frag_scratch.size() + 1,
                                 rs.frag_scratch.capacity());
                     rs.frag_scratch.push_back({ooff, toff - tdisp, flen});
                   });
  if (collect != nullptr) {
    collect->push_back(n.get_nbv(target, desc, off, span, origin,
                                 rs.frag_scratch.data(),
                                 rs.frag_scratch.size()));
  } else {
    n.get_nbiv(target, desc, off, span, origin, rs.frag_scratch.data(),
               rs.frag_scratch.size());
  }
}

void Win::put(const void* origin, int ocount, const dt::Datatype& otype,
              int target, std::size_t tdisp, int tcount,
              const dt::Datatype& ttype) {
  issue_put(origin, ocount, otype, target, tdisp, tcount, ttype, nullptr);
}

void Win::get(void* origin, int ocount, const dt::Datatype& otype, int target,
              std::size_t tdisp, int tcount, const dt::Datatype& ttype) {
  issue_get(origin, ocount, otype, target, tdisp, tcount, ttype, nullptr);
}

RmaRequest Win::rput(const void* origin, std::size_t len, int target,
                     std::size_t tdisp) {
  require_access(target);
  RmaRequest req;
  req.nic_ = &nic();
  // Issued by byte length directly: routing through the int-count datatype
  // interface would silently truncate lengths >= 2 GiB.
  rdma::RegionDesc desc;
  std::size_t off = 0;
  resolve_target(target, tdisp, len, &desc, &off);
  req.add(nic().put_nb(target, desc, off, origin, len));
  return req;
}

RmaRequest Win::rget(void* origin, std::size_t len, int target,
                     std::size_t tdisp) {
  require_access(target);
  RmaRequest req;
  req.nic_ = &nic();
  rdma::RegionDesc desc;
  std::size_t off = 0;
  resolve_target(target, tdisp, len, &desc, &off);
  req.add(nic().get_nb(target, desc, off, origin, len));
  return req;
}

void RmaRequest::add(rdma::Handle h) {
  if (n_ == 0 && spill_.empty()) {
    one_ = h;
    n_ = 1;
    return;
  }
  if (n_ != 0) spill_.push_back(one_);
  n_ = 0;
  spill_.push_back(h);
}

bool RmaRequest::test() {
  FOMPI_REQUIRE(valid(), ErrClass::arg, "test on an invalid request");
  while (!spill_.empty()) {
    if (!nic_->test(spill_.back())) return false;
    spill_.pop_back();
  }
  if (n_ != 0) {
    if (!nic_->test(one_)) return false;
    n_ = 0;
  }
  nic_ = nullptr;
  return true;
}

void RmaRequest::wait() {
  FOMPI_REQUIRE(valid(), ErrClass::arg, "wait on an invalid request");
  for (rdma::Handle h : handles()) nic_->wait(h);
  dismiss();
}

}  // namespace fompi::core
