// The accumulate family (Sec 2.4).
//
// Two paths, as in foMPI:
//   * accelerated — 8-byte integer SUM/AND/OR/XOR/REPLACE map to one NIC
//     AMO per element (DMAPP-accelerated ops);
//   * fallback — everything else runs the true-passive protocol: lock the
//     target's internal accumulate lock, get the span, combine locally,
//     put it back, unlock. This serializes concurrent accumulates at the
//     target but needs no receiver involvement (the paper's design; its
//     latency/bandwidth trade-off is visible in Fig 6a).
//
// Datatype accumulates ride the same lowering machinery as put/get: the
// allocation-free pair_layouts() walk, the hoisted target resolution for
// static windows, and — for the fallback — one vectored get that gathers
// every target fragment into the recycled combine buffer, one local
// combine pass, and one vectored put that scatters the results back. All
// temporary storage is per-Win scratch recycled across calls.
#include "core/window.hpp"

#include <cstring>
#include <vector>

#include "common/instr.hpp"
#include "core/win_internal.hpp"

namespace fompi::core {

namespace {

/// Notes an upcoming capacity growth of a recycled scratch vector (the
/// steady-state accumulate path allocates nothing).
void note_growth(std::size_t need, std::size_t capacity) {
  if (need > capacity) count(Op::pool_grow);
}

}  // namespace

void Win::acc_lock_acquire(int target) {
  Shared& s = sh();
  rdma::Nic& n = nic();
  const auto& tdesc = s.ctrl_desc[static_cast<std::size_t>(target)];
  const std::uint64_t mine = static_cast<std::uint64_t>(rank_) + 1;
  s.fabric->domain().wait_until([&] {
    return n.amo(target, tdesc, CtrlLayout::kAccLock, rdma::AmoOp::cas, mine,
                 0) == 0;
  });
}

void Win::acc_lock_release(int target) {
  Shared& s = sh();
  nic().amo(target, s.ctrl_desc[static_cast<std::size_t>(target)],
            CtrlLayout::kAccLock, rdma::AmoOp::swap, 0);
}

void Win::accumulate_fallback(const void* origin, void* fetch,
                              std::size_t count, Elem e, RedOp op, int target,
                              std::size_t tdisp) {
  const std::size_t len = count * elem_size(e);
  rdma::RegionDesc desc;
  std::size_t off = 0;
  resolve_target(target, tdisp, len, &desc, &off);
  rdma::Nic& n = nic();
  std::vector<std::byte>& tmp = st().acc_tmp;
  note_growth(len, tmp.capacity());
  tmp.resize(len);
  acc_lock_acquire(target);
  n.get(target, desc, off, tmp.data(), len);
  if (fetch != nullptr) std::memcpy(fetch, tmp.data(), len);
  if (op != RedOp::no_op) {
    combine(e, op, tmp.data(), origin, count);
    n.put(target, desc, off, tmp.data(), len);
  }
  acc_lock_release(target);
}

void Win::accumulate(const void* origin, std::size_t count, Elem e, RedOp op,
                     int target, std::size_t tdisp) {
  require_access(target);
  FOMPI_REQUIRE(op != RedOp::no_op, ErrClass::op,
                "accumulate with no_op has no effect; use get_accumulate");
  if (amo_accelerated(e, op)) {
    const std::size_t len = count * 8;
    rdma::RegionDesc desc;
    std::size_t off = 0;
    resolve_target(target, tdisp, len, &desc, &off);
    const auto* vals = static_cast<const std::uint64_t*>(origin);
    rdma::Nic& n = nic();
    const rdma::AmoOp opcode = amo_opcode(op);
    for (std::size_t i = 0; i < count; ++i) {
      n.amo_nbi(target, desc, off + 8 * i, opcode, vals[i]);
    }
    return;
  }
  accumulate_fallback(origin, nullptr, count, e, op, target, tdisp);
}

void Win::accumulate(const void* origin, int ocount,
                     const dt::Datatype& otype, Elem e, RedOp op, int target,
                     std::size_t tdisp, int tcount,
                     const dt::Datatype& ttype) {
  require_access(target);
  FOMPI_REQUIRE(op != RedOp::no_op, ErrClass::op,
                "accumulate with no_op has no effect; use get_accumulate");
  const std::size_t esz = elem_size(e);
  // Contiguous pairs reduce to the plain call.
  if (otype.is_contiguous() && ttype.is_contiguous()) {
    const std::size_t len = otype.size() * static_cast<std::size_t>(ocount);
    FOMPI_REQUIRE(len == ttype.size() * static_cast<std::size_t>(tcount) &&
                      len % esz == 0,
                  ErrClass::type, "accumulate: payload mismatch");
    accumulate(origin, len / esz, e, op, target, tdisp);
    return;
  }
  const auto* obase = static_cast<const std::byte*>(origin);
  rdma::Nic& n = nic();
  const bool dynamic = sh().kind == WinKind::dynamic;

  if (amo_accelerated(e, op)) {
    const rdma::AmoOp opcode = amo_opcode(op);
    if (!dynamic) {
      // Static window: one descriptor covers every fragment's AMOs.
      rdma::RegionDesc desc;
      std::size_t off = 0;
      if (tcount > 0) {
        resolve_target(
            target, tdisp,
            static_cast<std::size_t>(tcount - 1) * ttype.extent() +
                ttype.span_end(),
            &desc, &off);
      }
      dt::pair_layouts(
          otype, ocount, ttype, tcount, tdisp,
          [&](std::size_t ooff, std::size_t toff, std::size_t len) {
            FOMPI_REQUIRE(len % esz == 0 && ooff % esz == 0, ErrClass::type,
                          "accumulate: fragment splits an element");
            const std::size_t foff = off + (toff - tdisp);
            for (std::size_t i = 0; i < len; i += 8) {
              std::uint64_t v;
              std::memcpy(&v, obase + ooff + i, 8);
              n.amo_nbi(target, desc, foff + i, opcode, v);
            }
          });
      return;
    }
    dt::pair_layouts(
        otype, ocount, ttype, tcount, tdisp,
        [&](std::size_t ooff, std::size_t toff, std::size_t len) {
          FOMPI_REQUIRE(len % esz == 0 && ooff % esz == 0, ErrClass::type,
                        "accumulate: fragment splits an element");
          rdma::RegionDesc desc;
          std::size_t off = 0;
          resolve_target(target, toff, len, &desc, &off);
          for (std::size_t i = 0; i < len; i += 8) {
            std::uint64_t v;
            std::memcpy(&v, obase + ooff + i, 8);
            n.amo_nbi(target, desc, off + i, opcode, v);
          }
        });
    return;
  }

  RankState& rs = st();
  if (!dynamic) {
    // Fallback, static window: gather every target fragment with one
    // vectored get into the packed combine buffer, reduce locally, scatter
    // the results back with one vectored put — three network ops total
    // under the single target lock instead of two per fragment.
    rdma::RegionDesc desc;
    std::size_t off = 0;
    const std::size_t span =
        tcount > 0 ? static_cast<std::size_t>(tcount - 1) * ttype.extent() +
                         ttype.span_end()
                   : 0;
    resolve_target(target, tdisp, span, &desc, &off);
    rs.frag_scratch.clear();
    std::size_t packed = 0;
    dt::pair_layouts(otype, ocount, ttype, tcount, tdisp,
                     [&](std::size_t ooff, std::size_t toff, std::size_t len) {
                       FOMPI_REQUIRE(len % esz == 0 && ooff % esz == 0,
                                     ErrClass::type,
                                     "accumulate: fragment splits an element");
                       note_growth(rs.frag_scratch.size() + 1,
                                   rs.frag_scratch.capacity());
                       rs.frag_scratch.push_back({packed, toff - tdisp, len});
                       packed += len;
                     });
    if (rs.frag_scratch.empty()) return;
    note_growth(packed, rs.acc_tmp.capacity());
    rs.acc_tmp.resize(packed);
    acc_lock_acquire(target);
    n.wait(n.get_nbv(target, desc, off, span, rs.acc_tmp.data(),
                     rs.frag_scratch.data(), rs.frag_scratch.size()));
    std::size_t pos = 0;
    dt::pair_layouts(otype, ocount, ttype, tcount, tdisp,
                     [&](std::size_t ooff, std::size_t, std::size_t len) {
                       combine(e, op, rs.acc_tmp.data() + pos, obase + ooff,
                               len / esz);
                       pos += len;
                     });
    n.wait(n.put_nbv(target, desc, off, span, rs.acc_tmp.data(),
                     rs.frag_scratch.data(), rs.frag_scratch.size()));
    acc_lock_release(target);
    return;
  }

  // Dynamic window: fragments may land in different attached regions, so
  // each one resolves and moves individually, still under one lock.
  acc_lock_acquire(target);
  dt::pair_layouts(otype, ocount, ttype, tcount, tdisp,
                   [&](std::size_t ooff, std::size_t toff, std::size_t len) {
                     FOMPI_REQUIRE(len % esz == 0 && ooff % esz == 0,
                                   ErrClass::type,
                                   "accumulate: fragment splits an element");
                     rdma::RegionDesc desc;
                     std::size_t off = 0;
                     resolve_target(target, toff, len, &desc, &off);
                     note_growth(len, rs.acc_tmp.capacity());
                     rs.acc_tmp.resize(len);
                     n.get(target, desc, off, rs.acc_tmp.data(), len);
                     combine(e, op, rs.acc_tmp.data(), obase + ooff,
                             len / esz);
                     n.put(target, desc, off, rs.acc_tmp.data(), len);
                   });
  acc_lock_release(target);
}

RmaRequest Win::raccumulate(const void* origin, std::size_t count, Elem e,
                            RedOp op, int target, std::size_t tdisp) {
  require_access(target);
  FOMPI_REQUIRE(op != RedOp::no_op, ErrClass::op,
                "raccumulate with no_op has no effect");
  RmaRequest req;
  req.nic_ = &nic();
  if (amo_accelerated(e, op)) {
    const std::size_t len = count * 8;
    rdma::RegionDesc desc;
    std::size_t off = 0;
    resolve_target(target, tdisp, len, &desc, &off);
    const auto* vals = static_cast<const std::uint64_t*>(origin);
    const rdma::AmoOp opcode = amo_opcode(op);
    if (count > 1) req.spill_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      req.add(req.nic_->amo_nb(target, desc, off + 8 * i, opcode, vals[i], 0,
                               nullptr));
    }
    return req;
  }
  // Fallback ops complete eagerly; the request is immediately done.
  accumulate_fallback(origin, nullptr, count, e, op, target, tdisp);
  return req;
}

void Win::get_accumulate(const void* origin, void* result, std::size_t count,
                         Elem e, RedOp op, int target, std::size_t tdisp) {
  require_access(target);
  FOMPI_REQUIRE(result != nullptr, ErrClass::arg,
                "get_accumulate needs a result buffer");
  if (amo_accelerated(e, op) || (op == RedOp::no_op && elem_size(e) == 8)) {
    const std::size_t len = count * 8;
    rdma::RegionDesc desc;
    std::size_t off = 0;
    resolve_target(target, tdisp, len, &desc, &off);
    const auto* vals = static_cast<const std::uint64_t*>(origin);
    auto* out = static_cast<std::uint64_t*>(result);
    // Explicit nonblocking AMOs, completed together: fetch results land in
    // the result buffer in element order. One element (fetch_and_op) keeps
    // its handle inline.
    RmaRequest req;
    req.nic_ = &nic();
    if (count > 1) req.spill_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (op == RedOp::no_op) {
        req.add(req.nic_->amo_nb(target, desc, off + 8 * i, rdma::AmoOp::read,
                                 0, 0, &out[i]));
      } else {
        req.add(req.nic_->amo_nb(target, desc, off + 8 * i, amo_opcode(op),
                                 vals[i], 0, &out[i]));
      }
    }
    req.wait();
    return;
  }
  accumulate_fallback(origin, result, count, e, op, target, tdisp);
}

void Win::fetch_and_op(const void* origin, void* result, Elem e, RedOp op,
                       int target, std::size_t tdisp) {
  get_accumulate(origin, result, 1, e, op, target, tdisp);
}

RmaRequest Win::rfetch_and_op(const void* origin, void* result, Elem e,
                              RedOp op, int target, std::size_t tdisp) {
  require_access(target);
  FOMPI_REQUIRE(result != nullptr, ErrClass::arg,
                "rfetch_and_op needs a result buffer");
  RmaRequest req;
  req.nic_ = &nic();
  if (amo_accelerated(e, op) || (op == RedOp::no_op && elem_size(e) == 8)) {
    rdma::RegionDesc desc;
    std::size_t off = 0;
    resolve_target(target, tdisp, 8, &desc, &off);
    std::uint64_t v = 0;
    if (op != RedOp::no_op) std::memcpy(&v, origin, 8);
    req.add(req.nic_->amo_nb(
        target, desc, off,
        op == RedOp::no_op ? rdma::AmoOp::read : amo_opcode(op), v, 0,
        static_cast<std::uint64_t*>(result)));
    return req;
  }
  // Fallback ops complete eagerly; the request is immediately done.
  accumulate_fallback(origin, result, 1, e, op, target, tdisp);
  return req;
}

RmaRequest Win::rcompare_and_swap(const void* origin, const void* compare,
                                  void* result, Elem e, int target,
                                  std::size_t tdisp) {
  require_access(target);
  FOMPI_REQUIRE(e != Elem::f32 && e != Elem::f64, ErrClass::type,
                "rcompare_and_swap requires an integer type");
  RmaRequest req;
  req.nic_ = &nic();
  if (elem_size(e) == 8) {
    rdma::RegionDesc desc;
    std::size_t off = 0;
    resolve_target(target, tdisp, 8, &desc, &off);
    std::uint64_t o, c;
    std::memcpy(&o, origin, 8);
    std::memcpy(&c, compare, 8);
    req.add(req.nic_->amo_nb(target, desc, off, rdma::AmoOp::cas, o, c,
                             static_cast<std::uint64_t*>(result)));
    return req;
  }
  // 4-byte CAS runs the lock-based fallback eagerly; already done.
  compare_and_swap(origin, compare, result, e, target, tdisp);
  return req;
}

void Win::compare_and_swap(const void* origin, const void* compare,
                           void* result, Elem e, int target,
                           std::size_t tdisp) {
  require_access(target);
  FOMPI_REQUIRE(e != Elem::f32 && e != Elem::f64, ErrClass::type,
                "compare_and_swap requires an integer type");
  if (elem_size(e) == 8) {
    rdma::RegionDesc desc;
    std::size_t off = 0;
    resolve_target(target, tdisp, 8, &desc, &off);
    std::uint64_t o, c;
    std::memcpy(&o, origin, 8);
    std::memcpy(&c, compare, 8);
    const std::uint64_t prev =
        nic().amo(target, desc, off, rdma::AmoOp::cas, o, c);
    std::memcpy(result, &prev, 8);
    return;
  }
  // 4-byte CAS is not hardware-accelerated: run it under the fallback lock.
  rdma::RegionDesc desc;
  std::size_t off = 0;
  resolve_target(target, tdisp, 4, &desc, &off);
  rdma::Nic& n = nic();
  acc_lock_acquire(target);
  std::uint32_t cur;
  n.get(target, desc, off, &cur, 4);
  std::memcpy(result, &cur, 4);
  std::uint32_t cmp;
  std::memcpy(&cmp, compare, 4);
  if (cur == cmp) {
    n.put(target, desc, off, origin, 4);
  }
  acc_lock_release(target);
}

}  // namespace fompi::core
