#include "apps/milc.hpp"

#include <atomic>
#include <cmath>
#include <cstring>

#include "fabric/progress/progress.hpp"

namespace fompi::apps {

namespace {
constexpr int kTagHalo = 501;

int flag_index(int dim, int dir) { return 2 * dim + (dir > 0 ? 1 : 0); }
}  // namespace

std::array<int, 4> milc_default_grid(int p) {
  std::array<int, 4> grid{1, 1, 1, 1};
  int f = p;
  int d = 3;  // grow t, then z, y, x — the longest local dim first
  while (f % 2 == 0) {
    grid[static_cast<std::size_t>(d)] *= 2;
    f /= 2;
    d = (d + 3) % 4;
  }
  grid[3] *= f;  // odd remainder
  return grid;
}

MilcSolver::MilcSolver(fabric::RankCtx& ctx, const MilcConfig& cfg)
    : cfg_(cfg), rank_(ctx.rank()), nranks_(ctx.nranks()) {
  const auto& g = cfg_.grid;
  FOMPI_REQUIRE(g[0] * g[1] * g[2] * g[3] == nranks_, ErrClass::arg,
                "milc: process grid does not match the rank count");
  int rem = rank_;
  coords_[3] = rem % g[3];
  rem /= g[3];
  coords_[2] = rem % g[2];
  rem /= g[2];
  coords_[1] = rem % g[1];
  rem /= g[1];
  coords_[0] = rem;
  volume_ = 1;
  halo_volume_ = 1;
  for (int d = 0; d < 4; ++d) {
    FOMPI_REQUIRE(cfg_.local[static_cast<std::size_t>(d)] >= 1,
                  ErrClass::arg, "milc: local extent must be >= 1");
    ext_[static_cast<std::size_t>(d)] =
        cfg_.local[static_cast<std::size_t>(d)] + 2;
    volume_ *= static_cast<std::size_t>(cfg_.local[static_cast<std::size_t>(d)]);
    halo_volume_ *= static_cast<std::size_t>(ext_[static_cast<std::size_t>(d)]);
  }
  for (int d = 0; d < 4; ++d) {
    face_elems_[static_cast<std::size_t>(d)] =
        volume_ / static_cast<std::size_t>(cfg_.local[static_cast<std::size_t>(d)]);
  }

  if (cfg_.backend == MilcBackend::rma) {
    // Window: 8 flag words, then one send buffer per direction.
    std::size_t bytes = 8 * 8;
    for (int d = 0; d < 4; ++d) {
      for (int dir = 0; dir < 2; ++dir) {
        buf_off_[static_cast<std::size_t>(flag_index(d, dir == 1 ? 1 : -1))] =
            bytes;
        bytes += face_elems_[static_cast<std::size_t>(d)] * sizeof(double);
      }
    }
    win_ = core::Win::allocate(ctx, bytes);
    win_.lock_all();
  } else if (cfg_.backend == MilcBackend::rma_notify_queue) {
    // One receive buffer per direction; the notification travels through
    // the window's ring, so the window holds no flag words.
    std::size_t bytes = 0;
    for (int d = 0; d < 4; ++d) {
      for (int dir = 0; dir < 2; ++dir) {
        recv_off_[static_cast<std::size_t>(flag_index(d, dir == 1 ? 1 : -1))] =
            bytes;
        bytes += face_elems_[static_cast<std::size_t>(d)] * sizeof(double);
      }
    }
    win_ = core::Win::allocate(ctx, bytes);
    win_.lock_all();
    win_.notify_enable(ctx, /*capacity=*/64);
  }
  // All backends share the persistent dot-product allreduce (1 double).
  dot_plan_ = ctx.fabric().coll().plan_allreduce(rank_, 1, sizeof(double));
  ctx.barrier();
}

void MilcSolver::destroy(fabric::RankCtx& ctx) {
  ctx.barrier();
  dot_plan_.reset();  // after the barrier: no rank is still inside a dot()
  if (cfg_.backend != MilcBackend::p2p) {
    win_.unlock_all();
    win_.free();
  }
}

int MilcSolver::neighbor(int dim, int dir) const {
  auto c = coords_;
  const int g = cfg_.grid[static_cast<std::size_t>(dim)];
  c[static_cast<std::size_t>(dim)] =
      (c[static_cast<std::size_t>(dim)] + dir + g) % g;
  return ((c[0] * cfg_.grid[1] + c[1]) * cfg_.grid[2] + c[2]) * cfg_.grid[3] +
         c[3];
}

std::size_t MilcSolver::hidx(int x, int y, int z, int t) const {
  return ((static_cast<std::size_t>(x) * ext_[1] + static_cast<std::size_t>(y)) *
              ext_[2] +
          static_cast<std::size_t>(z)) *
             ext_[3] +
         static_cast<std::size_t>(t);
}

void MilcSolver::pack_face(const std::vector<double>& halo_field, int dim,
                           int dir, double* buf) const {
  // Packs the interior layer adjacent to the (dim, dir) boundary.
  const auto& l = cfg_.local;
  std::size_t n = 0;
  const int fixed = dir > 0 ? l[static_cast<std::size_t>(dim)] : 1;
  std::array<int, 4> c{};
  auto loop = [&](auto&& self, int d) -> void {
    if (d == 4) {
      buf[n++] = halo_field[hidx(c[0], c[1], c[2], c[3])];
      return;
    }
    if (d == dim) {
      c[static_cast<std::size_t>(d)] = fixed;
      self(self, d + 1);
      return;
    }
    for (int i = 1; i <= l[static_cast<std::size_t>(d)]; ++i) {
      c[static_cast<std::size_t>(d)] = i;
      self(self, d + 1);
    }
  };
  loop(loop, 0);
}

void MilcSolver::unpack_face(std::vector<double>& halo_field, int dim,
                             int dir, const double* buf) const {
  // Writes the halo layer on the (dim, dir) side.
  const auto& l = cfg_.local;
  std::size_t n = 0;
  const int fixed = dir > 0 ? l[static_cast<std::size_t>(dim)] + 1 : 0;
  std::array<int, 4> c{};
  auto loop = [&](auto&& self, int d) -> void {
    if (d == 4) {
      halo_field[hidx(c[0], c[1], c[2], c[3])] = buf[n++];
      return;
    }
    if (d == dim) {
      c[static_cast<std::size_t>(d)] = fixed;
      self(self, d + 1);
      return;
    }
    for (int i = 1; i <= l[static_cast<std::size_t>(d)]; ++i) {
      c[static_cast<std::size_t>(d)] = i;
      self(self, d + 1);
    }
  };
  loop(loop, 0);
}

void MilcSolver::exchange_halos(fabric::RankCtx& ctx,
                                std::vector<double>& halo_field) {
  if (cfg_.backend == MilcBackend::p2p) {
    auto& p2p = ctx.fabric().p2p();
    std::array<std::vector<double>, 8> sendbuf, recvbuf;
    std::vector<fabric::P2PRequest> reqs;
    for (int d = 0; d < 4; ++d) {
      for (int dir : {-1, +1}) {
        const int i = flag_index(d, dir);
        const std::size_t n = face_elems_[static_cast<std::size_t>(d)];
        recvbuf[static_cast<std::size_t>(i)].resize(n);
        // Data for my (d,dir) halo comes from the (d,dir) neighbor, who
        // tags it with the index of the face it sent (its opposite side).
        reqs.push_back(p2p.irecv(rank_, neighbor(d, dir),
                                 kTagHalo + flag_index(d, -dir),
                                 recvbuf[static_cast<std::size_t>(i)].data(),
                                 n * sizeof(double)));
      }
    }
    for (int d = 0; d < 4; ++d) {
      for (int dir : {-1, +1}) {
        const int i = flag_index(d, dir);
        const std::size_t n = face_elems_[static_cast<std::size_t>(d)];
        sendbuf[static_cast<std::size_t>(i)].resize(n);
        pack_face(halo_field, d, dir,
                  sendbuf[static_cast<std::size_t>(i)].data());
        reqs.push_back(p2p.isend(rank_, neighbor(d, dir), kTagHalo + i,
                                 sendbuf[static_cast<std::size_t>(i)].data(),
                                 n * sizeof(double)));
      }
    }
    p2p.waitall(reqs);
    for (int d = 0; d < 4; ++d) {
      for (int dir : {-1, +1}) {
        const int i = flag_index(d, dir);
        unpack_face(halo_field, d, dir,
                    recvbuf[static_cast<std::size_t>(i)].data());
      }
    }
    ctx.barrier();
    return;
  }

  if (cfg_.backend == MilcBackend::rma_notify_queue) {
    // First-class put-with-notification: each face is one put_notify whose
    // record (tagged with the receiving side) lands in the neighbor's
    // notification ring; the consumer tag-matches one record per direction
    // in halo order. No flag words, no counter AMOs.
    std::vector<double> pack;
    for (int d = 0; d < 4; ++d) {
      for (int dir : {-1, +1}) {
        const std::size_t n = face_elems_[static_cast<std::size_t>(d)];
        pack.resize(n);
        pack_face(halo_field, d, dir, pack.data());
        const int recv_i = flag_index(d, -dir);
        const rdma::OpStatus st = win_.put_notify(
            pack.data(), n * sizeof(double), neighbor(d, dir),
            recv_off_[static_cast<std::size_t>(recv_i)],
            static_cast<std::uint64_t>(recv_i));
        FOMPI_REQUIRE(st == rdma::OpStatus::ok, ErrClass::peer_dead,
                      "milc: halo put_notify failed");
      }
    }
    const auto* rbase = static_cast<const std::byte*>(win_.base());
    fabric::progress::NotifyRecord rec;
    for (int d = 0; d < 4; ++d) {
      for (int dir : {-1, +1}) {
        const int i = flag_index(d, dir);
        win_.notify_waitsome(static_cast<std::uint64_t>(i), &rec, 1);
        unpack_face(halo_field, d, dir,
                    reinterpret_cast<const double*>(
                        rbase + recv_off_[static_cast<std::size_t>(i)]));
      }
    }
    ctx.barrier();  // buffer reuse across epochs
    return;
  }

  // RMA backend: the paper's produce/notify/get scheme. Notifications are
  // pipelined nonblocking AMOs completed by one flush; gets are issued as
  // flags arrive (any order) and completed by one flush.
  ++epoch_;
  auto* wbase = static_cast<std::byte*>(win_.base());
  // Publish all faces, then notify each neighbor with an atomic add.
  for (int d = 0; d < 4; ++d) {
    for (int dir : {-1, +1}) {
      const int i = flag_index(d, dir);
      auto* buf = reinterpret_cast<double*>(
          wbase + buf_off_[static_cast<std::size_t>(i)]);
      pack_face(halo_field, d, dir, buf);
    }
  }
  win_.sync();  // stores visible before the flags
  const std::uint64_t one = 1;
  for (int d = 0; d < 4; ++d) {
    for (int dir : {-1, +1}) {
      // The neighbor waits on its flag for the face pointing back at me.
      win_.accumulate(&one, 1, Elem::u64, RedOp::sum, neighbor(d, dir),
                      8 * static_cast<std::size_t>(flag_index(d, -dir)));
    }
  }
  win_.flush_all();  // notifications committed
  // Consume: as flags arrive (any order), pull the matching face.
  std::array<std::vector<double>, 8> tmp;
  std::array<bool, 8> fetched{};
  int pending = 8;
  Backoff backoff;  // reset on progress: back off only while truly idle
  // Pulls every face whose flag arrived; true once all eight are in.
  const auto pull_arrived = [&] {
    for (int d = 0; d < 4; ++d) {
      for (int dir : {-1, +1}) {
        const int i = flag_index(d, dir);
        if (fetched[static_cast<std::size_t>(i)]) continue;
        auto flag = std::atomic_ref<std::uint64_t>(
            *reinterpret_cast<std::uint64_t*>(
                wbase + 8 * static_cast<std::size_t>(i)));
        if (flag.load(std::memory_order_acquire) < epoch_) continue;
        const std::size_t n = face_elems_[static_cast<std::size_t>(d)];
        tmp[static_cast<std::size_t>(i)].resize(n);
        win_.get(tmp[static_cast<std::size_t>(i)].data(), n * sizeof(double),
                 neighbor(d, dir),
                 buf_off_[static_cast<std::size_t>(flag_index(d, -dir))]);
        fetched[static_cast<std::size_t>(i)] = true;
        --pending;
        backoff.reset();
      }
    }
    return pending == 0;
  };
  ctx.fabric().domain().wait_until(pull_arrived, rdma::Domain::NoPeer(),
                                   &backoff);
  win_.flush_all();  // all gets landed
  for (int d = 0; d < 4; ++d) {
    for (int dir : {-1, +1}) {
      unpack_face(halo_field, d, dir,
                  tmp[static_cast<std::size_t>(flag_index(d, dir))].data());
    }
  }
  // Keep producers from overwriting buffers of the next epoch while a slow
  // neighbor still reads this one.
  ctx.barrier();
}

void MilcSolver::apply_operator(fabric::RankCtx& ctx,
                                const std::vector<double>& in,
                                std::vector<double>& out) {
  FOMPI_REQUIRE(in.size() == volume_, ErrClass::arg,
                "apply_operator: field has wrong size");
  const auto& l = cfg_.local;
  std::vector<double> halo(halo_volume_, 0.0);
  std::size_t n = 0;
  for (int x = 1; x <= l[0]; ++x) {
    for (int y = 1; y <= l[1]; ++y) {
      for (int z = 1; z <= l[2]; ++z) {
        for (int t = 1; t <= l[3]; ++t) halo[hidx(x, y, z, t)] = in[n++];
      }
    }
  }
  exchange_halos(ctx, halo);
  out.resize(volume_);
  n = 0;
  for (int x = 1; x <= l[0]; ++x) {
    for (int y = 1; y <= l[1]; ++y) {
      for (int z = 1; z <= l[2]; ++z) {
        for (int t = 1; t <= l[3]; ++t) {
          const double center = halo[hidx(x, y, z, t)];
          const double nb = halo[hidx(x - 1, y, z, t)] +
                            halo[hidx(x + 1, y, z, t)] +
                            halo[hidx(x, y - 1, z, t)] +
                            halo[hidx(x, y + 1, z, t)] +
                            halo[hidx(x, y, z - 1, t)] +
                            halo[hidx(x, y, z + 1, t)] +
                            halo[hidx(x, y, z, t - 1)] +
                            halo[hidx(x, y, z, t + 1)];
          out[n++] = center + cfg_.kappa * (8.0 * center - nb);
        }
      }
    }
  }
}

double MilcSolver::dot(fabric::RankCtx& ctx, const std::vector<double>& a,
                       const std::vector<double>& b) const {
  double local = 0;
  for (std::size_t i = 0; i < a.size(); ++i) local += a[i] * b[i];
  double global = 0;
  ctx.fabric().coll().run_allreduce(
      rank_, *dot_plan_, &local, &global,
      [](double x, double y) { return x + y; });
  return global;
}

int MilcSolver::solve_cg(fabric::RankCtx& ctx, const std::vector<double>& b,
                         std::vector<double>& x, double tol, int max_iters,
                         std::vector<double>* residual_history) {
  FOMPI_REQUIRE(b.size() == volume_, ErrClass::arg, "solve_cg: bad rhs size");
  x.resize(volume_, 0.0);
  std::vector<double> r(volume_), p(volume_), ap(volume_);
  apply_operator(ctx, x, ap);
  for (std::size_t i = 0; i < volume_; ++i) r[i] = b[i] - ap[i];
  p = r;
  double rr = dot(ctx, r, r);
  const double b2 = std::max(dot(ctx, b, b), 1e-300);
  int iter = 0;
  while (iter < max_iters && rr / b2 > tol * tol) {
    apply_operator(ctx, p, ap);
    const double alpha = rr / dot(ctx, p, ap);
    for (std::size_t i = 0; i < volume_; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double rr_new = dot(ctx, r, r);
    if (residual_history != nullptr) {
      residual_history->push_back(std::sqrt(rr_new / b2));
    }
    const double beta = rr_new / rr;
    for (std::size_t i = 0; i < volume_; ++i) p[i] = r[i] + beta * p[i];
    rr = rr_new;
    ++iter;
  }
  return iter;
}

}  // namespace fompi::apps
