#include "apps/fft.hpp"

#include <bit>
#include <cstring>
#include <numbers>

namespace fompi::apps {

void fft1d(cplx* a, std::size_t n, bool inverse) {
  FOMPI_REQUIRE(std::has_single_bit(n), ErrClass::arg,
                "fft1d: size must be a power of two");
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        2 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1 : -1);
    const cplx wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const cplx u = a[i + j];
        const cplx v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (std::size_t i = 0; i < n; ++i) a[i] /= static_cast<double>(n);
  }
}

void dft_reference(const std::vector<cplx>& in, std::vector<cplx>& out,
                   bool inverse) {
  const std::size_t n = in.size();
  out.assign(n, cplx{});
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2 * std::numbers::pi *
                         static_cast<double>(k * j) / static_cast<double>(n);
      out[k] += in[j] * cplx(std::cos(ang), std::sin(ang));
    }
  }
  if (inverse) {
    for (auto& v : out) v /= static_cast<double>(n);
  }
}

Fft3d::Fft3d(fabric::RankCtx& ctx, int nx, int ny, int nz,
             FftBackend backend)
    : nx_(nx), ny_(ny), nz_(nz), p_(ctx.nranks()), rank_(ctx.rank()),
      backend_(backend) {
  FOMPI_REQUIRE(nz_ % p_ == 0 && nx_ % p_ == 0, ErrClass::arg,
                "fft: nx and nz must be divisible by the rank count");
  lz_ = nz_ / p_;
  lx_ = nx_ / p_;
  // Both transpose directions move blocks of the same size lz*ny*lx, one
  // per (src, dst) pair.
  const std::size_t section =
      static_cast<std::size_t>(lz_) * static_cast<std::size_t>(ny_) *
      static_cast<std::size_t>(lx_);
  if (backend_ == FftBackend::alltoallv) {
    // Uniform persistent plan: count/displacement exchange and landing
    // registration happen here, once; every transpose is then a single
    // run_alltoallv.
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(p_), section);
    std::vector<std::uint64_t> displs(static_cast<std::size_t>(p_));
    for (int j = 0; j < p_; ++j) {
      displs[static_cast<std::size_t>(j)] =
          static_cast<std::uint64_t>(j) * section;
    }
    plan_ = ctx.fabric().coll().plan_alltoallv(rank_, counts.data(),
                                               displs.data(), sizeof(cplx));
    abuf_.resize(static_cast<std::size_t>(p_) * section);
    rbuf_.resize(static_cast<std::size_t>(p_) * section);
    return;
  }
  // p2p / rma_overlap: transpose landing area, one section per source rank.
  win_ = core::Win::allocate(
      ctx, static_cast<std::size_t>(p_) * section * sizeof(cplx));
}

void Fft3d::destroy(fabric::RankCtx& ctx) {
  ctx.barrier();
  if (backend_ == FftBackend::alltoallv) {
    plan_.reset();  // after the barrier: nobody is still inside a run
    return;
  }
  win_.free();
}

std::size_t Fft3d::local_in_elems() const {
  return static_cast<std::size_t>(lz_) * ny_ * nx_;
}

std::size_t Fft3d::local_out_elems() const {
  return static_cast<std::size_t>(lx_) * nz_ * ny_;
}

void Fft3d::transform_slab_xy(const cplx* in, cplx* work,
                              bool inverse) const {
  const std::size_t plane = static_cast<std::size_t>(ny_) * nx_;
  std::vector<cplx> line(static_cast<std::size_t>(std::max(nx_, ny_)));
  for (int z = 0; z < lz_; ++z) {
    cplx* zp = work + static_cast<std::size_t>(z) * plane;
    std::memcpy(zp, in + static_cast<std::size_t>(z) * plane,
                plane * sizeof(cplx));
    // x lines are contiguous.
    for (int y = 0; y < ny_; ++y) {
      fft1d(zp + static_cast<std::size_t>(y) * nx_,
            static_cast<std::size_t>(nx_), inverse);
    }
    // y lines are strided by nx.
    for (int x = 0; x < nx_; ++x) {
      for (int y = 0; y < ny_; ++y) {
        line[static_cast<std::size_t>(y)] =
            zp[static_cast<std::size_t>(y) * nx_ + x];
      }
      fft1d(line.data(), static_cast<std::size_t>(ny_), inverse);
      for (int y = 0; y < ny_; ++y) {
        zp[static_cast<std::size_t>(y) * nx_ + x] =
            line[static_cast<std::size_t>(y)];
      }
    }
  }
}

void Fft3d::transpose_forward(fabric::RankCtx& ctx, cplx* work, cplx* out) {
  const std::size_t section = static_cast<std::size_t>(lz_) * ny_ * lx_;
  const std::size_t plane_block = static_cast<std::size_t>(ny_) * lx_;
  auto& p2p = ctx.fabric().p2p();

  if (backend_ == FftBackend::rma_overlap) {
    // The UPC-slab schedule: plane z is shipped as soon as it is ready.
    win_.fence();
    std::vector<cplx> pack(plane_block);
    for (int z = 0; z < lz_; ++z) {
      for (int dest = 0; dest < p_; ++dest) {
        for (int y = 0; y < ny_; ++y) {
          for (int xl = 0; xl < lx_; ++xl) {
            pack[static_cast<std::size_t>(y) * lx_ + xl] =
                work[static_cast<std::size_t>(z) * ny_ * nx_ +
                     static_cast<std::size_t>(y) * nx_ + dest * lx_ + xl];
          }
        }
        const std::size_t disp =
            (static_cast<std::size_t>(rank_) * section +
             static_cast<std::size_t>(z) * plane_block) *
            sizeof(cplx);
        win_.put(pack.data(), plane_block * sizeof(cplx), dest, disp);
      }
      // The puts for plane z overlap with transforming plane z+1 in the
      // caller; here back-to-back planes already pipeline inside the NIC.
    }
    win_.fence();
    const auto* landing = static_cast<const cplx*>(win_.base());
    for (int src = 0; src < p_; ++src) {
      for (int zl = 0; zl < lz_; ++zl) {
        for (int y = 0; y < ny_; ++y) {
          for (int xl = 0; xl < lx_; ++xl) {
            out[static_cast<std::size_t>(xl) * nz_ * ny_ +
                static_cast<std::size_t>(src * lz_ + zl) * ny_ + y] =
                landing[static_cast<std::size_t>(src) * section +
                        static_cast<std::size_t>(zl) * plane_block +
                        static_cast<std::size_t>(y) * lx_ + xl];
          }
        }
      }
    }
    win_.fence();
    return;
  }

  if (backend_ == FftBackend::alltoallv) {
    // Persistent collective: pack destination-major, one run, unpack.
    // The run's leading barrier orders this transpose against the
    // previous collective, so abuf_/rbuf_ reuse is safe with no trailing
    // barrier here.
    for (int dest = 0; dest < p_; ++dest) {
      cplx* buf = abuf_.data() + static_cast<std::size_t>(dest) * section;
      for (int z = 0; z < lz_; ++z) {
        for (int y = 0; y < ny_; ++y) {
          for (int xl = 0; xl < lx_; ++xl) {
            buf[static_cast<std::size_t>(z) * plane_block +
                static_cast<std::size_t>(y) * lx_ + xl] =
                work[static_cast<std::size_t>(z) * ny_ * nx_ +
                     static_cast<std::size_t>(y) * nx_ + dest * lx_ + xl];
          }
        }
      }
    }
    ctx.fabric().coll().run_alltoallv(rank_, *plan_, abuf_.data(),
                                      rbuf_.data());
    for (int src = 0; src < p_; ++src) {
      const cplx* buf = rbuf_.data() + static_cast<std::size_t>(src) * section;
      for (int zl = 0; zl < lz_; ++zl) {
        for (int y = 0; y < ny_; ++y) {
          for (int xl = 0; xl < lx_; ++xl) {
            out[static_cast<std::size_t>(xl) * nz_ * ny_ +
                static_cast<std::size_t>(src * lz_ + zl) * ny_ + y] =
                buf[static_cast<std::size_t>(zl) * plane_block +
                    static_cast<std::size_t>(y) * lx_ + xl];
          }
        }
      }
    }
    return;
  }

  // p2p transpose: pack all, exchange, unpack.
  std::vector<std::vector<cplx>> sendbuf(static_cast<std::size_t>(p_));
  for (int dest = 0; dest < p_; ++dest) {
    auto& buf = sendbuf[static_cast<std::size_t>(dest)];
    buf.resize(section);
    for (int z = 0; z < lz_; ++z) {
      for (int y = 0; y < ny_; ++y) {
        for (int xl = 0; xl < lx_; ++xl) {
          buf[static_cast<std::size_t>(z) * plane_block +
              static_cast<std::size_t>(y) * lx_ + xl] =
              work[static_cast<std::size_t>(z) * ny_ * nx_ +
                   static_cast<std::size_t>(y) * nx_ + dest * lx_ + xl];
        }
      }
    }
  }
  std::vector<std::vector<cplx>> recvbuf(static_cast<std::size_t>(p_));
  std::vector<fabric::P2PRequest> reqs;
  for (int src = 0; src < p_; ++src) {
    recvbuf[static_cast<std::size_t>(src)].resize(section);
    reqs.push_back(p2p.irecv(rank_, src, 400,
                             recvbuf[static_cast<std::size_t>(src)].data(),
                             section * sizeof(cplx)));
  }
  for (int dest = 0; dest < p_; ++dest) {
    reqs.push_back(p2p.isend(rank_, dest, 400,
                             sendbuf[static_cast<std::size_t>(dest)].data(),
                             section * sizeof(cplx)));
  }
  p2p.waitall(reqs);
  for (int src = 0; src < p_; ++src) {
    const auto& buf = recvbuf[static_cast<std::size_t>(src)];
    for (int zl = 0; zl < lz_; ++zl) {
      for (int y = 0; y < ny_; ++y) {
        for (int xl = 0; xl < lx_; ++xl) {
          out[static_cast<std::size_t>(xl) * nz_ * ny_ +
              static_cast<std::size_t>(src * lz_ + zl) * ny_ + y] =
              buf[static_cast<std::size_t>(zl) * plane_block +
                  static_cast<std::size_t>(y) * lx_ + xl];
        }
      }
    }
  }
  ctx.barrier();
}

void Fft3d::transpose_backward(fabric::RankCtx& ctx, cplx* work, cplx* out) {
  const std::size_t section = static_cast<std::size_t>(lz_) * ny_ * lx_;
  const std::size_t plane_block = static_cast<std::size_t>(ny_) * lx_;
  auto& p2p = ctx.fabric().p2p();

  // Pack for each destination (which owns a z range): from x-slab layout.
  auto pack_for = [&](int dest, cplx* buf) {
    for (int zl = 0; zl < lz_; ++zl) {
      for (int y = 0; y < ny_; ++y) {
        for (int xl = 0; xl < lx_; ++xl) {
          buf[static_cast<std::size_t>(zl) * plane_block +
              static_cast<std::size_t>(y) * lx_ + xl] =
              work[static_cast<std::size_t>(xl) * nz_ * ny_ +
                   static_cast<std::size_t>(dest * lz_ + zl) * ny_ + y];
        }
      }
    }
  };
  auto unpack_from = [&](int src, const cplx* buf) {
    for (int z = 0; z < lz_; ++z) {
      for (int y = 0; y < ny_; ++y) {
        for (int xl = 0; xl < lx_; ++xl) {
          out[static_cast<std::size_t>(z) * ny_ * nx_ +
              static_cast<std::size_t>(y) * nx_ + src * lx_ + xl] =
              buf[static_cast<std::size_t>(z) * plane_block +
                  static_cast<std::size_t>(y) * lx_ + xl];
        }
      }
    }
  };

  if (backend_ == FftBackend::alltoallv) {
    for (int dest = 0; dest < p_; ++dest) {
      pack_for(dest, abuf_.data() + static_cast<std::size_t>(dest) * section);
    }
    ctx.fabric().coll().run_alltoallv(rank_, *plan_, abuf_.data(),
                                      rbuf_.data());
    for (int src = 0; src < p_; ++src) {
      unpack_from(src, rbuf_.data() + static_cast<std::size_t>(src) * section);
    }
    return;
  }

  if (backend_ == FftBackend::rma_overlap) {
    win_.fence();
    std::vector<cplx> pack(section);
    for (int dest = 0; dest < p_; ++dest) {
      pack_for(dest, pack.data());
      win_.put(pack.data(), section * sizeof(cplx), dest,
               static_cast<std::size_t>(rank_) * section * sizeof(cplx));
    }
    win_.fence();
    const auto* landing = static_cast<const cplx*>(win_.base());
    for (int src = 0; src < p_; ++src) {
      unpack_from(src, landing + static_cast<std::size_t>(src) * section);
    }
    win_.fence();
    return;
  }

  std::vector<std::vector<cplx>> sendbuf(static_cast<std::size_t>(p_));
  std::vector<std::vector<cplx>> recvbuf(static_cast<std::size_t>(p_));
  std::vector<fabric::P2PRequest> reqs;
  for (int src = 0; src < p_; ++src) {
    recvbuf[static_cast<std::size_t>(src)].resize(section);
    reqs.push_back(p2p.irecv(rank_, src, 401,
                             recvbuf[static_cast<std::size_t>(src)].data(),
                             section * sizeof(cplx)));
  }
  for (int dest = 0; dest < p_; ++dest) {
    auto& buf = sendbuf[static_cast<std::size_t>(dest)];
    buf.resize(section);
    pack_for(dest, buf.data());
    reqs.push_back(p2p.isend(rank_, dest, 401, buf.data(),
                             section * sizeof(cplx)));
  }
  p2p.waitall(reqs);
  for (int src = 0; src < p_; ++src) {
    unpack_from(src, recvbuf[static_cast<std::size_t>(src)].data());
  }
  ctx.barrier();
}

void Fft3d::fft_z_lines(cplx* xs, bool inverse) const {
  std::vector<cplx> line(static_cast<std::size_t>(nz_));
  for (int xl = 0; xl < lx_; ++xl) {
    for (int y = 0; y < ny_; ++y) {
      for (int z = 0; z < nz_; ++z) {
        line[static_cast<std::size_t>(z)] =
            xs[static_cast<std::size_t>(xl) * nz_ * ny_ +
               static_cast<std::size_t>(z) * ny_ + y];
      }
      fft1d(line.data(), static_cast<std::size_t>(nz_), inverse);
      for (int z = 0; z < nz_; ++z) {
        xs[static_cast<std::size_t>(xl) * nz_ * ny_ +
           static_cast<std::size_t>(z) * ny_ + y] =
            line[static_cast<std::size_t>(z)];
      }
    }
  }
}

void Fft3d::forward(fabric::RankCtx& ctx, const cplx* in, cplx* out) {
  if (backend_ == FftBackend::rma_overlap) {
    forward_overlapped(in, out);
    return;
  }
  std::vector<cplx> work(local_in_elems());
  transform_slab_xy(in, work.data(), /*inverse=*/false);
  transpose_forward(ctx, work.data(), out);
  fft_z_lines(out, /*inverse=*/false);
}

void Fft3d::forward_overlapped(const cplx* in, cplx* out) {
  // The UPC-slab schedule (Sec 4.3): transform one z-plane, immediately
  // ship its fragments with nonblocking puts, and transform the next plane
  // while they are in flight; one fence completes the whole transpose.
  const std::size_t plane = static_cast<std::size_t>(ny_) * nx_;
  const std::size_t section = static_cast<std::size_t>(lz_) * ny_ * lx_;
  const std::size_t plane_block = static_cast<std::size_t>(ny_) * lx_;
  std::vector<cplx> work(local_in_elems());
  std::vector<cplx> line(static_cast<std::size_t>(std::max(nx_, ny_)));
  // Per-plane pack buffers must stay alive until the fence; one buffer per
  // (plane, dest) keeps puts zero-copy-safe without staging.
  std::vector<cplx> pack(static_cast<std::size_t>(lz_) *
                         static_cast<std::size_t>(p_) * plane_block);
  win_.fence();
  for (int z = 0; z < lz_; ++z) {
    // Local transforms of plane z (x lines, then y lines).
    cplx* zp = work.data() + static_cast<std::size_t>(z) * plane;
    std::memcpy(zp, in + static_cast<std::size_t>(z) * plane,
                plane * sizeof(cplx));
    for (int y = 0; y < ny_; ++y) {
      fft1d(zp + static_cast<std::size_t>(y) * nx_,
            static_cast<std::size_t>(nx_), false);
    }
    for (int x = 0; x < nx_; ++x) {
      for (int y = 0; y < ny_; ++y) {
        line[static_cast<std::size_t>(y)] =
            zp[static_cast<std::size_t>(y) * nx_ + x];
      }
      fft1d(line.data(), static_cast<std::size_t>(ny_), false);
      for (int y = 0; y < ny_; ++y) {
        zp[static_cast<std::size_t>(y) * nx_ + x] =
            line[static_cast<std::size_t>(y)];
      }
    }
    // Ship plane z: its fragments overlap with plane z+1's compute.
    for (int dest = 0; dest < p_; ++dest) {
      cplx* pbuf = pack.data() +
                   (static_cast<std::size_t>(z) * p_ +
                    static_cast<std::size_t>(dest)) *
                       plane_block;
      for (int y = 0; y < ny_; ++y) {
        for (int xl = 0; xl < lx_; ++xl) {
          pbuf[static_cast<std::size_t>(y) * lx_ + xl] =
              zp[static_cast<std::size_t>(y) * nx_ + dest * lx_ + xl];
        }
      }
      const std::size_t disp = (static_cast<std::size_t>(rank_) * section +
                                static_cast<std::size_t>(z) * plane_block) *
                               sizeof(cplx);
      win_.put(pbuf, plane_block * sizeof(cplx), dest, disp);
    }
  }
  win_.fence();
  const auto* landing = static_cast<const cplx*>(win_.base());
  for (int src = 0; src < p_; ++src) {
    for (int zl = 0; zl < lz_; ++zl) {
      for (int y = 0; y < ny_; ++y) {
        for (int xl = 0; xl < lx_; ++xl) {
          out[static_cast<std::size_t>(xl) * nz_ * ny_ +
              static_cast<std::size_t>(src * lz_ + zl) * ny_ + y] =
              landing[static_cast<std::size_t>(src) * section +
                      static_cast<std::size_t>(zl) * plane_block +
                      static_cast<std::size_t>(y) * lx_ + xl];
        }
      }
    }
  }
  win_.fence();
  fft_z_lines(out, /*inverse=*/false);
}

void Fft3d::inverse(fabric::RankCtx& ctx, const cplx* in, cplx* out) {
  std::vector<cplx> work(local_out_elems());
  std::memcpy(work.data(), in, local_out_elems() * sizeof(cplx));
  fft_z_lines(work.data(), /*inverse=*/true);
  std::vector<cplx> zslab(local_in_elems());
  transpose_backward(ctx, work.data(), zslab.data());
  transform_slab_xy(zslab.data(), out, /*inverse=*/true);
}

}  // namespace fompi::apps
