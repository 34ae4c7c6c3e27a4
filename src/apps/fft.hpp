// Parallel 3D FFT (Sec 4.3, Fig 7c) — the NAS-FT communication pattern.
//
// 1D slab decomposition: the forward transform FFTs x and y lines inside
// each local z-slab, transposes to an x-slab layout, then FFTs the z
// lines. Two transpose engines, the paper's comparison pair:
//   * p2p         — "nonblocking MPI": pack per-destination blocks,
//                   isend/irecv, waitall, unpack (no overlap);
//   * rma_overlap — the "UPC slab" schedule over MPI-3.0 RMA: as soon as a
//                   z-plane finished its local transforms, its fragments
//                   are put into the destination windows (implicit
//                   nonblocking), overlapping with the next plane's
//                   compute; a single fence completes the transpose.
//   * alltoallv   — the transpose as one persistent RMA-native collective
//                   (fabric plan_alltoallv, planned once in the
//                   constructor): pack, run, unpack — counts/offsets and
//                   landing registration are amortized across transforms.
// The local 1D kernel is an iterative radix-2 Cooley-Tukey transform.
#pragma once

#include <complex>
#include <memory>
#include <vector>

#include "core/window.hpp"
#include "fabric/collectives.hpp"

namespace fompi::apps {

using cplx = std::complex<double>;

/// In-place radix-2 FFT; n must be a power of two. inverse includes 1/n.
void fft1d(cplx* a, std::size_t n, bool inverse);

enum class FftBackend { p2p, rma_overlap, alltoallv };

class Fft3d {
 public:
  /// Collective. nx, ny, nz powers of two; nz and nx divisible by nranks.
  Fft3d(fabric::RankCtx& ctx, int nx, int ny, int nz, FftBackend backend);
  void destroy(fabric::RankCtx& ctx);

  int lz() const noexcept { return lz_; }  ///< local z planes (input slab)
  int lx() const noexcept { return lx_; }  ///< local x planes (output slab)
  /// Elements in the input (z-slab) layout: lz*ny*nx, index (z,y,x).
  std::size_t local_in_elems() const;
  /// Elements in the output (x-slab) layout: lx*nz*ny, index (x,z,y).
  std::size_t local_out_elems() const;

  /// Forward transform: z-slab input -> x-slab output (transposed).
  void forward(fabric::RankCtx& ctx, const cplx* in, cplx* out);
  /// Inverse transform: x-slab input -> z-slab output.
  void inverse(fabric::RankCtx& ctx, const cplx* in, cplx* out);

 private:
  void transform_slab_xy(const cplx* in, cplx* work, bool inverse) const;
  /// Fused forward path for rma_overlap: per-plane transform + put.
  void forward_overlapped(const cplx* in, cplx* out);
  /// Transpose work (z-slab, post-xy-FFT) into out (x-slab layout).
  void transpose_forward(fabric::RankCtx& ctx, cplx* work, cplx* out);
  /// Transpose work (x-slab) back into out (z-slab layout).
  void transpose_backward(fabric::RankCtx& ctx, cplx* work, cplx* out);
  void fft_z_lines(cplx* xs, bool inverse) const;

  int nx_ = 0, ny_ = 0, nz_ = 0;
  int p_ = 0, rank_ = -1;
  int lz_ = 0, lx_ = 0;
  FftBackend backend_;
  core::Win win_;  // p2p/rma_overlap transpose landing area
  /// alltoallv backend: the persistent plan plus reusable pack/unpack
  /// staging (sized once, so repeated transforms stay allocation-light).
  std::shared_ptr<fabric::AlltoallvPlan> plan_;
  std::vector<cplx> abuf_, rbuf_;
};

/// Convenience: naive O(n^2) DFT along one axis for validation.
void dft_reference(const std::vector<cplx>& in, std::vector<cplx>& out,
                   bool inverse);

}  // namespace fompi::apps
