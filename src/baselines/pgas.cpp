#include "baselines/pgas.hpp"

#include <cmath>

#include "perfmodel/cost_functions.hpp"

namespace fompi::baselines {

PgasConfig make_upc_like() {
  const perf::BaselineModel m;
  PgasConfig cfg;
  cfg.per_op_extra_us = m.upc_extra_us;
  cfg.barrier_round_factor =
      m.upc_barrier_per_log_us / perf::PaperModel{}.fence_per_log_us;
  return cfg;
}

PgasConfig make_caf_like() {
  const perf::BaselineModel m;
  PgasConfig cfg;
  cfg.per_op_extra_us = m.caf_extra_us;
  cfg.barrier_round_factor =
      m.caf_sync_all_per_log_us / perf::PaperModel{}.fence_per_log_us;
  return cfg;
}

SharedArray::SharedArray(fabric::RankCtx& ctx, std::size_t bytes_per_rank,
                         PgasConfig cfg)
    : fabric_(&ctx.fabric()),
      rank_(ctx.rank()),
      bytes_(bytes_per_rank),
      cfg_(cfg) {
  auto& coll = fabric_->coll();
  // Leader builds the block table; everyone registers its own block.
  struct Boot {
    std::shared_ptr<std::vector<AlignedBuffer>> blocks;
    std::shared_ptr<std::vector<rdma::RegionDesc>> descs;
  };
  Boot boot;
  if (rank_ == 0) {
    boot.blocks = std::make_shared<std::vector<AlignedBuffer>>();
    boot.descs = std::make_shared<std::vector<rdma::RegionDesc>>(
        static_cast<std::size_t>(ctx.nranks()));
    for (int r = 0; r < ctx.nranks(); ++r) {
      boot.blocks->emplace_back(bytes_per_rank);
    }
    coll.publish(0, &boot);
  }
  coll.barrier(rank_);
  if (rank_ != 0) {
    boot = *static_cast<const Boot*>(coll.peer_ptr(0));
  }
  coll.barrier(rank_);
  blocks_ = boot.blocks;
  descs_ = boot.descs;
  (*descs_)[static_cast<std::size_t>(rank_)] =
      fabric_->domain().registry().register_region(
          rank_, (*blocks_)[static_cast<std::size_t>(rank_)].data(), bytes_);
  coll.barrier(rank_);
}

void SharedArray::destroy(fabric::RankCtx& ctx) {
  ctx.barrier();
  fabric_->domain().registry().deregister(
      (*descs_)[static_cast<std::size_t>(rank_)].rkey);
  ctx.barrier();
  blocks_.reset();
  descs_.reset();
}

void* SharedArray::local() noexcept {
  return (*blocks_)[static_cast<std::size_t>(rank_)].data();
}

void SharedArray::charge_overhead() const {
  fabric_->domain().nic(rank_).charge_model_ns(cfg_.per_op_extra_us * 1e3);
}

void SharedArray::memput(int target, std::size_t off, const void* src,
                         std::size_t len) {
  charge_overhead();
  fabric_->domain().nic(rank_).put_nbi(
      target, (*descs_)[static_cast<std::size_t>(target)], off, src, len);
}

void SharedArray::memget(int target, std::size_t off, void* dst,
                         std::size_t len) {
  charge_overhead();
  fabric_->domain().nic(rank_).get_nbi(
      target, (*descs_)[static_cast<std::size_t>(target)], off, dst, len);
}

void SharedArray::fence() { fabric_->domain().nic(rank_).gsync(); }

void SharedArray::barrier() {
  fence();
  // Extra runtime rounds relative to the foMPI barrier are charged as
  // overhead before entering the same dissemination barrier.
  if (cfg_.barrier_round_factor > 1) {
    const double extra_rounds =
        (cfg_.barrier_round_factor - 1.0) *
        std::log2(std::max(2, fabric_->nranks()));
    fabric_->domain().nic(rank_).charge_model_ns(
        extra_rounds * perf::PaperModel{}.fence_per_log_us * 1e3);
  }
  fabric_->coll().barrier(rank_);
}

std::uint64_t SharedArray::amo_aadd(int target, std::size_t off,
                                    std::uint64_t v) {
  charge_overhead();
  return fabric_->domain().nic(rank_).amo(
      target, (*descs_)[static_cast<std::size_t>(target)], off,
      rdma::AmoOp::fetch_add, v);
}

std::uint64_t SharedArray::amo_acswap(int target, std::size_t off,
                                      std::uint64_t compare,
                                      std::uint64_t value) {
  charge_overhead();
  return fabric_->domain().nic(rank_).amo(
      target, (*descs_)[static_cast<std::size_t>(target)], off,
      rdma::AmoOp::cas, value, compare);
}

}  // namespace fompi::baselines
