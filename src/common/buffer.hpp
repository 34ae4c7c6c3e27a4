// Page-mapped owning buffer used for window memory.
//
// Every buffer is an anonymous private mapping, as the paper's allocated
// windows mmap() their heap (Sec 2.2): the kernel hands it out zeroed and
// commits each page on first touch, so a large arena that windows use
// sparsely (the symmetric heap) costs only the pages they touch. Storage is
// page-aligned, which covers RDMA registration's need for stable storage,
// DMAPP AMOs' 8-byte alignment and the cache-line alignment that keeps
// protocol variables from false sharing.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/error.hpp"

namespace fompi {

inline constexpr std::size_t kCacheLine = 64;

namespace detail {
/// Unmaps an AlignedBuffer; the mapping's length travels with the pointer,
/// through moves too.
struct Unmap {
  std::size_t len = 0;
  void operator()(std::byte* p) const noexcept { ::munmap(p, len); }
};
}  // namespace detail

/// Owning, page-aligned, zero-initialized byte buffer.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t size) {
    if (size == 0) return;
    void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) raise(ErrClass::no_mem, "mmap failed");
    data_ = {static_cast<std::byte*>(p), detail::Unmap{size}};
  }

  std::byte* data() noexcept { return data_.get(); }
  const std::byte* data() const noexcept { return data_.get(); }
  std::size_t size() const noexcept {
    return data_ ? data_.get_deleter().len : 0;
  }
  bool empty() const noexcept { return size() == 0; }

 private:
  std::unique_ptr<std::byte, detail::Unmap> data_;
};

}  // namespace fompi
