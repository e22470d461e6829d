// 64-byte-aligned allocation for the dense numerical kernels.
//
// The panel kernels and GEMM (util/panel.hpp, util/kernels.hpp) stream
// rows of row-major matrices; aligning every row-major buffer to a
// cache line keeps vector loads split-free and makes the hot-loop
// access pattern identical from run to run.
// std::vector<double, AlignedAllocator<..>> is the backing store of
// util::Matrix, and so of every operator and state panel.
#pragma once

#include <cstddef>
#include <new>

namespace ds::util {

/// Minimal C++17 allocator returning 64-byte-aligned blocks.
template <typename T, std::size_t Alignment = 64>
class AlignedAllocator {
 public:
  using value_type = T;
  static constexpr std::align_val_t kAlign{Alignment};

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  // Allocator implementation: the aligned operator new/delete pair is
  // the RAII boundary itself, not an ownership leak.
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), kAlign));  // ds_lint: allow(naked-new)
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, kAlign);  // ds_lint: allow(naked-new)
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return false;
  }
};

}  // namespace ds::util
