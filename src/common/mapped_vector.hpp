// Storage for large transient arrays (feature matrices, GBT bin codes)
// whose pages go back to the system the moment the array is freed.
//
// Through malloc, such a block may not: once any large block is freed,
// glibc raises its mmap threshold (up to 32 MB) and its trim threshold
// (twice that), so later large blocks come from a malloc arena, and
// `malloc_trim` never returns a thread arena's top chunk. A model fit on
// pool workers frees its dataset and bin codes into a worker arena; unless
// a block allocated after them is still live, they merge into that top
// chunk and stay resident. Which case a run hits depends on thread
// timing: a serving process that fitted its model first kept about 2 or
// about 9 MB of dead fit scratch in one arena, from one run of the same
// code to the next (DESIGN §6).
#pragma once

#include <cstddef>
#include <limits>
#include <new>
#include <vector>

#include <sys/mman.h>

namespace xfl {

/// Blocks of at least this many bytes are mapped on their own.
inline constexpr std::size_t kMappedBlockBytes = std::size_t{1} << 20;

/// Allocator that maps each block of kMappedBlockBytes or more straight
/// from the system (anonymous, zero-filled pages, unmapped on release) and
/// serves smaller blocks from operator new. Stateless: all instances are
/// interchangeable.
template <class T>
struct MappedAllocator {
  using value_type = T;

  MappedAllocator() = default;
  template <class U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_array_new_length();
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kMappedBlockBytes) {
      void* block = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (block == MAP_FAILED) throw std::bad_alloc();
      return static_cast<T*>(block);
    }
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* block, std::size_t n) noexcept {
    if (n * sizeof(T) >= kMappedBlockBytes) {
      ::munmap(block, n * sizeof(T));
      return;
    }
    ::operator delete(block);
  }

  template <class U>
  bool operator==(const MappedAllocator<U>&) const noexcept {
    return true;
  }
};

/// A std::vector whose large buffers are mapped pages (MappedAllocator).
template <class T>
using MappedVector = std::vector<T, MappedAllocator<T>>;

}  // namespace xfl
