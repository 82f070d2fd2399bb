// MappedAllocator — an allocator for long-lived multi-megabyte scratch.
//
// Blocks of kMappedBlockBytes or more are mapped straight from the OS and
// unmapped when released; smaller blocks come from operator new as usual.
//
// Why: glibc raises its mmap threshold (up to 32 MiB) every time it frees a
// mapped block, so once a process has freed a few multi-MB vectors, later
// ones of that size are carved from the malloc heap instead. A long-lived
// scratch buffer there settles into whichever heap hole happens to be free
// when it grows — often the one a short-lived multi-MB vector just left —
// and the next such vector then extends the heap. The resident set ends up
// depending on the order of earlier calls. A mapped block takes no heap
// hole and costs exactly its own pages, in any order.
//
// Use it for buffers that grow rarely and are reused many times (thread
// arenas): mapping costs a system call and fresh pages per allocation, so
// it does not suit short-lived vectors.
#pragma once

#include <cstddef>
#include <limits>
#include <new>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#define NPAC_HAVE_MMAP 1
#endif

namespace npac::support {

/// Blocks at least this large are mapped from the OS.
inline constexpr std::size_t kMappedBlockBytes = std::size_t{1} << 20;

template <class T>
class MappedAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "MappedAllocator: over-aligned types are not supported");

 public:
  using value_type = T;

  MappedAllocator() = default;
  template <class U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    const std::size_t bytes = n * sizeof(T);
#ifdef NPAC_HAVE_MMAP
    if (bytes >= kMappedBlockBytes) {
      void* const block = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (block == MAP_FAILED) throw std::bad_alloc();
      return static_cast<T*>(block);
    }
#endif
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* block, std::size_t n) noexcept {
#ifdef NPAC_HAVE_MMAP
    if (n * sizeof(T) >= kMappedBlockBytes) {
      ::munmap(block, n * sizeof(T));
      return;
    }
#endif
    ::operator delete(block);
  }

  template <class U>
  bool operator==(const MappedAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace npac::support
