#include "support/mapped_allocator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

namespace npac::support {
namespace {

using Buffer = std::vector<std::int64_t, MappedAllocator<std::int64_t>>;

constexpr std::size_t kSmall = 1000;  // 8 KB: operator new
constexpr std::size_t kLarge =
    3 * kMappedBlockBytes / sizeof(std::int64_t);  // 3 MiB: mapped

TEST(MappedAllocatorTest, GrowingAcrossTheThresholdKeepsContents) {
  Buffer buffer(kSmall);
  std::iota(buffer.begin(), buffer.end(), std::int64_t{0});
  buffer.resize(kLarge);
  for (std::size_t i = 0; i < kSmall; ++i) {
    ASSERT_EQ(buffer[i], static_cast<std::int64_t>(i));
  }
  for (std::size_t i = kSmall; i < kLarge; ++i) ASSERT_EQ(buffer[i], 0);
  std::iota(buffer.begin(), buffer.end(), std::int64_t{7});
  EXPECT_EQ(buffer.back(), static_cast<std::int64_t>(kLarge - 1 + 7));
  buffer.resize(kSmall);
  buffer.shrink_to_fit();
  EXPECT_EQ(buffer.front(), 7);
}

TEST(MappedAllocatorTest, LargeBlocksArePageAligned) {
#ifdef NPAC_HAVE_MMAP
  const Buffer large(kLarge);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(large.data()) % 4096, 0u);
#else
  GTEST_SKIP() << "no mmap on this platform";
#endif
}

TEST(MappedAllocatorTest, OversizedRequestThrows) {
  MappedAllocator<std::int64_t> allocator;
  EXPECT_THROW((void)allocator.allocate(~std::size_t{0} / 4),
               std::bad_array_new_length);
}

}  // namespace
}  // namespace npac::support
