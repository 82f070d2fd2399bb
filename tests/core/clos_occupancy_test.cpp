// Clos container-occupancy tests: DragonflyAllocator and FatTreeAllocator
// run in lockstep against in-test replicas of the placement code they
// replaced — an owner array recounted per pick, a scan-order picker, and
// ostringstream labels. Random place/release sequences must agree on every
// label, quality, unit count and free count. The torus label
// (Placement::to_string) is pinned against its stream-formatted replica
// the same way.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/allocator.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"

namespace npac::core {
namespace {

// ---------------------------------------------------------------------------
// Replica of the pre-refactor container helpers.
// ---------------------------------------------------------------------------

std::vector<std::int64_t> reference_pick(const std::vector<std::int64_t>& owner,
                                         std::int64_t container_size,
                                         std::int64_t blocks,
                                         std::int64_t per_block) {
  const std::int64_t containers =
      static_cast<std::int64_t>(owner.size()) / container_size;
  std::vector<std::int64_t> chosen;
  for (std::int64_t c = 0; c < containers &&
                           static_cast<std::int64_t>(chosen.size()) < blocks;
       ++c) {
    std::int64_t free = 0;
    for (std::int64_t u = 0; u < container_size; ++u) {
      if (owner[static_cast<std::size_t>(c * container_size + u)] == -1) {
        ++free;
      }
    }
    if (free >= per_block) chosen.push_back(c);
  }
  if (static_cast<std::int64_t>(chosen.size()) < blocks) chosen.clear();
  return chosen;
}

std::string reference_container_list(const std::vector<std::int64_t>& ids) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out << ",";
    out << ids[i];
  }
  out << "}";
  return out.str();
}

/// The pre-refactor occupancy of one Clos machine: picks by recounting the
/// owner array, occupies the lowest-id free units of each chosen container,
/// releases by scanning for the id.
struct ReferenceClos {
  std::vector<std::int64_t> owner;
  std::int64_t container_size = 1;
  std::int64_t free = 0;

  ReferenceClos(std::int64_t containers, std::int64_t size)
      : owner(static_cast<std::size_t>(containers * size), -1),
        container_size(size),
        free(containers * size) {}

  /// Chosen container ids, or empty when the layout does not fit.
  std::vector<std::int64_t> place(std::int64_t blocks, std::int64_t per_block,
                                  std::int64_t job_id) {
    const auto chosen =
        reference_pick(owner, container_size, blocks, per_block);
    for (const std::int64_t c : chosen) {
      std::int64_t taken = 0;
      for (std::int64_t u = 0; u < container_size && taken < per_block; ++u) {
        auto& cell = owner[static_cast<std::size_t>(c * container_size + u)];
        if (cell == -1) {
          cell = job_id;
          ++taken;
        }
      }
    }
    if (!chosen.empty()) free -= blocks * per_block;
    return chosen;
  }

  std::int64_t release(std::int64_t job_id) {
    std::int64_t freed = 0;
    for (auto& cell : owner) {
      if (cell == job_id) {
        cell = -1;
        ++freed;
      }
    }
    free += freed;
    return freed;
  }
};

// ---------------------------------------------------------------------------
// Lockstep harness.
// ---------------------------------------------------------------------------

/// One layout class as the replica sees it.
struct ReferenceLayout {
  std::int64_t blocks = 1;
  std::int64_t per_block = 1;
  double quality = 0.0;
  double best_quality = 0.0;
  std::string label_prefix;  // "<per_block>ch x <blocks>gr@"
};

/// Drives `allocator` and `reference` through the same seeded random
/// place/release sequence, asserting equal outcomes after every step.
/// `layout` maps (size, class index) to the replica's view of the class.
template <typename Layouts>
void run_lockstep(PartitionAllocator& allocator, ReferenceClos& reference,
                  std::uint64_t seed, const Layouts& layout) {
  const std::vector<std::int64_t> sizes = feasible_unit_sizes(allocator);
  ASSERT_FALSE(sizes.empty());
  std::mt19937_64 rng(seed);
  const auto index_below = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  std::vector<std::int64_t> running;
  std::int64_t next_id = 0;
  std::int64_t placed = 0;
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const bool do_release =
        !running.empty() && std::uniform_int_distribution<int>(0, 2)(rng) == 0;
    if (do_release) {
      const std::size_t pick = index_below(running.size());
      const std::int64_t id = running[pick];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
      const std::int64_t freed = allocator.release(id);
      EXPECT_GT(freed, 0);
      ASSERT_EQ(freed, reference.release(id));
    } else {
      const std::int64_t size = sizes[index_below(sizes.size())];
      const std::size_t candidate =
          index_below(allocator.candidate_qualities(size).size());
      const ReferenceLayout expected = layout(size, candidate);
      const std::int64_t id = next_id++;
      const auto partition = allocator.try_place(size, candidate, id);
      const auto chosen =
          reference.place(expected.blocks, expected.per_block, id);
      ASSERT_EQ(partition.has_value(), !chosen.empty())
          << "size " << size << " class " << candidate;
      if (partition) {
        ++placed;
        running.push_back(id);
        EXPECT_EQ(partition->label,
                  expected.label_prefix + reference_container_list(chosen));
        EXPECT_EQ(partition->units, size);
        EXPECT_EQ(partition->quality, expected.quality);
        EXPECT_EQ(partition->best_quality, expected.best_quality);
        EXPECT_FALSE(partition->cuboid.has_value());
      }
    }
    ASSERT_EQ(allocator.free_units(), reference.free);
    // An id that never ran frees nothing on either side.
    ASSERT_EQ(allocator.release(-7), 0);
    ASSERT_EQ(reference.release(-7), 0);
    ASSERT_EQ(allocator.free_units(), reference.free);
  }
  // The sequence must have exercised placement, not only failures.
  EXPECT_GT(placed, 100);
}

std::string prefix(std::int64_t per_block, const char* unit,
                   std::int64_t blocks, const char* container) {
  std::ostringstream out;
  out << per_block << unit << blocks << container;
  return out.str();
}

void run_dragonfly(const topo::DragonflyConfig& config, std::uint64_t seed) {
  DragonflyAllocator allocator(config);
  ReferenceClos reference(config.groups, config.h);
  run_lockstep(allocator, reference, seed,
               [&](std::int64_t size, std::size_t candidate) {
                 const auto& layouts = allocator.layouts_for(size);
                 const auto& layout = layouts.at(candidate);
                 return ReferenceLayout{
                     layout.groups, layout.chassis_per_group, layout.quality,
                     layouts.front().quality,
                     prefix(layout.chassis_per_group, "ch x ", layout.groups,
                            "gr@")};
               });
}

void run_fat_tree(std::int64_t k, std::uint64_t seed) {
  const topo::FatTreeConfig config{k, 1.5};
  FatTreeAllocator allocator(config);
  ReferenceClos reference(k, k / 2);
  run_lockstep(allocator, reference, seed,
               [&](std::int64_t size, std::size_t candidate) {
                 // The pre-refactor pod enumeration: every pod count p that
                 // divides the size with at most k/2 subtrees each.
                 std::vector<std::int64_t> pods;
                 for (std::int64_t p = 1; p <= k; ++p) {
                   if (size % p == 0 && size / p <= k / 2) pods.push_back(p);
                 }
                 EXPECT_EQ(allocator.pods_for(size), pods);
                 const std::int64_t p = pods.at(candidate);
                 const double quality = static_cast<double>(size * (k / 2)) /
                                        2.0 * config.link_capacity;
                 return ReferenceLayout{p, size / p, quality, quality,
                                        prefix(size / p, "st x ", p, "pod@")};
               });
}

topo::DragonflyConfig dragonfly(std::int64_t a, std::int64_t h,
                                std::int64_t groups) {
  topo::DragonflyConfig config;
  config.a = a;
  config.h = h;
  config.groups = groups;
  config.global_ports = 1;
  return config;
}

TEST(ClosOccupancyLockstepTest, DragonflyA4H4G8) {
  run_dragonfly(dragonfly(4, 4, 8), 41);
}

TEST(ClosOccupancyLockstepTest, DragonflyA2H3G5) {
  run_dragonfly(dragonfly(2, 3, 5), 23);
}

TEST(ClosOccupancyLockstepTest, FatTreeK4) { run_fat_tree(4, 4); }

TEST(ClosOccupancyLockstepTest, FatTreeK8) { run_fat_tree(8, 8); }

TEST(ClosOccupancyTest, ReleasingAnUnknownIdFreesNothing) {
  DragonflyAllocator dragonfly_allocator(dragonfly(4, 4, 8));
  FatTreeAllocator fat_tree(topo::FatTreeConfig{8, 1.0});
  for (PartitionAllocator* allocator :
       std::vector<PartitionAllocator*>{&dragonfly_allocator, &fat_tree}) {
    EXPECT_EQ(allocator->release(5), 0);  // empty machine
    ASSERT_TRUE(allocator->try_place(3, 0, 5).has_value());
    const std::int64_t free = allocator->free_units();
    EXPECT_EQ(allocator->release(6), 0);  // never placed
    EXPECT_EQ(allocator->free_units(), free);
    // -1 marks free units: releasing it frees nothing and placing for it
    // is refused, so the per-container counts stay exact.
    EXPECT_EQ(allocator->release(-1), 0);
    EXPECT_EQ(allocator->free_units(), free);
    EXPECT_THROW(allocator->try_place(3, 0, -1), std::invalid_argument);
    EXPECT_EQ(allocator->free_units(), free);
    EXPECT_EQ(allocator->release(-1), 0);
    EXPECT_EQ(allocator->free_units(), free);
    EXPECT_EQ(allocator->release(5), 3);
    EXPECT_EQ(allocator->release(5), 0);  // already released
    EXPECT_EQ(allocator->free_units(), allocator->total_units());
    // The machine still fills exactly to capacity, one unit per job.
    std::int64_t placed = 0;
    for (std::int64_t id = 0; allocator->try_place(1, 0, id); ++id) ++placed;
    EXPECT_EQ(placed, allocator->total_units());
    EXPECT_EQ(allocator->free_units(), 0);
  }
}

TEST(ClosOccupancyTest, PlacementLabelMatchesStreamFormatting) {
  // Placement::to_string against the ostringstream form it replaced, over
  // one- to two-digit extents and origins.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::int64_t> value(0, 99);
  for (int i = 0; i < 500; ++i) {
    Placement placement;
    for (std::size_t d = 0; d < 4; ++d) {
      placement.extent[d] = value(rng) + 1;
      placement.origin[d] = value(rng);
    }
    std::ostringstream expected;
    expected << placement.extent[0] << "x" << placement.extent[1] << "x"
             << placement.extent[2] << "x" << placement.extent[3] << "@("
             << placement.origin[0] << "," << placement.origin[1] << ","
             << placement.origin[2] << "," << placement.origin[3] << ")";
    ASSERT_EQ(placement.to_string(), expected.str());
  }
}

}  // namespace
}  // namespace npac::core
