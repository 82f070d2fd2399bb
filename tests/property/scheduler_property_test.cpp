// Property sweeps over the scheduler simulation: conservation (every job
// runs exactly once), capacity (concurrent placements never exceed the
// machine and never overlap), occupancy (free units match the running
// jobs at every placement and after every release, on every allocator
// family and policy; no midplane is booked twice on the cuboid family and
// no container over its size on the Clos families), and policy dominance
// relations, across machines and job mixes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "bgq/machine.hpp"
#include "core/allocator.hpp"
#include "core/scheduler.hpp"
#include "core/scheduler_stream.hpp"
#include "topo/descriptor.hpp"

namespace npac::core {
namespace {

std::vector<Job> mixed_stream(const std::vector<std::int64_t>& sizes,
                              int count, std::uint64_t seed) {
  // Deterministic pseudo-random stream drawn from feasible `sizes`.
  std::vector<Job> jobs;
  std::uint64_t state = seed;
  const auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  double arrival = 0.0;
  for (int i = 0; i < count; ++i) {
    Job job;
    job.id = i;
    // Bias toward small sizes so streams actually overlap.
    job.midplanes = sizes[next() % (sizes.size() / 2 + 1)];
    job.base_seconds = 1.0 + static_cast<double>(next() % 50);
    job.contention_bound = next() % 3 != 0;
    arrival += static_cast<double>(next() % 7);
    job.arrival_seconds = arrival;
    jobs.push_back(job);
  }
  return jobs;
}

class SchedulerSweep
    : public ::testing::TestWithParam<std::tuple<int, SchedulerPolicy>> {};

TEST_P(SchedulerSweep, ConservationAndCapacity) {
  const auto& [machine_index, policy] = GetParam();
  const bgq::Machine machine =
      bgq::all_machines().at(static_cast<std::size_t>(machine_index));
  const auto jobs =
      mixed_stream(bgq::feasible_sizes(machine), 40, 42 + machine_index);
  const auto result = simulate_schedule(machine, policy, jobs);

  // Conservation: every job appears exactly once, with sane timing.
  ASSERT_EQ(result.jobs.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ScheduledJob& record = result.jobs[i];
    EXPECT_EQ(record.job.id, static_cast<std::int64_t>(i));
    EXPECT_GE(record.start_seconds, record.job.arrival_seconds);
    EXPECT_GT(record.finish_seconds, record.start_seconds);
    EXPECT_GE(record.slowdown, 1.0);
    EXPECT_LE(record.slowdown, 2.0 + 1e-12);
    ASSERT_TRUE(record.partition.cuboid.has_value());
    EXPECT_EQ(record.partition.cuboid->midplanes(), record.job.midplanes);
    EXPECT_EQ(record.partition.units, record.job.midplanes);
    EXPECT_LE(record.finish_seconds, result.makespan_seconds + 1e-9);
  }

  // Capacity: at every placement epoch, all placements active at that
  // instant must occupy pairwise-disjoint cells of one machine grid.
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const double instant = result.jobs[i].start_seconds;
    MidplaneGrid grid(machine);
    for (const ScheduledJob& record : result.jobs) {
      const bool active = record.start_seconds <= instant + 1e-9 &&
                          record.finish_seconds > instant + 1e-9;
      if (!active) continue;
      ASSERT_TRUE(grid.fits(*record.partition.cuboid))
          << "job " << record.job.id << " overlaps another at t = "
          << instant;
      grid.occupy(*record.partition.cuboid, record.job.id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MachinesAndPolicies, SchedulerSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),  // Mira, JUQUEEN, Sequoia
                       ::testing::Values(SchedulerPolicy::kFirstFit,
                                         SchedulerPolicy::kBestBisection,
                                         SchedulerPolicy::kWaitForBest)));

/// Mira's cuboids, a 4/4/8 dragonfly, and a k = 8 fat-tree.
std::unique_ptr<PartitionAllocator> family_allocator(int family) {
  if (family == 0) return make_allocator(bgq::mira());
  if (family == 1) {
    topo::DragonflyConfig config;
    config.a = 4;
    config.h = 4;
    config.groups = 8;
    config.global_ports = 1;
    return make_allocator(topo::TopologySpec::dragonfly(config));
  }
  return make_allocator(topo::TopologySpec::fat_tree(8));
}

/// Appends the flat cell ids of `placement` on a torus of `dims`, each
/// coordinate wrapped modulo its dimension.
void append_torus_cells(const Placement& placement,
                        const std::array<std::int64_t, 4>& dims,
                        std::vector<std::int64_t>& cells) {
  const auto& [o0, o1, o2, o3] = placement.origin;
  for (std::int64_t a = 0; a < placement.extent[0]; ++a) {
    for (std::int64_t b = 0; b < placement.extent[1]; ++b) {
      for (std::int64_t c = 0; c < placement.extent[2]; ++c) {
        for (std::int64_t d = 0; d < placement.extent[3]; ++d) {
          cells.push_back(
              (((o0 + a) % dims[0] * dims[1] + (o1 + b) % dims[1]) * dims[2] +
               (o2 + c) % dims[2]) * dims[3] +
              (o3 + d) % dims[3]);
        }
      }
    }
  }
}

/// Forwards every call to `inner` and checks the occupancy invariant after
/// each release: the units freed are the units that id was placed with,
/// and free units equal total units minus the units still held.
class ReleaseCheckingAllocator final : public PartitionAllocator {
 public:
  explicit ReleaseCheckingAllocator(PartitionAllocator& inner)
      : inner_(inner) {}

  std::int64_t releases() const { return releases_; }

  std::string descriptor() const override { return inner_.descriptor(); }
  std::string family() const override { return inner_.family(); }
  std::int64_t total_units() const override { return inner_.total_units(); }
  std::int64_t free_units() const override { return inner_.free_units(); }
  std::vector<double> candidate_qualities(std::int64_t size) const override {
    return inner_.candidate_qualities(size);
  }

  std::optional<Partition> try_place(std::int64_t size, std::size_t candidate,
                                     std::int64_t job_id) override {
    auto partition = inner_.try_place(size, candidate, job_id);
    if (partition) {
      EXPECT_EQ(held_.count(job_id), 0u) << "job " << job_id << " placed twice";
      held_[job_id] = partition->units;
      held_units_ += partition->units;
    }
    return partition;
  }

  std::int64_t release(std::int64_t job_id) override {
    const std::int64_t freed = inner_.release(job_id);
    const auto it = held_.find(job_id);
    const std::int64_t placed = it == held_.end() ? 0 : it->second;
    EXPECT_EQ(freed, placed) << "release of job " << job_id;
    if (it != held_.end()) {
      held_units_ -= placed;
      held_.erase(it);
    }
    EXPECT_EQ(inner_.free_units(), inner_.total_units() - held_units_)
        << "after releasing job " << job_id;
    ++releases_;
    return freed;
  }

 private:
  PartitionAllocator& inner_;
  std::map<std::int64_t, std::int64_t> held_;  // job id -> units placed
  std::int64_t held_units_ = 0;
  std::int64_t releases_ = 0;
};

/// A Clos partition label parsed back: `per_block` units in each of the
/// listed containers ("2ch x 3gr@{0,4,5}", "3st x 2pod@{1,6}").
struct ClosBlocks {
  std::int64_t per_block = 0;
  std::vector<std::int64_t> containers;
};

/// Consumes the decimal number at the front of `text`; on failure records
/// it and empties `text`, so a malformed label ends the parse.
std::int64_t parse_leading_int(std::string_view& text) {
  std::int64_t value = -1;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  EXPECT_EQ(error, std::errc()) << "no number at '" << text << "'";
  if (error != std::errc()) {
    text = {};
    return value;
  }
  text.remove_prefix(static_cast<std::size_t>(end - text.data()));
  return value;
}

ClosBlocks parse_clos_label(std::string_view label) {
  ClosBlocks blocks;
  std::string_view rest = label;
  blocks.per_block = parse_leading_int(rest);
  const std::size_t x = rest.find(" x ");
  EXPECT_NE(x, std::string_view::npos) << label;
  rest.remove_prefix(x + 3);
  const std::int64_t count = parse_leading_int(rest);
  const std::size_t open = rest.find("@{");
  EXPECT_NE(open, std::string_view::npos) << label;
  rest.remove_prefix(open + 2);
  while (!rest.empty() && rest.front() != '}') {
    blocks.containers.push_back(parse_leading_int(rest));
    if (!rest.empty() && rest.front() == ',') rest.remove_prefix(1);
  }
  EXPECT_EQ(rest, "}") << label;
  EXPECT_EQ(static_cast<std::int64_t>(blocks.containers.size()), count)
      << label;
  return blocks;
}

/// Units per container of a Clos allocator: h chassis per dragonfly
/// group, k/2 edge subtrees per fat-tree pod.
std::int64_t container_size(const PartitionAllocator& allocator) {
  if (const auto* dragonfly =
          dynamic_cast<const DragonflyAllocator*>(&allocator)) {
    return dragonfly->config().h;
  }
  const auto& fat_tree = dynamic_cast<const FatTreeAllocator&>(allocator);
  return fat_tree.config().k / 2;
}

class OccupancySweep
    : public ::testing::TestWithParam<std::tuple<int, SchedulerPolicy>> {};

TEST_P(OccupancySweep, FreeUnitsMatchRunningJobsAtEveryPlacement) {
  // At each placement the allocator must hold exactly the units of the
  // jobs still running — including after kEasyBackfill's tentative
  // place-and-release probes. On the cuboid family the running jobs'
  // cuboids must also be disjoint: no midplane is booked twice; on the
  // Clos families no container may hold more units than it has. Every
  // release is checked by ReleaseCheckingAllocator.
  const auto& [family, policy] = GetParam();
  const std::array<std::int64_t, 4> mira_dims = bgq::mira().shape.dims();
  const auto inner = family_allocator(family);
  ReleaseCheckingAllocator allocator(*inner);
  const auto jobs =
      mixed_stream(feasible_unit_sizes(allocator), 60, 17 + family);
  StreamingScheduler scheduler(allocator, policy);
  VectorJobSource source(jobs);
  std::vector<ScheduledJob> emitted;
  const auto stats = scheduler.run(source, [&](const ScheduledJob& record) {
    emitted.push_back(record);
    ASSERT_EQ(record.partition.units, record.job.midplanes);
    std::int64_t held = 0;
    std::vector<std::int64_t> cells;
    std::map<std::int64_t, std::int64_t> container_units;
    for (const ScheduledJob& placed : emitted) {
      if (placed.finish_seconds > record.start_seconds) {
        held += placed.partition.units;
        if (family == 0) {
          ASSERT_TRUE(placed.partition.cuboid.has_value());
          append_torus_cells(*placed.partition.cuboid, mira_dims, cells);
        } else {
          const ClosBlocks blocks = parse_clos_label(placed.partition.label);
          ASSERT_EQ(blocks.per_block *
                        static_cast<std::int64_t>(blocks.containers.size()),
                    placed.partition.units)
              << placed.partition.label;
          for (const std::int64_t c : blocks.containers) {
            container_units[c] += blocks.per_block;
          }
        }
      }
    }
    for (const auto& [container, units] : container_units) {
      ASSERT_LE(units, container_size(*inner))
          << "container " << container << " over-booked after placing job "
          << record.job.id << " at t = " << record.start_seconds;
    }
    ASSERT_EQ(allocator.free_units(), allocator.total_units() - held)
        << "after placing job " << record.job.id << " at t = "
        << record.start_seconds;
    std::sort(cells.begin(), cells.end());
    ASSERT_EQ(std::adjacent_find(cells.begin(), cells.end()), cells.end())
        << "a midplane is double-booked after placing job " << record.job.id
        << " at t = " << record.start_seconds;
  });
  EXPECT_EQ(emitted.size(), jobs.size());
  EXPECT_GT(allocator.releases(), 0);  // the release checks did run
  if (policy == SchedulerPolicy::kEasyBackfill) {
    EXPECT_GT(stats.backfill_hits, 0u);  // the rollback path did run
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndPolicies, OccupancySweep,
    ::testing::Combine(::testing::Values(0, 1, 2),  // cuboid, dragonfly,
                                                    // fat-tree
                       ::testing::Values(SchedulerPolicy::kFirstFit,
                                         SchedulerPolicy::kBestBisection,
                                         SchedulerPolicy::kWaitForBest,
                                         SchedulerPolicy::kEasyBackfill)));

TEST(SchedulerDominanceTest, WaitForBestAlwaysAchievesSlowdownOne) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto jobs = mixed_stream(bgq::feasible_sizes(bgq::mira()), 30, seed);
    const auto result = simulate_schedule(
        bgq::mira(), SchedulerPolicy::kWaitForBest, jobs);
    EXPECT_NEAR(result.mean_slowdown, 1.0, 1e-12) << "seed " << seed;
  }
}

TEST(SchedulerDominanceTest, QualityPoliciesNeverLoseOnSlowdown) {
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    const auto jobs =
        mixed_stream(bgq::feasible_sizes(bgq::juqueen()), 30, seed);
    const auto first_fit =
        simulate_schedule(bgq::juqueen(), SchedulerPolicy::kFirstFit, jobs);
    const auto quality = simulate_schedule(
        bgq::juqueen(), SchedulerPolicy::kBestBisection, jobs);
    EXPECT_LE(quality.mean_slowdown, first_fit.mean_slowdown + 1e-12)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace npac::core
