// Topology-agnostic partition allocation — the layer the scheduler
// simulation places jobs through.
//
// The paper's Future Work scheduler (Section 5) weighs partition quality
// against utilization. PR 3 generalized the *contention* stack to any
// simnet::Network; this module does the same for *allocation*: a
// PartitionAllocator owns the occupancy state of one machine and hands out
// opaque Partition handles whose per-family layout is
//
//  * CuboidAllocator  — cuboids of midplanes on a Blue Gene/Q torus grid
//    (the pre-refactor MidplaneGrid path, kept bit-exact; quality is the
//    normalized internal bisection of Theorem 3.1 / Lemma 3.3);
//  * DragonflyAllocator — group slices: whole chassis (K_a columns) spread
//    over as few groups as possible, scored by core::topology_bisection on
//    the slice's induced sub-network (Hamming K_a x K_c for one group, the
//    canonical g-group sub-dragonfly otherwise);
//  * FatTreeAllocator — pod/subtree blocks: edge-switch subtrees grouped
//    into pods; every layout of a non-blocking Clos has the same host
//    bisection (the Section 5 claim this family demonstrates).
//
// Candidate layout *classes* for a job size are quality-ordered, so the
// SchedulerPolicy trade-offs (first-fit / best-bisection / wait-for-best /
// EASY backfill) are expressed once in core::StreamingScheduler and run
// unchanged on every family. Within a class, each family places by one
// rule: first fit in its deterministic scan order. Expensive layout
// scoring goes through a PartitionOracle so sweeps can memoize it per
// machine descriptor (sweep::CachedPartitionOracle).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgq/policy.hpp"
#include "core/advisor.hpp"
#include "support/hot.hpp"
#include "topo/descriptor.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"

namespace npac::core {

// ---------------------------------------------------------------------------
// PartitionOracle: the memoization seam for expensive layout queries.
// ---------------------------------------------------------------------------

/// Source of candidate-layout information, keyed by machine descriptor and
/// job size. The base implementation computes everything directly on every
/// query; callers running many simulations (the src/sweep engine) supply a
/// memoized override so each exhaustive cuboid enumeration and each
/// sub-network bisection is paid once per key instead of once per placement
/// decision.
class PartitionOracle {
 public:
  virtual ~PartitionOracle() = default;

  /// Distinct geometries of exactly `midplanes` midplanes fitting
  /// `machine`, sorted best bisection first — the contract of
  /// bgq::enumerate_geometries, which the base class delegates to. The
  /// torus family's layout classes. Returned by shared_ptr so memoizing
  /// overrides hand out a reference to the one cached enumeration instead
  /// of copying it per placement decision; never null, immutable.
  virtual std::shared_ptr<const std::vector<bgq::Geometry>> geometries(
      const bgq::Machine& machine, std::int64_t midplanes) const;

  /// core::topology_bisection of a (sub-)network descriptor — how the
  /// non-torus families score a candidate layout. Memoizing overrides key
  /// on spec.id().
  virtual TopologyBisection bisection(const topo::TopologySpec& spec) const;
};

/// Process-wide uncached oracle (what a null/default oracle argument means).
const PartitionOracle& default_partition_oracle();

// ---------------------------------------------------------------------------
// Torus-family layout: cuboid placements on the midplane grid.
// ---------------------------------------------------------------------------

/// A cuboid of midplanes anchored at a grid position. `extent` is the
/// oriented shape (not canonicalized); the cuboid may wrap around any
/// dimension, as Blue Gene/Q partitions may.
struct Placement {
  std::array<std::int64_t, 4> origin{0, 0, 0, 0};
  std::array<std::int64_t, 4> extent{1, 1, 1, 1};

  std::int64_t midplanes() const;
  bgq::Geometry geometry() const;  ///< canonical form of the extent
  std::string to_string() const;
};

/// Occupancy tracker over a machine's midplane grid.
class MidplaneGrid {
 public:
  explicit MidplaneGrid(bgq::Machine machine);

  const bgq::Machine& machine() const { return machine_; }
  std::int64_t free_midplanes() const { return free_; }

  /// True if every cell of the placement is inside the grid (modulo
  /// wrap-around) and currently free.
  bool fits(const Placement& placement) const;

  /// Marks the placement's cells as owned by `job_id`. Throws if any cell
  /// is occupied.
  void occupy(const Placement& placement, std::int64_t job_id);

  /// Frees every cell owned by `job_id`. Returns the number freed.
  std::int64_t release(std::int64_t job_id);

  /// Finds the first free anchored placement whose canonical shape is
  /// `shape` in scan order: axis permutations (lexicographic), then origins
  /// (row-major); nullopt when none fits.
  std::optional<Placement> find_placement(const bgq::Geometry& shape) const;

 private:
  std::size_t cell_index(const std::array<std::int64_t, 4>& cell) const;
  template <typename Fn>
  void for_each_cell(const Placement& placement, Fn&& fn) const;

  bgq::Machine machine_;
  std::array<std::int64_t, 4> dims_;
  std::vector<std::int64_t> owner_;  // -1 = free
  std::int64_t free_ = 0;
};

// ---------------------------------------------------------------------------
// The allocator interface.
// ---------------------------------------------------------------------------

/// Opaque handle to one allocated node set. `label` renders the per-family
/// layout (torus: the placed cuboid; dragonfly: chassis x groups; fat-tree:
/// subtrees x pods); `cuboid` is populated by the torus family only.
struct Partition {
  std::string label;
  std::int64_t units = 0;      ///< allocation units held
  double quality = 0.0;        ///< internal bisection score of this layout
  double best_quality = 0.0;   ///< best same-size layout score
  std::optional<Placement> cuboid;  ///< torus-family layout detail
};

/// Occupancy state + allocation policy surface of one machine. An
/// *allocation unit* is the family's scheduling granule: a midplane
/// (torus), a chassis of K_a routers (dragonfly), or an edge-switch
/// subtree of k/2 hosts (fat-tree). Job sizes are unit counts.
///
/// Layout classes for a size are quality-ordered best-first;
/// `try_place(size, k, job)` attempts class k and atomically occupies the
/// chosen node set on success. Scan order inside a class is deterministic,
/// so schedules are pure functions of (machine, policy, jobs).
class PartitionAllocator {
 public:
  virtual ~PartitionAllocator() = default;

  PartitionAllocator(const PartitionAllocator&) = delete;
  PartitionAllocator& operator=(const PartitionAllocator&) = delete;

  /// Machine descriptor id used in diagnostics and cache keys, e.g.
  /// "Mira (torus:4x4x3x2)" or "dragonfly:a4:h4:g8:p1:abs".
  virtual std::string descriptor() const = 0;

  /// Short family tag ("cuboid", "dragonfly", "fattree") used as the
  /// per-family key of scheduler metrics (`sched.alloc.<family>.*`).
  virtual std::string family() const = 0;

  virtual std::int64_t total_units() const = 0;
  virtual std::int64_t free_units() const = 0;

  /// Quality scores (internal bisection of the layout class, best first) of
  /// the candidate layouts for a job of `size` units. Empty = the size is
  /// infeasible on this machine. Pure in (machine, size).
  virtual std::vector<double> candidate_qualities(std::int64_t size) const = 0;

  /// Attempts to allocate a partition of layout class `candidate` (an index
  /// into candidate_qualities(size)) for `job_id`; nullopt when no free
  /// node set of that layout exists right now.
  virtual std::optional<Partition> try_place(std::int64_t size,
                                             std::size_t candidate,
                                             std::int64_t job_id) = 0;

  /// Frees every unit owned by `job_id`. Returns the number freed.
  virtual std::int64_t release(std::int64_t job_id) = 0;

 protected:
  PartitionAllocator() = default;
};

// ---------------------------------------------------------------------------
// Family implementations.
// ---------------------------------------------------------------------------

/// Occupancy of a machine carved into equal containers of allocation units
/// — dragonfly groups of chassis, fat-tree pods of edge subtrees. Keeps the
/// unit owner array and each container's free count, updated on occupy and
/// release, so a placement reads one count per container instead of
/// recounting its units.
class ContainerOccupancy {
 public:
  ContainerOccupancy() = default;
  ContainerOccupancy(std::int64_t containers, std::int64_t container_size);

  std::int64_t free_units() const { return free_units_; }

  /// Takes the first `blocks` containers (by ascending id) holding at
  /// least `per_block` free units each and occupies the lowest-id free
  /// units of each for `job_id`. Returns the chosen ids in ascending order
  /// — a view of scratch the next call overwrites — or an empty span,
  /// occupying nothing, when fewer than `blocks` qualify. Throws
  /// std::invalid_argument for a negative `job_id`.
  NPAC_HOT std::span<const std::int64_t> place(std::int64_t blocks,
                                               std::int64_t per_block,
                                               std::int64_t job_id);

  /// Frees every unit owned by `job_id`. Returns the number freed (0 for an
  /// id that holds nothing, including any negative id).
  std::int64_t release(std::int64_t job_id);

 private:
  std::int64_t container_size_ = 1;
  std::vector<std::int64_t> owner_;           // unit -> job id, -1 = free
  std::vector<std::int64_t> container_free_;  // free units per container
  std::vector<std::int64_t> scratch_;         // picker scratch, per container
  std::int64_t free_units_ = 0;
};

/// Blue Gene/Q torus family: the pre-refactor MidplaneGrid scheduling path.
/// Layout classes are the distinct same-size cuboid geometries sorted best
/// bisection first; placement scans all orientations and origins in
/// enumeration order — bit-exact with the original scheduler
/// (tests/core/allocator_test.cpp pins the zero-drift guarantee).
class CuboidAllocator final : public PartitionAllocator {
 public:
  /// `oracle` must outlive the allocator.
  explicit CuboidAllocator(
      bgq::Machine machine,
      const PartitionOracle& oracle = default_partition_oracle());

  const bgq::Machine& machine() const { return grid_.machine(); }
  const MidplaneGrid& grid() const { return grid_; }

  std::string descriptor() const override;
  std::string family() const override { return "cuboid"; }
  std::int64_t total_units() const override;
  std::int64_t free_units() const override { return grid_.free_midplanes(); }
  std::vector<double> candidate_qualities(std::int64_t size) const override;
  std::optional<Partition> try_place(std::int64_t size, std::size_t candidate,
                                     std::int64_t job_id) override;
  std::int64_t release(std::int64_t job_id) override;

 private:
  const std::vector<bgq::Geometry>& geometries_for(std::int64_t size) const;

  const PartitionOracle* oracle_;
  MidplaneGrid grid_;
  /// Per-size enumeration memo: pure in (machine shape, size), so caching
  /// inside the allocator never changes a schedule, only its cost. Holds
  /// the oracle's shared_ptr, so a memoized oracle costs one refcount per
  /// distinct size here, not a vector copy.
  mutable std::map<std::int64_t, std::shared_ptr<const std::vector<bgq::Geometry>>>
      enumerations_;
};

/// Dragonfly family: allocation units are chassis (columns of K_a routers).
/// A layout class spreads a job of s chassis over g groups, c = s / g
/// chassis each (g must divide s, c <= h); classes are scored by the
/// bisection of the slice's induced sub-network — Hamming K_a x K_c for a
/// single group, the canonical g-group sub-dragonfly for spread layouts —
/// and ordered best-first, so compact slices (dense intra-group links)
/// outrank layouts that push internal traffic onto the sparse global links.
class DragonflyAllocator final : public PartitionAllocator {
 public:
  explicit DragonflyAllocator(
      topo::DragonflyConfig config,
      const PartitionOracle& oracle = default_partition_oracle());

  const topo::DragonflyConfig& config() const { return config_; }

  std::string descriptor() const override;
  std::string family() const override { return "dragonfly"; }
  std::int64_t total_units() const override;
  std::int64_t free_units() const override {
    return occupancy_.free_units();
  }
  std::vector<double> candidate_qualities(std::int64_t size) const override;
  std::optional<Partition> try_place(std::int64_t size, std::size_t candidate,
                                     std::int64_t job_id) override;
  std::int64_t release(std::int64_t job_id) override;

  /// The (groups, chassis-per-group) layout classes for a size, quality
  /// ordered (exposed for tests and the advisor's labels).
  struct Layout {
    std::int64_t groups = 1;
    std::int64_t chassis_per_group = 1;
    double quality = 0.0;
  };
  const std::vector<Layout>& layouts_for(std::int64_t size) const;

 private:
  topo::DragonflyConfig config_;
  const PartitionOracle* oracle_;
  ContainerOccupancy occupancy_;  // groups of h chassis
  mutable std::map<std::int64_t, std::vector<Layout>> layouts_;
};

/// Fat-tree family: allocation units are edge-switch subtrees (k/2 hosts).
/// A layout class spreads s subtrees over p pods (p divides s, s / p <=
/// k/2 edge switches per pod). The machine is a non-blocking Clos, so every
/// layout of the same size has the same host bisection — s * k/4 * link
/// capacity — which is exactly the Section 5 observation that partition
/// *shape* does not matter on fat-trees: wait-for-best never waits.
class FatTreeAllocator final : public PartitionAllocator {
 public:
  explicit FatTreeAllocator(topo::FatTreeConfig config);

  const topo::FatTreeConfig& config() const { return config_; }

  std::string descriptor() const override;
  std::string family() const override { return "fattree"; }
  std::int64_t total_units() const override;
  std::int64_t free_units() const override {
    return occupancy_.free_units();
  }
  std::vector<double> candidate_qualities(std::int64_t size) const override;
  std::optional<Partition> try_place(std::int64_t size, std::size_t candidate,
                                     std::int64_t job_id) override;
  std::int64_t release(std::int64_t job_id) override;

  /// Pods spanned by each layout class of a size (compact first),
  /// memoized per size like DragonflyAllocator::layouts_for.
  const std::vector<std::int64_t>& pods_for(std::int64_t size) const;

 private:
  /// The flat Clos quality of any s-subtree block: s * k/4 * capacity.
  double block_quality(std::int64_t size) const;

  topo::FatTreeConfig config_;
  ContainerOccupancy occupancy_;  // k pods of k/2 edge subtrees
  mutable std::map<std::int64_t, std::vector<std::int64_t>> pods_;
};

// ---------------------------------------------------------------------------
// Factories.
// ---------------------------------------------------------------------------

/// Allocator for a Blue Gene/Q machine (torus family).
std::unique_ptr<PartitionAllocator> make_allocator(
    const bgq::Machine& machine,
    const PartitionOracle& oracle = default_partition_oracle());

/// Allocator for a topology descriptor: 4-D torus specs get the cuboid
/// family (the spec's dims become the midplane grid), dragonfly and
/// fat-tree specs their native families. Other families have no allocation
/// model yet and throw std::invalid_argument.
std::unique_ptr<PartitionAllocator> make_allocator(
    const topo::TopologySpec& spec,
    const PartitionOracle& oracle = default_partition_oracle());

/// Job sizes (unit counts) for which `allocator` has at least one layout
/// class, ascending — the generic analogue of bgq::feasible_sizes.
std::vector<std::int64_t> feasible_unit_sizes(
    const PartitionAllocator& allocator);

}  // namespace npac::core
