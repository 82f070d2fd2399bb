#include "core/allocator.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace npac::core {

namespace {

/// Appends the decimal digits of `value`: the bytes `operator<<` writes,
/// without building a stream per label.
void append_decimal(std::string& out, std::int64_t value) {
  char digits[20];  // "-9223372036854775808"
  const char* end =
      std::to_chars(std::begin(digits), std::end(digits), value).ptr;
  out.append(digits, static_cast<std::size_t>(end - digits));
}

/// A Clos partition label: `per_block`, `unit`, the container count,
/// `container`, the chosen ids and a closing brace — container_label(2,
/// "ch x ", "gr@{", {0, 4, 5}) is "2ch x 3gr@{0,4,5}".
std::string container_label(std::int64_t per_block, std::string_view unit,
                            std::string_view container,
                            std::span<const std::int64_t> chosen) {
  std::string label;
  append_decimal(label, per_block);
  label += unit;
  append_decimal(label, static_cast<std::int64_t>(chosen.size()));
  label += container;
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    if (i > 0) label += ',';
    append_decimal(label, chosen[i]);
  }
  label += '}';
  return label;
}

}  // namespace

// ---------------------------------------------------------------------------
// PartitionOracle
// ---------------------------------------------------------------------------

std::shared_ptr<const std::vector<bgq::Geometry>> PartitionOracle::geometries(
    const bgq::Machine& machine, std::int64_t midplanes) const {
  return std::make_shared<const std::vector<bgq::Geometry>>(
      bgq::enumerate_geometries(machine, midplanes));
}

TopologyBisection PartitionOracle::bisection(
    const topo::TopologySpec& spec) const {
  return topology_bisection(spec);
}

const PartitionOracle& default_partition_oracle() {
  static const PartitionOracle oracle;
  return oracle;
}

// ---------------------------------------------------------------------------
// Placement / MidplaneGrid (torus-family layout)
// ---------------------------------------------------------------------------

std::int64_t Placement::midplanes() const {
  return extent[0] * extent[1] * extent[2] * extent[3];
}

bgq::Geometry Placement::geometry() const { return bgq::Geometry(extent); }

std::string Placement::to_string() const {
  // "4x2x1x1@(0,2,0,0)"
  std::string out;
  for (std::size_t i = 0; i < 4; ++i) {
    if (i > 0) out += 'x';
    append_decimal(out, extent[i]);
  }
  out += "@(";
  for (std::size_t i = 0; i < 4; ++i) {
    if (i > 0) out += ',';
    append_decimal(out, origin[i]);
  }
  out += ')';
  return out;
}

MidplaneGrid::MidplaneGrid(bgq::Machine machine)
    : machine_(std::move(machine)), dims_(machine_.shape.dims()) {
  free_ = machine_.midplanes();
  owner_.assign(static_cast<std::size_t>(free_), -1);
}

std::size_t MidplaneGrid::cell_index(
    const std::array<std::int64_t, 4>& cell) const {
  std::size_t index = 0;
  for (int i = 0; i < 4; ++i) {
    index = index * static_cast<std::size_t>(dims_[static_cast<std::size_t>(i)]) +
            static_cast<std::size_t>(cell[static_cast<std::size_t>(i)]);
  }
  return index;
}

template <typename Fn>
void MidplaneGrid::for_each_cell(const Placement& placement, Fn&& fn) const {
  std::array<std::int64_t, 4> cell{};
  for (std::int64_t a = 0; a < placement.extent[0]; ++a) {
    cell[0] = (placement.origin[0] + a) % dims_[0];
    for (std::int64_t b = 0; b < placement.extent[1]; ++b) {
      cell[1] = (placement.origin[1] + b) % dims_[1];
      for (std::int64_t c = 0; c < placement.extent[2]; ++c) {
        cell[2] = (placement.origin[2] + c) % dims_[2];
        for (std::int64_t d = 0; d < placement.extent[3]; ++d) {
          cell[3] = (placement.origin[3] + d) % dims_[3];
          fn(cell);
        }
      }
    }
  }
}

bool MidplaneGrid::fits(const Placement& placement) const {
  for (int i = 0; i < 4; ++i) {
    const auto extent = placement.extent[static_cast<std::size_t>(i)];
    const auto origin = placement.origin[static_cast<std::size_t>(i)];
    if (extent < 1 || extent > dims_[static_cast<std::size_t>(i)]) return false;
    if (origin < 0 || origin >= dims_[static_cast<std::size_t>(i)]) return false;
  }
  bool free = true;
  for_each_cell(placement, [&](const std::array<std::int64_t, 4>& cell) {
    if (owner_[cell_index(cell)] != -1) free = false;
  });
  return free;
}

void MidplaneGrid::occupy(const Placement& placement, std::int64_t job_id) {
  if (job_id < 0) {
    throw std::invalid_argument("MidplaneGrid::occupy: job id must be >= 0");
  }
  if (!fits(placement)) {
    throw std::invalid_argument(
        "MidplaneGrid::occupy: placement overlaps or is out of range");
  }
  for_each_cell(placement, [&](const std::array<std::int64_t, 4>& cell) {
    owner_[cell_index(cell)] = job_id;
  });
  free_ -= placement.midplanes();
}

std::int64_t MidplaneGrid::release(std::int64_t job_id) {
  if (job_id < 0) return 0;  // never an owner; -1 marks free cells
  std::int64_t freed = 0;
  for (auto& owner : owner_) {
    if (owner == job_id) {
      owner = -1;
      ++freed;
    }
  }
  free_ += freed;
  return freed;
}

std::optional<Placement> MidplaneGrid::find_placement(
    const bgq::Geometry& shape) const {
  // Every distinct axis assignment of the canonical shape, anchored at
  // every origin: hosts have at most 192 cells and 24 permutations.
  std::array<std::int64_t, 4> extent = shape.dims();
  std::sort(extent.begin(), extent.end());
  do {
    bool extent_fits = true;
    for (std::size_t i = 0; i < 4; ++i) {
      if (extent[i] > dims_[i]) extent_fits = false;
    }
    if (!extent_fits) continue;
    Placement placement;
    placement.extent = extent;
    for (std::int64_t a = 0; a < dims_[0]; ++a) {
      for (std::int64_t b = 0; b < dims_[1]; ++b) {
        for (std::int64_t c = 0; c < dims_[2]; ++c) {
          for (std::int64_t d = 0; d < dims_[3]; ++d) {
            placement.origin = {a, b, c, d};
            if (fits(placement)) return placement;
          }
        }
      }
    }
  } while (std::next_permutation(extent.begin(), extent.end()));
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// CuboidAllocator
// ---------------------------------------------------------------------------

CuboidAllocator::CuboidAllocator(bgq::Machine machine,
                                 const PartitionOracle& oracle)
    : oracle_(&oracle), grid_(std::move(machine)) {}

std::string CuboidAllocator::descriptor() const {
  const auto& dims = machine().shape.dims();
  const std::string id =
      topo::TopologySpec::torus({dims.begin(), dims.end()}).id();
  // Spec-built machines are named by their id already; real machines get
  // "Mira (torus:4x4x3x2)".
  if (machine().name == id) return id;
  return machine().name + " (" + id + ")";
}

std::int64_t CuboidAllocator::total_units() const {
  return machine().midplanes();
}

const std::vector<bgq::Geometry>& CuboidAllocator::geometries_for(
    std::int64_t size) const {
  const auto it = enumerations_.find(size);
  if (it != enumerations_.end()) return *it->second;
  return *enumerations_.emplace(size, oracle_->geometries(machine(), size))
              .first->second;
}

std::vector<double> CuboidAllocator::candidate_qualities(
    std::int64_t size) const {
  const auto& geometries = geometries_for(size);
  std::vector<double> qualities;
  qualities.reserve(geometries.size());
  for (const bgq::Geometry& shape : geometries) {
    qualities.push_back(
        static_cast<double>(bgq::normalized_bisection(shape)));
  }
  return qualities;
}

std::optional<Partition> CuboidAllocator::try_place(std::int64_t size,
                                                    std::size_t candidate,
                                                    std::int64_t job_id) {
  const auto& geometries = geometries_for(size);
  const bgq::Geometry& shape = geometries.at(candidate);
  const auto placement = grid_.find_placement(shape);
  if (!placement) return std::nullopt;
  grid_.occupy(*placement, job_id);
  Partition partition;
  partition.label = placement->to_string();
  partition.units = size;
  partition.quality = static_cast<double>(bgq::normalized_bisection(shape));
  partition.best_quality =
      static_cast<double>(bgq::normalized_bisection(geometries.front()));
  partition.cuboid = *placement;
  return partition;
}

std::int64_t CuboidAllocator::release(std::int64_t job_id) {
  return grid_.release(job_id);
}

// ---------------------------------------------------------------------------
// ContainerOccupancy (dragonfly groups, fat-tree pods)
// ---------------------------------------------------------------------------

ContainerOccupancy::ContainerOccupancy(std::int64_t containers,
                                       std::int64_t container_size)
    : container_size_(container_size),
      owner_(static_cast<std::size_t>(containers * container_size), -1),
      container_free_(static_cast<std::size_t>(containers), container_size),
      scratch_(static_cast<std::size_t>(containers)),
      free_units_(containers * container_size) {}

NPAC_HOT std::span<const std::int64_t> ContainerOccupancy::place(
    std::int64_t blocks, std::int64_t per_block, std::int64_t job_id) {
  // -1 marks a free unit, so a negative owner would corrupt the counts.
  if (job_id < 0) {
    throw std::invalid_argument(
        "ContainerOccupancy::place: job id must be >= 0");
  }
  const auto wanted = static_cast<std::size_t>(blocks);
  std::size_t found = 0;
  for (std::size_t c = 0; c < container_free_.size() && found < wanted; ++c) {
    if (container_free_[c] >= per_block) {
      scratch_[found++] = static_cast<std::int64_t>(c);
    }
  }
  if (found < wanted) return {};
  const std::span<const std::int64_t> chosen(scratch_.data(), found);
  for (const std::int64_t c : chosen) {
    std::int64_t taken = 0;
    const std::int64_t end = (c + 1) * container_size_;
    for (std::int64_t u = c * container_size_; taken < per_block && u < end;
         ++u) {
      auto& cell = owner_[static_cast<std::size_t>(u)];
      if (cell == -1) {
        cell = job_id;
        ++taken;
      }
    }
    container_free_[static_cast<std::size_t>(c)] -= per_block;
  }
  free_units_ -= blocks * per_block;
  return chosen;
}

std::int64_t ContainerOccupancy::release(std::int64_t job_id) {
  if (job_id < 0) return 0;  // never an owner; -1 marks free units
  std::int64_t freed = 0;
  for (std::size_t u = 0; u < owner_.size(); ++u) {
    if (owner_[u] == job_id) {
      owner_[u] = -1;
      ++container_free_[u / static_cast<std::size_t>(container_size_)];
      ++freed;
    }
  }
  free_units_ += freed;
  return freed;
}

DragonflyAllocator::DragonflyAllocator(topo::DragonflyConfig config,
                                       const PartitionOracle& oracle)
    : config_(config), oracle_(&oracle) {
  if (config_.a < 1 || config_.h < 1 || config_.groups < 1) {
    throw std::invalid_argument(
        "DragonflyAllocator: a, h and groups must be >= 1");
  }
  occupancy_ = ContainerOccupancy(config_.groups, config_.h);
}

std::string DragonflyAllocator::descriptor() const {
  return topo::TopologySpec::dragonfly(config_).id();
}

std::int64_t DragonflyAllocator::total_units() const {
  return config_.h * config_.groups;
}

const std::vector<DragonflyAllocator::Layout>& DragonflyAllocator::layouts_for(
    std::int64_t size) const {
  const auto it = layouts_.find(size);
  if (it != layouts_.end()) return it->second;

  std::vector<Layout> layouts;
  if (size >= 1 && size <= total_units()) {
    for (std::int64_t g = 1; g <= config_.groups; ++g) {
      if (size % g != 0) continue;
      const std::int64_t c = size / g;
      if (c > config_.h) continue;
      topo::TopologySpec slice;
      if (g == 1) {
        // One group: c chassis induce exactly the Hamming graph K_a x K_c
        // (green K_h links restricted to the chosen columns).
        slice = c == 1 ? topo::TopologySpec::hamming({config_.a},
                                                     {config_.cap_a})
                       : topo::TopologySpec::hamming(
                             {config_.a, c}, {config_.cap_a, config_.cap_h});
      } else {
        // Spread slice: scored as the canonical g-group sub-dragonfly of
        // the same shape (see DESIGN.md decision #11). The all-pairs
        // global arrangement needs a port budget of g - 1 per group.
        if (g - 1 > config_.a * c * config_.global_ports) continue;
        topo::DragonflyConfig sub = config_;
        sub.h = c;
        sub.groups = g;
        slice = topo::TopologySpec::dragonfly(sub);
      }
      Layout layout;
      layout.groups = g;
      layout.chassis_per_group = c;
      layout.quality = oracle_->bisection(slice).value;
      layouts.push_back(layout);
    }
    // Best quality first; stable keeps the compact (fewest groups) layout
    // ahead on ties, so scan order is deterministic.
    std::stable_sort(layouts.begin(), layouts.end(),
                     [](const Layout& a, const Layout& b) {
                       return a.quality > b.quality;
                     });
  }
  return layouts_.emplace(size, std::move(layouts)).first->second;
}

std::vector<double> DragonflyAllocator::candidate_qualities(
    std::int64_t size) const {
  const auto& layouts = layouts_for(size);
  std::vector<double> qualities;
  qualities.reserve(layouts.size());
  for (const Layout& layout : layouts) qualities.push_back(layout.quality);
  return qualities;
}

std::optional<Partition> DragonflyAllocator::try_place(std::int64_t size,
                                                       std::size_t candidate,
                                                       std::int64_t job_id) {
  const auto& layouts = layouts_for(size);
  const Layout& layout = layouts.at(candidate);
  const auto groups =
      occupancy_.place(layout.groups, layout.chassis_per_group, job_id);
  if (groups.empty()) return std::nullopt;
  Partition partition;
  partition.label =
      container_label(layout.chassis_per_group, "ch x ", "gr@{", groups);
  partition.units = size;
  partition.quality = layout.quality;
  partition.best_quality = layouts.front().quality;
  return partition;
}

std::int64_t DragonflyAllocator::release(std::int64_t job_id) {
  return occupancy_.release(job_id);
}

// ---------------------------------------------------------------------------
// FatTreeAllocator
// ---------------------------------------------------------------------------

FatTreeAllocator::FatTreeAllocator(topo::FatTreeConfig config)
    : config_(config) {
  if (config_.k < 2 || config_.k % 2 != 0) {
    throw std::invalid_argument("FatTreeAllocator: k must be even >= 2");
  }
  occupancy_ = ContainerOccupancy(config_.k, config_.k / 2);
}

std::string FatTreeAllocator::descriptor() const {
  return topo::TopologySpec::fat_tree(config_.k, config_.link_capacity).id();
}

std::int64_t FatTreeAllocator::total_units() const {
  return config_.k * (config_.k / 2);  // k pods x k/2 edge subtrees
}

const std::vector<std::int64_t>& FatTreeAllocator::pods_for(
    std::int64_t size) const {
  const auto it = pods_.find(size);
  if (it != pods_.end()) return it->second;
  std::vector<std::int64_t> pods;
  if (size >= 1 && size <= total_units()) {
    for (std::int64_t p = 1; p <= config_.k; ++p) {
      if (size % p != 0) continue;
      if (size / p > config_.k / 2) continue;
      pods.push_back(p);
    }
  }
  return pods_.emplace(size, std::move(pods)).first->second;
}

std::vector<double> FatTreeAllocator::candidate_qualities(
    std::int64_t size) const {
  return std::vector<double>(pods_for(size).size(), block_quality(size));
}

double FatTreeAllocator::block_quality(std::int64_t size) const {
  // Non-blocking Clos: the host bisection of any s-subtree block is
  // hosts / 2 * capacity regardless of how it spreads over pods — the
  // flatness Section 5 predicts for fat-tree machines.
  return static_cast<double>(size * (config_.k / 2)) / 2.0 *
         config_.link_capacity;
}

std::optional<Partition> FatTreeAllocator::try_place(std::int64_t size,
                                                     std::size_t candidate,
                                                     std::int64_t job_id) {
  const std::int64_t p = pods_for(size).at(candidate);
  const std::int64_t per_pod = size / p;
  const auto pods = occupancy_.place(p, per_pod, job_id);
  if (pods.empty()) return std::nullopt;
  const double quality = block_quality(size);
  Partition partition;
  partition.label = container_label(per_pod, "st x ", "pod@{", pods);
  partition.units = size;
  partition.quality = quality;
  partition.best_quality = quality;
  return partition;
}

std::int64_t FatTreeAllocator::release(std::int64_t job_id) {
  return occupancy_.release(job_id);
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

std::unique_ptr<PartitionAllocator> make_allocator(
    const bgq::Machine& machine, const PartitionOracle& oracle) {
  return std::make_unique<CuboidAllocator>(machine, oracle);
}

std::unique_ptr<PartitionAllocator> make_allocator(
    const topo::TopologySpec& spec, const PartitionOracle& oracle) {
  using Kind = topo::TopologySpec::Kind;
  switch (spec.kind()) {
    case Kind::kTorus: {
      if (spec.dims().size() != 4) {
        throw std::invalid_argument(
            "make_allocator: torus scheduling machines must be 4-D midplane "
            "grids, got " +
            spec.id());
      }
      if (spec.capacities().size() > 1) {
        // CuboidAllocator scores layouts with the unit-capacity closed form
        // (bgq::normalized_bisection); silently ignoring per-dimension
        // capacities would rank weighted-torus layouts wrongly.
        throw std::invalid_argument(
            "make_allocator: weighted tori have no capacity-aware cuboid "
            "allocation model yet, got " +
            spec.id());
      }
      const auto& d = spec.dims();
      return std::make_unique<CuboidAllocator>(
          bgq::Machine{spec.id(), bgq::Geometry(d[0], d[1], d[2], d[3])},
          oracle);
    }
    case Kind::kDragonfly:
      return std::make_unique<DragonflyAllocator>(spec.dragonfly_config(),
                                                  oracle);
    case Kind::kFatTree:
      return std::make_unique<FatTreeAllocator>(
          topo::FatTreeConfig{spec.dims()[0], spec.capacities()[0]});
    default:
      throw std::invalid_argument(
          "make_allocator: no allocation model for family " + spec.family());
  }
}

std::vector<std::int64_t> feasible_unit_sizes(
    const PartitionAllocator& allocator) {
  std::vector<std::int64_t> sizes;
  for (std::int64_t size = 1; size <= allocator.total_units(); ++size) {
    if (!allocator.candidate_qualities(size).empty()) sizes.push_back(size);
  }
  return sizes;
}

}  // namespace npac::core
