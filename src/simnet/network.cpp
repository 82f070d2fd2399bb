#include "simnet/network.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/metrics.hpp"
#include "simnet/traffic.hpp"
#include "support/hot.hpp"

namespace npac::simnet {

LinkLoads::LinkLoads(std::size_t num_channels) : loads_(num_channels, 0.0) {}

LinkLoads::LinkLoads(std::int64_t num_nodes, std::size_t num_dims)
    : num_nodes_(num_nodes),
      num_dims_(num_dims),
      loads_(static_cast<std::size_t>(num_nodes) * num_dims * 2, 0.0) {}

void LinkLoads::require_torus_shape() const {
  if (!torus_shaped()) {
    throw std::logic_error(
        "LinkLoads: (node, dim, direction) accessors require a torus-shaped "
        "channel layout");
  }
}

std::size_t LinkLoads::channel_index(topo::VertexId node, std::size_t dim,
                                     int direction) const {
  require_torus_shape();
  return (static_cast<std::size_t>(node) * num_dims_ + dim) * 2 +
         static_cast<std::size_t>(direction);
}

double& LinkLoads::at(topo::VertexId node, std::size_t dim, int direction) {
  return loads_[channel_index(node, dim, direction)];
}

double LinkLoads::at(topo::VertexId node, std::size_t dim,
                     int direction) const {
  return loads_[channel_index(node, dim, direction)];
}

double LinkLoads::max_load() const {
  double best = 0.0;
  for (const double load : loads_) best = std::max(best, load);
  return best;
}

double LinkLoads::total_load() const {
  double sum = 0.0;
  for (const double load : loads_) sum += load;
  return sum;
}

double LinkLoads::max_load_in_dim(std::size_t dim) const {
  require_torus_shape();
  double best = 0.0;
  for (topo::VertexId node = 0; node < num_nodes_; ++node) {
    best = std::max(best, at(node, dim, 0));
    best = std::max(best, at(node, dim, 1));
  }
  return best;
}

// ---------------------------------------------------------------------------
// Network (shared completion-time model)
// ---------------------------------------------------------------------------

Network::Network(NetworkOptions options) : options_(options) {
  if (options_.link_bytes_per_second <= 0.0) {
    throw std::invalid_argument("Network: link bandwidth must be positive");
  }
}

LinkLoads Network::make_loads() const { return LinkLoads(num_channels()); }

LinkLoads Network::route_all(std::span<const Flow> flows) const {
  LinkLoads total = make_loads();
  for (const Flow& flow : flows) route_flow(flow, total);
  return total;
}

double Network::channel_seconds(const LinkLoads& loads) const {
  return loads.max_load() / options_.link_bytes_per_second;
}

double Network::completion_seconds(const LinkLoads& loads,
                                   std::span<const Flow> flows) const {
  double time = channel_seconds(loads);
  if (options_.injection_bytes_per_second > 0.0) {
    std::vector<double> injected(static_cast<std::size_t>(num_nodes()), 0.0);
    std::vector<double> ejected(static_cast<std::size_t>(num_nodes()), 0.0);
    for (const Flow& flow : flows) {
      if (flow.src == flow.dst) continue;
      injected[static_cast<std::size_t>(flow.src)] += flow.bytes;
      ejected[static_cast<std::size_t>(flow.dst)] += flow.bytes;
    }
    double peak = 0.0;
    for (std::size_t i = 0; i < injected.size(); ++i) {
      peak = std::max({peak, injected[i], ejected[i]});
    }
    time = std::max(time, peak / options_.injection_bytes_per_second);
  }
  return time;
}

double Network::completion_seconds(std::span<const Flow> flows) const {
  return completion_seconds(route_all(flows), flows);
}

// ---------------------------------------------------------------------------
// TorusNetwork
// ---------------------------------------------------------------------------

TorusNetwork::TorusNetwork(topo::Torus torus, NetworkOptions options)
    : TorusNetwork(
          topo::Torus(torus),
          std::vector<double>(torus.num_dims(), torus.link_capacity()),
          options) {}

TorusNetwork::TorusNetwork(topo::Torus torus,
                           std::vector<double> dim_capacities,
                           NetworkOptions options)
    : Network(options),
      torus_(std::move(torus)),
      capacities_(std::move(dim_capacities)) {
  if (capacities_.size() != torus_.num_dims()) {
    throw std::invalid_argument(
        "TorusNetwork: capacity count must match dimension count");
  }
  for (const double c : capacities_) {
    if (c <= 0.0) {
      throw std::invalid_argument("TorusNetwork: capacities must be positive");
    }
    if (c != 1.0) unit_capacities_ = false;
  }
  // Mixed-radix strides (dimension 0 varies fastest) and the coordinate
  // table: coordinate i of vertex v is (v / stride_i) mod dims_i, i.e.
  // runs of stride_i equal values cycling through 0 .. dims_i - 1.
  const std::size_t d = torus_.num_dims();
  const topo::Dims& dims = torus_.dims();
  strides_.resize(d);
  std::int64_t stride = 1;
  for (std::size_t i = 0; i < d; ++i) {
    if (dims[i] > std::numeric_limits<std::int32_t>::max()) {
      throw std::invalid_argument("TorusNetwork: dimension too long");
    }
    strides_[i] = stride;
    stride *= dims[i];
  }
  coords_.resize(static_cast<std::size_t>(torus_.num_vertices()) * d);
  for (std::size_t i = 0; i < d; ++i) {
    std::int32_t coord = 0;
    std::int64_t run = 0;
    for (std::size_t at = i; at < coords_.size(); at += d) {
      coords_[at] = coord;
      if (++run == strides_[i]) {
        run = 0;
        if (++coord == dims[i]) coord = 0;
      }
    }
  }
}

double TorusNetwork::channel_seconds(const LinkLoads& loads) const {
  if (unit_capacities_) return Network::channel_seconds(loads);
  double worst = 0.0;
  for (std::size_t dim = 0; dim < torus_.num_dims(); ++dim) {
    worst = std::max(worst, loads.max_load_in_dim(dim) / capacities_[dim]);
  }
  return worst / options().link_bytes_per_second;
}

std::size_t TorusNetwork::num_channels() const {
  return static_cast<std::size_t>(torus_.num_vertices()) * torus_.num_dims() *
         2;
}

LinkLoads TorusNetwork::make_loads() const {
  return LinkLoads(torus_.num_vertices(), torus_.num_dims());
}

void TorusNetwork::check_flow(const Flow& flow) const {
  if (flow.bytes < 0.0) {
    throw std::invalid_argument("route_flow: negative byte count");
  }
  const std::int64_t n = torus_.num_vertices();
  if (flow.src < 0 || flow.src >= n || flow.dst < 0 || flow.dst >= n) {
    throw std::out_of_range("route_flow: vertex out of range");
  }
}

/// Routes dimension `dim`'s segment of one validated flow. Dimension order
/// puts the segment's start at the destination's coordinates below `dim`
/// and the source's from `dim` up; coordinates come from the table, so the
/// walk divides nothing. A walk is shorter than its ring, so it charges
/// each channel at most once: accumulating dimension by dimension adds the
/// same weights to each channel in the same flow order as flow by flow.
/// NPAC_HOT: allocation-free by contract (npaclint rule H1).
NPAC_HOT void TorusNetwork::route_segment(std::size_t dim, const Flow& flow,
                                          double* loads,
                                          std::size_t pitch) const {
  const std::size_t num_dims = torus_.num_dims();
  const std::int32_t* const src = coords_.data() + flow.src * num_dims;
  const std::int32_t* const dst = coords_.data() + flow.dst * num_dims;
  const std::int64_t from = src[dim];
  const std::int64_t target = dst[dim];
  if (from == target || flow.bytes == 0.0) return;

  std::int64_t node = flow.src;
  for (std::size_t i = 0; i < dim; ++i) {
    node += (dst[i] - src[i]) * strides_[i];
  }
  const std::int64_t a = torus_.dims()[dim];
  const std::int64_t stride = strides_[dim];
  const std::int64_t forward =
      target > from ? target - from : target - from + a;
  const std::int64_t backward = a - forward;

  // Walks `hops` channels from the segment's start: up to the ring's end
  // (coordinate a - 1 going +, 0 going −), then on from the other end.
  const auto walk = [&](int direction, std::int64_t hops, double weight) {
    const std::int64_t step = direction == 0 ? stride : -stride;
    const std::int64_t before_wrap =
        std::min(hops, direction == 0 ? a - from : from + 1);
    std::int64_t cursor = node;
    for (std::int64_t i = 0; i < hops; ++i, cursor += step) {
      if (i == before_wrap) cursor -= a * step;
      loads[static_cast<std::size_t>(cursor) * pitch +
            static_cast<std::size_t>(direction)] += weight;
    }
  };

  if (a == 2) {
    // The two directions name the same physical link; charge the
    // sender-side + channel.
    walk(0, 1, flow.bytes);
  } else if (forward < backward) {
    walk(0, forward, flow.bytes);
  } else if (backward < forward) {
    walk(1, backward, flow.bytes);
  } else if (options().tie_break == TieBreak::kSplit) {
    // Antipodal tie.
    walk(0, forward, flow.bytes / 2.0);
    walk(1, backward, flow.bytes / 2.0);
  } else {
    walk(0, forward, flow.bytes);
  }
}

void TorusNetwork::route_flow(const Flow& flow, LinkLoads& loads) const {
  check_flow(flow);
  const std::size_t d = torus_.num_dims();
  for (std::size_t dim = 0; dim < d; ++dim) {
    route_segment(dim, flow, loads.raw().data() + 2 * dim, 2 * d);
  }
}

LinkLoads TorusNetwork::route_all(std::span<const Flow> flows) const {
  // Every flow is checked before any thread starts, so an invalid one
  // throws here instead of escaping the parallel region.
  for (const Flow& flow : flows) check_flow(flow);

  const std::size_t n = static_cast<std::size_t>(torus_.num_vertices());
  const std::size_t d = torus_.num_dims();
  LinkLoads total(torus_.num_vertices(), d);

  if (obs::Registry* const registry = obs::Registry::current()) {
    registry->counter("net.torus.route_all").add(1);
    registry->counter("net.torus.flows").add(flows.size());
  }
  std::optional<obs::ScopedTimer> span;
  if (obs::tracing_enabled()) {
    span.emplace("torus.route_all flows=" + std::to_string(flows.size()),
                 "net");
  }

  // One task per dimension, each over every flow in order. Serially the
  // tasks write the interleaved layout in place; in parallel each writes
  // its own contiguous slice (no cache line shared between tasks), copied
  // into the interleaved layout afterwards. Either way every channel sums
  // the same weights in the same order, so the bits never depend on the
  // thread count.
#ifdef _OPENMP
  const int threads = std::min(omp_get_max_threads(), static_cast<int>(d));
#else
  const int threads = 1;
#endif
  const bool parallel = threads > 1 && flows.size() >= 1024;
  std::vector<double> slices(parallel ? n * d * 2 : 0, 0.0);
  double* const base = parallel ? slices.data() : total.raw().data();
  const std::size_t pitch = parallel ? 2 : 2 * d;
  const std::size_t dim_offset = parallel ? 2 * n : 2;

  // The region's barriers are the real synchronization, but explicit
  // release/acquire edges make both hand-offs visible to the C++ memory
  // model (and to TSan, which cannot see libgomp's barriers): the store
  // publishes the zeroed slices to every task's acquire load, and each
  // task's release fetch_add publishes its slice to the final acquire.
  std::atomic<std::size_t> finished;
  finished.store(0, std::memory_order_release);
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads) if (parallel)
#endif
  for (std::ptrdiff_t dim = 0; dim < static_cast<std::ptrdiff_t>(d); ++dim) {
    const auto k = static_cast<std::size_t>(dim);
    if (torus_.dims()[k] == 1) continue;  // no channels
    (void)finished.load(std::memory_order_acquire);
    double* const loads = base + k * dim_offset;
    for (const Flow& flow : flows) route_segment(k, flow, loads, pitch);
    finished.fetch_add(1, std::memory_order_release);
  }
  (void)finished.load(std::memory_order_acquire);

  if (parallel) {
    double* const out = total.raw().data();
    for (std::size_t dim = 0; dim < d; ++dim) {
      const double* const slice = slices.data() + dim * 2 * n;
      for (std::size_t node = 0; node < n; ++node) {
        out[(node * d + dim) * 2] = slice[node * 2];
        out[(node * d + dim) * 2 + 1] = slice[node * 2 + 1];
      }
    }
  }
  return total;
}

std::int64_t TorusNetwork::path_hops(const Flow& flow) const {
  return torus_.distance(torus_.coord_of(flow.src), torus_.coord_of(flow.dst));
}

std::vector<Flow> TorusNetwork::halo_flows(double bytes) const {
  return nearest_neighbor_halo(torus_, bytes);
}

}  // namespace npac::simnet
