// Timing forwarders over the library's public seams.
//
// Each forwarder implements a library interface by delegating every call
// to the object it wraps, unchanged, and opens a tracer Span around the
// calls that belong to a measured layer. The library never sees the
// benchmark: a scheduler, communicator or ping-pong routine handed a
// forwarder does exactly what it would do with the wrapped object
// (perfbench_test pins schedule digests, StreamStats and LinkLoads bitwise
// with and without the forwarders).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "core/scheduler_stream.hpp"
#include "simnet/network.hpp"

namespace perfbench {

/// core::PartitionAllocator forwarder: try_place, release and
/// candidate_qualities are the core.alloc.* layers.
class TimedAllocator final : public npac::core::PartitionAllocator {
 public:
  explicit TimedAllocator(
      std::unique_ptr<npac::core::PartitionAllocator> inner);

  npac::core::PartitionAllocator& inner() { return *inner_; }

  std::string descriptor() const override { return inner_->descriptor(); }
  std::string family() const override { return inner_->family(); }
  std::int64_t total_units() const override { return inner_->total_units(); }
  std::int64_t free_units() const override { return inner_->free_units(); }
  std::vector<double> candidate_qualities(std::int64_t size) const override;
  std::optional<npac::core::Partition> try_place(std::int64_t size,
                                                 std::size_t candidate,
                                                 std::int64_t job_id) override;
  std::int64_t release(std::int64_t job_id) override;

 private:
  std::unique_ptr<npac::core::PartitionAllocator> inner_;
};

/// core::PartitionOracle forwarder: the sweep.cache.oracle layer (layout
/// lookups answered by a SweepContext's memo caches).
class TimedOracle final : public npac::core::PartitionOracle {
 public:
  /// `inner` must outlive the forwarder.
  explicit TimedOracle(const npac::core::PartitionOracle& inner)
      : inner_(&inner) {}

  std::shared_ptr<const std::vector<npac::bgq::Geometry>> geometries(
      const npac::bgq::Machine& machine,
      std::int64_t midplanes) const override;
  npac::core::TopologyBisection bisection(
      const npac::topo::TopologySpec& spec) const override;

 private:
  const npac::core::PartitionOracle* inner_;
};

/// core::JobSource forwarder: the sweep.trace.next layer. Counts the jobs
/// it hands out so the output check can match emitted against sourced.
class TimedJobSource final : public npac::core::JobSource {
 public:
  /// `inner` must outlive the forwarder.
  explicit TimedJobSource(npac::core::JobSource& inner) : inner_(&inner) {}

  std::optional<npac::core::Job> next() override;
  std::uint64_t sourced() const { return sourced_; }

 private:
  npac::core::JobSource* inner_;
  std::uint64_t sourced_ = 0;
};

/// simnet::Network forwarder: route_all is the simnet.route_all layer and
/// channel_seconds (the max-congestion drain time behind every
/// completion_seconds call) is simnet.completion. Counts the flows it
/// routes. Not thread-safe: one caller at a time, as the workload's points
/// run one at a time.
class TimedNetwork final : public npac::simnet::Network {
 public:
  /// `inner` must outlive the forwarder.
  explicit TimedNetwork(const npac::simnet::Network& inner);

  std::int64_t num_nodes() const override { return inner_->num_nodes(); }
  std::size_t num_channels() const override { return inner_->num_channels(); }
  npac::simnet::LinkLoads make_loads() const override {
    return inner_->make_loads();
  }
  void route_flow(const npac::simnet::Flow& flow,
                  npac::simnet::LinkLoads& loads) const override {
    inner_->route_flow(flow, loads);
  }
  npac::simnet::LinkLoads route_all(
      std::span<const npac::simnet::Flow> flows) const override;
  std::int64_t path_hops(const npac::simnet::Flow& flow) const override {
    return inner_->path_hops(flow);
  }
  std::vector<npac::simnet::Flow> halo_flows(double bytes) const override {
    return inner_->halo_flows(bytes);
  }

  /// Flows routed since the last call.
  std::uint64_t take_routed_flows() {
    return std::exchange(routed_flows_, 0);
  }

 protected:
  /// The wrapped network's own drain time: completion_seconds over an
  /// empty flow list is exactly channel_seconds (the injection floor only
  /// adds per-flow terms, and this forwarder's base class adds those).
  double channel_seconds(const npac::simnet::LinkLoads& loads) const override;

 private:
  const npac::simnet::Network* inner_;
  mutable std::uint64_t routed_flows_ = 0;
};

}  // namespace perfbench
