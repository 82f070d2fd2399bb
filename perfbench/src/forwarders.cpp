#include "forwarders.hpp"

#include <utility>

#include "tracer.hpp"

namespace perfbench {

using namespace npac;

TimedAllocator::TimedAllocator(std::unique_ptr<core::PartitionAllocator> inner)
    : inner_(std::move(inner)) {}

std::vector<double> TimedAllocator::candidate_qualities(
    std::int64_t size) const {
  const Span span(Layer::kQualities);
  return inner_->candidate_qualities(size);
}

std::optional<core::Partition> TimedAllocator::try_place(
    std::int64_t size, std::size_t candidate, std::int64_t job_id) {
  const Span span(Layer::kTryPlace);
  std::optional<core::Partition> partition =
      inner_->try_place(size, candidate, job_id);
  if (!partition) count(Counter::kTryPlaceFails, 1);
  return partition;
}

std::int64_t TimedAllocator::release(std::int64_t job_id) {
  const Span span(Layer::kRelease);
  return inner_->release(job_id);
}

std::shared_ptr<const std::vector<bgq::Geometry>> TimedOracle::geometries(
    const bgq::Machine& machine, std::int64_t midplanes) const {
  const Span span(Layer::kOracle);
  return inner_->geometries(machine, midplanes);
}

core::TopologyBisection TimedOracle::bisection(
    const topo::TopologySpec& spec) const {
  const Span span(Layer::kOracle);
  return inner_->bisection(spec);
}

std::optional<core::Job> TimedJobSource::next() {
  const Span span(Layer::kNext);
  std::optional<core::Job> job = inner_->next();
  if (job) ++sourced_;
  return job;
}

TimedNetwork::TimedNetwork(const simnet::Network& inner)
    : simnet::Network(inner.options()), inner_(&inner) {}

simnet::LinkLoads TimedNetwork::route_all(
    std::span<const simnet::Flow> flows) const {
  const Span span(Layer::kRouteAll);
  routed_flows_ += flows.size();
  return inner_->route_all(flows);
}

double TimedNetwork::channel_seconds(const simnet::LinkLoads& loads) const {
  const Span span(Layer::kCompletion);
  return inner_->completion_seconds(loads, {});
}

}  // namespace perfbench
