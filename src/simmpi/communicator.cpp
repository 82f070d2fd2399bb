#include "simmpi/communicator.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>

namespace npac::simmpi {

double Timeline::total_seconds() const {
  double total = 0.0;
  for (const PhaseRecord& record : records_) total += record.seconds;
  return total;
}

Communicator::Communicator(const simnet::Network* network, RankMap map)
    : network_(network), map_(std::move(map)) {
  if (network_ == nullptr) {
    throw std::invalid_argument("Communicator: network must not be null");
  }
  if (map_.num_nodes() != network_->num_nodes()) {
    throw std::invalid_argument(
        "Communicator: rank map node count must match the network");
  }
}

double Communicator::run_phase(const std::string& label,
                               const std::vector<simnet::Flow>& flows,
                               Timeline& timeline) const {
  const simnet::LinkLoads loads = network_->route_all(flows);
  PhaseRecord record;
  record.label = label;
  record.seconds = network_->completion_seconds(loads, flows);
  record.max_channel_bytes = loads.max_load();
  for (const simnet::Flow& flow : flows) {
    if (flow.src != flow.dst) record.total_bytes += flow.bytes;
  }
  const double seconds = record.seconds;
  timeline.add(std::move(record));
  return seconds;
}

std::vector<simnet::Flow> Communicator::alltoall_in_groups(
    std::int64_t group_size, double bytes_per_rank) const {
  const std::int64_t ranks = map_.num_ranks();
  if (group_size < 1 || ranks % group_size != 0) {
    throw std::invalid_argument(
        "alltoall_in_groups: group size must divide the rank count");
  }
  if (group_size == 1) return {};
  const double per_peer = bytes_per_rank / static_cast<double>(group_size - 1);

  // Mapping-agnostic: collect how many of each group's ranks each node
  // hosts (ranks of one node are contiguous, so walk a group in node-sized
  // chunks), then emit one flow per ordered node pair of the group. The
  // chunks of every group are collected first so the flow vector is sized
  // exactly: sum over groups of m(m - 1) for a group spanning m nodes.
  std::vector<std::pair<topo::VertexId, std::int64_t>> counts;
  std::vector<std::size_t> group_ends;
  group_ends.reserve(static_cast<std::size_t>(ranks / group_size));
  std::size_t num_flows = 0;
  for (std::int64_t group_first = 0; group_first < ranks;
       group_first += group_size) {
    const std::int64_t group_last = group_first + group_size - 1;
    const std::size_t group_begin = counts.size();
    std::int64_t rank = group_first;
    while (rank <= group_last) {
      const topo::VertexId node = map_.node_of(rank);
      const std::int64_t node_last =
          map_.first_rank_on(node) + map_.ranks_on(node) - 1;
      const std::int64_t chunk_last = std::min(group_last, node_last);
      counts.emplace_back(node, chunk_last - rank + 1);
      rank = chunk_last + 1;
    }
    const std::size_t m = counts.size() - group_begin;
    num_flows += m * (m - 1);
    group_ends.push_back(counts.size());
  }

  std::vector<simnet::Flow> flows;
  flows.reserve(num_flows);
  std::size_t group_begin = 0;
  for (const std::size_t group_end : group_ends) {
    const std::span<const std::pair<topo::VertexId, std::int64_t>> group(
        counts.data() + group_begin, group_end - group_begin);
    for (const auto& [a, ca] : group) {
      for (const auto& [b, cb] : group) {
        if (a == b) continue;  // intra-node exchange is free
        flows.push_back(
            {a, b, per_peer * static_cast<double>(ca) *
                       static_cast<double>(cb)});
      }
    }
    group_begin = group_end;
  }
  return flows;
}

std::vector<simnet::Flow> Communicator::rank_messages(
    const std::vector<RankMessage>& messages) const {
  std::map<std::pair<topo::VertexId, topo::VertexId>, double> aggregated;
  for (const RankMessage& message : messages) {
    const topo::VertexId src = map_.node_of(message.src);
    const topo::VertexId dst = map_.node_of(message.dst);
    if (src == dst) continue;
    aggregated[{src, dst}] += message.bytes;
  }
  std::vector<simnet::Flow> flows;
  flows.reserve(aggregated.size());
  for (const auto& [key, bytes] : aggregated) {
    flows.push_back({key.first, key.second, bytes});
  }
  return flows;
}

std::vector<std::vector<simnet::Flow>> Communicator::broadcast_phases(
    double bytes) const {
  const std::int64_t p = map_.num_ranks();
  std::vector<std::vector<simnet::Flow>> phases;
  for (std::int64_t stride = 1; stride < p; stride *= 2) {
    std::vector<RankMessage> messages;
    for (std::int64_t r = 0; r < stride && r + stride < p; ++r) {
      messages.push_back({r, r + stride, bytes});
    }
    phases.push_back(rank_messages(messages));
  }
  return phases;
}

std::vector<std::vector<simnet::Flow>> Communicator::allreduce_phases(
    double bytes) const {
  const std::int64_t p = map_.num_ranks();
  std::int64_t p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  std::vector<std::vector<simnet::Flow>> phases;

  // Fold-in: ranks >= p2 send their contribution to rank - p2.
  if (p2 < p) {
    std::vector<RankMessage> messages;
    for (std::int64_t r = p2; r < p; ++r) {
      messages.push_back({r, r - p2, bytes});
    }
    phases.push_back(rank_messages(messages));
  }
  // Recursive doubling among the first p2 ranks.
  for (std::int64_t stride = 1; stride < p2; stride *= 2) {
    std::vector<RankMessage> messages;
    for (std::int64_t r = 0; r < p2; ++r) {
      messages.push_back({r, r ^ stride, bytes});
    }
    phases.push_back(rank_messages(messages));
  }
  // Fold-out: results returned to ranks >= p2.
  if (p2 < p) {
    std::vector<RankMessage> messages;
    for (std::int64_t r = p2; r < p; ++r) {
      messages.push_back({r - p2, r, bytes});
    }
    phases.push_back(rank_messages(messages));
  }
  return phases;
}

std::vector<std::vector<simnet::Flow>> Communicator::scatter_phases(
    double bytes) const {
  const std::int64_t p = map_.num_ranks();
  std::vector<std::vector<simnet::Flow>> phases;
  // Largest power of two covering p.
  std::int64_t stride = 1;
  while (stride < p) stride *= 2;
  for (stride /= 2; stride >= 1; stride /= 2) {
    std::vector<RankMessage> messages;
    for (std::int64_t r = 0; r < p; r += 2 * stride) {
      const std::int64_t peer = r + stride;
      if (peer >= p) continue;
      // r forwards the chunks of peer's whole subtree [peer, peer+stride).
      const std::int64_t subtree =
          std::min<std::int64_t>(stride, p - peer);
      messages.push_back({r, peer, bytes * static_cast<double>(subtree)});
    }
    phases.push_back(rank_messages(messages));
  }
  return phases;
}

std::vector<std::vector<simnet::Flow>> Communicator::gather_phases(
    double bytes) const {
  auto phases = scatter_phases(bytes);
  std::reverse(phases.begin(), phases.end());
  for (auto& phase : phases) {
    for (simnet::Flow& flow : phase) std::swap(flow.src, flow.dst);
  }
  return phases;
}

std::vector<std::vector<simnet::Flow>> Communicator::reduce_scatter_phases(
    double bytes) const {
  const std::int64_t p = map_.num_ranks();
  if ((p & (p - 1)) != 0) {
    throw std::invalid_argument(
        "reduce_scatter_phases: rank count must be a power of two");
  }
  std::vector<std::vector<simnet::Flow>> phases;
  double payload = bytes / 2.0;
  for (std::int64_t stride = p / 2; stride >= 1; stride /= 2) {
    std::vector<RankMessage> messages;
    for (std::int64_t r = 0; r < p; ++r) {
      messages.push_back({r, r ^ stride, payload});
    }
    phases.push_back(rank_messages(messages));
    payload /= 2.0;
  }
  return phases;
}

std::vector<std::vector<simnet::Flow>> Communicator::pairwise_alltoall_phases(
    double bytes_per_peer) const {
  const std::int64_t p = map_.num_ranks();
  std::vector<std::vector<simnet::Flow>> phases;
  for (std::int64_t k = 1; k < p; ++k) {
    std::vector<RankMessage> messages;
    for (std::int64_t r = 0; r < p; ++r) {
      messages.push_back({r, (r + k) % p, bytes_per_peer});
    }
    phases.push_back(rank_messages(messages));
  }
  return phases;
}

std::vector<std::vector<simnet::Flow>> Communicator::ring_allgather_phases(
    double bytes) const {
  const std::int64_t p = map_.num_ranks();
  std::vector<std::vector<simnet::Flow>> phases;
  if (p < 2) return phases;
  std::vector<RankMessage> messages;
  for (std::int64_t r = 0; r < p; ++r) {
    messages.push_back({r, (r + 1) % p, bytes});
  }
  const auto flows = rank_messages(messages);
  for (std::int64_t step = 0; step + 1 < p; ++step) {
    phases.push_back(flows);
  }
  return phases;
}

}  // namespace npac::simmpi
