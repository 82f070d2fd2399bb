// contention_sim: the paper's simulated experiments with the scheduler
// idle, as a catalogue of experiment points run one at a time.
//
//  * Experiment A: furthest-node ping-pong on the current vs proposed Mira
//    geometries (Table 1) and the worst vs best JUQUEEN geometries; the
//    measured speedup must equal the bisection-ratio prediction.
//  * Experiments B and C: simulated CAPS Strassen communication on Mira
//    partitions (current and proposed geometries).
//  * Pairing and all-to-all routing on dragonfly and fat-tree
//    GraphNetworks, with the topology's bisection alongside.
//
// The seed shuffles the order of the points and gives each catalogue point
// a volume scale 2^k. The fluid model is linear in bytes, so a power-of-two
// scale scales every result exactly: each point is checked against its
// golden unit-scale value times its scale, for every seed. Every seed runs
// the same points the same number of times, so a round's work does not
// depend on the seed.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "bgq/machine.hpp"
#include "bgq/policy.hpp"
#include "core/advisor.hpp"
#include "core/experiments.hpp"
#include "forwarders.hpp"
#include "golden.hpp"
#include "simmpi/communicator.hpp"
#include "simnet/graph_network.hpp"
#include "simnet/pingpong.hpp"
#include "simnet/traffic.hpp"
#include "strassen/caps.hpp"
#include "sweep/pool.hpp"
#include "sweep/trace.hpp"
#include "topo/descriptor.hpp"
#include "tracer.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace npac;
using Clock = std::chrono::steady_clock;

/// Times a catalogue point runs per round, by cost class. The weights put
/// the case-time p50 inside the ~6 ms cluster (CAPS on 343 ranks, the
/// k=12 fat-tree all-to-all, the spectral dragonfly bisection) and the p90
/// inside the cluster of one ~16 ms CAPS point, never on the gap between
/// two clusters, where run-to-run noise would move it most.
constexpr int kCheapRepeats = 3;   // under ~3 ms
constexpr int kMiddleRepeats = 5;  // ~6 ms
constexpr int kTailRepeats = 20;   // the ~16 ms CAPS point
/// Volume scale exponents are drawn from [-kMaxScale, kMaxScale].
constexpr int kMaxScale = 3;

std::string format_exact(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// A partition network: the library backend plus its timing forwarder.
struct PartitionNet {
  std::unique_ptr<simnet::Network> network;
  std::unique_ptr<TimedNetwork> timed;
};

PartitionNet torus_net(const bgq::Geometry& geometry) {
  const Span span(Layer::kTopoBuild);
  PartitionNet net;
  net.network = std::make_unique<simnet::TorusNetwork>(geometry.node_torus());
  net.timed = std::make_unique<TimedNetwork>(*net.network);
  return net;
}

PartitionNet graph_net(const topo::TopologySpec& spec) {
  const Span span(Layer::kTopoBuild);
  PartitionNet net;
  net.network = std::make_unique<simnet::GraphNetwork>(spec.build());
  net.timed = std::make_unique<TimedNetwork>(*net.network);
  return net;
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

/// One catalogue point. Exactly one of the three kinds is populated.
struct Point {
  std::string key;
  int repeats = 0;  ///< runs per round
  int scale = 0;    ///< volume scale exponent (bytes x 2^scale)
  // Experiment A: ping-pong on two geometries.
  std::optional<bgq::Geometry> baseline, proposed;
  PartitionNet baseline_net, proposed_net;
  std::vector<simnet::Flow> baseline_flows, proposed_flows;
  // CAPS: one communicator on one geometry.
  std::optional<strassen::CapsParams> caps;
  PartitionNet caps_net;
  std::unique_ptr<simmpi::Communicator> comm;
  // Graph routing: one flow set on one topology; pairing points also
  // compute the topology's bisection, the bound the pairing time meets.
  std::optional<topo::TopologySpec> spec;
  bool with_bisection = false;
  PartitionNet graph;
  std::vector<simnet::Flow> flows;
  // Unit-scale outputs of the last run, for --print-golden.
  std::vector<double> outputs;
};

class ContentionWorkload final : public Workload {
 public:
  explicit ContentionWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    points_.clear();
    const auto add_pairing = [&](const std::string& key,
                                 const bgq::Geometry& baseline,
                                 const bgq::Geometry& proposed) {
      Point point;
      point.key = "A/" + key;
      point.repeats = kCheapRepeats;
      point.baseline = baseline;
      point.proposed = proposed;
      point.baseline_net = torus_net(baseline);
      point.proposed_net = torus_net(proposed);
      point.baseline_flows =
          simnet::furthest_node_pairing(baseline.node_torus(), 0.0);
      point.proposed_flows =
          simnet::furthest_node_pairing(proposed.node_torus(), 0.0);
      points_.push_back(std::move(point));
    };
    for (const core::MiraRow& row : core::table1_rows()) {
      add_pairing("mira/" + std::to_string(row.midplanes), row.current,
                  *row.proposed);
    }
    const bgq::Machine juqueen = bgq::juqueen();
    for (const std::int64_t size : {4, 6, 8, 12, 16}) {
      add_pairing("juqueen/" + std::to_string(size),
                  *bgq::worst_geometry(juqueen, size),
                  *bgq::best_geometry(juqueen, size));
    }

    const auto add_caps = [&](const std::string& key,
                              const bgq::Geometry& geometry,
                              std::int64_t ranks, int bfs_steps, int repeats) {
      Point point;
      point.key = "caps/" + key + "/p" + std::to_string(ranks);
      point.repeats = repeats;
      point.caps = strassen::CapsParams{9408, ranks, bfs_steps};
      point.caps_net = torus_net(geometry);
      point.comm = std::make_unique<simmpi::Communicator>(
          point.caps_net.timed.get(),
          simmpi::RankMap(ranks, point.caps_net.network->num_nodes()));
      points_.push_back(std::move(point));
    };
    const bgq::Machine mira = bgq::mira();
    for (const bgq::PolicyEntry& entry : bgq::mira_scheduler_partitions()) {
      if (entry.midplanes > 8) continue;
      const std::string size = std::to_string(entry.midplanes);
      add_caps(size + "/current", entry.geometry, 343, 3, kMiddleRepeats);
      if (entry.midplanes == 1) {
        add_caps(size + "/current", entry.geometry, 2401, 4, kTailRepeats);
      }
      if (const auto proposed =
              bgq::propose_improvement(mira, entry.geometry)) {
        add_caps(size + "/proposed", *proposed, 343, 3, kMiddleRepeats);
      }
    }

    const auto add_graph = [&](const std::string& key,
                               const topo::TopologySpec& spec,
                               bool with_bisection, int pairing_repeats,
                               int alltoall_repeats) {
      const std::int64_t hosts = spec.num_hosts();
      Point pairing;
      pairing.key = "route/" + key + "/pairing";
      pairing.repeats = pairing_repeats;
      pairing.spec = spec;
      pairing.with_bisection = with_bisection;
      pairing.graph = graph_net(spec);
      // Host h exchanges with host h + H/2, as core::topology_pairing_seconds.
      for (std::int64_t h = 0; h < hosts; ++h) {
        pairing.flows.push_back({h, (h + hosts / 2) % hosts, 1.0e9});
      }
      Point alltoall;
      alltoall.key = "route/" + key + "/alltoall";
      alltoall.repeats = alltoall_repeats;
      alltoall.spec = spec;
      alltoall.graph = graph_net(spec);
      const double per_peer = 1.0e9 / static_cast<double>(hosts - 1);
      for (std::int64_t src = 0; src < hosts; ++src) {
        for (std::int64_t dst = 0; dst < hosts; ++dst) {
          if (src != dst) alltoall.flows.push_back({src, dst, per_peer});
        }
      }
      points_.push_back(std::move(pairing));
      points_.push_back(std::move(alltoall));
    };
    // The dragonfly bisection is a spectral sweep: affordable on the small
    // machine, too slow and noisy per point on the 512-router one.
    add_graph("dragonfly-a4h4g8",
              topo::TopologySpec::dragonfly(dragonfly(4, 4, 8)), true,
              kMiddleRepeats, kCheapRepeats);
    add_graph("dragonfly-a8h4g16",
              topo::TopologySpec::dragonfly(dragonfly(8, 4, 16)), false,
              kCheapRepeats, kCheapRepeats);
    add_graph("fattree-k8", topo::TopologySpec::fat_tree(8), true,
              kCheapRepeats, kCheapRepeats);
    add_graph("fattree-k12", topo::TopologySpec::fat_tree(12), true,
              kCheapRepeats, kMiddleRepeats);

    // The seed's volume scales and point order.
    std::uint64_t state = sweep::task_seed(seed_, 0);
    for (Point& point : points_) {
      point.scale = static_cast<int>(sweep::next_u64(state) %
                                     (2 * kMaxScale + 1)) -
                    kMaxScale;
      for (simnet::Flow& flow : point.flows) {
        flow.bytes = std::ldexp(flow.bytes, point.scale);
      }
    }
    order_.clear();
    for (std::size_t i = 0; i < points_.size(); ++i) {
      order_.insert(order_.end(), static_cast<std::size_t>(points_[i].repeats),
                    i);
    }
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[sweep::next_u64(state) % i]);
    }
  }

  RoundResult round() override {
    RoundResult result;
    for (std::size_t c = 0; c < order_.size(); ++c) {
      set_case(static_cast<std::int64_t>(c));
      Point& point = points_[order_[c]];
      const Clock::time_point start = Clock::now();
      std::string error;
      try {
        error = run_point(point);
      } catch (const std::exception& e) {
        error = e.what();
      }
      result.case_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count());
      if (!error.empty()) result.fail(1, point.key + ": " + error);
    }
    result.items = routed_flows();
    stats_["simnet.route_all.flows"] += static_cast<double>(result.items);
    return result;
  }

  std::map<std::string, double> layer_stats() const override {
    return stats_;
  }
  void reset_layer_stats() override { stats_.clear(); }

  GoldenValues golden_outputs() const override {
    GoldenValues out;
    for (const Point& point : points_) {
      for (std::size_t i = 0; i < point.outputs.size(); ++i) {
        out[point.key + "#" + std::to_string(i)] =
            format_exact(point.outputs[i]);
      }
    }
    return out;
  }

 private:
  /// Runs one point and checks its outputs; returns the first error.
  std::string run_point(Point& point) {
    std::vector<double> values;
    std::string error;
    if (point.baseline) {
      simnet::PingPongConfig config = core::paper_pingpong_config();
      config.bytes_per_round = std::ldexp(config.bytes_per_round, point.scale);
      const simnet::PingPongResult base = simnet::run_pingpong(
          *point.baseline_net.timed, point.baseline_flows, config);
      const simnet::PingPongResult prop = simnet::run_pingpong(
          *point.proposed_net.timed, point.proposed_flows, config);
      double predicted = 0.0;
      {
        const Span span(Layer::kBisection);
        predicted = bgq::predicted_speedup(*point.baseline, *point.proposed);
      }
      const double speedup = base.measured_seconds / prop.measured_seconds;
      if (!(std::abs(speedup - predicted) <= 1e-9)) {
        error = "speedup " + format_exact(speedup) + " != predicted " +
                format_exact(predicted);
      }
      values = {base.measured_seconds, prop.measured_seconds};
    } else if (point.caps) {
      strassen::CapsParams params = *point.caps;
      // n x 2^k scales every phase's bytes, hence its time, by 4^k.
      params.n = point.scale >= 0 ? params.n << point.scale
                                  : params.n >> -point.scale;
      double seconds = 0.0;
      {
        const Span span(Layer::kSimmpi);
        seconds = strassen::simulate_caps_communication(*point.comm, params);
      }
      values = {std::ldexp(seconds, -point.scale)};
    } else {
      values = {point.graph.timed->completion_seconds(point.flows)};
      if (point.with_bisection) {
        const Span span(Layer::kBisection);
        values.push_back(core::topology_bisection(*point.spec).value);
      }
    }

    // Unit-scale outputs: ping-pong and routing times scale by 2^k, CAPS
    // by 4^k (normalized above to 2^k), bisections not at all.
    point.outputs.clear();
    for (std::size_t i = 0; i < values.size(); ++i) {
      const bool scaled = !(point.with_bisection && i == 1);
      point.outputs.push_back(
          scaled ? std::ldexp(values[i], -point.scale) : values[i]);
    }
    if (!error.empty()) return error;
    for (std::size_t i = 0; i < point.outputs.size(); ++i) {
      const std::string key = point.key + "#" + std::to_string(i);
      const auto golden = kGoldenContention.find(key);
      if (golden == kGoldenContention.end()) return "no golden value " + key;
      const double expected = std::stod(golden->second);
      if (!(std::abs(point.outputs[i] - expected) <=
            1e-12 * std::abs(expected))) {
        return key + " = " + format_exact(point.outputs[i]) +
               " != golden " + golden->second;
      }
    }
    return {};
  }

  std::uint64_t routed_flows() {
    std::uint64_t total = 0;
    for (Point& point : points_) {
      for (PartitionNet* net :
           {&point.baseline_net, &point.proposed_net, &point.caps_net,
            &point.graph}) {
        if (net->timed) total += net->timed->take_routed_flows();
      }
    }
    return total;
  }

  std::uint64_t seed_;
  std::vector<Point> points_;
  std::vector<std::size_t> order_;
  std::map<std::string, double> stats_;
};

}  // namespace

std::unique_ptr<Workload> make_contention_workload(std::uint64_t seed) {
  return std::make_unique<ContentionWorkload>(seed);
}

}  // namespace perfbench
