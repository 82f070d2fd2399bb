// Flow-level simulator tests: per-channel routing, minimal ring paths,
// antipodal tie splitting, flow conservation, and the max-congestion
// completion-time model.
#include "simnet/network.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "simmpi/communicator.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace npac::simnet {
namespace {

TorusNetwork ring(std::int64_t n, TieBreak tie = TieBreak::kSplit) {
  NetworkOptions options;
  options.link_bytes_per_second = 1.0;  // seconds == bytes
  options.tie_break = tie;
  return TorusNetwork(topo::Torus({n}), options);
}

TEST(LinkLoadsTest, ChannelIndexingIsDisjoint) {
  LinkLoads loads(4, 2);
  loads.at(0, 0, 0) = 1.0;
  loads.at(0, 0, 1) = 2.0;
  loads.at(0, 1, 0) = 3.0;
  loads.at(3, 1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 1), 2.0);
  EXPECT_DOUBLE_EQ(loads.at(0, 1, 0), 3.0);
  EXPECT_DOUBLE_EQ(loads.at(3, 1, 1), 4.0);
  EXPECT_DOUBLE_EQ(loads.max_load(), 4.0);
  EXPECT_DOUBLE_EQ(loads.total_load(), 10.0);
}

TEST(LinkLoadsTest, MaxLoadInDim) {
  LinkLoads loads(2, 2);
  loads.at(0, 0, 0) = 5.0;
  loads.at(1, 1, 1) = 7.0;
  EXPECT_DOUBLE_EQ(loads.max_load_in_dim(0), 5.0);
  EXPECT_DOUBLE_EQ(loads.max_load_in_dim(1), 7.0);
}

TEST(NetworkTest, ShortWayAroundTheRing) {
  const auto net = ring(8);
  LinkLoads loads(8, 1);
  net.route_flow({0, 2, 10.0}, loads);
  // Forward distance 2 < backward 6: hops 0->1->2 on + channels.
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 0), 10.0);
  EXPECT_DOUBLE_EQ(loads.at(1, 0, 0), 10.0);
  EXPECT_DOUBLE_EQ(loads.at(2, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(loads.total_load(), 20.0);
}

TEST(NetworkTest, WrapsBackwardWhenShorter) {
  const auto net = ring(8);
  LinkLoads loads(8, 1);
  net.route_flow({0, 6, 4.0}, loads);
  // Backward distance 2: 0->7->6 on - channels.
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 1), 4.0);
  EXPECT_DOUBLE_EQ(loads.at(7, 0, 1), 4.0);
  EXPECT_DOUBLE_EQ(loads.total_load(), 8.0);
}

TEST(NetworkTest, AntipodalTieSplitsEvenly) {
  const auto net = ring(8);
  LinkLoads loads(8, 1);
  net.route_flow({0, 4, 8.0}, loads);
  // Distance 4 both ways: 4 bytes forward over 4 hops, 4 backward.
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 0), 4.0);
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 1), 4.0);
  EXPECT_DOUBLE_EQ(loads.total_load(), 8.0 * 4.0);
}

TEST(NetworkTest, PositiveTieBreakUsesOneDirection) {
  const auto net = ring(8, TieBreak::kPositive);
  LinkLoads loads(8, 1);
  net.route_flow({0, 4, 8.0}, loads);
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 0), 8.0);
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 1), 0.0);
}

TEST(NetworkTest, LengthTwoDimensionChargesSenderPlusChannel) {
  NetworkOptions options;
  options.link_bytes_per_second = 1.0;
  const TorusNetwork net(topo::Torus({2}), options);
  LinkLoads loads(2, 1);
  net.route_flow({0, 1, 3.0}, loads);
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 0), 3.0);
  EXPECT_DOUBLE_EQ(loads.at(0, 0, 1), 0.0);
  LinkLoads reverse(2, 1);
  net.route_flow({1, 0, 3.0}, reverse);
  // The reverse flow charges node 1's + channel: same physical link,
  // opposite direction.
  EXPECT_DOUBLE_EQ(reverse.at(1, 0, 0), 3.0);
}

TEST(NetworkTest, DimensionOrderedMultiDimRoute) {
  NetworkOptions options;
  options.link_bytes_per_second = 1.0;
  const TorusNetwork net(topo::Torus({4, 4}), options);
  LinkLoads loads(16, 2);
  net.route_flow({net.torus().index_of({0, 0}), net.torus().index_of({1, 1}),
                  5.0},
                 loads);
  // Dim 0 first at row 0, then dim 1 at column 1.
  EXPECT_DOUBLE_EQ(loads.at(net.torus().index_of({0, 0}), 0, 0), 5.0);
  EXPECT_DOUBLE_EQ(loads.at(net.torus().index_of({1, 0}), 1, 0), 5.0);
  EXPECT_DOUBLE_EQ(loads.total_load(), 10.0);
}

TEST(NetworkTest, SelfFlowAndZeroBytesAreFree) {
  const auto net = ring(8);
  LinkLoads loads(8, 1);
  net.route_flow({3, 3, 100.0}, loads);
  net.route_flow({0, 1, 0.0}, loads);
  EXPECT_DOUBLE_EQ(loads.total_load(), 0.0);
}

TEST(NetworkTest, NegativeBytesRejected) {
  const auto net = ring(8);
  LinkLoads loads(8, 1);
  EXPECT_THROW(net.route_flow({0, 1, -1.0}, loads), std::invalid_argument);
}

TEST(NetworkTest, FlowConservationByteHops) {
  // Total load (byte-hops) equals sum over flows of bytes * minimal
  // distance, independent of tie-break splitting.
  const topo::Torus torus({6, 4, 2});
  for (const TieBreak tie : {TieBreak::kSplit, TieBreak::kPositive}) {
    NetworkOptions options;
    options.tie_break = tie;
    const TorusNetwork net(torus, options);
    std::vector<Flow> flows;
    double expected = 0.0;
    for (topo::VertexId v = 0; v < torus.num_vertices(); v += 3) {
      const Flow flow{v, (v * 7 + 5) % torus.num_vertices(), 2.0};
      if (flow.src == flow.dst) continue;
      flows.push_back(flow);
      expected += flow.bytes * static_cast<double>(net.path_hops(flow));
    }
    const LinkLoads loads = net.route_all(flows);
    EXPECT_NEAR(loads.total_load(), expected, 1e-9);
  }
}

TEST(TorusNetworkTest, RouteAllIsByteIdenticalAcrossThreadCounts) {
  // The determinism contract: route_all equals the serial route_flow walk
  // with exact == at 1, 2, 3, 7 and 16 OpenMP threads, for both
  // tie-breaks. Inputs: a CAPS all-to-all of 343 ranks on a Mira midplane
  // (4x4x4x4x2; per-peer bytes of 3e6/342 round, so any change in
  // summation order shows in the last ulp), and all pairs on a 4x4x4 torus
  // and on one with a dimension of length 2 and one of length 1.
  struct Case {
    topo::Torus torus;
    std::vector<Flow> flows;
  };
  std::vector<Case> cases;
  {
    const topo::Torus midplane({4, 4, 4, 4, 2});
    const TorusNetwork net(midplane);
    const simmpi::Communicator comm(
        &net, simmpi::RankMap(343, midplane.num_vertices()));
    cases.push_back({midplane, comm.alltoall_in_groups(343, 3.0e6)});
  }
  for (const topo::Torus& torus :
       {topo::Torus({4, 4, 4}), topo::Torus({6, 2, 1, 5})}) {
    std::vector<Flow> flows;
    for (topo::VertexId u = 0; u < torus.num_vertices(); ++u) {
      for (topo::VertexId v = 0; v < torus.num_vertices(); ++v) {
        const double bytes = 1.0 + 0.1 * static_cast<double>(u);
        if (u != v) flows.push_back({u, v, bytes});
      }
    }
    cases.push_back({torus, std::move(flows)});
  }
#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
#endif
  for (const Case& c : cases) {
    ASSERT_GE(c.flows.size(), 1024u);  // large enough for the parallel path
    for (const TieBreak tie : {TieBreak::kSplit, TieBreak::kPositive}) {
      NetworkOptions options;
      options.tie_break = tie;
      const TorusNetwork net(c.torus, options);
      LinkLoads serial = net.make_loads();
      for (const Flow& flow : c.flows) net.route_flow(flow, serial);
      for (const int threads : {1, 2, 3, 7, 16}) {
#ifdef _OPENMP
        omp_set_num_threads(threads);
#endif
        const LinkLoads got = net.route_all(c.flows);
        ASSERT_EQ(got.num_channels(), serial.num_channels());
        for (std::size_t ch = 0; ch < got.num_channels(); ++ch) {
          ASSERT_EQ(got[ch], serial[ch])
              << "channel " << ch << " at " << threads << " threads";
        }
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
}

TEST(TorusNetworkTest, InvalidFlowThrowsFromParallelRouteAll) {
  // An invalid flow among enough others to take the parallel path must
  // surface as a catchable exception, never escape the OpenMP region (which
  // terminates the process), and leave the network usable.
  const topo::Torus torus({8, 8, 4});
  const TorusNetwork net(torus);
  std::vector<Flow> flows;
  for (std::int64_t i = 0; i < 2000; ++i) {
    flows.push_back({i % torus.num_vertices(),
                     (i * 37 + 11) % torus.num_vertices(), 1.0});
  }
#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(4);
#endif
  std::vector<Flow> negative = flows;
  negative[1500].bytes = -1.0;
  EXPECT_THROW(net.route_all(negative), std::invalid_argument);
  std::vector<Flow> out_of_range = flows;
  out_of_range[1500].dst = torus.num_vertices();
  EXPECT_THROW(net.route_all(out_of_range), std::out_of_range);
  const LinkLoads after = net.route_all(flows);
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
  double byte_hops = 0.0;
  for (const Flow& flow : flows) {
    byte_hops += flow.bytes * static_cast<double>(net.path_hops(flow));
  }
  EXPECT_DOUBLE_EQ(after.total_load(), byte_hops);
}

TEST(NetworkTest, CompletionTimeIsMaxLoadOverBandwidth) {
  NetworkOptions options;
  options.link_bytes_per_second = 4.0;
  const TorusNetwork net(topo::Torus({8}), options);
  const std::vector<Flow> flows = {{0, 1, 12.0}};
  EXPECT_DOUBLE_EQ(net.completion_seconds(flows), 3.0);
}

TEST(NetworkTest, InjectionCapFloorsCompletionTime) {
  NetworkOptions options;
  options.link_bytes_per_second = 1e12;  // links effectively infinite
  options.injection_bytes_per_second = 2.0;
  const TorusNetwork net(topo::Torus({8}), options);
  const std::vector<Flow> flows = {{0, 1, 10.0}, {0, 2, 10.0}};
  // Node 0 injects 20 bytes at 2 B/s.
  EXPECT_DOUBLE_EQ(net.completion_seconds(flows), 10.0);
}

TEST(NetworkTest, RejectsNonPositiveBandwidth) {
  NetworkOptions options;
  options.link_bytes_per_second = 0.0;
  EXPECT_THROW(TorusNetwork(topo::Torus({4}), options), std::invalid_argument);
}

TEST(NetworkTest, PathHops) {
  const TorusNetwork net(topo::Torus({8, 4}));
  EXPECT_EQ(net.path_hops({net.torus().index_of({0, 0}),
                           net.torus().index_of({4, 2}), 1.0}),
            4 + 2);
}

}  // namespace
}  // namespace npac::simnet
