// The benchmark's own tests: the timing forwarders are transparent, the
// percentile helper keeps ten samples beyond its p90, and the schedule
// checker catches planted invariant violations.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "bgq/machine.hpp"
#include "checks.hpp"
#include "core/allocator.hpp"
#include "core/experiments.hpp"
#include "core/scheduler_stream.hpp"
#include "forwarders.hpp"
#include "simmpi/communicator.hpp"
#include "simnet/graph_network.hpp"
#include "simnet/traffic.hpp"
#include "stats.hpp"
#include "strassen/caps.hpp"
#include "sweep/cache.hpp"
#include "sweep/trace.hpp"
#include "topo/descriptor.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

using namespace npac;

/// Turns tracing on for a test's scope, so the forwarders' spans run.
class TracingOn {
 public:
  TracingOn() {
    reset();
    set_tracing(true);
  }
  ~TracingOn() { set_tracing(false); }
  TracingOn(const TracingOn&) = delete;
  TracingOn& operator=(const TracingOn&) = delete;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct StreamOutcome {
  std::uint64_t digest = kFnvOffset;
  core::StreamStats stats;
};

StreamOutcome run_stream(core::PartitionAllocator& allocator,
                         core::JobSource& source,
                         core::SchedulerPolicy policy) {
  StreamOutcome out;
  core::StreamingScheduler scheduler(allocator, policy);
  out.stats = scheduler.run(source, [&](const core::ScheduledJob& record) {
    digest_record(out.digest, record);
  });
  return out;
}

std::vector<topo::TopologySpec> machines() {
  topo::DragonflyConfig dragonfly;
  dragonfly.a = 4;
  dragonfly.h = 4;
  dragonfly.groups = 8;
  dragonfly.global_ports = 1;
  return {topo::TopologySpec::torus({4, 4, 3, 2}),
          topo::TopologySpec::dragonfly(dragonfly),
          topo::TopologySpec::fat_tree(8)};
}

TEST(ForwarderTest, SchedulesAndStreamStatsAreBitwiseEqual) {
  const TracingOn tracing;
  sweep::SweepContext context;
  const sweep::CachedPartitionOracle cached(&context);
  const TimedOracle timed_oracle(cached);
  for (const topo::TopologySpec& spec : machines()) {
    for (const core::SchedulerPolicy policy :
         {core::SchedulerPolicy::kFirstFit,
          core::SchedulerPolicy::kBestBisection,
          core::SchedulerPolicy::kWaitForBest,
          core::SchedulerPolicy::kEasyBackfill}) {
      const auto probe = core::make_allocator(spec);
      const auto sizes = core::feasible_unit_sizes(*probe);
      sweep::TraceConfig config;
      config.num_jobs = 600;
      config.mean_interarrival_seconds = 0.5;
      const auto jobs = sweep::generate_trace(sizes, config, 7);

      const auto plain_allocator = core::make_allocator(spec);
      core::VectorJobSource plain_source(jobs);
      const StreamOutcome plain =
          run_stream(*plain_allocator, plain_source, policy);

      TimedAllocator timed_allocator(core::make_allocator(spec, timed_oracle));
      core::VectorJobSource inner_source(jobs);
      TimedJobSource timed_source(inner_source);
      const StreamOutcome timed =
          run_stream(timed_allocator, timed_source, policy);

      const std::string label = spec.id() + " " + core::to_string(policy);
      EXPECT_EQ(plain.digest, timed.digest) << label;
      EXPECT_EQ(plain.stats.jobs, timed.stats.jobs) << label;
      EXPECT_EQ(plain.stats.events, timed.stats.events) << label;
      EXPECT_EQ(plain.stats.backfill_hits, timed.stats.backfill_hits) << label;
      EXPECT_EQ(plain.stats.rescans_skipped, timed.stats.rescans_skipped)
          << label;
      EXPECT_EQ(plain.stats.peak_resident_jobs, timed.stats.peak_resident_jobs)
          << label;
      EXPECT_TRUE(same_bits(plain.stats.makespan_seconds,
                            timed.stats.makespan_seconds))
          << label;
      EXPECT_TRUE(
          same_bits(plain.stats.mean_slowdown, timed.stats.mean_slowdown))
          << label;
      EXPECT_TRUE(same_bits(plain.stats.mean_wait_seconds,
                            timed.stats.mean_wait_seconds))
          << label;
      EXPECT_EQ(timed_source.sourced(), jobs.size()) << label;
    }
  }
  const LayerTotals totals = collect();
  EXPECT_GT(totals.calls[static_cast<std::size_t>(Layer::kTryPlace)], 0u);
  EXPECT_GT(totals.calls[static_cast<std::size_t>(Layer::kNext)], 0u);
}

void expect_same_loads(const simnet::LinkLoads& a, const simnet::LinkLoads& b) {
  ASSERT_EQ(a.num_channels(), b.num_channels());
  EXPECT_EQ(std::memcmp(a.raw().data(), b.raw().data(),
                        a.num_channels() * sizeof(double)),
            0);
}

TEST(ForwarderTest, LinkLoadsAndCompletionTimesAreBitwiseEqual) {
  const TracingOn tracing;
  simnet::NetworkOptions capped;
  capped.injection_bytes_per_second = 1.0e10;
  for (const simnet::NetworkOptions& options :
       {simnet::NetworkOptions{}, capped}) {
    const bgq::Geometry geometry(4, 2, 1, 1);
    const simnet::TorusNetwork torus(geometry.node_torus(), options);
    const TimedNetwork timed_torus(torus);
    for (const auto& flows :
         {simnet::furthest_node_pairing(torus.torus(), 3.0e8),
          simnet::random_permutation(torus.torus(), 1.0e8, 11)}) {
      expect_same_loads(torus.route_all(flows), timed_torus.route_all(flows));
      EXPECT_TRUE(same_bits(torus.completion_seconds(flows),
                            timed_torus.completion_seconds(flows)));
    }

    const simnet::GraphNetwork graph(topo::TopologySpec::fat_tree(8).build(),
                                     options);
    TimedNetwork timed_graph(graph);
    std::vector<simnet::Flow> flows;
    for (std::int64_t h = 0; h < 128; ++h) {
      flows.push_back({h, (h * 37 + 5) % 128, 1.0e9 + static_cast<double>(h)});
    }
    expect_same_loads(graph.route_all(flows), timed_graph.route_all(flows));
    EXPECT_TRUE(same_bits(graph.completion_seconds(flows),
                          timed_graph.completion_seconds(flows)));
    EXPECT_EQ(timed_graph.take_routed_flows(), 2 * flows.size());
  }
}

TEST(ForwarderTest, CapsThroughTheForwarderMatchesCapsCommSeconds) {
  const TracingOn tracing;
  const bgq::Geometry geometry(2, 1, 1, 1);
  const strassen::CapsParams params{9408, 343, 3};
  const simnet::TorusNetwork network(geometry.node_torus());
  const TimedNetwork timed(network);
  const simmpi::Communicator comm(
      &timed, simmpi::RankMap(params.ranks, network.num_nodes()));
  EXPECT_TRUE(same_bits(strassen::simulate_caps_communication(comm, params),
                        core::caps_comm_seconds(geometry, params)));
}

TEST(PercentileTest, P90KeepsTenSamplesBeyondIt) {
  std::vector<double> samples(100);
  std::iota(samples.begin(), samples.end(), 1.0);
  std::reverse(samples.begin(), samples.end());
  const CasePercentiles p = case_percentiles(samples);
  EXPECT_EQ(p.p50, 50.0);
  EXPECT_EQ(p.p90, 90.0);
  EXPECT_EQ(p.beyond_p90, 10u);
  for (std::size_t n = 100; n <= 1000; ++n) {
    std::vector<double> values(n);
    std::iota(values.begin(), values.end(), 0.0);
    const CasePercentiles q = case_percentiles(values);
    ASSERT_GE(q.beyond_p90, 10u) << n;
    ASSERT_EQ(q.beyond_p90,
              static_cast<std::size_t>(std::count_if(
                  values.begin(), values.end(),
                  [&](double v) { return v > q.p90; })))
        << n;
  }
}

TEST(PercentileTest, RefusesFewerThanOneHundredCases) {
  EXPECT_THROW(case_percentiles(std::vector<double>(99, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(case_percentiles({}), std::invalid_argument);
  EXPECT_NO_THROW(case_percentiles(std::vector<double>(100, 1.0)));
}

/// A torus-family record: `job` on the cuboid at `origin` with `extent`.
core::ScheduledJob torus_record(std::int64_t id, double start, double base,
                                std::array<std::int64_t, 4> origin,
                                std::array<std::int64_t, 4> extent) {
  core::ScheduledJob record;
  record.job.id = id;
  record.job.midplanes = extent[0] * extent[1] * extent[2] * extent[3];
  record.job.base_seconds = base;
  record.job.contention_bound = false;
  record.job.arrival_seconds = start;
  record.start_seconds = start;
  record.finish_seconds = start + base;
  record.partition.units = record.job.midplanes;
  record.partition.quality = 1.0;
  record.partition.best_quality = 1.0;
  record.partition.cuboid = core::Placement{origin, extent};
  return record;
}

class CheckerTest : public ::testing::Test {
 protected:
  CheckerTest()
      : allocator_(core::make_allocator(bgq::mira())),
        bounds_(slowdown_bounds(*allocator_)) {}

  ScheduleChecker checker() const {
    return ScheduleChecker(allocator_->total_units(),
                           std::array<std::int64_t, 4>{4, 4, 3, 2}, bounds_);
  }

  std::unique_ptr<core::PartitionAllocator> allocator_;
  std::vector<double> bounds_;
};

TEST_F(CheckerTest, AcceptsARealSchedule) {
  const auto sizes = core::feasible_unit_sizes(*allocator_);
  sweep::TraceConfig config;
  config.num_jobs = 1000;
  const auto jobs = sweep::generate_trace(sizes, config, 3);
  for (const core::SchedulerPolicy policy :
       {core::SchedulerPolicy::kFirstFit,
        core::SchedulerPolicy::kEasyBackfill}) {
    const auto allocator = core::make_allocator(bgq::mira());
    ScheduleChecker check = checker();
    core::VectorJobSource source(jobs);
    core::StreamingScheduler scheduler(*allocator, policy);
    scheduler.run(source, [&](const core::ScheduledJob& record) {
      check.check(record);
    });
    EXPECT_TRUE(check.finish(jobs.size())) << check.error();
  }
}

TEST_F(CheckerTest, RejectsADoubleBookedMidplane) {
  ScheduleChecker check = checker();
  EXPECT_TRUE(check.check(torus_record(0, 0.0, 10.0, {0, 0, 0, 0}, {2, 1, 1, 1})));
  // Job 1 starts while job 0 still runs, on a cuboid sharing cell (1,0,0,0).
  EXPECT_FALSE(check.check(torus_record(1, 5.0, 10.0, {1, 0, 0, 0}, {2, 1, 1, 1})));
  EXPECT_NE(check.error().find("shares a midplane with running job 0"),
            std::string::npos)
      << check.error();
}

TEST_F(CheckerTest, ReusesAMidplaneOnceItsJobFinished) {
  ScheduleChecker check = checker();
  EXPECT_TRUE(check.check(torus_record(0, 0.0, 10.0, {0, 0, 0, 0}, {2, 1, 1, 1})));
  EXPECT_TRUE(check.check(torus_record(1, 10.0, 10.0, {1, 0, 0, 0}, {2, 1, 1, 1})));
  EXPECT_TRUE(check.finish(2)) << check.error();
}

TEST_F(CheckerTest, RejectsADuplicateJob) {
  ScheduleChecker check = checker();
  EXPECT_TRUE(check.check(torus_record(4, 0.0, 10.0, {0, 0, 0, 0}, {1, 1, 1, 1})));
  EXPECT_FALSE(check.check(torus_record(4, 20.0, 10.0, {0, 0, 0, 0}, {1, 1, 1, 1})));
  EXPECT_NE(check.error().find("emitted twice"), std::string::npos)
      << check.error();
}

TEST_F(CheckerTest, RejectsBrokenTimesAndSlowdowns) {
  {
    ScheduleChecker check = checker();
    core::ScheduledJob early = torus_record(0, 5.0, 10.0, {0, 0, 0, 0}, {1, 1, 1, 1});
    early.job.arrival_seconds = 6.0;
    EXPECT_FALSE(check.check(early));
  }
  {
    ScheduleChecker check = checker();
    core::ScheduledJob slow = torus_record(0, 0.0, 10.0, {0, 0, 0, 0}, {4, 1, 1, 1});
    slow.job.contention_bound = true;
    slow.partition.best_quality = 3.0;  // slowdown 3 on the torus
    slow.slowdown = 3.0;
    slow.finish_seconds = 30.0;
    EXPECT_FALSE(check.check(slow));
  }
  {
    ScheduleChecker check = checker();
    EXPECT_TRUE(check.check(torus_record(0, 0.0, 10.0, {0, 0, 0, 0}, {1, 1, 1, 1})));
    EXPECT_FALSE(check.finish(2));  // one sourced job never emitted
  }
}

TEST(TracerTest, SelfTimeExcludesChildSpans) {
  const TracingOn tracing;
  {
    const Span outer(Layer::kSched);
    {
      const Span inner(Layer::kTryPlace);
      const std::uint64_t start = now_ns();
      while (now_ns() - start < 2'000'000) {
      }
    }
  }
  set_tracing(false);
  const LayerTotals totals = collect();
  const auto sched = static_cast<std::size_t>(Layer::kSched);
  const auto place = static_cast<std::size_t>(Layer::kTryPlace);
  EXPECT_EQ(totals.calls[sched], 1u);
  EXPECT_EQ(totals.calls[place], 1u);
  EXPECT_GE(totals.self_ns[place], 2'000'000u);
  EXPECT_EQ(totals.self_ns[sched] + totals.span_ns[place],
            totals.span_ns[sched]);
}

}  // namespace
}  // namespace perfbench
