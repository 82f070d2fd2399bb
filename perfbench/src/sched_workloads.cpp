// The three scheduler workloads.
//
//  * sched_stream_torus / sched_stream_clos: long synthetic job streams on
//    one allocator per (machine, policy), near saturation as in
//    bench/ext_sched_scale. A case is a block of kBlock consecutive
//    placements, timed between sink calls.
//  * sched_montecarlo: thousands of short traces, each on a fresh
//    allocator, sharing one SweepContext per round through
//    CachedPartitionOracle, fanned out on sweep::ThreadPool. A case is one
//    trace.
//
// Jobs are generated in setup (sweep::SyntheticJobSource for streams,
// sweep::generate_trace for Monte Carlo traces) from the run's seed, so the
// scheduler only ever receives the generated jobs.
#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "bgq/machine.hpp"
#include "checks.hpp"
#include "core/allocator.hpp"
#include "core/scheduler_stream.hpp"
#include "forwarders.hpp"
#include "golden.hpp"
#include "sweep/cache.hpp"
#include "sweep/pool.hpp"
#include "sweep/trace.hpp"
#include "topo/descriptor.hpp"
#include "tracer.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace npac;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Placements per stream case.
constexpr std::uint64_t kBlock = 100;
/// Jobs per stream (a multiple of kBlock), sized so one round of each
/// stream workload takes about a second on a 2020s x86 core.
constexpr int kTorusStreamJobs = 15000;
constexpr int kClosStreamJobs = 40000;
/// Monte Carlo traces per (machine, policy, mix) cell, and jobs per trace.
constexpr int kMonteCarloReps = 64;
constexpr int kMonteCarloJobs = 48;

topo::DragonflyConfig small_dragonfly() {
  topo::DragonflyConfig config;
  config.a = 4;
  config.h = 4;
  config.groups = 8;
  config.global_ports = 1;
  return config;
}

/// A machine the scheduler workloads place on.
struct MachineCase {
  std::string name;
  std::function<std::unique_ptr<core::PartitionAllocator>(
      const core::PartitionOracle&)>
      make;
  /// Set for Blue Gene/Q machines, whose Monte Carlo traces draw the
  /// Mira scheduler sizes that fit (sweep::default_trace_sizes, as
  /// bench/ext_scheduler); other machines draw every feasible unit size.
  std::optional<bgq::Machine> bgq_machine;
};

MachineCase bgq_case(const std::string& name, const bgq::Machine& machine) {
  return {name,
          [machine](const core::PartitionOracle& oracle) {
            return core::make_allocator(machine, oracle);
          },
          machine};
}

MachineCase spec_case(const std::string& name, const topo::TopologySpec& spec) {
  return {name,
          [spec](const core::PartitionOracle& oracle) {
            return core::make_allocator(spec, oracle);
          },
          std::nullopt};
}

std::unique_ptr<TimedAllocator> construct(const MachineCase& machine,
                                          const core::PartitionOracle& oracle) {
  const Span span(Layer::kAllocConstruct);
  return std::make_unique<TimedAllocator>(machine.make(oracle));
}

/// The midplane grid of a torus-family allocator, for the checker.
std::optional<std::array<std::int64_t, 4>> grid_of(TimedAllocator& allocator) {
  const auto* cuboid =
      dynamic_cast<const core::CuboidAllocator*>(&allocator.inner());
  if (cuboid == nullptr) return std::nullopt;
  return cuboid->machine().shape.dims();
}

/// Frees whatever a finished stream left allocated, so the allocator is
/// empty for the next round.
void drain(TimedAllocator& allocator, const std::vector<std::int64_t>& held,
           const std::vector<core::Job>& jobs) {
  core::PartitionAllocator& inner = allocator.inner();
  for (const std::int64_t id : held) inner.release(id);
  if (inner.free_units() == inner.total_units()) return;
  for (const core::Job& job : jobs) inner.release(job.id);
  if (inner.free_units() != inner.total_units()) {
    throw std::logic_error("perfbench: allocator did not drain");
  }
}

/// Sizes a trace config like bench/ext_sched_scale: mean interarrival =
/// mean service demand over half the machine's unit rate, which keeps the
/// machine near saturation (the head blocks on most arrivals) with a
/// bounded queue.
sweep::TraceConfig stream_config(const core::PartitionAllocator& allocator,
                                 const std::vector<std::int64_t>& sizes,
                                 int jobs) {
  sweep::TraceConfig config;
  config.num_jobs = jobs;
  const double mean_size =
      static_cast<double>(
          std::accumulate(sizes.begin(), sizes.end(), std::int64_t{0})) /
      static_cast<double>(sizes.size());
  const double mean_base =
      0.5 * (config.min_base_seconds + config.max_base_seconds);
  config.mean_interarrival_seconds =
      mean_size * mean_base /
      (0.5 * static_cast<double>(allocator.total_units()));
  return config;
}

/// Sums a run's StreamStats into the core.sched.* layer values.
void add_stream_stats(std::map<std::string, double>& out,
                      const core::StreamStats& stats) {
  out["core.sched.events"] += static_cast<double>(stats.events);
  out["core.sched.rescans_skipped"] +=
      static_cast<double>(stats.rescans_skipped);
  out["core.sched.backfill_hits"] += static_cast<double>(stats.backfill_hits);
  double& peak = out["core.sched.peak_resident"];
  peak = std::max(peak, static_cast<double>(stats.peak_resident_jobs));
}

std::string policy_key(const std::string& machine,
                       core::SchedulerPolicy policy) {
  return machine + "/" + core::to_string(policy);
}

// ---------------------------------------------------------------------------
// Stream workloads.
// ---------------------------------------------------------------------------

class StreamWorkload final : public Workload {
 public:
  StreamWorkload(std::vector<MachineCase> machines, int jobs,
                 const GoldenValues& golden, std::uint64_t seed)
      : machines_(std::move(machines)), jobs_(jobs), golden_(golden),
        seed_(seed) {}

  void setup() override {
    streams_.clear();
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      for (const core::SchedulerPolicy policy :
           {core::SchedulerPolicy::kBestBisection,
            core::SchedulerPolicy::kEasyBackfill}) {
        Stream stream;
        stream.key = policy_key(machines_[m].name, policy);
        stream.policy = policy;
        stream.allocator =
            construct(machines_[m], core::default_partition_oracle());
        // Both policies of a machine replay the same trace (paired).
        const auto sizes = core::feasible_unit_sizes(*stream.allocator);
        stream.bounds = slowdown_bounds(*stream.allocator);
        sweep::SyntheticJobSource source(
            sizes, stream_config(*stream.allocator, sizes, jobs_),
            sweep::task_seed(seed_, static_cast<std::int64_t>(m)));
        while (auto job = source.next()) stream.jobs.push_back(*job);
        streams_.push_back(std::move(stream));
      }
    }
  }

  void prepare() override {
    for (Stream& stream : streams_) {
      if (stream.checker) {
        drain(*stream.allocator, stream.checker->running_ids(), stream.jobs);
        stream.checker.reset();
      }
      stream.source = std::make_unique<core::VectorJobSource>(stream.jobs);
    }
  }

  RoundResult round() override {
    RoundResult result;
    std::int64_t case_id = 0;
    for (Stream& stream : streams_) {
      TimedJobSource source(*stream.source);
      stream.checker.emplace(stream.allocator->total_units(),
                             grid_of(*stream.allocator), stream.bounds);
      ScheduleChecker& checker = *stream.checker;
      std::uint64_t digest = kFnvOffset;
      std::uint64_t placed = 0;
      std::uint64_t failed_blocks = 0;
      bool block_failed = false;
      const std::size_t first_case = result.case_ms.size();
      set_case(case_id);
      Clock::time_point block_start = Clock::now();
      const core::ScheduledJobSink sink = [&](const core::ScheduledJob& record) {
        const Span span(Layer::kSink);
        if (!checker.check(record)) block_failed = true;
        digest_record(digest, record);
        if (++placed % kBlock == 0) {
          result.case_ms.push_back(ms_since(block_start));
          failed_blocks += block_failed ? 1 : 0;
          block_failed = false;
          set_case(++case_id);
          block_start = Clock::now();
        }
      };
      core::StreamStats stats;
      {
        const Span span(Layer::kSched);
        core::StreamingScheduler scheduler(*stream.allocator, stream.policy);
        stats = scheduler.run(source, sink);
      }
      result.items += placed;
      const std::uint64_t cases = result.case_ms.size() - first_case;
      const std::string mismatch =
          seed_ == kDefaultSeed
              ? golden_mismatch(golden_, stream.key, std::to_string(digest))
              : std::string();
      if (!checker.finish(source.sourced())) {
        result.fail(cases, stream.key + ": " + checker.error());
      } else if (!mismatch.empty()) {
        result.fail(cases, "schedule digest " + mismatch);
      } else if (failed_blocks > 0) {
        result.fail(failed_blocks, stream.key + ": " + checker.error());
      }
      stream.digest = digest;
      add_stream_stats(stats_, stats);
    }
    return result;
  }

  std::map<std::string, double> layer_stats() const override {
    return stats_;
  }
  void reset_layer_stats() override { stats_.clear(); }

  GoldenValues golden_outputs() const override {
    GoldenValues out;
    for (const Stream& stream : streams_) {
      out[stream.key] = std::to_string(stream.digest);
    }
    return out;
  }

 private:
  struct Stream {
    std::string key;
    core::SchedulerPolicy policy = core::SchedulerPolicy::kBestBisection;
    std::unique_ptr<TimedAllocator> allocator;
    std::vector<core::Job> jobs;
    std::vector<double> bounds;  // slowdown_bounds of the allocator
    std::unique_ptr<core::VectorJobSource> source;
    std::optional<ScheduleChecker> checker;
    std::uint64_t digest = kFnvOffset;
  };

  std::vector<MachineCase> machines_;
  int jobs_;
  const GoldenValues& golden_;
  std::uint64_t seed_;
  std::vector<Stream> streams_;
  std::map<std::string, double> stats_;
};

// ---------------------------------------------------------------------------
// Monte Carlo workload.
// ---------------------------------------------------------------------------

class MonteCarloWorkload final : public Workload {
 public:
  MonteCarloWorkload(std::uint64_t seed, int threads)
      : seed_(seed), threads_(threads) {
    machines_ = {bgq_case("mira", bgq::mira()),
                 bgq_case("juqueen", bgq::juqueen()),
                 spec_case("dragonfly",
                           topo::TopologySpec::dragonfly(small_dragonfly())),
                 spec_case("fattree", topo::TopologySpec::fat_tree(8))};
  }

  int pool_workers() const override { return threads_; }

  void setup() override {
    pool_.reset();
    traces_.clear();
    bounds_.clear();
    const std::vector<double> mixes = {1.0 / 3.0, 2.0 / 3.0, 1.0};
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      const auto allocator =
          construct(machines_[m], core::default_partition_oracle());
      bounds_.push_back(slowdown_bounds(*allocator));
      const std::vector<std::int64_t> sizes =
          machines_[m].bgq_machine
              ? sweep::default_trace_sizes(*machines_[m].bgq_machine)
              : core::feasible_unit_sizes(*allocator);
      for (std::size_t x = 0; x < mixes.size(); ++x) {
        for (int rep = 0; rep < kMonteCarloReps; ++rep) {
          sweep::TraceConfig config;
          config.num_jobs = kMonteCarloJobs;
          config.contention_fraction = mixes[x];
          const auto cell = static_cast<std::int64_t>(
              (m * mixes.size() + x) * kMonteCarloReps + rep);
          traces_.push_back(
              sweep::generate_trace(sizes, config, sweep::task_seed(seed_, cell)));
        }
      }
    }
    pool_ = std::make_unique<sweep::ThreadPool>(threads_);
  }

  RoundResult round() override {
    const auto traces_per_machine =
        static_cast<std::int64_t>(traces_.size() / machines_.size());
    const std::int64_t tasks = static_cast<std::int64_t>(machines_.size()) *
                               kPolicies.size() * traces_per_machine;
    sweep::SweepContext context;
    const sweep::CachedPartitionOracle cached(&context);
    const TimedOracle oracle(cached);
    std::vector<Outcome> outcomes(static_cast<std::size_t>(tasks));

    {
      const Span run_span(Layer::kPoolRun);
      const std::int64_t parent = current_span();
      const std::uint64_t run_start = now_ns();
      const std::uint64_t generation = ++generation_;
      pool_->run_indexed(tasks, [&](std::int64_t index) {
        const Span task_span(Layer::kPoolTask, parent);
        thread_local std::uint64_t seen_generation = 0;
        if (seen_generation != generation) {
          seen_generation = generation;
          count(Counter::kPoolStartWaitNs, now_ns() - run_start);
        }
        set_case(index);
        // Task order: machine (outer) x policy x trace (inner).
        const std::int64_t trace_in_machine = index % traces_per_machine;
        const std::int64_t policy_index =
            (index / traces_per_machine) % static_cast<std::int64_t>(kPolicies.size());
        const std::int64_t machine_index =
            index / (traces_per_machine * static_cast<std::int64_t>(kPolicies.size()));
        const auto& trace = traces_[static_cast<std::size_t>(
            machine_index * traces_per_machine + trace_in_machine)];
        outcomes[static_cast<std::size_t>(index)] =
            run_trace(machines_[static_cast<std::size_t>(machine_index)],
                      bounds_[static_cast<std::size_t>(machine_index)],
                      kPolicies[static_cast<std::size_t>(policy_index)], trace,
                      oracle);
      });
    }

    RoundResult result;
    std::uint64_t digest = kFnvOffset;
    for (const Outcome& outcome : outcomes) {
      result.case_ms.push_back(outcome.ms);
      result.items += outcome.placed;
      if (!outcome.error.empty()) result.fail(1, outcome.error);
      digest_u64(digest, outcome.digest);
      add_stream_stats(stats_, outcome.stats);
    }
    digest_ = digest;
    const std::string mismatch =
        seed_ == kDefaultSeed
            ? golden_mismatch(kGoldenMonteCarlo, "all", std::to_string(digest))
            : std::string();
    if (!mismatch.empty()) {
      result.fail(static_cast<std::uint64_t>(tasks) - result.failed_cases,
                  "schedule digest " + mismatch);
    }
    for (const auto& cache : context.all_stats()) {
      const std::string name = cache.name;
      if (name != "geometries" && name != "topologies") continue;
      stats_["sweep.cache." + name + ".hits"] +=
          static_cast<double>(cache.stats.hits);
      stats_["sweep.cache." + name + ".lookups"] +=
          static_cast<double>(cache.stats.lookups());
    }
    return result;
  }

  std::map<std::string, double> layer_stats() const override {
    return stats_;
  }
  void reset_layer_stats() override { stats_.clear(); }

  GoldenValues golden_outputs() const override {
    return {{"all", std::to_string(digest_)}};
  }

 private:
  static constexpr std::array<core::SchedulerPolicy, 4> kPolicies = {
      core::SchedulerPolicy::kFirstFit, core::SchedulerPolicy::kBestBisection,
      core::SchedulerPolicy::kWaitForBest,
      core::SchedulerPolicy::kEasyBackfill};

  struct Outcome {
    double ms = 0.0;
    std::uint64_t digest = kFnvOffset;
    std::uint64_t placed = 0;
    core::StreamStats stats;
    std::string error;
  };

  static Outcome run_trace(const MachineCase& machine,
                           const std::vector<double>& bounds,
                           core::SchedulerPolicy policy,
                           const std::vector<core::Job>& trace,
                           const core::PartitionOracle& oracle) {
    const Clock::time_point start = Clock::now();
    Outcome outcome;
    const auto allocator = construct(machine, oracle);
    core::VectorJobSource jobs(trace);
    TimedJobSource source(jobs);
    ScheduleChecker checker(allocator->total_units(), grid_of(*allocator),
                            bounds);
    const core::ScheduledJobSink sink = [&](const core::ScheduledJob& record) {
      const Span span(Layer::kSink);
      checker.check(record);
      digest_record(outcome.digest, record);
      ++outcome.placed;
    };
    {
      const Span span(Layer::kSched);
      core::StreamingScheduler scheduler(*allocator, policy);
      outcome.stats = scheduler.run(source, sink);
    }
    if (!checker.finish(source.sourced())) {
      outcome.error = policy_key(machine.name, policy) + ": " + checker.error();
    }
    outcome.ms = ms_since(start);
    return outcome;
  }

  std::uint64_t seed_;
  int threads_;
  std::vector<MachineCase> machines_;
  std::vector<std::vector<core::Job>> traces_;
  std::vector<std::vector<double>> bounds_;  // per machine
  std::unique_ptr<sweep::ThreadPool> pool_;
  std::uint64_t generation_ = 0;
  std::uint64_t digest_ = kFnvOffset;
  std::map<std::string, double> stats_;
};

}  // namespace

std::unique_ptr<Workload> make_stream_workload(bool torus, std::uint64_t seed) {
  if (torus) {
    return std::make_unique<StreamWorkload>(
        std::vector<MachineCase>{bgq_case("mira", bgq::mira())},
        kTorusStreamJobs, kGoldenStreamTorus, seed);
  }
  return std::make_unique<StreamWorkload>(
      std::vector<MachineCase>{
          spec_case("dragonfly",
                    topo::TopologySpec::dragonfly(small_dragonfly())),
          spec_case("fattree", topo::TopologySpec::fat_tree(8))},
      kClosStreamJobs, kGoldenStreamClos, seed);
}

std::unique_ptr<Workload> make_montecarlo_workload(std::uint64_t seed,
                                                   int threads) {
  return std::make_unique<MonteCarloWorkload>(seed, threads);
}

}  // namespace perfbench
