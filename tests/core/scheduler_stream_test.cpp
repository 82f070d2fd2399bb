// StreamingScheduler tests: bitwise equivalence with an in-test replica of
// the pre-refactor materialized replay loop (across policies and allocator
// families), golden placement-order digests on a long Mira trace,
// EASY-backfill semantics, streaming preconditions, bounded resident-set
// accounting, and rescan-elimination effectiveness.
#include "core/scheduler_stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bgq/machine.hpp"
#include "core/allocator.hpp"
#include "core/scheduler.hpp"
#include "obs/metrics.hpp"
#include "sweep/trace.hpp"
#include "topo/descriptor.hpp"

namespace npac::core {
namespace {

Job make_job(std::int64_t id, std::int64_t midplanes, double seconds,
             bool contention_bound = true, double arrival = 0.0) {
  return {id, midplanes, seconds, contention_bound, arrival};
}

// -------------------------------------------------------------------------
// Reference implementation: the pre-refactor materialized replay loop,
// reproduced verbatim (modulo observability) so the streaming core is
// pinned against the original control flow, not against itself.
// -------------------------------------------------------------------------

double reference_slowdown(double best, double assigned) {
  if (assigned == 0.0) {
    if (best == 0.0) return 1.0;
    throw std::invalid_argument("zero bisection");
  }
  return best / assigned;
}

std::optional<Partition> reference_choose(PartitionAllocator& allocator,
                                          SchedulerPolicy policy,
                                          const Job& job,
                                          const std::vector<double>& qualities) {
  switch (policy) {
    case SchedulerPolicy::kFirstFit: {
      for (std::size_t k = qualities.size(); k-- > 0;) {
        if (auto partition = allocator.try_place(job.midplanes, k, job.id)) {
          return partition;
        }
      }
      return std::nullopt;
    }
    case SchedulerPolicy::kBestBisection: {
      for (std::size_t k = 0; k < qualities.size(); ++k) {
        if (auto partition = allocator.try_place(job.midplanes, k, job.id)) {
          return partition;
        }
      }
      return std::nullopt;
    }
    case SchedulerPolicy::kWaitForBest: {
      if (!job.contention_bound) {
        for (std::size_t k = 0; k < qualities.size(); ++k) {
          if (auto partition = allocator.try_place(job.midplanes, k, job.id)) {
            return partition;
          }
        }
        return std::nullopt;
      }
      const double best = qualities.front();
      for (std::size_t k = 0; k < qualities.size(); ++k) {
        if (qualities[k] != best) break;
        if (auto partition = allocator.try_place(job.midplanes, k, job.id)) {
          return partition;
        }
      }
      return std::nullopt;
    }
    default:
      throw std::invalid_argument("reference loop: unsupported policy");
  }
}

ScheduleResult reference_schedule(PartitionAllocator& allocator,
                                  SchedulerPolicy policy,
                                  std::vector<Job> jobs) {
  struct RunningJob {
    std::int64_t job_id = 0;
    double finish_seconds = 0.0;
  };
  std::vector<RunningJob> running;
  std::vector<ScheduledJob> done;
  std::size_t next_arrival = 0;
  std::vector<Job> queue;
  double now = 0.0;

  const auto complete_finished = [&](double up_to) {
    while (true) {
      auto earliest = running.end();
      for (auto it = running.begin(); it != running.end(); ++it) {
        if (it->finish_seconds <= up_to &&
            (earliest == running.end() ||
             it->finish_seconds < earliest->finish_seconds)) {
          earliest = it;
        }
      }
      if (earliest == running.end()) break;
      allocator.release(earliest->job_id);
      running.erase(earliest);
    }
  };

  while (done.size() < jobs.size()) {
    while (next_arrival < jobs.size() &&
           jobs[next_arrival].arrival_seconds <= now) {
      queue.push_back(jobs[next_arrival]);
      ++next_arrival;
    }
    bool placed_any = false;
    while (!queue.empty()) {
      const Job job = queue.front();
      const auto qualities = allocator.candidate_qualities(job.midplanes);
      if (qualities.empty()) {
        throw std::invalid_argument("infeasible size");
      }
      auto partition = reference_choose(allocator, policy, job, qualities);
      if (!partition) break;
      ScheduledJob record;
      record.job = job;
      record.start_seconds = now;
      record.slowdown = job.contention_bound
                            ? reference_slowdown(partition->best_quality,
                                                 partition->quality)
                            : 1.0;
      record.finish_seconds = now + job.base_seconds * record.slowdown;
      record.partition = std::move(*partition);
      running.push_back({job.id, record.finish_seconds});
      done.push_back(std::move(record));
      queue.erase(queue.begin());
      placed_any = true;
    }
    if (done.size() == jobs.size()) break;
    double next_event = std::numeric_limits<double>::infinity();
    for (const RunningJob& r : running) {
      next_event = std::min(next_event, r.finish_seconds);
    }
    if (next_arrival < jobs.size()) {
      next_event = std::min(next_event, jobs[next_arrival].arrival_seconds);
    }
    if (!std::isfinite(next_event)) {
      if (placed_any) continue;
      throw std::logic_error("deadlock");
    }
    now = std::max(now, next_event);
    complete_finished(now);
  }

  ScheduleResult result;
  result.jobs = std::move(done);
  double slowdown_sum = 0.0;
  std::int64_t slowdown_count = 0;
  double wait_sum = 0.0;
  for (const ScheduledJob& record : result.jobs) {
    result.makespan_seconds =
        std::max(result.makespan_seconds, record.finish_seconds);
    wait_sum += record.start_seconds - record.job.arrival_seconds;
    if (record.job.contention_bound) {
      slowdown_sum += record.slowdown;
      ++slowdown_count;
    }
  }
  result.mean_slowdown =
      slowdown_count > 0 ? slowdown_sum / static_cast<double>(slowdown_count)
                         : 1.0;
  result.mean_wait_seconds =
      result.jobs.empty() ? 0.0
                          : wait_sum / static_cast<double>(result.jobs.size());
  std::sort(result.jobs.begin(), result.jobs.end(),
            [](const ScheduledJob& a, const ScheduledJob& b) {
              return a.job.id < b.job.id;
            });
  return result;
}

void expect_identical(const ScheduleResult& stream,
                      const ScheduleResult& reference) {
  ASSERT_EQ(stream.jobs.size(), reference.jobs.size());
  // Bitwise field equality: the streaming core must replicate the exact
  // floating-point event ordering, not just "close" schedules.
  EXPECT_EQ(stream.makespan_seconds, reference.makespan_seconds);
  EXPECT_EQ(stream.mean_slowdown, reference.mean_slowdown);
  EXPECT_EQ(stream.mean_wait_seconds, reference.mean_wait_seconds);
  for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
    const ScheduledJob& a = stream.jobs[i];
    const ScheduledJob& b = reference.jobs[i];
    EXPECT_EQ(a.job.id, b.job.id);
    EXPECT_EQ(a.job.midplanes, b.job.midplanes);
    EXPECT_EQ(a.start_seconds, b.start_seconds) << "job " << a.job.id;
    EXPECT_EQ(a.finish_seconds, b.finish_seconds) << "job " << a.job.id;
    EXPECT_EQ(a.slowdown, b.slowdown) << "job " << a.job.id;
    EXPECT_EQ(a.partition.label, b.partition.label) << "job " << a.job.id;
    EXPECT_EQ(a.partition.units, b.partition.units) << "job " << a.job.id;
    EXPECT_EQ(a.partition.quality, b.partition.quality) << "job " << a.job.id;
  }
}

topo::DragonflyConfig small_dragonfly() {
  topo::DragonflyConfig config;  // 8 groups x 4 chassis of K_4 = 32 units
  config.a = 4;
  config.h = 4;
  config.groups = 8;
  config.global_ports = 1;
  return config;
}

std::vector<Job> congested_trace(const std::vector<std::int64_t>& pool,
                                 int num_jobs, std::uint64_t seed) {
  sweep::TraceConfig config;
  config.num_jobs = num_jobs;
  config.mean_interarrival_seconds = 1.0;  // arrivals outpace completions
  config.min_base_seconds = 10.0;
  config.max_base_seconds = 30.0;
  return sweep::generate_trace(pool, config, seed);
}

/// A long balanced-load Mira trace: 5,000 jobs over Mira's size ladder,
/// 18 s mean interarrival, 20-40 s runtimes, seed 42. The head blocks on
/// most arrivals, so the free-layout index and the backfill pass both work.
std::vector<Job> balanced_mira_trace() {
  sweep::TraceConfig config;
  config.num_jobs = 5000;
  config.mean_interarrival_seconds = 18.0;
  config.min_base_seconds = 20.0;
  config.max_base_seconds = 40.0;
  return sweep::generate_trace({1, 2, 4, 8, 16, 32, 48, 64, 96}, config, 42);
}

/// FNV-1a over the raw bits of every emitted record (id, size, start,
/// finish, slowdown, partition label) in placement order: the schedule
/// digest bench_ext_sched_scale prints.
std::uint64_t placement_order_digest(const std::vector<Job>& jobs,
                                     SchedulerPolicy policy) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix_byte = [&hash](unsigned char byte) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  };
  const auto mix_u64 = [&](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      mix_byte(static_cast<unsigned char>(value >> (8 * byte)));
    }
  };
  const auto mix_double = [&](double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    mix_u64(bits);
  };
  CuboidAllocator allocator(bgq::mira());
  VectorJobSource source(jobs);
  StreamingScheduler scheduler(allocator, policy);
  scheduler.run(source, [&](const ScheduledJob& record) {
    mix_u64(static_cast<std::uint64_t>(record.job.id));
    mix_u64(static_cast<std::uint64_t>(record.job.midplanes));
    mix_double(record.start_seconds);
    mix_double(record.finish_seconds);
    mix_double(record.slowdown);
    for (const char c : record.partition.label) {
      mix_byte(static_cast<unsigned char>(c));
    }
  });
  return hash;
}

TEST(StreamingSchedulerTest, MatchesReferenceLoopOnTorus) {
  const bgq::Machine machine = bgq::mira();
  sweep::TraceConfig config;
  config.num_jobs = 48;
  for (const auto policy :
       {SchedulerPolicy::kFirstFit, SchedulerPolicy::kBestBisection,
        SchedulerPolicy::kWaitForBest}) {
    for (const std::uint64_t seed : {7ULL, 2020ULL, 31337ULL}) {
      const auto jobs = sweep::generate_trace(machine, config, seed);
      CuboidAllocator reference_allocator(machine);
      const auto reference =
          reference_schedule(reference_allocator, policy, jobs);
      CuboidAllocator stream_allocator(machine);
      const auto stream = simulate_schedule(stream_allocator, policy, jobs);
      expect_identical(stream, reference);
    }
  }
  // The long trace, field by field and pinned by its placement-order
  // digest.
  const auto long_trace = balanced_mira_trace();
  const std::pair<SchedulerPolicy, std::uint64_t> goldens[] = {
      {SchedulerPolicy::kFirstFit, 1348991292204623952ULL},
      {SchedulerPolicy::kBestBisection, 15102071720243042182ULL},
      {SchedulerPolicy::kWaitForBest, 1022471636066532964ULL}};
  for (const auto& [policy, digest] : goldens) {
    CuboidAllocator reference_allocator(machine);
    CuboidAllocator stream_allocator(machine);
    expect_identical(simulate_schedule(stream_allocator, policy, long_trace),
                     reference_schedule(reference_allocator, policy,
                                        long_trace));
    EXPECT_EQ(placement_order_digest(long_trace, policy), digest)
        << to_string(policy);
  }
}

TEST(StreamingSchedulerTest, MatchesReferenceLoopOnDragonflyAndFatTree) {
  const auto specs = {topo::TopologySpec::dragonfly(small_dragonfly()),
                      topo::TopologySpec::fat_tree(8)};
  for (const auto policy :
       {SchedulerPolicy::kFirstFit, SchedulerPolicy::kBestBisection,
        SchedulerPolicy::kWaitForBest}) {
    for (const auto& spec : specs) {
      const auto probe = make_allocator(spec);
      const auto pool = feasible_unit_sizes(*probe);
      ASSERT_FALSE(pool.empty());
      const auto jobs = congested_trace(pool, 40, 99);
      const auto reference_allocator = make_allocator(spec);
      const auto reference =
          reference_schedule(*reference_allocator, policy, jobs);
      const auto stream_allocator = make_allocator(spec);
      const auto stream = simulate_schedule(*stream_allocator, policy, jobs);
      expect_identical(stream, reference);
    }
  }
}

TEST(StreamingSchedulerTest, SinkSeesPlacementOrderAndStatsMatchResult) {
  const bgq::Machine machine = bgq::mira();
  sweep::TraceConfig config;
  config.num_jobs = 32;
  const auto jobs = sweep::generate_trace(machine, config, 5);

  CuboidAllocator allocator(machine);
  StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
  VectorJobSource source(jobs);
  std::vector<ScheduledJob> emitted;
  double last_start = -std::numeric_limits<double>::infinity();
  const auto stats = scheduler.run(source, [&](const ScheduledJob& record) {
    emitted.push_back(record);
    EXPECT_GE(record.start_seconds, last_start);  // placement order = time order
    last_start = record.start_seconds;
  });
  EXPECT_EQ(stats.jobs, emitted.size());
  ASSERT_EQ(emitted.size(), jobs.size());

  CuboidAllocator wrapper_allocator(machine);
  const auto wrapped =
      simulate_schedule(wrapper_allocator, SchedulerPolicy::kBestBisection,
                        jobs);
  EXPECT_EQ(stats.makespan_seconds, wrapped.makespan_seconds);
  EXPECT_EQ(stats.mean_slowdown, wrapped.mean_slowdown);
  EXPECT_EQ(stats.mean_wait_seconds, wrapped.mean_wait_seconds);
  // The wrapper carries the core's stats whole.
  EXPECT_EQ(stats.jobs, wrapped.StreamStats::jobs);
  EXPECT_EQ(stats.events, wrapped.events);
  EXPECT_EQ(stats.rescans_skipped, wrapped.rescans_skipped);
  EXPECT_EQ(stats.peak_resident_jobs, wrapped.peak_resident_jobs);
}

/// (name, lane, start, duration) of every simulated-timeline span in
/// `registry`'s trace, sorted; asserts each sits on the sim lane.
std::vector<std::tuple<std::string, int, std::int64_t, std::int64_t>>
sim_spans(const obs::Registry& registry) {
  std::vector<std::tuple<std::string, int, std::int64_t, std::int64_t>> spans;
  for (const obs::TraceEvent& event : registry.trace().snapshot()) {
    if (event.category != "sched.sim") continue;
    EXPECT_EQ(event.pid, obs::kSimPid) << event.name;
    spans.emplace_back(event.name, event.tid, event.ts_us, event.dur_us);
  }
  std::sort(spans.begin(), spans.end());
  return spans;
}

TEST(StreamingSchedulerTest, BothEntryPointsRecordTheSimulatedTimeline) {
  // Two half-machine jobs fill Mira; the two later arrivals queue.
  const std::vector<Job> jobs = {
      make_job(0, 48, 10.0), make_job(1, 48, 10.0),
      make_job(2, 48, 5.0, false, 1.0), make_job(3, 16, 5.0, true, 2.0)};
  obs::Registry::Options options;
  options.tracing = true;

  obs::Registry streamed(options);
  {
    obs::ScopedRegistry scoped(streamed);
    CuboidAllocator allocator(bgq::mira());
    StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
    VectorJobSource source(jobs);
    scheduler.run(source, nullptr);
  }
  const auto streamed_spans = sim_spans(streamed);

  // One run span per job and one wait span per job that queued.
  const auto schedule =
      simulate_schedule(bgq::mira(), SchedulerPolicy::kBestBisection, jobs);
  std::vector<std::string> expected;
  for (const ScheduledJob& record : schedule.jobs) {
    const std::string label = "job" + std::to_string(record.job.id) +
                              " size " + std::to_string(record.job.midplanes) +
                              " [best-bisection on cuboid]";
    expected.push_back("run " + label);
    if (record.start_seconds > record.job.arrival_seconds) {
      expected.push_back("wait " + label);
    }
  }
  EXPECT_EQ(expected.size(), jobs.size() + 2);  // jobs 2 and 3 waited
  std::vector<std::string> names;
  for (const auto& span : streamed_spans) names.push_back(std::get<0>(span));
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(names, expected);

  obs::Registry wrapped(options);
  {
    obs::ScopedRegistry scoped(wrapped);
    simulate_schedule(bgq::mira(), SchedulerPolicy::kBestBisection, jobs);
  }
  EXPECT_EQ(sim_spans(wrapped), streamed_spans);
}

TEST(StreamingSchedulerTest, SimulatedTimelineSaturatesPastInt64Micros) {
  // Valid jobs whose simulated times leave the int64 microsecond range:
  // job 0 arrives at 1e300 s, and job 1's finish overflows to +inf. The
  // spans saturate at the int64 maximum instead of hitting an undefined
  // float-to-int cast, and tracing leaves the schedule unchanged.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<Job> jobs = {make_job(0, 1, 1.0, true, 1e300),
                                 make_job(1, 1, 1e308, true, 1.7e308)};
  obs::Registry::Options options;
  options.tracing = true;
  obs::Registry registry(options);
  ScheduleResult traced;
  {
    obs::ScopedRegistry scoped(registry);
    traced =
        simulate_schedule(bgq::mira(), SchedulerPolicy::kBestBisection, jobs);
  }
  const auto untraced =
      simulate_schedule(bgq::mira(), SchedulerPolicy::kBestBisection, jobs);
  ASSERT_EQ(traced.jobs.size(), 2u);
  EXPECT_TRUE(std::isinf(traced.jobs[1].finish_seconds));
  for (std::size_t i = 0; i < traced.jobs.size(); ++i) {
    EXPECT_EQ(traced.jobs[i].start_seconds, untraced.jobs[i].start_seconds);
    EXPECT_EQ(traced.jobs[i].finish_seconds, untraced.jobs[i].finish_seconds);
  }
  const auto spans = sim_spans(registry);
  ASSERT_EQ(spans.size(), 2u);  // neither job queued
  for (const auto& [name, lane, ts_us, dur_us] : spans) {
    EXPECT_EQ(ts_us, kMax) << name;
    EXPECT_EQ(dur_us, lane == 1 ? kMax : 0) << name;
  }
}

TEST(StreamingSchedulerTest, EasyBackfillFillsHoleWithoutDelayingHead) {
  // Job 0 takes 64 of Mira's 96 units; job 1 needs the whole machine and
  // blocks; job 2 is tiny and finishes exactly at the head's shadow time,
  // so it backfills at t=0. The head's start must stay at 10.0 — the
  // backfill was provably harmless.
  const std::vector<Job> jobs = {make_job(0, 64, 10.0),
                                 make_job(1, 96, 10.0),
                                 make_job(2, 1, 10.0)};
  CuboidAllocator fcfs_allocator(bgq::mira());
  const auto fcfs = simulate_schedule(
      fcfs_allocator, SchedulerPolicy::kBestBisection, jobs);
  EXPECT_EQ(fcfs.jobs[1].start_seconds, 10.0);
  EXPECT_GE(fcfs.jobs[2].start_seconds, 10.0);  // stuck behind the head

  CuboidAllocator backfill_allocator(bgq::mira());
  const auto backfilled = simulate_schedule(
      backfill_allocator, SchedulerPolicy::kEasyBackfill, jobs);
  EXPECT_EQ(backfilled.jobs[2].start_seconds, 0.0);   // jumped the queue
  EXPECT_EQ(backfilled.jobs[1].start_seconds, 10.0);  // head not delayed
  EXPECT_EQ(backfilled.jobs[0].start_seconds, 0.0);
}

TEST(StreamingSchedulerTest, EasyBackfillRejectsHarmfulCandidate) {
  // Same shape, but the small job runs longer than the head's shadow and
  // exceeds the spare units (96 - 64 - ... none spare for a 96-unit head):
  // it must NOT backfill, and the tentative placement must be rolled back
  // so the schedule equals plain FCFS.
  const std::vector<Job> jobs = {make_job(0, 64, 10.0),
                                 make_job(1, 96, 10.0),
                                 make_job(2, 1, 50.0)};
  CuboidAllocator allocator(bgq::mira());
  const auto result =
      simulate_schedule(allocator, SchedulerPolicy::kEasyBackfill, jobs);
  EXPECT_EQ(result.jobs[1].start_seconds, 10.0);
  EXPECT_GE(result.jobs[2].start_seconds, 10.0);  // behind the head again
}

TEST(StreamingSchedulerTest, EasyBackfillUsesSpareUnits) {
  // Head needs 64 units at its shadow time but 96 - 64 = 32 stay spare:
  // a long-running 16-unit job may backfill on spare units even though it
  // finishes far beyond the shadow.
  const std::vector<Job> jobs = {make_job(0, 64, 10.0),
                                 make_job(1, 64, 10.0),
                                 make_job(2, 16, 100.0)};
  CuboidAllocator allocator(bgq::mira());
  const auto result =
      simulate_schedule(allocator, SchedulerPolicy::kEasyBackfill, jobs);
  EXPECT_EQ(result.jobs[2].start_seconds, 0.0);
  EXPECT_EQ(result.jobs[1].start_seconds, 10.0);  // head start preserved
}

TEST(StreamingSchedulerTest, BackfillingIsDeterministic) {
  const auto pool = std::vector<std::int64_t>{1, 2, 4, 8, 16, 32, 48, 64};
  const auto jobs = congested_trace(pool, 64, 17);
  std::optional<ScheduleResult> first;
  for (int round = 0; round < 3; ++round) {
    CuboidAllocator allocator(bgq::mira());
    auto result =
        simulate_schedule(allocator, SchedulerPolicy::kEasyBackfill, jobs);
    if (!first) {
      first = std::move(result);
      continue;
    }
    expect_identical(result, *first);
  }
  EXPECT_EQ(placement_order_digest(balanced_mira_trace(),
                                   SchedulerPolicy::kEasyBackfill),
            1446036691089349709ULL);
}

TEST(StreamingSchedulerTest, ThrowsOnNonEmptyAllocator) {
  CuboidAllocator allocator(bgq::mira());
  ASSERT_TRUE(allocator.try_place(4, 0, /*job_id=*/123).has_value());
  StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
  VectorJobSource source({make_job(0, 1, 1.0)});
  EXPECT_THROW(scheduler.run(source, nullptr), std::invalid_argument);
}

TEST(StreamingSchedulerTest, ThrowsOnDecreasingArrivalNamingJob) {
  CuboidAllocator allocator(bgq::mira());
  StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
  VectorJobSource source({make_job(0, 1, 1.0, true, 10.0),
                          make_job(1, 1, 1.0, true, 12.0),
                          make_job(9, 1, 1.0, true, 3.0)});
  try {
    scheduler.run(source, nullptr);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("job 9"), std::string::npos) << message;
    EXPECT_NE(message.find("non-decreasing"), std::string::npos) << message;
  }
}

TEST(StreamingSchedulerTest, InfeasibleSizeThrowNamesJob) {
  CuboidAllocator allocator(bgq::mira());
  StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
  VectorJobSource source({make_job(42, 97, 1.0)});
  try {
    scheduler.run(source, nullptr);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("job 42"), std::string::npos) << message;
    EXPECT_NE(message.find("size 97"), std::string::npos) << message;
  }
}

TEST(StreamingSchedulerTest, OverflowedFinishThrowNamesRunningAndHeadJobs) {
  // Valid inputs whose sum leaves the double range: job 1's finish is
  // 1.7e308 + 1e308 = +inf, and job 2 needs the whole machine, so it waits
  // on a completion that never comes. That is an overflow, not a
  // deadlock: the error names the job whose finish overflowed and the
  // head job waiting on it.
  CuboidAllocator allocator(bgq::mira());
  StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
  VectorJobSource source({make_job(1, 1, 1e308, true, 1.7e308),
                          make_job(2, 96, 1.0, true, 1.7e308)});
  try {
    scheduler.run(source, nullptr);
    FAIL() << "expected std::overflow_error";
  } catch (const std::overflow_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("job 1 "), std::string::npos) << message;
    EXPECT_NE(message.find("job 2 "), std::string::npos) << message;
    EXPECT_NE(message.find("overflow"), std::string::npos) << message;
    EXPECT_EQ(message.find("deadlock"), std::string::npos) << message;
  }
}

/// Runs `jobs` through a Mira StreamingScheduler and returns the message of
/// the std::invalid_argument it must throw.
std::string rejection(std::vector<Job> jobs) {
  CuboidAllocator allocator(bgq::mira());
  StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
  VectorJobSource source(std::move(jobs));
  try {
    scheduler.run(source, nullptr);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return "";
}

TEST(StreamingSchedulerTest, RejectsNonFiniteOrNegativeArrivalNamingJob) {
  // A NaN or +inf arrival is never admitted: unchecked, the loop runs out
  // of events with the job still pending and an empty queue.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double arrival : {nan, inf, -inf, -1.0}) {
    SCOPED_TRACE(arrival);
    const std::string first = rejection({make_job(7, 1, 1.0, true, arrival)});
    EXPECT_NE(first.find("job 7 arrives"), std::string::npos) << first;
    const std::string later = rejection(
        {make_job(0, 1, 1.0, true, 0.0), make_job(8, 1, 1.0, true, arrival)});
    EXPECT_NE(later.find("job 8 arrives"), std::string::npos) << later;
  }
}

TEST(StreamingSchedulerTest, RejectsNonPositiveOrNonFiniteRuntimeNamingJob) {
  // A negative runtime would finish before it starts; a NaN one poisons
  // the completion order.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double seconds : {nan, -2.0, 0.0, inf}) {
    SCOPED_TRACE(seconds);
    const std::string message = rejection(
        {make_job(0, 1, 1.0, true, 0.0), make_job(9, 1, seconds, true, 1.0)});
    EXPECT_NE(message.find("job 9 has base runtime"), std::string::npos)
        << message;
  }
}

TEST(StreamingSchedulerTest, RejectsEmptyJobNamingJob) {
  for (const std::int64_t size : {std::int64_t{0}, std::int64_t{-3}}) {
    const std::string message = rejection({make_job(11, size, 1.0)});
    EXPECT_NE(message.find("job 11 requests " + std::to_string(size) +
                           " units"),
              std::string::npos)
        << message;
  }
}

TEST(StreamingSchedulerTest, RejectsNegativeIdNamingJob) {
  // -1 is the allocators' free-cell marker, so it can never own a unit.
  const std::string message =
      rejection({make_job(0, 1, 1.0, true, 0.0), make_job(-1, 1, 1.0)});
  EXPECT_NE(message.find("job -1 has a negative id"), std::string::npos)
      << message;
}

TEST(StreamingSchedulerTest, ResidentJobsBoundedByInFlightNotTraceLength) {
  // Widely spaced arrivals: each job finishes long before the next lands,
  // so no matter how long the stream is, at most a couple of jobs are
  // resident (1 running/queued + 1 lookahead).
  sweep::TraceConfig config;
  config.num_jobs = 500;
  config.mean_interarrival_seconds = 1000.0;
  config.min_base_seconds = 1.0;
  config.max_base_seconds = 2.0;
  sweep::SyntheticJobSource source({1, 2, 4}, config, 11);
  CuboidAllocator allocator(bgq::mira());
  StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
  const auto stats = scheduler.run(source, nullptr);
  EXPECT_EQ(stats.jobs, 500u);
  EXPECT_LE(stats.peak_resident_jobs, 4u);
}

TEST(StreamingSchedulerTest, RescanEliminationFiresUnderCongestion) {
  // A congested queue wakes the blocked head on every arrival; the
  // free-layout index must elide those provably-failing scans.
  const auto jobs =
      congested_trace({1, 2, 4, 8, 16, 32, 48, 64, 96}, 96, 23);
  CuboidAllocator allocator(bgq::mira());
  StreamingScheduler scheduler(allocator, SchedulerPolicy::kBestBisection);
  VectorJobSource source(jobs);
  const auto stats = scheduler.run(source, nullptr);
  EXPECT_EQ(stats.jobs, jobs.size());
  EXPECT_GT(stats.rescans_skipped, 0u);
}

TEST(SyntheticJobSourceTest, ReplicatesGenerateTraceExactly) {
  const std::vector<std::int64_t> pool = {1, 2, 4, 8, 16};
  sweep::TraceConfig config;
  config.num_jobs = 200;
  for (const std::uint64_t seed : {0ULL, 42ULL, 0xdeadbeefULL}) {
    const auto materialized = sweep::generate_trace(pool, config, seed);
    sweep::SyntheticJobSource source(pool, config, seed);
    std::vector<Job> streamed;
    while (auto job = source.next()) streamed.push_back(*job);
    ASSERT_EQ(streamed.size(), materialized.size());
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_EQ(streamed[i].id, materialized[i].id);
      EXPECT_EQ(streamed[i].midplanes, materialized[i].midplanes);
      EXPECT_EQ(streamed[i].base_seconds, materialized[i].base_seconds);
      EXPECT_EQ(streamed[i].contention_bound, materialized[i].contention_bound);
      EXPECT_EQ(streamed[i].arrival_seconds, materialized[i].arrival_seconds);
    }
  }
}

TEST(SyntheticJobSourceTest, ValidatesConfigEagerly) {
  sweep::TraceConfig bad;
  bad.min_base_seconds = -1.0;
  EXPECT_THROW(sweep::SyntheticJobSource({1, 2}, bad, 1),
               std::invalid_argument);
  EXPECT_THROW(sweep::SyntheticJobSource({}, sweep::TraceConfig{}, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace npac::core
