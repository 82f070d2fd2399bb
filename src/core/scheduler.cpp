#include "core/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/scheduler_stream.hpp"

namespace npac::core {

std::string to_string(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kFirstFit:
      return "first-fit";
    case SchedulerPolicy::kBestBisection:
      return "best-bisection";
    case SchedulerPolicy::kWaitForBest:
      return "wait-for-best";
    case SchedulerPolicy::kEasyBackfill:
      return "easy-backfill";
  }
  return "?";
}

double bisection_slowdown(double best, double assigned) {
  if (assigned == 0.0) {
    if (best == 0.0) return 1.0;
    throw std::invalid_argument(
        "bisection slowdown: assigned geometry has zero bisection");
  }
  return best / assigned;
}

double contention_runtime_seconds(const bgq::Machine& machine,
                                  const bgq::Geometry& assigned,
                                  double base_seconds) {
  const auto best = bgq::best_geometry(machine, assigned.midplanes());
  if (!best) {
    throw std::invalid_argument(
        "contention_runtime_seconds: size not allocatable on this machine");
  }
  return base_seconds *
         bisection_slowdown(
             static_cast<double>(bgq::normalized_bisection(*best)),
             static_cast<double>(bgq::normalized_bisection(assigned)));
}

ScheduleResult simulate_schedule(const bgq::Machine& machine,
                                 SchedulerPolicy policy, std::vector<Job> jobs,
                                 const PartitionOracle& oracle) {
  CuboidAllocator allocator(machine, oracle);
  return simulate_schedule(allocator, policy, std::move(jobs));
}

ScheduleResult simulate_schedule(PartitionAllocator& allocator,
                                 SchedulerPolicy policy,
                                 std::vector<Job> jobs) {
  // The event-driven core does the work (and validates every job); the
  // sink collects its records, reported in id order for stable output.
  ScheduleResult result;
  result.jobs.reserve(jobs.size());
  StreamingScheduler scheduler(allocator, policy);
  VectorJobSource source(std::move(jobs));
  const StreamStats stats = scheduler.run(
      source,
      [&result](const ScheduledJob& record) { result.jobs.push_back(record); });
  static_cast<StreamStats&>(result) = stats;
  std::sort(result.jobs.begin(), result.jobs.end(),
            [](const ScheduledJob& a, const ScheduledJob& b) {
              return a.job.id < b.job.id;
            });
  return result;
}

}  // namespace npac::core
