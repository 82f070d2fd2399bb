// Streaming event-driven scheduler core — the one schedule path.
//
// A binary-heap event queue over completion events (O(log n) per event),
// arrivals pulled incrementally from a `JobSource` so resident memory is
// bounded by the number of in-flight jobs (waiting + running), and
// `ScheduledJob` records emitted through a sink callback instead of
// accumulating a result vector. The hot loop avoids re-scans with a
// `FreeLayoutIndex`: a per-size memo of candidate qualities plus a
// release-epoch fail cache — a placement class that failed stays failed
// until some job releases units (occupying more units can only shrink the
// free set), so blocked wake-ups are skipped in O(log n).
//
// The core checks every job where it enters, accumulates the `StreamStats`
// and, when a tracing registry is installed, records each placed job on
// the simulated timeline (obs::kSimPid) as it is emitted. The
// materializing `simulate_schedule` (scheduler.hpp) is only a collecting
// sink over this core; the golden digests in tests/core pin both bit-exact
// with the pre-refactor replay loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "core/scheduler.hpp"

namespace npac::core {

/// Pull-based job stream. Implementations must yield jobs in
/// non-decreasing arrival order; the scheduler validates and throws
/// `std::invalid_argument` naming the offending job id otherwise.
class JobSource {
 public:
  virtual ~JobSource() = default;
  /// The next job in arrival order, or nullopt at end of stream.
  virtual std::optional<Job> next() = 0;
};

/// Adapter over an in-memory trace (the `simulate_schedule` wrapper path
/// and tests). Owns its vector; streaming gains nothing here, the bound
/// comes from sources that generate or parse on demand.
class VectorJobSource final : public JobSource {
 public:
  explicit VectorJobSource(std::vector<Job> jobs) : jobs_(std::move(jobs)) {}
  std::optional<Job> next() override {
    if (cursor_ >= jobs_.size()) return std::nullopt;
    return jobs_[cursor_++];
  }

 private:
  std::vector<Job> jobs_;
  std::size_t cursor_ = 0;
};

/// Incremental free-layout index: eliminates the per-wake-up rescan of
/// candidate layout classes. Two facts make the memo sound:
///  - `candidate_qualities(size)` depends only on the machine, never on
///    occupancy, so it is cached once per size class.
///  - a failed placement scan for (size, scan prefix) stays failed until a
///    release returns units to the free set: `try_place` failures do not
///    mutate the allocator and successful placements only remove free
///    units. The index stamps each failed scan with the current release
///    epoch and skips the scan while the epoch is unchanged.
class FreeLayoutIndex {
 public:
  explicit FreeLayoutIndex(const PartitionAllocator& allocator)
      : allocator_(&allocator) {}

  /// Cached `candidate_qualities(size)` (best-first, empty = infeasible).
  const std::vector<double>& qualities(std::int64_t size);

  /// True when a scan of `size` limited to `prefix` classes (the policy's
  /// scan set) is known to fail in the current epoch — or when fewer than
  /// `size` units are free at all. `prefix == npos` means the full set.
  bool known_blocked(std::int64_t size, std::size_t prefix) const;

  /// Records that the scan (size, prefix) just failed in this epoch.
  void mark_blocked(std::int64_t size, std::size_t prefix);

  /// Units were released back to the free set: previously failing scans
  /// may now succeed. O(1) — the epoch bump invalidates every stamp.
  void on_release() { ++release_epoch_; }

  std::uint64_t rescans_skipped() const { return rescans_skipped_; }

 private:
  const PartitionAllocator* allocator_;
  std::map<std::int64_t, std::vector<double>> qualities_;
  /// (size, scan prefix) -> release epoch of the last full-scan failure.
  std::map<std::pair<std::int64_t, std::size_t>, std::uint64_t> blocked_;
  std::uint64_t release_epoch_ = 0;
  mutable std::uint64_t rescans_skipped_ = 0;
};

/// Callback invoked once per job, at placement time, in placement order.
using ScheduledJobSink = std::function<void(const ScheduledJob&)>;

/// The event-driven core. One instance runs one stream to completion;
/// the allocator must start empty and is left holding whatever jobs were
/// still running when the source drained (exactly like the pre-refactor
/// loop, which never waited for the tail to finish).
class StreamingScheduler {
 public:
  StreamingScheduler(PartitionAllocator& allocator, SchedulerPolicy policy);

  /// Drains `source`, emitting every placed job through `sink`. Throws
  /// `std::invalid_argument` on a non-empty allocator, a negative job id,
  /// a non-finite or negative arrival, a non-finite or non-positive
  /// runtime, a size below 1, decreasing arrivals, or an infeasible job
  /// size (naming the job id); throws `std::overflow_error` when a queued
  /// job waits on a running job whose finish overflowed to +inf (naming
  /// both).
  StreamStats run(JobSource& source, const ScheduledJobSink& sink);

 private:
  struct Completion {
    double finish_seconds = 0.0;
    /// Placement sequence number: ties on finish time release in
    /// placement order, replicating the old earliest-first linear scan
    /// over a placement-ordered vector.
    std::uint64_t seq = 0;
    std::int64_t job_id = 0;
    std::int64_t units = 0;
  };
  /// Min-heap order (std::push_heap keeps the *max* on top, so greater).
  static bool completion_after(const Completion& a, const Completion& b);

  PartitionAllocator& allocator_;
  SchedulerPolicy policy_;
};

}  // namespace npac::core
