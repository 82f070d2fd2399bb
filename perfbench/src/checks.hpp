// Output checks for the scheduler workloads: the FNV-1a schedule digest
// (compared against golden values for the default seed) and the
// seed-independent invariants every emitted record must satisfy.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/allocator.hpp"
#include "core/scheduler.hpp"

namespace perfbench {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/// Folds one record into an FNV-1a digest: job id and size, start,
/// finish and slowdown bit patterns, and the partition label.
void digest_record(std::uint64_t& hash, const npac::core::ScheduledJob& record);

/// Folds a 64-bit value into an FNV-1a digest (combining per-trace digests).
void digest_u64(std::uint64_t& hash, std::uint64_t value);

/// Largest contention-bound slowdown each job size can get on
/// `allocator`: the ratio of its best to its worst candidate layout
/// quality (index = size in units; 0 for infeasible sizes).
std::vector<double> slowdown_bounds(
    const npac::core::PartitionAllocator& allocator);

/// Checks a schedule record by record, in emission (placement) order.
///  * every job is emitted once, and (finish()) every sourced job was;
///  * start >= arrival;
///  * finish - start == base * slowdown (to rounding of the addition);
///  * a compute-bound job's slowdown is exactly 1; a contention-bound
///    job's is best_quality / quality of its partition, at least 1 and at
///    most its size's best/worst layout ratio — and at most 2 on the
///    torus family, the paper's bound (no cuboid has less than half the
///    best same-size bisection). Dragonfly layouts are not bound by 2:
///    a 16-chassis job on the a=4, h=4, 8-group machine spans x2.108.
///  * the units held by running jobs never exceed the machine's total;
///  * on a midplane grid, no midplane is owned by two running jobs.
/// A job runs over [start, finish); placement times never decrease.
class ScheduleChecker {
 public:
  /// `grid` is the midplane grid shape for torus-family schedules, whose
  /// records carry their cuboid; nullopt for the other families.
  /// `bounds` is slowdown_bounds() of the machine and must outlive the
  /// checker.
  ScheduleChecker(std::int64_t total_units,
                  std::optional<std::array<std::int64_t, 4>> grid,
                  const std::vector<double>& bounds);

  /// Checks one record; returns false (and keeps the first error) when it
  /// breaks an invariant.
  bool check(const npac::core::ScheduledJob& record);

  /// End of stream: every one of `sourced` jobs must have been emitted.
  bool finish(std::uint64_t sourced);

  /// Ids of the jobs still running after the last placement.
  std::vector<std::int64_t> running_ids() const;

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  std::uint64_t emitted() const { return emitted_; }

 private:
  struct Running {
    double finish = 0.0;
    std::int64_t id = 0;
    std::int64_t units = 0;
    std::optional<npac::core::Placement> cuboid;
  };
  bool fail(std::string message);
  /// Applies `fn(cell index)` to every grid cell of a cuboid (with wrap).
  template <typename Fn>
  void for_each_cell(const npac::core::Placement& cuboid, Fn&& fn) const;

  std::int64_t total_units_;
  std::optional<std::array<std::int64_t, 4>> grid_;
  const std::vector<double>* bounds_;
  std::vector<std::int64_t> owner_;  // grid cell -> job id, -1 free
  std::vector<Running> running_;     // min-heap on finish
  std::vector<std::uint8_t> seen_;   // job id -> emitted
  std::int64_t held_ = 0;
  double last_start_ = -std::numeric_limits<double>::infinity();
  std::uint64_t emitted_ = 0;
  std::string error_;
};

}  // namespace perfbench
