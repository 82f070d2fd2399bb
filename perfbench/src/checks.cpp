#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace perfbench {

namespace core = npac::core;
using npac::core::Placement;
using npac::core::ScheduledJob;

void digest_u64(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
}

namespace {

void digest_double(std::uint64_t& hash, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  digest_u64(hash, bits);
}

}  // namespace

void digest_record(std::uint64_t& hash, const ScheduledJob& record) {
  digest_u64(hash, static_cast<std::uint64_t>(record.job.id));
  digest_u64(hash, static_cast<std::uint64_t>(record.job.midplanes));
  digest_double(hash, record.start_seconds);
  digest_double(hash, record.finish_seconds);
  digest_double(hash, record.slowdown);
  for (const char c : record.partition.label) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
}

std::vector<double> slowdown_bounds(
    const npac::core::PartitionAllocator& allocator) {
  std::vector<double> bounds(
      static_cast<std::size_t>(allocator.total_units()) + 1, 0.0);
  for (std::size_t size = 1; size < bounds.size(); ++size) {
    const std::vector<double> qualities =
        allocator.candidate_qualities(static_cast<std::int64_t>(size));
    if (qualities.empty()) continue;
    // A zero-bisection layout is only ever paired with a zero best (the
    // scheduler refuses the other case), which scores a slowdown of 1.
    bounds[size] = qualities.back() == 0.0 ? 1.0
                                           : qualities.front() / qualities.back();
  }
  return bounds;
}

ScheduleChecker::ScheduleChecker(
    std::int64_t total_units, std::optional<std::array<std::int64_t, 4>> grid,
    const std::vector<double>& bounds)
    : total_units_(total_units), grid_(grid), bounds_(&bounds) {
  if (grid_) {
    std::int64_t cells = 1;
    for (const std::int64_t dim : *grid_) cells *= dim;
    owner_.assign(static_cast<std::size_t>(cells), -1);
  }
}

bool ScheduleChecker::fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
  return false;
}

template <typename Fn>
void ScheduleChecker::for_each_cell(const Placement& cuboid, Fn&& fn) const {
  const auto& dims = *grid_;
  for (std::int64_t a = 0; a < cuboid.extent[0]; ++a) {
    for (std::int64_t b = 0; b < cuboid.extent[1]; ++b) {
      for (std::int64_t c = 0; c < cuboid.extent[2]; ++c) {
        for (std::int64_t d = 0; d < cuboid.extent[3]; ++d) {
          const std::int64_t offsets[4] = {a, b, c, d};
          std::int64_t index = 0;
          for (std::size_t k = 0; k < 4; ++k) {
            index = index * dims[k] + (cuboid.origin[k] + offsets[k]) % dims[k];
          }
          fn(static_cast<std::size_t>(index));
        }
      }
    }
  }
}

bool ScheduleChecker::check(const ScheduledJob& record) {
  constexpr auto kFinishesLater = [](const Running& a, const Running& b) {
    return a.finish > b.finish;
  };
  const auto job = [&record] {
    return "job " + std::to_string(record.job.id);
  };
  if (record.job.id < 0) return fail(job() + ": negative id");
  const auto slot = static_cast<std::size_t>(record.job.id);
  if (slot >= seen_.size()) seen_.resize(std::max(slot + 1, 2 * seen_.size()));
  if (seen_[slot] != 0) return fail(job() + " emitted twice");
  seen_[slot] = 1;
  ++emitted_;

  const double start = record.start_seconds;
  if (!(start >= record.job.arrival_seconds)) {
    return fail(job() + " starts before it arrives");
  }
  const double runtime = record.job.base_seconds * record.slowdown;
  const double tolerance = 4.0 * std::numeric_limits<double>::epsilon() *
                           std::max(1.0, std::abs(record.finish_seconds));
  if (!(std::abs((record.finish_seconds - start) - runtime) <= tolerance)) {
    return fail(job() + ": finish - start != base * slowdown");
  }
  if (record.job.contention_bound) {
    const auto size = static_cast<std::size_t>(record.job.midplanes);
    double bound = size < bounds_->size() ? (*bounds_)[size] : 0.0;
    if (grid_) bound = std::min(bound, 2.0);
    if (!(record.slowdown >= 1.0 && record.slowdown <= bound)) {
      return fail(job() + ": contention-bound slowdown outside [1, " +
                  std::to_string(bound) + "]");
    }
    const core::Partition& partition = record.partition;
    const double expected = partition.quality == 0.0
                                ? 1.0
                                : partition.best_quality / partition.quality;
    if (record.slowdown != expected) {
      return fail(job() + ": slowdown != best_quality / quality");
    }
  } else if (record.slowdown != 1.0) {
    return fail(job() + ": compute-bound slowdown is not 1");
  }

  // Retire every job finished by this placement time.
  while (!running_.empty() && running_.front().finish <= start) {
    std::pop_heap(running_.begin(), running_.end(),
                  kFinishesLater);
    const Running done = running_.back();
    running_.pop_back();
    held_ -= done.units;
    if (done.cuboid) {
      for_each_cell(*done.cuboid, [&](std::size_t cell) { owner_[cell] = -1; });
    }
  }
  if (start < last_start_) {
    return fail(job() + " placed before the previous placement");
  }
  last_start_ = start;

  held_ += record.partition.units;
  if (held_ > total_units_) {
    return fail(job() + ": running jobs hold " + std::to_string(held_) +
                " units of " + std::to_string(total_units_));
  }
  Running entry{record.finish_seconds, record.job.id, record.partition.units,
                std::nullopt};
  if (grid_) {
    if (!record.partition.cuboid) return fail(job() + " has no cuboid");
    entry.cuboid = record.partition.cuboid;
    bool clash = false;
    std::int64_t other = -1;
    for_each_cell(*entry.cuboid, [&](std::size_t cell) {
      if (owner_[cell] != -1) {
        clash = true;
        other = owner_[cell];
      }
      owner_[cell] = record.job.id;
    });
    if (clash) {
      return fail(job() + " shares a midplane with running job " +
                  std::to_string(other));
    }
  }
  running_.push_back(std::move(entry));
  std::push_heap(running_.begin(), running_.end(),
                 kFinishesLater);
  return ok();
}

bool ScheduleChecker::finish(std::uint64_t sourced) {
  if (emitted_ != sourced) {
    return fail(std::to_string(emitted_) + " jobs emitted of " +
                std::to_string(sourced) + " sourced");
  }
  return ok();
}

std::vector<std::int64_t> ScheduleChecker::running_ids() const {
  std::vector<std::int64_t> ids;
  ids.reserve(running_.size());
  for (const Running& job : running_) ids.push_back(job.id);
  return ids;
}

}  // namespace perfbench
