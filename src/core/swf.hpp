// Standard Workload Format (SWF) importer — production-scale job streams
// for the scheduler from the Parallel Workloads Archive.
//
// An SWF file is line-oriented: `;` starts a comment (the header block),
// every other non-empty line is one job of 18 whitespace-separated
// numeric fields, with -1 marking "unknown". This importer maps the
// fields the simulation needs onto core::Job:
//
//   field 0  job number        -> Job.id
//   field 1  submit time [s]   -> Job.arrival_seconds
//   field 3  run time [s]      -> Job.base_seconds  (fallback: field 8,
//                                 the requested time, when run time is
//                                 missing or nonpositive)
//   field 7  requested procs   -> Job.midplanes via ceil(procs /
//                                 procs_per_unit) (fallback: field 4,
//                                 the allocated procs)
//
// Jobs whose runtime or processor count is unknown after fallbacks are
// skipped (archive traces carry cancelled and failed submissions).
// Contention-boundness is not an SWF concept, so it is assigned
// pseudo-randomly but reproducibly from the job id alone — re-parsing any
// subset of the trace labels each job identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scheduler.hpp"

namespace npac::core {

struct SwfOptions {
  /// Processors per allocation unit (midplane/chassis/pod subtree) of the
  /// target machine; e.g. 512 for Mira's 512-core midplanes.
  std::int64_t procs_per_unit = 1;
  /// Probability that a job is labeled contention-bound (decided by a
  /// deterministic hash of the job id, not a stateful RNG).
  double contention_fraction = 2.0 / 3.0;
  /// When non-empty: allocatable unit sizes of the target machine. Each
  /// job's unit count is rounded up to the smallest pool size that fits
  /// it; jobs beyond the largest pool size are skipped as infeasible.
  std::vector<std::int64_t> size_pool;
  /// Stop after this many imported jobs (< 0 imports the whole file).
  std::int64_t max_jobs = -1;
};

/// Parses SWF `text` into an arrival-sorted job stream (stable on ties, so
/// equal submit times keep file order). Throws std::invalid_argument on
/// malformed numeric fields, short rows, or a job id or processor count
/// outside the int64 range, naming the line number.
std::vector<Job> parse_swf(const std::string& text,
                           const SwfOptions& options = {});

}  // namespace npac::core
