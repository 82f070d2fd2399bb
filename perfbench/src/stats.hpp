// Order statistics for the benchmark's reported timings.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Fewest cases a run may report percentiles over: the p90 must have at
/// least ten samples beyond it.
inline constexpr std::size_t kMinCases = 100;

struct CasePercentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  std::size_t cases = 0;
  std::size_t beyond_p90 = 0;  ///< samples strictly after the p90 rank
};

/// Median of a non-empty sample (mean of the middle two for even sizes).
/// Throws std::invalid_argument on an empty sample.
double median(std::vector<double> values);

/// Nearest-rank p50 and p90 of `samples`. Throws std::invalid_argument
/// when there are fewer than kMinCases samples, because the p90 would
/// then have fewer than ten samples beyond it.
CasePercentiles case_percentiles(std::vector<double> samples);

}  // namespace perfbench
