#include "stats.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

CasePercentiles case_percentiles(std::vector<double> samples) {
  if (samples.size() < kMinCases) {
    throw std::invalid_argument(
        "case_percentiles: " + std::to_string(samples.size()) +
        " cases, need at least " + std::to_string(kMinCases) +
        " for a p90 with ten samples beyond it");
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank: the smallest sample with at least q * n samples at or
  // below it.
  const auto rank = [n](std::size_t percent) {
    return (percent * n + 99) / 100;  // ceil(percent * n / 100), >= 1
  };
  CasePercentiles out;
  out.cases = n;
  out.p50 = samples[rank(50) - 1];
  out.p90 = samples[rank(90) - 1];
  out.beyond_p90 = n - rank(90);
  return out;
}

}  // namespace perfbench
