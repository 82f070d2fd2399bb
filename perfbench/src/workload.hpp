// The benchmark's workloads behind one interface, so the harness in
// main.cpp times setup and rounds the same way for all of them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// The seed whose outputs are pinned by the golden digests and values.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// What one round of a workload's fixed work produced.
struct RoundResult {
  std::vector<double> case_ms;   ///< one entry per case, in case order
  std::uint64_t failed_cases = 0;
  std::uint64_t items = 0;       ///< jobs placed or flows routed
  std::string first_error;       ///< empty when every check passed

  void fail(std::uint64_t cases, const std::string& error) {
    failed_cases += cases;
    if (first_error.empty()) first_error = error;
  }
};

/// Outputs of a round that the golden table pins for the default seed,
/// printed by `perfbench --print-golden` when a workload is redefined.
using GoldenValues = std::map<std::string, std::string>;

/// Empty when `golden` holds `actual` under `key`, else the error.
inline std::string golden_mismatch(const GoldenValues& golden,
                                   const std::string& key,
                                   const std::string& actual) {
  const auto it = golden.find(key);
  if (it == golden.end()) return "no golden value for " + key;
  if (it->second == actual) return {};
  return key + " = " + actual + ", golden " + it->second;
}

class Workload {
 public:
  virtual ~Workload() = default;

  /// All one-time construction (machines, allocators, graphs, networks,
  /// flow vectors, job vectors, pools). Each call replaces what the
  /// previous call built, so the harness can time it repeatedly.
  virtual void setup() = 0;

  /// Untimed reset between rounds (e.g. freeing partitions a stream left
  /// allocated), so every round does identical work.
  virtual void prepare() {}

  /// The workload's fixed work, with every output check.
  virtual RoundResult round() = 0;

  /// Per-layer values the library reports itself (StreamStats, cache hit
  /// ratios), summed over the rounds since the last reset_layer_stats().
  virtual std::map<std::string, double> layer_stats() const { return {}; }
  virtual void reset_layer_stats() {}

  /// Golden outputs of the last round (see GoldenValues).
  virtual GoldenValues golden_outputs() const { return {}; }

  /// Threads the workload runs its pool with (1 for single-threaded).
  virtual int pool_workers() const { return 1; }
};

/// Builds a named workload for `seed` running on at most `threads`
/// threads; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int threads);

std::unique_ptr<Workload> make_stream_workload(bool torus, std::uint64_t seed);
std::unique_ptr<Workload> make_montecarlo_workload(std::uint64_t seed,
                                                   int threads);
std::unique_ptr<Workload> make_contention_workload(std::uint64_t seed);

}  // namespace perfbench
