// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--print-golden]
//
// Runs the workload's setup repeatedly (setup_s is the median),
// then repeats the workload's fixed work in rounds for S seconds, checking
// every output. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it spends half of S untraced and half traced, prints the
// per-layer self-time table, reports the per-layer metrics and writes the
// spans as Chrome trace_event JSON to --trace-out. The last line of stdout
// is one JSON object: correct, attempted, failed, metrics and the run
// fingerprint. perfbench/run.py builds this program and runs it.
#include <sched.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#if defined(_OPENMP)
#include <omp.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "tracer.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Setup repeats until kSetupSeconds of setups have run, at least
/// kSetupMinReps and at most kSetupMaxReps times; setup_s is the median.
/// A setup of a few milliseconds needs many repeats for a steady median.
constexpr std::size_t kSetupMinReps = 7;
constexpr std::size_t kSetupMaxReps = 200;
constexpr double kSetupSeconds = 0.5;
/// Rounds a measuring phase runs even when the budget is spent sooner.
constexpr int kMinRounds = 2;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      unsigned int regs[4] = {};
      __get_cpuid(0x80000002u + i, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + 16 * i, regs, sizeof regs);
    }
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss would also count the launching process: Linux carries it
/// across fork and exec.) 0 when /proc is unavailable.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(status);
  return kib / 1024.0;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool print_golden = false;
};

struct Phase {
  std::vector<double> round_seconds;
  std::vector<double> case_ms;
  std::uint64_t items = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

/// Repeats prepare + round until `budget` seconds of rounds have run.
void run_rounds(Workload& workload, double budget, Phase& phase) {
  double spent = 0.0;
  for (int rounds = 0; rounds < kMinRounds || spent < budget; ++rounds) {
    workload.prepare();
    const Clock::time_point start = Clock::now();
    RoundResult result;
    {
      const Span span(Layer::kRound);
      result = workload.round();
    }
    const double seconds = seconds_since(start);
    spent += seconds;
    phase.round_seconds.push_back(seconds);
    phase.case_ms.insert(phase.case_ms.end(), result.case_ms.begin(),
                         result.case_ms.end());
    phase.items += result.items;
    phase.failed += result.failed_cases;
    if (!result.first_error.empty() && phase.errors.size() < 5) {
      phase.errors.push_back(result.first_error);
    }
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics of the traced phase: per round, plus one setup's
/// spans (setup-only layers such as topo.build report their setup cost).
std::vector<Metric> layer_metrics(const LayerTotals& setup,
                                  const LayerTotals& total, double rounds,
                                  const std::map<std::string, double>& stats,
                                  int workers, double overhead_ratio) {
  const auto self = [&](Layer layer) {
    const auto i = static_cast<std::size_t>(layer);
    return static_cast<double>(total.self_ns[i] - setup.self_ns[i]) / rounds +
           static_cast<double>(setup.self_ns[i]);
  };
  const auto span = [&](Layer layer) {
    const auto i = static_cast<std::size_t>(layer);
    return static_cast<double>(total.span_ns[i] - setup.span_ns[i]) / rounds;
  };
  const auto calls = [&](Layer layer) {
    const auto i = static_cast<std::size_t>(layer);
    return static_cast<double>(total.calls[i] - setup.calls[i]) / rounds;
  };
  const auto counter = [&](Counter c) {
    const auto i = static_cast<std::size_t>(c);
    return static_cast<double>(total.counters[i] - setup.counters[i]) / rounds;
  };
  const auto stat = [&](const std::string& name) {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };

  double all_self = 0.0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    all_self += self(static_cast<Layer>(i));
  }
  const double try_place_calls = calls(Layer::kTryPlace);
  std::vector<Metric> out = {
      {"core.alloc.try_place.calls", try_place_calls, "count"},
      {"core.alloc.try_place.ns", self(Layer::kTryPlace), "ns"},
      {"core.alloc.try_place.fail_ratio",
       ratio(counter(Counter::kTryPlaceFails), try_place_calls), "ratio"},
      {"core.alloc.release.ns", self(Layer::kRelease), "ns"},
      {"core.alloc.qualities.ns", self(Layer::kQualities), "ns"},
      {"core.alloc.construct.ns", self(Layer::kAllocConstruct), "ns"},
      {"core.sched.self.ns", self(Layer::kSched), "ns"},
      {"core.sched.events", stat("core.sched.events") / rounds, "count"},
      {"core.sched.rescans_skipped",
       stat("core.sched.rescans_skipped") / rounds, "count"},
      {"core.sched.backfill_hits", stat("core.sched.backfill_hits") / rounds,
       "count"},
      {"core.sched.peak_resident", stat("core.sched.peak_resident"), "count"},
      {"sweep.trace.next.calls", calls(Layer::kNext), "count"},
      {"sweep.trace.next.ns", self(Layer::kNext), "ns"},
      {"bench.sink.ns", self(Layer::kSink), "ns"},
      {"sweep.pool.tasks", calls(Layer::kPoolTask), "count"},
      {"sweep.pool.busy.ns", span(Layer::kPoolTask), "ns"},
      {"sweep.pool.start_wait.ns", counter(Counter::kPoolStartWaitNs), "ns"},
      {"sweep.pool.utilization",
       ratio(span(Layer::kPoolTask),
             span(Layer::kPoolRun) * static_cast<double>(workers)),
       "ratio"},
      {"sweep.cache.geometries.hit_ratio",
       ratio(stat("sweep.cache.geometries.hits"),
             stat("sweep.cache.geometries.lookups")),
       "ratio"},
      {"sweep.cache.topologies.hit_ratio",
       ratio(stat("sweep.cache.topologies.hits"),
             stat("sweep.cache.topologies.lookups")),
       "ratio"},
      {"sweep.cache.oracle.ns", self(Layer::kOracle), "ns"},
      {"simnet.route_all.calls", calls(Layer::kRouteAll), "count"},
      {"simnet.route_all.ns", self(Layer::kRouteAll), "ns"},
      {"simnet.route_all.flows", stat("simnet.route_all.flows") / rounds,
       "count"},
      {"simnet.completion.ns", self(Layer::kCompletion), "ns"},
      {"simmpi.self.ns", self(Layer::kSimmpi), "ns"},
      {"iso.bisection.ns", self(Layer::kBisection), "ns"},
      {"topo.build.ns", self(Layer::kTopoBuild), "ns"},
      {"bench.unattributed.ns", self(Layer::kRound), "ns"},
      {"bench.layer_coverage", ratio(all_self - self(Layer::kRound), all_self),
       "ratio"},
      {"bench.trace_overhead_ratio", overhead_ratio, "ratio"},
  };
  return out;
}

/// The per-layer self-time table, largest first, with each layer's share
/// of all traced time (bench.round is the unattributed remainder).
void print_layer_table(const LayerTotals& setup, const LayerTotals& total,
                       double rounds) {
  struct Row {
    const char* name;
    double self_ms;
    double calls;
  };
  std::vector<Row> rows;
  double sum = 0.0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const double round_ns =
        static_cast<double>(total.self_ns[i] - setup.self_ns[i]) / rounds;
    const double setup_ns = static_cast<double>(setup.self_ns[i]);
    const double calls =
        static_cast<double>(total.calls[i] - setup.calls[i]) / rounds +
        static_cast<double>(setup.calls[i]);
    if (calls == 0.0) continue;
    rows.push_back({layer_name(static_cast<Layer>(i)),
                    (round_ns + setup_ns) / 1e6, calls});
    sum += (round_ns + setup_ns) / 1e6;
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.self_ms > b.self_ms; });
  std::printf("per-layer self time (per round, setup-only layers per setup; "
              "all threads)\n");
  std::printf("  %-24s %12s %8s %14s\n", "layer", "self ms", "share",
              "calls");
  for (const Row& row : rows) {
    std::printf("  %-24s %12.3f %7.1f%% %14.0f%s\n", row.name, row.self_ms,
                sum > 0.0 ? 100.0 * row.self_ms / sum : 0.0, row.calls,
                std::strcmp(row.name, "bench.round") == 0 ? "  (unattributed)"
                                                          : "");
  }
  std::printf("  kept %zu spans, dropped %zu beyond the keep-first cap\n",
              total.kept_spans, total.dropped_spans);
}

int run(const Options& options) {
  const int cpus = available_cpus();
#if defined(_OPENMP)
  omp_set_num_threads(cpus);
  const int omp_threads = omp_get_max_threads();
#else
  const int omp_threads = 1;
#endif
  std::unique_ptr<Workload> workload =
      make_workload(options.workload, options.seed, cpus);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  set_case(-1);  // the main thread registers first: thread 0 in traces

  if (options.print_golden) {
    workload->setup();
    workload->prepare();
    const RoundResult result = workload->round();
    for (const auto& [key, value] : workload->golden_outputs()) {
      std::printf("    {\"%s\", \"%s\"},\n", key.c_str(), value.c_str());
    }
    if (!result.first_error.empty()) {
      std::fprintf(stderr, "(first check error: %s)\n",
                   result.first_error.c_str());
    }
    return 0;
  }

  std::vector<double> setup_seconds;
  double setup_total = 0.0;
  while (setup_seconds.size() < kSetupMinReps ||
         (setup_total < kSetupSeconds &&
          setup_seconds.size() < kSetupMaxReps)) {
    const Clock::time_point start = Clock::now();
    workload->setup();
    setup_seconds.push_back(seconds_since(start));
    setup_total += setup_seconds.back();
  }

  Phase plain;
  run_rounds(*workload, options.trace ? options.seconds / 2 : options.seconds,
             plain);

  Phase traced;
  LayerTotals setup_totals;
  LayerTotals totals;
  if (options.trace) {
    reset();
    set_tracing(true);
    workload->setup();
    setup_totals = collect();
    workload->reset_layer_stats();
    run_rounds(*workload, options.seconds / 2, traced);
    set_tracing(false);
    totals = collect();
  }

  std::uint64_t attempted = plain.case_ms.size() + traced.case_ms.size();
  const std::uint64_t failed = plain.failed + traced.failed;
  std::vector<std::string> errors = plain.errors;
  errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());

  std::vector<Metric> metrics;
  const double wall = median(plain.round_seconds);
  if (!options.trace) {
    double round_total = 0.0;
    for (const double s : plain.round_seconds) round_total += s;
    try {
      const CasePercentiles cases = case_percentiles(plain.case_ms);
      metrics = {
          {"wall_s", wall, "s"},
          {"setup_s", median(setup_seconds), "s"},
          {"items_per_s", static_cast<double>(plain.items) / round_total,
           "1/s"},
          {"case_ms_p50", cases.p50, "ms"},
          {"case_ms_p90", cases.p90, "ms"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"pass_ratio",
           1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
           "ratio"},
      };
      std::printf("%zu rounds, %zu cases (p90 has %zu beyond it)\n",
                  plain.round_seconds.size(), cases.cases, cases.beyond_p90);
    } catch (const std::exception& e) {
      errors.push_back(e.what());
    }
  } else {
    const double rounds = static_cast<double>(traced.round_seconds.size());
    print_layer_table(setup_totals, totals, rounds);
    const double overhead = median(traced.round_seconds) / wall;
    std::printf("tracing overhead: traced round %.4f s / untraced %.4f s = "
                "%.3fx\n",
                median(traced.round_seconds), wall, overhead);
    metrics = layer_metrics(setup_totals, totals, rounds,
                            workload->layer_stats(), workload->pool_workers(),
                            overhead);
    if (!options.trace_out.empty()) {
      if (write_chrome_trace(options.trace_out)) {
        std::printf("trace: %s\n", options.trace_out.c_str());
      } else {
        errors.push_back("cannot write trace to " + options.trace_out);
      }
    }
  }
  for (const std::string& error : errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  const bool correct = failed == 0 && errors.empty();

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}, \"fingerprint\": {";
  line += "\"nproc\": " + std::to_string(cpus);
  line += ", \"cpu_model\": " + json_string(cpu_model());
  line += ", \"compiler\": " + json_string(PERFBENCH_COMPILER);
  line += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  line += ", \"pool_workers\": " + std::to_string(workload->pool_workers());
  line += ", \"omp_threads\": " + std::to_string(omp_threads);
  line += ", \"seed\": " + std::to_string(options.seed);
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--seed") {
      options.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value());
    } else if (flag == "--trace") {
      options.trace = std::stoi(value()) != 0;
    } else if (flag == "--trace-out") {
      options.trace_out = value();
    } else if (flag == "--print-golden") {
      options.print_golden = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return !options.workload.empty() && options.seconds > 0.0;
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int threads) {
  if (name == "sched_stream_torus") return make_stream_workload(true, seed);
  if (name == "sched_stream_clos") return make_stream_workload(false, seed);
  if (name == "sched_montecarlo") {
    return make_montecarlo_workload(seed, threads);
  }
  if (name == "contention_sim") return make_contention_workload(seed);
  return nullptr;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    if (!perfbench::parse(argc, argv, options)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload NAME --seed N --seconds S "
                   "--trace 0|1 [--trace-out FILE] [--print-golden]\n");
      return 2;
    }
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
