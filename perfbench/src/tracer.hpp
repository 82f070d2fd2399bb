// Span recorder for the benchmark's traced mode.
//
// Every layer is measured from outside: the benchmark opens a Span around
// each call it makes into a library seam (directly, or from the timing
// forwarders in forwarders.hpp). A span records its layer, start, end, the
// enclosing span on the same thread and the case it belongs to. Self time
// (span minus the child spans it encloses) is accumulated online per layer,
// so the per-layer table needs no post-processing; the first kMaxSpans
// spans are also kept in memory for the Chrome trace_event export.
//
// Tracing is off by default. With it off a Span costs one relaxed atomic
// load and a branch, so the untraced end-to-end run and the traced run use
// the same code.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kRound,           ///< bench.round: work of a round not inside any layer
  kAllocConstruct,  ///< core.alloc.construct: core::make_allocator
  kTryPlace,        ///< core.alloc.try_place
  kRelease,         ///< core.alloc.release
  kQualities,       ///< core.alloc.qualities: candidate_qualities
  kSched,           ///< core.sched: StreamingScheduler::run
  kNext,            ///< sweep.trace.next: JobSource::next
  kSink,            ///< bench.sink: the ScheduledJobSink (checks + digest)
  kPoolRun,         ///< sweep.pool.run: ThreadPool::run_indexed
  kPoolTask,        ///< sweep.pool.task: one task body on a pool worker
  kOracle,          ///< sweep.cache.oracle: PartitionOracle lookups
  kRouteAll,        ///< simnet.route_all
  kCompletion,      ///< simnet.completion: Network::channel_seconds
  kSimmpi,          ///< simmpi: strassen::simulate_caps_communication
  kBisection,       ///< iso.bisection: topology_bisection / predicted_speedup
  kTopoBuild,       ///< topo.build: topo::make_* and network construction
  kCount
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

const char* layer_name(Layer layer);

/// Event counts recorded at the same seams as the spans.
enum class Counter : std::uint8_t {
  kTryPlaceFails,  ///< try_place calls that returned nullopt
  kPoolStartWaitNs,  ///< per worker and pool run: run start -> first task
  kCount
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// Spans kept for the trace export (keep-first; later spans still count
/// into the per-layer totals).
inline constexpr std::size_t kMaxSpans = 100000;

struct SpanRecord {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1: a root span
  std::int64_t case_id = -1;
  int thread = 0;
  Layer layer = Layer::kRound;
};

/// Per-layer totals summed over every thread that recorded spans.
struct LayerTotals {
  std::array<std::uint64_t, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> span_ns{};
  std::array<std::uint64_t, kLayerCount> calls{};
  std::array<std::uint64_t, kCounterCount> counters{};
  std::size_t kept_spans = 0;
  std::size_t dropped_spans = 0;
};

/// Turns span recording on or off. Flip only while no span is open.
void set_tracing(bool enabled);

inline std::atomic<bool>& tracing_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

inline bool tracing() { return tracing_flag().load(std::memory_order_relaxed); }

/// Nanoseconds since the process's tracer epoch (steady clock).
std::uint64_t now_ns();

/// Case id attached to the spans this thread opens from now on.
void set_case(std::int64_t case_id);

/// Adds to a counter of the calling thread (only while tracing).
void count(Counter counter, std::uint64_t amount);

/// Id of the innermost open span on this thread, -1 when none — used to
/// parent a pool task to the run_indexed span on another thread.
std::int64_t current_span();

/// RAII span. `parent` overrides the enclosing span of this thread for the
/// export (cross-thread parents); self time is always charged against the
/// enclosing span on the same thread.
class Span {
 public:
  explicit Span(Layer layer, std::int64_t parent = -2) {
    if (tracing()) open(layer, parent);
  }
  ~Span() {
    if (open_) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(Layer layer, std::int64_t parent);
  void close();
  bool open_ = false;
};

/// Sums every thread's totals. Call while no span is open.
LayerTotals collect();

/// Clears every thread's totals and kept spans. Call while no span is open.
void reset();

/// Writes the kept spans as Chrome trace_event JSON (opens in Perfetto and
/// chrome://tracing). Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path);

}  // namespace perfbench
