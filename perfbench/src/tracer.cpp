#include "tracer.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

struct OpenSpan {
  std::uint64_t start_ns = 0;
  std::uint64_t child_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  Layer layer = Layer::kRound;
};

/// One thread's recorder. Owned by the registry, so it outlives its thread
/// and collect() may read it after the thread has gone.
struct ThreadLog {
  int thread = 0;
  std::int64_t next_local = 0;
  std::int64_t case_id = -1;
  std::vector<OpenSpan> stack;
  std::array<std::uint64_t, kLayerCount> self_ns{};
  std::array<std::uint64_t, kLayerCount> span_ns{};
  std::array<std::uint64_t, kLayerCount> calls{};
  std::array<std::uint64_t, kCounterCount> counters{};
  std::vector<SpanRecord> spans;
  std::size_t dropped = 0;
};

struct Registry {
  std::mutex mutex;  // guards logs
  std::vector<std::unique_ptr<ThreadLog>> logs;
  std::atomic<std::size_t> kept{0};
};

Registry& registry() {
  static Registry instance;
  return instance;
}

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

ThreadLog& thread_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.logs.push_back(std::make_unique<ThreadLog>());
    log = reg.logs.back().get();
    log->thread = static_cast<int>(reg.logs.size()) - 1;
  }
  return *log;
}

constexpr const char* kLayerNames[kLayerCount] = {
    "bench.round",         "core.alloc.construct", "core.alloc.try_place",
    "core.alloc.release",  "core.alloc.qualities", "core.sched",
    "sweep.trace.next",    "bench.sink",           "sweep.pool.run",
    "sweep.pool.task",     "sweep.cache.oracle",   "simnet.route_all",
    "simnet.completion",   "simmpi",               "iso.bisection",
    "topo.build",
};

}  // namespace

const char* layer_name(Layer layer) {
  return kLayerNames[static_cast<std::size_t>(layer)];
}

void set_tracing(bool enabled) {
  tracing_flag().store(enabled, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - kEpoch)
          .count());
}

void set_case(std::int64_t case_id) { thread_log().case_id = case_id; }

void count(Counter counter, std::uint64_t amount) {
  if (!tracing()) return;
  thread_log().counters[static_cast<std::size_t>(counter)] += amount;
}

std::int64_t current_span() {
  const ThreadLog& log = thread_log();
  return log.stack.empty() ? -1 : log.stack.back().id;
}

void Span::open(Layer layer, std::int64_t parent) {
  ThreadLog& log = thread_log();
  OpenSpan span;
  span.layer = layer;
  span.id = (static_cast<std::int64_t>(log.thread) << 40) | log.next_local++;
  span.parent = parent != -2          ? parent
                : log.stack.empty()   ? -1
                                      : log.stack.back().id;
  span.start_ns = now_ns();
  log.stack.push_back(span);
  open_ = true;
}

void Span::close() {
  const std::uint64_t end = now_ns();
  ThreadLog& log = thread_log();
  const OpenSpan span = log.stack.back();
  log.stack.pop_back();
  const std::uint64_t duration = end - span.start_ns;
  const auto layer = static_cast<std::size_t>(span.layer);
  log.span_ns[layer] += duration;
  log.self_ns[layer] +=
      duration > span.child_ns ? duration - span.child_ns : 0;
  ++log.calls[layer];
  if (!log.stack.empty()) log.stack.back().child_ns += duration;

  Registry& reg = registry();
  if (reg.kept.load(std::memory_order_relaxed) < kMaxSpans &&
      reg.kept.fetch_add(1, std::memory_order_relaxed) < kMaxSpans) {
    log.spans.push_back({span.start_ns, end, span.id, span.parent,
                         log.case_id, log.thread, span.layer});
  } else {
    ++log.dropped;
  }
}

LayerTotals collect() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  LayerTotals totals;
  for (const auto& log : reg.logs) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      totals.self_ns[i] += log->self_ns[i];
      totals.span_ns[i] += log->span_ns[i];
      totals.calls[i] += log->calls[i];
    }
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      totals.counters[i] += log->counters[i];
    }
    totals.kept_spans += log->spans.size();
    totals.dropped_spans += log->dropped;
  }
  return totals;
}

void reset() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& log : reg.logs) {
    log->self_ns.fill(0);
    log->span_ns.fill(0);
    log->calls.fill(0);
    log->counters.fill(0);
    log->spans.clear();
    log->dropped = 0;
  }
  reg.kept.store(0, std::memory_order_relaxed);
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
  bool first = true;
  for (const auto& log : reg.logs) {
    std::fprintf(out,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s%d\"}}",
                 first ? "" : ",\n", log->thread,
                 log->thread == 0 ? "main " : "worker ", log->thread);
    first = false;
    for (const SpanRecord& span : log->spans) {
      std::fprintf(out,
                   ",\n{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"perfbench\","
                   "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%lld,\"parent\":%lld,\"case\":%lld}}",
                   layer_name(span.layer), span.thread,
                   static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   static_cast<long long>(span.id),
                   static_cast<long long>(span.parent),
                   static_cast<long long>(span.case_id));
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
