// Deterministic thread-pool executor for experiment sweeps.
//
// Design (cf. the lockless job-system idiom in SNIPPETS.md Snippet 2,
// stripped to what sweeps need):
//  * a fixed worker count chosen up front, with lock-free chunk claiming
//    inside a run: every run's index space is split into at most
//    workers * kChunksPerWorker contiguous chunks, and each worker owns one
//    share — an atomic cursor over its contiguous range of chunk ids. A
//    worker drains its own share in ascending index order with one
//    fetch_add per chunk, then walks the other shares round-robin and
//    claims from them the same way; it leaves the run once every share is
//    exhausted. No mutex, CAS retry or idle rescan sits on the claim path
//    (DESIGN.md decision #14 records why per-worker shares and not one
//    global cursor);
//  * range-granular claims: a chunk id names a contiguous index range
//    computed arithmetically from (n, chunk count), so a million-row
//    run_indexed claims as few chunks as a 24-row bench grid;
//  * index-addressed tasks: a run executes fn(0..n-1) exactly once each and
//    results are written to index-addressed slots, so the output is
//    independent of which worker runs which task — the claim schedule can
//    only change timing, never bytes;
//  * deterministic randomness: every task derives its RNG seed from
//    (base_seed, task_index) alone via task_seed(), never from thread ids
//    or scheduling order, so a sweep with threads=N is bit-identical to
//    threads=1 no matter who claimed what.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace npac::sweep {

/// Statistically independent, reproducible seed for one task of a run.
/// SplitMix64 finalizer over (base_seed, task_index) — the recommended
/// seeding scheme for parallel streams (Steele et al., OOPSLA '14).
std::uint64_t task_seed(std::uint64_t base_seed, std::int64_t task_index);

/// The worker count a ThreadPool(threads) will actually use: values < 1
/// select std::thread::hardware_concurrency(), floored at 1.
int resolved_thread_count(int threads);

class ThreadPool {
 public:
  /// Upper bound on chunks per worker share: a run is split into at most
  /// workers * kChunksPerWorker contiguous chunks (fewer when n is
  /// smaller — then a chunk is a single index).
  static constexpr std::int64_t kChunksPerWorker = 32;

  /// threads < 1 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return worker_count_; }

  /// Runs fn(i) for every i in [0, num_tasks) and blocks until all
  /// complete. The calling thread participates as worker #0, so a pool
  /// constructed with threads=1 runs everything inline in index order. If
  /// any task throws, the run fails fast: chunks and tasks not yet started
  /// are discarded, already-running tasks drain, and the first exception
  /// to be recorded is rethrown here.
  ///
  /// Observability: when an obs::Registry is installed, every run records
  /// per-worker counters (`pool.worker<k>.tasks`, `.busy_ns`, `.idle_ns`
  /// for the spawned workers' waits), pool totals (`pool.runs`,
  /// `pool.tasks`, `pool.busy_ns`), `pool.steals` (chunks claimed from
  /// another worker's share) and a `pool.queue_wait_us` histogram of chunk
  /// claim latencies. All of a run's counter updates are flushed before
  /// run_indexed returns, so a caller may read the registry immediately
  /// afterwards. With no registry installed each chunk pays one pointer
  /// load and one branch.
  void run_indexed(std::int64_t num_tasks,
                   const std::function<void(std::int64_t)>& fn);

 private:
  /// One worker's range of chunk ids [next, end), on its own cache line.
  /// `end` is written at run start under the mutex and read-only after.
  struct alignas(64) Share {
    std::atomic<std::int64_t> next{0};
    std::int64_t end = 0;
  };

  void worker_loop(int worker_index);
  /// Claims chunks until every share is exhausted. `fn` is the run's task
  /// body — read from fn_ under the mutex (or, for worker #0, the caller's
  /// own argument) so a late-waking worker never touches a cleared fn_.
  void work_through_run(int worker_index,
                        const std::function<void(std::int64_t)>& fn);
  /// Executes (or, after a failure, discards) the tasks of one chunk.
  void run_chunk(std::int64_t chunk, const std::function<void(std::int64_t)>& fn);
  /// The half-open index range of chunk `chunk` (balanced split of
  /// [0, num_tasks_) into num_chunks_ contiguous pieces).
  std::pair<std::int64_t, std::int64_t> chunk_range(std::int64_t chunk) const;
  void record_error();

  // --- cold-path coordination (mutex-guarded; touched per run, not per
  // --- task): run start/stop, worker sleep/wake, error capture.
  std::mutex mutex_;
  std::condition_variable work_ready_;  ///< new generation or stopping
  std::condition_variable quiescent_;   ///< workers_in_run_ reached zero
  const std::function<void(std::int64_t)>* fn_ = nullptr;
  std::int64_t num_tasks_ = 0;
  std::int64_t num_chunks_ = 0;
  std::uint64_t generation_ = 0;  ///< bumped per run; workers wait on it
  int workers_in_run_ = 0;        ///< spawned workers inside the run
  bool running_ = false;
  bool stopping_ = false;
  std::exception_ptr first_error_;
  std::chrono::steady_clock::time_point run_start_;  // for queue-wait metrics

  // --- hot-path state (lock-free): fail-fast and chunk claims.
  std::atomic<bool> failed_{false};  ///< set by the first error
  std::unique_ptr<Share[]> shares_;  ///< one per worker, index = worker

  int worker_count_ = 1;
  std::vector<std::thread> workers_;
};

/// Order-preserving parallel map: out[i] = fn(i). The result layout depends
/// only on n and fn, never on the pool size or the claim schedule.
template <typename T, typename Fn>
std::vector<T> parallel_map(ThreadPool& pool, std::int64_t n, Fn&& fn) {
  std::vector<T> out(static_cast<std::size_t>(n));
  pool.run_indexed(n, [&](std::int64_t i) {
    out[static_cast<std::size_t>(i)] = fn(i);
  });
  return out;
}

}  // namespace npac::sweep
