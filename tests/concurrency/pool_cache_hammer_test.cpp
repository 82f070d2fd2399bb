// TSan-targeted hammer: sweep::ThreadPool + the striped SweepContext memo
// caches driven hard from 8 workers with metrics AND tracing fully on. The
// CI `tsan` job runs this binary (and the rest of `ctest -L concurrency`)
// under -fsanitize=thread; unsynchronized access to the cache shards, the
// pool's share cursors and run bookkeeping, or the obs instruments shows
// up as a hard failure here instead of a once-a-month flaky digest.
//
// The assertions double as a determinism pin: every task's value must
// equal the serial recomputation, regardless of which worker claimed which
// chunk or won which cache miss — including at deliberately skewed task
// costs, where the claim schedule differs wildly between thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bgq/machine.hpp"
#include "iso/torus_bound.hpp"
#include "obs/metrics.hpp"
#include "sweep/cache.hpp"
#include "sweep/pool.hpp"
#include "sweep/runner.hpp"

namespace npac::sweep {
namespace {

constexpr int kThreads = 8;
constexpr std::int64_t kTasks = 400;

/// Deterministic busy work whose cost depends only on the task index:
/// every 16th task spins ~200x longer than its neighbors, so with several
/// workers the even shares seeded per deque drain at very different rates
/// and the fast workers must steal. The returned checksum folds into the
/// task result so the spin cannot be optimized away.
std::uint64_t skewed_spin(std::int64_t i) {
  const std::int64_t spins = (i % 16 == 0) ? 20000 : 100;
  std::uint64_t h = task_seed(7, i);
  for (std::int64_t k = 0; k < spins; ++k) h = task_seed(h, k);
  return h;
}

TEST(PoolCacheHammerTest, EightThreadsShareCachesUnderInstrumentation) {
  obs::Registry registry({/*tracing=*/true, /*trace_capacity=*/1 << 14});
  obs::ScopedRegistry installed(registry);

  SweepContext context;
  const topo::Dims dims = {8, 4, 4};
  const bgq::Machine machine = bgq::mira();

  // Serial reference, computed through a fresh context so the parallel run
  // below cannot "agree with itself" via the shared cache.
  std::vector<double> expected(static_cast<std::size_t>(kTasks));
  {
    SweepContext reference;
    for (std::int64_t i = 0; i < kTasks; ++i) {
      const std::int64_t t = 1 + (i % 50);
      expected[static_cast<std::size_t>(i)] =
          reference.torus_bound(dims, t).value;
    }
  }

  std::vector<double> got(static_cast<std::size_t>(kTasks), -1.0);
  std::atomic<std::uint64_t> geometry_rows{0};

  ThreadPool pool(kThreads);
  ASSERT_EQ(pool.num_threads(), kThreads);
  // Three rounds through the same caches: round 1 is mostly misses (every
  // worker racing to insert into the shards), rounds 2-3 are mostly hits —
  // both paths of MemoCache::get_or_compute get contended coverage.
  for (int round = 0; round < 3; ++round) {
    pool.run_indexed(kTasks, [&](std::int64_t i) {
      const std::int64_t t = 1 + (i % 50);
      got[static_cast<std::size_t>(i)] = context.torus_bound(dims, t).value;
      // A second cache with heavier values: the cuboid enumeration for a
      // rotating job size, same key set across all workers. Hits share one
      // object, so concurrent readers of the vector are also exercised.
      const std::int64_t midplanes = 1 + (i % 8);
      geometry_rows.fetch_add(
          context.enumerate_geometries(machine, midplanes)->size(),
          std::memory_order_relaxed);
      // Seeded per-task randomness, the sanctioned D2 pattern.
      (void)task_seed(1234, i);
    });
    for (std::int64_t i = 0; i < kTasks; ++i) {
      EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(i)],
                       expected[static_cast<std::size_t>(i)])
          << "task " << i << " round " << round;
    }
  }

  // Cache accounting adds up: every lookup was either a hit or a miss, and
  // the distinct-key count bounds the stored entries. (Concurrent misses
  // on one key may both compute — first insert wins — so misses can exceed
  // entries but lookups are conserved.)
  const CacheStats bounds = context.bound_stats();
  EXPECT_EQ(bounds.lookups(), static_cast<std::uint64_t>(3 * kTasks));
  EXPECT_GE(bounds.misses, 50u);
  const CacheStats geometries = context.geometry_stats();
  EXPECT_EQ(geometries.lookups(), static_cast<std::uint64_t>(3 * kTasks));
  EXPECT_GT(geometry_rows.load(), 0u);

  // Striping conservation: each lookup and entry is counted on exactly one
  // shard, so the per-shard counters reproduce the aggregates exactly even
  // after 8 workers hammered the shards concurrently.
  {
    const auto shards = context.geometry_shard_stats();
    std::uint64_t hits = 0, misses = 0;
    std::size_t entries = 0;
    for (const auto& shard : shards) {
      hits += shard.stats.hits;
      misses += shard.stats.misses;
      entries += shard.entries;
    }
    EXPECT_EQ(hits, geometries.hits);
    EXPECT_EQ(misses, geometries.misses);
    EXPECT_EQ(entries, 8u);  // 8 distinct (machine, midplanes) keys
  }

  // The instrumentation saw the work: pool counters sum across workers,
  // steal outcomes are tallied (their split depends on the schedule, but
  // every executed task is counted exactly once), and publishing the cache
  // snapshot is itself thread-safe.
  EXPECT_EQ(registry.counter_value("pool.tasks"),
            static_cast<std::uint64_t>(3 * kTasks));
  EXPECT_EQ(registry.counter_value("pool.runs"), 3u);
  context.publish_metrics(registry);
  EXPECT_EQ(registry.gauge_value("cache.bounds.hits"),
            static_cast<double>(bounds.hits));
  // Snapshotting concurrently-written instruments must be race-free too.
  EXPECT_FALSE(registry.metrics_json().empty());
  EXPECT_GT(registry.trace().size(), 0u);
}

TEST(PoolCacheHammerTest, SkewedCostsAreByteIdenticalAt1_2_7_16Threads) {
  // The determinism contract under the harshest schedule we can provoke:
  // heavily skewed task costs force the fast workers to steal the slow
  // workers' chunks, so 2, 7, and 16 workers each produce a wildly
  // different execution order — and exactly the same bytes. 7 and 16 also
  // exercise worker counts that do not divide the task count.
  SweepContext reference_context;
  const topo::Dims dims = {8, 4, 4};
  std::vector<std::uint64_t> reference(static_cast<std::size_t>(kTasks));
  {
    ThreadPool pool(1);
    pool.run_indexed(kTasks, [&](std::int64_t i) {
      const std::int64_t t = 1 + (i % 50);
      const double bound = reference_context.torus_bound(dims, t).value;
      reference[static_cast<std::size_t>(i)] =
          skewed_spin(i) ^ static_cast<std::uint64_t>(bound * 1e6);
    });
  }

  for (const int threads : {2, 7, 16}) {
    SweepContext context;
    std::vector<std::uint64_t> got(static_cast<std::size_t>(kTasks));
    ThreadPool pool(threads);
    ASSERT_EQ(pool.num_threads(), threads);
    pool.run_indexed(kTasks, [&](std::int64_t i) {
      const std::int64_t t = 1 + (i % 50);
      const double bound = context.torus_bound(dims, t).value;
      got[static_cast<std::size_t>(i)] =
          skewed_spin(i) ^ static_cast<std::uint64_t>(bound * 1e6);
    });
    EXPECT_EQ(got, reference) << "threads=" << threads;
  }
}

TEST(PoolCacheHammerTest, ExceptionsUnderContentionFailFastCleanly) {
  ThreadPool pool(kThreads);
  std::atomic<int> started{0};
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(
        pool.run_indexed(256,
                         [&](std::int64_t i) {
                           started.fetch_add(1, std::memory_order_relaxed);
                           if (i == 37) throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool must be reusable after a failed run.
    pool.run_indexed(8, [&](std::int64_t) {
      started.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_GT(started.load(), 0);
}

TEST(PoolCacheHammerTest, FailFastUnderStealingKeepsGridRowContext) {
  // The runner-layer fail-fast contract on the stealing executor: a row
  // that throws mid-grid — while the other workers are busy with stolen
  // rows — must skip unclaimed rows, drain in-flight ones, and surface the
  // *first* failing row with its label. Rows before the thrower are cheap
  // (worker 0 reaches row 17 quickly); rows after it are expensive until
  // the throw and then deliberately sleep, which parks every other worker
  // and hands the CPU to the failing one so the discard flag propagates —
  // making the skipped-work assertion robust on a loaded 1-CPU machine.
  BenchGrid grid;
  grid.columns = {"X"};
  grid.rows = 96;
  grid.label = [](std::int64_t i) { return "case" + std::to_string(i); };
  std::atomic<int> ran{0};
  std::atomic<bool> thrown{false};
  grid.cells = [&](std::int64_t i,
                   std::uint64_t) -> std::vector<std::string> {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (i == 17) {
      thrown.store(true, std::memory_order_release);
      throw std::runtime_error("boom");
    }
    if (i > 17) {
      if (thrown.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      } else {
        (void)skewed_spin(0);  // the heavy branch: keep thieves occupied
      }
    }
    return {std::to_string(i)};
  };
  for (const int threads : {2, 7}) {
    ran.store(0);
    thrown.store(false);
    ThreadPool pool(threads);
    try {
      run_grid(grid, pool, 42);
      FAIL() << "expected the failing row's exception to propagate";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("grid row 17 ('case17')"), std::string::npos)
          << what;
      EXPECT_NE(what.find("boom"), std::string::npos) << what;
    }
    // Fail fast actually skipped work: the 96-row grid must not have run
    // to completion (the margin tolerates every worker draining one
    // in-flight row plus a few claimed in the discard-propagation window).
    EXPECT_LT(ran.load(), 90) << "threads=" << threads;
    EXPECT_GE(ran.load(), 1) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace npac::sweep
