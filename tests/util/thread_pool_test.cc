#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/session.h"

namespace gva {
namespace {

TEST(ThreadPoolTest, ResolveThreadCountMapsZeroToHardware) {
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(7), 7u);
}

TEST(ThreadPoolTest, ResolveThreadCountClampsAbsurdRequests) {
  // A "-1" that went through an unsigned parse must not translate into an
  // attempt to spawn SIZE_MAX workers.
  EXPECT_EQ(ThreadPool::ResolveThreadCount(ThreadPool::kMaxLanes),
            ThreadPool::kMaxLanes);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(ThreadPool::kMaxLanes + 1),
            ThreadPool::kMaxLanes);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(static_cast<size_t>(-1)),
            ThreadPool::kMaxLanes);
}

TEST(ThreadPoolTest, SingleLanePoolSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(101);
    for (auto& h : hits) {
      h.store(0);
    }
    pool.ParallelFor(0, hits.size(),
                     [&](size_t begin, size_t end, size_t /*chunk*/) {
                       for (size_t i = begin; i < end; ++i) {
                         hits[i].fetch_add(1);
                       }
                     });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ChunkIndicesAreDistinctAndBounded) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<size_t> seen;
  pool.ParallelFor(10, 90, [&](size_t begin, size_t end, size_t chunk) {
    EXPECT_LT(begin, end);
    EXPECT_LT(chunk, pool.num_threads());
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(chunk);
  });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(ThreadPoolTest, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](size_t, size_t, size_t) { ++calls; });
  pool.ParallelFor(7, 3, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, RangeSmallerThanLanesStillCovers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) {
    h.store(0);
  }
  pool.ParallelFor(0, hits.size(),
                   [&](size_t begin, size_t end, size_t /*chunk*/) {
                     for (size_t i = begin; i < end; ++i) {
                       hits[i].fetch_add(1);
                     }
                   });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ReusableAcrossRounds) {
  // The searches reuse one pool for every top-k round; sums must stay
  // correct when ParallelFor is invoked repeatedly on the same pool.
  ThreadPool pool(3);
  std::vector<uint64_t> values(1000);
  std::iota(values.begin(), values.end(), 0);
  const uint64_t expected = 1000ull * 999ull / 2;
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(0, values.size(),
                     [&](size_t begin, size_t end, size_t /*chunk*/) {
                       uint64_t local = 0;
                       for (size_t i = begin; i < end; ++i) {
                         local += values[i];
                       }
                       sum.fetch_add(local);
                     });
    ASSERT_EQ(sum.load(), expected) << "round " << round;
  }
}

TEST(ThreadPoolTest, JoinPublishesChunkWrites) {
  // ParallelFor must give the caller a happens-before edge over worker
  // writes: plain (non-atomic) writes to disjoint slices are visible after
  // the call returns. This is the access pattern of the brute-force search.
  ThreadPool pool(4);
  std::vector<double> out(4096, -1.0);
  pool.ParallelFor(0, out.size(),
                   [&](size_t begin, size_t end, size_t /*chunk*/) {
                     for (size_t i = begin; i < end; ++i) {
                       out[i] = static_cast<double>(i) * 0.5;
                     }
                   });
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<double>(i) * 0.5);
  }
}

TEST(ThreadPoolTest, ThrowingBodyRethrowsOnCallerAndPoolSurvives) {
  // Regression: a chunk body that throws used to leave ParallelFor's
  // completion state torn (workers could still reference the dead frame) and
  // an exception escaping the worker loop would std::terminate. Now the
  // first exception must surface on the calling thread after all chunks of
  // that ParallelFor have drained, with the pool fully usable afterwards.
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.ParallelFor(0, 64,
                         [&](size_t begin, size_t end, size_t /*chunk*/) {
                           ran.fetch_add(static_cast<int>(end - begin));
                           if (begin == 0) {
                             throw std::runtime_error("chunk failed");
                           }
                         }),
        std::runtime_error)
        << "threads " << threads;
    // Every chunk ran to the throw point or completion — none was stranded.
    EXPECT_EQ(ran.load(), 64) << "threads " << threads;

    // The pool is reusable: the next ParallelFor still covers the range.
    std::atomic<int> hits{0};
    pool.ParallelFor(0, 100, [&](size_t begin, size_t end, size_t /*chunk*/) {
      hits.fetch_add(static_cast<int>(end - begin));
    });
    EXPECT_EQ(hits.load(), 100) << "threads " << threads;
    // Destructor must join cleanly (exercised at scope exit).
  }
}

TEST(ThreadPoolTest, EveryChunkThrowingStillDrainsAndRethrowsOne) {
  ThreadPool pool(4);
  std::atomic<int> attempts{0};
  EXPECT_THROW(pool.ParallelFor(0, 4,
                                [&](size_t, size_t, size_t chunk) {
                                  attempts.fetch_add(1);
                                  throw std::runtime_error(
                                      "chunk " + std::to_string(chunk));
                                }),
               std::runtime_error);
  EXPECT_EQ(attempts.load(), 4);
}

/// The pool's `threadpool.*` series in the global registry. The pool
/// writes them and nothing resets them, so tests read deltas.
struct PoolSeries {
  uint64_t submitted = 0;
  uint64_t executed = 0;
  uint64_t stolen = 0;
  uint64_t inline_tasks = 0;
  int64_t max_depth = 0;
};

PoolSeries ReadPoolSeries() {
  obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  PoolSeries s;
  s.submitted = metrics.counter("threadpool.tasks.submitted").value();
  s.executed = metrics.counter("threadpool.tasks.executed").value();
  s.stolen = metrics.counter("threadpool.tasks.stolen").value();
  s.inline_tasks = metrics.counter("threadpool.tasks.inline").value();
  s.max_depth = metrics.gauge("threadpool.queue.max_depth").value();
  return s;
}

TEST(ThreadPoolTest, StatsCountSubmittedExecutedAndInline) {
  if constexpr (!obs::kEnabled) {
    // Pool series are telemetry: with GVA_OBS=OFF the counters are empty
    // no-ops and read zero (unlike the distance-call split, which is an
    // algorithm output and always counts).
    {
      ThreadPool zpool(4);
      zpool.ParallelFor(0, 400, [&](size_t, size_t, size_t) {});
    }
    EXPECT_EQ(ReadPoolSeries().submitted, 0u);
    EXPECT_EQ(ReadPoolSeries().inline_tasks, 0u);
    GTEST_SKIP() << "pool series compile to no-ops with GVA_OBS=OFF";
  }
  const PoolSeries before = ReadPoolSeries();
  constexpr int kRounds = 10;
  {
    ThreadPool pool(4);
    for (int round = 0; round < kRounds; ++round) {
      pool.ParallelFor(0, 400, [&](size_t, size_t, size_t) {});
    }
  }  // joined: a worker counts its task after the task released ParallelFor
  const PoolSeries after = ReadPoolSeries();
  const uint64_t submitted = after.submitted - before.submitted;
  // 4 lanes over 400 indices → 3 queued chunks + 1 inline chunk per round.
  EXPECT_EQ(submitted, static_cast<uint64_t>(3 * kRounds));
  EXPECT_EQ(after.inline_tasks - before.inline_tasks,
            static_cast<uint64_t>(kRounds));
  // Every queued task ran somewhere: a worker or the stealing caller.
  EXPECT_EQ(after.executed - before.executed, submitted);
  EXPECT_LE(after.stolen - before.stolen, submitted);
  EXPECT_GE(after.max_depth, 1);
  EXPECT_LE(after.max_depth, std::max<int64_t>(before.max_depth, 3));
}

TEST(ThreadPoolTest, SingleLaneStatsAreInlineOnly) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "pool series compile to no-ops with GVA_OBS=OFF";
  }
  const PoolSeries before = ReadPoolSeries();
  {
    ThreadPool pool(1);
    pool.ParallelFor(0, 100, [&](size_t, size_t, size_t) {});
  }
  const PoolSeries after = ReadPoolSeries();
  EXPECT_EQ(after.inline_tasks - before.inline_tasks, 1u);
  EXPECT_EQ(after.submitted, before.submitted);
  EXPECT_EQ(after.executed, before.executed);
  EXPECT_EQ(after.stolen, before.stolen);
  EXPECT_EQ(after.max_depth, before.max_depth);
}

TEST(ThreadPoolTest, LivePoolsGaugeSurvivesCaptureSession) {
  // A pool built before a metrics session and destroyed inside it takes
  // back exactly its own increment: the session must not have zeroed the
  // gauge under it (which would leave it at -1).
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "metrics compiled out";
  }
  obs::Gauge& live = obs::GlobalMetrics().gauge("threadpool.pools.live");
  const int64_t before = live.value();
  auto pool = std::make_unique<ThreadPool>(2);
  EXPECT_EQ(live.value(), before + 1);
  const std::string metrics_path =
      ::testing::TempDir() + "gva_pools_live_metrics.json";
  {
    obs::ObsSession::Options options;
    options.metrics_path = metrics_path;
    options.announce = false;
    obs::ObsSession session(options);
    pool.reset();
    EXPECT_EQ(live.value(), before);
  }
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace gva
