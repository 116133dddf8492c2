#ifndef GVA_UTIL_THREAD_POOL_H_
#define GVA_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace gva {

/// Fixed-size worker pool for the parallel discord searches. A pool of
/// `num_threads` provides `num_threads` lanes of concurrency: it spawns
/// `num_threads - 1` workers and the calling thread contributes the last
/// lane inside ParallelFor, so ThreadPool(1) degenerates to plain inline
/// execution with no threads, no locks taken on the hot path, and
/// bit-identical behaviour to a hand-written loop.
///
/// The pool is reused across the rounds of a top-k search; workers park on a
/// condition variable between rounds.
///
/// Exception safety: a chunk body that throws does not tear down the pool.
/// The exception is caught inside the task wrapper (so the worker loop
/// keeps draining and destruction joins deterministically), and the first
/// one caught is rethrown on the calling thread after every chunk of that
/// ParallelFor has finished. The pool remains usable afterwards.
class ThreadPool {
 public:
  /// `num_threads` == 0 means ResolveThreadCount(0) (hardware concurrency).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of concurrency lanes (worker threads + the caller).
  size_t num_threads() const { return workers_.size() + 1; }

  /// Splits [begin, end) into at most num_threads() contiguous chunks and
  /// runs `body(chunk_begin, chunk_end, chunk_index)` for each, the first
  /// chunk on the calling thread. Blocks until every chunk has finished
  /// (the join gives the caller a happens-before edge over all chunk
  /// writes). Chunk boundaries depend on the thread count, so callers that
  /// promise thread-count-invariant results must reduce chunk outputs with
  /// an order-independent rule (e.g. arg-max with a total-order tie-break).
  /// If one or more chunk bodies throw, the first exception (in completion
  /// order) is rethrown here after all chunks have finished.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t, size_t, size_t)>& body);

  /// Maps the user-facing `num_threads` knob to an actual lane count:
  /// 0 means "all hardware threads" (at least 1); other values are taken
  /// as-is up to kMaxLanes, beyond which they are clamped. The clamp keeps
  /// a garbage knob value (e.g. "-1" wrapped through an unsigned parse)
  /// from trying to spawn billions of workers; results are
  /// thread-count-invariant, so clamping never changes any answer.
  static size_t ResolveThreadCount(size_t requested);

  /// Upper bound on concurrency lanes; far above any plausible hardware.
  static constexpr size_t kMaxLanes = 256;

 private:
  void WorkerLoop();

  /// Pops one queued task if available (mu_ must not be held).
  std::function<void()> TryPop();

  /// Runs one queued task, timing it into `threadpool.tasks.us`.
  void RunTimed(const std::function<void()>& task);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;

  // The pool's only record of its events: GlobalMetrics() handles resolved
  // once in the constructor, so a telemetry scrape sees the `threadpool.*`
  // series move *while* a search runs. Every pool shares them: counters
  // accumulate across pools, `queue.max_depth` is the process high-water
  // mark and `queue.depth` is last-write-wins, which is the honest reading
  // for "what is the queue doing right now". No-ops with -DGVA_OBS=OFF.
  obs::Gauge* queue_depth_;
  obs::Gauge* max_queue_depth_;
  obs::Gauge* pools_live_;
  /// Chunk tasks queued by ParallelFor (not the caller's inline chunk).
  obs::Counter* tasks_submitted_;
  /// Queued tasks run to completion, by a worker or the stealing caller.
  obs::Counter* tasks_executed_;
  /// The subset of executed tasks the caller stole while it waited.
  obs::Counter* tasks_stolen_;
  /// Chunks the caller ran inline (its own lane's chunk).
  obs::Counter* tasks_inline_;
  /// Wall-clock microseconds inside queued tasks (worker + stolen).
  obs::Counter* task_us_;
};

}  // namespace gva

#endif  // GVA_UTIL_THREAD_POOL_H_
