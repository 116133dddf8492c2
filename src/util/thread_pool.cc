#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>

namespace gva {

size_t ThreadPool::ResolveThreadCount(size_t requested) {
  if (requested != 0) {
    return std::min(requested, kMaxLanes);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t num_threads) {
  obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  queue_depth_ = &metrics.gauge("threadpool.queue.depth");
  max_queue_depth_ = &metrics.gauge("threadpool.queue.max_depth");
  pools_live_ = &metrics.gauge("threadpool.pools.live");
  tasks_submitted_ = &metrics.counter("threadpool.tasks.submitted");
  tasks_executed_ = &metrics.counter("threadpool.tasks.executed");
  tasks_stolen_ = &metrics.counter("threadpool.tasks.stolen");
  tasks_inline_ = &metrics.counter("threadpool.tasks.inline");
  task_us_ = &metrics.counter("threadpool.tasks.us");
  pools_live_->Add(1);
  const size_t lanes = ResolveThreadCount(num_threads);
  workers_.reserve(lanes - 1);
  for (size_t i = 0; i + 1 < lanes; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  pools_live_->Add(-1);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ set and nothing left to run
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    RunTimed(task);
    tasks_executed_->Add();
  }
}

std::function<void()> ThreadPool::TryPop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) {
    return nullptr;
  }
  std::function<void()> task = std::move(queue_.front());
  queue_.pop_front();
  queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  return task;
}

void ThreadPool::RunTimed(const std::function<void()>& task) {
  if constexpr (obs::kEnabled) {
    const auto start = std::chrono::steady_clock::now();
    task();
    task_us_->Add(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  } else {
    task();
  }
}

void ThreadPool::ParallelFor(
    size_t begin, size_t end,
    const std::function<void(size_t, size_t, size_t)>& body) {
  if (begin >= end) {
    return;
  }
  const size_t n = end - begin;
  const size_t chunks = std::min(n, num_threads());
  if (chunks == 1) {
    tasks_inline_->Add();
    body(begin, end, 0);  // single lane: exceptions propagate directly
    return;
  }

  // Contiguous chunks, remainder spread over the leading chunks.
  const size_t base = n / chunks;
  const size_t extra = n % chunks;
  auto chunk_begin = [&](size_t c) {
    return begin + c * base + std::min(c, extra);
  };

  // Per-ParallelFor completion state. Chunk tasks catch everything their
  // body throws: the worker loop must never unwind (that would strand the
  // queue and turn shutdown into std::terminate), so the first exception is
  // parked here and rethrown on the calling thread after the join.
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t remaining = chunks - 1;
  std::exception_ptr first_error;
  auto finish_chunk = [&](std::exception_ptr error) {
    std::lock_guard<std::mutex> done_lock(done_mu);
    if (error != nullptr && first_error == nullptr) {
      first_error = error;
    }
    if (--remaining == 0) {
      done_cv.notify_one();
    }
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t c = 1; c < chunks; ++c) {
      queue_.emplace_back([&, c] {
        std::exception_ptr error;
        try {
          body(chunk_begin(c), chunk_begin(c + 1), c);
        } catch (...) {
          error = std::current_exception();
        }
        finish_chunk(error);
      });
    }
    tasks_submitted_->Add(chunks - 1);
    max_queue_depth_->RaiseTo(static_cast<int64_t>(queue_.size()));
    queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  wake_.notify_all();

  // The caller's lane: its own chunk first. Its exception must not skip the
  // join below — the queued chunks still reference this frame's state.
  std::exception_ptr caller_error;
  tasks_inline_->Add();
  try {
    body(chunk_begin(0), chunk_begin(1), 0);
  } catch (...) {
    caller_error = std::current_exception();
  }

  // Instead of idle-blocking on the join, the caller steals queued tasks
  // and runs them itself. With chunks == lanes the queue is normally empty
  // by now, but if a worker was descheduled (or the pool is shared), the
  // steal keeps the caller productive and shortens the tail.
  for (;;) {
    {
      std::lock_guard<std::mutex> done_lock(done_mu);
      if (remaining == 0) {
        break;
      }
    }
    if (std::function<void()> task = TryPop()) {
      RunTimed(task);
      tasks_executed_->Add();  // a queued task ran, whoever ran it
      tasks_stolen_->Add();
      continue;
    }
    std::unique_lock<std::mutex> done_lock(done_mu);
    done_cv.wait(done_lock, [&] { return remaining == 0; });
    break;
  }

  if (caller_error != nullptr) {
    std::rethrow_exception(caller_error);
  }
  std::lock_guard<std::mutex> done_lock(done_mu);
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace gva
