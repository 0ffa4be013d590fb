#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/check.h"

namespace kddn {
namespace {

thread_local bool t_in_worker = false;

/// Shared state of one ParallelFor invocation. Iterations are claimed from a
/// single atomic counter (dynamic scheduling); completion and exception
/// transport are guarded by the per-call mutex.
struct ForState {
  int64_t count = 0;
  const std::function<void(int64_t)>* fn = nullptr;
  std::atomic<int64_t> next{0};
  std::atomic<bool> cancelled{false};
  std::mutex mutex;
  std::condition_variable done;
  int pending_helpers = 0;
  std::exception_ptr error;

  void RunLoop() {
    while (!cancelled.load(std::memory_order_relaxed)) {
      const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) {
        return;
      }
      try {
        (*fn)(i);
      } catch (...) {
        cancelled.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) {
          error = std::current_exception();
        }
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ and drained.
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

bool ThreadPool::InWorker() { return t_in_worker; }

ThreadPool::ScopedWorkerMark::ScopedWorkerMark() : previous_(t_in_worker) {
  t_in_worker = true;
}

ThreadPool::ScopedWorkerMark::~ScopedWorkerMark() { t_in_worker = previous_; }

void ThreadPool::ParallelFor(int64_t count,
                             const std::function<void(int64_t)>& fn) {
  if (count <= 0) {
    return;
  }
  // Inline when there is no parallelism to exploit, or when called from a
  // worker thread: a worker blocking on sub-tasks it queued behind other
  // work would deadlock a pool this small, so nested regions serialize.
  if (workers_.empty() || count == 1 || t_in_worker) {
    for (int64_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }

  auto state = std::make_shared<ForState>();
  state->count = count;
  state->fn = &fn;
  const int helpers =
      static_cast<int>(std::min<int64_t>(workers_.size(), count - 1));
  state->pending_helpers = helpers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    KDDN_CHECK(!stopping_) << "ParallelFor on a stopping ThreadPool";
    for (int h = 0; h < helpers; ++h) {
      queue_.push_back([state] {
        state->RunLoop();
        std::lock_guard<std::mutex> state_lock(state->mutex);
        if (--state->pending_helpers == 0) {
          state->done.notify_all();
        }
      });
    }
  }
  wake_.notify_all();

  state->RunLoop();
  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(lock, [&] { return state->pending_helpers == 0; });
  if (state->error) {
    std::rethrow_exception(state->error);
  }
}

namespace {

std::mutex g_global_pool_mutex;
std::unique_ptr<ThreadPool> g_global_pool;

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool& GlobalThreadPool() {
  std::lock_guard<std::mutex> lock(g_global_pool_mutex);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(HardwareThreads());
  }
  return *g_global_pool;
}

void SetGlobalThreadPoolSize(int num_threads) {
  std::lock_guard<std::mutex> lock(g_global_pool_mutex);
  const int n = num_threads <= 0 ? HardwareThreads() : num_threads;
  if (g_global_pool && g_global_pool->num_threads() == n) {
    return;
  }
  g_global_pool = std::make_unique<ThreadPool>(n);
}

int GlobalThreadPoolSize() { return GlobalThreadPool().num_threads(); }

}  // namespace kddn
