#ifndef KDDN_COMMON_THREAD_POOL_H_
#define KDDN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kddn {

/// Fixed-size fork/join thread pool (a single shared queue guarded by one
/// mutex keeps scheduling simple and sanitizer-friendly) whose threads run
/// jobs::JobExecutor's scheduling lanes. Library code fans out through the
/// executor (JobExecutor::Run for job graphs, JobExecutor::ParallelForBlocked
/// for flat loops), never through ParallelFor directly.
///
/// `ThreadPool(n)` provides n-way parallelism: the pool spawns n-1 worker
/// threads and the thread calling ParallelFor always participates, so a pool
/// of size 1 owns no threads and runs everything inline. ParallelFor makes
/// no ordering promises; determinism is the job of the executor's callers,
/// which write disjoint outputs or reduce in a fixed order (DESIGN.md §5).
class ThreadPool {
 public:
  /// Creates a pool giving `num_threads`-way parallelism (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Joins all workers; pending ParallelFor calls finish first (ParallelFor
  /// is synchronous, so nothing can be queued when the destructor runs).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Degree of parallelism (worker threads + the calling thread).
  int num_threads() const { return num_threads_; }

  /// Runs fn(i) for every i in [0, count), distributing iterations across the
  /// workers and the calling thread, and blocks until all complete. Safe to
  /// call with count <= 0 (returns immediately) and reentrantly from inside a
  /// worker (the nested call runs inline on that worker, which also prevents
  /// fork/join deadlock). The first exception thrown by fn is rethrown on the
  /// calling thread after remaining iterations are cancelled.
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& fn);

  /// True while the calling thread is one of *any* pool's workers. Used to
  /// run nested parallel regions inline.
  static bool InWorker();

  /// Marks the calling thread as a pool worker for the current scope, so
  /// nested parallel regions (ParallelFor, jobs::JobExecutor::Run) run
  /// inline. jobs::JobExecutor applies this to its scheduling lanes: a lane
  /// may block waiting for ready jobs, so a job body must never fork/join
  /// through the pool — it could deadlock against its own run's sleeping
  /// lanes — and inlining nested regions is exactly the rule pool workers
  /// already follow.
  class ScopedWorkerMark {
   public:
    ScopedWorkerMark();
    ~ScopedWorkerMark();

    ScopedWorkerMark(const ScopedWorkerMark&) = delete;
    ScopedWorkerMark& operator=(const ScopedWorkerMark&) = delete;

   private:
    bool previous_;
  };

 private:
  void WorkerLoop();

  int num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
};

/// Process-wide pool shared by the tensor kernels and any caller that does
/// not own a private pool. Defaults to std::thread::hardware_concurrency()
/// threads; binaries expose this as --num_threads.
ThreadPool& GlobalThreadPool();

/// Resizes the global pool (recreating it). `num_threads` <= 0 restores the
/// hardware-concurrency default. Must not race with in-flight ParallelFor
/// calls on the global pool.
void SetGlobalThreadPoolSize(int num_threads);

/// Current size of the global pool (creating it on first use).
int GlobalThreadPoolSize();

}  // namespace kddn

#endif  // KDDN_COMMON_THREAD_POOL_H_
