#ifndef KDDN_COMMON_JOB_EXECUTOR_H_
#define KDDN_COMMON_JOB_EXECUTOR_H_

#include <cstdint>
#include <functional>

#include "common/job_graph.h"
#include "common/thread_pool.h"

namespace kddn::jobs {

/// Work-stealing scheduler for JobGraph over the existing ThreadPool
/// (DESIGN.md §14). Construction is free (one pointer), so callers build one
/// on the stack wherever they have a pool.
///
/// Run(graph) seeds the graph's roots round-robin across one deque per
/// scheduling lane, then drives the lanes with a single pool->ParallelFor:
/// each lane pops its own deque LIFO (back) for locality, steals FIFO (front)
/// from other lanes when empty, and sleeps on a shared condition variable
/// when the whole run has no ready job. Completing a job counts down its
/// successors' atomic indegrees; a successor that reaches zero is pushed onto
/// the completing lane's deque (topological wakeup). Run is a barrier: it
/// returns after every job has run, rethrowing the first job exception (the
/// remaining jobs' bodies are cancelled, but the countdown still drains so
/// the graph stays reusable — the next Run resets the counters and starts
/// clean).
///
/// Determinism: a property of the graph, never of the schedule. The executor
/// guarantees exactly-once execution respecting the edges; any steal
/// interleaving is allowed, so graphs put every ordered reduction inside a
/// single fan-in job (see JobGraph).
///
/// Nesting: Run called from inside a pool worker (or on a 1-thread pool)
/// executes the graph inline in the canonical topological order — the same
/// rule ThreadPool::ParallelFor uses to stay deadlock-free on nested
/// parallelism.
///
/// Observability: every job body runs under a trace span named after the job
/// carrying the graph generation as its span arg, and under an
/// alloc::AllocScope tagged with the job name, so Chrome-trace exports show
/// cross-batch overlap and per-job allocation behaviour without any
/// instrumentation inside the job fns.
class JobExecutor {
 public:
  /// `pool` must outlive every call on this executor.
  explicit JobExecutor(ThreadPool* pool) : pool_(pool) {}

  /// Runs `graph` (which must be finalized) to completion. See class comment.
  void Run(JobGraph* graph);

  /// Work-stealing loop for flat fan-outs that need no edges (the trainer's
  /// scoring and evaluation loops): [0, count) is cut into contiguous blocks
  /// of at least `min_block` iterations — up to four blocks per pool thread,
  /// since stealing profits from slicing finer than the thread count —
  /// which are seeded round-robin across per-lane deques and stolen like
  /// graph jobs. fn(begin, end) calls must write disjoint outputs; blocks
  /// run in unspecified order. Inlines (ascending block order) on a
  /// 1-thread pool or when nested in a worker.
  void ParallelForBlocked(int64_t count, int64_t min_block,
                          const std::function<void(int64_t, int64_t)>& fn);

 private:
  struct RunState;
  void LaneLoop(RunState* state, int lane);
  /// Runs job `id`, releases its successors, and returns the bypass
  /// continuation: the first successor this completion made ready, which the
  /// caller executes directly without a deque round-trip (-1 if none).
  JobId ExecuteJob(RunState* state, int lane, JobId id);
  void RunInline(JobGraph* graph);

  ThreadPool* pool_;
};

}  // namespace kddn::jobs

#endif  // KDDN_COMMON_JOB_EXECUTOR_H_
