// Fixed-size thread pool, per-batch task groups, and blocked parallel-for.
//
// Batch experiment drivers evaluate hundreds of seeds per dataset; the seeds
// are independent, so the eval harness and the heavier benches fan them out
// over a pool. The pool is deliberately simple — a mutex-guarded queue, no
// work stealing — because tasks here are coarse (milliseconds to seconds).
//
// Two levels of completion tracking exist:
//   * TaskGroup — per-batch. Each group waits for exactly the tasks it
//     submitted and rethrows only its own first error. Two groups sharing one
//     pool are fully independent: neither blocks on (or steals exceptions
//     from) the other's tasks. BatchCluster's worker fleet and
//     ThreadPool::ParallelFor both wait through one.
//   * ThreadPool::Wait — whole-pool drain (every queued task from every
//     group). Kept for destructor semantics and for callers that raw-Submit
//     without a group.
//
// A TaskGroup::Wait() caller that is itself a pool worker helps execute its
// own group's queued tasks instead of sleeping, so nesting a group inside a
// pool task cannot deadlock even when every worker is blocked in a Wait().
// That nesting is real: EvaluateMethodsParallel runs each method as a task
// on SharedPool(), and LACA's Prepare builds its TNAM with ForEachBlock over
// SharedPoolOrSerial() — a second group on the same pool.
#ifndef LACA_COMMON_THREAD_POOL_HPP_
#define LACA_COMMON_THREAD_POOL_HPP_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace laca {

class TaskGroup;

/// A fixed pool of worker threads executing submitted tasks FIFO.
///
/// Tasks submitted directly via Submit() have their first exception captured
/// at pool level and rethrown from Wait(); tasks submitted through a
/// TaskGroup report to that group instead. Destruction waits for all
/// submitted tasks to finish.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 uses the hardware concurrency (at least
  /// one). Throws std::invalid_argument never; clamps instead.
  explicit ThreadPool(size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Blocks until all tasks finish, then joins the workers.
  ~ThreadPool();

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues an ungrouped task. Its first exception is captured at pool
  /// level and rethrown by Wait(). Prefer a TaskGroup when two batches can
  /// be in flight at once.
  void Submit(std::function<void()> task);

  /// Blocks until EVERY submitted task (from every group) has finished —
  /// a whole-pool drain, not a batch wait. Rethrows the first exception of
  /// an ungrouped task, if any (once). Grouped tasks rethrow from their
  /// group's Wait() instead.
  void Wait();

  /// Runs fn(i) for i in [begin, end) across the pool in contiguous blocks,
  /// then waits. `fn` must be safe to call concurrently for distinct i.
  /// Internally batch-scoped: concurrent ParallelFor calls on one pool do
  /// not wait on each other's blocks or steal each other's exceptions.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;  // null for ungrouped Submit()
  };

  void SubmitTask(Task task) LACA_EXCLUDES(mutex_);
  // Pops and runs the first queued task of `group` on the calling thread.
  // Returns false if none is queued. Used by TaskGroup::Wait to help-run.
  bool RunOneTaskFromGroup(TaskGroup* group) LACA_EXCLUDES(mutex_);
  void RunTask(Task task) LACA_EXCLUDES(mutex_);
  void FinishTask() LACA_EXCLUDES(mutex_);
  void WorkerLoop() LACA_EXCLUDES(mutex_);
  // True when every submitted task has finished (the Wait()/dtor drain
  // condition: nothing queued, nothing running).
  bool DrainedLocked() const LACA_REQUIRES(mutex_) {
    return queue_.empty() && in_flight_ == 0;
  }

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::deque<Task> queue_ LACA_GUARDED_BY(mutex_);
  CondVar task_ready_;
  CondVar all_done_;
  size_t in_flight_ LACA_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ LACA_GUARDED_BY(mutex_) = false;
  std::exception_ptr first_error_ LACA_GUARDED_BY(mutex_);
};

/// A batch of tasks on a shared ThreadPool with private completion and error
/// tracking: Wait() returns when exactly this group's tasks are done and
/// rethrows only this group's first exception. Reusable after Wait(). The
/// group must outlive its tasks (the destructor waits, without rethrowing).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Waits for any still-pending tasks (exceptions are swallowed — call
  /// Wait() first if you need them).
  ~TaskGroup();

  /// Enqueues a task belonging to this group.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted to THIS group has finished, helping
  /// to execute the group's queued tasks on the calling thread. If any task
  /// threw, the group's first captured exception is rethrown here (once).
  void Wait();

  /// Runs fn(i) for i in [begin, end) as tasks of this group, then Wait()s.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

 private:
  friend class ThreadPool;

  void OnError(std::exception_ptr error) LACA_EXCLUDES(mutex_);
  void OnTaskDone() LACA_EXCLUDES(mutex_);

  ThreadPool& pool_;
  Mutex mutex_;
  CondVar done_;
  size_t pending_ LACA_GUARDED_BY(mutex_) = 0;
  std::exception_ptr first_error_ LACA_GUARDED_BY(mutex_);
};

/// Process-wide lazily-constructed pool sized to the hardware concurrency.
/// One-shot fan-outs (the free ParallelFor, parallel method evaluation) run
/// on it through TaskGroups instead of paying thread spawn/join per call.
/// Do not block a SharedPool() worker on work that only other SharedPool()
/// workers can perform (TaskGroup::Wait is safe: it helps).
ThreadPool& SharedPool();

/// Runs fn(i) for i in [begin, end) on the shared pool, using at most
/// `num_threads` concurrent blocks (0 = hardware concurrency). Convenience
/// for one-shot fan-outs; no per-call thread spawn cost.
void ParallelFor(size_t begin, size_t end, size_t num_threads,
                 const std::function<void(size_t)>& fn);

/// SharedPool() on machines with more than one hardware thread, null (=
/// run serially) otherwise. The deterministic LA kernels produce identical
/// results serial or pooled, so on a single-core host — where every task
/// handoff forces a context switch and the caller would help-run everything
/// anyway — skipping the pool is pure win (measured ~6x on TNAM builds).
ThreadPool* SharedPoolOrSerial();

/// Deterministic blocked fan-out for the dense-LA kernels: partitions
/// [0, total) into fixed-size blocks of `block_size` (chosen by the caller
/// from the PROBLEM shape, never from the worker count) and runs
/// fn(block, lo, hi) for each block, in block order when serial.
///
/// With a null pool (or a single block) the blocks run inline on the calling
/// thread; otherwise they fan out over the pool as one TaskGroup (the caller
/// help-runs, so nesting inside a pool worker cannot deadlock). Because the
/// partition is independent of the worker count, any kernel whose blocks
/// write disjoint outputs and keep a fixed intra-block operation order
/// produces bit-identical results at every thread count — the determinism
/// contract of the attribute plane (DESIGN.md §6).
void ForEachBlock(ThreadPool* pool, size_t total, size_t block_size,
                  const std::function<void(size_t block, size_t lo, size_t hi)>& fn);

/// The shared "stay serial below a work threshold" gate of the blocked LA
/// kernels: returns `pool` when `work >= min_work`, null otherwise. Gating
/// never changes results (blocked runs are bit-identical to serial); it only
/// keeps task dispatch from dominating small problems.
inline ThreadPool* GateBySize(ThreadPool* pool, uint64_t work,
                              uint64_t min_work) {
  return work >= min_work ? pool : nullptr;
}

}  // namespace laca

#endif  // LACA_COMMON_THREAD_POOL_HPP_
