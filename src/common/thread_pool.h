// A fixed-size worker pool draining a bounded MPMC task queue, for any
// subsystem that needs "run these closures on N threads, with
// backpressure": freshen::par's shared pool (common/parallel.h) and
// LineServer's connection handlers (serve/server.h).
//
// Contract:
//   * TrySubmit never blocks: a full queue returns ResourceExhausted
//     immediately (the caller decides whether that is a drop or a retry).
//   * The destructor drains outstanding tasks and joins all workers
//     (join-on-destruct: no detached threads, ever), so a coordinator that
//     needs a batch finished scopes the pool around it.
//   * Exception-free: tasks must not throw; the pool's own API reports
//     failure through Status only.
#ifndef FRESHEN_COMMON_THREAD_POOL_H_
#define FRESHEN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace freshen {

/// Fixed-size thread pool with a bounded work queue and fail-fast submit.
class ThreadPool {
 public:
  struct Options {
    /// Worker threads. Must be >= 1.
    size_t num_threads = 4;
    /// Maximum tasks waiting in the queue (excluding tasks already running).
    /// Must be >= 1. TrySubmit fails fast once this many tasks are pending.
    size_t queue_capacity = 1024;
  };

  /// Starts `options.num_threads` workers immediately. Invalid options are
  /// clamped to 1 (the pool cannot report Status from a constructor; callers
  /// wanting validation should check options themselves).
  explicit ThreadPool(Options options);

  /// Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution. Returns ResourceExhausted without
  /// blocking when the queue is at capacity, FailedPrecondition after the
  /// pool started shutting down.
  Status TrySubmit(std::function<void()> task);

 private:
  void WorkerLoop();

  const size_t queue_capacity_;
  std::mutex mu_;
  std::condition_variable work_available_;  // Signals workers.
  std::condition_variable all_idle_;        // Signals the destructor.
  std::deque<std::function<void()>> queue_;
  size_t active_tasks_ = 0;  // Tasks popped but not yet finished.
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace freshen

#endif  // FRESHEN_COMMON_THREAD_POOL_H_
