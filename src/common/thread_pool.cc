#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

namespace freshen {

ThreadPool::ThreadPool(Options options)
    : queue_capacity_(std::max<size_t>(1, options.queue_capacity)) {
  const size_t num_threads = std::max<size_t>(1, options.num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Drain before stopping: a submitted task always runs.
    all_idle_.wait(lock,
                   [this] { return queue_.empty() && active_tasks_ == 0; });
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

Status ThreadPool::TrySubmit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("thread pool is shutting down");
    }
    if (queue_.size() >= queue_capacity_) {
      return Status::ResourceExhausted("thread pool queue is full");
    }
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
  return Status::OK();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and nothing left to run.
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_tasks_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_tasks_;
      if (queue_.empty() && active_tasks_ == 0) {
        all_idle_.notify_all();
      }
    }
  }
}

}  // namespace freshen
