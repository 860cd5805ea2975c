// Tests for the bounded thread pool: execution, backpressure, and
// join-on-destruct. Each test checks completion after the pool's scope ends,
// since the destructor drains the queue. Runs under TSan via the `tsan`
// ctest label.
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace freshen {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool({/*num_threads=*/4, /*queue_capacity=*/256});
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(pool.TrySubmit([&executed] { ++executed; }).ok());
    }
  }
  EXPECT_EQ(executed.load(), 200);
}

TEST(ThreadPoolTest, SubmitFailsFastWhenQueueIsFull) {
  // Declared before the pool, so the blocker's wait state outlives the
  // pool's draining destructor.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ThreadPool pool({/*num_threads=*/1, /*queue_capacity=*/2});
  // Occupy the single worker so queued tasks cannot drain.
  ASSERT_TRUE(pool.TrySubmit([&] {
                    std::unique_lock<std::mutex> lock(mu);
                    cv.wait(lock, [&] { return release; });
                  })
                  .ok());
  // Fill the queue behind it; eventually TrySubmit must fail fast with
  // ResourceExhausted (the blocker may or may not have been popped yet, so
  // allow one extra slot).
  int accepted = 0;
  Status last = Status::OK();
  for (int i = 0; i < 4 && last.ok(); ++i) {
    last = pool.TrySubmit([] {});
    if (last.ok()) ++accepted;
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  EXPECT_LE(accepted, 3);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool({/*num_threads=*/2, /*queue_capacity=*/128});
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(pool.TrySubmit([&executed] { ++executed; }).ok());
    }
    // The destructor must finish the batch before joining.
  }
  EXPECT_EQ(executed.load(), 64);
}

TEST(ThreadPoolTest, ConcurrentSubmittersAllLand) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool({/*num_threads=*/4, /*queue_capacity=*/4096});
    std::vector<std::thread> submitters;
    for (int s = 0; s < 4; ++s) {
      submitters.emplace_back([&pool, &executed] {
        for (int i = 0; i < 100; ++i) {
          while (!pool.TrySubmit([&executed] { ++executed; }).ok()) {
          }
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
  }
  EXPECT_EQ(executed.load(), 400);
}

TEST(ThreadPoolTest, ClampsDegenerateOptions) {
  // Zero workers would never run the task, and the draining destructor
  // would hang: the clamp to one worker is what lets this test finish.
  std::atomic<int> executed{0};
  {
    ThreadPool pool({/*num_threads=*/0, /*queue_capacity=*/0});
    ASSERT_TRUE(pool.TrySubmit([&executed] { ++executed; }).ok());
  }
  EXPECT_EQ(executed.load(), 1);
}

}  // namespace
}  // namespace freshen
