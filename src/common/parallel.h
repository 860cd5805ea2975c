// freshen::par — deterministic data-parallel primitives for the compute
// spine (solvers, k-means, simulator). Built on common/thread_pool.h.
//
// The determinism contract: results are BIT-IDENTICAL across thread counts.
// It is achieved structurally, not by locking:
//
//   * Shard boundaries are a pure function of the problem size n — never of
//     the thread count. ShardPlan(n) always produces the same contiguous
//     [begin, end) ranges, so every element is processed inside the same
//     shard no matter how many workers run.
//   * Reductions keep one Kahan accumulator per shard; each shard sums its
//     elements in index order, and the per-shard totals are combined in
//     shard-index order by the calling thread after the join. The float
//     summation tree is therefore fixed; threads only decide *when* each
//     shard runs, never *what* it computes.
//   * Writes are per-element into disjoint ranges; no shared mutable state.
//
// The thread count is purely an execution knob: Executor(1) runs the exact
// same shard plan inline on the caller, Executor(8) spreads the shards over
// the shared pool, and both produce byte-identical outputs.
#ifndef FRESHEN_COMMON_PARALLEL_H_
#define FRESHEN_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

#include "common/timer.h"
#include "stats/descriptive.h"

namespace freshen {

class ThreadPool;

namespace par {

/// Minimum elements per shard. Problems at or below this size run as a
/// single shard, which makes their reductions byte-identical to a plain
/// sequential Kahan sum (so small tests and workloads are unaffected by
/// sharding).
inline constexpr size_t kShardGrain = 4096;

/// Hard cap on shards per region. 64 shards over <= 16 workers keeps the
/// dynamic scheduler's load balance good even on skewed per-element costs
/// while bounding per-region bookkeeping.
inline constexpr size_t kMaxShards = 64;

/// Shard sizing for transcendental-bound loops (the solvers' kernel
/// inversions, ~100ns/element): work per element is ~100x a plain
/// reduction's, so shards amortize their scheduling overhead at 1/4 the
/// grain, and the 64-shard cap — sized for memory-bound loops where extra
/// shards only add bookkeeping — would leave giant shards (and idle
/// workers) on multi-million-element active sets. 512 shards keeps
/// per-shard work >= ~0.1ms at any size that matters.
inline constexpr size_t kTranscendentalGrain = 1024;
inline constexpr size_t kTranscendentalMaxShards = 512;

/// One contiguous slice [begin, end) of the index space.
struct Shard {
  size_t index = 0;
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

/// std::thread::hardware_concurrency(), never less than 1.
size_t HardwareThreads();

/// Number of shards for an n-element region: clamp(n / grain, 1,
/// max_shards); 0 for n == 0. Depends only on the arguments — never on the
/// thread count — which is what keeps plans (and thus reduction trees)
/// stable across executors.
size_t ShardCountFor(size_t n, size_t grain, size_t max_shards);

/// The fixed shard plan for n elements under (grain, max_shards):
/// ShardCountFor contiguous ranges whose sizes differ by at most one
/// (larger shards first). Callers with transcendental-bound bodies should
/// pass (kTranscendentalGrain, kTranscendentalMaxShards); note the plan is
/// part of any reduction's summation tree, so a consumer that documents
/// bit-stability must pick ONE plan per value and stick with it.
std::vector<Shard> ShardPlanFor(size_t n, size_t grain, size_t max_shards);

/// ShardCountFor(n, kShardGrain, kMaxShards): the default memory-bound
/// sizing used by Executor's ForEach/Sum/Max.
size_t ShardCount(size_t n);

/// ShardPlanFor(n, kShardGrain, kMaxShards).
std::vector<Shard> ShardPlan(size_t n);

/// ShardPlan(n)'s geometry, computed once so that finding an element's
/// shard is one inline division: the first `remainder` shards hold
/// base + 1 elements and end at `pivot`, the rest hold `base`.
struct ShardGeometry {
  size_t base = 0;
  size_t remainder = 0;
  size_t pivot = 0;

  ShardGeometry() = default;
  explicit ShardGeometry(size_t n);

  /// Index of the shard that owns element i (i < n).
  size_t IndexOf(size_t i) const {
    return i < pivot ? i / (base + 1) : remainder + (i - pivot) / base;
  }
};

/// Index of the shard that owns element i under ShardPlan(n). Requires
/// i < n. O(1); consistent with ShardPlan by construction. Callers that
/// index one n repeatedly keep a ShardGeometry instead.
size_t ShardIndexOf(size_t n, size_t i);

namespace detail {

/// The process-wide pool every Executor schedules onto. Lazily started;
/// sized max(HardwareThreads(), 8) so thread-count sweeps up to 8 exercise
/// real concurrency even on narrow CI machines.
ThreadPool& SharedPool();

/// Records one pooled region in the freshen_par_* metrics.
void RecordRegion(size_t shards, size_t tasks, double wall_seconds,
                  double busy_seconds);

/// Records one region that ran inline (single task).
void RecordInlineRegion(size_t shards);

}  // namespace detail

/// Joins a batch of closures submitted to the shared pool. Spawn() falls
/// back to running the closure inline when the pool queue is full, so a
/// group's completion never depends on pool capacity. Join() (and the
/// destructor) block until every spawned closure finished.
class TaskGroup {
 public:
  TaskGroup() = default;
  ~TaskGroup() { Join(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits `fn` to the shared pool; runs it inline on submit failure.
  void Spawn(std::function<void()> fn);

  /// Blocks until all spawned closures completed.
  void Join();

 private:
  void Finish();

  std::mutex mu_;
  std::condition_variable done_;
  size_t outstanding_ = 0;
};

/// A thread-count knob bound to the shared pool. Cheap to construct (no
/// threads are owned); pass 0 for hardware concurrency.
class Executor {
 public:
  explicit Executor(size_t threads = 0);

  /// Effective worker count (>= 1).
  size_t threads() const { return threads_; }

  /// Runs fn(shard) for every shard in `plan`, blocking until all are done.
  /// With threads() == 1 (or a single shard) everything runs inline on the
  /// caller; otherwise min(threads(), plan.size()) workers — the caller
  /// plus pool tasks — drain the shards through a dynamic queue. The shard
  /// execution *order* is nondeterministic; anything value-affecting must
  /// depend only on the shard contents.
  template <typename Fn>
  void ForShards(const std::vector<Shard>& plan, Fn&& fn) const {
    if (plan.empty()) return;
    const size_t tasks = threads_ < plan.size() ? threads_ : plan.size();
    if (tasks <= 1) {
      for (const Shard& shard : plan) fn(shard);
      detail::RecordInlineRegion(plan.size());
      return;
    }
    WallTimer wall;
    // The queue cursor gets its own cache line, and each worker's busy-time
    // slot gets one too: `next` is hammered by every worker, and adjacent
    // plain doubles would put all workers' writes on one line — false
    // sharing that serializes short shards (the N=2M 8-thread regression).
    struct alignas(64) PaddedCursor {
      std::atomic<size_t> value{0};
    } next;
    struct alignas(64) PaddedSeconds {
      double value = 0.0;
    };
    std::vector<PaddedSeconds> busy(tasks);
    auto drain = [&](size_t slot) {
      WallTimer timer;
      for (size_t j = next.value.fetch_add(1, std::memory_order_relaxed);
           j < plan.size();
           j = next.value.fetch_add(1, std::memory_order_relaxed)) {
        fn(plan[j]);
      }
      busy[slot].value = timer.ElapsedSeconds();
    };
    {
      TaskGroup group;
      for (size_t slot = 1; slot < tasks; ++slot) {
        group.Spawn([&drain, slot] { drain(slot); });
      }
      drain(0);
      group.Join();
    }
    double busy_total = 0.0;
    for (const PaddedSeconds& seconds : busy) busy_total += seconds.value;
    detail::RecordRegion(plan.size(), tasks, wall.ElapsedSeconds(),
                         busy_total);
  }

  /// Runs fn(i) for every i in [0, n) under ShardPlan(n). Use for
  /// independent per-element writes (disjoint outputs only).
  template <typename Fn>
  void ForEach(size_t n, Fn&& fn) const {
    ForShards(ShardPlan(n), [&fn](const Shard& shard) {
      for (size_t i = shard.begin; i < shard.end; ++i) fn(i);
    });
  }

  /// Deterministic reduction: sum of term(i) over [0, n), one Kahan
  /// accumulator per shard (elements in index order), per-shard totals
  /// Kahan-combined in shard order. Bit-identical for every thread count;
  /// for n <= kShardGrain it equals the plain sequential Kahan sum.
  template <typename TermFn>
  double Sum(size_t n, TermFn term) const {
    const std::vector<Shard> plan = ShardPlan(n);
    if (plan.empty()) return 0.0;
    std::vector<double> partial(plan.size(), 0.0);
    ForShards(plan, [&](const Shard& shard) {
      KahanSum acc;
      for (size_t i = shard.begin; i < shard.end; ++i) acc.Add(term(i));
      partial[shard.index] = acc.Total();
    });
    KahanSum total;
    for (double value : partial) total.Add(value);
    return total.Total();
  }

  /// Deterministic max of term(i) over [0, n); `init` seeds every shard
  /// (and is returned for n == 0). term must not produce NaN.
  template <typename TermFn>
  double Max(size_t n, TermFn term, double init) const {
    const std::vector<Shard> plan = ShardPlan(n);
    if (plan.empty()) return init;
    std::vector<double> partial(plan.size(), init);
    ForShards(plan, [&](const Shard& shard) {
      double best = init;
      for (size_t i = shard.begin; i < shard.end; ++i) {
        const double value = term(i);
        if (value > best) best = value;
      }
      partial[shard.index] = best;
    });
    double best = init;
    for (double value : partial) {
      if (value > best) best = value;
    }
    return best;
  }

 private:
  size_t threads_;
};

}  // namespace par
}  // namespace freshen

#endif  // FRESHEN_COMMON_PARALLEL_H_
