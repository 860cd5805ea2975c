// Torture test for the freshend snapshot-isolation machinery, built to run
// under ThreadSanitizer (ctest -L tsan in a FRESHEN_SANITIZE=thread build):
// reader threads hammer the store and assert that every pinned snapshot is
// internally consistent (per-shard digests recombine to the recorded
// combined digest) while the publisher churns — either a raw
// SnapshotBuilder/SnapshotStore loop or a full FreshendDaemon whose online
// loop replans and syncs through a fault-injecting executor.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/plan_classes.h"
#include "common/quick_mode.h"
#include "obs/metrics.h"
#include "mirror/mirror_state.h"
#include "rng/rng.h"
#include "serve/daemon.h"
#include "serve/snapshot.h"
#include "serve/store.h"
#include "sync/executor.h"
#include "sync/source.h"
#include "workload/generator.h"

namespace freshen {
namespace serve {
namespace {

// Readers against a store whose publisher rewrites one element per
// publication: any torn snapshot (shards from two publications) flips the
// combined digest. Also cross-checks the value invariant: every element in
// one snapshot must carry the same generation stamp.
TEST(ServeTortureTest, RawStoreReadersNeverSeeTornSnapshots) {
  const size_t n = 20000;  // Several shards.
  const int kPublications = QuickMode() ? 200 : 1000;
  const int kReaders = 4;

  obs::MetricsRegistry registry;
  SnapshotStore store(&registry);
  SnapshotBuilder builder(
      std::make_shared<const std::vector<double>>(n, 1.0));

  std::atomic<bool> done{false};
  std::atomic<uint64_t> inconsistent{0};
  std::atomic<uint64_t> torn_values{0};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        SnapshotRef ref = store.Acquire();
        if (!ref) continue;
        reads.fetch_add(1, std::memory_order_relaxed);
        // Full digest verification on a sample of reads, cheap value
        // invariant on all of them: frequency is the generation stamp and
        // must be identical across every element of one snapshot.
        const double stamp = ref->Lookup(0).frequency;
        for (size_t probe = 1; probe < n; probe += n / 7) {
          if (ref->Lookup(probe).frequency != stamp) {
            torn_values.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (reads.load(std::memory_order_relaxed) % 16 == 0 &&
            !ref->CheckConsistent()) {
          inconsistent.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::vector<double> columns(n, 0.0);
  SyncColumn last_sync(n);
  for (int pub = 1; pub <= kPublications; ++pub) {
    const double stamp = static_cast<double>(pub);
    for (double& v : columns) v = stamp;
    EXPECT_TRUE(
        builder.SetPlan(IdentityClasses(columns, columns).view()).ok());
    for (size_t i = 0; i < n; ++i) last_sync.Set(i, stamp);
    auto snapshot =
        builder.Publish(static_cast<uint64_t>(pub), 0, stamp, last_sync)
            .value();
    store.Publish(std::move(snapshot));
    last_sync.Recycle();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_EQ(torn_values.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  store.Drain();
  EXPECT_EQ(store.stats().retired_pending, 0u);
}

// Readers that hold their pins across several publications, each of which
// rewrites every shard: the column copies new epochs into recycled blocks
// while older epochs are still pinned. A pinned snapshot's values must never
// change under its reader, and blocks must really be recycled along the way.
TEST(ServeTortureTest, PinnedReadersNeverSeeRecycledBlocksChange) {
  const size_t n = 20000;
  const int kPublications = QuickMode() ? 150 : 600;
  const int kReaders = 4;

  obs::MetricsRegistry registry;
  SnapshotStore store(&registry);
  SnapshotBuilder builder(
      std::make_shared<const std::vector<double>>(n, 1.0));

  std::atomic<bool> done{false};
  std::atomic<uint64_t> inconsistent{0};
  std::atomic<uint64_t> changed_values{0};
  std::atomic<uint64_t> long_holds{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (uint64_t hold = 1; !done.load(std::memory_order_acquire);
           hold = 3 - hold) {
        SnapshotRef ref = store.Acquire();
        if (!ref) continue;
        // Every element of one publication carries its stamp.
        const double stamp = ref->Lookup(0).frequency;
        // Hold the pin until one or two more publications (alternately)
        // have rebuilt every shard, or the publisher is done. Alternating
        // keeps the readers from settling on one parity of epochs.
        const uint64_t pinned_at = ref->epoch();
        while (store.CurrentEpoch() < pinned_at + hold &&
               !done.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        if (store.CurrentEpoch() >= pinned_at + hold) {
          long_holds.fetch_add(1, std::memory_order_relaxed);
        }
        for (size_t probe = static_cast<size_t>(r); probe < n;
             probe += n / 11) {
          const ElementView view = ref->Lookup(probe);
          if (view.frequency != stamp || view.change_rate != stamp ||
              view.last_sync_time != stamp) {
            changed_values.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (!ref->CheckConsistent()) {
          inconsistent.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  uint64_t recycled = 0;
  std::vector<double> columns(n, 0.0);
  SyncColumn last_sync(n);
  for (int pub = 1; pub <= kPublications; ++pub) {
    const double stamp = static_cast<double>(pub);
    for (double& v : columns) v = stamp;
    for (size_t i = 0; i < n; ++i) last_sync.Set(i, stamp);
    // As the daemon does: free what readers have left before building, so
    // the spare plan table those snapshots held can be rewritten.
    store.Reclaim();
    EXPECT_TRUE(
        builder.SetPlan(IdentityClasses(columns, columns).view()).ok());
    auto snapshot =
        builder.Publish(static_cast<uint64_t>(pub), 0, stamp, last_sync)
            .value();
    recycled += snapshot->stats().shards_recycled;
    store.Publish(std::move(snapshot));
    // As the loop does after its publication hook: blocks the released
    // snapshots alone held return to the column's pool.
    last_sync.Recycle();
    // Give readers time to finish a hold and pin this epoch.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_EQ(changed_values.load(), 0u);
  EXPECT_GT(long_holds.load(), 0u);
  EXPECT_GT(recycled, 0u) << "of " << kPublications * builder.NumShards()
                          << " rebuilt shards";
  store.Drain();
  EXPECT_EQ(store.stats().retired_pending, 0u);
}

// Readers pin snapshots for up to eight publications while the loop side
// writes a few elements per publication into the column, which copies each
// written block that a snapshot holds into a pooled one. A pinned
// snapshot's sampled last-sync times must read the same when the pin is
// released as when it was taken, every sampled read must pass the digest
// check, and the pool must really serve copies along the way.
TEST(ServeTortureTest, PinnedReadersSurviveCopyOnWriteColumnWrites) {
  const size_t n = 40000;  // Nine shards.
  const int kPublications = QuickMode() ? 300 : 1200;
  const int kReaders = 4;

  obs::MetricsRegistry registry;
  SnapshotStore store(&registry);
  SnapshotBuilder builder(
      std::make_shared<const std::vector<double>>(n, 1.0));
  const std::vector<double> plan_column(n, 0.5);
  ASSERT_TRUE(
      builder.SetPlan(IdentityClasses(plan_column, plan_column).view()).ok());
  SyncColumn last_sync(n);
  store.Publish(builder.Publish(1, 0, 0.0, last_sync).value());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> inconsistent{0};
  std::atomic<uint64_t> changed_values{0};
  std::atomic<uint64_t> long_holds{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      constexpr size_t kProbes = 64;
      std::vector<double> seen(kProbes);
      for (uint64_t hold = static_cast<uint64_t>(r) % 8 + 1;
           !done.load(std::memory_order_acquire); hold = hold % 8 + 1) {
        SnapshotRef ref = store.Acquire();
        const uint64_t pinned_at = ref->epoch();
        const size_t stride = n / kProbes;
        const auto probe = [&](size_t k) {
          return ref->Lookup(k * stride + static_cast<size_t>(r))
              .last_sync_time;
        };
        for (size_t k = 0; k < kProbes; ++k) seen[k] = probe(k);
        while (store.CurrentEpoch() < pinned_at + hold &&
               !done.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        if (store.CurrentEpoch() >= pinned_at + hold) {
          long_holds.fetch_add(1, std::memory_order_relaxed);
        }
        for (size_t k = 0; k < kProbes; ++k) {
          if (probe(k) != seen[k]) {
            changed_values.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (!ref->CheckConsistent()) {
          inconsistent.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Each publication writes three random elements and one on a probe
  // stride, so the written shards move around the column.
  uint64_t copies = 0;
  uint64_t reuses = 0;
  Rng rng(4040);
  for (int pub = 2; pub <= kPublications; ++pub) {
    const double stamp = static_cast<double>(pub);
    for (int w = 0; w < 3; ++w) {
      last_sync.Set(static_cast<size_t>(rng.NextUint64Below(n)), stamp);
    }
    last_sync.Set(static_cast<size_t>(rng.NextUint64Below(64)) * (n / 64),
                  stamp);
    store.Reclaim();
    copies += last_sync.copies();
    reuses += last_sync.reuses();
    store.Publish(
        builder.Publish(static_cast<uint64_t>(pub), 0, stamp, last_sync)
            .value());
    last_sync.Recycle();
    if (pub % 4 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_EQ(changed_values.load(), 0u);
  EXPECT_GT(long_holds.load(), 0u);
  EXPECT_GT(copies, 0u);
  EXPECT_GT(reuses, 0u) << "of " << copies << " copies";
  store.Drain();
  EXPECT_EQ(store.stats().retired_pending, 0u);
}

// The full daemon under churn: online loop with a faulty executor replans
// and publishes while reader threads run every query and periodically
// recompute snapshot digests. Any torn read or data race is the failure.
TEST(ServeTortureTest, DaemonQueriesStayConsistentUnderChurn) {
  const bool quick = QuickMode();
  ExperimentSpec spec;
  spec.num_objects = quick ? 500 : 2000;
  spec.theta = 1.0;
  spec.seed = 4242;
  const ElementSet truth = GenerateCatalog(spec).value();

  obs::MetricsRegistry registry;
  sync::SimulatedSource::Options source_options;
  source_options.error_rate = 0.3;
  source_options.stall_rate = 0.05;
  source_options.seed = 777;
  sync::SimulatedSource faulty =
      sync::SimulatedSource::Create(source_options).value();
  sync::SyncExecutor::Options executor_options;
  executor_options.registry = &registry;
  executor_options.seed = 778;
  auto executor =
      sync::SyncExecutor::Create(&faulty, executor_options).value();

  FreshendDaemon::Options options;
  options.loop.accesses_per_period = quick ? 100.0 : 400.0;
  options.loop.seed = 11;
  options.loop.registry = &registry;
  options.loop.executor = executor.get();
  // Replan every period so full-rebuild publications interleave with
  // incremental ones.
  options.loop.controller.replan_every_periods = 1.0;
  options.max_periods = quick ? 6 : 12;
  options.registry = &registry;
  auto daemon =
      FreshendDaemon::Create(truth, 0.25 * spec.num_objects, options)
          .value();

  std::atomic<uint64_t> inconsistent{0};
  std::atomic<uint64_t> query_failures{0};
  std::atomic<uint64_t> epoch_regressions{0};
  std::atomic<uint64_t> reads{0};

  // Start the loop before the readers so running() is already true when
  // they enter their loops (they exit when the loop's period budget ends).
  ASSERT_TRUE(daemon->Start().ok());

  const int kReaders = 4;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_epoch = 0;
      size_t id = static_cast<size_t>(r) * 13 % spec.num_objects;
      while (daemon->running()) {
        auto verdict = daemon->IsFresh(id);
        auto age = daemon->ExpectedAge(id);
        auto plan = daemon->GetPlan(id);
        if (!verdict.ok() || !age.ok() || !plan.ok()) {
          query_failures.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Published epochs must never run backwards for one reader.
          if (verdict->epoch < last_epoch) {
            epoch_regressions.fetch_add(1, std::memory_order_relaxed);
          }
          last_epoch = verdict->epoch;
          if (verdict->fresh_probability < 0.0 ||
              verdict->fresh_probability > 1.0 || age->expected_age < 0.0) {
            query_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
        const uint64_t read_count =
            reads.fetch_add(1, std::memory_order_relaxed);
        if (read_count % 64 == 0) {
          SnapshotRef snapshot = daemon->AcquireSnapshot();
          if (snapshot && !snapshot->CheckConsistent()) {
            inconsistent.fetch_add(1, std::memory_order_relaxed);
          }
        }
        id = (id + 1) % spec.num_objects;
      }
    });
  }

  while (daemon->running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  daemon->Stop();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_EQ(query_failures.load(), 0u);
  EXPECT_EQ(epoch_regressions.load(), 0u);

  SnapshotRef final_snapshot = daemon->AcquireSnapshot();
  ASSERT_TRUE(final_snapshot);
  EXPECT_TRUE(final_snapshot->CheckConsistent());
  EXPECT_EQ(final_snapshot->epoch(), daemon->Stats().store.publications);
}

}  // namespace
}  // namespace serve
}  // namespace freshen
