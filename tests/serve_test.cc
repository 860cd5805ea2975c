// Tests for the freshend serving subsystem: epoch-based reclamation,
// snapshot building with structural sharing, the lock-free snapshot store,
// the daemon's query API, and the line protocol.
#include <malloc.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/epoch.h"
#include "common/plan_classes.h"
#include "obs/metrics.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/slowlog.h"
#include "serve/snapshot.h"
#include "serve/store.h"
#include "workload/generator.h"

namespace freshen {
namespace serve {
namespace {

// ---- EpochDomain ----------------------------------------------------------

TEST(EpochDomainTest, AdvanceOpensSuccessiveEpochs) {
  EpochDomain domain;
  EXPECT_EQ(domain.CurrentEpoch(), 0u);
  EXPECT_EQ(domain.Advance(), 1u);
  EXPECT_EQ(domain.Advance(), 2u);
  EXPECT_EQ(domain.CurrentEpoch(), 2u);
}

TEST(EpochDomainTest, PinReturnsCurrentEpochAndCounts) {
  EpochDomain domain;
  domain.Advance();
  EXPECT_EQ(domain.PinnedReaders(), 0u);
  const uint64_t pinned = domain.Pin();
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(domain.PinnedReaders(), 1u);
  EXPECT_EQ(domain.MinPinnedEpoch(), 1u);
  domain.Unpin();
  EXPECT_EQ(domain.PinnedReaders(), 0u);
  EXPECT_EQ(domain.MinPinnedEpoch(), EpochDomain::kIdle);
}

TEST(EpochDomainTest, RetiredObjectSurvivesUntilReaderLeaves) {
  EpochDomain domain;
  domain.Advance();  // Epoch 1 current.
  const uint64_t pinned = domain.Pin();
  ASSERT_EQ(pinned, 1u);

  domain.Advance();  // Epoch 2; the epoch-1 object is superseded.
  bool freed = false;
  domain.Retire(1, [&freed] { freed = true; });
  EXPECT_EQ(domain.TryReclaim(), 0u);  // Reader still pinned at 1.
  EXPECT_FALSE(freed);

  domain.Unpin();
  EXPECT_EQ(domain.TryReclaim(), 1u);
  EXPECT_TRUE(freed);
  EXPECT_EQ(domain.RetiredCount(), 0u);
}

TEST(EpochDomainTest, ReaderAtNewerEpochDoesNotProtectOlderGarbage) {
  EpochDomain domain;
  domain.Advance();  // 1
  domain.Advance();  // 2
  bool freed = false;
  domain.Retire(1, [&freed] { freed = true; });
  domain.Advance();           // 3
  const uint64_t pinned = domain.Pin();  // Pinned at 3.
  EXPECT_EQ(pinned, 3u);
  EXPECT_EQ(domain.TryReclaim(), 1u);  // 1 < 3: reclaimable.
  EXPECT_TRUE(freed);
  domain.Unpin();
}

TEST(EpochDomainTest, DrainAllFreesEverything) {
  EpochDomain domain;
  domain.Advance();
  int freed = 0;
  domain.Retire(1, [&freed] { ++freed; });
  domain.Advance();
  domain.Retire(2, [&freed] { ++freed; });
  EXPECT_EQ(domain.DrainAll(), 2u);
  EXPECT_EQ(freed, 2);
}

TEST(EpochDomainTest, EpochPinIsRaii) {
  EpochDomain domain;
  domain.Advance();
  {
    EpochPin pin(domain);
    EXPECT_EQ(pin.epoch(), 1u);
    EXPECT_EQ(domain.PinnedReaders(), 1u);
  }
  EXPECT_EQ(domain.PinnedReaders(), 0u);
}

TEST(EpochDomainTest, ManyThreadsPinConcurrently) {
  EpochDomain domain;
  domain.Advance();
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::atomic<size_t> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 1000; ++i) {
        const uint64_t e = domain.Pin();
        if (e == 0 || e == EpochDomain::kIdle) failures.fetch_add(1);
        domain.Unpin();
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(domain.PinnedReaders(), 0u);
}

// ---- SnapshotBuilder ------------------------------------------------------

std::vector<double> Column(size_t n, double value) {
  return std::vector<double>(n, value);
}

std::shared_ptr<const std::vector<double>> SizeColumn(size_t n,
                                                      double value) {
  return std::make_shared<const std::vector<double>>(n, value);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double FlipBit(double value, int bit) {
  uint64_t word;
  std::memcpy(&word, &value, sizeof(word));
  word ^= uint64_t{1} << bit;
  std::memcpy(&value, &word, sizeof(value));
  return value;
}

// Marks one element of every shard synced: the next Publish rebuilds every
// shard, as after a period that synced an element in each.
void MarkEveryShard(SnapshotBuilder& builder, size_t n) {
  for (const par::Shard& shard : par::ShardPlan(n)) {
    builder.MarkDirty(shard.begin);
  }
}

// Installs dense columns as a plan with one class per element.
void SetDensePlan(SnapshotBuilder& builder,
                  const std::vector<double>& frequency,
                  const std::vector<double>& change_rate) {
  ASSERT_TRUE(
      builder.SetPlan(IdentityClasses(frequency, change_rate).view()).ok());
}

TEST(SnapshotBuilderTest, FirstPublishRequiresAPlan) {
  SnapshotBuilder builder(SizeColumn(100, 1.0));
  const auto columns = Column(100, 1.0);
  auto result = builder.Publish(1, 0, 0.0, columns);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  const auto short_column = Column(99, 1.0);
  EXPECT_EQ(
      builder.SetPlan(IdentityClasses(short_column, short_column).view())
          .code(),
      StatusCode::kInvalidArgument);
  SetDensePlan(builder, columns, columns);
  EXPECT_EQ(builder.Publish(1, 0, 0.0, short_column).status().code(),
            StatusCode::kInvalidArgument);
  // A builder with no live block builds every shard.
  result = builder.Publish(1, 0, 0.0, columns);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->stats().shards_rebuilt, builder.NumShards());
  EXPECT_TRUE((*result)->CheckConsistent());
}

TEST(SnapshotBuilderTest, PublishesConsistentSnapshot) {
  const size_t n = 10000;
  SnapshotBuilder builder(SizeColumn(n, 0.5));
  const auto columns = Column(n, 0.5);
  SetDensePlan(builder, columns, columns);
  auto snapshot = builder.Publish(1, 0, 0.0, columns).value();
  EXPECT_EQ(snapshot->size(), n);
  EXPECT_EQ(snapshot->epoch(), 1u);
  EXPECT_TRUE(snapshot->CheckConsistent());
  const ElementView view = snapshot->Lookup(n - 1);
  EXPECT_DOUBLE_EQ(view.frequency, 0.5);
  EXPECT_DOUBLE_EQ(view.size, 0.5);
  EXPECT_DOUBLE_EQ(view.last_sync_time, 0.5);
}

TEST(SnapshotBuilderTest, CleanShardsAreSharedDirtyShardsRebuilt) {
  const size_t n = 20000;  // Several shards at the 4096 grain.
  SnapshotBuilder builder(SizeColumn(n, 1.0));
  ASSERT_GT(builder.NumShards(), 2u);
  auto columns = Column(n, 1.0);
  SetDensePlan(builder, columns, columns);
  auto first = builder.Publish(1, 0, 0.0, columns).value();

  // Sync exactly one element; only its shard should rebuild.
  columns[0] = 2.0;
  builder.MarkDirty(0);
  EXPECT_EQ(builder.DirtyShards(), 1u);
  auto second = builder.Publish(2, 0, 1.0, columns).value();

  EXPECT_EQ(second->stats().shards_rebuilt, 1u);
  EXPECT_NE(first->shards()[0].get(), second->shards()[0].get());
  for (size_t s = 1; s < first->shards().size(); ++s) {
    EXPECT_EQ(first->shards()[s].get(), second->shards()[s].get())
        << "shard " << s << " should be structurally shared";
  }
  EXPECT_EQ(second->plan(), first->plan());
  EXPECT_TRUE(second->CheckConsistent());
  EXPECT_DOUBLE_EQ(second->Lookup(0).last_sync_time, 2.0);
  // The first snapshot is untouched by the second publication.
  EXPECT_TRUE(first->CheckConsistent());
  EXPECT_DOUBLE_EQ(first->Lookup(0).last_sync_time, 1.0);
  EXPECT_NE(first->combined_digest(), second->combined_digest());
}

// Distinct values per element, so a shard's bits differ from its neighbours'.
std::vector<double> Ramp(size_t n, double offset) {
  std::vector<double> column(n);
  for (size_t i = 0; i < n; ++i) column[i] = offset + 0.25 * i;
  return column;
}

TEST(SnapshotBuilderTest, ReplanWithUnchangedColumnsRebuildsNoShard) {
  const size_t n = 20000;
  SnapshotBuilder builder(SizeColumn(n, 2.0));
  const auto frequency = Ramp(n, 1.0);
  const auto change_rate = Ramp(n, 3.0);
  const auto last_sync = Ramp(n, 0.0);
  SetDensePlan(builder, frequency, change_rate);
  auto first = builder.Publish(1, 1, 0.0, last_sync).value();
  EXPECT_EQ(first->stats().shards_rebuilt, builder.NumShards());

  // A replan republishes the plan table and no shard.
  SetDensePlan(builder, frequency, change_rate);
  auto second = builder.Publish(2, 2, 1.0, last_sync).value();
  EXPECT_EQ(second->stats().shards_rebuilt, 0u);
  EXPECT_EQ(builder.DirtyShards(), 0u);
  for (size_t s = 0; s < first->shards().size(); ++s) {
    EXPECT_EQ(first->shards()[s].get(), second->shards()[s].get())
        << "shard " << s;
  }
  EXPECT_NE(second->plan(), first->plan());
  EXPECT_EQ(second->combined_digest(), first->combined_digest());
  EXPECT_TRUE(SameBits(second->stats().plan_bandwidth,
                       first->stats().plan_bandwidth));
  EXPECT_TRUE(second->CheckConsistent());
}

// Publishes between replans share one plan table by pointer; a replan
// publish copies the new plan into a table of its own and, when nothing
// synced, rebuilds no shard, however many plan values moved.
TEST(SnapshotBuilderTest, OnlyAReplanRepublishesThePlanTable) {
  const size_t n = 20000;
  SnapshotBuilder builder(SizeColumn(n, 2.0));
  auto frequency = Ramp(n, 1.0);
  const auto change_rate = Ramp(n, 3.0);
  auto last_sync = Ramp(n, 0.0);
  SetDensePlan(builder, frequency, change_rate);
  const auto first = builder.Publish(1, 1, 0.0, last_sync).value();
  last_sync[n / 2] += 1.0;
  builder.MarkDirty(n / 2);
  const auto second = builder.Publish(2, 1, 1.0, last_sync).value();
  EXPECT_EQ(second->plan(), first->plan());
  EXPECT_EQ(second->stats().shards_rebuilt, 1u);
  EXPECT_TRUE(SameBits(second->stats().plan_bandwidth,
                       first->stats().plan_bandwidth));

  for (double& f : frequency) f *= 1.5;
  SetDensePlan(builder, frequency, change_rate);
  const auto third = builder.Publish(3, 2, 2.0, last_sync).value();
  EXPECT_NE(third->plan(), second->plan());
  EXPECT_EQ(third->stats().shards_rebuilt, 0u);
  for (size_t s = 0; s < builder.NumShards(); ++s) {
    EXPECT_EQ(third->shards()[s].get(), second->shards()[s].get())
        << "shard " << s;
  }
  for (size_t i = 0; i < n; i += 97) {
    ASSERT_TRUE(SameBits(third->Lookup(i).frequency, frequency[i]));
    ASSERT_TRUE(SameBits(second->Lookup(i).frequency, frequency[i] / 1.5));
  }
  EXPECT_FALSE(SameBits(third->stats().plan_bandwidth,
                        second->stats().plan_bandwidth));
  EXPECT_TRUE(third->CheckConsistent());
  EXPECT_TRUE(second->CheckConsistent());
  EXPECT_NE(third->combined_digest(), second->combined_digest());
}

TEST(SnapshotBuilderTest, EverySnapshotSharesOneSizeColumn) {
  const size_t n = 20000;
  std::vector<double> sizes = Ramp(n, 1.0);
  const auto size_column =
      std::make_shared<const std::vector<double>>(sizes);
  SnapshotBuilder builder(size_column);
  auto frequency = Ramp(n, 0.5);
  const auto change_rate = Ramp(n, 3.0);
  auto last_sync = Column(n, 0.0);
  SetDensePlan(builder, frequency, change_rate);
  std::vector<std::shared_ptr<const ServeSnapshot>> snapshots = {
      builder.Publish(1, 1, 0.0, last_sync).value()};
  for (uint64_t epoch = 2; epoch <= 4; ++epoch) {
    const size_t element = 4000 * epoch;
    last_sync[element] = static_cast<double>(epoch);
    builder.MarkDirty(element);
    snapshots.push_back(builder.Publish(epoch, 1, 0.0, last_sync).value());
  }
  frequency[7] *= 3.0;
  SetDensePlan(builder, frequency, change_rate);
  snapshots.push_back(builder.Publish(5, 2, 0.0, last_sync).value());

  for (const auto& snapshot : snapshots) {
    EXPECT_EQ(snapshot->size_column(), size_column)
        << "epoch " << snapshot->epoch();
    EXPECT_TRUE(snapshot->CheckConsistent());
    EXPECT_TRUE(SameBits(snapshot->Lookup(n - 1).size, sizes[n - 1]));
    // plan_bandwidth: each shard's index-order partial, summed in shard
    // order.
    double expected = 0.0;
    for (const auto& block : snapshot->shards()) {
      double partial = 0.0;
      for (size_t i = block->begin; i < block->end; ++i) {
        partial += snapshot->Lookup(i).frequency * sizes[i];
      }
      expected += partial;
    }
    EXPECT_TRUE(SameBits(snapshot->stats().plan_bandwidth, expected))
        << "epoch " << snapshot->epoch();
  }
  EXPECT_EQ(size_column.use_count(),
            static_cast<long>(snapshots.size()) + 2);  // + builder, local.
}

// The shard blocks' addresses, in shard order.
std::vector<const ShardBlock*> BlockAddresses(const ServeSnapshot& snapshot) {
  std::vector<const ShardBlock*> addresses;
  for (const auto& block : snapshot.shards()) addresses.push_back(block.get());
  return addresses;
}

// Epoch 1's blocks and plan table become the spares when epoch 2 rebuilds
// every shard and the plan; once nothing holds epoch 1, epoch 3 is written
// into them, and reads exactly like a snapshot a fresh builder makes from
// the same columns.
TEST(SnapshotBuilderTest, RepublishWritesIntoReclaimedBlocks) {
  const size_t n = 20000;
  const auto sizes = std::make_shared<const std::vector<double>>(Ramp(n, 1.0));
  SnapshotBuilder builder(sizes);
  SetDensePlan(builder, Ramp(n, 1.0), Ramp(n, 2.0));
  auto first = builder.Publish(1, 1, 0.0, Column(n, 0.0)).value();
  const std::vector<const ShardBlock*> first_blocks = BlockAddresses(*first);
  const PlanTable* first_plan = first->plan().get();
  SetDensePlan(builder, Ramp(n, 5.0), Ramp(n, 6.0));
  MarkEveryShard(builder, n);
  auto second = builder.Publish(2, 2, 1.0, Column(n, 1.0)).value();
  EXPECT_EQ(second->stats().shards_rebuilt, builder.NumShards());
  first.reset();

  const auto frequency = Ramp(n, 9.0);
  const auto change_rate = Ramp(n, 10.0);
  const auto last_sync = Ramp(n, 0.5);
  SetDensePlan(builder, frequency, change_rate);
  MarkEveryShard(builder, n);
  auto third = builder.Publish(3, 3, 2.0, last_sync).value();
  EXPECT_EQ(BlockAddresses(*third), first_blocks);
  EXPECT_EQ(third->plan().get(), first_plan);
  EXPECT_EQ(third->stats().shards_recycled, builder.NumShards());
  EXPECT_TRUE(third->CheckConsistent());
  EXPECT_TRUE(second->CheckConsistent());

  SnapshotBuilder fresh(sizes);
  SetDensePlan(fresh, frequency, change_rate);
  auto reference = fresh.Publish(3, 3, 2.0, last_sync).value();
  ASSERT_EQ(third->shards().size(), reference->shards().size());
  for (size_t s = 0; s < third->shards().size(); ++s) {
    const ShardBlock& block = *third->shards()[s];
    const ShardBlock& expected = *reference->shards()[s];
    EXPECT_EQ(block.begin, expected.begin) << "shard " << s;
    EXPECT_EQ(block.end, expected.end) << "shard " << s;
    EXPECT_EQ(block.last_sync_time, expected.last_sync_time) << "shard " << s;
    EXPECT_EQ(block.digest, expected.digest) << "shard " << s;
  }
  const PlanTable& plan = *third->plan();
  const PlanTable& expected_plan = *reference->plan();
  EXPECT_EQ(plan.class_of, expected_plan.class_of);
  EXPECT_EQ(plan.frequency, expected_plan.frequency);
  EXPECT_EQ(plan.change_rate, expected_plan.change_rate);
  EXPECT_EQ(plan.digest, expected_plan.digest);
  EXPECT_EQ(third->combined_digest(), reference->combined_digest());
  EXPECT_TRUE(SameBits(third->stats().plan_bandwidth,
                       reference->stats().plan_bandwidth));
}

// A held snapshot's blocks are never written: three full republishes while
// epoch 1 is held leave every value it serves as it was.
TEST(SnapshotBuilderTest, HeldSnapshotBlocksAreNeverReused) {
  const size_t n = 20000;
  SnapshotBuilder builder(SizeColumn(n, 1.0));
  SetDensePlan(builder, Ramp(n, 1.0), Ramp(n, 2.0));
  const auto held = builder.Publish(1, 1, 0.0, Ramp(n, 3.0)).value();
  std::vector<ElementView> expected;
  for (size_t i = 0; i < n; ++i) expected.push_back(held->Lookup(i));
  const std::vector<const ShardBlock*> held_blocks = BlockAddresses(*held);

  for (uint64_t epoch = 2; epoch <= 4; ++epoch) {
    const double offset = 100.0 * static_cast<double>(epoch);
    SetDensePlan(builder, Ramp(n, offset), Ramp(n, offset + 1.0));
    MarkEveryShard(builder, n);
    auto next =
        builder.Publish(epoch, epoch, 1.0, Ramp(n, offset + 2.0)).value();
    EXPECT_EQ(next->stats().shards_rebuilt, builder.NumShards());
    // Epoch 3 finds every spare held by epoch 1; epoch 4 recycles epoch 2's.
    EXPECT_EQ(next->stats().shards_recycled,
              epoch == 4 ? builder.NumShards() : 0u)
        << "epoch " << epoch;
    for (const ShardBlock* block : BlockAddresses(*next)) {
      EXPECT_EQ(std::count(held_blocks.begin(), held_blocks.end(), block), 0)
          << "epoch " << epoch;
    }
    ASSERT_TRUE(held->CheckConsistent()) << "epoch " << epoch;
    for (size_t i = 0; i < n; ++i) {
      const ElementView view = held->Lookup(i);
      ASSERT_TRUE(SameBits(view.frequency, expected[i].frequency) &&
                  SameBits(view.change_rate, expected[i].change_rate) &&
                  SameBits(view.last_sync_time, expected[i].last_sync_time))
          << "epoch " << epoch << " element " << i;
    }
  }
}

// A plan of `classes` classes over n elements, member i of class
// (7 i) % classes, every class with its own (frequency, rate) pair.
struct ClassPlan {
  std::vector<uint32_t> class_of;
  std::vector<double> frequency;
  std::vector<double> change_rate;

  ClassPlan(size_t n, size_t classes) : class_of(n) {
    for (size_t i = 0; i < n; ++i) {
      class_of[i] = static_cast<uint32_t>((7 * i) % classes);
    }
    for (size_t j = 0; j < classes; ++j) {
      frequency.push_back(0.25 + 0.5 * static_cast<double>(j));
      change_rate.push_back(1.0 / (1.0 + static_cast<double>(j)));
    }
  }

  PlanClassView view() const { return {class_of, frequency, change_rate}; }
};

// The plan table is covered by its digest: flipping any bit of one class's
// frequency or rate, or of one element's class id, makes CheckConsistent()
// fail, and flipping it back makes it pass again. A class id past the
// class columns is caught before any read through it.
TEST(SnapshotBuilderTest, FlippedPlanTableEntryFailsTheConsistencyCheck) {
  const size_t n = 20000;
  SnapshotBuilder builder(SizeColumn(n, 1.0));
  const ClassPlan plan(n, 8);
  ASSERT_TRUE(builder.SetPlan(plan.view()).ok());
  const auto snapshot = builder.Publish(1, 1, 0.0, Ramp(n, 0.0)).value();
  ASSERT_TRUE(snapshot->CheckConsistent());
  // The builder allocates its tables mutable; snapshots hand them out const.
  auto* table = const_cast<PlanTable*>(snapshot->plan().get());
  ASSERT_EQ(table->frequency.size(), 8u);
  for (std::vector<double> PlanTable::*column :
       {&PlanTable::frequency, &PlanTable::change_rate}) {
    for (int bit : {0, 31, 52, 63}) {
      double& value = (table->*column)[5];
      const double original = value;
      value = FlipBit(original, bit);
      EXPECT_FALSE(snapshot->CheckConsistent()) << "bit " << bit;
      value = original;
      EXPECT_TRUE(snapshot->CheckConsistent()) << "bit " << bit;
    }
  }
  uint32_t& id = table->class_of[4321];
  const uint32_t original = id;
  for (int bit : {0, 2}) {
    id = original ^ (uint32_t{1} << bit);
    ASSERT_LT(id, 8u);
    EXPECT_FALSE(snapshot->CheckConsistent()) << "bit " << bit;
  }
  id = 8;
  EXPECT_FALSE(snapshot->CheckConsistent());
  id = original;
  EXPECT_TRUE(snapshot->CheckConsistent());
}

// The controller renumbers its classes at every replan, and may split a
// class into two with equal values. A replan that moves no element's
// (frequency, rate) bits must rebuild only the shards whose elements
// synced; every other shard is shared.
TEST(SnapshotBuilderTest, RenumberedClassesShareEveryUnsyncedShard) {
  const size_t n = 20000;
  const size_t classes = 40;
  SnapshotBuilder builder(SizeColumn(n, 2.0));
  const ClassPlan plan(n, classes);
  auto last_sync = Ramp(n, 0.0);
  ASSERT_TRUE(builder.SetPlan(plan.view()).ok());
  const auto first = builder.Publish(1, 1, 0.0, last_sync).value();

  // Reverse the ids, and move the odd members of old class 0 to a new
  // class carrying old class 0's values.
  ClassPlan renumbered = plan;
  renumbered.frequency.push_back(plan.frequency[0]);
  renumbered.change_rate.push_back(plan.change_rate[0]);
  for (size_t j = 0; j < classes; ++j) {
    renumbered.frequency[classes - 1 - j] = plan.frequency[j];
    renumbered.change_rate[classes - 1 - j] = plan.change_rate[j];
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t old = plan.class_of[i];
    renumbered.class_of[i] = old == 0 && i % 2 == 1
                                 ? static_cast<uint32_t>(classes)
                                 : static_cast<uint32_t>(classes - 1 - old);
  }
  const size_t synced[] = {5, n - 3};
  for (size_t element : synced) {
    last_sync[element] += 1.0;
    builder.MarkDirty(element);
  }
  ASSERT_TRUE(builder.SetPlan(renumbered.view()).ok());
  const auto second = builder.Publish(2, 2, 1.0, last_sync).value();

  EXPECT_EQ(second->stats().shards_rebuilt, std::size(synced));
  for (size_t s = 0; s < builder.NumShards(); ++s) {
    const bool was_synced =
        s == par::ShardIndexOf(n, synced[0]) ||
        s == par::ShardIndexOf(n, synced[1]);
    EXPECT_EQ(first->shards()[s].get() == second->shards()[s].get(),
              !was_synced)
        << "shard " << s;
  }
  for (size_t i = 0; i < n; ++i) {
    const ElementView before = first->Lookup(i);
    const ElementView after = second->Lookup(i);
    ASSERT_TRUE(SameBits(before.frequency, after.frequency) &&
                SameBits(before.change_rate, after.change_rate))
        << "element " << i;
  }
  EXPECT_TRUE(second->CheckConsistent());
  EXPECT_TRUE(SameBits(second->stats().plan_bandwidth,
                       first->stats().plan_bandwidth));
}

// With 256 classes a plan table holds 4 bytes per element (the class id)
// plus 16 bytes per class, and a live shard block 8 bytes per element (the
// last-sync time); the builder's byte count adds up its blocks and tables.
TEST(SnapshotBuilderTest, ClassIdsHoldFourBytesPerElementPlusTheClasses) {
  const size_t n = 100000;
  const size_t classes = 256;
  const size_t table_bytes = 4 * n + 16 * classes;
  SnapshotBuilder builder(SizeColumn(n, 1.0));
  const ClassPlan plan(n, classes);
  ASSERT_TRUE(builder.SetPlan(plan.view()).ok());
  const auto first = builder.Publish(1, 1, 0.0, Column(n, 0.0)).value();
  size_t block_bytes = 0;
  for (const auto& block : first->shards()) block_bytes += block->bytes();
  EXPECT_EQ(block_bytes, 8 * n);
  EXPECT_EQ(first->plan()->bytes(), table_bytes);
  EXPECT_EQ(first->stats().held_plan_bytes, table_bytes);
  EXPECT_EQ(first->stats().held_bytes, block_bytes + table_bytes);

  // A replan and a sync in every shard keep the first blocks and table as
  // spares: two copies of each.
  ASSERT_TRUE(builder.SetPlan(plan.view()).ok());
  MarkEveryShard(builder, n);
  const auto second = builder.Publish(2, 2, 1.0, Column(n, 1.0)).value();
  EXPECT_EQ(second->stats().shards_rebuilt, builder.NumShards());
  EXPECT_EQ(second->stats().held_plan_bytes, 2 * table_bytes);
  EXPECT_EQ(second->stats().held_bytes, 2 * 8 * n + 2 * table_bytes);
}

// Under the controller's plan with one class per element (class i is
// element i) the table holds the elements' own pairs in element order: 20
// bytes per element with the class id. Ids that are a permutation of the
// elements serve the same values and rebuild no shard.
TEST(SnapshotBuilderTest, OneClassPerElementHoldsPairsInElementOrder) {
  const size_t n = 20000;
  SnapshotBuilder builder(SizeColumn(n, 1.0));
  const auto frequency = Ramp(n, 1.0);
  const auto change_rate = Ramp(n, 2.0);
  const auto last_sync = Ramp(n, 3.0);
  SetDensePlan(builder, frequency, change_rate);
  const auto snapshot = builder.Publish(1, 1, 0.0, last_sync).value();
  const PlanTable& plan = *snapshot->plan();
  EXPECT_EQ(plan.frequency, frequency);
  EXPECT_EQ(plan.change_rate, change_rate);
  EXPECT_EQ(plan.bytes(), 20 * n);
  EXPECT_EQ(snapshot->stats().held_bytes, 28 * n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(SameBits(snapshot->Lookup(i).frequency, frequency[i]));
    ASSERT_TRUE(SameBits(snapshot->Lookup(i).change_rate, change_rate[i]));
  }

  // Reversed ids: class n - 1 - i holds element i's values.
  std::vector<uint32_t> class_of(n);
  std::vector<double> class_frequency(n);
  std::vector<double> class_rate(n);
  for (size_t i = 0; i < n; ++i) {
    class_of[i] = static_cast<uint32_t>(n - 1 - i);
    class_frequency[n - 1 - i] = frequency[i];
    class_rate[n - 1 - i] = change_rate[i];
  }
  ASSERT_TRUE(
      builder.SetPlan(PlanClassView{class_of, class_frequency, class_rate})
          .ok());
  const auto reversed = builder.Publish(2, 2, 1.0, last_sync).value();
  EXPECT_EQ(reversed->stats().shards_rebuilt, 0u);
  EXPECT_TRUE(reversed->CheckConsistent());
  EXPECT_TRUE(SameBits(reversed->stats().plan_bandwidth,
                       snapshot->stats().plan_bandwidth));
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(SameBits(reversed->Lookup(i).frequency, frequency[i]));
    ASSERT_TRUE(SameBits(reversed->Lookup(i).change_rate, change_rate[i]));
  }
}

// A 19-element block and a 19-element plan table of 19 classes whose
// columns all end in a partial stripe (the class ids: 9 words and a 4-byte
// tail). Every value is distinct, and the ids are a permutation of the
// classes.
ShardBlock DigestTestBlock() {
  ShardBlock block;
  block.begin = 4096;
  block.end = 4096 + 19;
  for (size_t j = 0; j < block.count(); ++j) {
    block.last_sync_time.push_back(100.0 - static_cast<double>(j));
  }
  return block;
}

PlanTable DigestTestPlan() {
  PlanTable plan;
  for (size_t j = 0; j < 19; ++j) {
    const double x = static_cast<double>(j);
    plan.class_of.push_back(static_cast<uint32_t>((7 * j) % 19));
    plan.frequency.push_back(0.5 + x);
    plan.change_rate.push_back(1.25 + 3.0 * x);
  }
  plan.plan_bandwidth = 17.5;
  return plan;
}

// First, middle, every tail-lane position (16..18), last.
constexpr size_t kDigestPositions[] = {0, 9, 16, 17, 18};
constexpr int kDigestBits[] = {0, 31, 52, 63};
constexpr size_t kDigestSwaps[] = {0, 9, 15, 17};

// The plan table's two columns of doubles: class frequencies, class
// change rates.
std::vector<double>& PlanColumn(PlanTable& plan, size_t column) {
  return column == 0 ? plan.frequency : plan.change_rate;
}

TEST(SnapshotDigestTest, EveryColumnBitPositionAndOrderChangesTheDigest) {
  const ShardBlock base = DigestTestBlock();
  const uint64_t digest = DigestShard(base);
  for (size_t j : kDigestPositions) {
    for (int bit : kDigestBits) {
      ShardBlock flipped = base;
      flipped.last_sync_time[j] = FlipBit(base.last_sync_time[j], bit);
      EXPECT_NE(DigestShard(flipped), digest)
          << "last-sync position " << j << " bit " << bit;
    }
  }
  for (size_t j : kDigestSwaps) {
    ShardBlock swapped = base;
    std::swap(swapped.last_sync_time[j], swapped.last_sync_time[j + 1]);
    EXPECT_NE(DigestShard(swapped), digest) << "last-sync swap at " << j;
  }
  ShardBlock moved = base;
  moved.begin += 1;
  moved.end += 1;
  EXPECT_NE(DigestShard(moved), digest);
  EXPECT_EQ(DigestShard(DigestTestBlock()), digest);

  const PlanTable plan = DigestTestPlan();
  const uint64_t plan_digest = DigestPlan(plan);
  for (size_t c = 0; c < 2; ++c) {
    for (size_t j : kDigestPositions) {
      for (int bit : kDigestBits) {
        PlanTable flipped = plan;
        double& value = PlanColumn(flipped, c)[j];
        value = FlipBit(value, bit);
        EXPECT_NE(DigestPlan(flipped), plan_digest)
            << "column " << c << " position " << j << " bit " << bit;
      }
    }
    for (size_t j : kDigestSwaps) {
      PlanTable swapped = plan;
      std::vector<double>& column = PlanColumn(swapped, c);
      std::swap(column[j], column[j + 1]);
      EXPECT_NE(DigestPlan(swapped), plan_digest)
          << "column " << c << " swap at " << j;
    }
  }
  PlanTable exchanged = plan;
  std::swap(exchanged.frequency, exchanged.change_rate);
  EXPECT_NE(DigestPlan(exchanged), plan_digest);
  for (size_t j : kDigestPositions) {
    for (int bit : {0, 15, 31}) {
      PlanTable flipped = plan;
      flipped.class_of[j] ^= uint32_t{1} << bit;
      EXPECT_NE(DigestPlan(flipped), plan_digest)
          << "class id " << j << " bit " << bit;
    }
  }
  for (size_t j : kDigestSwaps) {
    PlanTable swapped = plan;
    std::swap(swapped.class_of[j], swapped.class_of[j + 1]);
    EXPECT_NE(DigestPlan(swapped), plan_digest) << "class id swap at " << j;
  }
  // A class no element reads is still covered, and so is the bandwidth.
  PlanTable longer = plan;
  longer.frequency.push_back(0.0);
  longer.change_rate.push_back(0.0);
  EXPECT_NE(DigestPlan(longer), plan_digest);
  PlanTable rescaled = plan;
  rescaled.plan_bandwidth = FlipBit(plan.plan_bandwidth, 0);
  EXPECT_NE(DigestPlan(rescaled), plan_digest);
  EXPECT_EQ(DigestPlan(DigestTestPlan()), plan_digest);

  // The shared size column has its own digest, folded in last.
  std::vector<double> sizes;
  for (size_t j = 0; j < base.count(); ++j) sizes.push_back(7.0 + 0.125 * j);
  const uint64_t size_digest = DigestColumn(sizes);
  for (size_t j : kDigestPositions) {
    for (int bit : kDigestBits) {
      std::vector<double> flipped = sizes;
      flipped[j] = FlipBit(sizes[j], bit);
      EXPECT_NE(DigestColumn(flipped), size_digest)
          << "size position " << j << " bit " << bit;
    }
  }
  for (size_t j : kDigestSwaps) {
    std::vector<double> swapped = sizes;
    std::swap(swapped[j], swapped[j + 1]);
    EXPECT_NE(DigestColumn(swapped), size_digest) << "size swap at " << j;
  }
  EXPECT_NE(DigestColumn(base.last_sync_time), size_digest);
  EXPECT_NE(DigestColumn(plan.frequency), size_digest);
  EXPECT_NE(DigestColumn(plan.change_rate), size_digest);

  std::vector<std::shared_ptr<const ShardBlock>> shards;
  for (int s = 0; s < 3; ++s) {
    ShardBlock block = DigestTestBlock();
    block.last_sync_time[0] += s;
    block.digest = DigestShard(block);
    shards.push_back(std::make_shared<const ShardBlock>(std::move(block)));
  }
  const uint64_t combined = CombineDigests(shards, plan_digest, size_digest);
  for (size_t s = 0; s + 1 < shards.size(); ++s) {
    auto exchanged_shards = shards;
    std::swap(exchanged_shards[s], exchanged_shards[s + 1]);
    EXPECT_NE(CombineDigests(exchanged_shards, plan_digest, size_digest),
              combined)
        << "shards " << s;
  }
  EXPECT_NE(CombineDigests(shards, plan_digest ^ 1, size_digest), combined);
  EXPECT_NE(CombineDigests(shards, plan_digest, size_digest ^ 1), combined);
  EXPECT_NE(CombineDigests(shards, size_digest, plan_digest), combined);
}

// ---- SnapshotStore --------------------------------------------------------

std::shared_ptr<const ServeSnapshot> MakeSnapshot(SnapshotBuilder& builder,
                                                  uint64_t epoch, size_t n,
                                                  double value) {
  const auto columns = Column(n, value);
  EXPECT_TRUE(
      builder.SetPlan(IdentityClasses(columns, columns).view()).ok());
  MarkEveryShard(builder, n);
  return builder.Publish(epoch, 0, 0.0, columns).value();
}

TEST(SnapshotStoreTest, EmptyBeforeFirstPublish) {
  obs::MetricsRegistry registry;
  SnapshotStore store(&registry);
  SnapshotRef ref = store.Acquire();
  EXPECT_FALSE(ref);
}

TEST(SnapshotStoreTest, PublishThenAcquire) {
  obs::MetricsRegistry registry;
  SnapshotStore store(&registry);
  SnapshotBuilder builder(SizeColumn(64, 1.0));
  EXPECT_EQ(store.Publish(MakeSnapshot(builder, 1, 64, 1.0)), 1u);
  SnapshotRef ref = store.Acquire();
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref->epoch(), 1u);
  EXPECT_TRUE(ref->CheckConsistent());
}

TEST(SnapshotStoreTest, HeldRefDelaysReclamation) {
  obs::MetricsRegistry registry;
  SnapshotStore store(&registry);
  SnapshotBuilder builder(SizeColumn(64, 1.0));
  store.Publish(MakeSnapshot(builder, 1, 64, 1.0));
  SnapshotRef held = store.Acquire();
  ASSERT_TRUE(held);

  store.Publish(MakeSnapshot(builder, 2, 64, 2.0));
  StoreStats stats = store.stats();
  EXPECT_EQ(stats.snapshots_retired, 1u);
  EXPECT_EQ(stats.snapshots_reclaimed, 0u);
  EXPECT_EQ(stats.retired_pending, 1u);
  // The held ref still reads the old snapshot, consistently.
  EXPECT_EQ(held->epoch(), 1u);
  EXPECT_DOUBLE_EQ(held->Lookup(0).frequency, 1.0);
  EXPECT_TRUE(held->CheckConsistent());

  held = SnapshotRef();  // Release; next publication reclaims.
  store.Publish(MakeSnapshot(builder, 3, 64, 3.0));
  stats = store.stats();
  EXPECT_EQ(stats.snapshots_retired, 2u);
  EXPECT_GE(stats.snapshots_reclaimed, 1u);
}

TEST(SnapshotStoreTest, DrainReclaimsEverything) {
  obs::MetricsRegistry registry;
  SnapshotStore store(&registry);
  SnapshotBuilder builder(SizeColumn(64, 1.0));
  for (uint64_t e = 1; e <= 5; ++e) {
    store.Publish(MakeSnapshot(builder, e, 64, static_cast<double>(e)));
  }
  store.Drain();
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.snapshots_retired, 4u);
  EXPECT_EQ(stats.snapshots_reclaimed, 4u);
  EXPECT_EQ(stats.retired_pending, 0u);
}

// ---- FreshendDaemon -------------------------------------------------------

ElementSet TestCatalog(size_t n, double theta = 1.0) {
  ExperimentSpec spec;
  spec.num_objects = n;
  spec.theta = theta;
  spec.seed = 99;
  return GenerateCatalog(spec).value();
}

FreshendDaemon::Options DaemonOptions(obs::MetricsRegistry* registry) {
  FreshendDaemon::Options options;
  options.loop.accesses_per_period = 50.0;
  options.loop.seed = 7;
  options.loop.registry = registry;
  options.registry = registry;
  return options;
}

TEST(FreshendDaemonTest, CreatePublishesInitialSnapshot) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(200), 50.0, DaemonOptions(&registry))
          .value();
  EXPECT_FALSE(daemon->running());
  SnapshotRef snapshot = daemon->AcquireSnapshot();
  ASSERT_TRUE(snapshot);
  EXPECT_EQ(snapshot->epoch(), 1u);
  EXPECT_TRUE(snapshot->CheckConsistent());

  // Before any period: nothing synced, published_at = 0 => everything is
  // trivially fresh with zero expected age.
  const FreshnessVerdict verdict = daemon->IsFresh(0).value();
  EXPECT_EQ(verdict.epoch, 1u);
  EXPECT_DOUBLE_EQ(verdict.fresh_probability, 1.0);
  EXPECT_TRUE(verdict.fresh);
  const AgeEstimate age = daemon->ExpectedAge(0).value();
  EXPECT_DOUBLE_EQ(age.expected_age, 0.0);
}

TEST(FreshendDaemonTest, RejectsBadOptionsAndBadIds) {
  obs::MetricsRegistry registry;
  auto options = DaemonOptions(&registry);
  options.freshness_threshold = 1.5;
  EXPECT_FALSE(FreshendDaemon::Create(TestCatalog(10), 5.0, options).ok());
  // The slow-query ring is reserved whole at construction, so a huge
  // capacity must fail Create instead of aborting with std::bad_alloc.
  options = DaemonOptions(&registry);
  options.slowlog.capacity = SlowQueryLog::kMaxCapacity;
  EXPECT_TRUE(FreshendDaemon::Create(TestCatalog(10), 5.0, options).ok());
  for (const size_t capacity :
       {SlowQueryLog::kMaxCapacity + 1, size_t{100000000000}}) {
    options.slowlog.capacity = capacity;
    EXPECT_EQ(FreshendDaemon::Create(TestCatalog(10), 5.0, options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << capacity;
  }
  options = DaemonOptions(&registry);
  for (const double threshold :
       {-0.001, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    options.slowlog.threshold_seconds = threshold;
    EXPECT_EQ(FreshendDaemon::Create(TestCatalog(10), 5.0, options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << threshold;
  }

  auto daemon =
      FreshendDaemon::Create(TestCatalog(10), 5.0, DaemonOptions(&registry))
          .value();
  EXPECT_FALSE(daemon->IsFresh(10).ok());
  EXPECT_FALSE(daemon->ExpectedAge(999).ok());
  EXPECT_FALSE(daemon->GetPlan(10).ok());
}

TEST(FreshendDaemonTest, RejectsACatalogWhoseAccessWeightsAreAllZero) {
  // Each access_prob lies in [0, 1], but with no positive weight there is
  // no profile to draw accesses from, and the daemon must say so instead
  // of aborting. The catalog loaders refuse such a file (CatalogBinaryTest.
  // RejectsAllZeroAccessWeights); a catalog built in code reaches Create.
  ElementSet catalog = TestCatalog(3);
  for (Element& element : catalog) element.access_prob = 0.0;
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(std::move(catalog), 2.0, DaemonOptions(&registry));
  ASSERT_FALSE(daemon.ok());
  EXPECT_EQ(daemon.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(daemon.status().ToString().find("all weights are zero"),
            std::string::npos)
      << daemon.status().ToString();
}

TEST(FreshendDaemonTest, RunsPeriodsAndPublishesEachBoundary) {
  obs::MetricsRegistry registry;
  auto options = DaemonOptions(&registry);
  options.max_periods = 4;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(200), 50.0, options).value();
  ASSERT_TRUE(daemon->Start().ok());
  while (daemon->running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon->Stop();
  EXPECT_EQ(daemon->PeriodsRun(), 4u);

  SnapshotRef snapshot = daemon->AcquireSnapshot();
  ASSERT_TRUE(snapshot);
  // Initial publish + one per period.
  EXPECT_EQ(snapshot->epoch(), 5u);
  EXPECT_DOUBLE_EQ(snapshot->stats().published_at, 4.0);
  EXPECT_TRUE(snapshot->CheckConsistent());

  // Something synced by now; its freshness math must be in range.
  bool found_synced = false;
  for (size_t i = 0; i < daemon->size() && !found_synced; ++i) {
    if (snapshot->Lookup(i).last_sync_time > 0.0) {
      found_synced = true;
      const FreshnessVerdict verdict = daemon->IsFresh(i).value();
      EXPECT_GT(verdict.fresh_probability, 0.0);
      EXPECT_LE(verdict.fresh_probability, 1.0);
      const AgeEstimate age = daemon->ExpectedAge(i).value();
      EXPECT_GE(age.expected_age, 0.0);
      EXPECT_LE(age.expected_age, age.elapsed + 1e-12);
    }
  }
  EXPECT_TRUE(found_synced);

  const DaemonStats stats = daemon->Stats();
  EXPECT_EQ(stats.periods, 4u);
  EXPECT_EQ(stats.store.publications, 5u);
  EXPECT_FALSE(stats.running);
}

// freshend leaves loop.controller at its defaults, as DaemonOptions does,
// and the default cadence replans at every period boundary: the initial plan
// plus one replan per period, each published fully, none by delta. The drift
// detector beside the loop keeps scoring; it never decides a replan.
TEST(FreshendDaemonTest, DefaultCadenceReplansAndPublishesFullyEveryPeriod) {
  constexpr uint64_t kPeriods = 8;
  obs::MetricsRegistry registry;
  auto options = DaemonOptions(&registry);
  options.max_periods = kPeriods;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(200), 400.0, options).value();
  ASSERT_TRUE(daemon->Start().ok());
  while (daemon->running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon->Stop();
  ASSERT_EQ(daemon->PeriodsRun(), kPeriods);
  EXPECT_EQ(daemon->loop().controller().num_replans(), kPeriods + 1);
  EXPECT_DOUBLE_EQ(registry
                       .GetCounter("freshen_serve_publishes_total",
                                   {{"kind", "full"}})
                       ->value(),
                   kPeriods + 1.0);
  EXPECT_DOUBLE_EQ(registry
                       .GetCounter("freshen_serve_publishes_total",
                                   {{"kind", "delta"}})
                       ->value(),
                   0.0);
  EXPECT_GT(daemon->drift()->Report().scored_elements, 0u);
}

// The daemon publishes frequencies, sizes and last-sync times straight from
// the controller's and the mirror's columns, and the change rates the
// current plan was solved against. After every period, whether it
// published fully (a replan) or by delta (no replan), each snapshot element
// must equal those columns bit for bit.
TEST(FreshendDaemonTest, SnapshotMatchesOwningColumnsAfterEveryPeriod) {
  obs::MetricsRegistry registry;
  auto options = DaemonOptions(&registry);
  options.loop.controller.replan_every_periods = 2.0;
  options.max_periods = 1;  // Each Start() runs exactly one more period.
  auto daemon =
      FreshendDaemon::Create(TestCatalog(9000), 300.0, options).value();
  for (int period = 1; period <= 6; ++period) {
    ASSERT_TRUE(daemon->Start().ok());
    while (daemon->running()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    daemon->Stop();
    SnapshotRef snapshot = daemon->AcquireSnapshot();
    ASSERT_TRUE(snapshot);
    ASSERT_EQ(snapshot->epoch(), static_cast<uint64_t>(period + 1));
    ASSERT_TRUE(snapshot->CheckConsistent());
    const AdaptiveFreshener& controller = daemon->loop().controller();
    const MirrorState& mirror = daemon->loop().mirror();
    // Every epoch serves the controller's own size column, not a copy.
    ASSERT_EQ(snapshot->size_column(), controller.shared_sizes());
    size_t synced = 0;
    for (size_t i = 0; i < daemon->size(); ++i) {
      const ElementView view = snapshot->Lookup(i);
      ASSERT_TRUE(SameBits(view.frequency, controller.Frequency(i)))
          << "period " << period << " element " << i;
      ASSERT_TRUE(SameBits(view.size, controller.sizes()[i]))
          << "period " << period << " element " << i;
      ASSERT_TRUE(
          SameBits(view.change_rate, controller.PlannedChangeRate(i)))
          << "period " << period << " element " << i;
      ASSERT_TRUE(SameBits(view.last_sync_time, mirror.LastSyncTimes()[i]))
          << "period " << period << " element " << i;
      synced += mirror.Synced(i);
    }
    EXPECT_GT(synced, 0u);
  }
  // Replans at periods 2, 4 and 6 published fully (plus the initial
  // snapshot); periods 1, 3 and 5 by delta.
  EXPECT_DOUBLE_EQ(registry
                       .GetCounter("freshen_serve_publishes_total",
                                   {{"kind", "full"}})
                       ->value(),
                   4.0);
  EXPECT_DOUBLE_EQ(registry
                       .GetCounter("freshen_serve_publishes_total",
                                   {{"kind", "delta"}})
                       ->value(),
                   3.0);
}

// Runs `periods` single periods of `daemon` and checks, after each, that
// every element of the snapshot equals the controller's plan (read
// through its class), the size column and the mirror's last-sync time bit
// for bit, and that the publish rebuilt exactly the shards whose
// last-sync times moved, replan or not, and shared the plan table unless
// it followed a replan. Returns the largest class count seen.
size_t CheckServedPlanEveryPeriod(FreshendDaemon& daemon, int periods) {
  const size_t n = daemon.size();
  std::vector<double> previous_sync(n, 0.0);
  const PlanTable* previous_plan = nullptr;
  uint64_t previous_version = 0;
  {
    SnapshotRef first = daemon.AcquireSnapshot();
    previous_plan = first->plan().get();
    previous_version = first->stats().plan_version;
  }
  size_t max_classes = 0;
  for (int period = 1; period <= periods; ++period) {
    EXPECT_TRUE(daemon.Start().ok());
    while (daemon.running()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    daemon.Stop();
    SnapshotRef snapshot = daemon.AcquireSnapshot();
    EXPECT_TRUE(snapshot->CheckConsistent()) << "period " << period;
    const AdaptiveFreshener& controller = daemon.loop().controller();
    const std::vector<double>& last_sync =
        daemon.loop().mirror().LastSyncTimes();
    max_classes =
        std::max(max_classes, controller.PlanClasses().frequency.size());
    for (size_t i = 0; i < n; ++i) {
      const ElementView view = snapshot->Lookup(i);
      if (!SameBits(view.frequency, controller.Frequency(i)) ||
          !SameBits(view.change_rate, controller.PlannedChangeRate(i)) ||
          !SameBits(view.size, controller.sizes()[i]) ||
          !SameBits(view.last_sync_time, last_sync[i])) {
        ADD_FAILURE() << "period " << period << " element " << i;
        return max_classes;
      }
    }
    size_t moved_shards = 0;
    for (const par::Shard& shard : par::ShardPlan(n)) {
      moved_shards += std::memcmp(last_sync.data() + shard.begin,
                                  previous_sync.data() + shard.begin,
                                  shard.size() * sizeof(double)) != 0;
    }
    EXPECT_EQ(snapshot->stats().shards_rebuilt, moved_shards)
        << "period " << period;
    if (snapshot->stats().plan_version == previous_version) {
      EXPECT_EQ(snapshot->plan().get(), previous_plan) << "period " << period;
    }
    previous_sync = last_sync;
    previous_plan = snapshot->plan().get();
    previous_version = snapshot->stats().plan_version;
  }
  return max_classes;
}

// The snapshot serves the controller's plan and the mirror's sync times
// bit for bit, under a plan that groups the elements into few classes and
// under one with a class per element.
TEST(FreshendDaemonTest, SnapshotServesThePlanPerClassEveryPeriod) {
  obs::MetricsRegistry registry;
  auto options = DaemonOptions(&registry);
  options.loop.controller.replan_every_periods = 2.0;
  options.max_periods = 1;  // Each Start() runs exactly one more period.
  auto grouped =
      FreshendDaemon::Create(TestCatalog(9000), 300.0, options).value();
  EXPECT_LT(CheckServedPlanEveryPeriod(*grouped, 6), 9000u / 4);

  obs::MetricsRegistry identity_registry;
  options = DaemonOptions(&identity_registry);
  options.loop.accesses_per_period = 100000.0;
  options.max_periods = 1;
  auto per_element =
      FreshendDaemon::Create(TestCatalog(2000), 500.0, options).value();
  EXPECT_EQ(CheckServedPlanEveryPeriod(*per_element, 6), 2000u);
}

// Epoch 1 is built on the creating thread and every later epoch on the
// loop thread, in another malloc arena. Free bytes across all arenas must
// not grow by a snapshot copy (24 B per element) over a run that republishes
// the plan table every period and most shards: the blocks epoch 1 leaves
// are rewritten, not stranded. Only a sync rebuilds a shard, so the
// catalog's popularity is uniform (theta = 0) and the syncs reach every
// shard within the first periods; a Zipf-ranked catalog syncs its leading
// shards and leaves the rest on epoch 1's blocks.
TEST(FreshendDaemonTest, FullRepublishesStrandNoArenaMemory) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators do not report through mallinfo2";
#endif
  constexpr size_t kElements = 200000;
  const ElementSet truth = TestCatalog(kElements, /*theta=*/0.0);
  obs::MetricsRegistry registry;
  auto options = DaemonOptions(&registry);
  options.max_periods = 6;
  const size_t free_before = mallinfo2().fordblks;
  auto daemon = FreshendDaemon::Create(truth, 2000.0, options).value();
  ASSERT_TRUE(daemon->Start().ok());
  while (daemon->running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon->Stop();
  ASSERT_DOUBLE_EQ(registry
                       .GetCounter("freshen_serve_publishes_total",
                                   {{"kind", "full"}})
                       ->value(),
                   7.0);
  SnapshotRef snapshot = daemon->AcquireSnapshot();
  ASSERT_TRUE(snapshot);
  EXPECT_EQ(snapshot->stats().shards_recycled,
            snapshot->stats().shards_rebuilt);
  const double free_growth = static_cast<double>(mallinfo2().fordblks) -
                             static_cast<double>(free_before);
  EXPECT_LT(free_growth, 24.0 * kElements);
}

// freshen_serve_snapshot_bytes carries the builder's held bytes after
// every publish: the live and spare copies of the 8-byte last-sync time
// per element, plus the live and spare plan tables.
TEST(FreshendDaemonTest, SnapshotBytesGaugeCountsLiveAndSpareBlocks) {
  constexpr size_t kElements = 20000;
  obs::MetricsRegistry registry;
  auto options = DaemonOptions(&registry);
  options.max_periods = 4;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(kElements), 500.0, options).value();
  const obs::Gauge* bytes = registry.GetGauge("freshen_serve_snapshot_bytes");
  EXPECT_EQ(bytes->value(),
            static_cast<double>(daemon->Stats().snapshot.held_bytes));
  ASSERT_TRUE(daemon->Start().ok());
  while (daemon->running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon->Stop();
  const SnapshotStats stats = daemon->Stats().snapshot;
  EXPECT_EQ(bytes->value(), static_cast<double>(stats.held_bytes));
  EXPECT_GT(stats.held_bytes, 12 * kElements);
  EXPECT_LE(stats.held_bytes, 2 * 8 * kElements + stats.held_plan_bytes);
}

TEST(FreshendDaemonTest, StopIsIdempotentAndQueriesSurviveIt) {
  obs::MetricsRegistry registry;
  auto options = DaemonOptions(&registry);
  options.max_periods = 2;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(50), 12.0, options).value();
  ASSERT_TRUE(daemon->Start().ok());
  daemon->Stop();
  daemon->Stop();
  EXPECT_FALSE(daemon->running());
  EXPECT_TRUE(daemon->IsFresh(0).ok());
  EXPECT_TRUE(daemon->Stats().snapshot.epoch >= 1u);
}

TEST(FreshendDaemonTest, GetPlanExposesFrequencyAndShare) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(100), 25.0, DaemonOptions(&registry))
          .value();
  double total_share = 0.0;
  for (size_t i = 0; i < daemon->size(); ++i) {
    const PlanEntry entry = daemon->GetPlan(i).value();
    EXPECT_GE(entry.frequency, 0.0);
    if (entry.frequency > 0.0) {
      EXPECT_DOUBLE_EQ(entry.interval, 1.0 / entry.frequency);
    } else {
      EXPECT_TRUE(std::isinf(entry.interval));
    }
    total_share += entry.bandwidth_share;
  }
  // The plan respects the bandwidth budget (elements have size 1 here or
  // larger; the cold-start plan spends at most the budget).
  EXPECT_LE(total_share, 25.0 * (1.0 + 1e-9));
}

// ---- Protocol -------------------------------------------------------------

TEST(ProtocolTest, AnswersEveryVerb) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, DaemonOptions(&registry))
          .value();
  ProtocolResponse response = HandleRequestLine(*daemon, "ISFRESH 3");
  EXPECT_NE(response.line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(response.line.find("\"cmd\":\"isfresh\""), std::string::npos);
  EXPECT_FALSE(response.close);

  response = HandleRequestLine(*daemon, "age 3");  // Case-insensitive.
  EXPECT_NE(response.line.find("\"expected_age\""), std::string::npos);

  response = HandleRequestLine(*daemon, "PLAN 0");
  EXPECT_NE(response.line.find("\"frequency\""), std::string::npos);

  response = HandleRequestLine(*daemon, "STATS");
  EXPECT_NE(response.line.find("\"epoch\":1"), std::string::npos);

  response = HandleRequestLine(*daemon, "PING");
  EXPECT_NE(response.line.find("\"cmd\":\"ping\""), std::string::npos);

  response = HandleRequestLine(*daemon, "QUIT");
  EXPECT_TRUE(response.close);
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, DaemonOptions(&registry))
          .value();
  for (const char* bad :
       {"", "   ", "FROB 1", "ISFRESH", "ISFRESH x", "ISFRESH -1",
        "ISFRESH 1 2 3", "AGE 99999"}) {
    const ProtocolResponse response = HandleRequestLine(*daemon, bad);
    EXPECT_NE(response.line.find("\"ok\":false"), std::string::npos)
        << "request: \"" << bad << "\" answered: " << response.line;
    EXPECT_FALSE(response.close);
  }
}

// ---- SlowQueryLog ---------------------------------------------------------

TEST(SlowQueryLogTest, ThresholdGatesRecording) {
  SlowQueryLog log({.capacity = 8, .threshold_seconds = 0.010});
  EXPECT_FALSE(log.Record("PING", "ping", 0.001, 1.0));
  EXPECT_TRUE(log.Record("STATS", "stats", 0.050, 2.0));
  EXPECT_EQ(log.total_recorded(), 1u);
  const std::vector<SlowQueryEntry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].command, "stats");
  EXPECT_DOUBLE_EQ(entries[0].seconds, 0.050);
}

TEST(SlowQueryLogTest, RingOverwritesOldestAndListsNewestFirst) {
  SlowQueryLog log({.capacity = 3, .threshold_seconds = 0.0});
  for (int i = 1; i <= 5; ++i) {
    log.Record("CMD " + std::to_string(i), "cmd", 0.001 * i, i);
  }
  EXPECT_EQ(log.total_recorded(), 5u);
  const std::vector<SlowQueryEntry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 3u);
  // Newest first: ids 5, 4, 3; 1 and 2 were overwritten.
  EXPECT_EQ(entries[0].id, 5u);
  EXPECT_EQ(entries[1].id, 4u);
  EXPECT_EQ(entries[2].id, 3u);
  log.Clear();
  EXPECT_TRUE(log.Entries().empty());
  EXPECT_EQ(log.total_recorded(), 5u);  // Totals survive a clear.
}

TEST(SlowQueryLogTest, TruncatesOversizedRequests) {
  SlowQueryLog log({.capacity = 2, .threshold_seconds = 0.0});
  log.Record(std::string(1000, 'x'), "unknown", 0.001, 1.0);
  const std::vector<SlowQueryEntry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].request.size(), 128u);
}

// ---- Admin telemetry protocol --------------------------------------------

TEST(ProtocolTest, MetricsRoundTripsJsonAndProm) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, DaemonOptions(&registry))
          .value();

  ProtocolResponse response = HandleRequestLine(*daemon, "METRICS");
  EXPECT_NE(response.line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(response.line.find("\"format\":\"json\""), std::string::npos);
  EXPECT_NE(response.line.find("\"series\":"), std::string::npos);
  // The embedded payload is the registry's JSON document inlined: it must
  // carry the build-info gauge and no raw newlines (single-line protocol).
  EXPECT_NE(response.line.find("\"payload\":{\"metrics\":["),
            std::string::npos);
  EXPECT_NE(response.line.find("freshen_build_info"), std::string::npos);
  EXPECT_EQ(response.line.find('\n'), std::string::npos);

  response = HandleRequestLine(*daemon, "METRICS prom");
  EXPECT_NE(response.line.find("\"format\":\"prom\""), std::string::npos);
  // Prometheus text is newline-separated; embedded it must be escaped.
  EXPECT_NE(response.line.find("\\n"), std::string::npos);
  EXPECT_EQ(response.line.find('\n'), std::string::npos);
  EXPECT_NE(response.line.find("# TYPE"), std::string::npos);

  response = HandleRequestLine(*daemon, "METRICS xml");
  EXPECT_NE(response.line.find("\"ok\":false"), std::string::npos);
}

TEST(ProtocolTest, HealthReportsHealthyDaemon) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, DaemonOptions(&registry))
          .value();
  const ProtocolResponse response = HandleRequestLine(*daemon, "HEALTH");
  EXPECT_NE(response.line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(response.line.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(response.line.find("\"slo_state\":\"ok\""), std::string::npos);
  EXPECT_NE(response.line.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(response.line.find("\"rejected_connections\":0"),
            std::string::npos);
  EXPECT_NE(response.line.find("\"overflow_disconnects\":0"),
            std::string::npos);
  EXPECT_NE(response.line.find("\"recorder_dropped\":"), std::string::npos);
  // A default daemon always owns its SLO monitor and drift detector, so
  // neither HEALTH nor a WATCH sample carries a null telemetry part.
  EXPECT_EQ(response.line.find("null"), std::string::npos) << response.line;
  const std::string sample = FormatWatchSample(*daemon, 1);
  EXPECT_NE(sample.find("\"slo_state\":\"ok\""), std::string::npos);
  EXPECT_NE(sample.find("\"drift_score\":0"), std::string::npos) << sample;
  EXPECT_EQ(sample.find("null"), std::string::npos) << sample;
}

TEST(ProtocolTest, HealthDegradesOnSaturationCounters) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, DaemonOptions(&registry))
          .value();
  registry.GetCounter("freshen_serve_rejected_total")->Increment();
  const ProtocolResponse response = HandleRequestLine(*daemon, "HEALTH");
  EXPECT_NE(response.line.find("\"status\":\"degraded\""),
            std::string::npos);
}

TEST(ProtocolTest, SloReportsStateWindowsAndDrift) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, DaemonOptions(&registry))
          .value();
  const ProtocolResponse response = HandleRequestLine(*daemon, "SLO");
  EXPECT_NE(response.line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(response.line.find("\"state\":\"ok\""), std::string::npos);
  EXPECT_NE(response.line.find("\"objective\":"), std::string::npos);
  EXPECT_NE(response.line.find("\"fast\":{\"window_periods\":"),
            std::string::npos);
  EXPECT_NE(response.line.find("\"slow\":{\"window_periods\":"),
            std::string::npos);
  EXPECT_NE(response.line.find("\"budget_remaining\":"), std::string::npos);
  // Drift detection is on by default, so the report embeds its state.
  EXPECT_NE(response.line.find("\"drift\":{\"aggregate_score\":"),
            std::string::npos);
}

TEST(ProtocolTest, SlowlogCapturesCommandsNewestFirst) {
  obs::MetricsRegistry registry;
  auto options = DaemonOptions(&registry);
  options.slowlog.threshold_seconds = 0.0;  // Log every command.
  options.slowlog.capacity = 4;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, options).value();
  HandleRequestLine(*daemon, "PING");
  HandleRequestLine(*daemon, "ISFRESH 3");
  const ProtocolResponse response = HandleRequestLine(*daemon, "SLOWLOG");
  EXPECT_NE(response.line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(response.line.find("\"threshold_seconds\":0"),
            std::string::npos);
  EXPECT_NE(response.line.find("\"capacity\":4"), std::string::npos);
  // Newest first: the most recent entry before SLOWLOG is ISFRESH.
  const size_t isfresh = response.line.find("\"request\":\"ISFRESH 3\"");
  const size_t ping = response.line.find("\"request\":\"PING\"");
  EXPECT_NE(isfresh, std::string::npos);
  EXPECT_NE(ping, std::string::npos);
  EXPECT_LT(isfresh, ping);
  // The SLOWLOG command itself was recorded too (after answering).
  EXPECT_GE(daemon->slow_log()->total_recorded(), 3u);
}

TEST(ProtocolTest, WatchAcksValidRequestsAndRejectsMalformed) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, DaemonOptions(&registry))
          .value();
  ProtocolResponse response = HandleRequestLine(*daemon, "WATCH 0.5 3");
  EXPECT_NE(response.line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(response.line.find("\"interval_seconds\":0.5"),
            std::string::npos);
  EXPECT_NE(response.line.find("\"count\":3"), std::string::npos);
  EXPECT_DOUBLE_EQ(response.watch_interval_seconds, 0.5);
  EXPECT_EQ(response.watch_count, 3u);
  EXPECT_FALSE(response.close);

  response = HandleRequestLine(*daemon, "WATCH 2");
  EXPECT_DOUBLE_EQ(response.watch_interval_seconds, 2.0);
  EXPECT_EQ(response.watch_count, 0u);  // Unbounded.

  for (const char* bad : {"WATCH", "WATCH abc", "WATCH 0", "WATCH 1e9",
                          "WATCH 0.5 x", "WATCH 0.5 -1", "WATCH 1 2 3"}) {
    response = HandleRequestLine(*daemon, bad);
    EXPECT_NE(response.line.find("\"ok\":false"), std::string::npos)
        << "request: " << bad << " answered: " << response.line;
    EXPECT_DOUBLE_EQ(response.watch_interval_seconds, 0.0)
        << "request: " << bad;
  }
}

TEST(ProtocolTest, StatsCarriesUptimeAndBuildInfo) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, DaemonOptions(&registry))
          .value();
  const ProtocolResponse response = HandleRequestLine(*daemon, "STATS");
  EXPECT_NE(response.line.find("\"shards_recycled\":"), std::string::npos);
  EXPECT_NE(response.line.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(response.line.find("\"build\":{\"version\":"),
            std::string::npos);
  EXPECT_NE(response.line.find("\"cxx_standard\":"), std::string::npos);
}

TEST(ProtocolTest, CommandLatencyHistogramPoolsUnknownVerbs) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, DaemonOptions(&registry))
          .value();
  HandleRequestLine(*daemon, "PING");
  HandleRequestLine(*daemon, "FROB 1");
  HandleRequestLine(*daemon, "XYZZY");
  const size_t size_after_two_unknowns = registry.size();
  HandleRequestLine(*daemon, "ANOTHER_INVENTED_VERB");
  // Invented verbs pool under cmd="unknown": the registry must not grow.
  EXPECT_EQ(registry.size(), size_after_two_unknowns);
  EXPECT_EQ(registry
                .GetHistogram("freshen_serve_command_seconds",
                              obs::LatencySecondsBuckets(),
                              {{"cmd", "unknown"}})
                ->count(),
            3u);
  EXPECT_EQ(registry
                .GetHistogram("freshen_serve_command_seconds",
                              obs::LatencySecondsBuckets(), {{"cmd", "ping"}})
                ->count(),
            1u);
}

TEST(ProtocolTest, FormatWatchSampleIsOneJsonLine) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, DaemonOptions(&registry))
          .value();
  const std::string sample = FormatWatchSample(*daemon, 7);
  EXPECT_NE(sample.find("\"cmd\":\"watch_sample\""), std::string::npos);
  EXPECT_NE(sample.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(sample.find("\"slo_state\":\"ok\""), std::string::npos);
  EXPECT_NE(sample.find("\"drift_score\":"), std::string::npos);
  EXPECT_EQ(sample.find('\n'), std::string::npos);
}

// ---- WATCH over a live socket --------------------------------------------

int ConnectUnix(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteLine(int fd, const std::string& line) {
  std::string out = line + "\n";
  size_t written = 0;
  while (written < out.size()) {
    const ssize_t n = ::write(fd, out.data() + written, out.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

bool ReadLine(int fd, std::string* line) {
  line->clear();
  char ch;
  for (;;) {
    const ssize_t n = ::read(fd, &ch, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (ch == '\n') return true;
    line->push_back(ch);
  }
}

TEST(LineServerTest, WatchStreamsCountSamplesThenEnds) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, DaemonOptions(&registry))
          .value();
  LineServer::Options options;
  options.socket_path = testing::TempDir() + "serve_test_watch.sock";
  options.registry = &registry;
  auto server = LineServer::Start(daemon.get(), options).value();

  const int client = ConnectUnix(options.socket_path);
  ASSERT_GE(client, 0);
  ASSERT_TRUE(WriteLine(client, "WATCH 0.01 3"));
  std::string line;
  ASSERT_TRUE(ReadLine(client, &line));  // The ack.
  EXPECT_NE(line.find("\"cmd\":\"watch\""), std::string::npos);
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(ReadLine(client, &line)) << "sample " << seq;
    EXPECT_NE(line.find("\"cmd\":\"watch_sample\""), std::string::npos);
    EXPECT_NE(line.find("\"seq\":" + std::to_string(seq)),
              std::string::npos);
  }
  ASSERT_TRUE(ReadLine(client, &line));
  EXPECT_NE(line.find("\"cmd\":\"watch_end\""), std::string::npos);
  EXPECT_NE(line.find("\"reason\":\"count\""), std::string::npos);

  // The stream ended cleanly: the same connection answers again.
  ASSERT_TRUE(WriteLine(client, "PING"));
  ASSERT_TRUE(ReadLine(client, &line));
  EXPECT_NE(line.find("\"cmd\":\"ping\""), std::string::npos);
  WriteLine(client, "QUIT");
  ::close(client);
  server->Stop();
}

TEST(LineServerTest, WatchAnyClientInputEndsTheStream) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, DaemonOptions(&registry))
          .value();
  LineServer::Options options;
  options.socket_path = testing::TempDir() + "serve_test_watch_stop.sock";
  options.registry = &registry;
  auto server = LineServer::Start(daemon.get(), options).value();

  const int client = ConnectUnix(options.socket_path);
  ASSERT_GE(client, 0);
  ASSERT_TRUE(WriteLine(client, "WATCH 60"));  // Unbounded, slow cadence.
  std::string line;
  ASSERT_TRUE(ReadLine(client, &line));  // Ack.
  // Client-side cancel: any input ends the stream with reason "client",
  // and the pipelined request is answered afterwards.
  ASSERT_TRUE(WriteLine(client, "PING"));
  ASSERT_TRUE(ReadLine(client, &line));
  EXPECT_NE(line.find("\"cmd\":\"watch_end\""), std::string::npos);
  EXPECT_NE(line.find("\"reason\":\"client\""), std::string::npos);
  ASSERT_TRUE(ReadLine(client, &line));
  EXPECT_NE(line.find("\"cmd\":\"ping\""), std::string::npos);
  WriteLine(client, "QUIT");
  ::close(client);
  server->Stop();
}

TEST(LineServerTest, WatchClientDisconnectLeavesServerHealthy) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, DaemonOptions(&registry))
          .value();
  LineServer::Options options;
  options.socket_path = testing::TempDir() + "serve_test_watch_drop.sock";
  options.registry = &registry;
  auto server = LineServer::Start(daemon.get(), options).value();

  const int client = ConnectUnix(options.socket_path);
  ASSERT_GE(client, 0);
  ASSERT_TRUE(WriteLine(client, "WATCH 0.01"));  // Unbounded stream.
  std::string line;
  ASSERT_TRUE(ReadLine(client, &line));  // Ack.
  ASSERT_TRUE(ReadLine(client, &line));  // At least one sample arrives.
  EXPECT_NE(line.find("\"cmd\":\"watch_sample\""), std::string::npos);
  ::close(client);  // Vanish mid-stream.

  // The server must shrug it off and keep serving new connections.
  const int second = ConnectUnix(options.socket_path);
  ASSERT_GE(second, 0);
  ASSERT_TRUE(WriteLine(second, "HEALTH"));
  ASSERT_TRUE(ReadLine(second, &line));
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  WriteLine(second, "QUIT");
  ::close(second);
  server->Stop();
  EXPECT_GE(server->stats().accepted, 2u);
}

// ---- LineServer shutdown ordering ----------------------------------------

TEST(LineServerTest, StartStopWithoutTrafficIsClean) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, DaemonOptions(&registry))
          .value();
  LineServer::Options options;
  options.socket_path = testing::TempDir() + "serve_test_clean.sock";
  options.registry = &registry;
  auto server = LineServer::Start(daemon.get(), options).value();
  EXPECT_TRUE(server->running());
  server->Stop();
  EXPECT_FALSE(server->running());
  server->Stop();  // Idempotent.
}

TEST(LineServerTest, RejectsBadOptions) {
  obs::MetricsRegistry registry;
  auto daemon =
      FreshendDaemon::Create(TestCatalog(20), 5.0, DaemonOptions(&registry))
          .value();
  LineServer::Options options;
  EXPECT_FALSE(LineServer::Start(daemon.get(), options).ok());
  options.socket_path = "x";
  EXPECT_FALSE(LineServer::Start(nullptr, options).ok());
  options.socket_path = std::string(200, 'a');
  EXPECT_FALSE(LineServer::Start(daemon.get(), options).ok());
}

}  // namespace
}  // namespace serve
}  // namespace freshen
