// Tests for the deterministic RNG engines and the alias table.
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "io/catalog_binary.h"
#include "rng/alias_table.h"
#include "rng/rng.h"
#include "rng/zipf.h"

namespace freshen {
namespace {

TEST(SplitMix64Test, KnownSequence) {
  // Reference values for seed 0 from the public-domain reference
  // implementation of splitmix64 (same vectors as Java SplittableRandom).
  SplitMix64 mixer(0);
  EXPECT_EQ(mixer.Next(), 16294208416658607535ULL);
  EXPECT_EQ(mixer.Next(), 7960286522194355700ULL);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoublePositiveNeverZero) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDoublePositive();
    EXPECT_GT(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(RngTest, NextUint64BelowStaysInRange) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64Below(7), 7u);
    EXPECT_EQ(rng.NextUint64Below(1), 0u);
  }
}

TEST(RngTest, NextUint64BelowIsRoughlyUniform) {
  Rng rng(9);
  const uint64_t buckets = 10;
  std::vector<int> counts(buckets, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextUint64Below(buckets)];
  for (uint64_t b = 0; b < buckets; ++b) {
    EXPECT_NEAR(counts[b], n / 10, 600) << "bucket " << b;
  }
}

TEST(RngTest, NextDoubleInRespectsBounds) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDoubleIn(-3.0, 2.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 2.0);
  }
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(12);
  Rng child = parent.Fork();
  // The child stream must differ from the parent's continuation.
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    if (parent.NextUint64() != child.NextUint64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(AliasTableTest, SingleOutcome) {
  AliasTable table({5.0});
  Rng rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.Sample(rng), 0u);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  AliasTable table({1.0, 0.0, 1.0});
  Rng rng(14);
  for (int i = 0; i < 20000; ++i) EXPECT_NE(table.Sample(rng), 1u);
}

TEST(AliasTableTest, CreateRejectsWeightsTheConstructorAbortsOn) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(AliasTable::Create({}).ok());
  EXPECT_FALSE(AliasTable::Create({1.0, nan}).ok());
  EXPECT_FALSE(AliasTable::Create({1.0, -1.0}).ok());
  EXPECT_FALSE(
      AliasTable::Create({std::numeric_limits<double>::infinity()}).ok());
  const auto zero = AliasTable::Create({0.0, 0.0});
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().message(), "all weights are zero");
  // Valid weights build the table the constructor builds.
  const AliasTable made = AliasTable::Create({1.0, 0.0, 3.0}).value();
  const AliasTable built({1.0, 0.0, 3.0});
  Rng a(21);
  Rng b(21);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(made.Sample(a), built.Sample(b));
}

TEST(AliasTableTest, NormalizesProbabilities) {
  AliasTable table({2.0, 6.0});
  EXPECT_DOUBLE_EQ(table.probability(0), 0.25);
  EXPECT_DOUBLE_EQ(table.probability(1), 0.75);
}

TEST(AliasTableTest, EmpiricalFrequenciesMatch) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  AliasTable table(weights);
  Rng rng(15);
  std::vector<int> counts(4, 0);
  const int n = 400000;
  for (int i = 0; i < n; ++i) ++counts[table.Sample(rng)];
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = weights[i] / 10.0;
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, expected, 0.005)
        << "outcome " << i;
  }
}

TEST(AliasTableTest, LargeSkewedTable) {
  std::vector<double> weights(100000, 0.0);
  weights[42] = 1.0;   // Everything else zero.
  AliasTable table(weights);
  Rng rng(16);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(table.Sample(rng), 42u);
}

TEST(AliasTableTest, ZipfSampleStreamIsGolden) {
  // The sample stream is a contract: the mirror loop's access events, and so
  // every golden loop output, are drawn from it. The CRC was recorded from
  // the original table construction; any change to the table's arithmetic
  // or layout that moves a single draw fails here.
  AliasTable table(ZipfProbabilities(100000, 1.0));
  Rng rng(2003);
  std::vector<uint32_t> draws(100000);
  for (uint32_t& draw : draws) {
    draw = static_cast<uint32_t>(table.Sample(rng));
  }
  EXPECT_EQ(Crc32(draws.data(), draws.size() * sizeof(uint32_t)), 3253549267u);
}

}  // namespace
}  // namespace freshen
