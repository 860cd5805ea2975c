// common/simd.h + model/freshness_batch.h — the SIMD transcendental layer
// under the water-filling solvers. The load-bearing contracts:
//
//   * Batch == Ref bitwise, per element, at EVERY length. The batch drivers
//     pad tails to full vectors, and lane independence means padding (and
//     which lanes share a vector) cannot change any element's value. Tails
//     are where that breaks if it breaks, so every length in
//     [1, 2*lanes + 3] is exercised.
//   * Seeds are hints only: an out-of-bracket or non-positive seed falls
//     back to the cold analytic seed bitwise; a good seed converges to the
//     same root to ~ulp.
//   * Accuracy: the kernels agree with an independent long-double oracle
//     (series-based near zero, where the direct forms cancel) to ~1e-11,
//     and with the libm-based scalars in model/freshness.h to ~1e-10 —
//     close, but never assumed bitwise.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/simd.h"
#include "model/freshness.h"
#include "model/freshness_batch.h"

namespace freshen {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

int64_t UlpDistance(double a, double b) {
  const auto key = [](double x) {
    const int64_t bits = std::bit_cast<int64_t>(x);
    return bits < 0 ? std::numeric_limits<int64_t>::min() - bits : bits;
  };
  const int64_t d = key(a) - key(b);
  return d < 0 ? -d : d;
}

double RelDiff(double a, double b) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return scale == 0.0 ? 0.0 : std::fabs(a - b) / scale;
}

// Log-uniform sample in [lo, hi].
double LogUniform(std::mt19937_64& rng, double lo, double hi) {
  std::uniform_real_distribution<double> u(std::log(lo), std::log(hi));
  return std::exp(u(rng));
}

// ---------------------------------------------------------------------------
// Independent long-double oracle for g and h. The direct forms
// 1 - (1+r)e^{-r} and r^2/2 - g(r) cancel catastrophically for small r even
// in 80-bit arithmetic (ulp(1) = 5.4e-20 vs g(r) ~ r^2/2), so below 0.5 the
// oracle uses the exact alternating series
//   g(r) = sum_{k>=2} (-1)^k (k-1)/k! r^k,
//   h(r) = sum_{k>=3} (-1)^{k+1} (k-1)/k! r^k,
// truncated far below long-double epsilon.
// ---------------------------------------------------------------------------

long double OracleG(long double r) {
  if (r >= 0.5L) return 1.0L - (1.0L + r) * std::exp(-r);
  long double sum = 0.0L;
  long double factorial = 2.0L;  // k! starting at k = 2.
  long double power = r * r;     // r^k.
  long double sign = 1.0L;       // (-1)^k.
  for (int k = 2; k <= 48; ++k) {
    sum += sign * (k - 1) / factorial * power;
    factorial *= (k + 1);
    power *= r;
    sign = -sign;
  }
  return sum;
}

long double OracleH(long double r) {
  if (r >= 0.5L) return r * r / 2.0L - OracleG(r);
  long double sum = 0.0L;
  long double factorial = 6.0L;  // 3!
  long double power = r * r * r;
  long double sign = 1.0L;  // (-1)^{k+1} at k = 3.
  for (int k = 3; k <= 48; ++k) {
    sum += sign * (k - 1) / factorial * power;
    factorial *= (k + 1);
    power *= r;
    sign = -sign;
  }
  return sum;
}

// ---------------------------------------------------------------------------
// simd.h batch primitives: batch == scalar-ref bitwise at every tail length.
// ---------------------------------------------------------------------------

using ScalarFn = double (*)(double);
using BatchFn = void (*)(const double*, double*, size_t);

void CheckBatchMatchesRef(BatchFn batch, ScalarFn ref, double lo, double hi,
                          const char* name) {
  std::mt19937_64 rng(0xC0FFEEu);
  std::uniform_real_distribution<double> u(lo, hi);
  const size_t lanes = simd::kLanes;
  for (size_t n = 1; n <= 2 * lanes + 3; ++n) {
    std::vector<double> x(n), out(n, -1e300);
    for (double& v : x) v = u(rng);
    batch(x.data(), out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(SameBits(out[i], ref(x[i])))
          << name << " n=" << n << " i=" << i << " x=" << x[i]
          << " batch=" << out[i] << " ref=" << ref(x[i]);
    }
  }
}

TEST(SimdBatchTest, ExpBatchMatchesRefBitwiseAtAllTailLengths) {
  CheckBatchMatchesRef(simd::ExpBatch, simd::ExpRef, -700.0, 700.0, "exp");
}

TEST(SimdBatchTest, Expm1BatchMatchesRefBitwiseAtAllTailLengths) {
  CheckBatchMatchesRef(simd::Expm1Batch, simd::Expm1Ref, -40.0, 40.0,
                       "expm1");
}

TEST(SimdBatchTest, Log1pBatchMatchesRefBitwiseAtAllTailLengths) {
  CheckBatchMatchesRef(simd::Log1pBatch, simd::Log1pRef, -0.999999, 1e6,
                       "log1p");
}

TEST(SimdBatchTest, LogPosBatchMatchesRefBitwiseAtAllTailLengths) {
  // Positive-normal domain across many binades (padding uses 0.0 internally
  // only for lanes past the tail, which are discarded).
  std::mt19937_64 rng(0xBEEFu);
  const size_t lanes = simd::kLanes;
  for (size_t n = 1; n <= 2 * lanes + 3; ++n) {
    std::vector<double> x(n), out(n, -1e300);
    for (double& v : x) v = LogUniform(rng, 1e-290, 1e290);
    simd::LogPosBatch(x.data(), out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(SameBits(out[i], simd::LogPosRef(x[i])))
          << "logpos n=" << n << " i=" << i << " x=" << x[i];
    }
  }
}

TEST(SimdBatchTest, PrimitivesMatchLibmClosely) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> ue(-700.0, 700.0);
  std::uniform_real_distribution<double> um(-30.0, 30.0);
  for (int i = 0; i < 20000; ++i) {
    const double xe = ue(rng);
    EXPECT_LE(RelDiff(simd::ExpRef(xe), std::exp(xe)), 1e-15) << "x=" << xe;
    const double xm = um(rng);
    EXPECT_LE(RelDiff(simd::Expm1Ref(xm), std::expm1(xm)), 1e-15)
        << "x=" << xm;
    const double xl = std::exp(um(rng)) - 1.0;  // log1p domain, wide range.
    EXPECT_LE(RelDiff(simd::Log1pRef(xl), std::log1p(xl)), 1e-15)
        << "x=" << xl;
    const double xp = LogUniform(rng, 1e-290, 1e290);
    EXPECT_LE(RelDiff(simd::LogPosRef(xp), std::log(xp)), 1e-15)
        << "x=" << xp;
  }
}

TEST(SimdBatchTest, LogPosIsAccurateForTinyArguments) {
  // The motivating case for LogPos over log1p(x-1): v << 1, where the
  // (v-1)+1 round trip would lose everything. This is what fixed the
  // h^{-1} cold seed at y ~ 1e-14.
  for (double v : {1e-300, 1e-100, 3e-14, 1e-8, 0.1, 1.0 - 1e-16}) {
    EXPECT_LE(RelDiff(simd::LogPosRef(v), std::log(v)), 1e-15) << "v=" << v;
  }
}

// ---------------------------------------------------------------------------
// freshness_batch kernels.
// ---------------------------------------------------------------------------

TEST(FreshnessBatchTest, BackendIsReported) {
  const std::string backend = BatchKernelBackend();
  EXPECT_TRUE(backend == "avx512" || backend == "avx2" || backend == "neon" ||
              backend == "scalar")
      << backend;
  EXPECT_GE(BatchKernelLanes(), 1u);
  EXPECT_EQ(BatchKernelLanes(), simd::kLanes);
}

TEST(FreshnessBatchTest, GainMatchesRefBitwiseAtAllTailLengths) {
  std::mt19937_64 rng(11);
  const size_t lanes = BatchKernelLanes();
  for (size_t n = 1; n <= 2 * lanes + 3; ++n) {
    std::vector<double> r(n), out(n, -1.0);
    for (double& v : r) v = LogUniform(rng, 1e-12, 700.0);
    BatchMarginalGainG(r.data(), out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(SameBits(out[i], RefMarginalGainG(r[i])))
          << "n=" << n << " i=" << i << " r=" << r[i];
    }
  }
}

TEST(FreshnessBatchTest, InverseGMatchesRefBitwiseAtAllTailLengths) {
  std::mt19937_64 rng(12);
  const size_t lanes = BatchKernelLanes();
  for (size_t n = 1; n <= 2 * lanes + 3; ++n) {
    std::vector<double> y(n), seeds(n), out(n, -1.0);
    for (size_t i = 0; i < n; ++i) {
      y[i] = LogUniform(rng, 1e-14, 1.0 - 1e-9);
      // Mix of cold (0), garbage (out-of-bracket), and plausible seeds:
      // each lane's result must still match the one-lane reference given
      // the same seed.
      const int kind = static_cast<int>(rng() % 3);
      seeds[i] = kind == 0 ? 0.0 : kind == 1 ? 1e9 : std::sqrt(2.0 * y[i]);
    }
    BatchInverseMarginalGainG(y.data(), seeds.data(), out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(SameBits(out[i], RefInverseMarginalGainG(y[i], seeds[i])))
          << "n=" << n << " i=" << i << " y=" << y[i] << " seed=" << seeds[i];
    }
    // nullptr seeds == all-cold.
    std::vector<double> cold(n, -1.0);
    BatchInverseMarginalGainG(y.data(), nullptr, cold.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(SameBits(cold[i], RefInverseMarginalGainG(y[i], 0.0)))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(FreshnessBatchTest, InverseHMatchesRefBitwiseAtAllTailLengths) {
  std::mt19937_64 rng(13);
  const size_t lanes = BatchKernelLanes();
  for (size_t n = 1; n <= 2 * lanes + 3; ++n) {
    std::vector<double> y(n), out(n, -1.0);
    for (double& v : y) v = LogUniform(rng, 1e-14, 1e8);
    BatchInverseAgeMarginalKernelH(y.data(), nullptr, out.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(SameBits(out[i], RefInverseAgeMarginalKernelH(y[i], 0.0)))
          << "n=" << n << " i=" << i << " y=" << y[i];
    }
  }
}

TEST(FreshnessBatchTest, OutOfBracketSeedsFallBackToColdBitwise) {
  // The seeds-are-hints contract: a rejected seed must not merely converge
  // near the cold answer, it must take the cold path exactly.
  std::mt19937_64 rng(14);
  for (int i = 0; i < 2000; ++i) {
    const double yg = LogUniform(rng, 1e-13, 1.0 - 1e-9);
    for (double bad : {0.0, -3.0, 1e12}) {
      EXPECT_TRUE(SameBits(RefInverseMarginalGainG(yg, bad),
                           RefInverseMarginalGainG(yg, 0.0)))
          << "y=" << yg << " seed=" << bad;
    }
    const double yh = LogUniform(rng, 1e-13, 1e7);
    for (double bad : {0.0, -3.0, 1e12}) {
      EXPECT_TRUE(SameBits(RefInverseAgeMarginalKernelH(yh, bad),
                           RefInverseAgeMarginalKernelH(yh, 0.0)))
          << "y=" << yh << " seed=" << bad;
    }
  }
}

TEST(FreshnessBatchTest, WarmSeedsConvergeToTheColdRoot) {
  // A good (in-bracket) seed may take a different iteration path but must
  // land in the same stopping band as the cold start — the property that
  // lets the multiplier search warm-start every probe without perturbing
  // the lattice predicate. The band is set by the step-based convergence
  // criterion, ~1e-13 relative at worst (h near its cube-root regime);
  // the lattice search's margin budget assumes < 1e-12.
  std::mt19937_64 rng(15);
  for (int i = 0; i < 5000; ++i) {
    const double yg = LogUniform(rng, 1e-13, 1.0 - 1e-9);
    const double cold_g = RefInverseMarginalGainG(yg, 0.0);
    // Perturbed true root and a mediocre guess, both in-bracket.
    for (double seed : {cold_g * 1.01, cold_g * 0.5 + 1e-8}) {
      EXPECT_LE(RelDiff(RefInverseMarginalGainG(yg, seed), cold_g), 1e-12)
          << "y=" << yg << " seed=" << seed;
    }
    const double yh = LogUniform(rng, 1e-13, 1e7);
    const double cold_h = RefInverseAgeMarginalKernelH(yh, 0.0);
    for (double seed : {cold_h * 1.01, cold_h * 0.5 + 1e-10}) {
      EXPECT_LE(RelDiff(RefInverseAgeMarginalKernelH(yh, seed), cold_h),
                1e-12)
          << "y=" << yh << " seed=" << seed;
    }
  }
}

TEST(FreshnessBatchTest, InverseGRoundTripsAgainstOracle) {
  std::mt19937_64 rng(16);
  double worst = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double y = LogUniform(rng, 1e-14, 1.0 - 1e-12);
    const double r = RefInverseMarginalGainG(y, 0.0);
    ASSERT_GT(r, 0.0) << "y=" << y;
    const long double back = OracleG(static_cast<long double>(r));
    const double rel = static_cast<double>(
        std::fabs(back - static_cast<long double>(y)) / y);
    worst = std::max(worst, rel);
    ASSERT_LE(rel, 1e-11) << "y=" << y << " r=" << r;
  }
  // The implementation currently achieves ~3e-14; the bound above leaves
  // headroom without letting a cancellation regression (the old direct-form
  // seams were ~1e-3 at tiny y) slip through.
  EXPECT_LE(worst, 1e-11);
}

TEST(FreshnessBatchTest, InverseHRoundTripsAgainstOracle) {
  std::mt19937_64 rng(17);
  for (int i = 0; i < 20000; ++i) {
    const double y = LogUniform(rng, 1e-14, 1e8);
    const double r = RefInverseAgeMarginalKernelH(y, 0.0);
    ASSERT_GT(r, 0.0) << "y=" << y;
    const long double back = OracleH(static_cast<long double>(r));
    const double rel = static_cast<double>(
        std::fabs(back - static_cast<long double>(y)) / y);
    ASSERT_LE(rel, 1e-11) << "y=" << y << " r=" << r;
  }
}

TEST(FreshnessBatchTest, AgreesWithLibmScalarsClosely) {
  // The batch kernels deliberately do NOT replace model/freshness.h; the
  // two implementations agree tightly but never bitwise by contract.
  std::mt19937_64 rng(18);
  for (int i = 0; i < 5000; ++i) {
    const double r = LogUniform(rng, 1e-6, 100.0);
    EXPECT_LE(RelDiff(RefMarginalGainG(r), MarginalGainG(r)), 1e-10)
        << "r=" << r;
    const double yg = LogUniform(rng, 1e-8, 1.0 - 1e-9);
    EXPECT_LE(RelDiff(RefInverseMarginalGainG(yg, 0.0),
                      InverseMarginalGainG(yg)),
              1e-9)
        << "y=" << yg;
    const double yh = LogUniform(rng, 1e-6, 1e6);
    EXPECT_LE(RelDiff(RefInverseAgeMarginalKernelH(yh, 0.0),
                      InverseAgeMarginalKernelH(yh)),
              1e-9)
        << "y=" << yh;
  }
}

// ---------------------------------------------------------------------------
// Warm-seed bounds at the kernel level. BreakpointSpendEvaluator::SpendAt
// seeds every probe's inversions with the previous probe's roots; these
// cases pin how far such a seed may move a root.
// ---------------------------------------------------------------------------

TEST(WarmSeedKernelTest, OutOfBracketSeedsFallBackToColdBitwise) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> u(1e-12, 1.0 - 1e-12);
  for (int i = 0; i < 20000; ++i) {
    const double y = u(rng);
    const double cold_g = RefInverseMarginalGainG(y, 0.0);
    for (double seed : {-1.0, 0.0, 745.0, 1e308}) {
      ASSERT_TRUE(SameBits(RefInverseMarginalGainG(y, seed), cold_g))
          << "y=" << y << " seed=" << seed;
    }
    const double cold_h = RefInverseAgeMarginalKernelH(y, 0.0);
    for (double seed : {-1.0, 0.0, 50.0, 1e308}) {
      ASSERT_TRUE(SameBits(RefInverseAgeMarginalKernelH(y, seed), cold_h))
          << "y=" << y << " seed=" << seed;
    }
  }
}

TEST(WarmSeedKernelTest, StaleInBracketSeedsStayWithinFewUlps) {
  // Warm-seeded roots are NOT bitwise cold (the solver never relies on
  // that: converged fills are cold-seeded). What stale seeds must do is
  // stay converged: a seed from a 10x/0.1x-shifted problem lands within
  // ~1e-13 relative (a few hundred ulps) of the cold root — three orders
  // of magnitude below the ~5e-12 relative flip margin that makes the
  // multiplier search's lattice edge identical across probe paths.
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(1e-9, 1.0 - 1e-9);
  int64_t worst_g = 0, worst_h = 0;
  for (int i = 0; i < 20000; ++i) {
    const double y = u(rng);
    const double cold_g = RefInverseMarginalGainG(y, 0.0);
    const double cold_h = RefInverseAgeMarginalKernelH(y, 0.0);
    for (double shift : {10.0, 0.1}) {
      const double y_stale = std::min(std::max(y * shift, 1e-12), 1.0 - 1e-12);
      const double stale_seed_g = RefInverseMarginalGainG(y_stale, 0.0);
      const double warm_g = RefInverseMarginalGainG(y, stale_seed_g);
      worst_g = std::max(worst_g, UlpDistance(warm_g, cold_g));
      const double stale_seed_h = RefInverseAgeMarginalKernelH(y_stale, 0.0);
      const double warm_h = RefInverseAgeMarginalKernelH(y, stale_seed_h);
      worst_h = std::max(worst_h, UlpDistance(warm_h, cold_h));
    }
  }
  // 4096 ulps ~ 1e-12 relative: far below the flip margin, far above the
  // measured worst case (~450), so this fails only on real regressions.
  EXPECT_LE(worst_g, 4096) << "warm G roots drifted beyond ~1e-12 relative";
  EXPECT_LE(worst_h, 4096) << "warm H roots drifted beyond ~1e-12 relative";
}

}  // namespace
}  // namespace freshen
