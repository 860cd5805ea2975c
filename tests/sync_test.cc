// Unit tests for the sync building blocks: retry/backoff math (property
// test), the circuit-breaker state machine, and the fault-injecting sources.
#include <algorithm>

#include <gtest/gtest.h>

#include "rng/rng.h"
#include "sync/circuit_breaker.h"
#include "sync/executor.h"
#include "sync/retry.h"
#include "sync/source.h"

namespace freshen {
namespace sync {
namespace {

// The retry settings: the attempt count is the executor's option and must be
// at least one; the backoff and timeout constants must be usable as given.
TEST(RetryPolicyTest, ValidatesFields) {
  static_assert(kBackoffBaseSeconds > 0.0);
  static_assert(kBackoffCapSeconds >= kBackoffBaseSeconds);
  static_assert(kAttemptTimeoutSeconds > 0.0);
  PerfectSource source;
  SyncExecutor::Options options;
  EXPECT_TRUE(SyncExecutor::Create(&source, options).ok());
  options.max_attempts = 1;
  EXPECT_TRUE(SyncExecutor::Create(&source, options).ok());
  options.max_attempts = 0;
  EXPECT_FALSE(SyncExecutor::Create(&source, options).ok());
}

// Property: 10k decorrelated-jitter draws all stay within [base, cap], and
// the walk actually uses the upper range (it is not stuck at the base).
TEST(RetryPolicyTest, DecorrelatedJitterStaysWithinBaseAndCap) {
  Rng rng(12345);
  double delay = 0.0;  // "No previous delay" before the first retry.
  double max_seen = 0.0;
  for (int draw = 0; draw < 10000; ++draw) {
    delay = NextBackoffDelay(rng, delay);
    ASSERT_GE(delay, kBackoffBaseSeconds);
    ASSERT_LE(delay, kBackoffCapSeconds);
    max_seen = std::max(max_seen, delay);
    if (draw % 7 == 6) delay = 0.0;  // Restart the walk now and then.
  }
  EXPECT_GT(max_seen, 0.5 * kBackoffCapSeconds);
}

// Records kBreakerFailureThreshold failures at `now`, tripping a closed
// breaker open.
void Trip(CircuitBreaker& breaker, double now) {
  for (uint32_t i = 0; i < kBreakerFailureThreshold; ++i) {
    breaker.RecordFailure(now);
  }
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  CircuitBreaker breaker;
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  double now = 0.0;
  for (uint32_t i = 1; i < kBreakerFailureThreshold; ++i) {
    breaker.RecordFailure(now += 1.0);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  // A success resets the consecutive count.
  breaker.RecordSuccess(now += 1.0);
  for (uint32_t i = 1; i < kBreakerFailureThreshold; ++i) {
    breaker.RecordFailure(now += 1.0);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordFailure(now += 1.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.open_transitions(), 1u);
  // Open: requests refused until the cool-down elapses.
  EXPECT_FALSE(breaker.AllowRequest(now + 0.125));
  EXPECT_FALSE(breaker.AllowRequest(now + 0.96875 * kBreakerOpenSeconds));
}

TEST(CircuitBreakerTest, HalfOpenProbeRecloses) {
  CircuitBreaker breaker;
  Trip(breaker, 0.0);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  // Cool-down elapsed: exactly one probe is admitted.
  const double probe = kBreakerOpenSeconds;
  EXPECT_TRUE(breaker.AllowRequest(probe));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.AllowRequest(probe + 0.125));  // Probe in flight.
  breaker.RecordSuccess(probe + 0.25);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(probe + 0.375));
}

TEST(CircuitBreakerTest, FailedProbeReopensAndRestartsCooldown) {
  CircuitBreaker breaker;
  Trip(breaker, 0.0);
  ASSERT_TRUE(breaker.AllowRequest(kBreakerOpenSeconds));
  const double probe_failed = 1.5 * kBreakerOpenSeconds;
  breaker.RecordFailure(probe_failed);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.open_transitions(), 2u);
  // The cool-down restarted when the probe failed, so a request a full
  // cool-down after the first trip, but not after the probe, is refused.
  EXPECT_FALSE(breaker.AllowRequest(2.25 * kBreakerOpenSeconds));
  EXPECT_TRUE(breaker.AllowRequest(probe_failed + kBreakerOpenSeconds));
}

TEST(BreakerStateNameTest, CoversAllStates) {
  EXPECT_STREQ(BreakerStateName(BreakerState::kClosed), "closed");
  EXPECT_STREQ(BreakerStateName(BreakerState::kOpen), "open");
  EXPECT_STREQ(BreakerStateName(BreakerState::kHalfOpen), "half_open");
}

TEST(PerfectSourceTest, AlwaysSucceedsInstantly) {
  PerfectSource source;
  for (uint64_t seq = 0; seq < 100; ++seq) {
    const FetchResult result = source.Fetch({seq % 7, seq, 0});
    EXPECT_TRUE(result.status.ok());
    EXPECT_EQ(result.latency_seconds, 0.0);
  }
}

TEST(SimulatedSourceTest, ValidatesOptions) {
  SimulatedSource::Options options;
  options.error_rate = 1.5;
  EXPECT_FALSE(SimulatedSource::Create(options).ok());
  options = {};
  options.error_rate = 0.7;
  options.stall_rate = 0.7;
  EXPECT_FALSE(SimulatedSource::Create(options).ok());
  options = {};
  options.base_latency_seconds = -1.0;
  EXPECT_FALSE(SimulatedSource::Create(options).ok());
}

TEST(SimulatedSourceTest, DeterministicInSeedSeqAndAttempt) {
  SimulatedSource::Options options;
  options.error_rate = 0.4;
  options.stall_rate = 0.1;
  options.seed = 99;
  SimulatedSource a = SimulatedSource::Create(options).value();
  SimulatedSource b = SimulatedSource::Create(options).value();
  for (uint64_t seq = 0; seq < 500; ++seq) {
    const FetchRequest request{seq % 11, seq, uint32_t(seq % 3)};
    const FetchResult ra = a.Fetch(request);
    const FetchResult rb = b.Fetch(request);
    EXPECT_EQ(ra.status.code(), rb.status.code());
    EXPECT_DOUBLE_EQ(ra.latency_seconds, rb.latency_seconds);
  }
}

TEST(SimulatedSourceTest, ErrorRateIsRespected) {
  SimulatedSource::Options options;
  options.error_rate = 0.3;
  options.seed = 7;
  SimulatedSource source = SimulatedSource::Create(options).value();
  int errors = 0;
  const uint64_t trials = 10000;
  for (uint64_t seq = 0; seq < trials; ++seq) {
    if (!source.Fetch({0, seq, 0}).status.ok()) ++errors;
  }
  EXPECT_NEAR(static_cast<double>(errors) / static_cast<double>(trials), 0.3,
              0.02);
}

TEST(SimulatedSourceTest, StallsExceedTheStallLatency) {
  SimulatedSource::Options options;
  options.stall_rate = 1.0;
  SimulatedSource source = SimulatedSource::Create(options).value();
  const FetchResult result = source.Fetch({0, 0, 0});
  EXPECT_TRUE(result.status.ok());  // The executor's timeout cuts it off.
  EXPECT_DOUBLE_EQ(result.latency_seconds, kStallLatencySeconds);
  EXPECT_GT(result.latency_seconds, kAttemptTimeoutSeconds);
}

TEST(SimulatedSourceTest, FaultSwitchClearsEverything) {
  SimulatedSource::Options options;
  options.error_rate = 1.0;
  SimulatedSource source = SimulatedSource::Create(options).value();
  EXPECT_FALSE(source.Fetch({0, 0, 0}).status.ok());
  source.SetFaultsEnabled(false);
  EXPECT_TRUE(source.Fetch({0, 1, 0}).status.ok());
  source.SetFaultsEnabled(true);
  EXPECT_FALSE(source.Fetch({0, 2, 0}).status.ok());
}

}  // namespace
}  // namespace sync
}  // namespace freshen
