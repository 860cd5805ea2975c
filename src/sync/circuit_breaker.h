// Per-source circuit breaker: stops a dead origin from burning the period's
// bandwidth budget on attempts that cannot succeed.
//
// States (the classic three-state machine):
//   closed    : requests flow; kBreakerFailureThreshold consecutive failures
//               trip the breaker open.
//   open      : requests are refused without touching the source; after
//               kBreakerOpenSeconds of cool-down the next request is
//               admitted as the half-open probe.
//   half-open : that one probe is in flight and every other request is
//               refused; its success re-closes the breaker, its failure
//               re-opens it and restarts the cool-down.
//
// The breaker is driven by caller-supplied timestamps (transport seconds),
// not the wall clock, so the executor's deterministic commit replay and the
// simulator both work. All methods are thread-safe (one mutex; the breaker
// sits on the retry path, not the per-access hot path).
#ifndef FRESHEN_SYNC_CIRCUIT_BREAKER_H_
#define FRESHEN_SYNC_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <mutex>

namespace freshen {
namespace sync {

/// Consecutive failures (while closed) that trip the breaker.
inline constexpr uint32_t kBreakerFailureThreshold = 5;
/// Cool-down before an open breaker admits its half-open probe.
inline constexpr double kBreakerOpenSeconds = 0.5;

/// Breaker position; see the header comment for the transition rules.
enum class BreakerState { kClosed, kOpen, kHalfOpen };

/// Returns "closed" / "open" / "half_open".
const char* BreakerStateName(BreakerState state);

/// The three-state breaker. Timestamps must be non-decreasing per caller;
/// out-of-order times are tolerated (clamped by the cool-down check) but
/// transition counts are only meaningful with monotone time.
class CircuitBreaker {
 public:
  /// True when a request at time `now` may proceed. Transitions open ->
  /// half-open once the cool-down has elapsed, admitting that request as
  /// the probe.
  bool AllowRequest(double now);

  /// Records a request outcome at time `now` and applies the transition
  /// rules above.
  void RecordSuccess(double now);
  void RecordFailure(double now);

  /// Current position.
  BreakerState state() const;

  /// Times the breaker tripped open (including half-open re-opens).
  uint64_t open_transitions() const;

 private:
  void TransitionToOpen(double now);  // Requires mu_ held.

  mutable std::mutex mu_;
  // kHalfOpen means the probe is in flight: the one probe is admitted on
  // entry and its outcome always leaves the state.
  BreakerState state_ = BreakerState::kClosed;
  uint32_t consecutive_failures_ = 0;
  double opened_at_ = 0.0;
  uint64_t open_transitions_ = 0;
};

}  // namespace sync
}  // namespace freshen

#endif  // FRESHEN_SYNC_CIRCUIT_BREAKER_H_
