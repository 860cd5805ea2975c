#include "sync/circuit_breaker.h"

namespace freshen {
namespace sync {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

bool CircuitBreaker::AllowRequest(double now) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now - opened_at_ < kBreakerOpenSeconds) return false;
      state_ = BreakerState::kHalfOpen;
      return true;
    case BreakerState::kHalfOpen:
      return false;  // The probe is still in flight.
  }
  return false;
}

void CircuitBreaker::RecordSuccess(double) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      break;
    case BreakerState::kOpen:
      // A late success from before the trip; ignored.
      break;
    case BreakerState::kHalfOpen:
      state_ = BreakerState::kClosed;
      consecutive_failures_ = 0;
      break;
  }
}

void CircuitBreaker::RecordFailure(double now) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= kBreakerFailureThreshold) {
        TransitionToOpen(now);
      }
      break;
    case BreakerState::kOpen:
      break;
    case BreakerState::kHalfOpen:
      // The probe failed: back to open, cool-down restarts.
      TransitionToOpen(now);
      break;
  }
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

uint64_t CircuitBreaker::open_transitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_transitions_;
}

void CircuitBreaker::TransitionToOpen(double now) {
  state_ = BreakerState::kOpen;
  opened_at_ = now;
  consecutive_failures_ = 0;
  ++open_transitions_;
}

}  // namespace sync
}  // namespace freshen
