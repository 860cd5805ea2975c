// Retry timing for sync fetches: a per-attempt timeout, and capped
// exponential backoff with decorrelated jitter (Brooker's AWS variant):
// each delay is uniform in [base, min(cap, 3 * previous_delay)], which
// decorrelates retry storms across tasks while never waiting less than
// `base` or more than `cap`. The attempt count is the executor's
// (SyncExecutor::Options::max_attempts).
#ifndef FRESHEN_SYNC_RETRY_H_
#define FRESHEN_SYNC_RETRY_H_

#include "rng/rng.h"

namespace freshen {
namespace sync {

/// Minimum backoff delay before a retry, in transport seconds.
inline constexpr double kBackoffBaseSeconds = 0.05;
/// Backoff cap, in transport seconds.
inline constexpr double kBackoffCapSeconds = 2.0;
/// Per-attempt timeout: an attempt whose transport latency exceeds this is
/// cut off and counted as DeadlineExceeded.
inline constexpr double kAttemptTimeoutSeconds = 1.0;

/// Draws the next decorrelated-jitter delay. `previous_delay_seconds` is the
/// delay used before the last attempt (pass 0 before the first retry). The
/// result is always within [kBackoffBaseSeconds, kBackoffCapSeconds].
double NextBackoffDelay(Rng& rng, double previous_delay_seconds);

}  // namespace sync
}  // namespace freshen

#endif  // FRESHEN_SYNC_RETRY_H_
