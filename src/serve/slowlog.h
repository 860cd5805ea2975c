// SlowQueryLog — a fixed-capacity ring of the slowest recent requests, the
// freshend equivalent of redis SLOWLOG. The protocol layer records every
// request whose handling time crosses the configured threshold; SLOWLOG
// dumps the retained entries (newest first) so an operator can see *which*
// commands are slow without attaching a profiler.
//
// Mutex-protected: recording happens on connection-handler threads and
// dumping on whichever handler serves the SLOWLOG command. The ring is
// small (default 64 entries) and entries are bounded (requests truncate to
// 128 bytes), so the lock is held for nanoseconds.
#ifndef FRESHEN_SERVE_SLOWLOG_H_
#define FRESHEN_SERVE_SLOWLOG_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace freshen {
namespace serve {

/// One retained slow request.
struct SlowQueryEntry {
  /// Monotonic id over all recorded entries (total_recorded() - based), so
  /// dumps can be correlated across polls even as the ring wraps.
  uint64_t id = 0;
  /// The request line (truncated to 128 bytes).
  std::string request;
  /// The dispatched verb ("isfresh", "metrics", ...).
  std::string command;
  /// Handling time, seconds.
  double seconds = 0.0;
  /// Daemon uptime when recorded, seconds.
  double recorded_at = 0.0;
};

/// Thread-safe fixed-capacity slow-query ring.
class SlowQueryLog {
 public:
  /// The largest ring FreshendDaemon::Create accepts. The constructor
  /// reserves the whole ring up front.
  static constexpr size_t kMaxCapacity = size_t{1} << 16;

  struct Options {
    /// Entries retained (older entries are overwritten).
    size_t capacity = 64;
    /// Requests at or above this handling time are recorded. 0 records
    /// every request (useful in tests and drills).
    double threshold_seconds = 0.010;
  };

  explicit SlowQueryLog(Options options);

  /// Records one request if `seconds` crosses the threshold. Returns true
  /// when recorded.
  bool Record(std::string_view request, std::string_view command,
              double seconds, double recorded_at);

  /// Retained entries, newest first.
  std::vector<SlowQueryEntry> Entries() const;

  /// Entries ever recorded (>= Entries().size()).
  uint64_t total_recorded() const;

  /// Drops all retained entries (the counter keeps running).
  void Clear();

  double threshold_seconds() const { return options_.threshold_seconds; }
  size_t capacity() const { return options_.capacity; }

 private:
  Options options_;
  mutable std::mutex mu_;
  std::vector<SlowQueryEntry> ring_;  // Guarded by mu_; ring_[next_] oldest.
  size_t next_ = 0;                   // Guarded by mu_.
  uint64_t recorded_ = 0;             // Guarded by mu_.
};

}  // namespace serve
}  // namespace freshen

#endif  // FRESHEN_SERVE_SLOWLOG_H_
