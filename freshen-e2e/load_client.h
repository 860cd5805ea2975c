// The benchmark's load generator (layer `client`): one thread driving a few
// AF_UNIX connections to a freshend LineServer.
//
// Open loop: queries leave at fixed spacing whatever the server does, round
// robin across the query connections, and each query's latency runs from its
// intended send time to the arrival of its full response line, so a stall
// also charges the requests that queued behind it (no coordinated
// omission). METRICS scrapes go on their own admin connection at a fixed
// rate. Closed loop: a fixed number of queries stay in flight per query
// connection, which measures how much load the socket carries.
//
// Every response is checked: "ok":true, the verb and the element id echoed,
// epochs never decreasing on a connection, p_fresh in [0, 1].
#ifndef FRESHEN_E2E_LOAD_CLIENT_H_
#define FRESHEN_E2E_LOAD_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "rng/alias_table.h"
#include "rng/rng.h"

namespace freshen::bench {

/// Records the span [begin, end] (obs::RecorderNowSeconds) on the calling
/// thread's track of the global flight recorder, with one numeric argument
/// when `arg_name` is set. Both ends are emitted together, so turning the
/// recorder on or off never leaves half a span. Unlike obs::ScopedSpan it
/// adds nothing to the registry and is no parent of the program's spans.
void EmitSpan(const char* name, const char* category, double begin,
              double end, const char* arg_name = nullptr, double arg = 0.0);

/// What one client phase saw.
struct ClientReport {
  // Samples are floats to keep the client's share of the process's memory
  // small: rss_mb measures the daemon and the client together.
  /// Steady-clock seconds at which the phase began.
  double origin = 0.0;
  /// Per query: intended send time -> full response line, microseconds.
  std::vector<float> latency_us;
  /// Per query: its intended send time, seconds after `origin`.
  std::vector<float> query_at;
  /// Per query: actual send -> full response line, microseconds.
  std::vector<float> rtt_us;
  /// Per query: how late the generator handed it to the socket.
  std::vector<float> lag_us;
  /// Per METRICS scrape: send -> full response line, microseconds.
  std::vector<float> admin_us;
  /// Requests written (queries and scrapes).
  uint64_t sent = 0;
  /// Requests that got no valid answer: malformed or mismatched responses,
  /// closed connections, and requests unanswered at the drain deadline.
  uint64_t failed = 0;
  /// Of `failed`, responses that arrived but broke the protocol contract.
  uint64_t invalid = 0;
  /// Closed loop: queries answered inside the sending window, and the
  /// window's length in seconds.
  uint64_t answered_in_window = 0;
  double window_seconds = 0.0;
  /// First problem seen, for the log.
  std::string first_error;
};

class LoadClient {
 public:
  /// Connects `query_connections` query connections and one admin
  /// connection to the socket at `path`. Query keys are drawn from `keys`
  /// (the catalog's access profile; must outlive the client) and verbs
  /// ISFRESH:AGE:PLAN at 3:1:1, both from a stream seeded by `seed`.
  static Result<std::unique_ptr<LoadClient>> Connect(const std::string& path,
                                                     size_t query_connections,
                                                     const AliasTable* keys,
                                                     uint64_t seed);

  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// One PING per connection; returns once every one is answered.
  Status Ping();

  /// Sends `rate` queries per second and `scrape_hz` METRICS scrapes per
  /// second until `stop` is set, then waits up to one second for the
  /// outstanding answers. One query in `trace_every` (0 = none) becomes a
  /// "request" span in the global flight recorder.
  ClientReport RunOpenLoop(double rate, double scrape_hz, uint32_t trace_every,
                           const std::atomic<bool>& stop);

  /// Keeps `depth` queries in flight on every query connection for
  /// `seconds`, then drains.
  ClientReport RunClosedLoop(size_t depth, double seconds);

 private:
  enum class Verb : uint8_t { kIsFresh, kAge, kPlan, kMetrics, kPing };

  struct Pending {
    double intended = 0.0;
    double sent = 0.0;
    uint32_t element = 0;
    Verb verb = Verb::kPing;
    bool traced = false;
    uint64_t seq = 0;
  };

  struct Connection {
    int fd = -1;
    std::string out;
    size_t out_offset = 0;
    // Requests appended to `out` but not yet handed to the socket.
    size_t unsent = 0;
    std::string in;
    std::deque<Pending> pending;
    uint64_t last_epoch = 0;
    bool dead = false;
  };

  LoadClient(const AliasTable* keys, uint64_t seed) : keys_(keys), rng_(seed) {}

  // Appends one request to the connection's output; a request for a dead
  // connection counts as failed at once.
  void Enqueue(Connection& conn, Verb verb, uint32_t element, double intended,
               bool traced, ClientReport& report);
  // Enqueues a query for a key and verb drawn from the workload's mix.
  void EnqueueQuery(Connection& conn, double intended, bool traced,
                    ClientReport& report);
  // Writes pending output and stamps the send time of the requests
  // enqueued since the last flush.
  void Flush(Connection& conn, double now, ClientReport& report);
  // Reads what has arrived and checks every complete line. Returns the
  // number of query answers processed.
  size_t Receive(Connection& conn, ClientReport& report);
  void CheckLine(Connection& conn, const Pending& request,
                 std::string_view line, double now, ClientReport& report);
  void Fail(Connection& conn, const std::string& why, ClientReport& report);
  // Blocks until a socket is readable (or writable with output pending) or
  // `seconds` pass.
  void Wait(double seconds);
  bool Outstanding() const;

  const AliasTable* keys_;
  Rng rng_;
  uint64_t next_seq_ = 0;
  std::vector<Connection> queries_;
  Connection admin_;
};

}  // namespace freshen::bench

#endif  // FRESHEN_E2E_LOAD_CLIENT_H_
