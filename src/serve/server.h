// LineServer: the freshend transport — an AF_UNIX stream socket speaking the
// newline protocol from serve/protocol.h.
//
// Threading model:
//   * One accept thread blocks in accept() and hands each connection to a
//     ThreadPool of kHandlerThreads workers via TrySubmit. Past
//     kPendingConnections queued connections the pool refuses the
//     connection (the socket is closed immediately and
//     freshen_serve_rejected_total increments) — the serving path never
//     blocks on a slow client backlog.
//   * Each connection task reads lines, answers via HandleRequestLine
//     (which pins a snapshot per query; see serve/store.h), and writes one
//     JSON line per request until QUIT, EOF, or a read/write error.
//   * Stop() is the graceful drain used by freshend's SIGTERM handler:
//     shutdown(2) + close the listener to pop the accept thread out of
//     accept(), join it, then drain the pool (in-flight connections finish
//     their current line; the eof/error path ends them promptly because
//     Stop also shuts down accepted sockets' read sides).
#ifndef FRESHEN_SERVE_SERVER_H_
#define FRESHEN_SERVE_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "serve/daemon.h"

namespace freshen {
namespace serve {

/// Point-in-time server counters.
struct ServerStats {
  /// Connections accepted and handed to the pool.
  uint64_t accepted = 0;
  /// Connections refused because the handler pool queue was full.
  uint64_t rejected = 0;
  /// Request lines answered.
  uint64_t requests = 0;
  /// Connections dropped for exceeding the per-connection buffer cap
  /// (abusive clients sending unbounded unterminated data).
  uint64_t overflow = 0;
};

/// A newline-protocol server over a local (AF_UNIX) socket.
class LineServer {
 public:
  /// Connection-handler threads.
  static constexpr size_t kHandlerThreads = 4;
  /// Pending-connection capacity; beyond this, connections are refused.
  static constexpr size_t kPendingConnections = 64;

  struct Options {
    /// Filesystem path of the UNIX socket. A stale file at this path is
    /// unlinked before bind (freshend owns its socket path).
    std::string socket_path;
    /// Registry for freshen_serve_connections_total /
    /// freshen_serve_rejected_total / freshen_serve_requests_total.
    obs::MetricsRegistry* registry = nullptr;
  };

  /// Binds, listens, and starts the accept thread. The daemon must outlive
  /// the server.
  static Result<std::unique_ptr<LineServer>> Start(
      const FreshendDaemon* daemon, Options options);

  /// Stops accepting, unblocks in-flight readers, drains handlers, and
  /// removes the socket file. Idempotent.
  void Stop();

  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// True until Stop().
  bool running() const { return !stopped_.load(std::memory_order_acquire); }

  /// The bound socket path.
  const std::string& socket_path() const { return options_.socket_path; }

  ServerStats stats() const;

 private:
  LineServer(const FreshendDaemon* daemon, Options options, int listen_fd);

  void AcceptLoop();
  void ServeConnection(int fd);
  // WATCH streaming: writes FormatWatchSample lines every `interval`
  // seconds until `count` samples (0 = unbounded), any readable client
  // data, disconnect, or Stop(). Returns false when the connection died
  // (write failure / hang-up) and the caller should close it.
  bool RunWatch(int fd, double interval_seconds, uint64_t count);
  // Tracks live connection fds so Stop() can shut down their read sides.
  void TrackFd(int fd);
  void UntrackFd(int fd);

  const FreshendDaemon* daemon_;
  Options options_;
  int listen_fd_;
  std::atomic<bool> stopped_{false};
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> pool_;

  std::mutex fds_mu_;
  std::vector<int> live_fds_;

  obs::MetricsRegistry* registry_;
  obs::Counter* connections_counter_;
  obs::Counter* rejected_counter_;
  obs::Counter* requests_counter_;
  obs::Counter* overflow_counter_;
};

}  // namespace serve
}  // namespace freshen

#endif  // FRESHEN_SERVE_SERVER_H_
