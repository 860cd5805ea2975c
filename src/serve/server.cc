#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/string_util.h"
#include "serve/protocol.h"

namespace freshen {
namespace serve {
namespace {

// listen(2) backlog.
constexpr int kListenBacklog = 16;

// Writes the whole buffer, riding out EINTR and short writes. MSG_NOSIGNAL:
// a client that vanishes mid-response (routine for WATCH streams) must
// surface as EPIPE here, not as a process-killing SIGPIPE.
bool WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n =
        ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<LineServer>> LineServer::Start(
    const FreshendDaemon* daemon, Options options) {
  if (daemon == nullptr) {
    return Status::InvalidArgument("daemon must not be null");
  }
  if (options.socket_path.empty()) {
    return Status::InvalidArgument("socket_path must not be empty");
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        StrFormat("socket_path too long (%zu bytes; max %zu)",
                  options.socket_path.size(), sizeof(addr.sun_path) - 1));
  }
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("socket(): %s", std::strerror(errno)));
  }
  ::unlink(options.socket_path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(StrFormat("bind(%s): %s",
                                      options.socket_path.c_str(),
                                      std::strerror(err)));
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(options.socket_path.c_str());
    return Status::Internal(
        StrFormat("listen(): %s", std::strerror(err)));
  }
  return std::unique_ptr<LineServer>(
      new LineServer(daemon, std::move(options), fd));
}

LineServer::LineServer(const FreshendDaemon* daemon, Options options,
                       int listen_fd)
    : daemon_(daemon),
      options_(std::move(options)),
      listen_fd_(listen_fd),
      registry_(options_.registry != nullptr
                    ? options_.registry
                    : &obs::MetricsRegistry::Global()) {
  connections_counter_ =
      registry_->GetCounter("freshen_serve_connections_total");
  rejected_counter_ = registry_->GetCounter("freshen_serve_rejected_total");
  requests_counter_ = registry_->GetCounter("freshen_serve_requests_total");
  overflow_counter_ = registry_->GetCounter("freshen_serve_overflow_total");
  pool_ = std::make_unique<ThreadPool>(ThreadPool::Options{
      .num_threads = kHandlerThreads,
      .queue_capacity = kPendingConnections});
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

LineServer::~LineServer() { Stop(); }

void LineServer::Stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  // Order matters: (1) poke the accept thread out of accept(2) and join it
  // so no new connections arrive; (2) shut down live connections' read
  // sides so blocked read(2)s return 0 and handlers finish; (3) destroy the
  // pool, which drains queued connections (their handlers see stopped_ and
  // close immediately) and joins the workers.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(fds_mu_);
    for (const int fd : live_fds_) ::shutdown(fd, SHUT_RD);
  }
  pool_.reset();
  ::unlink(options_.socket_path.c_str());
}

void LineServer::AcceptLoop() {
  for (;;) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      // Stop() closed the listener (EBADF/EINVAL) or the socket died.
      return;
    }
    if (stopped_.load(std::memory_order_acquire)) {
      ::close(conn);
      return;
    }
    const Status submitted = pool_->TrySubmit([this, conn] {
      ServeConnection(conn);
    });
    if (!submitted.ok()) {
      // Backpressure: refuse rather than queue unboundedly. The client sees
      // an immediate close and can retry.
      rejected_counter_->Increment();
      ::close(conn);
      continue;
    }
    connections_counter_->Increment();
  }
}

void LineServer::TrackFd(int fd) {
  std::lock_guard<std::mutex> lock(fds_mu_);
  live_fds_.push_back(fd);
}

void LineServer::UntrackFd(int fd) {
  std::lock_guard<std::mutex> lock(fds_mu_);
  live_fds_.erase(std::remove(live_fds_.begin(), live_fds_.end(), fd),
                  live_fds_.end());
}

void LineServer::ServeConnection(int fd) {
  if (stopped_.load(std::memory_order_acquire)) {
    ::close(fd);
    return;
  }
  TrackFd(fd);
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error (including Stop's SHUT_RD).
    buffer.append(chunk, static_cast<size_t>(n));
    if (buffer.size() > 1 << 16) {
      overflow_counter_->Increment();  // Abusive client; drop it.
      break;
    }
    size_t newline;
    while (open && (newline = buffer.find('\n')) != std::string::npos) {
      const ProtocolResponse response = HandleRequestLine(
          *daemon_, std::string_view(buffer.data(), newline));
      buffer.erase(0, newline + 1);
      requests_counter_->Increment();
      std::string out = response.line;
      out.push_back('\n');
      if (!WriteAll(fd, out.data(), out.size())) open = false;
      if (response.close) open = false;
      if (open && response.watch_interval_seconds > 0.0) {
        // Streaming mode: the ack is written, now pace samples until the
        // client sends anything, disconnects, the count is reached, or
        // the server stops. Leftover pipelined bytes in `buffer` are
        // processed after the watch ends.
        open = RunWatch(fd, response.watch_interval_seconds,
                        response.watch_count);
      }
    }
  }
  UntrackFd(fd);
  ::close(fd);
}

bool LineServer::RunWatch(int fd, double interval_seconds, uint64_t count) {
  const int timeout_ms =
      std::max(1, static_cast<int>(interval_seconds * 1000.0));
  uint64_t seq = 0;
  bool client_ended = false;
  while (!stopped_.load(std::memory_order_acquire) &&
         (count == 0 || seq < count)) {
    // Sleep one interval, but wake immediately on client input / EOF.
    // Stop() shuts down the read side of live fds, which also lands here
    // as a readable EOF — watches never outlive a graceful drain.
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (ready > 0) {
      // Any input (or hang-up) ends the watch; the caller's read loop
      // picks the bytes (or the EOF) up next.
      client_ended = true;
      break;
    }
    std::string sample = FormatWatchSample(*daemon_, ++seq);
    sample.push_back('\n');
    if (!WriteAll(fd, sample.data(), sample.size())) return false;
  }
  std::string end = StrFormat(
      "{\"ok\":true,\"cmd\":\"watch_end\",\"samples\":%llu,"
      "\"reason\":\"%s\"}",
      static_cast<unsigned long long>(seq),
      client_ended ? "client"
                   : (stopped_.load(std::memory_order_acquire) ? "stopped"
                                                               : "count"));
  end.push_back('\n');
  return WriteAll(fd, end.data(), end.size());
}

ServerStats LineServer::stats() const {
  ServerStats stats;
  stats.accepted = static_cast<uint64_t>(connections_counter_->value());
  stats.rejected = static_cast<uint64_t>(rejected_counter_->value());
  stats.requests = static_cast<uint64_t>(requests_counter_->value());
  stats.overflow = static_cast<uint64_t>(overflow_counter_->value());
  return stats;
}

}  // namespace serve
}  // namespace freshen
