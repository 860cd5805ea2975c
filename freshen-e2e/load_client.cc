#include "load_client.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>

#include "common/string_util.h"
#include "obs/recorder.h"

namespace freshen::bench {
namespace {

double Now() { return obs::RecorderNowSeconds(); }

// Below this much idle time the generator spins instead of sleeping: a
// wake-up from ppoll costs more than the spacing between requests at the
// rates the benchmark drives.
constexpr double kSpinSeconds = 20e-6;

// Answers still missing this long after the last send count as failed.
constexpr double kDrainSeconds = 1.0;

const char* VerbName(int verb) {
  static constexpr const char* kNames[] = {"isfresh", "age", "plan",
                                           "metrics", "ping"};
  return kNames[verb];
}

// The number after `needle` (a quoted key and its colon) in a response
// line; false when absent or malformed.
template <typename T>
bool Field(std::string_view line, std::string_view needle, T* value) {
  const size_t at = line.find(needle);
  if (at == std::string_view::npos) return false;
  const char* begin = line.data() + at + needle.size();
  const char* end = line.data() + line.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *value);
  return ec == std::errc() && ptr != begin;
}

}  // namespace

void EmitSpan(const char* name, const char* category, double begin,
              double end, const char* arg_name, double arg) {
  obs::EventRecorder& recorder = obs::EventRecorder::Global();
  obs::Event event;
  event.name = name;
  event.category = category;
  event.arg0 = arg;
  event.arg0_name = arg_name;
  event.phase = obs::EventPhase::kBegin;
  event.ts = begin;
  recorder.Emit(event);
  event.phase = obs::EventPhase::kEnd;
  event.ts = end;
  recorder.Emit(event);
}

Result<std::unique_ptr<LoadClient>> LoadClient::Connect(
    const std::string& path, size_t query_connections, const AliasTable* keys,
    uint64_t seed) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  std::unique_ptr<LoadClient> client(new LoadClient(keys, seed));
  client->queries_.resize(query_connections);
  const auto open = [&](Connection& conn) -> Status {
    conn.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (conn.fd < 0) {
      return Status::Unavailable(StrFormat("socket(): %s", std::strerror(errno)));
    }
    // A non-blocking AF_UNIX connect either completes at once or fails
    // (EAGAIN when the listen backlog is full).
    if (::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Status::Unavailable(StrFormat("connect(%s): %s", path.c_str(),
                                           std::strerror(errno)));
    }
    return Status::OK();
  };
  for (Connection& conn : client->queries_) {
    FRESHEN_RETURN_IF_ERROR(open(conn));
  }
  FRESHEN_RETURN_IF_ERROR(open(client->admin_));
  return client;
}

LoadClient::~LoadClient() {
  for (Connection& conn : queries_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (admin_.fd >= 0) ::close(admin_.fd);
}

void LoadClient::Enqueue(Connection& conn, Verb verb, uint32_t element,
                         double intended, bool traced, ClientReport& report) {
  ++report.sent;
  if (conn.dead) {
    ++report.failed;
    return;
  }
  Pending request;
  request.intended = intended;
  request.element = element;
  request.verb = verb;
  request.traced = traced;
  request.seq = next_seq_++;
  switch (verb) {
    case Verb::kIsFresh:
      conn.out += "ISFRESH ";
      break;
    case Verb::kAge:
      conn.out += "AGE ";
      break;
    case Verb::kPlan:
      conn.out += "PLAN ";
      break;
    case Verb::kMetrics:
      conn.out += "METRICS json\n";
      break;
    case Verb::kPing:
      conn.out += "PING\n";
      break;
  }
  if (verb == Verb::kIsFresh || verb == Verb::kAge || verb == Verb::kPlan) {
    char digits[16];
    const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits),
                                         element);
    conn.out.append(digits, end);
    conn.out += '\n';
  }
  conn.pending.push_back(request);
  ++conn.unsent;
}

void LoadClient::EnqueueQuery(Connection& conn, double intended, bool traced,
                              ClientReport& report) {
  const uint64_t pick = rng_.NextUint64Below(5);  // ISFRESH:AGE:PLAN = 3:1:1.
  const Verb verb = pick < 3 ? Verb::kIsFresh
                             : (pick == 3 ? Verb::kAge : Verb::kPlan);
  Enqueue(conn, verb, static_cast<uint32_t>(keys_->Sample(rng_)), intended,
          traced, report);
}

void LoadClient::Fail(Connection& conn, const std::string& why,
                      ClientReport& report) {
  if (report.first_error.empty()) report.first_error = why;
  report.failed += conn.pending.size();
  conn.pending.clear();
  conn.dead = true;
}

void LoadClient::Flush(Connection& conn, double now, ClientReport& report) {
  if (conn.dead) return;
  for (size_t i = conn.pending.size() - conn.unsent; i < conn.pending.size();
       ++i) {
    conn.pending[i].sent = now;
  }
  conn.unsent = 0;
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_offset,
               conn.out.size() - conn.out_offset, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      Fail(conn, StrFormat("send(): %s", std::strerror(errno)), report);
      return;
    }
    conn.out_offset += static_cast<size_t>(n);
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
}

size_t LoadClient::Receive(Connection& conn, ClientReport& report) {
  if (conn.dead) return 0;
  char chunk[1 << 16];
  bool got = false;
  for (;;) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      conn.in.append(chunk, static_cast<size_t>(n));
      got = true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    Fail(conn,
         n == 0 ? std::string("connection closed by the server")
                : StrFormat("recv(): %s", std::strerror(errno)),
         report);
    return 0;
  }
  if (!got) return 0;
  const double now = Now();
  size_t answered = 0;
  size_t start = 0;
  for (size_t newline; (newline = conn.in.find('\n', start)) !=
                       std::string::npos;
       start = newline + 1) {
    const std::string_view line(conn.in.data() + start, newline - start);
    if (conn.pending.empty()) {
      ++report.failed;
      ++report.invalid;
      if (report.first_error.empty()) {
        report.first_error =
            StrFormat("unsolicited response: %.*s",
                      static_cast<int>(line.size()), line.data());
      }
      continue;
    }
    const Pending request = conn.pending.front();
    conn.pending.pop_front();
    CheckLine(conn, request, line, now, report);
    if (request.verb != Verb::kMetrics && request.verb != Verb::kPing) {
      ++answered;
    }
  }
  conn.in.erase(0, start);
  return answered;
}

void LoadClient::CheckLine(Connection& conn, const Pending& request,
                           std::string_view line, double now,
                           ClientReport& report) {
  const char* verb = VerbName(static_cast<int>(request.verb));
  std::string why;
  const std::string prefix =
      StrFormat("{\"ok\":true,\"cmd\":\"%s\"", verb);
  const bool query = request.verb == Verb::kIsFresh ||
                     request.verb == Verb::kAge ||
                     request.verb == Verb::kPlan;
  uint64_t id = 0;
  uint64_t epoch = 0;
  double p_fresh = 0.0;
  if (line.substr(0, prefix.size()) != prefix) {
    why = StrFormat("not an ok %s answer", verb);
  } else if (query && (!Field(line, "\"id\":", &id) || id != request.element)) {
    why = StrFormat("id not echoed (asked %u)", request.element);
  } else if (query && (!Field(line, "\"epoch\":", &epoch) ||
                       epoch < conn.last_epoch)) {
    why = StrFormat("epoch went back from %llu",
                    static_cast<unsigned long long>(conn.last_epoch));
  } else if (request.verb == Verb::kIsFresh &&
             (!Field(line, "\"p_fresh\":", &p_fresh) || !(p_fresh >= 0.0) ||
              !(p_fresh <= 1.0))) {
    why = "p_fresh outside [0, 1]";
  }
  if (!why.empty()) {
    ++report.failed;
    ++report.invalid;
    if (report.first_error.empty()) {
      report.first_error =
          StrFormat("%s: %.*s", why.c_str(),
                    static_cast<int>(std::min<size_t>(line.size(), 160)),
                    line.data());
    }
    return;
  }
  if (query) {
    conn.last_epoch = epoch;
    report.latency_us.push_back((now - request.intended) * 1e6);
    report.query_at.push_back(request.intended - report.origin);
    report.rtt_us.push_back((now - request.sent) * 1e6);
    if (request.traced) {
      EmitSpan("request", "client", request.intended, now, "seq",
               static_cast<double>(request.seq));
    }
  } else if (request.verb == Verb::kMetrics) {
    report.admin_us.push_back((now - request.intended) * 1e6);
  }
}

bool LoadClient::Outstanding() const {
  for (const Connection& conn : queries_) {
    if (!conn.pending.empty()) return true;
  }
  return !admin_.pending.empty();
}

void LoadClient::Wait(double seconds) {
  pollfd fds[8];
  nfds_t count = 0;
  const auto watch = [&](const Connection& conn) {
    if (conn.dead || count == 8) return;
    fds[count].fd = conn.fd;
    fds[count].events = static_cast<short>(
        POLLIN | (conn.out.size() > conn.out_offset ? POLLOUT : 0));
    fds[count].revents = 0;
    ++count;
  };
  for (const Connection& conn : queries_) watch(conn);
  watch(admin_);
  seconds = std::max(0.0, seconds);
  timespec timeout;
  timeout.tv_sec = static_cast<time_t>(seconds);
  timeout.tv_nsec = static_cast<long>(
      (seconds - static_cast<double>(timeout.tv_sec)) * 1e9);
  ::ppoll(fds, count, &timeout, nullptr);
}

Status LoadClient::Ping() {
  ClientReport report;
  const double now = Now();
  for (Connection& conn : queries_) {
    Enqueue(conn, Verb::kPing, 0, now, false, report);
  }
  Enqueue(admin_, Verb::kPing, 0, now, false, report);
  const double deadline = now + 5.0;
  while (Outstanding()) {
    for (Connection& conn : queries_) Flush(conn, Now(), report);
    Flush(admin_, Now(), report);
    for (Connection& conn : queries_) Receive(conn, report);
    Receive(admin_, report);
    if (!Outstanding()) break;
    if (Now() > deadline) return Status::DeadlineExceeded("PING unanswered");
    Wait(deadline - Now());
  }
  if (report.failed > 0) {
    return Status::Unavailable("PING failed: " + report.first_error);
  }
  return Status::OK();
}

ClientReport LoadClient::RunOpenLoop(double rate, double scrape_hz,
                                     uint32_t trace_every,
                                     const std::atomic<bool>& stop) {
  // Sleep precisely: the default 50 us timer slack would show up as
  // generator lag at every wake-up.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  ClientReport report;
  const double interval = 1.0 / rate;
  const double scrape_interval =
      scrape_hz > 0.0 ? 1.0 / scrape_hz
                      : std::numeric_limits<double>::infinity();
  const double start = Now();
  report.origin = start;
  double next_query = start;
  double next_scrape = start;
  uint64_t queries = 0;
  bool stopping = false;
  double drain_deadline = 0.0;
  for (;;) {
    double now = Now();
    if (!stopping && stop.load(std::memory_order_acquire)) {
      stopping = true;
      drain_deadline = now + kDrainSeconds;
    }
    if (!stopping) {
      for (; next_query <= now; next_query += interval, ++queries) {
        report.lag_us.push_back((now - next_query) * 1e6);
        const bool traced = trace_every > 0 && queries % trace_every == 0;
        EnqueueQuery(queries_[queries % queries_.size()], next_query, traced,
                     report);
      }
      for (; next_scrape <= now; next_scrape += scrape_interval) {
        Enqueue(admin_, Verb::kMetrics, 0, next_scrape, false, report);
      }
    }
    for (Connection& conn : queries_) Flush(conn, now, report);
    Flush(admin_, now, report);
    for (Connection& conn : queries_) Receive(conn, report);
    Receive(admin_, report);
    now = Now();
    if (stopping) {
      if (!Outstanding()) break;
      if (now >= drain_deadline) {
        for (Connection& conn : queries_) {
          if (!conn.pending.empty()) {
            Fail(conn, "unanswered at the drain deadline", report);
          }
        }
        if (!admin_.pending.empty()) {
          Fail(admin_, "unanswered at the drain deadline", report);
        }
        break;
      }
    }
    const double next =
        stopping ? drain_deadline : std::min(next_query, next_scrape);
    if (next - now > kSpinSeconds) Wait(next - now - kSpinSeconds);
  }
  return report;
}

ClientReport LoadClient::RunClosedLoop(size_t depth, double seconds) {
  ClientReport report;
  const double start = Now();
  report.origin = start;
  const double end = start + seconds;
  for (Connection& conn : queries_) {
    for (size_t i = 0; i < depth; ++i) EnqueueQuery(conn, start, false, report);
  }
  for (;;) {
    double now = Now();
    for (Connection& conn : queries_) Flush(conn, now, report);
    for (Connection& conn : queries_) {
      const size_t answered = Receive(conn, report);
      now = Now();
      if (now < end) {
        report.answered_in_window += answered;
        for (size_t i = 0; i < answered; ++i) {
          EnqueueQuery(conn, now, false, report);
        }
      }
    }
    if (now >= end) {
      if (!Outstanding()) break;
      if (now >= end + kDrainSeconds) {
        for (Connection& conn : queries_) {
          if (!conn.pending.empty()) {
            Fail(conn, "unanswered at the drain deadline", report);
          }
        }
        break;
      }
    }
    Wait(now < end ? std::min(1e-3, end - now) : 1e-3);
  }
  report.window_seconds = seconds;
  return report;
}

}  // namespace freshen::bench
