#include "open_loop.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <deque>

#include "common/check.h"
#include "common/net_util.h"
#include "common/rng.h"

namespace kddn::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// How long after the last due time to wait for outstanding responses before
/// counting them as failed.
constexpr double kDrainTimeoutS = 5.0;

struct Connection {
  int fd = -1;
  std::string out;
  size_t out_sent = 0;
  std::string in;
  size_t in_pos = 0;
  std::deque<int> in_flight;  // Request indices, oldest first.
};

/// Parses one complete response starting at `in[pos]`. Returns the bytes it
/// spans, 0 if incomplete, -1 if malformed.
long ParseResponse(const std::string& in, size_t pos, int* status,
                   std::string* body) {
  const size_t header_end = in.find("\r\n\r\n", pos);
  if (header_end == std::string::npos) {
    return 0;
  }
  const size_t line_end = in.find("\r\n", pos);
  if (in.compare(pos, 9, "HTTP/1.1 ") != 0 || line_end < pos + 12) {
    return -1;
  }
  *status = std::atoi(in.c_str() + pos + 9);
  size_t content_length = 0;
  for (size_t line = line_end + 2; line < header_end;) {
    const size_t next = in.find("\r\n", line);
    static constexpr char kName[] = "content-length:";
    if (next - line > sizeof(kName) - 1 &&
        strncasecmp(in.c_str() + line, kName, sizeof(kName) - 1) == 0) {
      content_length = std::strtoul(in.c_str() + line + sizeof(kName) - 1,
                                    nullptr, 10);
    }
    line = next + 2;
  }
  const size_t body_begin = header_end + 4;
  if (in.size() - body_begin < content_length) {
    return 0;
  }
  body->assign(in, body_begin, content_length);
  return static_cast<long>(body_begin + content_length - pos);
}

timespec ToTimespec(double seconds) {
  seconds = std::max(0.0, seconds);
  timespec ts;
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) *
                                 1e9);
  return ts;
}

class LoadLoop {
 public:
  LoadLoop(const OpenLoopOptions& options,
         const std::vector<std::string>& wire_requests,
         const std::vector<double>& due_s, const std::vector<int>& payloads)
      : options_(options),
        wire_requests_(wire_requests),
        connections_(std::max(1, options.max_connections)) {
    KDDN_CHECK_EQ(due_s.size(), payloads.size());
    result_.records.resize(due_s.size());
    for (size_t i = 0; i < due_s.size(); ++i) {
      KDDN_CHECK(i == 0 || due_s[i] >= due_s[i - 1]) << "unsorted schedule";
      KDDN_CHECK(payloads[i] >= 0 &&
                 payloads[i] < static_cast<int>(wire_requests.size()));
      result_.records[i].due_s = due_s[i];
      result_.records[i].payload = payloads[i];
    }
  }

  ~LoadLoop() {
    for (Connection& conn : connections_) {
      if (conn.fd >= 0) {
        net::CloseFd(conn.fd);
      }
    }
  }

  LoadLoop(const LoadLoop&) = delete;
  LoadLoop& operator=(const LoadLoop&) = delete;

  OpenLoopResult Run() {
    for (Connection& conn : connections_) {
      Open(&conn);
    }
    std::vector<RequestRecord>& records = result_.records;
    const size_t n = records.size();
    const double last_due = n == 0 ? 0.0 : records.back().due_s;
    start_ = Clock::now();
    size_t next = 0;
    std::vector<pollfd> fds(connections_.size());
    while (true) {
      double now = Now();
      while (next < n && records[next].due_s <= now) {
        Dispatch(static_cast<int>(next), now);
        ++next;
      }
      if (next == n && outstanding_ == 0) {
        break;
      }
      const double wake = next < n ? records[next].due_s
                                   : last_due + kDrainTimeoutS;
      if (next == n && now >= wake) {
        break;  // Whatever is still in flight counts as failed.
      }
      for (size_t c = 0; c < connections_.size(); ++c) {
        const Connection& conn = connections_[c];
        fds[c].fd = conn.fd;
        fds[c].events = static_cast<short>(
            POLLIN | (conn.out_sent < conn.out.size() ? POLLOUT : 0));
        fds[c].revents = 0;
      }
      const timespec timeout = ToTimespec(wake - now);
      const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
      if (ready < 0 && errno != EINTR) {
        throw KddnError(std::string("ppoll: ") + std::strerror(errno));
      }
      for (size_t c = 0; ready > 0 && c < connections_.size(); ++c) {
        Connection* conn = &connections_[c];
        if (conn->fd < 0 || fds[c].revents == 0) {
          continue;
        }
        if ((fds[c].revents & POLLOUT) != 0) {
          Flush(conn);
        }
        if (conn->fd >= 0 && (fds[c].revents & (POLLIN | POLLHUP | POLLERR))) {
          Read(conn);
        }
      }
    }
    return std::move(result_);
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void Open(Connection* conn) {
    conn->fd = net::ConnectTcp("127.0.0.1", options_.port);
    net::SetNonBlocking(conn->fd);
    net::SetTcpNoDelay(conn->fd);
    ++result_.connections_opened;
  }

  /// Idle connection first (scanning round-robin), else the one with the
  /// fewest requests in flight.
  Connection* Pick() {
    Connection* best = nullptr;
    for (size_t k = 0; k < connections_.size(); ++k) {
      Connection* conn = &connections_[(cursor_ + k) % connections_.size()];
      if (best == nullptr || conn->in_flight.size() < best->in_flight.size()) {
        best = conn;
      }
    }
    cursor_ = (cursor_ + 1) % connections_.size();
    return best;
  }

  void Dispatch(int index, double now) {
    Connection* conn = Pick();
    if (conn->fd < 0) {
      Open(conn);
    }
    RequestRecord& record = result_.records[index];
    record.sent_s = now;
    conn->out.append(wire_requests_[record.payload]);
    conn->in_flight.push_back(index);
    ++outstanding_;
    Flush(conn);
  }

  void Flush(Connection* conn) {
    while (conn->out_sent < conn->out.size()) {
      // MSG_NOSIGNAL: a server that closed the connection surfaces as EPIPE
      // here instead of killing the benchmark with SIGPIPE.
      const ssize_t n =
          ::send(conn->fd, conn->out.data() + conn->out_sent,
                 conn->out.size() - conn->out_sent, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_sent += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        Fail(conn);
        return;
      }
    }
    conn->out.clear();
    conn->out_sent = 0;
  }

  void Read(Connection* conn) {
    char buffer[16384];
    while (true) {
      const ssize_t n = ::read(conn->fd, buffer, sizeof(buffer));
      if (n > 0) {
        conn->in.append(buffer, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      Complete(conn);  // Responses that arrived before the close still count.
      Fail(conn);
      return;
    }
    Complete(conn);
  }

  /// Matches every complete buffered response to the oldest in-flight request.
  void Complete(Connection* conn) {
    while (!conn->in_flight.empty()) {
      int status = 0;
      std::string body;
      const long used = ParseResponse(conn->in, conn->in_pos, &status, &body);
      if (used == 0) {
        break;
      }
      if (used < 0) {
        Fail(conn);
        return;
      }
      conn->in_pos += static_cast<size_t>(used);
      RequestRecord& record = result_.records[conn->in_flight.front()];
      conn->in_flight.pop_front();
      --outstanding_;
      record.done_s = Now();
      record.status = status;
      record.body = std::move(body);
    }
    if (conn->in_pos == conn->in.size()) {
      conn->in.clear();
      conn->in_pos = 0;
    }
  }

  /// Drops a broken connection; its in-flight requests stay unanswered.
  void Fail(Connection* conn) {
    if (conn->fd < 0) {
      return;
    }
    net::CloseFd(conn->fd);
    conn->fd = -1;
    ++result_.transport_errors;
    outstanding_ -= static_cast<int>(conn->in_flight.size());
    conn->in_flight.clear();
    conn->out.clear();
    conn->out_sent = 0;
    conn->in.clear();
    conn->in_pos = 0;
  }

  const OpenLoopOptions& options_;
  const std::vector<std::string>& wire_requests_;
  std::vector<Connection> connections_;
  OpenLoopResult result_;
  Clock::time_point start_;
  size_t cursor_ = 0;
  int outstanding_ = 0;
};

}  // namespace

std::vector<double> PoissonSchedule(uint64_t seed, double rate_rps,
                                    int count) {
  KDDN_CHECK(rate_rps > 0.0) << "rate must be positive";
  Rng rng(seed ^ 0x6f70656e6c6f6f70ULL);  // "openloop"
  std::vector<double> due(static_cast<size_t>(std::max(0, count)));
  double t = 0.0;
  for (double& d : due) {
    t += -std::log(1.0 - rng.Uniform()) / rate_rps;
    d = t;
  }
  return due;
}

OpenLoopResult RunOpenLoop(const OpenLoopOptions& options,
                           const std::vector<std::string>& wire_requests,
                           const std::vector<double>& due_s,
                           const std::vector<int>& payloads) {
  LoadLoop loop(options, wire_requests, due_s, payloads);
  return loop.Run();
}

std::string HttpPostRequest(const std::string& target,
                            const std::string& body) {
  return "POST " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Connection: keep-alive\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

}  // namespace kddn::perfbench
