#include "open_loop.h"

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/net_util.h"

namespace kddn::perfbench {
namespace {

/// Minimal in-process HTTP responder on one thread: answers each request
/// with its own body, in arrival order, after sleeping `stall_ms` before the
/// response to request number `stall_at` (counted across connections).
class Responder {
 public:
  Responder(int stall_at, int stall_ms)
      : stall_at_(stall_at), stall_ms_(stall_ms), listen_fd_(net::ListenTcp(0)) {
    net::SetNonBlocking(listen_fd_);
    port_ = net::BoundPort(listen_fd_);
    thread_ = std::thread([this] { Loop(); });
  }

  ~Responder() {
    stop_.store(true);
    thread_.join();
    for (const Peer& peer : peers_) {
      net::CloseFd(peer.fd);
    }
    net::CloseFd(listen_fd_);
  }

  Responder(const Responder&) = delete;
  Responder& operator=(const Responder&) = delete;

  int port() const { return port_; }
  int accepted() const { return accepted_.load(); }

 private:
  struct Peer {
    int fd;
    std::string in;
  };

  void Loop() {
    while (!stop_.load()) {
      std::vector<pollfd> fds{{listen_fd_, POLLIN, 0}};
      for (const Peer& peer : peers_) {
        fds.push_back({peer.fd, POLLIN, 0});
      }
      ::poll(fds.data(), fds.size(), 5);
      if (fds[0].revents & POLLIN) {
        for (int fd; (fd = net::AcceptConnection(listen_fd_)) >= 0;) {
          net::SetNonBlocking(fd);
          net::SetTcpNoDelay(fd);
          peers_.push_back({fd, {}});
          ++accepted_;
        }
      }
      for (size_t i = 0; i + 1 < fds.size(); ++i) {
        if (fds[i + 1].revents & POLLIN) {
          Serve(&peers_[i]);
        }
      }
    }
  }

  void Serve(Peer* peer) {
    char buffer[4096];
    for (ssize_t n; (n = ::read(peer->fd, buffer, sizeof(buffer))) > 0;) {
      peer->in.append(buffer, static_cast<size_t>(n));
    }
    while (true) {
      const size_t header_end = peer->in.find("\r\n\r\n");
      if (header_end == std::string::npos) {
        return;
      }
      const size_t length_at = peer->in.find("Content-Length: ");
      const size_t length = std::strtoul(peer->in.c_str() + length_at + 16,
                                         nullptr, 10);
      if (peer->in.size() < header_end + 4 + length) {
        return;
      }
      const std::string body = peer->in.substr(header_end + 4, length);
      peer->in.erase(0, header_end + 4 + length);
      if (served_++ == stall_at_) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
      }
      const std::string response =
          "HTTP/1.1 200 OK\r\nContent-Length: " + std::to_string(body.size()) +
          "\r\n\r\n" + body;
      net::WriteAll(peer->fd, response.data(), response.size());
    }
  }

  const int stall_at_;
  const int stall_ms_;
  int listen_fd_;
  int port_ = 0;
  int served_ = 0;
  std::vector<Peer> peers_;
  std::atomic<int> accepted_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::vector<std::string> NumberedRequests(int count) {
  std::vector<std::string> wire;
  for (int i = 0; i < count; ++i) {
    wire.push_back(HttpPostRequest("/echo", std::to_string(i)));
  }
  return wire;
}

std::vector<int> Iota(int count) {
  std::vector<int> v(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    v[static_cast<size_t>(i)] = i;
  }
  return v;
}

TEST(OpenLoopTest, ScheduleIsAPureFunctionOfTheSeed) {
  const std::vector<double> a = PoissonSchedule(7, 500.0, 4000);
  EXPECT_EQ(a, PoissonSchedule(7, 500.0, 4000));
  EXPECT_NE(a, PoissonSchedule(8, 500.0, 4000));
  for (size_t i = 1; i < a.size(); ++i) {
    ASSERT_GT(a[i], a[i - 1]);
  }
  // 4000 exponential gaps: the mean is within a few percent of 1/rate.
  EXPECT_NEAR(a.back() / 4000.0, 1.0 / 500.0, 0.05 / 500.0);
}

TEST(OpenLoopTest, StalledResponderDelaysTheRequestsScheduledBehindIt) {
  constexpr int kStallAt = 100;
  constexpr int kStallMs = 60;
  constexpr int kCount = 300;
  Responder responder(kStallAt, kStallMs);
  std::vector<double> due;
  for (int i = 0; i < kCount; ++i) {
    due.push_back(0.002 * i);  // 500 req/s, one connection.
  }
  OpenLoopOptions options;
  options.port = responder.port();
  options.max_connections = 1;
  const OpenLoopResult result =
      RunOpenLoop(options, NumberedRequests(kCount), due, Iota(kCount));

  for (const RequestRecord& record : result.records) {
    ASSERT_TRUE(record.answered());
    ASSERT_EQ(record.status, 200);
    ASSERT_EQ(record.body, std::to_string(record.payload));
  }
  const RequestRecord& stalled = result.records[kStallAt];
  EXPECT_GE(stalled.latency_ms(), kStallMs);
  // Every later request due inside the stall waits until it ends: its
  // latency, timed from its own due time, covers the rest of the stall even
  // though the client sent it on schedule.
  int behind = 0;
  for (int i = kStallAt + 1; i < kCount; ++i) {
    const RequestRecord& record = result.records[static_cast<size_t>(i)];
    const double offset_ms = (record.due_s - stalled.due_s) * 1e3;
    if (offset_ms >= kStallMs) {
      break;
    }
    ++behind;
    EXPECT_GE(record.latency_ms(), kStallMs - offset_ms) << "request " << i;
    EXPECT_LT(record.late_ms(), kStallMs / 2.0) << "request " << i;
  }
  EXPECT_GE(behind, 25);
  EXPECT_LT(result.records.back().latency_ms(), kStallMs / 2.0);
}

TEST(OpenLoopTest, PipelinesOverAtMostMaxConnections) {
  constexpr int kCount = 400;
  Responder responder(/*stall_at=*/-1, /*stall_ms=*/0);
  OpenLoopOptions options;
  options.port = responder.port();
  options.max_connections = 2;
  // 20k req/s offered in a burst: far more requests than connections, so
  // most are pipelined behind others.
  const OpenLoopResult result = RunOpenLoop(
      options, NumberedRequests(kCount), PoissonSchedule(3, 20000.0, kCount),
      Iota(kCount));
  EXPECT_EQ(result.connections_opened, 2);
  EXPECT_EQ(responder.accepted(), 2);
  EXPECT_EQ(result.transport_errors, 0);
  for (const RequestRecord& record : result.records) {
    ASSERT_EQ(record.status, 200);
    ASSERT_EQ(record.body, std::to_string(record.payload));
  }
}

}  // namespace
}  // namespace kddn::perfbench
