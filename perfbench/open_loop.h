#ifndef KDDN_PERFBENCH_OPEN_LOOP_H_
#define KDDN_PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kddn::perfbench {

/// Open-loop HTTP load client for the serving benchmark.
///
/// One thread drives every connection through poll(2). Request i is due at
/// `due_s[i]` seconds after the phase starts, whatever the server has
/// answered so far: independent clinicians do not wait for each other, so a
/// slow server faces a growing queue instead of a politely slowed client.
/// Latency is measured from the *due* time, not from the moment the bytes
/// went out, so a stall is charged to every request scheduled behind it (no
/// coordinated omission). How late the client itself sent each request is
/// recorded separately; if that grows, the run measured the client.
///
/// At most `max_connections` keep-alive connections are opened. A due request
/// goes to an idle connection when there is one and is otherwise pipelined
/// onto the connection with the fewest requests in flight.

/// Poisson arrival offsets in seconds from phase start: `count` exponential
/// inter-arrival gaps at `rate_rps`, drawn from `seed` alone.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_rps, int count);

struct OpenLoopOptions {
  int port = 0;  // On 127.0.0.1.
  int max_connections = 1;
};

/// One request's timeline, in seconds from phase start.
struct RequestRecord {
  double due_s = 0.0;
  double sent_s = -1.0;  // When its bytes were handed to the socket.
  double done_s = -1.0;  // When its response was complete; -1 if none.
  int payload = 0;       // Index into the wire request list.
  int status = 0;        // HTTP status; 0 on transport failure or timeout.
  std::string body;      // Response body.

  bool answered() const { return done_s >= 0.0; }
  double latency_ms() const { return (done_s - due_s) * 1e3; }
  double late_ms() const { return (sent_s - due_s) * 1e3; }
};

struct OpenLoopResult {
  std::vector<RequestRecord> records;  // records[i] = request i.
  int connections_opened = 0;
  int transport_errors = 0;  // Connections lost mid-flight.
};

/// Runs one phase on the calling thread. `wire_requests` holds complete
/// HTTP/1.1 requests (keep-alive); request i sends
/// `wire_requests[payloads[i]]` at `due_s[i]`. `due_s` must be ascending and
/// the same length as `payloads`.
OpenLoopResult RunOpenLoop(const OpenLoopOptions& options,
                           const std::vector<std::string>& wire_requests,
                           const std::vector<double>& due_s,
                           const std::vector<int>& payloads);

/// A keep-alive `POST target` with a JSON body, as bytes on the wire.
std::string HttpPostRequest(const std::string& target, const std::string& body);

}  // namespace kddn::perfbench

#endif  // KDDN_PERFBENCH_OPEN_LOOP_H_
