#pragma once

// Open-loop and closed-loop clients for the daemon's newline-delimited
// JSON protocol over loopback TCP.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One blocking loopback connection. Replies arrive in request order.
class Connection {
 public:
  explicit Connection(std::uint16_t port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends `line` plus a newline; false when the socket failed.
  bool send_line(const std::string& line);

  /// Reads the next reply line (without newline). Gives up after
  /// `timeout_ms` of silence or on a closed socket and returns false.
  bool read_line(std::string& out, int timeout_ms);

  /// True once the peer closed the connection or a read failed.
  bool closed() const { return closed_; }

 private:
  // ACKs replies at once. The server leaves Nagle on, so with delayed
  // ACKs each reply would wait for the next request to carry the ACK of
  // the previous one, and latency would track the request gap instead of
  // the server's work. Linux drops quick-ACK mode whenever the socket
  // looks interactive, so it is re-armed after every send and receive.
  void quick_ack();

  int fd_ = -1;
  bool closed_ = false;
  std::string buffer_;
};

/// How a reply is checked against its reference.
enum class Expect {
  kExact,   ///< byte-identical to the reference reply
  kPrefix,  ///< starts with the reference (status: counters follow)
};

/// One request of an open-loop stream and its reference reply. `keep`
/// owns the strings `line` and `expected` point into.
struct ReadRequest {
  const std::string* line = nullptr;
  const std::string* expected = nullptr;
  Expect expect = Expect::kExact;
  std::shared_ptr<const void> keep;
};

/// What one open-loop phase observed. Latency is timed from each
/// request's scheduled send; lag is how late the generator sent it.
struct PhaseResult {
  std::vector<double> latency_us;  ///< reply time - scheduled send
  std::vector<double> due_s;       ///< scheduled send, s after phase start
  std::vector<double> lag_us;      ///< actual send - scheduled send
  std::vector<double> round_trip_us;  ///< reply time - actual send
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;  ///< mismatched, error, or unanswered
  std::size_t backlog_max = 0;       ///< most requests in flight
  std::size_t backlog_late_max = 0;  ///< same, second half of schedule
  double elapsed_s = 0.0;            ///< first schedule slot to last reply
  std::string first_failure;         ///< for the log
};

/// Drives `connections` loopback connections with one request every
/// 1/`rate` seconds, fleet-wide, for `seconds`; `next(n)` supplies the
/// n-th request of the stream. Each connection has a sender thread that
/// keeps the schedule whatever the replies do and a receiver thread that
/// times and checks replies, so a slow server builds a backlog instead
/// of slowing the offered load.
PhaseResult run_open_loop(std::uint16_t port, std::size_t connections,
                          double rate, double seconds,
                          const std::function<ReadRequest(std::uint64_t)>& next);

/// True when `reply` matches `req`'s reference.
bool reply_matches(const ReadRequest& req, const std::string& reply);

}  // namespace perfbench
