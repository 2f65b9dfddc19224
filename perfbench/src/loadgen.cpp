#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace perfbench {

using Clock = std::chrono::steady_clock;

Connection::Connection(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect() to the benchmark server failed");
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::send_line(const std::string& line) {
  std::string out = line;
  out += '\n';
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::send(fd_, out.data() + off, out.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  quick_ack();
  return true;
}

void Connection::quick_ack() {
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
}

bool Connection::read_line(std::string& out, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      out.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return false;
    pollfd p{fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      closed_ = true;
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
    quick_ack();
  }
}

bool reply_matches(const ReadRequest& req, const std::string& reply) {
  if (req.expect == Expect::kExact) return reply == *req.expected;
  return reply.compare(0, req.expected->size(), *req.expected) == 0;
}

namespace {

// Silence after the schedule ends before outstanding requests count as
// unanswered.
constexpr int kDrainTimeoutMs = 30000;

struct InFlight {
  Clock::time_point due;
  Clock::time_point sent;
  ReadRequest req;
};

// One connection's sender/receiver pair and what they measured.
struct Lane {
  std::mutex mutex;
  std::deque<InFlight> queue;  // sent, not yet answered, in send order
  bool sender_done = false;
  std::uint64_t sent = 0;      // guarded by mutex once sender_done
  std::vector<double> latency_us, due_s, lag_us, round_trip_us;
  std::uint64_t failed = 0;
  std::size_t backlog_max = 0, backlog_late_max = 0;
  Clock::time_point last_reply{};
  std::string first_failure;
};

}  // namespace

PhaseResult run_open_loop(
    std::uint16_t port, std::size_t connections, double rate, double seconds,
    const std::function<ReadRequest(std::uint64_t)>& next) {
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < connections; ++c)
    conns.push_back(std::make_unique<Connection>(port));
  std::vector<Lane> lanes(connections);
  std::atomic<std::int64_t> outstanding{0};

  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto schedule_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto late_half =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds / 2));

  const auto sender = [&](std::size_t c) {
    Lane& lane = lanes[c];
    std::uint64_t sent = 0;
    for (std::uint64_t k = 0;; ++k) {
      // Connection c owns global slots c, c+C, c+2C, ... of the schedule.
      const std::uint64_t slot = k * connections + c;
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(slot / rate));
      if (due >= schedule_end) break;
      std::this_thread::sleep_until(due);
      InFlight item{due, Clock::now(), next(slot)};
      {
        std::lock_guard<std::mutex> lock(lane.mutex);
        lane.queue.push_back(item);
      }
      const std::int64_t backlog = outstanding.fetch_add(1) + 1;
      const auto b = static_cast<std::size_t>(backlog);
      lane.backlog_max = std::max(lane.backlog_max, b);
      if (due >= late_half)
        lane.backlog_late_max = std::max(lane.backlog_late_max, b);
      lane.lag_us.push_back(
          std::chrono::duration<double, std::micro>(item.sent - due).count());
      ++sent;
      if (!conns[c]->send_line(*item.req.line)) break;
    }
    std::lock_guard<std::mutex> lock(lane.mutex);
    lane.sent = sent;
    lane.sender_done = true;
  };

  const auto receiver = [&](std::size_t c) {
    Lane& lane = lanes[c];
    std::string reply;
    std::uint64_t received = 0;
    auto last_heard = Clock::now();
    for (;;) {
      bool done = false;
      {
        std::lock_guard<std::mutex> lock(lane.mutex);
        done = lane.sender_done;
        if (done && received == lane.sent) break;
      }
      // Short polls so the end of the schedule is noticed promptly.
      if (!conns[c]->read_line(reply, 20)) {
        if (conns[c]->closed()) break;
        if (done && Clock::now() - last_heard >
                        std::chrono::milliseconds(kDrainTimeoutMs))
          break;
        continue;
      }
      const auto now = Clock::now();
      last_heard = now;
      InFlight item;
      {
        std::lock_guard<std::mutex> lock(lane.mutex);
        item = std::move(lane.queue.front());
        lane.queue.pop_front();
      }
      outstanding.fetch_sub(1);
      ++received;
      lane.last_reply = now;
      lane.latency_us.push_back(
          std::chrono::duration<double, std::micro>(now - item.due).count());
      lane.due_s.push_back(
          std::chrono::duration<double>(item.due - start).count());
      lane.round_trip_us.push_back(
          std::chrono::duration<double, std::micro>(now - item.sent).count());
      if (!reply_matches(item.req, reply)) {
        if (lane.failed == 0)
          lane.first_failure = "reply mismatch: " + reply.substr(0, 160);
        ++lane.failed;
      }
    }
    // Whatever is still queued was never answered.
    std::lock_guard<std::mutex> lock(lane.mutex);
    if (!lane.queue.empty() && lane.failed == 0)
      lane.first_failure = "requests left unanswered";
    lane.failed += lane.queue.size();
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back(receiver, c);
    threads.emplace_back(sender, c);
  }
  for (std::thread& t : threads) t.join();

  PhaseResult out;
  Clock::time_point last = start;
  for (Lane& lane : lanes) {
    out.latency_us.insert(out.latency_us.end(), lane.latency_us.begin(),
                          lane.latency_us.end());
    out.due_s.insert(out.due_s.end(), lane.due_s.begin(), lane.due_s.end());
    out.lag_us.insert(out.lag_us.end(), lane.lag_us.begin(),
                      lane.lag_us.end());
    out.round_trip_us.insert(out.round_trip_us.end(),
                             lane.round_trip_us.begin(),
                             lane.round_trip_us.end());
    out.sent += lane.sent;
    out.failed += lane.failed;
    out.backlog_max = std::max(out.backlog_max, lane.backlog_max);
    out.backlog_late_max = std::max(out.backlog_late_max, lane.backlog_late_max);
    last = std::max(last, lane.last_reply);
    if (out.first_failure.empty()) out.first_failure = lane.first_failure;
  }
  out.elapsed_s = std::chrono::duration<double>(last - start).count();
  return out;
}

}  // namespace perfbench
