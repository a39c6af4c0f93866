#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>

#include "common.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace tass;

namespace {

constexpr std::size_t kRequestIdOffset = 4 + 4;  // length word, op/family/reserved
constexpr double kSpinWindowS = 0.001;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw Error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw Error("connect to tass_serve failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

RequestFrame make_frame(const serve::RequestHeader& header,
                        std::span<const std::uint8_t> body,
                        std::uint8_t kind) {
  std::vector<std::uint8_t> payload;
  serve::encode_request_header(payload, header);
  payload.insert(payload.end(), body.begin(), body.end());
  RequestFrame frame;
  frame.bytes = serve::frame(payload);
  frame.kind = kind;
  return frame;
}

LoadGenerator::LoadGenerator(std::uint16_t port, int connections) {
  for (int c = 0; c < connections; ++c) {
    Conn conn;
    conn.fd = connect_loopback(port);
    conn.in.resize(1 << 16);
    conns_.push_back(std::move(conn));
  }
}

LoadGenerator::~LoadGenerator() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

void LoadGenerator::submit(int connection, const RequestFrame& frame,
                           std::uint32_t tag, double due) {
  Conn& conn = conns_[static_cast<std::size_t>(connection)];
  const std::uint32_t id = next_id_++;
  const std::size_t at = conn.out.size();
  conn.out.insert(conn.out.end(), frame.bytes.begin(), frame.bytes.end());
  std::memcpy(conn.out.data() + at + kRequestIdOffset, &id, sizeof(id));
  Pending pending;
  pending.id = id;
  pending.kind = frame.kind;
  pending.tag = tag;
  pending.due = due;
  conn.inflight.push_back(pending);
  lag_.push_back(now_s() - due);
  flush(conn);
}

void LoadGenerator::flush(Conn& conn) {
  while (conn.out_sent < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_sent,
               conn.out.size() - conn.out_sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      throw Error("send to tass_serve failed");
    }
    conn.out_sent += static_cast<std::size_t>(n);
  }
  if (conn.out_sent == conn.out.size()) {
    conn.out.clear();
    conn.out_sent = 0;
  }
}

void LoadGenerator::receive(Conn& conn, const Handler& handler) {
  for (;;) {
    if (conn.in.size() - conn.in_used < (1 << 15)) {
      conn.in.resize(conn.in.size() * 2);
    }
    const ssize_t n = ::recv(conn.fd, conn.in.data() + conn.in_used,
                             conn.in.size() - conn.in_used, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      throw Error("recv from tass_serve failed");
    }
    if (n == 0) throw Error("tass_serve closed the connection");
    conn.in_used += static_cast<std::size_t>(n);
  }
  const double now = now_s();
  std::size_t offset = 0;
  const std::span<const std::uint8_t> buffer(conn.in.data(), conn.in_used);
  while (auto payload = serve::next_frame(buffer, offset)) {
    Arrival arrival;
    arrival.received = now;
    try {
      serve::Cursor cursor(*payload);
      arrival.header = serve::decode_response_header(cursor);
      arrival.body = payload->subspan(serve::kResponseHeaderBytes);
    } catch (const std::exception&) {
      ++protocol_errors_;
      continue;
    }
    if (conn.inflight.empty() ||
        conn.inflight.front().id != arrival.header.request_id) {
      ++protocol_errors_;
      continue;
    }
    const Pending pending = conn.inflight.front();
    conn.inflight.pop_front();
    arrival.kind = pending.kind;
    arrival.tag = pending.tag;
    arrival.due = pending.due;
    handler(arrival);
  }
  if (offset > 0) {
    std::memmove(conn.in.data(), conn.in.data() + offset,
                 conn.in_used - offset);
    conn.in_used -= offset;
  }
}

void LoadGenerator::pump(double until, const Handler& handler) {
  std::vector<pollfd> fds(conns_.size());
  do {
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out_sent < conns_[i].out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    // Sleep in ppoll only while the deadline is far off; close to it,
    // poll without blocking. An idle virtual CPU can wake milliseconds
    // late from a timed sleep, which would show up as generator lag.
    double left = until - now_s() - kSpinWindowS;
    if (left < 0.0) left = 0.0;
    timespec timeout;
    timeout.tv_sec = static_cast<time_t>(left);
    timeout.tv_nsec = static_cast<long>((left - std::floor(left)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) throw Error("ppoll failed");
    for (std::size_t i = 0; ready > 0 && i < conns_.size(); ++i) {
      if (fds[i].revents & POLLOUT) flush(conns_[i]);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        receive(conns_[i], handler);
      }
    }
  } while (now_s() < until);
}

std::size_t LoadGenerator::drain(double deadline, const Handler& handler) {
  while (outstanding() > 0 && now_s() < deadline) {
    pump(std::min(deadline, now_s() + 0.01), handler);
  }
  return outstanding();
}

std::size_t LoadGenerator::outstanding() const noexcept {
  std::size_t total = 0;
  for (const Conn& conn : conns_) total += conn.inflight.size();
  return total;
}

}  // namespace perfbench
