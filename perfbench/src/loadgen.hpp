// Open-loop load generation against tass_serve.
//
// One thread drives every connection through non-blocking sockets and
// ppoll: requests are sent when they are due, whatever the state of
// earlier ones, so a stalled daemon faces a growing queue instead of a
// politely waiting client. Each request is timed from when it was due to
// be sent, and the generator's own lateness (send time minus due time)
// is recorded so a run where the generator, not the daemon, fell behind
// can be told apart.
//
// Requests are pre-encoded frames; only the request id is patched in at
// send time, so the generator's per-request cost is a memcpy and a share
// of a send() call.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "serve/wire.hpp"

namespace perfbench {

/// A pre-encoded request frame (length word + request header + body).
struct RequestFrame {
  std::vector<std::uint8_t> bytes;
  std::uint8_t kind = 0;  // caller-defined request class
};

/// Builds a frame for `header` + `body` (request_id is patched later).
RequestFrame make_frame(const tass::serve::RequestHeader& header,
                        std::span<const std::uint8_t> body,
                        std::uint8_t kind);

struct Arrival {
  std::uint8_t kind = 0;
  std::uint32_t tag = 0;   // caller-defined (e.g. template index)
  double due = 0.0;        // when the request was due to be sent
  double received = 0.0;   // when its response was decoded
  tass::serve::ResponseHeader header;
  std::span<const std::uint8_t> body;  // valid during the callback only
};

class LoadGenerator {
 public:
  using Handler = std::function<void(const Arrival&)>;

  LoadGenerator(std::uint16_t port, int connections);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Queues `frame` on connection `connection` as due at `due`.
  void submit(int connection, const RequestFrame& frame, std::uint32_t tag,
              double due);

  /// Sends and receives until now_s() >= `until`, calling `handler` for
  /// every response. Returns early only when `until` has passed.
  void pump(double until, const Handler& handler);

  /// Pumps until every submitted request is answered or `deadline`
  /// passes; returns the number still outstanding.
  std::size_t drain(double deadline, const Handler& handler);

  std::size_t outstanding() const noexcept;
  int connections() const noexcept { return static_cast<int>(conns_.size()); }
  /// Protocol violations seen (mismatched id, undecodable frame).
  std::uint64_t protocol_errors() const noexcept { return protocol_errors_; }
  /// Send lateness samples (seconds past due when the request was queued
  /// for sending), one per request.
  const std::vector<double>& lag() const noexcept { return lag_; }
  void clear_lag() { lag_.clear(); }

 private:
  struct Pending {
    std::uint32_t id = 0;
    std::uint8_t kind = 0;
    std::uint32_t tag = 0;
    double due = 0.0;
  };
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> out;
    std::size_t out_sent = 0;
    std::vector<std::uint8_t> in;
    std::size_t in_used = 0;
    std::deque<Pending> inflight;
  };

  void flush(Conn& conn);
  void receive(Conn& conn, const Handler& handler);

  std::vector<Conn> conns_;
  std::uint32_t next_id_ = 1;
  std::uint64_t protocol_errors_ = 0;
  std::vector<double> lag_;
};

}  // namespace perfbench
