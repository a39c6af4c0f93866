// tass_serve as a child process: spawned pinned to the system's CPU
// set, waited on until it answers a ping, and stopped (SIGTERM, then
// SIGKILL after a grace period) with its exit reaped.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct DaemonOptions {
  std::string binary;
  std::vector<std::string> args;  // after argv[0]
  std::vector<int> cpus;          // empty = no pinning
  /// When >= 0, this descriptor is handed to the child as fd 3 (the
  /// `--feed fd:3` pipe). The parent keeps its own copy.
  int feed_fd = -1;
  std::string stderr_path;  // the child's stderr goes here
};

class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Forks and execs; returns once the child printed its listening port
  /// (throws tass::Error if it dies or stays silent for 60 s).
  void start(const DaemonOptions& options);

  /// SIGTERM, wait up to 20 s for a clean exit, then SIGKILL. Returns
  /// true when the child exited on its own with status 0.
  bool stop();

  pid_t pid() const noexcept { return pid_; }
  std::uint16_t port() const noexcept { return port_; }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Polls the daemon with pings until one is answered (or `timeout_s`
/// passes) and returns the seconds it took; throws on timeout.
double wait_for_ping(std::uint16_t port, double timeout_s);

}  // namespace perfbench
