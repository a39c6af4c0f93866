#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common.hpp"
#include "serve/client.hpp"
#include "util/error.hpp"

namespace perfbench {

Daemon::~Daemon() {
  if (pid_ > 0) stop();
}

void Daemon::start(const DaemonOptions& options) {
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    throw tass::Error("pipe2 failed");
  }
  // Everything the child needs is prepared before fork(): after it only
  // async-signal-safe calls run.
  std::vector<std::string> argv_storage;
  argv_storage.push_back(options.binary);
  argv_storage.insert(argv_storage.end(), options.args.begin(),
                      options.args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : options.cpus) CPU_SET(cpu, &set);
  const int err_fd =
      options.stderr_path.empty()
          ? -1
          : ::open(options.stderr_path.c_str(),
                   O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    if (err_fd >= 0) ::close(err_fd);
    throw tass::Error("fork failed");
  }
  if (pid == 0) {
    // The daemon must not outlive the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (!options.cpus.empty()) sched_setaffinity(0, sizeof(set), &set);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    if (err_fd >= 0) ::dup2(err_fd, STDERR_FILENO);
    if (options.feed_fd == 3) {
      ::fcntl(3, F_SETFD, 0);  // dup2 onto itself would keep FD_CLOEXEC
    } else if (options.feed_fd >= 0) {
      ::dup2(options.feed_fd, 3);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  ::close(out_pipe[1]);
  if (err_fd >= 0) ::close(err_fd);

  // Read "listening <addr> <port>" from the child's stdout.
  std::string line;
  const double deadline = now_s() + 60.0;
  while (line.find('\n') == std::string::npos) {
    const double left = deadline - now_s();
    if (left <= 0.0) break;
    pollfd pfd{out_pipe[0], POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(out_pipe[0], buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<std::size_t>(n));
  }
  ::close(out_pipe[0]);
  const std::size_t space = line.rfind(' ', line.find('\n'));
  if (line.rfind("listening ", 0) != 0 || space == std::string::npos) {
    stop();
    throw tass::Error("tass_serve did not start: '" + line + "'");
  }
  port_ = static_cast<std::uint16_t>(
      std::strtoul(line.c_str() + space + 1, nullptr, 10));
}

bool Daemon::stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  const double deadline = now_s() + 20.0;
  while (now_s() < deadline) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double wait_for_ping(std::uint16_t port, double timeout_s) {
  const double start = now_s();
  for (;;) {
    try {
      tass::serve::Client client("127.0.0.1", port);
      client.ping();
      return now_s() - start;
    } catch (const std::exception&) {
      if (now_s() - start > timeout_s) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

}  // namespace perfbench
