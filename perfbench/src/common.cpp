#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

double now_s() {
  static const Clock::time_point origin = Clock::now();
  return seconds_between(origin, Clock::now());
}

namespace {

double status_field_mb(pid_t pid, const char* field) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(static_cast<long>(pid)) +
                     "/status";
  std::ifstream in(path);
  std::string line;
  const std::size_t field_length = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, field_length, field) == 0 &&
        line.size() > field_length && line[field_length] == ':') {
      return std::strtod(line.c_str() + field_length + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  // Nearest-rank: the smallest value with at least p of the sample at
  // or below it.
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

double vm_hwm_mb(pid_t pid) { return status_field_mb(pid, "VmHWM"); }
double vm_rss_mb(pid_t pid) { return status_field_mb(pid, "VmRSS"); }

Summary summarize(std::vector<double> values) {
  Summary out;
  out.count = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.p50 = percentile_sorted(values, 0.50);
  out.p90 = percentile_sorted(values, 0.90);
  out.p99 = percentile_sorted(values, 0.99);
  out.max = values.back();
  if (values.size() >= 1000) {
    out.tail = out.p99;
    out.tail_label = "p99";
  } else if (values.size() >= 100) {
    out.tail = out.p90;
    out.tail_label = "p90";
  } else {
    out.tail = out.max;
    out.tail_label = "max";
  }
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double windowed_p99(const std::vector<double>& ordered, std::size_t chunk) {
  const std::size_t runs = ordered.size() / chunk;
  if (runs < 2) return summarize(ordered).tail;
  std::vector<double> tails;
  for (std::size_t r = 0; r < runs; ++r) {
    std::vector<double> run(ordered.begin() + static_cast<std::ptrdiff_t>(r * chunk),
                            ordered.begin() + static_cast<std::ptrdiff_t>((r + 1) * chunk));
    std::sort(run.begin(), run.end());
    tails.push_back(percentile_sorted(run, 0.99));
  }
  return median(tails);
}

std::string Placement::describe() const {
  const auto list = [](const std::vector<int>& cpus) {
    if (cpus.empty()) return std::string("any");
    std::string out;
    for (const int cpu : cpus) {
      if (!out.empty()) out += ',';
      out += std::to_string(cpu);
    }
    return out;
  };
  return "bench=" + list(bench) + " system=" + list(system);
}

Placement plan_placement() {
  Placement placement;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return placement;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return placement;
  const std::size_t half = cpus.size() / 2;
  placement.bench.assign(cpus.begin(), cpus.begin() + half);
  placement.system.assign(cpus.begin() + half, cpus.end());
  return placement;
}

bool pin(pid_t pid, const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(pid, sizeof(set), &set) == 0;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

bool Gates::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

}  // namespace perfbench
