// Shared helpers of the benchmark program: clocks, memory probes,
// percentiles with their sample counts, CPU placement, and the metric
// record every workload fills in.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in this process.
double now_s();

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Resident-set figures of a process (pid 0 = this one), in MB, read from
/// /proc/<pid>/status. Returns 0 when the file cannot be read.
double vm_hwm_mb(pid_t pid = 0);
double vm_rss_mb(pid_t pid = 0);

/// Order statistics of a sample, with the sample count they rest on.
/// p99 is only reported from at least 1000 samples; below that the
/// summary carries p90 instead and says so (`tail_label`).
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  /// The highest percentile with enough samples behind it: p99 from
  /// >= 1000 samples, else p90 (from >= 100), else max.
  double tail = 0.0;
  const char* tail_label = "max";
};
Summary summarize(std::vector<double> values);

double median(std::vector<double> values);

/// A p99 that one stall cannot move on its own: the p99 of every run of
/// `chunk` consecutive samples (in the order given, i.e. time order), and
/// the median over those runs. Falls back to summarize().tail when there
/// are fewer than two full runs.
double windowed_p99(const std::vector<double>& ordered,
                    std::size_t chunk = 1000);

/// The highest sustained rate on a ladder of rungs run in ascending
/// order: the highest rung that held, moved toward the rung above it by
/// log-log interpolation of the tail latency to where it crosses `limit`
/// (when that rung failed on latency). A ladder where no rung held
/// reports its bottom rate; one where the top rung held, its top rate.
template <class Step, class Ok, class Tail>
double sustained_rate(const std::vector<Step>& steps, Ok ok, Tail tail,
                      double limit) {
  std::size_t held = steps.size();
  for (std::size_t i = steps.size(); i-- > 0;) {
    if (ok(steps[i])) {
      held = i;
      break;
    }
  }
  if (held == steps.size()) return steps.empty() ? 0.0 : steps.front().rate;
  if (held + 1 == steps.size()) return steps.back().rate;
  const Step& low = steps[held];
  const Step& high = steps[held + 1];
  const double low_tail = tail(low);
  const double high_tail = tail(high);
  if (!(high_tail > limit) || !(low_tail > 0.0) || high_tail <= low_tail) {
    return low.rate;
  }
  const double x = (std::log(limit) - std::log(low_tail)) /
                   (std::log(high_tail) - std::log(low_tail));
  return low.rate * std::pow(high.rate / low.rate, std::clamp(x, 0.0, 1.0));
}

/// The CPUs this process may run on, split into two disjoint halves: the
/// system under test gets the upper half, this program and its load generator
/// the lower. Both are empty when fewer than two CPUs are available.
struct Placement {
  std::vector<int> bench;
  std::vector<int> system;
  std::string describe() const;
};
Placement plan_placement();
/// sched_setaffinity on `pid` (0 = calling thread); false when empty or
/// refused.
bool pin(pid_t pid, const std::vector<int>& cpus);

/// Ordered name -> (value, unit) record the benchmark prints.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// JSON string escaping for the small set of strings the benchmark prints.
std::string json_escape(const std::string& text);
/// A number with all its digits (%.17g), or 0 for non-finite values.
std::string json_number(double value);

/// Failure accounting shared by every workload: each gate counts one
/// attempt, and a failed gate prints its reason on stderr.
struct Gates {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool check(bool ok, const std::string& what);
};

}  // namespace perfbench
