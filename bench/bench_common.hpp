// Shared setup for the bench binaries: every bench regenerates its
// table/figure from the same synthetic world, controlled by environment
// variables so deeper sweeps need no recompilation.
//
//   TASS_SEED    master seed            (default 2016)
//   TASS_LCOUNT  l-prefix count         (default 8000; paper-scale topology)
//   TASS_SCALE   host scale             (default 0.02 of paper host counts)
//   TASS_MONTHS  months in the series   (default 7, as in the paper)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "census/series.hpp"
#include "census/topology.hpp"

namespace tass::bench {

struct BenchConfig {
  std::uint64_t seed = 2016;
  std::size_t l_prefix_count = 8000;
  double host_scale = 0.02;
  int months = 7;

  static BenchConfig from_env() {
    BenchConfig config;
    if (const char* seed = std::getenv("TASS_SEED")) {
      config.seed = std::strtoull(seed, nullptr, 10);
    }
    if (const char* count = std::getenv("TASS_LCOUNT")) {
      config.l_prefix_count = std::strtoull(count, nullptr, 10);
    }
    if (const char* scale = std::getenv("TASS_SCALE")) {
      config.host_scale = std::strtod(scale, nullptr);
    }
    if (const char* months = std::getenv("TASS_MONTHS")) {
      config.months = std::atoi(months);
    }
    return config;
  }
};

inline std::shared_ptr<const census::Topology> make_topology(
    const BenchConfig& config) {
  census::TopologyParams params;
  params.seed = config.seed;
  params.l_prefix_count = config.l_prefix_count;
  return census::generate_topology(params);
}

inline census::CensusSeries make_series(
    std::shared_ptr<const census::Topology> topology,
    census::Protocol protocol, const BenchConfig& config) {
  census::SeriesParams params;
  params.months = config.months;
  params.host_scale = config.host_scale;
  params.seed = config.seed + 1;
  return census::CensusSeries::generate(std::move(topology), protocol,
                                        params);
}

inline void print_world_banner(const BenchConfig& config,
                               const census::Topology& topology) {
  std::printf(
      "# synthetic world: seed=%llu l_prefixes=%zu cells=%zu "
      "advertised=%.2fB addresses host_scale=%.3f months=%d\n",
      static_cast<unsigned long long>(config.seed),
      topology.l_partition.size(), topology.m_partition.size(),
      static_cast<double>(topology.advertised_addresses) / 1e9,
      config.host_scale, config.months);
}

/// This process's peak resident set (VmHWM) in MB, or 0 where
/// /proc/self/status is unavailable.
inline double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

}  // namespace tass::bench
