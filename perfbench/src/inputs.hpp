// Seeded inputs of every workload: a RIB-shaped v4 announcement table,
// a v6 table with a clustered hitlist, both written as pfx2as/hitlist
// text, and the census world (simulated Internet) built on the v4 table.
//
// The census is the benchmark's ground truth, not a layer under test:
// building it is input generation and is kept out of every metric.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bgp/pfx2as.hpp"
#include "census/series.hpp"
#include "census/topology.hpp"
#include "net/ipv6.hpp"
#include "scan/engine.hpp"

namespace perfbench {

struct Sizes {
  std::size_t v4_cells = 500'000;  // m-cells the v4 generator aims for
  std::size_t v6_coverings = 60'000;
  int cycles = 2;                  // TASS cycles after the seed month
  double host_scale = 0.02;        // census::SeriesParams::host_scale
};

/// Full size, or the seconds-long smoke size.
Sizes sizes_for(bool tiny);

struct Inputs {
  std::uint64_t seed = 0;
  std::string v4_path;       // pfx2as text
  std::string v6_path;       // pfx2as6 text
  std::string hitlist_path;  // one v6 address per line
  std::size_t v4_routes = 0;
  std::size_t v6_routes = 0;
  std::size_t hitlist_size = 0;
};

/// The micro_coldstart table shape: disjoint buddy-allocated coverings,
/// ~55% announcing nested more-specifics, drawn until the deaggregated
/// table reaches `target_cells` cells (or IPv4 runs out).
std::vector<tass::bgp::Pfx2AsRecord> synthesize_v4(std::size_t target_cells,
                                                   std::uint64_t seed);

/// Writes the three input files under `dir`.
Inputs write_inputs(const std::string& dir, const Sizes& sizes,
                    std::uint64_t seed);

/// The simulated Internet: a topology over the v4 table, its monthly
/// host snapshots (seed month + cycles) and one probe oracle per month.
struct World {
  std::shared_ptr<const tass::census::Topology> topology;
  std::unique_ptr<tass::census::CensusSeries> series;
  std::vector<std::unique_ptr<tass::scan::SnapshotOracle>> oracles;
  double rss_mb = 0.0;  // VmRSS growth while building it
  std::uint64_t hosts_month0 = 0;
};

World build_world(const Inputs& inputs, const Sizes& sizes);

}  // namespace perfbench
