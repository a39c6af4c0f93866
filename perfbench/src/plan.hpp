// The `plan` pipeline: the paper's whole loop on the library's public
// calls, from pfx2as text to sealed and reloaded state images.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "net/interval.hpp"
#include "net/ipv6.hpp"

namespace perfbench {

/// One pass of the pipeline with its stage timings (seconds) and results.
struct PlanPass {
  double setup_s = 0.0;  // parse -> RoutingTable(6) -> m-partitions
  double plan_s = 0.0;   // everything after set-up, sealing and reload
  double scan_share = 0.0;
  double host_coverage = 0.0;
  double sample_error = 0.0;

  // Per-layer figures of this pass.
  std::map<std::string, double> stage_s;  // stage name -> seconds
  std::uint64_t addresses_probed = 0;     // every engine run of the pass
  std::uint64_t hits = 0;
  double reduce_ratio = 0.0;
  std::uint64_t scope_intervals = 0;
  double image_mb = 0.0;
  double sampled_scope_rss_mb = 0.0;
  std::uint64_t sample_draws = 0;
};

/// What the serving workloads take from a plan: the sealed images and
/// the address populations their generators draw from.
struct PlanProducts {
  std::string v4_image;
  std::string v6_image;
  std::vector<tass::net::Interval> advertised;       // v4, ascending
  std::vector<tass::net::Interval> selected;         // TASS scope, scan order
  std::vector<tass::net::Ipv6Prefix> advertised6;    // v6 routes
  std::uint64_t cells = 0;
  std::uint64_t advertised_addresses = 0;
  std::uint64_t hosts = 0;
};

/// One full pass: set-up, planning, sealing, reload and the correctness
/// gates. Writes the images under `dir`; fills `products` when non-null.
PlanPass run_plan_pass(const Inputs& inputs, const World& world,
                       const std::string& dir, Gates& gates,
                       PlanProducts* products);

}  // namespace perfbench
