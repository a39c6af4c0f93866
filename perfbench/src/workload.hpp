// The three workloads and the phases they share.
//
// Every run plans, serves the plan under read load (serve_read phase)
// and serves it under live churn (serve_live phase), because every
// end-to-end metric is reported by every run. The workload decides which
// phase gets the measurement window (--seconds) and which inputs it is
// measured on; the other two phases run with short fixed windows.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "inputs.hpp"
#include "plan.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;  // plan | serve_read | serve_live
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string serve_binary;
  std::string work_dir;
  std::string env_json;
};

struct RunResult {
  Gates gates;
  std::uint64_t attempted = 0;  // pipeline passes + requests + updates
  std::uint64_t failed = 0;     // failed gates + unanswered/failed requests
  Metrics end_to_end;
  Metrics per_layer;
  Metrics report;  // everything, for the human-readable lines
  std::string env_line;
};

RunResult run_workload(const RunConfig& config);

// ---- the serving phases ------------------------------------------------

struct PhaseConfig {
  std::string serve_binary;
  std::string work_dir;
  Placement placement;
  std::uint64_t seed = 1;
  double window_s = 3.0;  // measurement window over the whole ladder
  int setup_reps = 3;
  bool trace = false;
  bool tiny = false;
};

struct PhaseResult {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;  // the child's VmHWM
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;    // end-to-end metrics of the phase
  Metrics layers;     // per-layer metrics of the phase
  Metrics report;     // extra lines for the human-readable report
};

PhaseResult run_read_phase(const PlanProducts& products,
                           const PhaseConfig& config, Gates& gates);
PhaseResult run_live_phase(const PlanProducts& products,
                           const PhaseConfig& config, Gates& gates);

}  // namespace perfbench
