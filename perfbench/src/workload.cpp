#include "workload.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "trace.hpp"
#include "util/cpu.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string page_backing() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  std::getline(in, mode);
  return mode.empty() ? "unknown" : "thp " + mode;
}

/// The plan phase: inputs, census world, set-up repetitions and plan
/// passes. The plan workload fills its window with passes.
struct PlanPhase {
  double setup_s = 0.0;
  double plan_s = 0.0;
  double bench_hwm_mb = 0.0;
  PlanPass first;
  std::vector<PlanPass> passes;
  PlanProducts products;
  World world;
  Inputs inputs;
};

/// The plan stages, as span names; each yields <name>_ms (median per
/// pass).
constexpr const char* kPlanStages[] = {
    "bgp.parse",        "bgp.rib",          "bgp.rib6",
    "bgp.partition",    "bgp.partition6",   "scan.engine",
    "core.rank",        "core.select",      "bgp.reduce",
    "scan.scope_build", "scan.sampled_scope", "core.estimate",
    "state.encode",     "state.load"};

/// The plan stages whose VmRSS growth is large enough to differ from run
/// to run; traced, each yields <name>.rss_delta_mb (mean per pass).
/// Every stage's delta is on the report lines.
constexpr const char* kRssStages[] = {
    "bgp.parse",   "bgp.rib",   "bgp.partition", "bgp.partition6",
    "scan.engine", "core.rank", "state.load"};

void flush_writes(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

double median_of(const std::vector<PlanPass>& passes,
                 double PlanPass::*field) {
  std::vector<double> values;
  for (const PlanPass& pass : passes) values.push_back(pass.*field);
  return median(values);
}

double median_stage(const std::vector<PlanPass>& passes, const char* name) {
  std::vector<double> values;
  for (const PlanPass& pass : passes) {
    const auto it = pass.stage_s.find(name);
    values.push_back(it == pass.stage_s.end() ? 0.0 : it->second);
  }
  return median(values) * 1e3;
}

}  // namespace

RunResult run_workload(const RunConfig& config) {
  RunResult result;
  const Sizes sizes = sizes_for(config.tiny);
  const Placement placement = plan_placement();
  // This process and its generator stay off the daemon's CPUs; every
  // thread it starts later inherits this mask.
  const bool pinned = pin(0, placement.bench);
  const bool is_plan = config.workload == "plan";
  const bool is_read = config.workload == "serve_read";
  const bool is_live = config.workload == "serve_live";
  // The measured phase gets --seconds; the other two get a fixed share.
  const double secondary_s = config.tiny ? 0.5 : 3.0;

  // ---- plan ------------------------------------------------------------
  PlanPhase plan;
  {
    Stage stage("census.inputs");
    plan.inputs = write_inputs(config.work_dir, sizes, config.seed);
    plan.world = build_world(plan.inputs, sizes);
  }
  std::fprintf(stderr, "perfbench: [%.1f s] inputs and census world built\n",
               now_s());
  const double plan_start = now_s();
  // One plan pass first: the serving phases serve its images. The plan
  // workload's further passes run after them, so that every workload
  // enters the serving phases in the same state.
  plan.passes.push_back(run_plan_pass(plan.inputs, plan.world,
                                      config.work_dir, result.gates,
                                      &plan.products));
  double passes_s = now_s() - plan_start;
  std::fprintf(stderr, "perfbench: [%.1f s] plan pass done\n", now_s());
  // The plan wrote its images; let their writeback finish before the
  // serving phases are timed.
  flush_writes(config.work_dir);

  // ---- serving phases ----------------------------------------------------
  PhaseConfig phase;
  phase.serve_binary = config.serve_binary;
  phase.work_dir = config.work_dir;
  phase.placement = placement;
  phase.seed = config.seed;
  phase.setup_reps = config.tiny ? 2 : 3;
  phase.trace = config.trace;
  phase.tiny = config.tiny;

  phase.window_s = is_read ? config.seconds : secondary_s;
  const PhaseResult read = run_read_phase(plan.products, phase, result.gates);
  std::fprintf(stderr, "perfbench: [%.1f s] serve_read phase done\n", now_s());
  flush_writes(config.work_dir);
  phase.window_s = is_live ? config.seconds : secondary_s;
  phase.setup_reps = is_live ? phase.setup_reps : 1;
  const PhaseResult live = run_live_phase(plan.products, phase, result.gates);
  std::fprintf(stderr, "perfbench: [%.1f s] serve_live phase done\n", now_s());
  result.attempted += read.attempted + live.attempted;
  result.failed += read.failed + live.failed;

  if (is_plan) {
    while (plan.passes.size() < 2 || passes_s < config.seconds) {
      const double start = now_s();
      plan.passes.push_back(run_plan_pass(plan.inputs, plan.world,
                                          config.work_dir, result.gates,
                                          nullptr));
      passes_s += now_s() - start;
    }
    std::fprintf(stderr, "perfbench: [%.1f s] %zu plan passes done\n", now_s(),
                 plan.passes.size());
  }
  plan.setup_s = median_of(plan.passes, &PlanPass::setup_s);
  plan.plan_s = median_of(plan.passes, &PlanPass::plan_s);
  plan.first = plan.passes.front();
  plan.bench_hwm_mb = vm_hwm_mb();
  result.attempted += plan.passes.size();

  // ---- end-to-end metrics ------------------------------------------------
  Metrics& e2e = result.end_to_end;
  e2e["setup_s"] = {is_plan ? plan.setup_s : is_read ? read.setup_s : live.setup_s,
                    "s"};
  e2e["peak_rss_mb"] = {is_plan   ? plan.bench_hwm_mb
                        : is_read ? read.peak_rss_mb
                                  : live.peak_rss_mb,
                        "MB"};
  e2e["plan_s"] = {plan.plan_s, "s"};
  e2e["scan_share"] = {plan.first.scan_share, "ratio"};
  e2e["host_coverage"] = {plan.first.host_coverage, "ratio"};
  for (const auto& [name, metric] : read.metrics) e2e[name] = metric;
  for (const auto& [name, metric] : live.metrics) e2e[name] = metric;

  // ---- per-layer metrics -------------------------------------------------
  Metrics& layers = result.per_layer;
  for (const char* stage : kPlanStages) {
    layers[std::string(stage) + "_ms"] = {median_stage(plan.passes, stage), "ms"};
  }
  layers["scan.addresses_probed"] = {
      static_cast<double>(plan.first.addresses_probed), "count"};
  layers["scan.hit_ratio"] = {
      plan.first.addresses_probed == 0
          ? 0.0
          : static_cast<double>(plan.first.hits) /
                static_cast<double>(plan.first.addresses_probed),
      "ratio"};
  layers["bgp.reduce_ratio"] = {plan.first.reduce_ratio, "ratio"};
  layers["scan.scope_intervals"] = {
      static_cast<double>(plan.first.scope_intervals), "count"};
  layers["state.image_mb"] = {plan.first.image_mb, "MB"};
  layers["scan.sampled_scope_rss_mb"] = {
      median_of(plan.passes, &PlanPass::sampled_scope_rss_mb), "MB"};
  layers["scan.sample_draws"] = {static_cast<double>(plan.first.sample_draws),
                                 "count"};
  layers["core.sample_error"] = {plan.first.sample_error, "ratio"};
  layers["census.world_rss_mb"] = {plan.world.rss_mb, "MB"};
  for (const auto& [name, metric] : read.layers) layers[name] = metric;
  for (const auto& [name, metric] : live.layers) layers[name] = metric;
  if (config.trace) {
    // Self-time accounting of the traced plan passes: the share of each
    // pass's wall time that its stages' self times explain (the rest is
    // the pass span's own self time).
    const auto& spans = tracer().spans();
    double wall = 0.0;
    double unexplained = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name != "pass") continue;
      wall += spans[i].end - spans[i].start;
      unexplained += tracer().self_time(static_cast<int>(i));
    }
    const double coverage = wall > 0.0 ? 1.0 - unexplained / wall : 0.0;
    layers["trace.stage_coverage"] = {coverage, "ratio"};
    result.gates.check(coverage >= 0.95,
                       "plan stages' self times explain >= 95% of each pass");
    // plan_s with tracing on: against the untraced run's plan_s, the
    // tracing overhead.
    layers["trace.plan_s"] = {plan.plan_s, "s"};
    const auto totals = tracer().totals();
    for (const char* stage : kRssStages) {
      const auto it = totals.find(stage);
      layers[std::string(stage) + ".rss_delta_mb"] = {
          it == totals.end() ? 0.0
                             : it->second.rss_delta_mb /
                                   static_cast<double>(plan.passes.size()),
          "MB"};
    }
    for (const auto& [name, totals] : totals) {
      result.report["span." + name + ".self_ms"] = {totals.self_s * 1e3, "ms"};
      result.report["span." + name + ".rss_delta_mb"] = {totals.rss_delta_mb,
                                                         "MB"};
    }
  }

  // ---- report and environment -----------------------------------------
  result.report = [&] {
    Metrics all = result.report;
    for (const auto& [name, metric] : e2e) all[name] = metric;
    for (const auto& [name, metric] : layers) all[name] = metric;
    for (const auto& [name, metric] : read.report) all[name] = metric;
    for (const auto& [name, metric] : live.report) all[name] = metric;
    all["failed_share"] = {
        result.attempted == 0
            ? 0.0
            : static_cast<double>(result.failed + result.gates.failed) /
                  static_cast<double>(result.attempted),
        "ratio"};
    all["core.sample_error"] = {plan.first.sample_error, "ratio"};
    all["plan.passes"] = {static_cast<double>(plan.passes.size()), "count"};
    all["setup.plan_s"] = {plan.setup_s, "s"};
    all["setup.serve_read_s"] = {read.setup_s, "s"};
    all["setup.serve_live_s"] = {live.setup_s, "s"};
    all["peak_rss.bench_mb"] = {plan.bench_hwm_mb, "MB"};
    all["peak_rss.serve_read_mb"] = {read.peak_rss_mb, "MB"};
    all["peak_rss.serve_live_mb"] = {live.peak_rss_mb, "MB"};
    return all;
  }();
  result.failed += result.gates.failed;

  char env[2048];
  std::snprintf(
      env, sizeof(env),
      "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"tiny\": %d, \"nproc\": %u, \"cpu_model\": \"%s\", "
      "\"simd_tier\": \"%s\", \"page_backing\": \"%s\", \"compiler\": "
      "\"%s\", \"build_type\": \"%s\", \"placement\": \"%s\", \"pinned\": "
      "%d, \"world\": {\"cells\": %llu, \"advertised_addresses\": %llu, "
      "\"hosts\": %llu, \"v4_routes\": %zu, \"v6_routes\": %zu, "
      "\"hitlist\": %zu}, \"build\": %s}}",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, config.tiny ? 1 : 0,
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      std::string(tass::util::cpu::level_name(tass::util::cpu::active_level()))
          .c_str(),
      json_escape(page_backing()).c_str(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, placement.describe().c_str(), pinned ? 1 : 0,
      static_cast<unsigned long long>(plan.products.cells),
      static_cast<unsigned long long>(plan.products.advertised_addresses),
      static_cast<unsigned long long>(plan.products.hosts),
      plan.inputs.v4_routes, plan.inputs.v6_routes, plan.inputs.hitlist_size,
      config.env_json.empty() ? "{}" : config.env_json.c_str());
  result.env_line = env;
  return result;
}

}  // namespace perfbench
