// perfbench: the end-to-end benchmark of the TASS system.
//
//   perfbench --workload plan|serve_read|serve_live --seed N
//                    --seconds S --trace 0|1 --serve PATH --work DIR
//                    [--tiny] [--env-json TEXT]
//
// Every run generates its inputs from the seed, plans (the paper's whole
// pipeline), then serves the sealed images from a tass_serve child
// process under read load and under live BGP churn. The workload picks
// which of the three phases gets the measurement window; the others run
// with short fixed windows so that every end-to-end metric is measured
// in every run. See perfbench/README.md for the metric map.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics
// when --trace 1. A failed correctness gate exits non-zero.
#include <sys/stat.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "inputs.hpp"
#include "plan.hpp"
#include "workload.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string serve_binary;
  std::string work_dir;
  std::string env_json = "{}";
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload plan|serve_read|"
               "serve_live --seed N --seconds S --trace 0|1 --serve PATH "
               "--work DIR [--tiny] [--env-json TEXT]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--serve") {
      args.serve_binary = value;
    } else if (flag == "--work") {
      args.work_dir = value;
    } else if (flag == "--env-json") {
      args.env_json = value;
    } else {
      return false;
    }
  }
  return (args.workload == "plan" || args.workload == "serve_read" ||
          args.workload == "serve_live") &&
         !args.serve_binary.empty() && !args.work_dir.empty() &&
         args.seconds > 0.0;
}

void print_result(const Gates& gates, std::uint64_t attempted,
                  std::uint64_t failed, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += gates.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\": {\"value\": ";
    out += json_number(metric.value);
    out += ", \"unit\": \"";
    out += json_escape(metric.unit);
    out += "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  ::mkdir(args.work_dir.c_str(), 0755);
  // A daemon that dies mid-run must surface as a failed write, not kill
  // the benchmark before it reports.
  std::signal(SIGPIPE, SIG_IGN);
  tracer().enable(args.trace);

  try {
    RunConfig config;
    config.workload = args.workload;
    config.seed = args.seed;
    config.seconds = args.seconds;
    config.trace = args.trace;
    config.tiny = args.tiny;
    config.serve_binary = args.serve_binary;
    config.work_dir = args.work_dir;
    config.env_json = args.env_json;
    RunResult result = run_workload(config);

    if (args.trace) tracer().write(args.work_dir + "/spans.jsonl");
    // The human-readable report goes first; the record is the last line.
    for (const auto& [name, metric] : result.report) {
      std::printf("# %-34s %16.6g %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
    std::printf("%s\n", result.env_line.c_str());
    print_result(result.gates, result.attempted, result.failed,
                 args.trace ? result.per_layer : result.end_to_end);
    return result.gates.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
