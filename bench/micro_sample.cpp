// Sampled-scan micro-benchmark: probes-vs-error curve for the
// statistical scan mode (plan_sample -> SampledScope -> probe ->
// estimate_from_sample) against exhaustive ground truth on the
// synthetic census world.
//
// Plain executable (no google-benchmark dependency) so it always builds
// and can double as a ctest smoke test. Prints one machine-readable
// JSON object on stdout for BENCH tracking; the human-readable curve
// goes to stderr. Exits non-zero if an engine run over the materialised
// scope ever disagrees with the scope's own probe() — the benchmark is
// also a sampled correctness check.
//
// The headline key `sample_probe_efficiency` is the largest probe
// reduction (exhaustive frame / probes sent) whose point estimate lands
// within 5% of the exhaustive truth — the "how much cheaper can the
// census get before the answer degrades" number. `peak_rss_mb` (the
// process's VmHWM) records what the sampled scopes cost in memory.
//
// Usage: micro_sample [--lprefixes N] [--seed S] [--floor F]
//                     [--scale H]
// World knobs also honour the TASS_* environment (see bench_common.hpp);
// flags win over the environment.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "census/population.hpp"
#include "census/snapshot_index.hpp"
#include "core/estimator.hpp"
#include "core/ranking.hpp"
#include "net/interval.hpp"
#include "report/table.hpp"
#include "scan/engine.hpp"
#include "scan/sampled_scope.hpp"

int main(int argc, char** argv) {
  using namespace tass;
  auto config = bench::BenchConfig::from_env();
  std::uint32_t floor = 16;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for '%s'\n", argv[i]);
      return 2;
    }
    if (std::strcmp(argv[i], "--scale") == 0) {
      config.host_scale = std::strtod(argv[i + 1], nullptr);
      continue;
    }
    char* end = nullptr;
    const std::uint64_t value = std::strtoull(argv[i + 1], &end, 10);
    if (end == argv[i + 1] || *end != '\0') {
      std::fprintf(stderr, "not a number: '%s'\n", argv[i + 1]);
      return 2;
    }
    if (std::strcmp(argv[i], "--lprefixes") == 0) {
      config.l_prefix_count = value;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      config.seed = value;
    } else if (std::strcmp(argv[i], "--floor") == 0) {
      floor = static_cast<std::uint32_t>(value);
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s'\nusage: micro_sample [--lprefixes N] "
                   "[--seed S] [--floor F] [--scale H]\n",
                   argv[i]);
      return 2;
    }
  }

  const auto topology = bench::make_topology(config);
  // stdout carries exactly one JSON object (BENCH collection redirects
  // it to a file), so the banner goes to stderr here.
  std::fprintf(stderr,
               "# synthetic world: seed=%" PRIu64 " l_prefixes=%zu "
               "cells=%zu advertised=%.2fB addresses host_scale=%.3f\n",
               config.seed, topology->l_partition.size(),
               topology->m_partition.size(),
               static_cast<double>(topology->advertised_addresses) / 1e9,
               config.host_scale);
  const census::Snapshot snapshot = census::generate_population(
      topology, census::protocol_profile(census::Protocol::kHttps),
      census::PopulationParams{config.host_scale, config.seed + 1});
  const auto ranking =
      core::rank_by_density(snapshot, core::PrefixMode::kMore);
  const census::SnapshotIndex oracle(snapshot);

  scan::SampleParams params;
  params.floor = floor;
  params.seed = config.seed;

  // The exhaustive cost of the same frame anchors the budget ladder (a
  // fixed set of probe-reduction targets) and the efficiency headline.
  params.budget = ~0ull >> 1;
  const std::uint64_t frame_units =
      scan::plan_sample(ranking, params).frame_units;

  std::vector<std::uint64_t> budgets;
  for (const std::uint64_t divisor : {3000ull, 1000ull, 300ull, 100ull,
                                      30ull, 10ull}) {
    const std::uint64_t budget = frame_units / divisor;
    if (budget >= 64) budgets.push_back(budget);
  }
  if (budgets.empty()) budgets.push_back(frame_units);

  const auto curve =
      core::estimate_curve(ranking, oracle, budgets, params);

  report::Table table({"budget", "probes", "truth", "estimated", "error",
                       "probe reduction", "95% CI covers truth"});
  double efficiency = 0.0;
  for (const auto& point : curve) {
    const bool covered = static_cast<double>(point.truth_hosts) >=
                             point.low &&
                         static_cast<double>(point.truth_hosts) <=
                             point.high;
    if (point.error <= 0.05 && point.probe_reduction > efficiency) {
      efficiency = point.probe_reduction;
    }
    table.add_row({report::Table::cell(point.budget),
                   report::Table::cell(point.probes_sent),
                   report::Table::cell(point.truth_hosts),
                   report::Table::cell(point.estimated_hosts, 0),
                   report::Table::cell(point.error, 4),
                   report::Table::cell(point.probe_reduction, 1),
                   covered ? "yes" : "NO"});
  }
  std::fprintf(stderr, "%s", table.to_text().c_str());

  // Correctness leg 1: an engine run over the materialised ScanScope
  // must agree bit-for-bit with the scope's own probe accounting.
  params.budget = budgets[budgets.size() / 2];
  const scan::SampledScope scope(scan::plan_sample(ranking, params));
  const auto probed = scope.probe(
      [&](net::Ipv4Address addr) { return oracle.contains(addr); });
  const scan::ScanEngine engine;
  const scan::SnapshotOracle engine_oracle(snapshot);
  const auto attributed = engine.run_attributed(scope.scope(), engine_oracle,
                                                topology->m_partition);
  if (attributed.result.stats.probes_sent != probed.probes_sent ||
      attributed.result.stats.responses != probed.hits) {
    std::fprintf(stderr,
                 "ENGINE MISMATCH: engine %" PRIu64 "/%" PRIu64
                 " probe %" PRIu64 "/%" PRIu64 "\n",
                 attributed.result.stats.probes_sent,
                 attributed.result.stats.responses, probed.probes_sent,
                 probed.hits);
    return 1;
  }
  const auto folded = scope.attribute(attributed.cell_counts);
  for (std::size_t i = 0; i < folded.cells.size(); ++i) {
    if (folded.cells[i].hits != probed.cells[i].hits) {
      std::fprintf(stderr, "ENGINE MISMATCH in cell %u: %" PRIu64
                           " vs %" PRIu64 "\n",
                   folded.cells[i].cell, folded.cells[i].hits,
                   probed.cells[i].hits);
      return 1;
    }
  }

  // Correctness leg 2: the paper's §5 use case — a uniformly planted
  // "vulnerable" subpopulation estimated from the same sampled probes.
  const auto marked =
      core::mark_hosts(snapshot, 0.05, core::MarkingBias::kUniform,
                       config.seed);
  const census::SnapshotIndex marked_oracle(marked.addresses);
  const auto marked_probe = scope.probe(
      [&](net::Ipv4Address addr) { return oracle.contains(addr); },
      [&](net::Ipv4Address addr) { return marked_oracle.contains(addr); });
  const auto marked_estimate =
      core::estimate_from_sample(marked_probe, ranking);
  std::uint64_t marked_truth = 0;
  for (const auto& cell : scope.design().cells) {
    marked_truth +=
        marked_oracle.count_responsive(net::Interval::of(cell.prefix));
  }
  const double marked_error =
      marked_truth == 0
          ? 0.0
          : std::abs(marked_estimate.estimated_marked -
                     static_cast<double>(marked_truth)) /
                static_cast<double>(marked_truth);
  const bool marked_covered =
      marked_estimate.marked_ci_covers(static_cast<double>(marked_truth));
  std::fprintf(stderr,
               "# marked subpopulation (uniform, 5%%): truth %" PRIu64
               ", estimated %.0f (error %.4f, CI %s)\n"
               "# sample_probe_efficiency: %.1fx probe reduction at <= 5%% "
               "error\n",
               marked_truth, marked_estimate.estimated_marked, marked_error,
               marked_covered ? "covers truth" : "MISSES truth", efficiency);

  // Machine-readable record for BENCH tracking (one JSON object).
  std::printf(
      "{\"bench\":\"micro_sample\",\"l_prefixes\":%zu,\"host_scale\":%.4f,"
      "\"seed\":%" PRIu64 ",\"floor\":%u,\"frame_units\":%" PRIu64
      ",\"sample_probe_efficiency\":%.2f,\"marked_error\":%.4f,"
      "\"marked_ci_covers\":%s,\"peak_rss_mb\":%.1f,\"curve\":[",
      config.l_prefix_count, config.host_scale, config.seed, floor,
      frame_units, efficiency, marked_error,
      marked_covered ? "true" : "false", bench::peak_rss_mb());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const auto& point = curve[i];
    std::printf("%s{\"budget\":%" PRIu64 ",\"probes\":%" PRIu64
                ",\"truth_hosts\":%" PRIu64 ",\"estimated\":%.1f,"
                "\"low\":%.1f,\"high\":%.1f,\"error\":%.4f,"
                "\"probe_reduction\":%.2f}",
                i == 0 ? "" : ",", point.budget, point.probes_sent,
                point.truth_hosts, point.estimated_hosts, point.low,
                point.high, point.error, point.probe_reduction);
  }
  std::printf("]}\n");
  return 0;
}
