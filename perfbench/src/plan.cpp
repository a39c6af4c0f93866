#include "plan.hpp"

#include <cmath>
#include <cstdio>
#include <exception>

#include "bgp/partition.hpp"
#include "bgp/pfx2as.hpp"
#include "bgp/reduce.hpp"
#include "bgp/rib.hpp"
#include "bgp/table6.hpp"
#include "census/hitlist6.hpp"
#include "core/estimator.hpp"
#include "core/ranking.hpp"
#include "core/selection.hpp"
#include "scan/blocklist.hpp"
#include "scan/engine.hpp"
#include "scan/sampled_scope.hpp"
#include "scan/scope.hpp"
#include "scan/scope6.hpp"
#include "state/image.hpp"
#include "trace.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace tass;

namespace {

constexpr double kPhi = 0.95;
constexpr double kMaxOvershoot = 0.05;
constexpr unsigned kEngineThreads = 2;
constexpr std::uint64_t kSampleDivisor = 1000;  // sampled budget = frame / this
constexpr double kMiB = 1024.0 * 1024.0;

struct Built {
  bgp::RoutingTable rib;
  bgp::PrefixPartition partition;
  bgp::RoutingTable6 rib6;
  bgp::PrefixPartition6 partition6;
};

// Times one stage into pass.stage_s (and the trace) and returns fn().
template <class Fn>
auto timed(PlanPass& pass, const char* name, Fn&& fn) {
  Stage stage(name);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    pass.stage_s[name] += stage.stop();
  } else {
    auto result = fn();
    pass.stage_s[name] += stage.stop();
    return result;
  }
}

Built build(const Inputs& inputs, PlanPass& pass) {
  Built built;
  const auto records = timed(pass, "bgp.parse", [&] {
    return bgp::load_pfx2as(inputs.v4_path, /*strict=*/false);
  });
  const auto records6 = timed(pass, "bgp.parse", [&] {
    return bgp::load_pfx2as6(inputs.v6_path, /*strict=*/false);
  });
  built.rib = timed(pass, "bgp.rib",
                    [&] { return bgp::RoutingTable::from_pfx2as(records); });
  built.rib6 = timed(pass, "bgp.rib6", [&] {
    return bgp::RoutingTable6::from_pfx2as(records6);
  });
  built.partition =
      timed(pass, "bgp.partition", [&] { return built.rib.m_partition(); });
  built.partition6 =
      timed(pass, "bgp.partition6", [&] { return built.rib6.m_partition(); });
  return built;
}

double sum_stages(const PlanPass& pass, std::initializer_list<const char*> names) {
  double total = 0.0;
  for (const char* name : names) {
    const auto it = pass.stage_s.find(name);
    if (it != pass.stage_s.end()) total += it->second;
  }
  return total;
}

void write_bytes(const std::string& path, std::span<const std::byte> bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) throw Error("cannot write " + path);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != bytes.size() || !closed) throw Error("short write: " + path);
}

template <class Fn>
bool no_throw(Fn&& fn, std::string& error) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
}

}  // namespace

PlanPass run_plan_pass(const Inputs& inputs, const World& world,
                       const std::string& dir, Gates& gates,
                       PlanProducts* products) {
  PlanPass pass;
  Stage root("pass");
  const std::vector<net::Ipv6Address> hitlist = [&] {
    Stage stage("census.hitlist");  // an input, like the seed census
    return census::load_hitlist6(inputs.hitlist_path, /*strict=*/false);
  }();

  Built built;
  {
    Stage setup("setup");
    built = build(inputs, pass);
  }
  pass.setup_s = sum_stages(pass, {"bgp.parse", "bgp.rib", "bgp.rib6",
                                   "bgp.partition", "bgp.partition6"});
  const bgp::PrefixPartition& partition = built.partition;
  const bgp::PrefixPartition6& partition6 = built.partition6;

  Stage plan_stage("plan");
  scan::EngineConfig engine_config;
  engine_config.order = scan::EngineConfig::Order::kEnumerate;
  engine_config.threads = kEngineThreads;
  engine_config.seed = inputs.seed;
  const scan::ScanEngine engine(engine_config);
  const scan::Blocklist blocklist = scan::Blocklist::default_blocklist();

  // Seed census scan over the whole announced space, attributed on the fly.
  const scan::ScanScope full_scope = timed(pass, "scan.scope_build", [&] {
    return scan::ScanScope(built.rib.l_prefixes(), blocklist);
  });
  const scan::AttributedScanResult seed_scan = timed(pass, "scan.engine", [&] {
    return engine.run_attributed(full_scope, *world.oracles.front(),
                                 partition);
  });
  pass.addresses_probed += seed_scan.result.stats.probes_sent;
  pass.hits += seed_scan.result.stats.responses;

  const core::DensityRanking ranking = timed(pass, "core.rank", [&] {
    std::vector<std::uint32_t> counts(seed_scan.cell_counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
      counts[i] = static_cast<std::uint32_t>(seed_scan.cell_counts[i]);
    }
    return core::rank_by_density(counts, partition, core::PrefixMode::kMore);
  });
  core::SelectionParams selection_params;
  selection_params.phi = kPhi;
  const core::Selection selection = timed(pass, "core.select", [&] {
    return core::select_by_density(ranking, selection_params);
  });
  bgp::ReduceParams reduce_params;
  reduce_params.max_overshoot = kMaxOvershoot;
  const bgp::ReduceResult reduced = timed(pass, "bgp.reduce", [&] {
    return bgp::reduce(std::span<const net::Prefix>(selection.prefixes),
                       reduce_params);
  });
  pass.reduce_ratio = reduced.reduction_ratio();
  const scan::ScanScope scope = timed(pass, "scan.scope_build", [&] {
    return scan::ScanScope(reduced.prefixes, blocklist);
  });
  pass.scope_intervals = scope.targets().interval_count();

  // One TASS cycle per month after the seed.
  scan::ScanStats last_cycle;
  for (std::size_t month = 1; month < world.oracles.size(); ++month) {
    const auto cycle = timed(pass, "scan.engine", [&] {
      return engine.run_attributed(scope, *world.oracles[month], partition);
    });
    last_cycle = cycle.result.stats;
    pass.addresses_probed += last_cycle.probes_sent;
    pass.hits += last_cycle.responses;
  }
  const int last_month = world.series->month_count() - 1;
  const census::Snapshot& last_snapshot = world.series->month(last_month);
  const scan::SnapshotOracle& last_oracle = *world.oracles.back();

  // Sampled estimate of the last month's population at frame/divisor.
  scan::SampleParams sample_params;
  sample_params.budget = std::max<std::uint64_t>(
      1, ranking.responsive_addresses() / kSampleDivisor);
  sample_params.seed = inputs.seed;
  const double rss_before_sample = vm_rss_mb();
  const scan::SampledScope sampled = timed(pass, "scan.sampled_scope", [&] {
    return scan::SampledScope(scan::plan_sample(ranking, sample_params));
  });
  pass.sampled_scope_rss_mb = vm_rss_mb() - rss_before_sample;
  pass.sample_draws = sampled.design().total_draws;
  const scan::AttributedScanResult sample_scan =
      timed(pass, "scan.engine", [&] {
        return engine.run_attributed(sampled.scope(), last_oracle, partition);
      });
  pass.addresses_probed += sample_scan.result.stats.probes_sent;
  pass.hits += sample_scan.result.stats.responses;
  const core::SampleEstimate estimate = timed(pass, "core.estimate", [&] {
    return core::estimate_from_sample(
        sampled.attribute(sample_scan.cell_counts), ranking);
  });

  // v6: hitlist attribution, ranking, selection, candidate scope.
  const core::DensityRanking6 ranking6 = timed(pass, "core.rank", [&] {
    std::vector<std::uint32_t> counts(partition6.size(), 0);
    std::uint64_t attributed = 0;
    std::uint64_t unattributed = 0;
    partition6.tally_cells(std::span<const net::Ipv6Address>(hitlist), counts,
                           attributed, unattributed);
    return core::rank_by_density(counts, partition6, core::PrefixMode::kMore);
  });
  const core::Selection6 selection6 = timed(pass, "core.select", [&] {
    return core::select_by_density(ranking6, selection_params);
  });
  const std::size_t admitted6 = timed(pass, "scan.scope_build", [&] {
    scan::ScanScope6 scope6(selection6.prefixes, blocklist);
    return scope6.add_candidates(hitlist);
  });

  // Seal both images and load them back.
  const std::string v4_image = dir + "/plan.tsim";
  const std::string v6_image = dir + "/plan.tsi6";
  timed(pass, "state.encode", [&] {
    const auto bytes4 = state::encode_image(partition, ranking);
    const auto bytes6 = state::encode_image(partition6, ranking6);
    write_bytes(v4_image, bytes4);
    write_bytes(v6_image, bytes6);
    pass.image_mb = static_cast<double>(bytes4.size() + bytes6.size()) / kMiB;
  });
  const state::StateImage image4 =
      timed(pass, "state.load", [&] { return state::StateImage::load(v4_image); });
  const state::StateImage6 image6 = timed(
      pass, "state.load", [&] { return state::StateImage6::load(v6_image); });
  plan_stage.stop();
  pass.plan_s = sum_stages(
      pass, {"scan.scope_build", "scan.engine", "core.rank", "core.select",
             "bgp.reduce", "scan.sampled_scope", "core.estimate",
             "state.encode", "state.load"});

  // ---- results and correctness gates (not part of plan_s) -------------
  Stage check("bench.check");
  const std::uint64_t advertised = partition.address_count();
  pass.scan_share = advertised == 0
                        ? 0.0
                        : static_cast<double>(last_cycle.probes_sent) /
                              static_cast<double>(advertised);
  pass.host_coverage =
      last_snapshot.total_hosts() == 0
          ? 0.0
          : static_cast<double>(last_cycle.responses) /
                static_cast<double>(last_snapshot.total_hosts());
  std::uint64_t truth = 0;
  for (const auto& row : sampled.design().cells) {
    truth += last_oracle.count_responsive(net::Interval::of(row.prefix));
  }
  pass.sample_error =
      truth == 0 ? 0.0
                 : std::abs(estimate.estimated_hosts -
                            static_cast<double>(truth)) /
                       static_cast<double>(truth);

  std::string error;
  gates.check(no_throw([&] { image4.verify(); }, error),
              "v4 image verify: " + error);
  gates.check(no_throw([&] { image6.verify(); }, error),
              "v6 image verify: " + error);
  gates.check(image4.info().fingerprint == bgp::partition_fingerprint(partition),
              "v4 image fingerprint names the built partition");
  gates.check(image6.info().fingerprint ==
                  bgp::partition_fingerprint(partition6),
              "v6 image fingerprint names the built partition");
  {
    std::vector<std::uint64_t> direct(partition.size(), 0);
    std::uint64_t attributed = 0;
    std::uint64_t unattributed = 0;
    partition.tally_cells(std::span<const std::uint32_t>(
                              seed_scan.result.responsive),
                          direct, attributed, unattributed);
    gates.check(direct == seed_scan.cell_counts &&
                    attributed == seed_scan.attributed &&
                    unattributed == seed_scan.unattributed,
                "engine attribution equals a direct tally_cells");
  }
  {
    const net::IntervalSet selected =
        net::IntervalSet::of_prefixes(selection.prefixes);
    const net::IntervalSet covered =
        net::IntervalSet::of_prefixes(reduced.prefixes);
    gates.check(selected.subtract(covered).empty(),
                "reduced list covers the selection");
    gates.check(reduced.overshoot_fraction() <= kMaxOvershoot + 1e-12,
                "reduced list stays within its overshoot cap");
  }
  {
    const scan::SampleResult probed = sampled.probe(
        [&](net::Ipv4Address address) { return last_oracle.responds(address); });
    gates.check(sample_scan.result.stats.probes_sent ==
                        sampled.design().total_draws &&
                    sampled.target_count() == sampled.design().total_draws,
                "sampled engine run probes exactly the drawn targets");
    gates.check(probed.hits == sample_scan.result.stats.responses &&
                    sampled.attribute(sample_scan.cell_counts).hits ==
                        probed.hits,
                "sampled engine hits match the scope's own probe accounting");
  }
  gates.check(last_cycle.probes_sent == scope.address_count(),
              "cycle scan probes every scoped address once");
  gates.check(admitted6 > 0 && !selection6.prefixes.empty(),
              "v6 plan admits hitlist candidates");
  gates.check(ranking.total_hosts > 0 && !selection.prefixes.empty(),
              "v4 plan selects prefixes");

  if (products != nullptr) {
    products->v4_image = v4_image;
    products->v6_image = v6_image;
    const net::IntervalSet space = partition.to_interval_set();
    products->advertised.assign(space.intervals().begin(),
                                space.intervals().end());
    products->selected.assign(scope.targets().intervals().begin(),
                              scope.targets().intervals().end());
    products->advertised6 = partition6.live_prefixes();
    products->cells = partition.size();
    products->advertised_addresses = advertised;
    products->hosts = world.hosts_month0;
  }
  check.stop();
  root.stop();
  return pass;
}

}  // namespace perfbench
