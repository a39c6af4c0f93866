#include "inputs.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bgp/deaggregate.hpp"
#include "bgp/rib.hpp"
#include "common.hpp"
#include "net/prefix.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace tass;

Sizes sizes_for(bool tiny) {
  Sizes sizes;
  if (tiny) {
    sizes.v4_cells = 6'000;
    sizes.v6_coverings = 800;
    sizes.cycles = 1;
    sizes.host_scale = 0.002;
  }
  return sizes;
}

std::vector<bgp::Pfx2AsRecord> synthesize_v4(std::size_t target_cells,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<net::Prefix> space{
      net::Prefix::parse_or_throw("0.0.0.0/2"),
      net::Prefix::parse_or_throw("64.0.0.0/2"),
      net::Prefix::parse_or_throw("128.0.0.0/2"),
      net::Prefix::parse_or_throw("192.0.0.0/2"),
  };
  census::BuddyAllocator allocator(space);
  std::vector<bgp::Pfx2AsRecord> records;
  std::size_t cells = 0;
  while (cells < target_cells) {
    const double roll = rng.uniform();
    int length;
    if (roll < 0.03) {
      length = 12 + static_cast<int>(rng.bounded(4));
    } else if (roll < 0.38) {
      length = 16 + static_cast<int>(rng.bounded(4));
    } else {
      length = 20 + static_cast<int>(rng.bounded(4));
    }
    const auto covering = allocator.allocate(length, rng);
    if (!covering) break;  // IPv4 exhausted: the table is as big as it gets
    const auto origin = static_cast<std::uint32_t>(64512 + rng.bounded(1024));
    records.push_back({*covering, {origin}});
    std::vector<net::Prefix> inside;
    if (rng.chance(0.55)) {
      int specifics = 1;
      while (specifics < 6 && rng.chance(0.58)) ++specifics;
      for (int s = 0; s < specifics; ++s) {
        const int extra = 1 + static_cast<int>(rng.bounded(6));
        const int sub_length = std::min(covering->length() + extra, 24);
        if (sub_length <= covering->length()) continue;
        const auto offset =
            rng.bounded(std::uint64_t{1} << (sub_length - covering->length()));
        const net::Prefix specific(
            net::Ipv4Address(covering->network().value() +
                             static_cast<std::uint32_t>(
                                 offset << (32 - sub_length))),
            sub_length);
        inside.push_back(specific);
        records.push_back({specific, {origin}});
      }
    }
    // Deaggregating one covering is independent of the rest of the table,
    // so the running cell count is exact.
    cells += bgp::deaggregate(*covering, inside).size();
  }
  return records;
}

namespace {

// v6: /32 coverings under 2001::/16 (one per index), about half with
// /36../48 more-specifics, and a hitlist clustered in a few /64s of each
// populated site with low interface identifiers.
void synthesize_v6(std::size_t coverings, std::uint64_t seed,
                   std::vector<bgp::Pfx2As6Record>& records,
                   std::vector<net::Ipv6Address>& hitlist) {
  util::Rng rng(util::mix64(seed, 6));
  for (std::size_t i = 0; i < coverings; ++i) {
    const std::uint64_t hi = 0x2001000000000000ULL |
                             (static_cast<std::uint64_t>(i & 0xffff) << 32);
    const net::Ipv6Prefix covering(net::Ipv6Address(hi, 0), 32);
    const auto origin = static_cast<std::uint32_t>(64512 + rng.bounded(1024));
    records.push_back({covering, {origin}});
    std::vector<net::Ipv6Prefix> sites{covering};
    if (rng.chance(0.5)) {
      const int specifics = 1 + static_cast<int>(rng.bounded(4));
      for (int s = 0; s < specifics; ++s) {
        const int length = 36 + 4 * static_cast<int>(rng.bounded(4));
        const std::uint64_t bits =
            rng.bounded(std::uint64_t{1} << (length - 32)) << (64 - length);
        const net::Ipv6Prefix specific(net::Ipv6Address(hi | bits, 0),
                                       length);
        records.push_back({specific, {origin}});
        sites.push_back(specific);
      }
    }
    if (!rng.chance(0.7)) continue;
    for (const net::Ipv6Prefix& site : sites) {
      int hosts = 1;
      while (hosts < 64 && rng.chance(0.8)) ++hosts;
      const int free_bits = 64 - site.length();
      for (int h = 0; h < hosts; ++h) {
        const std::uint64_t subnet = rng.bounded(8) & ((1ULL << free_bits) - 1);
        hitlist.emplace_back(site.network().hi() | subnet,
                             1 + rng.bounded(256));
      }
    }
  }
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.prefix < b.prefix; });
  records.erase(std::unique(records.begin(), records.end(),
                            [](const auto& a, const auto& b) {
                              return a.prefix == b.prefix;
                            }),
                records.end());
  std::sort(hitlist.begin(), hitlist.end());
  hitlist.erase(std::unique(hitlist.begin(), hitlist.end()), hitlist.end());
}

}  // namespace

Inputs write_inputs(const std::string& dir, const Sizes& sizes,
                    std::uint64_t seed) {
  Inputs inputs;
  inputs.seed = seed;
  inputs.v4_path = dir + "/table.pfx2as";
  inputs.v6_path = dir + "/table6.pfx2as";
  inputs.hitlist_path = dir + "/hitlist6.txt";

  const auto v4 = synthesize_v4(sizes.v4_cells, seed);
  bgp::save_pfx2as(inputs.v4_path, v4);
  inputs.v4_routes = v4.size();

  std::vector<bgp::Pfx2As6Record> v6;
  std::vector<net::Ipv6Address> hitlist;
  synthesize_v6(sizes.v6_coverings, seed, v6, hitlist);
  bgp::save_pfx2as6(inputs.v6_path, v6);
  inputs.v6_routes = v6.size();
  std::ofstream out(inputs.hitlist_path);
  for (const net::Ipv6Address& address : hitlist) {
    out << address.to_string() << '\n';
  }
  if (!out) throw Error("cannot write " + inputs.hitlist_path);
  inputs.hitlist_size = hitlist.size();
  return inputs;
}

World build_world(const Inputs& inputs, const Sizes& sizes) {
  World world;
  const double rss_before = vm_rss_mb();
  world.topology = census::topology_from_table(
      bgp::RoutingTable::from_pfx2as(
          bgp::load_pfx2as(inputs.v4_path, /*strict=*/false)),
      inputs.seed);
  census::SeriesParams params;
  params.months = 1 + sizes.cycles;
  params.host_scale = sizes.host_scale;
  params.seed = util::mix64(inputs.seed, 7);
  world.series = std::make_unique<census::CensusSeries>(
      census::CensusSeries::generate(world.topology, census::Protocol::kHttp,
                                     params));
  for (const census::Snapshot& month : world.series->months()) {
    world.oracles.push_back(std::make_unique<scan::SnapshotOracle>(month));
  }
  world.hosts_month0 = world.series->month(0).total_hosts();
  world.rss_mb = vm_rss_mb() - rss_before;
  return world;
}

}  // namespace perfbench
