// Tests for scan/blocklist, scan/scope and scan/engine: exclusion parsing,
// scope algebra and membership (against an LPM oracle), and the simulated
// scan paths (permutation vs enumeration).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include "census/population.hpp"
#include "core/attribution.hpp"
#include "scan/blocklist.hpp"
#include "scan/engine.hpp"
#include "scan/sampled_scope.hpp"
#include "scan/scope.hpp"
#include "trie/lpm_index.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tass::scan {
namespace {

using net::Ipv4Address;
using net::Prefix;

TEST(Blocklist, ParsesAllLineForms) {
  const Blocklist blocklist = Blocklist::parse(
      "# header comment\n"
      "192.0.2.0/24\n"
      "198.51.100.7       # single address\n"
      "10.0.0.0-10.0.0.255\n"
      "\n");
  EXPECT_TRUE(blocklist.blocks(Ipv4Address::parse_or_throw("192.0.2.99")));
  EXPECT_TRUE(blocklist.blocks(Ipv4Address::parse_or_throw("198.51.100.7")));
  EXPECT_FALSE(blocklist.blocks(Ipv4Address::parse_or_throw("198.51.100.8")));
  EXPECT_TRUE(blocklist.blocks(Ipv4Address::parse_or_throw("10.0.0.128")));
  EXPECT_FALSE(blocklist.blocks(Ipv4Address::parse_or_throw("10.0.1.0")));
  EXPECT_EQ(blocklist.blocked_addresses(), 256u + 1 + 256);
}

TEST(Blocklist, RejectsMalformedLines) {
  EXPECT_THROW(Blocklist::parse("not-an-entry"), ParseError);
  EXPECT_THROW(Blocklist::parse("10.0.0.9-10.0.0.1"), ParseError);
  EXPECT_THROW(Blocklist::parse("10.0.0.0/33"), ParseError);
}

TEST(Blocklist, DefaultBlocksSpecialUse) {
  const Blocklist blocklist = Blocklist::default_blocklist();
  EXPECT_TRUE(blocklist.blocks(Ipv4Address::parse_or_throw("10.1.2.3")));
  EXPECT_TRUE(blocklist.blocks(Ipv4Address::parse_or_throw("127.0.0.1")));
  EXPECT_TRUE(blocklist.blocks(Ipv4Address::parse_or_throw("224.0.0.1")));
  EXPECT_FALSE(blocklist.blocks(Ipv4Address::parse_or_throw("8.8.8.8")));
}

TEST(Blocklist, LoadsFromFile) {
  const auto path =
      std::filesystem::temp_directory_path() / "tass_blocklist_test.txt";
  {
    std::ofstream out(path);
    out << "# test\n172.16.0.0/12\n";
  }
  const Blocklist blocklist = Blocklist::load(path.string());
  EXPECT_TRUE(blocklist.blocks(Ipv4Address::parse_or_throw("172.20.0.1")));
  std::filesystem::remove(path);
  EXPECT_THROW(Blocklist::load(path.string()), Error);
}

TEST(ScanScope, SubtractsBlocklistFromWhitelist) {
  Blocklist blocklist;
  blocklist.add(Prefix::parse_or_throw("10.0.0.0/10"));
  const std::vector<Prefix> whitelist = {
      Prefix::parse_or_throw("10.0.0.0/8")};
  const ScanScope scope(whitelist, blocklist);
  EXPECT_EQ(scope.address_count(), (1ULL << 24) - (1ULL << 22));
  EXPECT_FALSE(scope.contains(Ipv4Address::parse_or_throw("10.10.0.1")));
  EXPECT_TRUE(scope.contains(Ipv4Address::parse_or_throw("10.64.0.1")));
  EXPECT_FALSE(scope.contains(Ipv4Address::parse_or_throw("11.0.0.1")));
}

// ScanScope::contains searches the interval set directly; an LpmIndex
// over the set's CIDR cover is the independent oracle. Probes sit on
// and around every interval edge, where an off-by-one would show.
void expect_membership_matches_lpm(const ScanScope& scope) {
  const auto oracle =
      trie::LpmIndex::from_prefixes(scope.targets().to_prefixes());
  const auto check = [&](std::uint32_t value) {
    const Ipv4Address addr(value);
    ASSERT_EQ(scope.contains(addr), oracle.covers(addr)) << addr.to_string();
  };
  check(0);
  check(~0u);
  for (const net::Interval& interval : scope.targets().intervals()) {
    check(interval.first.value() - 1);  // wraps at 0.0.0.0 on purpose
    check(interval.first.value());
    check(interval.last.value());
    check(interval.last.value() + 1);  // wraps at 255.255.255.255
  }
}

Prefix random_prefix(util::Rng& rng, int min_length, int max_length) {
  const auto length = static_cast<int>(
      rng.uniform_u32(static_cast<std::uint32_t>(min_length),
                      static_cast<std::uint32_t>(max_length)));
  return Prefix(Ipv4Address(static_cast<std::uint32_t>(rng())), length);
}

TEST(ScanScope, MembershipMatchesLpmOracleOnRandomScopes) {
  util::Rng rng(0x5c09e);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Prefix> whitelist;
    const std::uint32_t prefixes = rng.uniform_u32(1, 300);
    for (std::uint32_t i = 0; i < prefixes; ++i) {
      whitelist.push_back(random_prefix(rng, 4, 32));
    }
    if (trial % 4 == 0) {  // reach both ends of the address space
      whitelist.push_back(Prefix::parse_or_throw("0.0.0.0/30"));
      whitelist.push_back(Prefix::parse_or_throw("255.255.255.252/30"));
    }
    Blocklist blocklist;
    const std::uint32_t blocked = rng.uniform_u32(0, 200);
    for (std::uint32_t i = 0; i < blocked; ++i) {
      if (rng.uniform_u32(0, 1) == 0) {
        blocklist.add(random_prefix(rng, 8, 32));
      } else {
        const auto first = static_cast<std::uint32_t>(rng());
        const std::uint32_t span = rng.uniform_u32(0, 1u << 20);
        const std::uint32_t last = first > ~0u - span ? ~0u : first + span;
        blocklist.add(net::Interval{Ipv4Address(first), Ipv4Address(last)});
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_membership_matches_lpm(ScanScope(whitelist, blocklist));
  }
}

TEST(ScanScope, MembershipMatchesLpmOracleOnSingletonSampledScope) {
  // A sparse sampled scope: every draw is its own /32 interval, the
  // shape whose per-draw LPM leaves the interval search replaced.
  SampleDesign design;
  design.seed = 77;
  const char* cells[] = {"0.0.0.0/16", "10.0.0.0/12", "192.0.2.0/24",
                         "255.255.0.0/16"};
  std::uint32_t index = 0;
  for (const char* text : cells) {
    SampleCell row;
    row.cell = index++;
    row.prefix = Prefix::parse_or_throw(text);
    row.universe = row.prefix.size();
    row.draws = std::max<std::uint64_t>(row.universe / 1024, 1);
    design.cells.push_back(row);
    design.total_draws += row.draws;
    design.frame_units += row.universe;
  }
  const SampledScope sampled(design);
  const ScanScope& scope = sampled.scope();
  ASSERT_EQ(scope.targets().interval_count(), sampled.target_count())
      << "draws must not coalesce for this test to cover singletons";
  expect_membership_matches_lpm(scope);
  for (const Ipv4Address addr : sampled.targets()) {
    ASSERT_TRUE(scope.contains(addr)) << addr.to_string();
  }
}

class CountingOracle final : public ProbeOracle {
 public:
  explicit CountingOracle(std::vector<std::uint32_t> responsive)
      : responsive_(std::move(responsive)) {}
  bool responds(Ipv4Address addr) const override {
    ++probes_;
    return std::binary_search(responsive_.begin(), responsive_.end(),
                              addr.value());
  }
  mutable std::uint64_t probes_ = 0;

 private:
  std::vector<std::uint32_t> responsive_;
};

TEST(ScanEngine, PermutationAndEnumerationAgree) {
  const std::vector<Prefix> whitelist = {
      Prefix::parse_or_throw("100.64.8.0/22"),
      Prefix::parse_or_throw("100.96.0.0/24")};
  const ScanScope scope(whitelist, Blocklist{});

  std::vector<std::uint32_t> responsive;
  for (std::uint32_t i = 0; i < 40; ++i) {
    // Offsets stay below the /22's 1024 addresses so every host is in
    // scope.
    responsive.push_back(
        Prefix::parse_or_throw("100.64.8.0/22").network().value() + i * 25);
  }
  std::sort(responsive.begin(), responsive.end());
  const CountingOracle oracle(responsive);

  EngineConfig permute;
  permute.order = EngineConfig::Order::kPermutation;
  EngineConfig enumerate;
  enumerate.order = EngineConfig::Order::kEnumerate;

  const ScanResult a = ScanEngine(permute).run(scope, oracle);
  const ScanResult b = ScanEngine(enumerate).run(scope, oracle);

  EXPECT_EQ(a.stats.probes_sent, scope.address_count());
  EXPECT_EQ(b.stats.probes_sent, scope.address_count());
  EXPECT_EQ(a.stats.responses, 40u);
  EXPECT_EQ(a.responsive, b.responsive);
  EXPECT_EQ(a.responsive, responsive);
}

TEST(ScanEngine, HitrateAndPackets) {
  const std::vector<Prefix> whitelist = {
      Prefix::parse_or_throw("100.64.0.0/24")};
  const ScanScope scope(whitelist, Blocklist{});
  std::vector<std::uint32_t> responsive = {
      Prefix::parse_or_throw("100.64.0.0/24").network().value() + 3};
  const CountingOracle oracle(responsive);

  EngineConfig config;
  config.order = EngineConfig::Order::kEnumerate;
  config.cost.handshake_packets_per_hit = 10.0;
  const ScanResult result = ScanEngine(config).run(scope, oracle);
  EXPECT_EQ(result.stats.probes_sent, 256u);
  EXPECT_EQ(result.stats.responses, 1u);
  EXPECT_DOUBLE_EQ(result.stats.hitrate(), 1.0 / 256.0);
  EXPECT_DOUBLE_EQ(result.stats.packets, 256.0 + 10.0);
  EXPECT_DOUBLE_EQ(result.stats.duration_seconds(128.0), 2.0);
}

TEST(ScanEngine, SnapshotOracleFindsExactlyTheGroundTruth) {
  census::TopologyParams topo_params;
  topo_params.seed = 3;
  topo_params.l_prefix_count = 60;
  const auto topology = census::generate_topology(topo_params);
  census::PopulationParams pop_params;
  pop_params.host_scale = 0.0005;
  const census::Snapshot snapshot = census::generate_population(
      topology, census::protocol_profile(census::Protocol::kHttp),
      pop_params);

  // Scan one occupied cell; the engine must find exactly its hosts.
  const auto counts = snapshot.counts_per_cell();
  std::uint32_t cell = 0;
  while (cell < counts.size() && counts[cell] == 0) ++cell;
  ASSERT_LT(cell, counts.size());
  const net::Prefix target = topology->m_partition.prefix(cell);

  const ScanScope scope(std::vector<net::Prefix>{target}, Blocklist{});
  const SnapshotOracle oracle(snapshot);
  EngineConfig config;
  config.order = EngineConfig::Order::kEnumerate;
  const ScanResult result = ScanEngine(config).run(scope, oracle);
  EXPECT_EQ(result.stats.responses, counts[cell]);
  for (const std::uint32_t addr : result.responsive) {
    EXPECT_TRUE(snapshot.contains(Ipv4Address(addr)));
  }
}

TEST(ScanEngine, AutoModePicksByScopeSize) {
  // Below the threshold kAuto permutes; above it enumerates. Both yield
  // identical results, so we verify via probe ordering: enumeration emits
  // ascending addresses, permutation does not (overwhelmingly likely).
  class OrderRecorder final : public ProbeOracle {
   public:
    bool responds(Ipv4Address addr) const override {
      ordered_ = ordered_ && (probes_.empty() || probes_.back() <= addr.value());
      probes_.push_back(addr.value());
      return false;
    }
    mutable std::vector<std::uint32_t> probes_;
    mutable bool ordered_ = true;
  };

  const ScanScope small_scope(
      std::vector<Prefix>{Prefix::parse_or_throw("100.64.0.0/22")},
      Blocklist{});
  EngineConfig config;
  config.order = EngineConfig::Order::kAuto;
  config.permutation_threshold = 1 << 8;  // 256: the /22 exceeds it

  const OrderRecorder above;
  ScanEngine(config).run(small_scope, above);
  EXPECT_TRUE(above.ordered_);  // enumerated in address order

  config.permutation_threshold = 1 << 20;  // now the /22 is below
  const OrderRecorder below;
  ScanEngine(config).run(small_scope, below);
  EXPECT_FALSE(below.ordered_);  // permuted
  EXPECT_EQ(below.probes_.size(), small_scope.address_count());
}

TEST(ScanEngine, EnumeratedResultsAreSortNormalized) {
  // The enumerate and permutation paths must be interchangeable: both
  // emit `responsive` in ascending order whatever the probe order was.
  census::TopologyParams topo_params;
  topo_params.seed = 12;
  topo_params.l_prefix_count = 70;
  const auto topology = census::generate_topology(topo_params);
  census::PopulationParams pop_params;
  pop_params.host_scale = 0.0008;
  const census::Snapshot snapshot = census::generate_population(
      topology, census::protocol_profile(census::Protocol::kHttp),
      pop_params);

  std::vector<net::Prefix> some_cells;
  for (std::uint32_t cell = 0;
       cell < topology->m_partition.size() && some_cells.size() < 40;
       cell += 3) {
    some_cells.push_back(topology->m_partition.prefix(cell));
  }
  const ScanScope scope(some_cells, Blocklist{});
  const SnapshotOracle oracle(snapshot);

  EngineConfig enumerate;
  enumerate.order = EngineConfig::Order::kEnumerate;
  EngineConfig permute;
  permute.order = EngineConfig::Order::kPermutation;
  const ScanResult a = ScanEngine(enumerate).run(scope, oracle);
  const ScanResult b = ScanEngine(permute).run(scope, oracle);
  EXPECT_TRUE(std::is_sorted(a.responsive.begin(), a.responsive.end()));
  EXPECT_TRUE(std::is_sorted(b.responsive.begin(), b.responsive.end()));
  EXPECT_EQ(a.responsive, b.responsive);
}

TEST(ScanEngine, ResultsAreBitIdenticalAcrossThreadCounts) {
  // The sharded enumerate path must reproduce the sequential result
  // exactly for any thread count: shard boundaries depend only on the
  // scope, and per-shard slots merge in shard order.
  census::TopologyParams topo_params;
  topo_params.seed = 77;
  topo_params.l_prefix_count = 90;
  const auto topology = census::generate_topology(topo_params);
  census::PopulationParams pop_params;
  pop_params.host_scale = 0.001;
  pop_params.seed = 5;
  const census::Snapshot snapshot = census::generate_population(
      topology, census::protocol_profile(census::Protocol::kSsh),
      pop_params);

  // A multi-interval scope: every third m-cell.
  std::vector<net::Prefix> cells;
  for (std::uint32_t cell = 0; cell < topology->m_partition.size();
       cell += 3) {
    cells.push_back(topology->m_partition.prefix(cell));
  }
  const ScanScope scope(cells, Blocklist{});
  const SnapshotOracle oracle(snapshot);

  // Legacy reference: one virtual membership probe per in-scope address.
  ScanResult reference;
  for (const net::Interval& interval : scope.targets().intervals()) {
    const std::uint64_t last = interval.last.value();
    for (std::uint64_t value = interval.first.value(); value <= last;
         ++value) {
      const net::Ipv4Address addr(static_cast<std::uint32_t>(value));
      ++reference.stats.probes_sent;
      if (snapshot.contains(addr)) {
        ++reference.stats.responses;
        reference.responsive.push_back(addr.value());
      }
    }
  }

  EngineConfig config;
  config.order = EngineConfig::Order::kEnumerate;
  config.min_addresses_per_shard = 1 << 10;  // force many shards
  for (const unsigned threads : {1u, 2u, 8u}) {
    config.threads = threads;
    const ScanResult result = ScanEngine(config).run(scope, oracle);
    EXPECT_EQ(result.responsive, reference.responsive)
        << "threads=" << threads;
    EXPECT_EQ(result.stats.probes_sent, reference.stats.probes_sent);
    EXPECT_EQ(result.stats.responses, reference.stats.responses);
  }
}

TEST(ScanEngine, EstimateMatchesRunStats) {
  // estimate() is the count-only twin of the enumerate path: identical
  // probe/hit/packet accounting, no hitlist, any thread count.
  census::TopologyParams topo_params;
  topo_params.seed = 31;
  topo_params.l_prefix_count = 70;
  const auto topology = census::generate_topology(topo_params);
  census::PopulationParams pop_params;
  pop_params.host_scale = 0.001;
  const census::Snapshot snapshot = census::generate_population(
      topology, census::protocol_profile(census::Protocol::kHttps),
      pop_params);

  std::vector<net::Prefix> cells;
  for (std::uint32_t cell = 0; cell < topology->m_partition.size();
       cell += 2) {
    cells.push_back(topology->m_partition.prefix(cell));
  }
  const ScanScope scope(cells, Blocklist{});
  const SnapshotOracle oracle(snapshot);

  EngineConfig config;
  config.order = EngineConfig::Order::kEnumerate;
  config.min_addresses_per_shard = 1 << 10;
  const ScanResult full = ScanEngine(config).run(scope, oracle);
  for (const unsigned threads : {1u, 2u, 8u}) {
    config.threads = threads;
    const ScanStats stats = ScanEngine(config).estimate(scope, oracle);
    EXPECT_EQ(stats.probes_sent, full.stats.probes_sent);
    EXPECT_EQ(stats.responses, full.stats.responses);
    EXPECT_DOUBLE_EQ(stats.packets, full.stats.packets);
  }
}

TEST(ScanEngine, RunAttributedMatchesRunPlusAttribute) {
  // The fused scan+attribution path must produce the same responsive list
  // as run() and the same per-cell counts as a separate core::attribute
  // pass — for any thread count.
  census::TopologyParams topo_params;
  topo_params.seed = 83;
  topo_params.l_prefix_count = 80;
  const auto topology = census::generate_topology(topo_params);
  census::PopulationParams pop_params;
  pop_params.host_scale = 0.001;
  pop_params.seed = 11;
  const census::Snapshot snapshot = census::generate_population(
      topology, census::protocol_profile(census::Protocol::kHttp),
      pop_params);

  std::vector<net::Prefix> cells;
  for (std::uint32_t cell = 0; cell < topology->m_partition.size();
       cell += 2) {
    cells.push_back(topology->m_partition.prefix(cell));
  }
  const ScanScope scope(cells, Blocklist{});
  const SnapshotOracle oracle(snapshot);

  EngineConfig config;
  config.order = EngineConfig::Order::kEnumerate;
  config.min_addresses_per_shard = 1 << 10;
  const ScanResult plain = ScanEngine(config).run(scope, oracle);
  const core::Attribution reference =
      core::attribute(plain.responsive, topology->m_partition);

  for (const unsigned threads : {1u, 2u, 8u}) {
    config.threads = threads;
    const AttributedScanResult attributed =
        ScanEngine(config).run_attributed(scope, oracle,
                                          topology->m_partition);
    EXPECT_EQ(attributed.result.responsive, plain.responsive)
        << "threads=" << threads;
    EXPECT_EQ(attributed.attributed, reference.attributed);
    EXPECT_EQ(attributed.unattributed, reference.unattributed);
    ASSERT_EQ(attributed.cell_counts.size(), reference.counts.size());
    for (std::size_t i = 0; i < reference.counts.size(); ++i) {
      EXPECT_EQ(attributed.cell_counts[i], reference.counts[i])
          << "cell=" << i << " threads=" << threads;
    }
  }
}

TEST(ScanEngine, DefaultOracleBatchingPreservesPerProbeCounting) {
  // Oracles that do not override the batched API still see exactly one
  // responds() call per in-scope address on the enumerate path.
  const std::vector<Prefix> whitelist = {
      Prefix::parse_or_throw("100.64.0.0/20")};
  const ScanScope scope(whitelist, Blocklist{});
  const CountingOracle oracle({});
  EngineConfig config;
  config.order = EngineConfig::Order::kEnumerate;
  const ScanResult result = ScanEngine(config).run(scope, oracle);
  EXPECT_EQ(oracle.probes_, scope.address_count());
  EXPECT_EQ(result.stats.probes_sent, scope.address_count());
}

TEST(ScanScope, HandlesTopOfAddressSpace) {
  // Regression for inclusive-upper-bound handling: a scope ending at
  // 255.255.255.255 must be containable, countable, and enumerable
  // without the probe loop or the LpmIndex wrapping around.
  net::IntervalSet targets;
  targets.insert(net::Interval{Ipv4Address(0xffffff00u),
                               Ipv4Address(0xffffffffu)});
  const ScanScope scope(targets);
  EXPECT_EQ(scope.address_count(), 256u);
  EXPECT_TRUE(scope.contains(Ipv4Address(0xffffffffu)));
  EXPECT_TRUE(scope.contains(Ipv4Address(0xffffff00u)));
  EXPECT_FALSE(scope.contains(Ipv4Address(0xfffffeffu)));

  const CountingOracle oracle({0xffffff05u, 0xffffffffu});
  EngineConfig config;
  config.order = EngineConfig::Order::kEnumerate;
  const ScanResult result = ScanEngine(config).run(scope, oracle);
  EXPECT_EQ(result.stats.probes_sent, 256u);
  EXPECT_EQ(result.responsive,
            (std::vector<std::uint32_t>{0xffffff05u, 0xffffffffu}));
}

TEST(CostModel, PerProtocolHandshakes) {
  const CostModel ftp = CostModel::for_protocol(census::Protocol::kFtp);
  const CostModel https = CostModel::for_protocol(census::Protocol::kHttps);
  EXPECT_GT(https.handshake_packets_per_hit,
            ftp.handshake_packets_per_hit);  // TLS costs more
  EXPECT_DOUBLE_EQ(ftp.packets(100, 0), 100.0);
}

}  // namespace
}  // namespace tass::scan
