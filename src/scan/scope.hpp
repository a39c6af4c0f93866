// ScanScope: the set of addresses a scan cycle will probe — a whitelist of
// prefixes (e.g. a TASS selection, or the whole announced space) minus a
// blocklist. The IntervalSet is the whole scope: the engine enumerates
// it, address_count() sums it, and contains() is a binary search over its
// sorted, disjoint intervals (the ZMap whitelist technique), so building
// a scope costs no CIDR cover and no LPM index — a sampled scope's
// millions of singleton draws stay one flat array.
#pragma once

#include <span>

#include "bgp/partition.hpp"
#include "bgp/reduce.hpp"
#include "net/interval.hpp"
#include "scan/blocklist.hpp"

namespace tass::scan {

class ScanScope {
 public:
  ScanScope() = default;

  /// Scope = union(prefixes) - blocklist.
  ScanScope(std::span<const net::Prefix> prefixes, const Blocklist& blocklist);

  /// Scope from a reduced (overshoot-bounded) selection: the prefix list
  /// is first collapsed by bgp::reduce, then scoped as usual. Fewer
  /// prefixes mean fewer target intervals to build and search, at
  /// the price of up to params.max_overshoot extra addresses in scope —
  /// every original address stays in scope (the blocklist is still
  /// subtracted afterwards, so overshoot never resurrects blocked
  /// space). `reduced_out`, when non-null, receives the reduction stats.
  static ScanScope of_reduced(std::span<const net::Prefix> prefixes,
                              const Blocklist& blocklist,
                              const bgp::ReduceParams& params = {},
                              bgp::ReduceResult* reduced_out = nullptr);

  /// Scope over selected live cells of a partition — the rescan scope of
  /// an incremental churn step (core::churn_step): the engine re-probes
  /// exactly the invalidated cells and leaves the untouched world alone.
  /// No blocklist is applied; partition cells were already carved from
  /// filtered space by the caller's pipeline. Precondition: every cell
  /// index is in range and live.
  static ScanScope of_cells(const bgp::PrefixPartition& partition,
                            std::span<const std::uint32_t> cells);

  /// Scope over raw intervals (already exclusion-applied).
  explicit ScanScope(net::IntervalSet targets) : targets_(std::move(targets)) {}

  bool contains(net::Ipv4Address addr) const noexcept {
    return targets_.contains(addr);
  }
  std::uint64_t address_count() const noexcept {
    return targets_.address_count();
  }
  const net::IntervalSet& targets() const noexcept { return targets_; }
  bool empty() const noexcept { return targets_.empty(); }

 private:
  net::IntervalSet targets_;
};

}  // namespace tass::scan
