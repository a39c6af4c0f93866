// serve_live phase: tass_serve with the live BGP stream reactor attached
// to a pipe the generator writes an MRT update feed into, at a ladder of
// update rates, while a fixed-rate stream of tally queries runs beside it.
//
// The feed is micro_stream's fold-invariant churn mix (reorigins and
// deaggregation splits, never a withdraw-only flap), so a shadow of the
// live prefix set maintained by the generator is exact for any batching
// the reactor chooses. A split adds exactly one live cell, so the
// daemon's kInfo live-cell count says which splits a generation reflects.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "bgp/partition.hpp"
#include "bgp/rib_delta.hpp"
#include "core/ranking.hpp"
#include "daemon.hpp"
#include "loadgen.hpp"
#include "serve/client.hpp"
#include "state/image.hpp"
#include "stream/framer.hpp"
#include "stream/queue.hpp"
#include "trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace tass;

namespace {

enum LiveKind : std::uint8_t { kTally, kInfo, kStats };
constexpr std::size_t kBatch = 256;
constexpr int kConnections = 2;
constexpr double kTickS = 0.005;          // feed write granularity
constexpr double kProbeIntervalS = 0.002; // kInfo probes
constexpr double kStatsIntervalS = 0.02;  // kStats samples
constexpr double kQueryQps = 1000.0;
constexpr double kUpdateLimitMs = 500.0;  // p99 bound of a sustained rung
// As for reads: the nominal rung (the first) runs for the phase's window,
// the rungs above it for a fixed time each.
const std::vector<double> kFeedLadder = {4000.0, 16000.0, 32000.0};
constexpr double kRungS = 1.0;
/// live_max_updates_per_sec: the feed written as fast as the pipe takes
/// it, in ticks of this many updates; measured for kSaturationS after a
/// kSaturationRampS ramp that fills the reactor's queue.
constexpr std::uint64_t kSaturationTick = 400;
constexpr double kSaturationRampS = 0.5;
constexpr double kSaturationS = 2.5;
constexpr double kReplayS = 2.0;
const std::vector<double> kTinyFeedLadder = {1000.0, 2000.0};

std::uint64_t key_of(net::Prefix prefix) {
  return (static_cast<std::uint64_t>(prefix.network().value()) << 8) |
         static_cast<std::uint64_t>(prefix.length());
}

/// The generator's view of the daemon's live prefix set and per-cell
/// host counts (reorigins keep a cell's count, split halves score zero).
struct Shadow {
  std::vector<net::Prefix> live;
  std::unordered_map<std::uint64_t, std::size_t> position;
  std::unordered_map<std::uint64_t, std::uint64_t> hosts;

  void add(net::Prefix prefix, std::uint64_t count) {
    position[key_of(prefix)] = live.size();
    live.push_back(prefix);
    hosts[key_of(prefix)] = count;
  }
  void remove(net::Prefix prefix) {
    const auto it = position.find(key_of(prefix));
    const std::size_t at = it->second;
    position.erase(it);
    hosts.erase(key_of(prefix));
    if (at + 1 != live.size()) {
      live[at] = live.back();
      position[key_of(live[at])] = at;
    }
    live.pop_back();
  }
};

Shadow shadow_of(const state::StateImage& image) {
  Shadow shadow;
  std::unordered_map<std::uint64_t, std::uint64_t> hosts;
  for (const auto& row : image.ranking().ranked) {
    hosts[key_of(row.prefix)] = row.hosts;
  }
  auto live = image.partition().live_prefixes();
  std::sort(live.begin(), live.end());
  shadow.live.reserve(live.size());
  for (const net::Prefix prefix : live) {
    const auto it = hosts.find(key_of(prefix));
    shadow.add(prefix, it == hosts.end() ? 0 : it->second);
  }
  return shadow;
}

/// One tick of churn: up to `budget` prefix updates against the shadow.
struct Tick {
  double due = 0.0;
  std::uint64_t splits_after = 0;  // cumulative splits including this tick
  std::uint64_t splits = 0;
  std::uint64_t updates = 0;
  std::vector<std::byte> bytes;
};

Tick make_tick(Shadow& shadow, util::Rng& rng, std::uint64_t budget,
               std::uint32_t timestamp) {
  Tick tick;
  bgp::RibDelta delta;
  std::unordered_set<std::uint64_t> used;
  int misses = 0;
  while (tick.updates < budget && misses < 32) {
    const net::Prefix victim = shadow.live[rng.bounded(shadow.live.size())];
    if (!used.insert(key_of(victim)).second) {
      ++misses;
      continue;
    }
    const auto origin = static_cast<std::uint32_t>(65000 + rng.bounded(512));
    if (victim.length() < 24 && rng.chance(0.45)) {
      // Deaggregation split: withdraw the cell, announce its halves.
      delta.withdraw.push_back(victim);
      delta.announce.push_back({victim.lower_half(), {origin}});
      delta.announce.push_back({victim.upper_half(), {origin}});
      shadow.remove(victim);
      for (const net::Prefix half : {victim.lower_half(), victim.upper_half()}) {
        used.insert(key_of(half));
        shadow.add(half, 0);
      }
      tick.updates += 3;
      ++tick.splits;
    } else {
      // Reorigin: same cell, new origin set; its count survives.
      delta.announce.push_back({victim, {origin}});
      tick.updates += 1;
    }
  }
  tick.bytes = bgp::encode_mrt_updates(delta, timestamp);
  return tick;
}

/// Tally batches walking the plan's selected scope in scan order.
std::vector<RequestFrame> scope_frames(const PlanProducts& products,
                                       std::size_t count) {
  std::vector<RequestFrame> frames;
  std::size_t interval = 0;
  std::uint64_t offset = 0;
  for (std::size_t f = 0; f < count && !products.selected.empty(); ++f) {
    std::vector<std::uint8_t> body;
    for (std::size_t i = 0; i < kBatch; ++i) {
      const net::Interval& span = products.selected[interval];
      serve::put_address(body, span.first.value() +
                                   static_cast<std::uint32_t>(offset));
      if (++offset >= span.size()) {
        offset = 0;
        interval = (interval + 1) % products.selected.size();
      }
    }
    serve::RequestHeader header;
    header.op = serve::Op::kTally;
    header.family = net::AddressFamily::kIpv4;
    header.count = static_cast<std::uint32_t>(kBatch);
    frames.push_back(make_frame(header, body, kTally));
  }
  return frames;
}

RequestFrame simple_frame(serve::Op op, LiveKind kind) {
  serve::RequestHeader header;
  header.op = op;
  header.family = op == serve::Op::kStats ? net::AddressFamily{}
                                          : net::AddressFamily::kIpv4;
  return make_frame(header, {}, kind);
}

/// Non-blocking writer of the feed pipe; owns the pipe's write end.
struct FeedWriter {
  int fd = -1;
  std::vector<std::byte> pending;
  std::size_t written = 0;

  FeedWriter() = default;
  ~FeedWriter() { close(); }
  FeedWriter(const FeedWriter&) = delete;
  FeedWriter& operator=(const FeedWriter&) = delete;

  /// Closing the write end is how the daemon learns the feed ended.
  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  void push(const std::vector<std::byte>& bytes) {
    pending.insert(pending.end(), bytes.begin(), bytes.end());
    flush();
  }
  void flush() {
    while (written < pending.size()) {
      const ssize_t n =
          ::write(fd, pending.data() + written, pending.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN) break;
        throw Error("feed pipe write failed");
      }
      written += static_cast<std::size_t>(n);
    }
    if (written == pending.size()) {
      pending.clear();
      written = 0;
    }
  }
  std::size_t backlog() const { return pending.size() - written; }
};

struct Observations {
  std::map<std::uint64_t, double> first_seen;   // generation -> time
  std::map<std::uint64_t, std::uint64_t> live;  // generation -> live cells
  std::vector<double> query_us;
  std::uint64_t bad = 0;
  std::uint64_t answered = 0;
  std::uint64_t swaps = 0;
  std::vector<double> install_us;
  std::vector<double> drain_us;

  void record(const Arrival& arrival) {
    ++answered;
    if (arrival.header.status != serve::Status::kOk) {
      ++bad;
      return;
    }
    if (arrival.kind == kStats) {
      serve::Cursor cursor(arrival.body);
      cursor.u64();  // requests
      cursor.u64();  // batched addresses
      const std::uint64_t swaps_now = cursor.u64();
      const std::uint64_t install = cursor.u64();
      const std::uint64_t drain = cursor.u64();
      if (swaps_now != swaps) {
        swaps = swaps_now;
        install_us.push_back(static_cast<double>(install));
        drain_us.push_back(static_cast<double>(drain));
      }
      return;
    }
    const std::uint64_t generation = arrival.header.generation;
    auto [it, inserted] = first_seen.emplace(generation, arrival.received);
    if (!inserted) it->second = std::min(it->second, arrival.received);
    if (arrival.kind == kInfo) {
      serve::Cursor cursor(arrival.body);
      cursor.u64();  // total hosts
      cursor.u64();  // advertised
      cursor.u64();  // cells
      live[generation] = cursor.u64();
    } else {
      query_us.push_back((arrival.received - arrival.due) * 1e6);
    }
  }

  /// First time a response came from a generation whose live-cell count
  /// reaches `target`; negative when none has yet.
  double reflected_at(std::uint64_t target) const {
    for (const auto& [generation, cells] : live) {
      if (cells >= target) {
        const auto it = first_seen.find(generation);
        return it == first_seen.end() ? -1.0 : it->second;
      }
    }
    return -1.0;
  }
};

struct LiveStep {
  double rate = 0.0;
  std::uint64_t updates = 0;
  double achieved_ups = 0.0;
  std::vector<double> update_ms;  // one sample per split
  Summary update;
  Summary query;
  bool reflected = true;
  bool growing = false;
  bool sustained = false;
};

struct Live {
  FeedWriter writer;
  Daemon daemon;
  std::uint64_t base_cells = 0;  // live cells of the loaded plan image
  std::uint64_t splits = 0;      // cumulative splits written
  std::uint32_t timestamp = 1441584000;
  std::vector<std::byte> priming;  // the one-split tick start_live wrote
};

/// Spawns the daemon with a fresh feed pipe and waits for the reactor
/// to serve its first published generation: a priming tick that splits
/// one cell of `shadow`. Returns spawn -> that first reflecting answer.
double start_live(Live& live, const PhaseConfig& config,
                  const PlanProducts& products, const std::string& feed_out,
                  Shadow& shadow) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw Error("pipe2 failed");
  DaemonOptions options;
  options.binary = config.serve_binary;
  options.args = {"--v4", products.v4_image, "--threads", "2", "--feed",
                  "fd:3", "--feed-out", feed_out};
  options.cpus = config.placement.system;
  options.feed_fd = fds[0];
  options.stderr_path = config.work_dir + "/serve_live.stderr";
  const double start = now_s();
  live.writer.fd = fds[1];
  try {
    live.daemon.start(options);
  } catch (...) {
    ::close(fds[0]);
    throw;
  }
  ::close(fds[0]);
  ::fcntl(live.writer.fd, F_SETFL, ::fcntl(live.writer.fd, F_GETFL) | O_NONBLOCK);
  wait_for_ping(live.daemon.port(), 30.0);

  serve::Client client("127.0.0.1", live.daemon.port());
  live.base_cells = client.info(net::AddressFamily::kIpv4).second.live_cells;
  const auto victim = std::find_if(
      shadow.live.begin(), shadow.live.end(),
      [](net::Prefix prefix) { return prefix.length() < 24; });
  if (victim == shadow.live.end()) throw Error("no splittable cell");
  const net::Prefix cell = *victim;
  bgp::RibDelta delta;
  delta.withdraw.push_back(cell);
  delta.announce.push_back({cell.lower_half(), {65000}});
  delta.announce.push_back({cell.upper_half(), {65000}});
  shadow.remove(cell);
  shadow.add(cell.lower_half(), 0);
  shadow.add(cell.upper_half(), 0);
  live.priming = bgp::encode_mrt_updates(delta, live.timestamp++);
  live.writer.push(live.priming);
  live.splits = 1;
  for (;;) {
    const auto [header, info] = client.info(net::AddressFamily::kIpv4);
    if (info.live_cells >= live.base_cells + 1) break;
    if (now_s() - start > 60.0) throw Error("the reactor never published");
    live.writer.flush();
  }
  return now_s() - start;
}

/// The per-layer replay: the first kReplayS of the recorded feed (the
/// priming tick and the nominal-rate warm-up) pushed through the same
/// public calls the reactor makes, one batch per 25 ms of feed.
void replay(const state::StateImage& image, const std::vector<Tick>& ticks,
            Metrics& layers) {
  auto live = image.partition().live_prefixes();
  std::sort(live.begin(), live.end());
  std::map<net::Prefix, std::vector<std::uint32_t>> table;
  std::map<net::Prefix, std::uint64_t> hosts_of;
  for (const auto& row : image.ranking().ranked) hosts_of[row.prefix] = row.hosts;
  for (const net::Prefix prefix : live) table[prefix] = {0};
  bgp::PrefixPartition partition(live);
  std::vector<std::uint32_t> counts(partition.size(), 0);
  for (std::size_t i = 0; i < partition.size(); ++i) {
    const auto it = hosts_of.find(partition.prefix(i));
    if (it != hosts_of.end()) counts[i] = static_cast<std::uint32_t>(it->second);
  }
  core::DensityRanking ranking =
      core::rank_by_density(counts, partition, image.ranking().mode);

  stream::MrtFramer framer;
  stream::CoalescingQueue queue(1u << 16);
  std::vector<double> frame_ms, apply_ms, rerank_ms, encode_ms, load_ms;
  std::size_t next = 0;
  while (next < ticks.size() && ticks[next].due - ticks.front().due < kReplayS) {
    const double batch_end = ticks[next].due + 0.025;
    {
      Stage stage("stream.frame");
      for (; next < ticks.size() && ticks[next].due < batch_end; ++next) {
        framer.push(ticks[next].bytes);
        while (auto delta = framer.next()) {
          for (const net::Prefix prefix : delta->withdraw) {
            queue.offer({prefix, std::nullopt, 0.0});
          }
          for (auto& record : delta->announce) {
            queue.offer({record.prefix, std::move(record.origins), 0.0});
          }
          for (auto& record : delta->reorigin) {
            queue.offer({record.prefix, std::move(record.origins), 0.0});
          }
        }
      }
      frame_ms.push_back(stage.stop() * 1e3);
    }
    std::vector<stream::PrefixAction> actions = queue.drain();
    std::vector<net::Prefix> removes;
    std::vector<net::Prefix> adds;
    for (stream::PrefixAction& action : actions) {
      const auto it = table.find(action.prefix);
      if (action.is_withdraw()) {
        if (it != table.end()) {
          removes.push_back(action.prefix);
          table.erase(it);
        }
      } else if (it != table.end()) {
        it->second = std::move(*action.origins);
      } else {
        adds.push_back(action.prefix);
        table[action.prefix] = std::move(*action.origins);
      }
    }
    std::sort(removes.begin(), removes.end());
    std::sort(adds.begin(), adds.end());
    bgp::PartitionApplyResult result;
    {
      Stage stage("bgp.apply_delta");
      result = partition.apply_delta(bgp::PartitionDelta{removes, adds});
      result.reindex(counts);
      apply_ms.push_back(stage.stop() * 1e3);
    }
    {
      Stage stage("core.rerank");
      core::rerank_cells(ranking, counts, partition, result);
      rerank_ms.push_back(stage.stop() * 1e3);
    }
    std::vector<std::byte> bytes;
    {
      Stage stage("state.live_encode");
      bytes = state::encode_image(partition, ranking);
      encode_ms.push_back(stage.stop() * 1e3);
    }
    {
      Stage stage("state.live_load");
      const state::StateImage loaded = state::StateImage::attach(bytes);
      (void)loaded;
      load_ms.push_back(stage.stop() * 1e3);
    }
  }
  const stream::QueueStats queue_stats = queue.stats();
  layers["stream.frame_ms"] = {median(frame_ms), "ms"};
  layers["stream.coalesce_ratio"] = {
      queue_stats.offered == 0
          ? 0.0
          : static_cast<double>(queue_stats.coalesced) /
                static_cast<double>(queue_stats.offered),
      "ratio"};
  layers["stream.queue_depth_max"] = {static_cast<double>(queue_stats.high_water),
                                      "count"};
  layers["bgp.apply_delta_ms"] = {median(apply_ms), "ms"};
  layers["core.rerank_ms"] = {median(rerank_ms), "ms"};
  layers["state.live_encode_ms"] = {median(encode_ms), "ms"};
  layers["state.live_load_ms"] = {median(load_ms), "ms"};
}

/// "feed consumed R records (E decode errors, S resyncs), P plans
/// published" from the daemon's exit report.
bool parse_feed_report(const std::string& path, std::uint64_t& errors,
                       std::uint64_t& resyncs, std::uint64_t& published) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    unsigned long long records = 0, e = 0, s = 0, p = 0;
    if (std::sscanf(line.c_str(),
                    "tass_serve: feed consumed %llu records (%llu decode "
                    "errors, %llu resyncs), %llu plans published",
                    &records, &e, &s, &p) == 4) {
      errors = e;
      resyncs = s;
      published = p;
      return true;
    }
  }
  return false;
}

}  // namespace

PhaseResult run_live_phase(const PlanProducts& products,
                           const PhaseConfig& config, Gates& gates) {
  PhaseResult result;
  const state::StateImage image = state::StateImage::load(products.v4_image);
  Shadow shadow = shadow_of(image);
  const std::string feed_out = config.work_dir + "/live.tsim";
  util::Rng rng(util::mix64(config.seed, 0x11fe));
  const std::vector<RequestFrame> queries =
      scope_frames(products, config.tiny ? 64 : 1024);
  const RequestFrame info_frame = simple_frame(serve::Op::kInfo, kInfo);
  const RequestFrame stats_frame = simple_frame(serve::Op::kStats, kStats);

  // Set-up: spawn -> the reactor's first published generation served.
  Live live;
  std::vector<double> setups;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    Stage stage("serve.live_setup");
    if (rep + 1 == config.setup_reps) {
      setups.push_back(start_live(live, config, products, feed_out, shadow));
      break;
    }
    // A throwaway daemon: same spawn and priming, on a copy of the shadow.
    Live throwaway;
    Shadow copy = shadow;
    setups.push_back(start_live(throwaway, config, products, feed_out, copy));
    throwaway.writer.close();
    gates.check(throwaway.daemon.stop(), "tass_serve (feed) exits cleanly");
  }
  result.setup_s = median(setups);

  const std::vector<double>& ladder = config.tiny ? kTinyFeedLadder : kFeedLadder;
  const double nominal = ladder.front();
  const double query_qps = config.tiny ? 200.0 : kQueryQps;
  const double rung_s = config.tiny ? 0.3 : kRungS;
  std::vector<LiveStep> steps;
  std::vector<Tick> recorded;  // the whole feed, for the traced replay
  recorded.push_back(Tick{now_s(), 1, 1, 3, live.priming});
  Observations seen;
  std::uint64_t queries_sent = 0;
  std::vector<double> live_queries;
  double saturated_ups = 0.0;
  {
    LoadGenerator generator(live.daemon.port(), kConnections);
    const auto handler = [&](const Arrival& arrival) { seen.record(arrival); };
    // Keeps probing until every split written so far is served (or the
    // deadline passes), then collects the outstanding responses.
    const auto drain_until_reflected = [&](double deadline) {
      const std::uint64_t target = live.base_cells + live.splits;
      while (now_s() < deadline && seen.reflected_at(target) < 0.0) {
        live.writer.flush();
        generator.submit(0, info_frame, 0, now_s());
        generator.drain(now_s() + 0.5, handler);
        generator.pump(now_s() + 0.002, handler);
      }
      generator.drain(now_s() + 5.0, handler);
    };
    const auto run_rung = [&](double rate, double seconds) {
      LiveStep step;
      step.rate = rate;
      const double step_s = seconds;
      std::vector<Tick> ticks;
      const std::size_t query_mark = seen.query_us.size();
      const double start = now_s() + 0.002;
      const double end = start + step_s;
      std::uint64_t tick_index = 0, query_index = 0, probe_index = 0,
                    stats_index = 0;
      double updates_due = 0.0;
      std::size_t feed_backlog_max = 0;
      for (;;) {
        const double next_tick = start + static_cast<double>(tick_index) * kTickS;
        const double next_query =
            start + static_cast<double>(query_index) / query_qps;
        const double next_probe =
            start + static_cast<double>(probe_index) * kProbeIntervalS;
        const double next_stats =
            start + static_cast<double>(stats_index) * kStatsIntervalS;
        const double next =
            std::min({next_tick, next_query, next_probe, next_stats});
        if (next >= end) break;
        if (now_s() < next) {
          generator.pump(next, handler);
          live.writer.flush();
          continue;
        }
        if (next == next_tick) {
          updates_due += step.rate * kTickS;
          const auto budget = static_cast<std::uint64_t>(updates_due) -
                              std::min<std::uint64_t>(
                                  static_cast<std::uint64_t>(updates_due),
                                  step.updates);
          Tick tick = make_tick(shadow, rng, budget, live.timestamp++);
          tick.due = next_tick;
          live.splits += tick.splits;
          tick.splits_after = live.splits;
          step.updates += tick.updates;
          feed_backlog_max = std::max(feed_backlog_max, live.writer.backlog());
          live.writer.push(tick.bytes);
          ticks.push_back(std::move(tick));
          ++tick_index;
        } else if (next == next_query) {
          const auto tag = static_cast<std::uint32_t>(
              (queries_sent + query_index) % queries.size());
          generator.submit(static_cast<int>(query_index % kConnections),
                           queries[tag], tag, next_query);
          ++query_index;
        } else if (next == next_probe) {
          generator.submit(static_cast<int>(probe_index % kConnections),
                           info_frame, 0, next_probe);
          ++probe_index;
        } else {
          generator.submit(0, stats_frame, 0, next_stats);
          ++stats_index;
        }
      }
      queries_sent += query_index;
      const double window_end = now_s();
      step.achieved_ups =
          static_cast<double>(step.updates) / std::max(1e-9, window_end - start);
      drain_until_reflected(window_end + 5.0);
      result.attempted += query_index + step.updates;

      std::vector<double> first_quarter, last_quarter;
      for (const Tick& tick : ticks) {
        if (tick.splits == 0) continue;
        const double at = seen.reflected_at(live.base_cells + tick.splits_after);
        if (at < 0.0) {
          step.reflected = false;
          continue;
        }
        const double ms = (at - tick.due) * 1e3;
        for (std::uint64_t k = 0; k < tick.splits; ++k) step.update_ms.push_back(ms);
        if (tick.due < start + step_s / 4) first_quarter.push_back(ms);
        if (tick.due >= end - step_s / 4) last_quarter.push_back(ms);
      }
      step.update = summarize(step.update_ms);
      step.query = summarize(std::vector<double>(
          seen.query_us.begin() + static_cast<std::ptrdiff_t>(query_mark),
          seen.query_us.end()));
      // A reactor that stops reading fills the pipe: a feed backlog of
      // more than one pipe buffer is a growing backlog.
      step.growing = median(last_quarter) > 2.0 * median(first_quarter) + 20.0 ||
                     feed_backlog_max > (64u << 10);
      step.sustained = step.reflected && !step.growing &&
                       step.update.tail <= kUpdateLimitMs;
      std::fprintf(stderr,
                   "perfbench: serve_live %6.0f upd/s: %llu updates (%.0f/s), "
                   "update->serve p50 %.1f ms %s %.1f ms (n=%zu), query p50 "
                   "%.0f p90 %.0f %s %.0f max %.0f us (n=%zu)%s\n",
                   step.rate, static_cast<unsigned long long>(step.updates),
                   step.achieved_ups, step.update.p50, step.update.tail_label,
                   step.update.tail, step.update.count, step.query.p50,
                   step.query.p90, step.query.tail_label, step.query.tail,
                   step.query.max, step.query.count,
                   step.sustained ? "" : (step.reflected ? " GROWING" : " UNREFLECTED"));
      for (Tick& tick : ticks) recorded.push_back(std::move(tick));
      return step;
    };
    // Warm-up at the nominal rate (first swaps, page cache), unmeasured.
    run_rung(nominal, config.tiny ? 0.2 : 2.5);
    // Query latency is taken on the nominal rung: reads beside a steady
    // feed, not beside a reactor driven past its capacity.
    const std::size_t measured_from = seen.query_us.size();
    std::size_t nominal_end = measured_from;
    for (const double rate : ladder) {
      Stage stage("serve.live_step");
      steps.push_back(run_rung(rate, rate == nominal ? config.window_s : rung_s));
      if (rate == nominal) nominal_end = seen.query_us.size();
    }
    live_queries.assign(
        seen.query_us.begin() + static_cast<std::ptrdiff_t>(measured_from),
        seen.query_us.begin() + static_cast<std::ptrdiff_t>(nominal_end));

    // Saturation: ticks are written whenever the pipe has room, so the
    // reactor's own pace sets the rate. Once its queue has filled (after
    // a ramp), every generation served marks how many of the written
    // updates were visible when it was first seen; the rate is the slope
    // between the first and the last generation of the window.
    Stage stage("serve.live_saturate");
    std::vector<Tick> ticks;
    const double start = now_s();
    const double ramp_end = start + (config.tiny ? 0.1 : kSaturationRampS);
    const double end = ramp_end + (config.tiny ? 0.4 : kSaturationS);
    std::uint64_t probe_index = 0;
    while (now_s() < end) {
      const double next_probe =
          start + static_cast<double>(probe_index) * kProbeIntervalS;
      if (now_s() >= next_probe) {
        generator.submit(0, info_frame, 0, next_probe);
        ++probe_index;
      }
      live.writer.flush();
      if (live.writer.backlog() == 0) {
        Tick tick = make_tick(shadow, rng, kSaturationTick, live.timestamp++);
        tick.due = now_s();
        live.splits += tick.splits;
        tick.splits_after = live.splits;
        live.writer.push(tick.bytes);
        ticks.push_back(std::move(tick));
      }
      generator.pump(std::min(next_probe, now_s() + 0.0005), handler);
    }
    drain_until_reflected(now_s() + 10.0);
    stage.stop();
    std::vector<std::uint64_t> written(ticks.size() + 1, 0);
    for (std::size_t k = 0; k < ticks.size(); ++k) {
      written[k + 1] = written[k] + ticks[k].updates;
    }
    double first_at = 0.0, last_at = 0.0;
    std::uint64_t first_visible = 0, last_visible = 0;
    bool any = false;
    for (const auto& [generation, cells] : seen.live) {
      const double at = seen.first_seen.at(generation);
      if (at < ramp_end || at > end) continue;
      const std::uint64_t splits = cells - live.base_cells;
      const auto visible_ticks = static_cast<std::size_t>(
          std::upper_bound(ticks.begin(), ticks.end(), splits,
                           [](std::uint64_t value, const Tick& tick) {
                             return value < tick.splits_after;
                           }) -
          ticks.begin());
      if (!any) {
        first_at = at;
        first_visible = written[visible_ticks];
        any = true;
      }
      last_at = at;
      last_visible = written[visible_ticks];
    }
    saturated_ups = last_at > first_at
                        ? static_cast<double>(last_visible - first_visible) /
                              (last_at - first_at)
                        : 0.0;
    result.attempted += written.back();
    std::fprintf(stderr,
                 "perfbench: serve_live saturated: %.0f upd/s served "
                 "(%llu updates written)\n",
                 saturated_ups,
                 static_cast<unsigned long long>(written.back()));
    for (Tick& tick : ticks) recorded.push_back(std::move(tick));
    result.failed += seen.bad + generator.protocol_errors();
    gates.check(seen.bad == 0 && generator.protocol_errors() == 0,
                "serve_live responses decode with status ok");
  }

  // ---- end of feed: the final generation against the shadow ----------
  live.writer.flush();
  for (int i = 0; i < 2000 && live.writer.backlog() > 0; ++i) {
    ::usleep(1000);
    live.writer.flush();
  }
  live.writer.close();
  serve::StatsReply served;
  std::uint64_t final_fingerprint = 0;
  {
    serve::Client client("127.0.0.1", live.daemon.port());
    const std::uint64_t target = live.base_cells + live.splits;
    std::uint64_t last_generation = 0;
    double stable_since = now_s();
    // Every update must be served before the comparison; a rung above
    // capacity leaves a backlog that takes a few seconds to drain.
    const double deadline = now_s() + 60.0;
    while (now_s() < deadline) {
      const auto [header, info] = client.info(net::AddressFamily::kIpv4);
      if (header.generation != last_generation) {
        last_generation = header.generation;
        stable_since = now_s();
      }
      final_fingerprint = header.fingerprint;
      if (info.live_cells >= target && now_s() - stable_since > 0.3) break;
      ::usleep(2000);
    }
    served = client.stats().second;
  }
  result.peak_rss_mb = vm_hwm_mb(live.daemon.pid());
  gates.check(live.daemon.stop(), "tass_serve (feed) exits cleanly");
  {
    std::string error;
    bool ok = false;
    try {
      const state::StateImage last = state::StateImage::load(feed_out);
      auto prefixes = last.partition().live_prefixes();
      std::sort(prefixes.begin(), prefixes.end());
      auto expected = shadow.live;
      std::sort(expected.begin(), expected.end());
      bool counts_ok = true;
      std::uint64_t total = 0;
      for (const auto& row : last.ranking().ranked) {
        const auto it = shadow.hosts.find(key_of(row.prefix));
        counts_ok = counts_ok && it != shadow.hosts.end() && it->second == row.hosts;
        total += row.hosts;
      }
      std::uint64_t shadow_total = 0;
      for (const auto& [key, hosts] : shadow.hosts) shadow_total += hosts;
      ok = last.info().fingerprint == final_fingerprint && prefixes == expected &&
           counts_ok && total == shadow_total;
      if (!ok) error = "served plan diverged from the batch shadow";
    } catch (const std::exception& e) {
      error = e.what();
    }
    gates.check(ok, "final served generation equals the shadow: " + error);
  }
  std::uint64_t decode_errors = 1, resyncs = 1, published = 0;
  const bool reported = parse_feed_report(
      config.work_dir + "/serve_live.stderr", decode_errors, resyncs, published);
  gates.check(reported && decode_errors == 0 && resyncs == 0,
              "feed decoded without errors or resyncs");
  gates.check(reported && published == served.swaps,
              "every published plan was swapped in (no dropped generation)");

  const LiveStep* at_nominal = nullptr;
  for (const LiveStep& step : steps) {
    if (step.rate == nominal) at_nominal = &step;
  }
  result.report["live.ladder_max_updates_per_sec"] = {
      sustained_rate(
          steps, [](const LiveStep& step) { return step.sustained; },
          [](const LiveStep& step) { return step.update.tail; },
          kUpdateLimitMs),
      "upd/s"};
  // Reported, not gated: see perfbench/README.md (run-to-run spread).
  result.layers["live_query_p99_us"] = {windowed_p99(live_queries), "us"};
  result.metrics["live_update_to_serve_p50_ms"] = {at_nominal->update.p50, "ms"};
  result.metrics["live_update_to_serve_p99_ms"] = {
      windowed_p99(at_nominal->update_ms), "ms"};
  result.metrics["live_max_updates_per_sec"] = {saturated_ups, "upd/s"};
  result.report["live.update_samples"] = {
      static_cast<double>(at_nominal->update.count), "count"};
  result.report["live.query_samples"] = {
      static_cast<double>(live_queries.size()), "count"};

  Metrics& layers = result.layers;
  layers["serve.swaps"] = {static_cast<double>(served.swaps), "count"};
  layers["serve.swap_install_us"] = {median(seen.install_us), "us"};
  layers["serve.swap_drain_us"] = {median(seen.drain_us), "us"};
  if (config.trace) replay(image, recorded, layers);
  return result;
}

}  // namespace perfbench
