// serve_read phase: tass_serve as a child process serving the plan's
// images, driven open-loop along a ladder of offered rates.
#include <algorithm>
#include <cstdio>

#include "core/selection.hpp"
#include "daemon.hpp"
#include "loadgen.hpp"
#include "net/interval.hpp"
#include "serve/client.hpp"
#include "state/image.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace tass;

namespace {

enum Kind : std::uint8_t { kLocate4, kTally4, kLocate6, kRank, kPlan, kKinds };
constexpr const char* kKindName[kKinds] = {"locate4", "tally4", "locate6",
                                           "rank", "plan"};
constexpr std::size_t kBatch4 = 256;
constexpr std::size_t kBatch6 = 128;
constexpr std::uint32_t kRankRows = 16;
constexpr double kPlanPhi = 0.05;
constexpr int kConnections = 2;

/// p99 limit of a sustained ladder step, and how late the generator may
/// run before a step is invalid.
constexpr double kLatencyLimitUs = 10000.0;
constexpr double kLagLimitMs = 2.0;

// Offered rates (q/s); the nominal rate is where p50/p99 are reported.
constexpr double kNominalQps = 1000.0;
// The nominal rung (the first) runs for the phase's window; the rungs
// above it run for a fixed time each and show where the backlog starts
// to grow (reported as serve.ladder_max_qps).
const std::vector<double> kLadder = {1000.0, 2000.0, 3000.0, 4000.0, 6000.0};
constexpr double kRungS = 0.5;
/// serve_max_qps: closed-loop saturation, this many requests in flight
/// per connection, median over this many windows of this length.
constexpr std::size_t kSaturationDepth = 8;
constexpr int kSaturationTrials = 6;
constexpr double kSaturationS = 0.4;
const std::vector<double> kTinyLadder = {500.0, 1000.0};

/// Pre-encoded requests and the payload a direct library call on the
/// served image gives for each, computed before any timed window.
struct Pool {
  std::vector<RequestFrame> frames[kKinds];
  std::vector<std::vector<std::uint8_t>> expected[kKinds];
  std::vector<std::vector<std::uint32_t>> v4[2];  // locate4, tally4
  std::vector<std::vector<net::Ipv6Address>> v6;
};

net::Ipv6Address random_in(const net::Ipv6Prefix& prefix, util::Rng& rng) {
  const int length = prefix.length();
  std::uint64_t hi = prefix.network().hi();
  if (length < 64) hi |= rng() & (~0ULL >> length);
  std::uint64_t lo = rng();
  if (length > 64) lo = prefix.network().lo() | (lo & (~0ULL >> (length - 64)));
  return net::Ipv6Address(hi, lo);
}

Pool build_pool(const PlanProducts& products, const state::StateImage& image4,
                const state::StateImage6& image6, std::size_t pool_size,
                std::uint64_t seed) {
  Pool pool;
  util::Rng rng(util::mix64(seed, 0x5e7e));
  const net::AddressIndexer indexer(net::IntervalSet(products.advertised));
  const auto& partition4 = image4.partition();
  std::vector<std::uint32_t> counts(partition4.size(), 0);
  for (int k = 0; k < 2; ++k) {
    const Kind kind = k == 0 ? kLocate4 : kTally4;
    for (std::size_t t = 0; t < pool_size; ++t) {
      std::vector<std::uint32_t> batch(kBatch4);
      for (auto& address : batch) {
        address = indexer.at(rng.bounded(indexer.size())).value();
      }
      serve::RequestHeader header;
      header.op = kind == kLocate4 ? serve::Op::kLocate : serve::Op::kTally;
      header.family = net::AddressFamily::kIpv4;
      header.count = static_cast<std::uint32_t>(batch.size());
      std::vector<std::uint8_t> body;
      for (const std::uint32_t address : batch) serve::put_address(body, address);
      pool.frames[kind].push_back(make_frame(header, body, kind));

      std::vector<std::uint8_t> expected;
      if (kind == kLocate4) {
        std::vector<std::uint32_t> cells(batch.size());
        partition4.locate_many(batch, cells);
        for (const std::uint32_t cell : cells) serve::put_u32(expected, cell);
      } else {
        std::uint64_t attributed = 0;
        std::uint64_t unattributed = 0;
        partition4.tally_cells(std::span<const std::uint32_t>(batch), counts,
                               attributed, unattributed);
        serve::put_u64(expected, attributed);
        serve::put_u64(expected, unattributed);
        for (std::size_t cell = 0; cell < counts.size(); ++cell) {
          if (counts[cell] == 0) continue;
          serve::put_u32(expected, static_cast<std::uint32_t>(cell));
          serve::put_u32(expected, counts[cell]);
          counts[cell] = 0;
        }
      }
      pool.expected[kind].push_back(std::move(expected));
      pool.v4[k].push_back(std::move(batch));
    }
  }
  for (std::size_t t = 0; t < pool_size; ++t) {
    std::vector<net::Ipv6Address> batch(kBatch6);
    for (auto& address : batch) {
      address = random_in(
          products.advertised6[rng.bounded(products.advertised6.size())], rng);
    }
    serve::RequestHeader header;
    header.op = serve::Op::kLocate;
    header.family = net::AddressFamily::kIpv6;
    header.count = static_cast<std::uint32_t>(batch.size());
    std::vector<std::uint8_t> body;
    for (const auto& address : batch) serve::put_address(body, address);
    pool.frames[kLocate6].push_back(make_frame(header, body, kLocate6));
    std::vector<std::uint32_t> cells(batch.size());
    image6.partition().locate_many(batch, cells);
    std::vector<std::uint8_t> expected;
    for (const std::uint32_t cell : cells) serve::put_u32(expected, cell);
    pool.expected[kLocate6].push_back(std::move(expected));
    pool.v6.push_back(std::move(batch));
  }
  {
    serve::RequestHeader header;
    header.op = serve::Op::kRank;
    header.family = net::AddressFamily::kIpv4;
    header.count = kRankRows;
    pool.frames[kRank].push_back(make_frame(header, {}, kRank));
    const auto view = image4.ranking();
    std::vector<std::uint8_t> expected;
    const std::size_t n = std::min<std::size_t>(kRankRows, view.ranked.size());
    for (std::size_t i = 0; i < n; ++i) {
      serve::put_prefix(expected, view.ranked[i].prefix);
      serve::put_u64(expected, view.ranked[i].hosts);
      serve::put_f64(expected, view.ranked[i].density);
    }
    pool.expected[kRank].push_back(std::move(expected));
  }
  {
    serve::RequestHeader header;
    header.op = serve::Op::kPlan;
    header.family = net::AddressFamily::kIpv4;
    serve::PlanParams params;
    params.phi = kPlanPhi;
    std::vector<std::uint8_t> body;
    serve::encode_plan_params(body, params);
    pool.frames[kPlan].push_back(make_frame(header, body, kPlan));
    core::SelectionParams selection_params;
    selection_params.phi = kPlanPhi;
    const auto selection =
        core::select_by_density(image4.ranking(), selection_params);
    std::vector<std::uint8_t> expected;
    serve::put_u64(expected, selection.selected_addresses);
    serve::put_u64(expected, selection.covered_hosts);
    serve::put_u64(expected, selection.total_hosts);
    for (const auto& prefix : selection.prefixes) {
      serve::put_prefix(expected, prefix);
    }
    pool.expected[kPlan].push_back(std::move(expected));
  }
  return pool;
}

/// micro_serve's mix: per 16 requests, one rank-or-plan, one v6 locate,
/// and the rest v4 tally/locate batches alternating.
Kind kind_of(std::uint64_t i) {
  const std::uint64_t slot = i % 16;
  if (slot == 15) return (i / 16) % 2 == 0 ? kRank : kPlan;
  if (slot == 7) return kLocate6;
  return slot % 2 == 1 ? kTally4 : kLocate4;
}

const serve::Op kOpOf[kKinds] = {serve::Op::kLocate, serve::Op::kTally,
                                 serve::Op::kLocate, serve::Op::kRank,
                                 serve::Op::kPlan};

struct StepStats {
  double rate = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t answered = 0;
  std::uint64_t bad = 0;
  double achieved_qps = 0.0;
  std::vector<double> latency_us;
  std::vector<double> latency_by_kind[kKinds];
  Summary summary;
  double lag_p99_ms = 0.0;
  std::size_t backlog_at_end = 0;
  bool growing = false;
  bool sustained = false;
};

/// Inline check of one response: status, op, the fingerprint of the
/// served image, and the payload byte for byte against the library's.
bool response_ok(const Pool& pool, std::uint64_t fingerprint4,
                 std::uint64_t fingerprint6, const Arrival& arrival) {
  const Kind kind = static_cast<Kind>(arrival.kind);
  const auto& expected = pool.expected[kind][arrival.tag];
  return arrival.header.status == serve::Status::kOk &&
         arrival.header.op == kOpOf[kind] &&
         arrival.header.fingerprint ==
             (kind == kLocate6 ? fingerprint6 : fingerprint4) &&
         arrival.body.size() == expected.size() &&
         std::equal(arrival.body.begin(), arrival.body.end(), expected.begin());
}

const RequestFrame& frame_for(const Pool& pool, std::uint64_t i,
                              std::uint64_t seed, std::uint32_t& tag) {
  const auto& frames = pool.frames[kind_of(i)];
  tag = static_cast<std::uint32_t>(util::mix64(seed, i) % frames.size());
  return frames[tag];
}

StepStats run_step(LoadGenerator& generator, const Pool& pool,
                   std::uint64_t fingerprint4, std::uint64_t fingerprint6,
                   double rate, double seconds, std::uint64_t seed) {
  StepStats stats;
  stats.rate = rate;
  std::vector<double> first_quarter;
  std::vector<double> last_quarter;
  const double start = now_s() + 0.002;
  const double end = start + seconds;
  const auto handler = [&](const Arrival& arrival) {
    ++stats.answered;
    const Kind kind = static_cast<Kind>(arrival.kind);
    if (!response_ok(pool, fingerprint4, fingerprint6, arrival)) {
      ++stats.bad;
      return;
    }
    const double us = (arrival.received - arrival.due) * 1e6;
    stats.latency_us.push_back(us);
    stats.latency_by_kind[kind].push_back(us);
    if (arrival.due < start + seconds / 4) first_quarter.push_back(us);
    if (arrival.due >= end - seconds / 4) last_quarter.push_back(us);
  };
  generator.clear_lag();
  std::uint64_t i = 0;
  for (;;) {
    const double due = start + static_cast<double>(i) / rate;
    if (due >= end) break;
    if (now_s() < due) {
      generator.pump(due, handler);
      continue;
    }
    std::uint32_t tag = 0;
    const RequestFrame& frame = frame_for(pool, i, seed, tag);
    generator.submit(static_cast<int>(i % generator.connections()), frame,
                     tag, due);
    ++i;
  }
  stats.offered = i;
  stats.backlog_at_end = generator.outstanding();
  const double window_end = now_s();
  generator.drain(window_end + 5.0, handler);
  std::vector<double> lag = generator.lag();
  stats.lag_p99_ms = summarize(lag).p99 * 1e3;
  stats.achieved_qps =
      static_cast<double>(stats.answered) / std::max(1e-9, window_end - start);
  stats.summary = summarize(stats.latency_us);
  stats.growing =
      median(last_quarter) > 2.0 * median(first_quarter) + 1000.0 ||
      static_cast<double>(stats.backlog_at_end) > std::max(32.0, rate * 0.05);
  stats.sustained = !stats.growing && stats.bad == 0 &&
                    stats.answered == stats.offered &&
                    stats.summary.tail <= kLatencyLimitUs &&
                    stats.lag_p99_ms <= kLagLimitMs;
  return stats;
}

/// Closed-loop saturation: every connection keeps `depth` requests in
/// flight for `seconds`; returns responses per second (all verified).
struct Saturation {
  double qps = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t bad = 0;
  std::uint64_t unanswered = 0;
};

Saturation saturate(LoadGenerator& generator, const Pool& pool,
                    std::uint64_t fingerprint4, std::uint64_t fingerprint6,
                    double seconds, std::size_t depth, std::uint64_t seed) {
  Saturation result;
  std::uint64_t answered = 0;
  const auto handler = [&](const Arrival& arrival) {
    ++answered;
    if (!response_ok(pool, fingerprint4, fingerprint6, arrival)) ++result.bad;
  };
  const double start = now_s();
  const double end = start + seconds;
  std::uint64_t in_window = 0;
  while (now_s() < end) {
    const std::size_t want = depth * static_cast<std::size_t>(generator.connections());
    while (generator.outstanding() < want) {
      std::uint32_t tag = 0;
      const RequestFrame& frame = frame_for(pool, result.sent, seed, tag);
      generator.submit(static_cast<int>(result.sent % generator.connections()),
                       frame, tag, now_s());
      ++result.sent;
    }
    generator.pump(std::min(end, now_s() + 0.0002), handler);
    in_window = answered;
  }
  const double elapsed = now_s() - start;
  result.unanswered = generator.drain(now_s() + 5.0, handler);
  result.qps = static_cast<double>(in_window) / elapsed;
  return result;
}

double ns_per(double seconds, std::size_t items) {
  return items == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(items);
}

}  // namespace

PhaseResult run_read_phase(const PlanProducts& products,
                           const PhaseConfig& config, Gates& gates) {
  PhaseResult result;
  const state::StateImage image4 = state::StateImage::load(products.v4_image);
  const state::StateImage6 image6 =
      state::StateImage6::load(products.v6_image);
  const Pool pool = build_pool(products, image4, image6,
                               config.tiny ? 32 : 256, config.seed);

  DaemonOptions options;
  options.binary = config.serve_binary;
  options.args = {"--v4", products.v4_image, "--v6", products.v6_image,
                  "--threads", "2"};
  options.cpus = config.placement.system;
  options.stderr_path = config.work_dir + "/serve_read.stderr";

  // Set-up: spawn -> first answered ping, several times; the last child
  // stays up for the ladder.
  Daemon daemon;
  std::vector<double> setups;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    Stage stage("serve.setup");
    const double start = now_s();
    daemon.start(options);
    wait_for_ping(daemon.port(), 30.0);
    setups.push_back(now_s() - start);
    stage.stop();
    if (rep + 1 < config.setup_reps) {
      gates.check(daemon.stop(), "tass_serve exits cleanly");
    }
  }
  result.setup_s = median(setups);

  const std::vector<double>& ladder = config.tiny ? kTinyLadder : kLadder;
  const double nominal = config.tiny ? kTinyLadder.front() : kNominalQps;
  const double rung_s = config.tiny ? 0.2 : kRungS;
  std::vector<StepStats> steps;
  double saturated_qps = 0.0;
  {
    LoadGenerator generator(daemon.port(), kConnections);
    // Warm-up at the nominal rate: fault the image pages in, untimed.
    run_step(generator, pool, image4.info().fingerprint,
             image6.info().fingerprint, nominal, config.tiny ? 0.2 : 0.5,
             config.seed ^ 1);
    for (std::size_t s = 0; s < ladder.size(); ++s) {
      Stage stage("serve.step");
      steps.push_back(run_step(generator, pool, image4.info().fingerprint,
                               image6.info().fingerprint, ladder[s],
                               ladder[s] == nominal ? config.window_s : rung_s,
                               util::mix64(config.seed, s)));
      stage.stop();
      const StepStats& step = steps.back();
      result.attempted += step.offered;
      result.failed += step.bad + (step.offered - std::min(step.offered,
                                                           step.answered));
      gates.check(step.bad == 0, "serve_read responses match the library (" +
                                     std::to_string(step.bad) + " bad)");
      gates.check(generator.protocol_errors() == 0,
                  "serve_read frames decode and match their requests");
      std::fprintf(stderr,
                   "perfbench: serve_read %6.0f q/s: %llu offered, %.0f "
                   "q/s answered, p50 %.0f us, %s %.0f us (n=%zu), lag p99 "
                   "%.3f ms, backlog %zu%s\n",
                   step.rate, static_cast<unsigned long long>(step.offered),
                   step.achieved_qps, step.summary.p50, step.summary.tail_label,
                   step.summary.tail, step.summary.count, step.lag_p99_ms,
                   step.backlog_at_end,
                   step.sustained ? "" : (step.growing ? " GROWING" : " OVER"));
    }
    // The median of several short saturation windows: the instantaneous
    // throughput of a shared host comes in bursts, and one long window
    // would average a burst in.
    Stage stage("serve.saturate");
    std::vector<double> trials;
    for (int trial = 0; trial < kSaturationTrials; ++trial) {
      const Saturation saturation = saturate(
          generator, pool, image4.info().fingerprint, image6.info().fingerprint,
          config.tiny ? 0.1 : kSaturationS, kSaturationDepth,
          util::mix64(config.seed, 0x5a7 + trial));
      result.attempted += saturation.sent;
      result.failed += saturation.bad + saturation.unanswered;
      gates.check(saturation.bad == 0 && saturation.unanswered == 0,
                  "serve_read saturation responses match the library");
      trials.push_back(saturation.qps);
    }
    stage.stop();
    saturated_qps = median(trials);
    std::fprintf(stderr, "perfbench: serve_read saturated: %.0f q/s (median of %d)\n",
                 saturated_qps, kSaturationTrials);
  }
  serve::StatsReply served;
  {
    serve::Client client("127.0.0.1", daemon.port());
    served = client.stats().second;
  }
  result.peak_rss_mb = vm_hwm_mb(daemon.pid());
  gates.check(daemon.stop(), "tass_serve exits cleanly");

  const StepStats* at_nominal = nullptr;
  for (const StepStats& step : steps) {
    if (step.rate == nominal) at_nominal = &step;
  }
  const double ladder_qps = sustained_rate(
      steps, [](const StepStats& step) { return step.sustained; },
      [](const StepStats& step) { return step.summary.tail; }, kLatencyLimitUs);
  result.report["serve.ladder_max_qps"] = {ladder_qps, "q/s"};

  // Reported, not gated: see perfbench/README.md (run-to-run spread).
  result.layers["serve_p50_us"] = {at_nominal->summary.p50, "us"};
  result.layers["serve_p99_us"] = {windowed_p99(at_nominal->latency_us), "us"};
  result.layers["serve_max_qps"] = {saturated_qps, "q/s"};
  result.report["serve.p99_samples"] = {
      static_cast<double>(at_nominal->summary.count), "count"};
  if (std::string(at_nominal->summary.tail_label) != "p99") {
    std::fprintf(stderr,
                 "perfbench: serve_p99_us is a %s: only %zu samples\n",
                 at_nominal->summary.tail_label, at_nominal->summary.count);
  }

  // ---- per-layer -------------------------------------------------------
  Metrics& layers = result.layers;
  for (int k = 0; k < kKinds; ++k) {
    layers[std::string("serve.rtt_us.") + kKindName[k]] = {
        median(at_nominal->latency_by_kind[k]), "us"};
  }
  layers["gen.lag_ms"] = {at_nominal->lag_p99_ms, "ms"};
  layers["serve.requests"] = {static_cast<double>(served.requests), "count"};
  layers["serve.batched_addresses"] = {
      static_cast<double>(served.batched_addresses), "count"};
  if (config.trace) {
    // In-process kernel timings on the same batches, same image.
    std::size_t addresses = 0;
    std::vector<std::uint32_t> cells(std::max(kBatch4, kBatch6));
    double start = now_s();
    for (const auto& batch : pool.v4[0]) {
      image4.partition().locate_many(batch, std::span(cells).first(batch.size()));
      addresses += batch.size();
    }
    layers["trie.lookup_ns_per_addr.v4"] = {ns_per(now_s() - start, addresses),
                                            "ns"};
    addresses = 0;
    start = now_s();
    for (const auto& batch : pool.v6) {
      image6.partition().locate_many(batch, std::span(cells).first(batch.size()));
      addresses += batch.size();
    }
    layers["trie.lookup_ns_per_addr.v6"] = {ns_per(now_s() - start, addresses),
                                            "ns"};
    std::vector<std::uint32_t> counts(image4.partition().size(), 0);
    addresses = 0;
    start = now_s();
    for (const auto& batch : pool.v4[1]) {
      std::uint64_t attributed = 0;
      std::uint64_t unattributed = 0;
      image4.partition().tally_cells(std::span<const std::uint32_t>(batch),
                                     counts, attributed, unattributed);
      addresses += batch.size();
    }
    layers["bgp.tally_ns_per_addr"] = {ns_per(now_s() - start, addresses), "ns"};

    // serve/wire codec: encode each v4 request and decode its response.
    std::size_t frames = 0;
    start = now_s();
    for (std::size_t t = 0; t < pool.v4[0].size(); ++t) {
      std::vector<std::uint8_t> payload;
      serve::RequestHeader header;
      header.op = serve::Op::kLocate;
      header.family = net::AddressFamily::kIpv4;
      header.count = static_cast<std::uint32_t>(pool.v4[0][t].size());
      serve::encode_request_header(payload, header);
      for (const std::uint32_t address : pool.v4[0][t]) {
        serve::put_address(payload, address);
      }
      const auto framed = serve::frame(payload);
      std::vector<std::uint8_t> response;
      serve::ResponseHeader reply;
      reply.op = serve::Op::kLocate;
      reply.count = header.count;
      serve::encode_response_header(response, reply);
      const auto& body = pool.expected[kLocate4][t];
      response.insert(response.end(), body.begin(), body.end());
      serve::Cursor cursor(response);
      const auto decoded = serve::decode_response_header(cursor);
      std::uint64_t sink = framed.size();
      for (std::uint32_t i = 0; i < decoded.count; ++i) sink += cursor.u32();
      frames += sink != 0 ? 1 : 0;
    }
    layers["serve.codec_ns"] = {ns_per(now_s() - start, frames), "ns"};
  }
  for (const StepStats& step : steps) {
    char name[64];
    std::snprintf(name, sizeof(name), "serve.ladder.%05.0f.p99_us", step.rate);
    result.report[name] = {step.summary.tail, "us"};
  }
  return result;
}

}  // namespace perfbench
