// backend-restart-tail: store and detect with no simulator.
//
// Each round, an untimed prologue writes a durable store — three
// quarters of it checkpointed into segments, the rest only in the WAL —
// and closes it. The timed part reopens (recovers) the directory, builds
// a DetectService over it, then ingests generated flow events chunk by
// chunk: add_batch, sync, pump, and six queries of each kind, all on
// this thread beside the store's group-commit writer thread.
//
// The events, one per µs of detection time: 256 switches; three events
// in four are congestion samples at the next switch in turn (a constant
// per-device rate, so the device-wide rules stay quiet); the fourth is a
// drop at a uniformly chosen switch for a flow from a Zipf(0.9) law over
// 65536 flows. One drop in 4 µs keeps at most about 4 000 (switch, flow)
// detection keys inside the 16-window idle horizon. Each switch's reports
// reach the collector after a fixed per-switch delay, so the per-switch
// streams interleave out of detection-time order; three switches lag by
// 3 ms. Three fixed drop bursts on those lagging switches must each
// raise a drop-burst alert. The bursts, delays and lagging switches do
// not depend on the seed; the background does.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>

#include "common.h"
#include "detect/service.h"
#include "reference.h"
#include "store/store.h"

namespace e2e {

namespace {

using namespace netseer;

constexpr std::uint32_t kSwitches = 256;
constexpr std::uint32_t kFlows = 65536;
constexpr double kZipf = 0.9;
constexpr util::SimDuration kSpacing = 1000;  // ns of detection time between events
constexpr std::size_t kPrologue = 8 * 1024;
constexpr std::size_t kDropEvery = 4;  // one background event in 4 is a drop
// A chunk spans 256 µs of arrivals, so no pump sees more than 11 of a
// burst's 40 rows: the known detect fault shows on every round.
constexpr std::size_t kChunk = 256;
constexpr std::size_t kChunks = 64;
constexpr std::size_t kTotal = kPrologue + kChunk * kChunks;
constexpr std::uint32_t kQueriesPerKind = 6;  // per chunk
constexpr std::uint32_t kLagging[] = {17, 101, 211};
constexpr util::SimDuration kLaggingDelay = util::milliseconds(3);
constexpr double kDropBurstThreshold = 20;  // RuleSet::defaults() drop-burst

util::SimDuration report_delay(std::uint32_t sw) {
  for (const auto lagging : kLagging) {
    if (sw == lagging) return kLaggingDelay;
  }
  return util::microseconds(50 + 40 * static_cast<std::int64_t>(sw % 4));
}

packet::FlowKey flow_key(std::uint32_t f) {
  const auto g = f * 7919u;
  return packet::FlowKey{
      packet::Ipv4Addr::from_octets(10, static_cast<std::uint8_t>(f >> 8u),
                                    static_cast<std::uint8_t>(f), 1),
      packet::Ipv4Addr::from_octets(10, 128, static_cast<std::uint8_t>(g >> 8u),
                                    static_cast<std::uint8_t>(g)),
      6, static_cast<std::uint16_t>(1024 + f % 50000), 80};
}

/// The injected bursts: fixed switches, flows and detection windows in
/// the ingest part of the stream.
std::vector<Burst> bursts() {
  std::vector<Burst> out;
  for (std::size_t b = 0; b < std::size(kLagging); ++b) {
    Burst burst;
    burst.switch_id = kLagging[b];
    burst.flow = packet::FlowKey{packet::Ipv4Addr::from_octets(10, 200, static_cast<std::uint8_t>(b), 1),
                                 packet::Ipv4Addr::from_octets(10, 201, static_cast<std::uint8_t>(b), 2),
                                 6, 7777, 80};
    burst.start = util::milliseconds(10 + 5 * static_cast<std::int64_t>(b));
    burst.events = 40;
    burst.packets = 1;
    out.push_back(burst);
  }
  return out;
}

struct Delivered {
  util::SimTime at = 0;  // when the collector receives it
  core::FlowEvent event;
};

/// Zipf(kZipf) over kFlows, as a cumulative table.
const std::vector<double>& zipf_cdf() {
  static const std::vector<double> cdf = [] {
    std::vector<double> c(kFlows);
    double sum = 0.0;
    for (std::uint32_t i = 0; i < kFlows; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipf);
      c[i] = sum;
    }
    for (auto& v : c) v /= sum;
    return c;
  }();
  return cdf;
}

/// kTotal events in collector arrival order.
std::vector<Delivered> generate(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto& cdf = zipf_cdf();
  std::vector<Delivered> out;
  out.reserve(kTotal);
  const auto injected = bursts();
  std::size_t burst_events = 0;
  for (const auto& burst : injected) {
    for (std::uint32_t i = 0; i < burst.events; ++i) {
      auto ev = core::make_event(core::EventType::kDrop, burst.flow, burst.switch_id,
                                 burst.start + util::microseconds(24) * i);
      ev.counter = burst.packets;
      out.push_back(Delivered{ev.detected_at + report_delay(burst.switch_id), ev});
      ++burst_events;
    }
  }
  std::uint32_t congestion = 0;
  for (std::size_t i = 0; out.size() < kTotal; ++i) {
    const util::SimTime t = static_cast<util::SimTime>(i) * kSpacing;
    core::FlowEvent ev;
    if (i % kDropEvery != 0) {
      const auto sw = congestion++ % kSwitches;
      ev = core::make_event(core::EventType::kCongestion, flow_key(sw), sw, t);
      ev.queue_latency_us = 30;
    } else {
      const auto sw = static_cast<std::uint32_t>(rng() % kSwitches);
      const auto f = static_cast<std::uint32_t>(
          std::lower_bound(cdf.begin(), cdf.end(), unit(rng)) - cdf.begin());
      ev = core::make_event(core::EventType::kDrop, flow_key(std::min(f, kFlows - 1)), sw, t);
      ev.counter = static_cast<std::uint16_t>(1 + (rng() & 1u));
    }
    out.push_back(Delivered{t + report_delay(ev.switch_id), ev});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Delivered& a, const Delivered& b) { return a.at < b.at; });
  return out;
}

void ingest(store::FlowEventStore& store, const std::vector<Delivered>& stream,
            std::size_t begin, std::size_t end) {
  std::vector<core::FlowEvent> batch;
  for (std::size_t i = begin; i < end; i += kChunk) {
    const std::size_t stop = std::min(end, i + kChunk);
    batch.clear();
    for (std::size_t j = i; j < stop; ++j) batch.push_back(stream[j].event);
    store.add_batch(batch, stream[stop - 1].at);
  }
}

std::set<AlertId> alert_ids(const detect::DetectService& service) {
  std::set<AlertId> ids;
  for (const auto& alert : service.alerts().alerts()) {
    ids.emplace(alert.rule->name, alert.key.switch_id, alert.sample.flow.hash64());
  }
  return ids;
}

struct Round {
  double setup_s = 0.0;
  double ingest_s = 0.0;  // add_batch + sync + pump + queries, all chunks
  std::vector<double> chunk_s;  // the same per chunk, but the first
  double wall_s = 0.0;
  std::vector<double> lag_us;  // per chunk: durable (sync returned) until detected (pump returned)
  std::vector<double> query_us;
  std::uint64_t wal_bytes = 0;
  std::uint64_t fsync_groups = 0;
  std::uint64_t rows_examined = 0;
  std::uint64_t rows_matched = 0;
  std::uint64_t segments_pruned = 0;
  std::uint64_t segments_planned = 0;
  std::uint64_t segments = 0;
  std::uint64_t detect_rows = 0;
  std::uint64_t windows_closed = 0;
  std::uint64_t late_rows = 0;
  bool durable_matches_replay = true;
};

Round backend_round(std::uint64_t seed, const std::string& dir, Tracer* tracer, Outcome& out) {
  const auto round_start = Clock::now();
  Round r;
  const auto stream = generate(seed);
  std::filesystem::remove_all(dir);
  store::StoreOptions options;
  options.dir = dir;

  // Untimed prologue: segments for the first three quarters, WAL only
  // for the rest.
  {
    store::FlowEventStore prologue(options);
    ingest(prologue, stream, 0, kPrologue * 3 / 4);
    {
      Tracer::Scope span(tracer, "store.checkpoint");
      prologue.checkpoint();
    }
    ingest(prologue, stream, kPrologue * 3 / 4, kPrologue);
    out.check(prologue.sync(), "prologue sync failed");
  }

  const auto setup_start = Clock::now();
  std::unique_ptr<store::FlowEventStore> store;
  {
    Tracer::Scope span(tracer, "store.recover");
    store = std::make_unique<store::FlowEventStore>(options);
  }
  std::unique_ptr<detect::DetectService> service;
  {
    Tracer::Scope span(tracer, "detect.construct");
    service = std::make_unique<detect::DetectService>(*store);
  }
  r.setup_s = seconds_since(setup_start);
  ++out.attempted;  // the recovery

  std::vector<core::FlowEvent> mine;  // the benchmark's own copy of what the store holds
  mine.reserve(kTotal);
  for (std::size_t i = 0; i < kPrologue; ++i) mine.push_back(stream[i].event);
  const auto& rec = store->recovery();
  out.check(rec.segment_rows > 0 && rec.wal_rows_replayed > 0,
            "recovery did not read rows from both segments (" + std::to_string(rec.segment_rows) +
                ") and WAL (" + std::to_string(rec.wal_rows_replayed) + ")");
  out.check(same_events(mine, [&] {
              std::vector<core::FlowEvent> v;
              for (const auto& row : store->all()) v.push_back(row.event);
              return v;
            }()),
            "recovered rows differ from the prologue's events");

  std::mt19937_64 rng(seed ^ 0x51ed2701u);
  const auto before = store->stats();
  std::vector<core::FlowEvent> batch;
  std::uint64_t turn = 0;
  std::vector<IssuedQuery> issued;
  for (std::size_t c = 0; c < kChunks; ++c) {
    const std::size_t begin = kPrologue + c * kChunk;
    const std::size_t end = begin + kChunk;
    batch.clear();
    for (std::size_t i = begin; i < end; ++i) batch.push_back(stream[i].event);
    const auto chunk_start = Clock::now();
    {
      Tracer::Scope span(tracer, "store.add_batch");
      store->add_batch(batch, stream[end - 1].at);
    }
    const auto sync_start = Clock::now();
    {
      Tracer::Scope span(tracer, "store.sync");
      out.check(store->sync(), "sync failed");
    }
    const auto durable_at = Clock::now();
    {
      Tracer::Scope span(tracer, "detect.pump");
      (void)service->pump();
    }
    // The first pump drains the recovered prologue, not a chunk.
    if (c > 0) r.lag_us.push_back(seconds_since(durable_at) * 1e6);
    const double chunk_s = seconds_since(chunk_start);
    r.ingest_s += chunk_s;
    ++out.attempted;  // the chunk
    mine.insert(mine.end(), batch.begin(), batch.end());
    const std::size_t before_queries = r.query_us.size();
    out.attempted += run_query_mix(*store, mine, mine.size(), rng, kQueriesPerKind,
                                   util::microseconds(500), stream[end - 1].at, turn, r.query_us,
                                   issued, tracer);
    double queries_s = 0.0;
    for (std::size_t q = before_queries; q < r.query_us.size(); ++q) {
      queries_s += r.query_us[q] / 1e6;
    }
    r.ingest_s += queries_s;
    const double sync_s = std::chrono::duration<double>(durable_at - sync_start).count();
    if (c > 0) r.chunk_s.push_back(chunk_s - sync_s + queries_s);
    check_queries(mine, issued, out);
    issued.clear();
  }
  const auto& after = store->stats();
  r.wal_bytes = after.wal_bytes - before.wal_bytes;
  r.fsync_groups = after.groups_committed - before.groups_committed;
  r.rows_examined = after.rows_examined - before.rows_examined;
  r.rows_matched = after.rows_matched - before.rows_matched;
  r.segments_pruned = after.segments_pruned - before.segments_pruned;
  r.segments_planned = r.segments_pruned + after.segments_scanned - before.segments_scanned;
  r.segments = store->segment_count();

  out.check(store->durable_lsn() >= kTotal,
            "durable LSN " + std::to_string(store->durable_lsn()) + " short of " +
                std::to_string(kTotal) + " events");
  std::vector<core::FlowEvent> held;
  for (const auto& row : store->all()) held.push_back(row.event);
  out.check(held.size() == kTotal && same_events(mine, held),
            "store holds " + std::to_string(held.size()) + " rows, not the " +
                std::to_string(kTotal) + " events ingested");
  out.check(r.segments_pruned > 0, "queries pruned no segment");
  service->finish();
  for (const auto& engine : service->engines()) {
    r.windows_closed += engine.stats().windows_closed;
    r.late_rows += engine.stats().late_rows;
  }
  r.detect_rows = service->stats().rows;
  out.check(r.windows_closed > 0, "detection closed no window");
  const auto durable_alerts = alert_ids(*service);
  service.reset();
  store.reset();
  std::filesystem::remove_all(dir);

  // In-memory replay of the same events, drained in one pump: an alert
  // for each injected burst and none outside them.
  std::set<AlertId> replay_alerts;
  {
    store::FlowEventStore memory;
    ingest(memory, stream, 0, kTotal);
    memory.flush();
    detect::DetectService replay(memory);
    (void)replay.pump();
    replay.finish();
    replay_alerts = alert_ids(replay);
  }
  ++out.attempted;  // the replay detect pass
  out.check(replay_alerts == expected_alerts(bursts(), kDropBurstThreshold),
            "in-memory replay raised " + std::to_string(replay_alerts.size()) +
                " alerts, not one per injected burst");

  // The durable pass, pumped chunk by chunk, must raise the same alerts.
  // It does not yet: DetectService closes every window against one
  // global watermark, so the lagging switches' rows arrive after their
  // windows closed and are dropped as late.
  ++out.attempted;  // the durable detect pass
  r.durable_matches_replay = durable_alerts == replay_alerts;
  if (!r.durable_matches_replay) ++out.failed;
  r.wall_s = seconds_since(round_start);
  return r;
}

}  // namespace

Outcome run_backend(const RunOptions& options, Tracer& tracer) {
  const std::string dir = options.work_dir + "/store";
  Outcome out;
  const auto start = Clock::now();
  std::vector<double> setup_s, rate, chunk_s, lag, query, query_p99;
  std::vector<Round> traced;
  std::vector<double> overhead_s;
  std::uint64_t mismatches = 0;
  double rss_mb = 0.0;
  for (std::uint64_t round = 0;; ++round) {
    const std::uint64_t seed = round_seed(options.seed, round);
    const Round r = backend_round(seed, dir, nullptr, out);
    ++out.rounds;
    mismatches += !r.durable_matches_replay;
    setup_s.push_back(r.setup_s);
    rate.push_back(static_cast<double>(kChunk * kChunks) / r.ingest_s);
    chunk_s.insert(chunk_s.end(), r.chunk_s.begin(), r.chunk_s.end());
    lag.insert(lag.end(), r.lag_us.begin(), r.lag_us.end());
    query.insert(query.end(), r.query_us.begin(), r.query_us.end());
    query_p99.push_back(percentile(r.query_us, 0.99));
    if (out.rounds == kRssRounds) rss_mb = peak_rss_mb();
    if (options.trace) {
      traced.push_back(backend_round(seed, dir, &tracer, out));
      overhead_s.push_back(traced.back().wall_s - r.wall_s);
    }
    if (!out.correct) break;
    if (round >= 2 && seconds_since(start) >= options.seconds) break;
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "known fault: the durable detect pass missed alerts the in-memory replay "
                 "raised in %llu of %llu rounds (one global watermark, "
                 "src/detect/service.h)\n",
                 static_cast<unsigned long long>(mismatches),
                 static_cast<unsigned long long>(out.rounds));
  }

  // The ingest rate at the median chunk: add_batch, pump and the
  // chunk's queries, without the sync wait. The wait is the shared
  // disk's fsync latency (1.5 ms to 20 ms a chunk, shifting for minutes
  // at a time); store.sync_s reports it per layer.
  const double eps = static_cast<double>(kChunk) / median(chunk_s);
  out.add("setup_s", "s", median(setup_s));
  out.add("throughput_per_s", "1/s", eps);
  out.add("lag_p50_us", "us", percentile(lag, 0.5));
  out.add("query_p50_us", "us", percentile(query, 0.5));
  out.add("peak_rss_mb", "MB", rss_mb);
  out.summary.push_back("backend_eps " + std::to_string(eps) + " events/s at the median of " +
                        std::to_string(chunk_s.size()) + " chunks; " +
                        std::to_string(median(rate)) +
                        " events/s over the median round's ingest loop, sync waits included");
  out.summary.push_back("detect_lag_p50_us " + std::to_string(percentile(lag, 0.5)) +
                        " us (sync return to pump return), p99 " +
                        std::to_string(percentile(lag, 0.99)) + " us, over " +
                        std::to_string(lag.size()) + " chunks");
  out.summary.push_back("queries " + std::to_string(query.size()) + ", p99 " +
                        std::to_string(median(query_p99)) + " us (median of round p99s)");
  if (traced.empty()) return out;

  const auto n = static_cast<double>(traced.size());
  const auto self = tracer.self_seconds();
  const auto per_round = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second / n;
  };
  const auto mean = [&](std::uint64_t Round::*field) {
    double sum = 0.0;
    for (const auto& t : traced) sum += static_cast<double>(t.*field);
    return sum / n;
  };
  auto& L = out.layers;
  L["backend.segments"] = mean(&Round::segments);
  L["store.add_batch_s"] = per_round("store.add_batch");
  L["store.sync_s"] = per_round("store.sync");
  L["store.checkpoint_s"] = per_round("store.checkpoint");
  L["store.recover_s"] = per_round("store.recover");
  L["store.query_s"] = per_round("store.query");
  L["store.wal_bytes_per_event"] = mean(&Round::wal_bytes) / static_cast<double>(kChunk * kChunks);
  L["store.fsync_groups"] = mean(&Round::fsync_groups);
  L["store.rows_examined_per_match"] =
      ratio(mean(&Round::rows_examined), mean(&Round::rows_matched));
  L["store.prune_ratio"] = ratio(mean(&Round::segments_pruned), mean(&Round::segments_planned));
  L["detect.construct_s"] = per_round("detect.construct");
  L["detect.pump_s"] = per_round("detect.pump");
  L["detect.rows"] = mean(&Round::detect_rows);
  L["detect.windows_closed"] = mean(&Round::windows_closed);
  L["detect.late_rows"] = mean(&Round::late_rows);
  // Tails, from the untraced rounds: wall-time p99s on a shared host
  // follow its stalls too far to hold an end-to-end bound.
  L["detect.pump_p99_us"] = percentile(lag, 0.99);
  L["store.query_p99_us"] = median(query_p99);
  L["trace.overhead_s"] = median(overhead_s);
  return out;
}

}  // namespace e2e
