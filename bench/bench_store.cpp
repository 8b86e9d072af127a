// Flow-event store microbench: ingest throughput (in-memory, legacy
// inline-durability, and group-commit durable), the query engine's
// index/pruning behaviour over a sealed store, and the query mix over a
// live store (sealed segments plus an unsealed memtable).
//
//   bench_store --events 2000000 --reps 3
//   bench_store --events 2000000 --baseline bench/BENCH_store.json
//
// With --baseline the run exits 1 if the best in-memory ingest rate or
// the best group-commit durable rate lands more than
// --max-regression-pct below its checked-in value — the CI perf-smoke
// gate, same contract as bench_engine. The query phase asserts that
// time-windowed queries actually prune segments (the whole point of the
// per-segment time fences); zero pruning fails the run. The live-tail
// phase reports rows examined per match for each query kind and fails
// when a flow or switch query examines more rows than its postings
// hold. All gated numbers also land in the --metrics-out snapshot,
// which is what CI parses.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/event.h"
#include "experiment.h"
#include "store/store.h"
#include "table.h"
#include "telemetry/collect.h"

using namespace netseer;
using namespace netseer::bench;

namespace {

// Deterministic event mix: 64 switches, 4096 flows, monotonically
// increasing detected_at so segments get disjoint time fences (the
// realistic shape — events arrive roughly in detection order).
struct EventGen {
  std::uint64_t state = 7;
  std::uint64_t rnd() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
  core::FlowEvent next(std::uint64_t i) {
    const auto r = rnd();
    packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, (r >> 8) & 15, (r >> 4) & 255, 1),
                         packet::Ipv4Addr::from_octets(10, 128, (r >> 12) & 255, 2), 6,
                         static_cast<std::uint16_t>(1024 + (r & 4095)), 80};
    auto ev = core::make_event(
        r % 5 == 0 ? core::EventType::kCongestion : core::EventType::kDrop, flow,
        static_cast<util::NodeId>(r % 64), static_cast<util::SimTime>(i * 100));
    ev.counter = static_cast<std::uint16_t>(1 + (r % 50));
    return ev;
  }
};

double read_json_number(const std::string& text, const std::string& key) {
  const auto pos = text.find("\"" + key + "\"");
  if (pos == std::string::npos) return -1.0;
  const auto colon = text.find(':', pos);
  if (colon == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

double ingest_run(store::FlowEventStore& fs, std::uint64_t events) {
  EventGen gen;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < events; ++i) {
    const auto ev = gen.next(i);
    fs.add(ev, ev.detected_at + 50);
  }
  fs.flush();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The 2000-query time-window workload of the query phase: narrow
/// windows (span/256) over the sealed store, every second one
/// type-filtered.
std::size_t query_sweep(const store::FlowEventStore& fs, util::SimTime span, double* wall_out) {
  EventGen qgen;
  constexpr int kQueries = 2000;
  const auto start = std::chrono::steady_clock::now();
  std::size_t total_matches = 0;
  for (int q = 0; q < kQueries; ++q) {
    backend::EventQuery query;
    const auto r = qgen.rnd();
    const auto from = static_cast<util::SimTime>(r % static_cast<std::uint64_t>(span));
    query.since(from).until(from + span / 256);
    if (q % 2 == 0) query.of_type(core::EventType::kCongestion);
    total_matches += fs.count(query);
  }
  *wall_out = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return total_matches;
}

/// One query kind's totals in the live-tail phase.
struct KindTally {
  std::vector<double> latency_us;
  std::uint64_t examined = 0;
  std::uint64_t matched = 0;
  std::uint64_t posting_overruns = 0;  // queries that examined more than their posting

  [[nodiscard]] double examined_per_match() const {
    return matched == 0 ? 0.0 : static_cast<double>(examined) / static_cast<double>(matched);
  }
  /// Median latency: the first queries of a kind also build the lazy
  /// indexes they read, which a mean would spread over the rest.
  [[nodiscard]] double p50_us() const {
    if (latency_us.empty()) return 0.0;
    std::vector<double> sorted = latency_us;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2];
  }
};

struct LiveTail {
  std::size_t segments = 0;
  std::size_t memtable_rows = 0;
  KindTally flow, switch_window, type_window;
};

/// Phase 5: the query mix over a live store — sealed segments whose
/// rows arrive out of detection-time order (every fourth switch reports
/// 3 ms late) plus an unsealed memtable of about 2 000 rows, the shape
/// a backend tailing its collectors queries. Kinds: by flow, by switch
/// in a 50 us window, by type in a 50 us window. A flow or switch query
/// may examine at most the rows its postings hold (plus nothing from
/// the memtable beyond its own posting).
LiveTail live_tail_phase() {
  constexpr std::uint64_t kSealed = 8 * 4096;
  constexpr std::uint64_t kRows = kSealed + 2000;
  constexpr int kQueriesPerKind = 600;
  constexpr util::SimTime kWindow = 50'000;
  EventGen gen;
  std::vector<core::FlowEvent> events;
  events.reserve(kRows);
  for (std::uint64_t i = 0; i < kRows; ++i) {
    auto ev = gen.next(i);
    if (ev.switch_id % 4 == 0) ev.detected_at -= 3'000'000;
    events.push_back(ev);
  }
  std::unordered_map<std::uint64_t, std::uint64_t> flow_rows;
  std::unordered_map<util::NodeId, std::uint64_t> switch_rows;
  for (const auto& ev : events) {
    ++flow_rows[ev.flow.hash64()];
    ++switch_rows[ev.switch_id];
  }

  store::FlowEventStore fs;
  for (std::uint64_t off = 0; off < kRows; off += 256) {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(256, kRows - off));
    fs.add_batch(std::span<const core::FlowEvent>{events.data() + off, n},
                 static_cast<util::SimTime>(off + n) * 100);
  }
  fs.flush();
  LiveTail out;
  out.segments = fs.segment_count();
  std::size_t sealed = 0;
  for (const auto& segment : fs.segments()) sealed += segment->size();
  out.memtable_rows = fs.size() - sealed;

  EventGen qgen;
  const auto span = static_cast<std::uint64_t>(kRows * 100);
  static constexpr core::EventType kTypes[] = {core::EventType::kDrop,
                                               core::EventType::kCongestion};
  for (int q = 0; q < kQueriesPerKind; ++q) {
    for (int kind = 0; kind < 3; ++kind) {
      const auto& sample = events[qgen.rnd() % kRows];
      const auto from = static_cast<util::SimTime>(qgen.rnd() % span) - 3'000'000;
      backend::EventQuery query;
      KindTally* tally = nullptr;
      std::uint64_t posting = 0;
      if (kind == 0) {
        query.for_flow(sample.flow);
        tally = &out.flow;
        posting = flow_rows[sample.flow.hash64()];
      } else if (kind == 1) {
        query.for_switch(sample.switch_id).between(from, from + kWindow);
        tally = &out.switch_window;
        posting = switch_rows[sample.switch_id];
      } else {
        query.of_type(kTypes[q % 2]).between(from, from + kWindow);
        tally = &out.type_window;
      }
      const auto before = fs.stats();
      const auto start = std::chrono::steady_clock::now();
      const std::size_t matched = fs.count(query);
      tally->latency_us.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() * 1e6);
      const auto examined = fs.stats().rows_examined - before.rows_examined;
      tally->examined += examined;
      tally->matched += matched;
      if (kind < 2 && examined > posting) ++tally->posting_overruns;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t events = 2'000'000;
  int reps = 3;
  std::uint64_t gc_shard_batch = 2048;
  std::uint64_t gc_chunk = 2048;
  std::string baseline_path;
  double max_regression_pct = 20.0;
  ExperimentOptions cli{"Store microbench — ingest events/sec and query pruning"};
  cli.flag("events", &events, "events per ingest rep")
      .flag("reps", &reps, "take the best rate over this many reps")
      .flag("gc-shard-batch", &gc_shard_batch, "shard batch for the group-commit phase")
      .flag("gc-chunk", &gc_chunk, "add_batch chunk size for the group-commit phase")
      .flag("baseline", &baseline_path, "BENCH_store.json to gate regressions against")
      .flag("max-regression-pct", &max_regression_pct, "allowed ingest drop vs baseline")
      .parse(argc, argv);
  if (events < 1) events = 1;
  if (reps < 1) reps = 1;
  if (gc_chunk < 1) gc_chunk = 1;

  print_title("Flow-event store microbench");

  // Phase 1: in-memory ingest (shard buffers -> memtable -> seal ->
  // compaction, no WAL), per-event add(). One of the two gated numbers.
  double best_mem = -1.0;
  for (int rep = 0; rep < reps; ++rep) {
    store::FlowEventStore fs;
    const double wall = ingest_run(fs, events);
    const double eps = static_cast<double>(events) / wall;
    std::printf("  mem ingest rep %d: %.3fs (%.2fM events/s, %zu segments)\n", rep, wall,
                eps / 1e6, fs.segment_count());
    if (eps > best_mem) best_mem = eps;
  }

  // Phase 2: legacy durable ingest — per-event add() through the WAL,
  // event generation inside the clock. Kept for continuity with the
  // pre-group-commit baseline history; not gated.
  const auto dir = std::filesystem::temp_directory_path() / "netseer_bench_store";
  double best_dur = -1.0;
  std::uint64_t wal_bytes = 0;
  for (int rep = 0; rep < reps; ++rep) {
    std::filesystem::remove_all(dir);
    store::StoreOptions options;
    options.dir = dir.string();
    store::FlowEventStore fs(options);
    const double wall = ingest_run(fs, events);
    const double eps = static_cast<double>(events) / wall;
    wal_bytes = fs.stats().wal_bytes;
    std::printf("  wal ingest rep %d: %.3fs (%.2fM events/s, %.1f MB WAL)\n", rep, wall,
                eps / 1e6, static_cast<double>(wal_bytes) / 1e6);
    if (eps > best_dur) best_dur = eps;
  }

  // Phase 3: group-commit durable ingest — the batch-first API fed
  // pre-generated events (the clock sees the store, not the generator),
  // acknowledged ONLY by the durable watermark: no inline fsync, one
  // blocking sync() at the end, and the run fails unless every event is
  // inside the watermark afterwards. The other gated number.
  std::vector<core::FlowEvent> pregen;
  pregen.reserve(events);
  {
    EventGen gen;
    for (std::uint64_t i = 0; i < events; ++i) pregen.push_back(gen.next(i));
  }
  double best_gc = -1.0;
  std::uint64_t gc_groups = 0, gc_max_group = 0, gc_queue_waits = 0;
  for (int rep = 0; rep < reps; ++rep) {
    std::filesystem::remove_all(dir);
    store::StoreOptions options;
    options.dir = dir.string();
    options.shard_batch = gc_shard_batch;
    options.writer_queue = 128;
    options.wal_segment_bytes = 16ull << 20u;
    store::FlowEventStore fs(options);
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t off = 0; off < events; off += gc_chunk) {
      const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(gc_chunk, events - off));
      fs.add_batch(std::span<const core::FlowEvent>{pregen.data() + off, n},
                   pregen[off].detected_at + 50);
    }
    const bool synced = fs.sync();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (!synced || fs.durable_watermark() < events) {
      std::fprintf(stderr, "FAIL: group-commit sync did not cover the run (watermark %llu)\n",
                   static_cast<unsigned long long>(fs.durable_watermark()));
      return 1;
    }
    const double eps = static_cast<double>(events) / wall;
    const auto& s = fs.stats();
    std::printf(
        "  gc  ingest rep %d: %.3fs (%.2fM events/s, %llu fsync groups, max %llu batches)\n",
        rep, wall, eps / 1e6, static_cast<unsigned long long>(s.groups_committed),
        static_cast<unsigned long long>(s.max_group_batches));
    if (eps > best_gc) {
      best_gc = eps;
      gc_groups = s.groups_committed;
      gc_max_group = s.max_group_batches;
      gc_queue_waits = s.writer_queue_waits;
    }
  }
  std::filesystem::remove_all(dir);

  // Phase 4: query engine over a sealed in-memory store. Narrow time
  // windows must prune most segments via the min/max fences.
  store::FlowEventStore fs;
  (void)ingest_run(fs, events);
  fs.seal_active();
  const util::SimTime span = static_cast<util::SimTime>(events) * 100;
  double qwall = 0;
  const std::size_t matches = query_sweep(fs, span, &qwall);
  const auto& stats = fs.stats();
  std::printf("\n  queries           2000 time-windowed (%.0f/s), %zu matches\n",
              2000 / qwall, matches);
  std::printf("  segments          %zu; scanned %llu, pruned %llu (%.1f%% pruned)\n",
              fs.segment_count(), static_cast<unsigned long long>(stats.segments_scanned),
              static_cast<unsigned long long>(stats.segments_pruned),
              100.0 * static_cast<double>(stats.segments_pruned) /
                  static_cast<double>(stats.segments_scanned + stats.segments_pruned));
  if (stats.segments_pruned == 0) {
    std::fprintf(stderr, "FAIL: time-windowed queries pruned zero segments\n");
    return 1;
  }

  // Phase 5: the query mix over sealed segments plus a live memtable.
  const LiveTail live = live_tail_phase();
  std::printf("\n  live tail         %zu segments + %zu memtable rows\n", live.segments,
              live.memtable_rows);
  const std::pair<const char*, const KindTally*> kinds[] = {
      {"flow", &live.flow}, {"switch+window", &live.switch_window},
      {"type+window", &live.type_window}};
  for (const auto& [name, tally] : kinds) {
    std::printf("    %-14s %4zu queries, %7.2f us p50, %7.2f rows examined per match\n", name,
                tally->latency_us.size(), tally->p50_us(), tally->examined_per_match());
  }
  if (live.flow.posting_overruns + live.switch_window.posting_overruns > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu flow and %llu switch queries examined more rows than their "
                 "postings hold\n",
                 static_cast<unsigned long long>(live.flow.posting_overruns),
                 static_cast<unsigned long long>(live.switch_window.posting_overruns));
    return 1;
  }

  std::printf("\n  ingest mem        %.2fM events/s\n", best_mem / 1e6);
  std::printf("  ingest wal        %.2fM events/s (inline add, generator on the clock)\n",
              best_dur / 1e6);
  std::printf("  ingest gc         %.2fM events/s (group commit, watermark acks, "
              "%llu groups, %llu queue waits)\n",
              best_gc / 1e6, static_cast<unsigned long long>(gc_groups),
              static_cast<unsigned long long>(gc_queue_waits));

  if (cli.metrics_enabled()) {
    telemetry::collect(cli.registry(), fs);
    auto& reg = cli.registry();
    reg.gauge("bench_store", "ingest_mem_eps").update_max(static_cast<std::int64_t>(best_mem));
    reg.gauge("bench_store", "ingest_wal_eps").update_max(static_cast<std::int64_t>(best_dur));
    reg.gauge("bench_store", "ingest_gc_eps").update_max(static_cast<std::int64_t>(best_gc));
    reg.gauge("bench_store", "gc_fsync_groups")
        .update_max(static_cast<std::int64_t>(gc_groups));
    reg.gauge("bench_store", "gc_max_group_batches")
        .update_max(static_cast<std::int64_t>(gc_max_group));
    reg.gauge("bench_store", "query_serial_per_sec")
        .update_max(static_cast<std::int64_t>(2000 / qwall));
    reg.gauge("bench_store", "live_memtable_rows")
        .update_max(static_cast<std::int64_t>(live.memtable_rows));
    reg.gauge("bench_store", "live_flow_examined_per_match_milli")
        .update_max(static_cast<std::int64_t>(live.flow.examined_per_match() * 1000));
    reg.gauge("bench_store", "live_switch_examined_per_match_milli")
        .update_max(static_cast<std::int64_t>(live.switch_window.examined_per_match() * 1000));
    reg.gauge("bench_store", "live_type_examined_per_match_milli")
        .update_max(static_cast<std::int64_t>(live.type_window.examined_per_match() * 1000));
    reg.gauge("bench_store", "live_flow_query_p50_ns")
        .update_max(static_cast<std::int64_t>(live.flow.p50_us() * 1000));
    reg.gauge("bench_store", "live_switch_query_p50_ns")
        .update_max(static_cast<std::int64_t>(live.switch_window.p50_us() * 1000));
    reg.gauge("bench_store", "live_type_query_p50_ns")
        .update_max(static_cast<std::int64_t>(live.type_window.p50_us() * 1000));
  }

  if (!baseline_path.empty()) {
    FILE* f = std::fopen(baseline_path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    std::string text;
    char buffer[4096];
    for (std::size_t n; (n = std::fread(buffer, 1, sizeof(buffer), f)) > 0;) {
      text.append(buffer, n);
    }
    std::fclose(f);
    const double baseline_eps = read_json_number(text, "baseline_ingest_events_per_sec");
    if (baseline_eps <= 0) {
      std::fprintf(stderr, "no \"baseline_ingest_events_per_sec\" in %s\n",
                   baseline_path.c_str());
      return 1;
    }
    const double floor = baseline_eps * (1.0 - max_regression_pct / 100.0);
    std::printf("\n  baseline mem      %.0f events/s, floor %.0f (-%g%%)\n", baseline_eps,
                floor, max_regression_pct);
    if (best_mem < floor) {
      std::fprintf(stderr, "FAIL: ingest %.0f events/s below floor %.0f\n", best_mem, floor);
      return 1;
    }
    const double baseline_gc = read_json_number(text, "baseline_durable_events_per_sec");
    if (baseline_gc <= 0) {
      std::fprintf(stderr, "no \"baseline_durable_events_per_sec\" in %s\n",
                   baseline_path.c_str());
      return 1;
    }
    const double gc_floor = baseline_gc * (1.0 - max_regression_pct / 100.0);
    std::printf("  baseline gc       %.0f events/s, floor %.0f (-%g%%)\n", baseline_gc,
                gc_floor, max_regression_pct);
    if (best_gc < gc_floor) {
      std::fprintf(stderr, "FAIL: group-commit ingest %.0f events/s below floor %.0f\n",
                   best_gc, gc_floor);
      return 1;
    }
    std::printf("  gate              PASS\n");
  }
  return cli.write_metrics();
}
