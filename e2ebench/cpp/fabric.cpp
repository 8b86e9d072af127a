// The two fabric workloads: the whole simulate -> detect -> report ->
// store (-> detect) pipeline through scenarios::Harness.
//
// fabric-web-lossy: fat8 (80 switches, 128 hosts), WEB flow sizes at
// 60 % load, silent loss plus corruption on a tor0-0 uplink from a
// third of the way in, durable store with maintenance, DetectService
// pumping inline. Per-packet work dominates; the report path carries a
// few tens of thousands of rows.
//
// fabric-incast-churn: fat4, CACHE flow sizes at 90 % load plus an
// incast every 500 us (8 senders x 200 kB) into a rotating receiver,
// in-memory store.
// Congestion, MMU drops and group-cache hits replace clean forwarding.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>

#include "common.h"
#include "detect/service.h"
#include "reference.h"
#include "scenarios/harness.h"
#include "telemetry/metrics.h"
#include "traffic/distributions.h"

namespace e2e {

namespace {

using namespace netseer;

struct FabricSpec {
  bool lossy = true;  // fabric-web-lossy; false = fabric-incast-churn
  int k = 8;
  const traffic::EmpiricalCdf* sizes = nullptr;
  double load = 0.6;
  util::SimDuration duration = util::milliseconds(5);
};

// Silent loss strong enough that the shipped drop-burst rule (20
// packets per flow and 1 ms window) fires; netseer_sim's 0.5 % does not.
constexpr double kLinkDropProb = 0.2;
constexpr double kLinkCorruptProb = 0.02;
// Drain window after traffic stops, as netseer_sim uses.
constexpr util::SimDuration kSettle = util::milliseconds(15);
constexpr util::SimDuration kIncastPeriod = util::microseconds(500);
constexpr std::uint64_t kIncastBytes = 200 * 1000;
constexpr std::size_t kIncastSenders = 8;
// Enough queries per round for ten beyond its p99.
constexpr std::uint32_t kQueriesPerKind = 400;
constexpr std::uint32_t kQueriesPerGroup = 10;
constexpr std::uint16_t kVictimPort = 30000;
constexpr std::uint64_t kVictimBytes = 600 * 1000;

/// One round's measurements.
struct Round {
  double setup_s = 0.0;
  double run_s = 0.0;  // run_until through drain, flushes, sync and checkpoint
  double wall_s = 0.0;  // the whole round including its checks
  double sim_s = 0.0;   // run_until, drain runs and NetSeer flushes
  std::uint64_t pipeline_packets = 0;
  std::vector<double> lag_us;
  std::vector<double> query_us;
  // Counters for the per-layer view.
  std::uint64_t sim_events = 0;
  std::uint64_t task_heap_allocs = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t mmu_drops = 0;
  std::uint64_t event_packets = 0;
  std::uint64_t dedup_reports = 0;
  std::uint64_t fp_eliminated = 0;
  std::uint64_t segments = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t rows_examined = 0;
  std::uint64_t rows_matched = 0;
  std::uint64_t segments_pruned = 0;
  std::uint64_t segments_planned = 0;
  std::uint64_t detect_rows = 0;
  std::uint64_t windows_closed = 0;
  std::uint64_t late_rows = 0;
};

scenarios::HarnessOptions harness_options(const FabricSpec& spec, std::uint64_t seed,
                                          const std::string& dir, bool netseer) {
  scenarios::HarnessOptions options;
  options.seed = seed;
  options.enable_netseer = netseer;
  options.store.dir = dir;
  options.topo.host_rate = util::BitRate::gbps(5);
  options.topo.fabric_rate = util::BitRate::gbps(20);
  options.topo.num_pods = spec.k;
  options.topo.aggs_per_pod = spec.k / 2;
  options.topo.tors_per_pod = spec.k / 2;
  options.topo.num_cores = (spec.k / 2) * (spec.k / 2);
  options.topo.hosts_per_tor = spec.k / 2;
  return options;
}

/// Incast bursts every kIncastPeriod through the traffic phase, each
/// into the next receiver, from senders drawn with `rng`.
void schedule_incasts(scenarios::Harness& harness, const FabricSpec& spec,
                      std::mt19937_64& rng) {
  auto& hosts = harness.testbed().hosts;
  std::uint16_t port = 20000;
  std::size_t receiver = 0;
  for (util::SimTime at = util::milliseconds(1); at < spec.duration; at += kIncastPeriod) {
    receiver = (receiver + 5) % hosts.size();
    std::vector<net::Host*> senders;
    while (senders.size() < kIncastSenders) {
      net::Host* h = hosts[rng() % hosts.size()];
      if (h != hosts[receiver] && std::find(senders.begin(), senders.end(), h) == senders.end()) {
        senders.push_back(h);
      }
    }
    traffic::launch_incast(std::move(senders), hosts[receiver]->addr(), kIncastBytes, 1000, at,
                           port);
    port = static_cast<std::uint16_t>(port + 16);
  }
}

/// One fabric run. With `netseer` off it only simulates (the paired
/// run that isolates NetSeer's in-loop cost); checks need NetSeer on.
Round fabric_round(const FabricSpec& spec, std::uint64_t seed, const std::string& dir,
                   bool netseer, Tracer* tracer, Outcome& out) {
  const auto round_start = Clock::now();
  Round r;
  std::mt19937_64 rng(seed);
  const bool durable = !dir.empty();
  if (durable) std::filesystem::remove_all(dir);

  const auto setup_start = Clock::now();
  std::unique_ptr<scenarios::Harness> harness;
  {
    Tracer::Scope span(tracer, "scenarios.build");
    harness = std::make_unique<scenarios::Harness>(harness_options(spec, seed, dir, netseer));
    traffic::GeneratorConfig gen;
    gen.sizes = spec.sizes;
    gen.load = spec.load;
    gen.flow_rate = util::BitRate::gbps(1);
    gen.stop = spec.duration;
    harness->add_workload(gen);
  }
  auto& sim = harness->simulator();
  auto& tb = harness->testbed();
  auto& store = harness->store();
  const util::SimTime onset = spec.duration / 3;
  std::set<util::NodeId> faulted;
  if (spec.lossy) {
    // A victim transfer from a tor0-0 host to the last pod, started at
    // the onset: the faulted uplink is the one its ECMP hash picks, so
    // the fault always has a flow to hit.
    net::Host* src = tb.hosts.front();
    net::Host* dst = tb.hosts.back();
    const packet::FlowKey victim{src->addr(), dst->addr(),
                                 static_cast<std::uint8_t>(packet::IpProto::kTcp), kVictimPort, 80};
    pdp::Switch& tor = *tb.tors[0];
    const auto uplink = tor.routes().lookup(dst->addr())->select(victim, tor.config().ecmp_seed);
    net::Link* bad = tor.link(uplink);
    faulted = {tor.id(), bad->peer().id()};
    (void)sim.schedule_at(onset, [bad] {
      net::LinkFaultModel faults;
      faults.drop_prob = kLinkDropProb;
      faults.corrupt_prob = kLinkCorruptProb;
      bad->set_fault_model(faults);
    });
    // Cleared before traffic stops, so later packets on the link still
    // expose every loss.
    (void)sim.schedule_at(spec.duration * 9 / 10, [bad] { bad->set_fault_model({}); });
    traffic::launch_incast({src}, dst->addr(), kVictimBytes, 1000, onset, kVictimPort);
  } else {
    schedule_incasts(*harness, spec, rng);
  }
  std::unique_ptr<detect::DetectService> detector;
  if (durable && netseer) detector = std::make_unique<detect::DetectService>(store);
  r.setup_s = seconds_since(setup_start);

  // The public steps of Harness::run_and_settle, one at a time, plus
  // the durable store's sync and checkpoint.
  const auto run_start = Clock::now();
  sim::TaskHandle maintenance;
  sim::TaskHandle pumping;
  if (durable) maintenance = store.start_maintenance(sim, util::milliseconds(1));
  if (detector) pumping = detector->start(sim, util::milliseconds(1));
  const auto sim_start = Clock::now();

  {
    Tracer::Scope span(tracer, "sim.traffic");
    sim.run_until(spec.duration + kSettle);
  }
  maintenance.cancel();
  pumping.cancel();
  for (int pass = 0; pass < 3; ++pass) {
    if (pass > 0) {
      Tracer::Scope span(tracer, "core.flush");
      for (std::size_t i = 0; i < harness->app_count(); ++i) harness->app(i).flush();
    }
    Tracer::Scope span(tracer, "sim.drain");
    sim.run();
  }
  r.sim_s = seconds_since(sim_start);

  {
    Tracer::Scope span(tracer, "store.flush");
    store.flush();
  }
  if (durable) {
    Tracer::Scope span(tracer, "store.sync");
    out.check(store.sync(), "store sync failed");
  }
  if (detector) {
    Tracer::Scope span(tracer, "detect.pump");
    (void)detector->pump();
    detector->finish();
  }
  if (durable) {
    Tracer::Scope span(tracer, "store.checkpoint");
    store.checkpoint();
  }
  r.run_s = seconds_since(run_start);

  const auto funnel = harness->total_funnel();
  r.pipeline_packets = funnel.traffic_packets;
  r.sim_events = sim.events_processed();
  r.task_heap_allocs = sim.task_heap_allocs();
  for (const auto& g : harness->generators()) r.flows_started += g->flows_started();
  for (const auto* sw : tb.all_switches()) r.mmu_drops += sw->drops(pdp::DropReason::kCongestion);
  if (!netseer) {
    r.wall_s = seconds_since(round_start);
    return r;
  }
  ++out.attempted;  // the fabric run itself

  r.event_packets = funnel.event_packets;
  r.dedup_reports = funnel.dedup_reports;
  for (std::size_t i = 0; i < harness->app_count(); ++i) {
    r.fp_eliminated += harness->app(i).cpu().fp().eliminated();
  }
  r.segments = store.segment_count();
  telemetry::Registry registry;
  harness->collect_metrics(registry);
  r.duplicates = registry.counter("backend", "duplicate_segments", scenarios::kCollectorId).value();
  const std::uint64_t collected =
      registry.counter("backend", "events_ingested", scenarios::kCollectorId).value();

  // Rows are conserved along the report path.
  const auto rows = store.all();
  out.check(funnel.cpu_forwarded_events == collected && collected == rows.size(),
            "report path lost rows: switch CPUs forwarded " +
                std::to_string(funnel.cpu_forwarded_events) + ", collector stored " +
                std::to_string(collected) + ", store holds " + std::to_string(rows.size()));

  // Ground truth: every true drop group is stored, every stored drop or
  // congestion group is true.
  const auto& truth = harness->truth().events();
  const auto true_drops = truth_groups(truth, {core::EventType::kDrop});
  const auto fn = missing(true_drops, stored_groups(rows, {core::EventType::kDrop}));
  out.check(fn.empty(), std::to_string(fn.size()) + " of " + std::to_string(true_drops.size()) +
                            " ground-truth drop groups are not in the store");
  const std::vector<core::EventType> judged = {core::EventType::kDrop,
                                               core::EventType::kCongestion};
  const auto fp = missing(stored_groups(rows, judged), truth_groups(truth, judged));
  out.check(fp.empty(),
            std::to_string(fp.size()) + " stored drop/congestion groups are not in ground truth");

  std::vector<core::FlowEvent> events;
  events.reserve(rows.size());
  std::uint64_t stored_drops = 0;
  std::uint64_t stored_congestion = 0;
  for (const auto& row : rows) {
    events.push_back(row.event);
    r.lag_us.push_back(util::to_microseconds(row.stored_at - row.event.detected_at));
    stored_drops += row.event.type == core::EventType::kDrop;
    stored_congestion += row.event.type == core::EventType::kCongestion;
    if (spec.lossy && row.event.type == core::EventType::kDrop) {
      out.check(faulted.contains(row.event.switch_id),
                "drop event at switch " + std::to_string(row.event.switch_id) +
                    ", off the faulted link");
    }
  }

  if (spec.lossy) {
    std::uint64_t link_faults = 0;
    for (const auto& ev : truth) {
      link_faults += ev.drop_reason == pdp::DropReason::kLinkLoss ||
                     ev.drop_reason == pdp::DropReason::kCorruption;
    }
    out.check(link_faults > 0 && stored_drops > 0, "no drops seen on the faulted link");
    // The inline pass pumps while rows still arrive; a row behind the
    // one global watermark is dropped as late, so whether it raises the
    // alert varies from round to round. The settled pass drains the
    // synced store in one pump and is what the alerts are checked on.
    // Both may name only the faulted link's switches.
    detect::DetectService settled(store);
    (void)settled.pump();
    settled.finish();
    ++out.attempted;  // the detect pass
    const auto& alerts = settled.alerts().alerts();
    out.check(!alerts.empty(), "the faulted link raised no alert");
    for (const auto& alert : alerts) {
      // raised_at is the start of the first firing window.
      out.check(alert.raised_at + settled.rules().window > onset,
                "alert raised before the fault onset");
    }
    for (const auto* service : {&settled, detector.get()}) {
      for (const auto& alert : service->alerts().alerts()) {
        out.check(faulted.contains(alert.key.switch_id),
                  std::string("alert ") + alert.rule->name + " at switch " +
                      std::to_string(alert.key.switch_id) + ", off the faulted link");
      }
    }
    for (const auto& engine : detector->engines()) {
      r.windows_closed += engine.stats().windows_closed;
      r.late_rows += engine.stats().late_rows;
    }
    r.detect_rows = detector->stats().rows;
  } else {
    out.check(r.mmu_drops > 0 && stored_congestion > 0,
              "incast churn saw no MMU drops or no congestion events");
  }

  const auto before = store.stats();
  std::uint64_t turn = 0;
  // In groups of kQueriesPerGroup per kind, each group checked after it
  // ran, so the brute-force filter stays out of the timed queries.
  std::vector<IssuedQuery> issued;
  for (std::uint32_t group = 0; group < kQueriesPerKind / kQueriesPerGroup; ++group) {
    out.attempted += run_query_mix(store, events, events.size(), rng, kQueriesPerGroup,
                                   util::milliseconds(1), spec.duration, turn, r.query_us, issued,
                                   tracer);
    check_queries(events, issued, out);
    issued.clear();
  }
  const auto& after = store.stats();
  r.rows_examined = after.rows_examined - before.rows_examined;
  r.rows_matched = after.rows_matched - before.rows_matched;
  r.segments_pruned = after.segments_pruned - before.segments_pruned;
  r.segments_planned = r.segments_pruned + after.segments_scanned - before.segments_scanned;

  detector.reset();
  harness.reset();
  if (durable) {
    {
      // The checkpointed directory reopens to the same rows.
      store::StoreOptions reopen;
      reopen.dir = dir;
      const store::FlowEventStore recovered(reopen);
      out.check(recovered.size() == rows.size(),
                "reopened store holds " + std::to_string(recovered.size()) + " rows, not " +
                    std::to_string(rows.size()));
    }
    std::filesystem::remove_all(dir);
  }
  r.wall_s = seconds_since(round_start);
  return r;
}

FabricSpec spec_for(const std::string& workload) {
  FabricSpec spec;
  if (workload == "fabric-web-lossy") {
    spec.lossy = true;
    spec.k = 8;
    spec.sizes = &traffic::web();
    spec.load = 0.6;
    spec.duration = util::milliseconds(5);
  } else {
    spec.lossy = false;
    spec.k = 4;
    spec.sizes = &traffic::cache();
    spec.load = 0.9;
    spec.duration = util::milliseconds(10);
  }
  return spec;
}

}  // namespace

Outcome run_fabric(const RunOptions& options, Tracer& tracer) {
  const FabricSpec spec = spec_for(options.workload);
  const std::string dir = spec.lossy ? options.work_dir + "/store" : std::string();
  Outcome out;
  const auto start = Clock::now();
  std::vector<double> setup_s, rate, lag, query, query_p99;
  std::vector<Round> traced;
  std::vector<double> overhead_s, agent_ns;
  double rss_mb = 0.0;
  for (std::uint64_t round = 0;; ++round) {
    const std::uint64_t seed = round_seed(options.seed, round);
    const Round r = fabric_round(spec, seed, dir, true, nullptr, out);
    ++out.rounds;
    setup_s.push_back(r.setup_s);
    rate.push_back(static_cast<double>(r.pipeline_packets) / r.run_s);
    lag.insert(lag.end(), r.lag_us.begin(), r.lag_us.end());
    query.insert(query.end(), r.query_us.begin(), r.query_us.end());
    query_p99.push_back(percentile(r.query_us, 0.99));
    if (out.rounds == kRssRounds) rss_mb = peak_rss_mb();
    if (options.trace) {
      // The same inputs traced, then untraced without NetSeer: NetSeer's
      // in-loop cost is the difference in simulation wall time per
      // pipeline packet. The oracle and the baseline network stay on in
      // both, so pdp, net and monitors are what remains.
      traced.push_back(fabric_round(spec, seed, dir, true, &tracer, out));
      const Round off = fabric_round(spec, seed, dir, false, nullptr, out);
      overhead_s.push_back(traced.back().wall_s - r.wall_s);
      agent_ns.push_back(ratio((traced.back().sim_s - off.sim_s) * 1e9,
                               static_cast<double>(traced.back().pipeline_packets)));
    }
    if (!out.correct) break;
    if (round >= 2 && seconds_since(start) >= options.seconds) break;
  }

  out.add("setup_s", "s", median(setup_s));
  out.add("throughput_per_s", "1/s", median(rate));
  out.add("lag_p50_us", "us", percentile(lag, 0.5));
  out.add("query_p50_us", "us", percentile(query, 0.5));
  out.add("peak_rss_mb", "MB", rss_mb);
  out.summary.push_back("sim_pkts_per_s " + std::to_string(median(rate)) + " packets/s");
  out.summary.push_back("report_lag_p50_us " + std::to_string(percentile(lag, 0.5)) +
                        " us (simulated), report_lag_p99_us " +
                        std::to_string(percentile(lag, 0.99)) + " us, over " +
                        std::to_string(lag.size()) + " rows");
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
  L["scenarios.build_s"] = per_round("scenarios.build");
  L["sim.events"] = mean(&Round::sim_events);
  L["sim.traffic_s"] = per_round("sim.traffic");
  L["sim.drain_s"] = per_round("sim.drain");
  L["sim.ns_per_event"] = ratio((L["sim.traffic_s"] + L["sim.drain_s"]) * 1e9, L["sim.events"]);
  L["sim.task_heap_allocs"] = mean(&Round::task_heap_allocs);
  L["traffic.flows_started"] = mean(&Round::flows_started);
  L["pdp.packets"] = mean(&Round::pipeline_packets);
  L["pdp.mmu_drops"] = mean(&Round::mmu_drops);
  L["core.agent_ns_per_pkt"] = median(agent_ns);
  L["core.flush_s"] = per_round("core.flush");
  L["core.dedup_ratio"] = ratio(mean(&Round::dedup_reports), mean(&Round::event_packets));
  L["core.fp_eliminated"] = mean(&Round::fp_eliminated);
  L["pdp_net_monitors.s"] = L["sim.traffic_s"] + L["sim.drain_s"] -
                            L["core.agent_ns_per_pkt"] * L["pdp.packets"] / 1e9;
  L["backend.segments"] = mean(&Round::segments);
  L["backend.duplicates"] = mean(&Round::duplicates);
  L["store.flush_s"] = per_round("store.flush");
  L["store.sync_s"] = per_round("store.sync");
  L["store.checkpoint_s"] = per_round("store.checkpoint");
  L["store.query_s"] = per_round("store.query");
  L["store.rows_examined_per_match"] =
      ratio(mean(&Round::rows_examined), mean(&Round::rows_matched));
  L["store.prune_ratio"] = ratio(mean(&Round::segments_pruned), mean(&Round::segments_planned));
  L["detect.pump_s"] = per_round("detect.pump");
  L["detect.rows"] = mean(&Round::detect_rows);
  L["detect.windows_closed"] = mean(&Round::windows_closed);
  L["detect.late_rows"] = mean(&Round::late_rows);
  // Tails, from the untraced rounds. The report lag is simulated; the
  // query p99 is the median of the rounds' p99s, each over
  // 3 * kQueriesPerKind queries, since wall-time tails on a shared host
  // follow its stalls too far to hold an end-to-end bound.
  L["core.report_lag_p99_us"] = percentile(lag, 0.99);
  L["store.query_p99_us"] = median(query_p99);
  L["trace.overhead_s"] = median(overhead_s);
  return out;
}

}  // namespace e2e
