// End-to-end check that the telemetry layer reports what actually
// happened: drive a congested run, then assert the collected
// pdp.mmu.drops counters equal both the switches' own congestion-drop
// counts and the omniscient ground-truth recorder's per-packet log.
#include <gtest/gtest.h>

#include <map>

#include "detect/service.h"
#include "scenarios/harness.h"
#include "sim/simulator.h"
#include "store/store.h"
#include "telemetry/collect.h"
#include "telemetry/metrics.h"
#include "traffic/generator.h"

namespace netseer {
namespace {

class CollectIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    scenarios::HarnessOptions options;
    options.seed = 11;
    options.topo.host_rate = util::BitRate::gbps(5);
    options.topo.fabric_rate = util::BitRate::gbps(20);
    harness_ = std::make_unique<scenarios::Harness>(options);
    auto& tb = harness_->testbed();

    traffic::GeneratorConfig gen;
    gen.sizes = &traffic::web();
    gen.load = 0.4;
    gen.flow_rate = util::BitRate::gbps(1);
    gen.stop = util::milliseconds(8);
    harness_->add_workload(gen);

    // A 16-way incast into one 5G downlink guarantees MMU tail drops.
    std::vector<net::Host*> senders(tb.hosts.begin() + 16, tb.hosts.end());
    traffic::launch_incast(senders, tb.hosts[9]->addr(), 200 * 1000, 1000,
                           util::milliseconds(2));

    harness_->run_and_settle(util::milliseconds(20));
    harness_->collect_metrics(registry_);
  }

  std::unique_ptr<scenarios::Harness> harness_;
  telemetry::Registry registry_;
};

TEST_F(CollectIntegration, MmuDropCountersMatchGroundTruthExactly) {
  // Ground truth logs one TrueEvent per dropped packet, tagged with the
  // node it died at.
  std::map<util::NodeId, std::uint64_t> truth_drops;
  std::uint64_t truth_total = 0;
  for (const auto& ev : harness_->truth().events()) {
    if (ev.type != core::EventType::kDrop ||
        ev.drop_reason != pdp::DropReason::kCongestion) {
      continue;
    }
    ++truth_drops[ev.node];
    ++truth_total;
  }
  ASSERT_GT(truth_total, 0u) << "scenario failed to congest anything";

  EXPECT_EQ(registry_.total("pdp", "mmu.drops"), truth_total);
  for (auto* sw : harness_->testbed().all_switches()) {
    const auto expected =
        truth_drops.count(sw->id()) ? truth_drops.at(sw->id()) : 0;
    // Series exist only for switches, all initialized by collect().
    EXPECT_EQ(registry_.counter("pdp", "mmu.drops", sw->id()).value(), expected)
        << sw->name();
    // And they agree with the switch's own drop-reason counter.
    EXPECT_EQ(sw->drops(pdp::DropReason::kCongestion), expected) << sw->name();
  }
}

TEST_F(CollectIntegration, PerQueueDropsSumToMmuDrops) {
  for (auto* sw : harness_->testbed().all_switches()) {
    std::uint64_t queue_total = 0;
    for (util::QueueId q = 0; q < util::kNumQueues; ++q) {
      queue_total += sw->queue_counters(q).drops;
    }
    EXPECT_EQ(queue_total, sw->drops(pdp::DropReason::kCongestion)) << sw->name();
  }
}

TEST_F(CollectIntegration, CoreAndBackendSeriesArePopulated) {
  // Traffic flowed, so the pipeline stages and the reporting funnel saw it.
  EXPECT_GT(registry_.total("pdp", "stage.parsed"), 0u);
  EXPECT_GT(registry_.total("core", "group_cache.offered"), 0u);
  EXPECT_GT(registry_.total("core", "ring_buffer.pushes"), 0u);
  EXPECT_GT(registry_.total("core", "reliable.submitted"), 0u);
  EXPECT_GT(registry_.total("backend", "events_ingested"), 0u);
  EXPECT_GT(registry_.total("sim", "events_processed"), 0u);
  // The backend ingested exactly what the store holds.
  EXPECT_EQ(registry_.total("backend", "events_ingested"), harness_->store().size());
}

TEST_F(CollectIntegration, CollectIsAdditiveAcrossRuns) {
  // Folding the same harness in again doubles every counter: multiple
  // runs can share one registry (the --metrics-out accumulation model).
  const auto before = registry_.total("pdp", "mmu.drops");
  ASSERT_GT(before, 0u);
  harness_->collect_metrics(registry_);
  EXPECT_EQ(registry_.total("pdp", "mmu.drops"), 2 * before);
  // Gauges max-merge instead: the high-water mark is unchanged.
  for (const auto& [key, gauge] : registry_.gauges()) {
    EXPECT_EQ(gauge.value(), gauge.peak()) << key.subsystem << "." << key.name;
  }
}

TEST(CollectSimParity, EngineGaugesMatchTheEngineCountersExactly) {
  // The sim.* snapshot must be arithmetic on the engine's own counters,
  // not an independent estimate: events_per_sec is events_processed over
  // the measured wall time, alloc_per_event_ppm is heap spills per
  // million schedules. Integer truncation and all.
  sim::Simulator sim;
  for (int i = 0; i < 1000; ++i) {
    (void)sim.schedule_at(i * 7, [] {});
  }
  sim.run();
  ASSERT_EQ(sim.events_processed(), 1000u);

  telemetry::Registry registry;
  const double wall_seconds = 0.125;
  telemetry::collect(registry, sim, wall_seconds);

  EXPECT_EQ(registry.total("sim", "events_processed"), sim.events_processed());
  EXPECT_EQ(registry.gauge("sim", "virtual_time_ns").value(), sim.now());
  EXPECT_EQ(registry.gauge("sim", "events_per_sec").value(),
            static_cast<std::int64_t>(static_cast<double>(sim.events_processed()) /
                                      wall_seconds));
  EXPECT_EQ(registry.gauge("sim", "alloc_per_event_ppm").value(),
            static_cast<std::int64_t>(sim.task_heap_allocs() * 1'000'000 /
                                      sim.tasks_scheduled()));
}

TEST(CollectDetectParity, KeyVisitsMatchTheEngines) {
  // detect.keys_visited is the window engines' advance() work summed
  // over rules: a key is touched when the watermark passes its open
  // window, and not at all on pumps that cross no window boundary.
  store::FlowEventStore fs{store::StoreOptions{}};
  detect::DetectService service(fs);
  const auto add_drops = [&](util::SimTime at, std::uint16_t first_port, std::uint16_t flows) {
    for (std::uint16_t k = 0; k < flows; ++k) {
      packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                           packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6,
                           static_cast<std::uint16_t>(first_port + k), 80};
      fs.add(core::make_event(core::EventType::kDrop, flow, 4, at), at);
    }
    fs.flush();
    (void)fs.sync();
    service.pump();
  };
  add_drops(util::microseconds(100), 1000, 20);   // first advance sweeps the 20 new keys
  add_drops(util::microseconds(900), 1000, 20);   // same window: nothing due
  add_drops(util::microseconds(1500), 1000, 20);  // offers roll every key themselves
  add_drops(util::milliseconds(3), 5000, 1);      // passes window 1: the 20 keys are due

  std::uint64_t visited = 0;
  for (const auto& engine : service.engines()) visited += engine.stats().keys_visited;
  telemetry::Registry registry;
  telemetry::collect(registry, service);
  EXPECT_EQ(registry.total("detect", "keys_visited"), visited);
  EXPECT_EQ(visited, 20u + 20u);
}

TEST(CollectStoreParity, IndexHitCountersMatchTheStore) {
  // query.memtable_index_hits counts memtable plans read through a
  // posting; query.time_index_hits counts segments read through the
  // detection-time order.
  store::StoreOptions options;
  options.shard_batch = 4;
  options.segment_events = 64;
  store::FlowEventStore fs{options};
  for (std::uint16_t i = 0; i < 200; ++i) {
    packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                         packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6,
                         static_cast<std::uint16_t>(1000 + i % 16), 80};
    const auto at = static_cast<util::SimTime>(i) * 10;
    fs.add(core::make_event(core::EventType::kDrop, flow, i % 4u, at), at);
  }
  fs.flush();  // three sealed segments of 64 rows, 8 rows in the memtable
  const auto flow = fs.all().back().event.flow;
  EXPECT_FALSE(fs.query(backend::EventQuery{}.for_flow(flow)).empty());
  EXPECT_FALSE(fs.query(backend::EventQuery{}.for_switch(1)).empty());
  EXPECT_FALSE(fs.query(backend::EventQuery{}.between(100, 200)).empty());

  telemetry::Registry registry;
  telemetry::collect(registry, fs);
  EXPECT_EQ(registry.total("store", "query.memtable_index_hits"), 2u);
  EXPECT_EQ(registry.total("store", "query.time_index_hits"), 1u);
  EXPECT_EQ(registry.total("store", "query.memtable_index_hits"), fs.stats().memtable_index_hits);
  EXPECT_EQ(registry.total("store", "query.time_index_hits"), fs.stats().time_index_hits);
}

}  // namespace
}  // namespace netseer
