// The collector over the one store engine, in memory and durable. The
// same seeded lossy report channel (retransmits, duplicate segments,
// segments landing beyond the reorder window) is replayed into a
// Collector over an in-memory FlowEventStore and into one over a
// durable store; after sync() and a reopen, the durable store must hold
// exactly the rows the in-memory one does, and the collector must have
// counted the same traffic both times.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "backend/collector.h"
#include "core/reliable.h"
#include "sim/simulator.h"
#include "store/store.h"

namespace netseer::backend {
namespace {

namespace fs = std::filesystem;

constexpr util::NodeId kBackend = 100;
constexpr util::NodeId kSwitches[] = {1, 2, 3};
constexpr std::uint16_t kBatchesPerSwitch = 1500;

struct Traffic {
  std::uint64_t segments = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t window_drops = 0;
  std::uint64_t events_stored = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t events_submitted = 0;

  auto tie() const {
    return std::tie(segments, duplicates, window_drops, events_stored, retransmits,
                    events_submitted);
  }
};

/// Three switches report over one lossy channel into a collector over
/// `store`. The send window is wider than the collector's reorder
/// window, so a lost segment strands later ones beyond it.
Traffic drive(store::FlowEventStore& store) {
  sim::Simulator sim;
  core::ReportChannel channel(sim, util::Rng(41), util::microseconds(50), /*loss=*/0.2);
  Collector collector(sim, kBackend, channel, store);
  core::ReliableReporterConfig config;
  config.window = Collector::kReorderWindow + 512;
  config.pacing_rate = util::BitRate::gbps(10);
  std::vector<std::unique_ptr<core::ReliableReporter>> reporters;
  for (const util::NodeId sw : kSwitches) {
    auto& reporter = *reporters.emplace_back(
        std::make_unique<core::ReliableReporter>(sim, channel, sw, kBackend, config));
    channel.register_endpoint(sw, [&reporter](util::NodeId, const core::ReportMsg& msg) {
      reporter.on_message(msg);
    });
  }

  Traffic traffic;
  for (std::uint16_t i = 0; i < kBatchesPerSwitch; ++i) {
    for (const util::NodeId sw : kSwitches) {
      core::EventBatch batch;
      batch.switch_id = sw;
      for (std::uint16_t k = 0; k <= i % 3; ++k) {
        auto ev = core::make_event(
            k == 1 ? core::EventType::kCongestion : core::EventType::kDrop,
            packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                            packet::Ipv4Addr::from_octets(10, 0, 1, 2), 6,
                            static_cast<std::uint16_t>(1000 + i % 97), 80},
            sw, static_cast<util::SimTime>(i) * 1000 + k);
        ev.counter = static_cast<std::uint16_t>(1 + (i + k) % 5);
        batch.events.push_back(ev);
      }
      traffic.events_submitted += batch.events.size();
      reporters[sw - 1]->submit(std::move(batch));
    }
  }
  sim.run_until(util::seconds(60));

  for (const auto& reporter : reporters) {
    EXPECT_TRUE(reporter->idle());
    traffic.retransmits += reporter->retransmits();
  }
  traffic.segments = collector.segments_received();
  traffic.duplicates = collector.duplicate_segments();
  traffic.window_drops = collector.window_dropped_segments();
  traffic.events_stored = collector.events_stored();
  return traffic;
}

store::StoreOptions small_options() {
  store::StoreOptions options;
  options.shard_batch = 8;
  options.segment_events = 512;
  return options;
}

TEST(CollectorStore, MemoryAndDurableStoresAgreeAfterReopen) {
  const auto dir = (fs::temp_directory_path() / "netseer_collector_store_test").string();
  fs::remove_all(dir);
  auto durable_options = small_options();
  durable_options.dir = dir;

  store::FlowEventStore memory(small_options());
  const Traffic in_memory = drive(memory);

  Traffic on_disk;
  {
    store::FlowEventStore durable(durable_options);
    on_disk = drive(durable);
    ASSERT_TRUE(durable.sync());
    EXPECT_EQ(durable.durable_lsn(), durable.size());
  }
  store::FlowEventStore reopened(durable_options);

  // The run exercised every path the collector has.
  EXPECT_GT(in_memory.retransmits, 0u);
  EXPECT_GT(in_memory.duplicates, 0u);
  EXPECT_GT(in_memory.window_drops, 0u);
  EXPECT_EQ(in_memory.events_stored, in_memory.events_submitted);  // exactly once
  EXPECT_EQ(in_memory.tie(), on_disk.tie());

  const auto want = memory.all();
  const auto got = reopened.all();
  ASSERT_EQ(want.size(), in_memory.events_submitted);
  ASSERT_EQ(got.size(), want.size());
  // Same calls in the same order give the same LSNs, so the multisets
  // agree row for row, in store order.
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].event, want[i].event) << "row " << i;
    ASSERT_EQ(got[i].stored_at, want[i].stored_at) << "row " << i;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace netseer::backend
