#include "store/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/event.h"
#include "sim/simulator.h"

namespace netseer::store {
namespace {

namespace fs = std::filesystem;

core::FlowEvent event_at(std::uint64_t i, util::NodeId node = 1,
                         core::EventType type = core::EventType::kDrop) {
  auto ev = core::make_event(type,
                             packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                                             packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6,
                                             static_cast<std::uint16_t>(1024 + i % 512), 80},
                             node, static_cast<util::SimTime>(i * 10));
  return ev;
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Suffix with the case name: ctest runs each case as its own process,
    // possibly in parallel with siblings.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() / (std::string("netseer_store_test.") + info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(StoreTest, QueryAnswersAcrossShardsMemtableAndSegments) {
  StoreOptions options;
  options.shard_batch = 4;
  options.segment_events = 16;
  FlowEventStore store(options);
  // 100 events spread over 5 switches: some sealed, some in the
  // memtable, some still sitting in shard buffers.
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto ev = event_at(i, static_cast<util::NodeId>(i % 5));
    store.add(ev, ev.detected_at + 1);
  }
  EXPECT_EQ(store.size(), 100u);
  EXPECT_GT(store.segment_count(), 0u);

  backend::EventQuery by_switch;
  by_switch.switch_id = 2;
  EXPECT_EQ(store.count(by_switch), 20u);

  backend::EventQuery window;
  window.from = 100;
  window.to = 300;  // detected_at 100..290 -> i in [10, 30)
  EXPECT_EQ(store.count(window), 20u);

  // all() returns rows in LSN order — shard batching interleaves
  // detection times — but every ingested event appears exactly once.
  auto all = store.all();
  ASSERT_EQ(all.size(), 100u);
  std::vector<util::SimTime> times;
  times.reserve(all.size());
  for (const auto& stored : all) times.push_back(stored.event.detected_at);
  std::sort(times.begin(), times.end());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(times[i], static_cast<util::SimTime>(i * 10));
  }
}

TEST_F(StoreTest, SealAndCompactPreserveQueryResults) {
  StoreOptions options;
  options.segment_events = 8;
  options.compact_min_segments = 2;
  options.compact_fanin = 4;
  FlowEventStore store(options);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto ev = event_at(i, static_cast<util::NodeId>(i % 3),
                             i % 4 == 0 ? core::EventType::kCongestion
                                        : core::EventType::kDrop);
    store.add(ev, ev.detected_at);
  }
  store.flush();
  store.seal_active();

  backend::EventQuery congestion;
  congestion.type = core::EventType::kCongestion;
  const auto before = store.query(congestion);
  const auto segments_before = store.segment_count();

  EXPECT_GT(store.compact(), 0u);
  EXPECT_LT(store.segment_count(), segments_before);
  EXPECT_GT(store.stats().compactions, 0u);

  const auto after = store.query(congestion);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].event, before[i].event);
  }
  EXPECT_EQ(store.size(), 200u);
}

TEST_F(StoreTest, RetentionEvictsOldestSegmentsAndCounts) {
  StoreOptions options;
  options.shard_batch = 10;  // seal per batch: ten 10-row segments
  options.segment_events = 10;
  options.retain_events = 30;
  FlowEventStore store(options);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto ev = event_at(i);
    store.add(ev, ev.detected_at);
  }
  store.flush();
  store.seal_active();
  EXPECT_GT(store.enforce_retention(), 0u);
  EXPECT_GT(store.stats().segments_evicted, 0u);
  EXPECT_GT(store.stats().events_evicted, 0u);
  // Only recent rows survive; the oldest event is gone.
  backend::EventQuery oldest;
  oldest.to = 10;  // the first event only (detected_at 0)
  EXPECT_EQ(store.count(oldest), 0u);
  const auto all = store.all();
  ASSERT_FALSE(all.empty());
  EXPECT_LE(all.size(), 30u + options.segment_events);
  // Survivors are the newest suffix.
  EXPECT_EQ(all.back().event.detected_at, 990);
}

TEST_F(StoreTest, MaintenanceRunsOnSimulatorClock) {
  StoreOptions options;
  options.shard_batch = 8;
  options.segment_events = 8;
  options.compact_min_segments = 2;
  FlowEventStore store(options);
  sim::Simulator sim;
  auto handle = store.start_maintenance(sim, util::microseconds(10));
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto ev = event_at(i);
    store.add(ev, ev.detected_at);
  }
  store.flush();
  const auto segments_before = store.segment_count();
  sim.run_until(util::microseconds(50));
  handle.cancel();
  sim.run();
  EXPECT_GT(store.stats().compactions, 0u);
  EXPECT_LT(store.segment_count(), segments_before);
}

TEST_F(StoreTest, CheckpointReopenRoundTrip) {
  backend::EventQuery congestion;
  congestion.type = core::EventType::kCongestion;
  std::vector<backend::StoredEvent> expected;
  {
    StoreOptions options;
    options.dir = dir_;
    options.segment_events = 32;
    FlowEventStore store(options);
    for (std::uint64_t i = 0; i < 500; ++i) {
      const auto ev = event_at(i, static_cast<util::NodeId>(i % 7),
                               i % 3 == 0 ? core::EventType::kCongestion
                                          : core::EventType::kPause);
      store.add(ev, ev.detected_at + 2);
    }
    store.checkpoint();
    expected = store.query(congestion);
    EXPECT_EQ(store.size(), 500u);
    // Checkpoint sealed everything into durable segments and reclaimed
    // the WAL files they made obsolete.
    EXPECT_GT(store.stats().wal_files_deleted, 0u);
  }
  {
    StoreOptions options;
    options.dir = dir_;
    FlowEventStore store(options);
    EXPECT_TRUE(store.recovery().ran);
    EXPECT_FALSE(store.recovery().torn_tail);
    EXPECT_EQ(store.size(), 500u);
    EXPECT_EQ(store.recovery().segment_rows, 500u);
    EXPECT_EQ(store.recovery().wal_rows_replayed, 0u);
    const auto got = store.query(congestion);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].event, expected[i].event);
      EXPECT_EQ(got[i].stored_at, expected[i].stored_at);
    }
  }
}

TEST_F(StoreTest, ReopenWithoutCheckpointReplaysWal) {
  {
    StoreOptions options;
    options.dir = dir_;
    options.segment_events = 1u << 20u;  // nothing seals: rows live in the WAL
    FlowEventStore store(options);
    for (std::uint64_t i = 0; i < 50; ++i) {
      const auto ev = event_at(i);
      store.add(ev, ev.detected_at);
    }
    store.flush();
    ASSERT_TRUE(store.sync());
    EXPECT_EQ(store.durable_lsn(), 50u);
    // No checkpoint: destructor closes the WAL, segments were never
    // written, so reopen must recover everything from the log.
  }
  {
    StoreOptions options;
    options.dir = dir_;
    FlowEventStore store(options);
    EXPECT_EQ(store.recovery().wal_rows_replayed, 50u);
    EXPECT_EQ(store.recovery().segments_loaded, 0u);
    EXPECT_EQ(store.size(), 50u);
  }
}

TEST_F(StoreTest, RecoveryDropsSegmentsSupersededByCompactionOutput) {
  // Simulate a crash between compact()'s rename and its input deletes:
  // the merged output and both of its inputs are all on disk.
  fs::create_directories(dir_);
  std::vector<Row> first, second, merged;
  for (std::uint64_t lsn = 1; lsn <= 8; ++lsn) {
    const Row r{backend::StoredEvent{event_at(lsn), static_cast<util::SimTime>(lsn * 10 + 1)},
                lsn};
    (lsn <= 4 ? first : second).push_back(r);
    merged.push_back(r);
  }
  ASSERT_TRUE(Segment::build(first).save(segment_path(dir_, 1)));
  ASSERT_TRUE(Segment::build(second).save(segment_path(dir_, 2)));
  ASSERT_TRUE(Segment::build(merged).save(segment_path(dir_, 3)));

  StoreOptions options;
  options.dir = dir_;
  FlowEventStore store(options);
  EXPECT_EQ(store.recovery().segments_superseded, 2u);
  EXPECT_EQ(store.recovery().segments_loaded, 1u);
  EXPECT_EQ(store.recovery().segment_rows, 8u);

  // No duplicated rows, and the stale input files are gone from disk.
  const auto rows = store.all();
  ASSERT_EQ(rows.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rows[i].event, merged[i].stored.event) << "row " << i;
  }
  const auto files = list_segment_files(dir_);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].index, 3u);
}

TEST_F(StoreTest, RecoveryKeepsNewerOfIdenticalRangeSegments) {
  // A compaction whose output covers exactly the same LSN range as a
  // single surviving input (fanin collapsed by earlier eviction): the
  // newer file id is the output and wins; exactly one copy survives.
  fs::create_directories(dir_);
  std::vector<Row> rows;
  for (std::uint64_t lsn = 1; lsn <= 4; ++lsn) {
    rows.push_back(
        Row{backend::StoredEvent{event_at(lsn), static_cast<util::SimTime>(lsn * 10 + 1)}, lsn});
  }
  ASSERT_TRUE(Segment::build(rows).save(segment_path(dir_, 1)));
  ASSERT_TRUE(Segment::build(rows).save(segment_path(dir_, 2)));

  StoreOptions options;
  options.dir = dir_;
  FlowEventStore store(options);
  EXPECT_EQ(store.recovery().segments_superseded, 1u);
  EXPECT_EQ(store.size(), 4u);
  const auto files = list_segment_files(dir_);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].index, 2u);
}

TEST_F(StoreTest, CursorStreamsInOrderAndCountsPruning) {
  StoreOptions options;
  options.shard_batch = 16;
  options.segment_events = 16;
  FlowEventStore store(options);
  for (std::uint64_t i = 0; i < 160; ++i) {
    const auto ev = event_at(i);
    store.add(ev, ev.detected_at);
  }
  store.flush();
  store.seal_active();
  ASSERT_GE(store.segment_count(), 10u);

  backend::EventQuery window;
  window.from = 200;
  window.to = 400;  // covers ~2 of 10 segments
  const auto pruned_before = store.stats().segments_pruned;
  auto cursor = store.scan(window);
  std::size_t n = 0;
  util::SimTime last = -1;
  for (const auto* stored = cursor.next(); stored != nullptr; stored = cursor.next()) {
    EXPECT_GE(stored->event.detected_at, 200);
    EXPECT_LT(stored->event.detected_at, 400);
    EXPECT_GT(stored->event.detected_at, last);
    last = stored->event.detected_at;
    ++n;
  }
  EXPECT_EQ(n, 20u);
  EXPECT_GT(store.stats().segments_pruned, pruned_before);
}

TEST_F(StoreTest, TypeCountPrunesSegmentsWithoutThatType) {
  StoreOptions options;
  options.shard_batch = 8;
  options.segment_events = 8;
  FlowEventStore store(options);
  // First 80 events are drops, last 8 are pauses: only the last segment
  // can contain pauses, the rest prune on the per-type count.
  for (std::uint64_t i = 0; i < 88; ++i) {
    const auto ev =
        event_at(i, 1, i < 80 ? core::EventType::kDrop : core::EventType::kPause);
    store.add(ev, ev.detected_at);
  }
  store.flush();
  store.seal_active();
  const auto pruned_before = store.stats().segments_pruned;
  backend::EventQuery pauses;
  pauses.type = core::EventType::kPause;
  EXPECT_EQ(store.count(pauses), 8u);
  EXPECT_GE(store.stats().segments_pruned - pruned_before, 9u);
}

TEST_F(StoreTest, ParseQueryAcceptsFullSpecAndRejectsGarbage) {
  std::string error;
  const auto query =
      parse_query("type=congestion,switch=7,from=100,to=2000", &error);
  ASSERT_TRUE(query.has_value()) << error;
  EXPECT_EQ(query->type, core::EventType::kCongestion);
  EXPECT_EQ(query->switch_id, 7u);
  EXPECT_EQ(query->from, 100);
  EXPECT_EQ(query->to, 2000);

  const auto flow = parse_query("flow=10.0.0.1:1234>10.0.0.2:80/6", &error);
  ASSERT_TRUE(flow.has_value()) << error;
  ASSERT_TRUE(flow->flow.has_value());
  EXPECT_EQ(flow->flow->sport, 1234);
  EXPECT_EQ(flow->flow->dport, 80);
  EXPECT_EQ(flow->flow->proto, 6);

  EXPECT_FALSE(parse_query("type=banana", &error).has_value());
  EXPECT_FALSE(parse_query("nonsense", &error).has_value());
  EXPECT_FALSE(parse_query("from=abc", &error).has_value());
}

TEST_F(StoreTest, ParseQueryRejectsSwitchIdsOutsideTheNodeIdRange) {
  std::string error;
  const auto top = parse_query("switch=4294967294", &error);
  ASSERT_TRUE(top.has_value()) << error;
  EXPECT_EQ(top->switch_id, 4294967294u);
  // 2^32 + 1 would wrap to switch 1; 2^32 - 1 is kInvalidNode.
  for (const char* spec : {"switch=4294967297", "switch=4294967296", "switch=4294967295",
                           "switch=-1", "switch=99999999999999999999"}) {
    error.clear();
    EXPECT_FALSE(parse_query(spec, &error).has_value()) << spec;
    EXPECT_EQ(error, "bad switch id") << spec;
  }
}

TEST_F(StoreTest, SealHandsTheMemtableIndexToTheSegment) {
  StoreOptions options;
  options.shard_batch = 1;
  options.segment_events = 1000;
  FlowEventStore store(options);
  const auto add = [&](std::uint64_t first, std::uint64_t last) {
    for (std::uint64_t i = first; i < last; ++i) {
      store.add(event_at(i, static_cast<util::NodeId>(i % 4)), 0);
    }
  };
  add(0, 40);
  const auto stats_before = store.stats();
  EXPECT_EQ(store.count(backend::EventQuery{}.for_switch(2)), 10u);
  EXPECT_EQ(store.stats().memtable_index_hits - stats_before.memtable_index_hits, 1u);
  EXPECT_EQ(store.stats().rows_examined - stats_before.rows_examined, 10u);
  // Rows appended after the query extend the index at the next plan.
  add(40, 48);
  EXPECT_EQ(store.count(backend::EventQuery{}.for_switch(2)), 12u);
  add(48, 50);
  store.seal_active();
  ASSERT_EQ(store.segment_count(), 1u);
  const Segment& segment = *store.segments().front();
  EXPECT_EQ(segment.size(), 50u);
  EXPECT_EQ(segment.summary().summarized(), 50u);
  EXPECT_EQ(segment.summary().posted(), 48u);  // what the last query indexed
  EXPECT_EQ(store.count(backend::EventQuery{}.for_switch(2)), 12u);
  EXPECT_EQ(segment.summary().posted(), 50u);
}

TEST_F(StoreTest, EmptyWindowPlansNothing) {
  StoreOptions options;
  options.shard_batch = 8;
  options.segment_events = 32;
  FlowEventStore store(options);
  // Sealed segments, a memtable and shard rows, all around t = 500.
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto ev = event_at(i, static_cast<util::NodeId>(i % 3));
    store.add(ev, ev.detected_at);
  }
  ASSERT_GT(store.segment_count(), 0u);
  for (const auto& [from, to] : {std::pair<util::SimTime, util::SimTime>{500, 500}, {600, 400}}) {
    const auto before = store.stats();
    for (auto query : {backend::EventQuery{}, backend::EventQuery{}.for_switch(1),
                       backend::EventQuery{}.of_type(core::EventType::kDrop)}) {
      query.between(from, to);
      EXPECT_TRUE(store.query(query).empty());
    }
    const auto& after = store.stats();
    EXPECT_EQ(after.rows_examined, before.rows_examined);
    EXPECT_EQ(after.segments_scanned, before.segments_scanned);
    EXPECT_EQ(after.segments_pruned - before.segments_pruned, 3 * store.segment_count());
  }
}

TEST_F(StoreTest, WalDeathKeepsStoreServingFromMemory) {
  StoreOptions options;
  options.dir = dir_;
  options.shard_batch = 4;
  FlowEventStore store(options);
  store.crash_after_wal_bytes(64);
  for (std::uint64_t i = 0; i < 40; ++i) {
    const auto ev = event_at(i);
    store.add(ev, ev.detected_at);
  }
  store.flush();
  EXPECT_TRUE(store.wal_dead());
  EXPECT_GT(store.stats().wal_append_failures, 0u);
  // Ingest and queries keep working in memory.
  EXPECT_EQ(store.size(), 40u);
  backend::EventQuery any;
  EXPECT_EQ(store.count(any), 40u);
}

// The operator query shapes of §3.2 step 4 over a four-row store: by
// flow, device, type and period, combined, plus the aggregate helpers
// and the batch ingest contract. shard_batch = 1 gives every event its
// LSN on arrival, so the store's order is arrival order and the durable
// watermark of an in-memory store is the applied count.
core::FlowEvent shape_event(core::EventType type, std::uint16_t sport, util::NodeId sw,
                            util::SimTime at) {
  return core::make_event(type,
                          packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                                          packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6, sport,
                                          80},
                          sw, at);
}

packet::FlowKey shape_flow(std::uint16_t sport) {
  return shape_event(core::EventType::kDrop, sport, 0, 0).flow;
}

class EventStoreTest : public ::testing::Test {
 protected:
  EventStoreTest() : store(arrival_order()) {
    using core::EventType;
    store.add(shape_event(EventType::kDrop, 1, 10, util::seconds(1)), util::seconds(1));
    store.add(shape_event(EventType::kDrop, 2, 10, util::seconds(2)), util::seconds(2));
    store.add(shape_event(EventType::kCongestion, 1, 20, util::seconds(3)), util::seconds(3));
    store.add(shape_event(EventType::kPause, 3, 20, util::seconds(4)), util::seconds(4));
  }
  static StoreOptions arrival_order() {
    StoreOptions options;
    options.shard_batch = 1;
    return options;
  }
  FlowEventStore store;
};

TEST_F(EventStoreTest, QueryAll) {
  EXPECT_EQ(store.query(backend::EventQuery{}).size(), 4u);
  EXPECT_EQ(store.size(), 4u);
}

TEST_F(EventStoreTest, QueryByFlow) {
  const auto results = store.query(backend::EventQuery{}.for_flow(shape_flow(1)));
  ASSERT_EQ(results.size(), 2u);  // drop at sw10 + congestion at sw20
  for (const auto& r : results) EXPECT_EQ(r.event.flow, shape_flow(1));
}

TEST_F(EventStoreTest, QueryByDevice) {
  EXPECT_EQ(store.query(backend::EventQuery{}.for_switch(20)).size(), 2u);
}

TEST_F(EventStoreTest, QueryByType) {
  EXPECT_EQ(store.query(backend::EventQuery{}.of_type(core::EventType::kDrop)).size(), 2u);
}

TEST_F(EventStoreTest, QueryByPeriod) {
  // t=2 and t=3; t=4 excluded.
  EXPECT_EQ(
      store.query(backend::EventQuery{}.between(util::seconds(2), util::seconds(4))).size(),
      2u);
}

TEST_F(EventStoreTest, CombinedQuery) {
  const auto results = store.query(
      backend::EventQuery{}.for_flow(shape_flow(1)).of_type(core::EventType::kCongestion));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].event.switch_id, 20u);
}

TEST_F(EventStoreTest, QueryUnknownFlowEmpty) {
  EXPECT_TRUE(store.query(backend::EventQuery{}.for_flow(shape_flow(99))).empty());
}

TEST_F(EventStoreTest, DistinctFlows) {
  EXPECT_EQ(store.distinct_flows(backend::EventQuery{}).size(), 3u);
}

TEST_F(EventStoreTest, TotalCounter) {
  auto big = shape_event(core::EventType::kDrop, 7, 30, util::seconds(5));
  big.counter = 100;
  store.add(big, util::seconds(5));
  EXPECT_EQ(store.total_counter(backend::EventQuery{}.for_switch(30)), 100u);
}

TEST_F(EventStoreTest, CountMatchesQuery) {
  EXPECT_EQ(store.count(backend::EventQuery{}.of_type(core::EventType::kPause)), 1u);
}

// add_batch applies in span order after everything already added, and
// every row of a batch carries the batch's arrival stamp.
TEST_F(EventStoreTest, AddBatchAppliesInOrderAndIndexes) {
  using core::EventType;
  const core::FlowEvent batch[] = {
      shape_event(EventType::kDrop, 9, 40, util::seconds(5)),
      shape_event(EventType::kCongestion, 9, 40, util::seconds(6)),
      shape_event(EventType::kDrop, 10, 41, util::seconds(7)),
  };
  store.add_batch({batch, 3}, util::seconds(8));
  EXPECT_EQ(store.size(), 7u);
  const auto rows = store.all();
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[4].event, batch[0]);
  EXPECT_EQ(rows[5].event, batch[1]);
  EXPECT_EQ(rows[6].event, batch[2]);
  EXPECT_EQ(store.count(backend::EventQuery{}.for_flow(shape_flow(9))), 2u);
  EXPECT_EQ(store.count(backend::EventQuery{}.for_switch(41)), 1u);
  EXPECT_EQ(rows[4].stored_at, util::seconds(8));
  EXPECT_EQ(rows[6].stored_at, util::seconds(8));
}

TEST_F(EventStoreTest, DurableWatermarkTracksAppliedCount) {
  using core::EventType;
  EXPECT_EQ(store.durable_watermark(), 4u);
  const core::FlowEvent batch[] = {
      shape_event(EventType::kDrop, 11, 50, util::seconds(9)),
      shape_event(EventType::kPause, 12, 50, util::seconds(10)),
  };
  store.add_batch({batch, 2}, util::seconds(10));
  EXPECT_EQ(store.durable_watermark(), 6u);
  store.add(shape_event(EventType::kDrop, 13, 51, util::seconds(11)), util::seconds(11));
  EXPECT_EQ(store.durable_watermark(), 7u);
}

TEST_F(EventStoreTest, EmptyBatchIsANoOp) {
  const auto generation = store.generation();
  store.add_batch({}, util::seconds(12));
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.durable_watermark(), 4u);
  EXPECT_EQ(store.generation(), generation);
}

}  // namespace
}  // namespace netseer::store
