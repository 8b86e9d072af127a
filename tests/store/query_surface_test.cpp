// The unified query surface: EventQuery's fluent builder, the
// range-for QueryCursor, and the generation counter that turns
// use-after-mutation into an abort instead of a read of freed rows.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "backend/event_store.h"
#include "core/event.h"
#include "store/store.h"

namespace netseer::store {
namespace {

core::FlowEvent sample_event(std::uint64_t i) {
  std::uint64_t r = (i + 1) * 0x9E3779B97F4A7C15ull;
  r ^= r >> 31;
  packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, 0, (r >> 8) & 7, 1),
                       packet::Ipv4Addr::from_octets(10, 1, 0, 2), 6,
                       static_cast<std::uint16_t>(1024 + (r & 63)), 443};
  auto ev = core::make_event(
      r % 4 == 0 ? core::EventType::kCongestion : core::EventType::kDrop, flow,
      static_cast<util::NodeId>(r % 5), static_cast<util::SimTime>(i * 100));
  ev.counter = static_cast<std::uint16_t>(1 + (r % 7));
  return ev;
}

StoreOptions seeded_options(std::size_t segment_events = 128) {
  StoreOptions options;
  options.shard_batch = 16;
  options.segment_events = segment_events;
  return options;
}

void seed(FlowEventStore& fs, std::size_t events) {
  for (std::size_t i = 0; i < events; ++i) {
    const auto ev = sample_event(i);
    fs.add(ev, ev.detected_at + 10);
  }
  fs.flush();
}

TEST(QuerySurfaceTest, FluentBuilderComposesFilters) {
  FlowEventStore fs(seeded_options());
  seed(fs, 1000);
  // Builder and aggregate forms of the same query agree.
  backend::EventQuery aggregate;
  aggregate.type = core::EventType::kDrop;
  aggregate.switch_id = 2;
  aggregate.from = 10'000;
  aggregate.to = 70'000;
  const auto fluent = backend::EventQuery{}
                          .of_type(core::EventType::kDrop)
                          .for_switch(2)
                          .between(10'000, 70'000);
  EXPECT_EQ(fs.count(fluent), fs.count(aggregate));
  EXPECT_GT(fs.count(fluent), 0u);
  // between() is since()+until().
  const auto split = backend::EventQuery{}
                         .of_type(core::EventType::kDrop)
                         .for_switch(2)
                         .since(10'000)
                         .until(70'000);
  EXPECT_EQ(fs.count(split), fs.count(fluent));
}

TEST(QuerySurfaceTest, RangeForCursorVisitsEveryMatchInStoreOrder) {
  FlowEventStore fs(seeded_options());
  seed(fs, 600);
  const auto query = backend::EventQuery{}.of_type(core::EventType::kCongestion);
  const auto expected = fs.query(query);
  ASSERT_GT(expected.size(), 0u);

  std::vector<backend::StoredEvent> seen;
  auto cursor = fs.scan(query);
  for (const auto& stored : cursor) {
    seen.push_back(stored);
  }
  ASSERT_EQ(seen.size(), expected.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].event, expected[i].event) << "row " << i;
    EXPECT_EQ(seen[i].stored_at, expected[i].stored_at) << "row " << i;
  }
}

TEST(QuerySurfaceTest, CursorSeesUnflushedShardRows) {
  StoreOptions options;
  options.shard_batch = 64;  // larger than the adds below: rows stay in shards
  FlowEventStore fs(options);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto ev = sample_event(i);
    fs.add(ev, ev.detected_at);
  }
  auto cursor = fs.scan(backend::EventQuery{});
  std::size_t rows = 0;
  while (cursor.next() != nullptr) ++rows;
  EXPECT_EQ(rows, 10u);
}

TEST(QuerySurfaceDeathTest, MutationUnderACursorAbortsInsteadOfReadingFreedRows) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FlowEventStore fs(seeded_options());
  seed(fs, 300);
  EXPECT_DEATH(
      {
        auto cursor = fs.scan(backend::EventQuery{});
        (void)cursor.next();
        const auto ev = sample_event(9999);
        for (int i = 0; i < 64; ++i) fs.add(ev, ev.detected_at);  // forces a flush
        (void)cursor.next();
      },
      "used after store mutation");
}

TEST(QuerySurfaceTest, DeprecatedWrappersAgreeWithScan) {
  FlowEventStore fs(seeded_options());
  seed(fs, 500);
  const auto query = backend::EventQuery{}.of_type(core::EventType::kDrop).since(1'000);
  auto cursor = fs.scan(query);
  std::size_t rows = 0;
  std::uint64_t counter_sum = 0;
  while (const auto* stored = cursor.next()) {
    ++rows;
    counter_sum += stored->event.counter;
  }
  EXPECT_EQ(fs.count(query), rows);
  EXPECT_EQ(fs.query(query).size(), rows);
  EXPECT_EQ(fs.total_counter(query), counter_sum);
}

}  // namespace
}  // namespace netseer::store
