// Tests of the benchmark's own references: the percentile helper, the
// brute-force query filter, the order-free row comparison, the
// ground-truth group comparison, the expected alerts of injected
// bursts, the deferred check of issued queries, and span self time.
#include <gtest/gtest.h>

#include "common.h"
#include "reference.h"
#include "trace.h"

namespace {

using namespace netseer;
using e2e::Group;
using e2e::GroupSet;

packet::FlowKey flow(std::uint8_t n) {
  return packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, n),
                         packet::Ipv4Addr::from_octets(10, 1, 0, n), 6, 1000, 80};
}

core::FlowEvent event(core::EventType type, std::uint8_t f, std::uint32_t sw, std::int64_t at) {
  return core::make_event(type, flow(f), sw, at);
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(e2e::percentile({}, 0.5), 0.0);
  EXPECT_EQ(e2e::percentile({7.0}, 0.99), 7.0);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  EXPECT_EQ(e2e::percentile(hundred, 0.5), 50.0);
  EXPECT_EQ(e2e::percentile(hundred, 0.99), 99.0);
  EXPECT_EQ(e2e::percentile(hundred, 1.0), 100.0);
  EXPECT_EQ(e2e::percentile(hundred, 0.0), 1.0);
  EXPECT_EQ(e2e::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(e2e::median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(BruteForce, FiltersEveryField) {
  const std::vector<core::FlowEvent> events = {
      event(core::EventType::kDrop, 1, 5, 100),
      event(core::EventType::kDrop, 2, 5, 200),
      event(core::EventType::kCongestion, 1, 6, 300),
      event(core::EventType::kDrop, 1, 6, 400),
  };
  EXPECT_EQ(e2e::brute_force(events, backend::EventQuery{}).size(), 4u);
  EXPECT_EQ(e2e::brute_force(events, backend::EventQuery{}.for_flow(flow(1))).size(), 3u);
  EXPECT_EQ(e2e::brute_force(events, backend::EventQuery{}.for_switch(6)).size(), 2u);
  EXPECT_EQ(e2e::brute_force(events, backend::EventQuery{}.of_type(core::EventType::kDrop)).size(),
            3u);
  // The window is [from, to) on detected_at.
  const auto window = e2e::brute_force(events, backend::EventQuery{}.between(200, 400));
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window[0].detected_at, 200);
  EXPECT_EQ(window[1].detected_at, 300);
  EXPECT_TRUE(e2e::brute_force(events, backend::EventQuery{}.for_switch(5).since(300)).empty());
}

TEST(CheckQueries, ComparesAgainstThePrefixTheStoreHeld) {
  const std::vector<core::FlowEvent> events = {
      event(core::EventType::kDrop, 1, 5, 100),
      event(core::EventType::kDrop, 1, 5, 200),
      event(core::EventType::kDrop, 1, 5, 300),
  };
  e2e::IssuedQuery q;
  q.query.for_flow(flow(1));
  q.prefix = 2;  // the store held the first two events when it ran
  q.got = {events[1], events[0]};
  e2e::Outcome ok;
  e2e::check_queries(events, {q}, ok);
  EXPECT_TRUE(ok.correct);
  // A row the store did not yet hold, or a missing row, fails the run.
  q.got.push_back(events[2]);
  e2e::Outcome extra;
  e2e::check_queries(events, {q}, extra);
  EXPECT_FALSE(extra.correct);
  q.got = {events[0]};
  e2e::Outcome short_result;
  e2e::check_queries(events, {q}, short_result);
  EXPECT_FALSE(short_result.correct);
}

TEST(SameEvents, IgnoresOrderButNotContent) {
  const auto a = event(core::EventType::kDrop, 1, 5, 100);
  const auto b = event(core::EventType::kDrop, 2, 5, 100);
  auto c = b;
  c.counter = 9;
  EXPECT_TRUE(e2e::same_events({a, b}, {b, a}));
  EXPECT_FALSE(e2e::same_events({a, b}, {a, c}));
  EXPECT_FALSE(e2e::same_events({a, b}, {a}));
  EXPECT_FALSE(e2e::same_events({a, a}, {a, b}));
}

TEST(Groups, GroundTruthComparison) {
  monitors::TrueEvent drop;
  drop.type = core::EventType::kDrop;
  drop.flow = flow(1);
  drop.node = 5;
  monitors::TrueEvent congestion = drop;
  congestion.type = core::EventType::kCongestion;
  congestion.node = 6;

  const auto truth = e2e::truth_groups({drop, drop, congestion}, {core::EventType::kDrop});
  ASSERT_EQ(truth.size(), 1u);
  EXPECT_EQ(*truth.begin(), (Group{5, flow(1).hash64(), static_cast<int>(core::EventType::kDrop)}));

  backend::StoredEvent stored{event(core::EventType::kDrop, 1, 5, 10), 20};
  backend::StoredEvent extra{event(core::EventType::kDrop, 2, 5, 10), 20};
  const auto have = e2e::stored_groups({stored, extra}, {core::EventType::kDrop});
  EXPECT_TRUE(e2e::missing(truth, have).empty());  // no false negative
  EXPECT_EQ(e2e::missing(have, truth).size(), 1u);  // one false positive
  EXPECT_EQ(e2e::missing(truth, GroupSet{}).size(), 1u);
  // Types outside the list are ignored.
  EXPECT_TRUE(e2e::stored_groups({stored}, {core::EventType::kCongestion}).empty());
}

TEST(ExpectedAlerts, OnePerBurstOverThreshold) {
  e2e::Burst strong{7, flow(1), 0, 40, 1};
  e2e::Burst weak{8, flow(2), 0, 19, 1};
  const auto expected = e2e::expected_alerts({strong, weak}, 20);
  ASSERT_EQ(expected.size(), 1u);
  EXPECT_EQ(*expected.begin(), (e2e::AlertId{"drop-burst", 7, flow(1).hash64()}));
  e2e::Burst exact{9, flow(3), 0, 4, 5};  // 20 packets reach the threshold
  EXPECT_EQ(e2e::expected_alerts({exact}, 20).size(), 1u);
}

TEST(SelfTimes, SubtractDirectChildren) {
  std::vector<e2e::Span> spans = {
      {"round", 0.0, 10.0, -1},
      {"sim", 1.0, 5.0, 0},
      {"flush", 2.0, 3.0, 1},
      {"sim", 6.0, 8.0, 0},
  };
  const auto self = e2e::self_times(spans);
  EXPECT_DOUBLE_EQ(self.at("round"), 4.0);  // 10 - 4 - 2
  EXPECT_DOUBLE_EQ(self.at("sim"), 5.0);    // (4 - 1) + 2
  EXPECT_DOUBLE_EQ(self.at("flush"), 1.0);
}

TEST(Tracer, NullTracerRecordsNothing) {
  e2e::Tracer tracer;
  {
    e2e::Tracer::Scope outer(&tracer, "outer");
    e2e::Tracer::Scope inner(&tracer, "inner");
    e2e::Tracer::Scope ignored(nullptr, "ignored");
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_LE(tracer.spans()[1].end_s, tracer.spans()[0].end_s);
}

}  // namespace
