// EventQuery parity. The same event stream goes into a plain vector of
// every inserted row (the oracle: EventQuery::matches over all of it,
// the definition of a match, with no index that could share a bug with
// the store) and into store::FlowEventStore, and every query shape must
// return identical results — element for element, in the same order — in
// every lifecycle state: sealed segments plus a memtable, after sealing,
// after compaction, and after a durable round trip through segment
// files.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "backend/event_store.h"
#include "core/event.h"
#include "store/store.h"

namespace netseer::store {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kEvents = 2000;

struct Gen {
  std::uint64_t state = 99;
  std::uint64_t rnd() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
  core::FlowEvent next(std::uint64_t i) {
    const auto r = rnd();
    // ~40 distinct flows so flow queries hit many rows.
    packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, 0, 0, (r % 8) + 1),
                         packet::Ipv4Addr::from_octets(10, 9, 9, 9), 6,
                         static_cast<std::uint16_t>(5000 + (r % 5)), 443};
    auto ev = core::make_event(static_cast<core::EventType>(1 + r % 5), flow,
                               static_cast<util::NodeId>(r % 4),
                               static_cast<util::SimTime>(i * 10 + r % 7));
    ev.counter = static_cast<std::uint16_t>(1 + (r % 20));
    return ev;
  }
};

std::vector<backend::EventQuery> query_shapes() {
  const auto flow = Gen{}.next(0).flow;  // a flow guaranteed to exist
  packet::FlowKey absent = flow;
  absent.dport = 1;  // and one guaranteed not to

  std::vector<backend::EventQuery> shapes;
  shapes.emplace_back();  // match-all
  {
    backend::EventQuery q;
    q.flow = flow;
    shapes.push_back(q);
    q.type = core::EventType::kCongestion;
    shapes.push_back(q);  // flow + type
    q.from = 4000;
    q.to = 12000;
    shapes.push_back(q);  // flow + type + window
  }
  {
    backend::EventQuery q;
    q.flow = absent;
    shapes.push_back(q);
  }
  for (const auto type : {core::EventType::kDrop, core::EventType::kPause}) {
    backend::EventQuery q;
    q.type = type;
    shapes.push_back(q);
  }
  {
    backend::EventQuery q;
    q.switch_id = 2;
    shapes.push_back(q);
    q.type = core::EventType::kPathChange;
    q.from = 1000;
    q.to = 15000;
    shapes.push_back(q);  // switch + type + window
  }
  {
    backend::EventQuery q;  // window only, mid-stream
    q.from = 7000;
    q.to = 7500;
    shapes.push_back(q);
  }
  {
    backend::EventQuery q;  // empty range: to == from
    q.from = 5000;
    q.to = 5000;
    shapes.push_back(q);
  }
  {
    backend::EventQuery q;  // empty range: past the last event
    q.from = static_cast<util::SimTime>(kEvents * 10 + 100);
    shapes.push_back(q);
  }
  {
    backend::EventQuery q;  // unbounded from / unbounded to
    q.to = 3000;
    shapes.push_back(q);
    backend::EventQuery r;
    r.from = static_cast<util::SimTime>(kEvents * 10 - 2000);
    shapes.push_back(r);
  }
  return shapes;
}

/// Every inserted row, in insertion order.
using Oracle = std::vector<backend::StoredEvent>;

std::vector<backend::StoredEvent> brute_force(const Oracle& oracle,
                                              const backend::EventQuery& query) {
  std::vector<backend::StoredEvent> out;
  for (const auto& stored : oracle) {
    if (query.matches(stored)) out.push_back(stored);
  }
  return out;
}

void expect_parity(const Oracle& oracle, const FlowEventStore& fstore, const std::string& state) {
  ASSERT_EQ(oracle.size(), fstore.size()) << state;
  std::size_t shape_idx = 0;
  for (const auto& query : query_shapes()) {
    SCOPED_TRACE(state + ", query shape #" + std::to_string(shape_idx++));
    const auto want = brute_force(oracle, query);
    const auto got = fstore.query(query);
    ASSERT_EQ(got.size(), want.size());
    std::uint64_t want_counter = 0;
    std::vector<packet::FlowKey> want_flows;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].event, want[i].event) << "row " << i;
      ASSERT_EQ(got[i].stored_at, want[i].stored_at) << "row " << i;
      want_counter += want[i].event.counter;
      if (std::find(want_flows.begin(), want_flows.end(), want[i].event.flow) ==
          want_flows.end()) {
        want_flows.push_back(want[i].event.flow);
      }
    }
    EXPECT_EQ(fstore.count(query), want.size());
    EXPECT_EQ(fstore.total_counter(query), want_counter);
    EXPECT_EQ(fstore.distinct_flows(query), want_flows);  // first-seen order
  }
}

/// Insert kEvents generated events into both the oracle and the store.
void fill(Oracle& oracle, FlowEventStore& fstore) {
  Gen gen;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    const auto ev = gen.next(i);
    oracle.push_back(backend::StoredEvent{ev, ev.detected_at + 1});
    fstore.add(ev, ev.detected_at + 1);
  }
}

// shard_batch = 1 keeps the store's LSN order identical to the oracle's
// insertion order, so parity is exact element-for-element equality.
StoreOptions parity_options() {
  StoreOptions options;
  options.shard_batch = 1;
  options.segment_events = 128;
  options.compact_min_segments = 4;
  options.compact_fanin = 4;
  return options;
}

TEST(QueryParity, MatchesOracleAcrossLifecycleStates) {
  Oracle oracle;
  FlowEventStore fstore(parity_options());
  fill(oracle, fstore);
  // Mixed state: sealed segments plus a memtable remainder.
  expect_parity(oracle, fstore, "mixed segments+memtable");

  fstore.seal_active();
  expect_parity(oracle, fstore, "fully sealed");

  ASSERT_GT(fstore.compact(), 0u);
  expect_parity(oracle, fstore, "compacted");
}

TEST(QueryParity, MatchesOracleThroughDurableReopen) {
  const auto dir = (fs::temp_directory_path() / "netseer_query_parity_test").string();
  fs::remove_all(dir);
  Oracle oracle;
  {
    auto options = parity_options();
    options.dir = dir;
    FlowEventStore fstore(options);
    fill(oracle, fstore);
    fstore.checkpoint();
    expect_parity(oracle, fstore, "durable, pre-close");
  }
  auto options = parity_options();
  options.dir = dir;
  FlowEventStore reopened(options);
  expect_parity(oracle, reopened, "durable, reopened");
  fs::remove_all(dir);
}

// With real shard batching the LSN order differs from insertion order,
// but the *set* of results must still agree for every query shape.
TEST(QueryParity, BatchedShardsAgreeAsMultisets) {
  Oracle oracle;
  auto options = parity_options();
  options.shard_batch = 16;
  FlowEventStore fstore(options);
  fill(oracle, fstore);
  const auto sort_key = [](const backend::StoredEvent& a, const backend::StoredEvent& b) {
    const auto key = [](const backend::StoredEvent& s) {
      return std::make_tuple(s.event.detected_at, s.event.switch_id, s.event.flow.hash64(),
                             s.event.type, s.event.counter, s.stored_at);
    };
    return key(a) < key(b);
  };
  std::size_t shape_idx = 0;
  for (const auto& query : query_shapes()) {
    SCOPED_TRACE("query shape #" + std::to_string(shape_idx++));
    auto want = brute_force(oracle, query);
    auto got = fstore.query(query);
    ASSERT_EQ(got.size(), want.size());
    std::sort(want.begin(), want.end(), sort_key);
    std::sort(got.begin(), got.end(), sort_key);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].event, want[i].event) << "row " << i;
    }
  }
}

}  // namespace
}  // namespace netseer::store
