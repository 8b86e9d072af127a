// Property test for the query planner's indexes: memtable postings
// extended lazily across appends, handed to the segment at seal, and
// the segments' detection-time order. Each seed drives one store
// through a random interleaving of add_batch, flush, seal_active,
// compact, retention and (durable seeds) close + reopen, with events
// out of order in detected_at (negative times included). After every
// step, every subset of {flow, type, switch, from, to} is compared with
// a brute-force filter over the store's full scan: same rows, same
// order.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "backend/event_store.h"
#include "core/event.h"
#include "store/store.h"

namespace netseer::store {
namespace {

namespace fs = std::filesystem;

constexpr int kSeeds = 48;
constexpr util::SimTime kStart = -2000;  // the first events' clock

packet::FlowKey flow_of(std::uint32_t id) {
  return packet::FlowKey{
      packet::Ipv4Addr::from_octets(10, 0, 0, static_cast<std::uint8_t>(1 + id % 6)),
      packet::Ipv4Addr::from_octets(10, 1, 0, 2), 6, static_cast<std::uint16_t>(2000 + id / 6),
      80};
}

class Driver {
 public:
  Driver(std::uint64_t seed, std::string dir) : rng_(seed), dir_(std::move(dir)) {
    options_.shard_batch = 1 + rng_() % 12;
    options_.segment_events = 8 + rng_() % 56;
    options_.compact_min_segments = 2 + rng_() % 3;
    options_.compact_fanin = 2 + rng_() % 2;
    options_.retain_events = rng_() % 3 == 0 ? 150 + rng_() % 200 : 0;
    if (rng_() % 2 == 0) options_.dir = dir_;
    fs::remove_all(dir_);
    store_ = std::make_unique<FlowEventStore>(options_);
  }
  ~Driver() {
    store_.reset();
    fs::remove_all(dir_);
  }

  /// One random mutation, then the full query comparison.
  void step() {
    const auto op = rng_() % 16;
    if (op < 7) {
      add_batch();
    } else if (op < 10) {
      flush();
    } else if (op < 12) {
      store_->seal_active();
    } else if (op < 13) {
      (void)store_->compact();
    } else if (op < 14) {
      (void)store_->enforce_retention();
    } else if (op < 15 && store_->durable()) {
      store_->maintain();
    } else if (store_->durable()) {
      store_.reset();  // a clean close: the reopen replays WAL + segments
      store_ = std::make_unique<FlowEventStore>(options_);
      unflushed_ = 0;
    }
    check_all_queries();
  }

  /// The scripted cases: query, append, query again (the memtable
  /// index extends), and query, then seal (the index moves).
  void query_append_query_then_seal() {
    add_batch();
    flush();
    check_all_queries();
    add_batch();
    flush();
    check_all_queries();
    store_->seal_active();
    check_all_queries();
  }

  [[nodiscard]] const StoreStats& stats() const { return store_->stats(); }

 private:
  void add_batch() {
    std::vector<core::FlowEvent> batch(1 + rng_() % 40);
    for (auto& event : batch) {
      // Arrival order drifts forward with up to 400 ns of disorder,
      // starting below zero.
      clock_ += static_cast<util::SimTime>(rng_() % 20);
      const auto at = clock_ - static_cast<util::SimTime>(rng_() % 400);
      const auto type = static_cast<core::EventType>(1 + rng_() % 5);
      event = core::make_event(type, flow_of(static_cast<std::uint32_t>(rng_() % 30)),
                               static_cast<util::NodeId>(rng_() % 7), at);
      event.counter = static_cast<std::uint16_t>(1 + rng_() % 9);
    }
    store_->add_batch(batch, clock_);
    unflushed_ += batch.size();
  }

  void flush() {
    store_->flush();
    unflushed_ = 0;
  }

  backend::EventQuery random_query(unsigned subset) {
    backend::EventQuery query;
    // Flows and switches include ids no event uses.
    if ((subset & 1u) != 0) query.for_flow(flow_of(static_cast<std::uint32_t>(rng_() % 32)));
    if ((subset & 2u) != 0) query.of_type(static_cast<core::EventType>(1 + rng_() % 5));
    if ((subset & 4u) != 0) query.for_switch(static_cast<util::NodeId>(rng_() % 8));
    const auto span = static_cast<std::uint64_t>(clock_ - kStart + 600);
    const auto time = [&] { return kStart - 500 + static_cast<util::SimTime>(rng_() % span); };
    if ((subset & 8u) != 0) query.since(time());
    if ((subset & 16u) != 0) {
      // Mostly windows of up to 300 ns after `from`; sometimes empty
      // or inverted ones.
      query.until(query.from && rng_() % 4 != 0
                      ? *query.from + static_cast<util::SimTime>(rng_() % 300)
                      : time());
    }
    return query;
  }

  std::vector<backend::StoredEvent> run(const backend::EventQuery& query) {
    std::vector<backend::StoredEvent> out;
    for (const auto& stored : store_->scan(query)) out.push_back(stored);
    return out;
  }

  void check_all_queries() {
    // The oracle: the full scan reads every run front to back, so it
    // fixes the store order without any index.
    const auto all = store_->all();
    ASSERT_EQ(all.size(), store_->size());
    std::vector<backend::EventQuery> queries;
    for (unsigned subset = 0; subset < 32; ++subset) queries.push_back(random_query(subset));

    std::vector<std::vector<backend::StoredEvent>> results;
    for (const auto& query : queries) {
      const auto examined_before = store_->stats().rows_examined;
      results.push_back(run(query));
      const auto examined = store_->stats().rows_examined - examined_before;
      // Structural: past the shard buffers, a flow (or switch) query
      // reads only its posting's rows, in the memtable as in segments.
      std::size_t posted = 0;
      for (const auto& stored : all) {
        posted += query.flow ? stored.event.flow == *query.flow
                             : query.switch_id && stored.event.switch_id == *query.switch_id;
      }
      if (query.from && query.to && *query.from >= *query.to) {
        EXPECT_EQ(examined, 0u) << "an empty window examined rows";
      } else if (query.flow || query.switch_id) {
        EXPECT_LE(examined, posted + unflushed_);
      }
    }

    for (unsigned subset = 0; subset < 32; ++subset) {
      SCOPED_TRACE("subset " + std::to_string(subset));
      std::vector<backend::StoredEvent> want;
      for (const auto& stored : all) {
        if (queries[subset].matches(stored)) want.push_back(stored);
      }
      ASSERT_EQ(results[subset].size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(results[subset][i].event, want[i].event) << "row " << i;
        ASSERT_EQ(results[subset][i].stored_at, want[i].stored_at) << "row " << i;
      }
    }
  }

  std::mt19937_64 rng_;
  std::string dir_;
  StoreOptions options_;
  std::unique_ptr<FlowEventStore> store_;
  util::SimTime clock_ = kStart;
  // Rows added since the last explicit flush or reopen: an upper bound
  // on the rows still in shard buffers.
  std::size_t unflushed_ = 0;
};

TEST(QueryIndexProperty, IndexedPlansMatchBruteForceAcrossTheLifecycle) {
  std::uint64_t memtable_hits = 0;
  std::uint64_t time_hits = 0;
  std::uint64_t index_hits = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto dir =
        (fs::temp_directory_path() / ("netseer_query_index_property." + std::to_string(seed)))
            .string();
    Driver driver(static_cast<std::uint64_t>(seed), dir);
    driver.query_append_query_then_seal();
    for (int step = 0; step < 60 && !::testing::Test::HasFatalFailure(); ++step) driver.step();
    if (::testing::Test::HasFatalFailure()) return;
    driver.query_append_query_then_seal();
    memtable_hits += driver.stats().memtable_index_hits;
    time_hits += driver.stats().time_index_hits;
    index_hits += driver.stats().index_hits;
  }
  // Every plan kind ran.
  EXPECT_GT(memtable_hits, 0u);
  EXPECT_GT(time_hits, 0u);
  EXPECT_GT(index_hits, 0u);
}

}  // namespace
}  // namespace netseer::store
