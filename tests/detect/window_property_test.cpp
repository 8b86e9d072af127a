// Exact-equivalence property test for the deadline-queue WindowEngine:
// a small reference engine that walks every live key on every advance
// (the plain definition of the window model) is fed the same random
// streams — out-of-order arrivals, late new keys behind the watermark,
// keys idle past the GC horizon and revived, far-ahead outliers, and
// advances crossing zero, one or many window boundaries — and every
// key's WindowResult sequence, the engine stats, and the DetectService
// alert multiset must match it exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/event.h"
#include "detect/alerts.h"
#include "detect/service.h"
#include "detect/window.h"
#include "util/rng.h"

namespace netseer::detect {
namespace {

/// The window model by definition: one map of key state, and advance()
/// rolls every key to the close target.
class ReferenceEngine {
 public:
  ReferenceEngine(const Rule& rule, const RuleSet& set)
      : rule_(rule), window_(set.window), lateness_(set.lateness),
        idle_gc_windows_(set.idle_gc_windows) {}

  void offer(const backend::StoredEvent& row, const WindowEngine::Sink& sink) {
    const core::FlowEvent& event = row.event;
    if (event.type != rule_.type) return;
    WindowKey key{event.switch_id, 0};
    if (rule_.scope == Scope::kDeviceFlow) key.group = event.flow_hash;
    if (rule_.scope == Scope::kDeviceRule) key.group = event.acl_rule_id;
    const util::SimTime start = bucket(event.detected_at);

    auto it = keys_.find(key);
    if (it == keys_.end()) {
      State fresh;
      fresh.window_start = start;
      fresh.detector = make_detector(rule_);
      it = keys_.emplace(key, std::move(fresh)).first;
      ++stats_.keys_created;
    } else {
      State& state = it->second;
      if (start < state.window_start) {
        ++stats_.late_rows;
        return;
      }
      if (!roll_to(key, state, start, sink)) {
        state = State{start, 0, 0, 0.0, 0, {}, make_detector(rule_)};
        ++stats_.keys_recycled;
      }
    }
    State& state = it->second;
    ++state.rows;
    state.packets += event.counter;
    state.latency_sum += static_cast<double>(event.queue_latency_us);
    state.sample = event;
    ++stats_.rows;
    stats_.keys_active = keys_.size();
  }

  void advance(util::SimTime watermark, const WindowEngine::Sink& sink) {
    const util::SimTime target = bucket(watermark - lateness_);
    for (auto it = keys_.begin(); it != keys_.end();) {
      if (roll_to(it->first, it->second, target, sink)) {
        ++it;
      } else {
        ++stats_.keys_recycled;
        it = keys_.erase(it);
      }
    }
    stats_.keys_active = keys_.size();
  }

  [[nodiscard]] const WindowEngineStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t active_keys() const { return keys_.size(); }

 private:
  struct State {
    util::SimTime window_start = 0;
    std::uint64_t rows = 0;
    std::uint64_t packets = 0;
    double latency_sum = 0.0;
    std::uint32_t idle_windows = 0;
    core::FlowEvent sample{};
    std::unique_ptr<Detector> detector;
  };
  struct KeyLess {
    bool operator()(const WindowKey& a, const WindowKey& b) const {
      return std::tie(a.switch_id, a.group) < std::tie(b.switch_id, b.group);
    }
  };

  [[nodiscard]] util::SimTime bucket(util::SimTime at) const {
    auto q = at / window_;
    if (at < 0 && at % window_ != 0) --q;
    return q * window_;
  }

  bool roll_to(const WindowKey& key, State& state, util::SimTime next_start,
               const WindowEngine::Sink& sink) {
    while (state.window_start < next_start) {
      const bool empty = state.rows == 0;
      double value = static_cast<double>(state.packets);
      if (rule_.feature == Feature::kEvents) value = static_cast<double>(state.rows);
      if (rule_.feature == Feature::kLatencyMeanUs) {
        value = empty ? 0.0 : state.latency_sum / static_cast<double>(state.rows);
      }
      WindowResult out;
      out.rule = &rule_;
      out.rule_hash = AlertManager::rule_hash(rule_);
      out.key = key;
      out.sample = state.sample;
      out.window_start = state.window_start;
      out.empty = empty;
      out.result = state.detector->observe(value, empty);
      ++(empty ? stats_.windows_empty : stats_.windows_closed);
      sink(out);
      state.idle_windows = empty ? state.idle_windows + 1 : 0;
      state.rows = 0;
      state.packets = 0;
      state.latency_sum = 0.0;
      state.window_start += window_;
      if (state.idle_windows > idle_gc_windows_) return false;
    }
    return true;
  }

  Rule rule_;
  util::SimDuration window_;
  util::SimDuration lateness_;
  std::uint32_t idle_gc_windows_;
  std::map<WindowKey, State, KeyLess> keys_;
  WindowEngineStats stats_;
};

/// Everything observable about one closed window, per key in order.
using Record = std::tuple<util::SimTime, bool, double, double, double, bool, util::SimTime,
                          std::uint16_t>;
using Trace = std::map<std::pair<util::NodeId, std::uint64_t>, std::vector<Record>>;

WindowEngine::Sink recorder(Trace& trace) {
  return [&trace](const WindowResult& w) {
    trace[{w.key.switch_id, w.key.group}].emplace_back(
        w.window_start, w.empty, w.result.value, w.result.expected, w.result.score,
        w.result.firing, w.sample.detected_at, w.sample.counter);
  };
}

void expect_same_stats(const WindowEngineStats& got, const WindowEngineStats& want) {
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.late_rows, want.late_rows);
  EXPECT_EQ(got.windows_closed, want.windows_closed);
  EXPECT_EQ(got.windows_empty, want.windows_empty);
  EXPECT_EQ(got.keys_created, want.keys_created);
  EXPECT_EQ(got.keys_recycled, want.keys_recycled);
  EXPECT_EQ(got.keys_active, want.keys_active);
}

core::FlowEvent random_event(util::Rng& rng, core::EventType type, util::SimTime at) {
  const auto sw = static_cast<util::NodeId>(rng.uniform_range(0, 3));
  const auto flow_id = static_cast<std::uint16_t>(rng.uniform_range(0, 7));
  packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, 0, static_cast<std::uint8_t>(sw), 1),
                       packet::Ipv4Addr::from_octets(10, 9, 0, 2), 6,
                       static_cast<std::uint16_t>(2000 + flow_id), 80};
  auto ev = core::make_event(type, flow, sw, at);
  ev.counter = static_cast<std::uint16_t>(rng.uniform_range(1, 12));
  ev.queue_latency_us = static_cast<std::uint16_t>(rng.uniform_range(0, 400));
  ev.acl_rule_id = static_cast<std::uint16_t>(500 + rng.uniform_range(0, 2));
  return ev;
}

/// The arrival time of the next row: mostly near the stream clock, some
/// out of order within and past lateness, a few far behind (late rows
/// and late new keys) or far ahead of any ring the engine keeps.
util::SimTime arrival(util::Rng& rng, util::SimTime clock, util::SimDuration window) {
  const auto roll = rng.uniform_range(0, 99);
  if (roll < 70) return clock - rng.uniform_range(0, window / 4);
  if (roll < 90) return clock - rng.uniform_range(0, 3 * window);
  if (roll < 97) return clock - rng.uniform_range(3 * window, 40 * window);
  return clock + rng.uniform_range(70 * window, 200 * window);
}

/// The next advance's watermark: the clock (zero or one boundary), a
/// multi-window jump, past a ring's width, or a small regression.
util::SimTime advance_to(util::Rng& rng, util::SimTime& clock, util::SimDuration window) {
  const auto roll = rng.uniform_range(0, 99);
  if (roll < 60) return clock;
  if (roll < 80) return clock += rng.uniform_range(1, 6) * window;
  if (roll < 90) return clock += rng.uniform_range(60, 140) * window;
  return clock - rng.uniform_range(0, 5 * window);
}

std::vector<Rule> property_rules() {
  std::vector<Rule> rules;
  Rule flow;
  flow.name = "flow-threshold";
  flow.type = core::EventType::kDrop;
  flow.scope = Scope::kDeviceFlow;
  flow.threshold = 20;
  rules.push_back(flow);
  Rule device = flow;
  device.name = "device-ewma";
  device.family = Family::kEwma;
  device.feature = Feature::kEvents;
  device.scope = Scope::kDevice;
  device.warmup = 2;
  rules.push_back(device);
  Rule latency = device;
  latency.name = "latency-cusum";
  latency.family = Family::kCusum;
  latency.feature = Feature::kLatencyMeanUs;
  latency.type = core::EventType::kCongestion;
  rules.push_back(latency);
  Rule acl = flow;
  acl.name = "acl-rule";
  acl.type = core::EventType::kAclDrop;
  acl.scope = Scope::kDeviceRule;
  rules.push_back(acl);
  return rules;
}

TEST(WindowEnginePropertyTest, MatchesTheWalkEveryKeyReference) {
  constexpr core::EventType kTypes[] = {core::EventType::kDrop, core::EventType::kCongestion,
                                        core::EventType::kAclDrop};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    RuleSet set;
    set.window = util::microseconds(rng.uniform_range(1, 8) * 125);
    set.lateness = util::microseconds(rng.uniform_range(0, 300));
    set.idle_gc_windows = static_cast<std::uint32_t>(rng.uniform_range(0, 6));
    for (const Rule& rule : property_rules()) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " rule " << rule.name);
      WindowEngine engine(rule, set);
      ReferenceEngine reference(rule, set);
      Trace got;
      Trace want;
      const auto got_sink = recorder(got);
      const auto want_sink = recorder(want);
      util::Rng stream(seed * 7919 + rule.name.size());
      // Start below zero so bucketing and advances cross time zero.
      util::SimTime clock = -40 * set.window;
      for (int step = 0; step < 3000; ++step) {
        if (stream.uniform_range(0, 9) < 8) {
          clock += stream.uniform_range(0, set.window / 3);
          const auto type = kTypes[stream.uniform_range(0, 2)];
          const auto at = arrival(stream, clock, set.window);
          const backend::StoredEvent row{random_event(stream, type, at), at};
          engine.offer(row, got_sink);
          reference.offer(row, want_sink);
        } else {
          const util::SimTime watermark = advance_to(stream, clock, set.window);
          engine.advance(watermark, got_sink);
          reference.advance(watermark, want_sink);
          ASSERT_EQ(engine.active_keys(), reference.active_keys()) << "step " << step;
        }
      }
      const util::SimTime flush = clock + set.window + set.lateness;
      engine.advance(flush, got_sink);
      reference.advance(flush, want_sink);
      EXPECT_EQ(got, want);
      expect_same_stats(engine.stats(), reference.stats());
      EXPECT_GT(engine.stats().windows_closed, 0u);
    }
  }
}

/// Everything observable about one alert record.
using AlertRecord = std::tuple<std::uint64_t, util::NodeId, std::uint64_t, int, int,
                               util::SimTime, util::SimTime, util::SimTime, std::uint32_t,
                               std::uint32_t, std::uint32_t, double, double, double,
                               util::SimTime>;

std::vector<AlertRecord> alert_multiset(const AlertManager& manager) {
  std::vector<AlertRecord> out;
  for (const Alert& a : manager.alerts()) {
    out.emplace_back(a.fingerprint, a.key.switch_id, a.key.group,
                     static_cast<int>(a.severity), static_cast<int>(a.state), a.raised_at,
                     a.last_firing, a.resolved_at, a.firing_windows, a.episodes, a.flaps,
                     a.peak_value, a.peak_score, a.last_expected, a.sample.detected_at);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(WindowEnginePropertyTest, DetectServiceAlertsMatchTheReference) {
  constexpr core::EventType kTypes[] = {core::EventType::kDrop, core::EventType::kCongestion,
                                        core::EventType::kAclDrop, core::EventType::kPause};
  std::uint64_t alerts_seen = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    util::Rng stream(seed);
    store::FlowEventStore fs{store::StoreOptions{}};
    DetectOptions options;
    options.rules.window = util::microseconds(250);
    options.rules.idle_gc_windows = 3;
    options.poll_batch = 64;
    DetectService service(fs, options);

    // The reference pipeline consumes the same rows through its own
    // subscription, pumps at the same points, and feeds one AlertManager.
    std::vector<ReferenceEngine> reference;
    for (const Rule& rule : service.rules().rules) reference.emplace_back(rule, service.rules());
    AlertManager reference_alerts(service.rules());
    const WindowEngine::Sink reference_sink = [&](const WindowResult& w) {
      reference_alerts.observe(w);
    };
    store::Subscription reference_sub = fs.subscribe();
    util::SimTime reference_watermark = 0;
    const auto reference_apply = [&](const backend::StoredEvent& row, std::uint64_t) {
      for (auto& engine : reference) engine.offer(row, reference_sink);
      reference_watermark = std::max(reference_watermark, row.event.detected_at);
    };
    const auto reference_pump = [&] {
      std::size_t total = 0;
      while (const std::size_t n = reference_sub.poll(reference_apply)) total += n;
      if (total == 0) return;
      for (auto& engine : reference) engine.advance(reference_watermark, reference_sink);
    };

    util::SimTime clock = 0;
    for (int chunk = 0; chunk < 150; ++chunk) {
      const auto rows = stream.uniform_range(0, 80);
      for (std::int64_t i = 0; i < rows; ++i) {
        clock += stream.uniform_range(0, 20'000);
        // Bursty drops on a hot flow so alerts raise, resolve and flap.
        const bool burst = (chunk / 10) % 3 == 0;
        const auto type = burst && stream.uniform_range(0, 1) == 0
                              ? core::EventType::kDrop
                              : kTypes[stream.uniform_range(0, 3)];
        const auto at = arrival(stream, clock, options.rules.window);
        auto ev = random_event(stream, type, at);
        if (burst) ev.counter = 30;
        fs.add(ev, at);
      }
      fs.flush();
      ASSERT_TRUE(fs.sync());
      // Some pumps follow a quiet gap, so they cross many boundaries.
      if (stream.uniform_range(0, 9) == 0) clock += 20 * options.rules.window;
      service.pump();
      reference_pump();
    }
    service.finish();
    const util::SimTime flush =
        reference_watermark + service.rules().window + service.rules().lateness;
    for (auto& engine : reference) engine.advance(flush, reference_sink);

    ASSERT_EQ(service.engines().size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expect_same_stats(service.engines()[i].stats(), reference[i].stats());
    }
    EXPECT_EQ(alert_multiset(service.alerts()), alert_multiset(reference_alerts));
    const AlertStats& got = service.alerts().stats();
    const AlertStats& want = reference_alerts.stats();
    EXPECT_EQ(std::tie(got.raised, got.reopened, got.escalated, got.resolved, got.active),
              std::tie(want.raised, want.reopened, want.escalated, want.resolved,
                       want.active));
    alerts_seen += got.raised;
  }
  EXPECT_GT(alerts_seen, 0u);  // the streams exercised the alert pipeline
}

}  // namespace
}  // namespace netseer::detect
