// Alert-pipeline state machine: fingerprint dedup, raise_after
// debounce, escalation on persistence, resolution on quiescence, and
// flap damping (a re-fire straight after resolving reopens the same
// record instead of paging again).
#include <gtest/gtest.h>

#include <vector>

#include "core/event.h"
#include "detect/alerts.h"

namespace netseer::detect {
namespace {

struct Fixture {
  RuleSet set;
  Rule rule;
  AlertManager manager;

  Fixture() : set(make_set()), rule(make_rule()), manager(set) {}

  static RuleSet make_set() {
    RuleSet s = RuleSet::defaults();
    s.window = util::milliseconds(1);
    return s;
  }
  static Rule make_rule() {
    Rule r;
    r.name = "r";
    r.raise_after = 2;
    r.clear_after = 2;
    r.escalate_after = 4;
    r.damp_windows = 3;
    return r;
  }

  /// Feed one closed window for window index `i` of key (switch 1, group 9).
  void window(std::int64_t i, bool firing) {
    WindowResult w;
    w.rule = &rule;
    w.rule_hash = AlertManager::rule_hash(rule);
    w.key = WindowKey{1, 9};
    w.window_start = i * set.window;
    w.result.firing = firing;
    w.result.value = firing ? 50.0 : 0.0;
    w.result.score = firing ? 2.0 : 0.0;
    manager.observe(w);
  }
};

TEST(AlertManagerTest, RaiseAfterDebouncesSingleWindowBlips) {
  Fixture f;
  f.window(0, true);
  EXPECT_TRUE(f.manager.alerts().empty());  // one window is not an incident
  f.window(1, false);
  f.window(2, true);
  EXPECT_TRUE(f.manager.alerts().empty());  // streak was broken
  f.window(3, true);
  ASSERT_EQ(f.manager.alerts().size(), 1u);  // two consecutive -> raised
  const Alert& alert = f.manager.alerts()[0];
  EXPECT_EQ(alert.state, AlertState::kActive);
  EXPECT_EQ(alert.severity, AlertSeverity::kWarning);
  // Back-dated to the first window of the streak for latency reporting.
  EXPECT_EQ(alert.raised_at, 2 * f.set.window);
  EXPECT_EQ(f.manager.stats().raised, 1u);
  EXPECT_EQ(f.manager.stats().active, 1u);
}

TEST(AlertManagerTest, PersistenceEscalatesToCritical) {
  Fixture f;
  for (std::int64_t i = 0; i < 3; ++i) f.window(i, true);
  ASSERT_EQ(f.manager.alerts().size(), 1u);
  EXPECT_EQ(f.manager.alerts()[0].severity, AlertSeverity::kWarning);
  f.window(3, true);  // 4th firing window = escalate_after
  EXPECT_EQ(f.manager.alerts()[0].severity, AlertSeverity::kCritical);
  EXPECT_EQ(f.manager.stats().escalated, 1u);
}

TEST(AlertManagerTest, QuiescenceResolves) {
  Fixture f;
  f.window(0, true);
  f.window(1, true);
  f.window(2, false);
  EXPECT_EQ(f.manager.alerts()[0].state, AlertState::kActive);  // 1 quiet < clear_after
  f.window(3, false);
  EXPECT_EQ(f.manager.alerts()[0].state, AlertState::kResolved);
  EXPECT_EQ(f.manager.alerts()[0].resolved_at, 3 * f.set.window);
  EXPECT_EQ(f.manager.stats().resolved, 1u);
  EXPECT_EQ(f.manager.stats().active, 0u);
}

TEST(AlertManagerTest, FlapWithinDampingHorizonReopensSameRecord) {
  Fixture f;
  f.window(0, true);
  f.window(1, true);
  f.window(2, false);
  f.window(3, false);  // resolved at window 3
  // Re-fires at windows 4-5: within damp_windows (3) of resolution.
  f.window(4, true);
  f.window(5, true);
  ASSERT_EQ(f.manager.alerts().size(), 1u);  // same record, not a new page
  const Alert& alert = f.manager.alerts()[0];
  EXPECT_EQ(alert.state, AlertState::kActive);
  EXPECT_EQ(alert.flaps, 1u);
  EXPECT_EQ(alert.episodes, 2u);
  EXPECT_EQ(f.manager.stats().reopened, 1u);
  EXPECT_EQ(f.manager.stats().raised, 1u);
}

TEST(AlertManagerTest, ReFireAfterDampingHorizonIsANewAlert) {
  Fixture f;
  f.window(0, true);
  f.window(1, true);
  f.window(2, false);
  f.window(3, false);  // resolved at window 3; horizon ends at window 6
  f.window(10, true);
  f.window(11, true);
  ASSERT_EQ(f.manager.alerts().size(), 2u);
  EXPECT_EQ(f.manager.alerts()[0].flaps, 0u);
  EXPECT_EQ(f.manager.stats().raised, 2u);
}

TEST(AlertManagerTest, DistinctKeysGetDistinctFingerprints) {
  Fixture f;
  WindowResult w;
  w.rule = &f.rule;
  w.rule_hash = AlertManager::rule_hash(f.rule);
  w.result.firing = true;
  w.key = WindowKey{1, 9};
  f.manager.observe(w);
  f.manager.observe(w);  // raise_after=2
  w.key = WindowKey{2, 9};
  f.manager.observe(w);
  f.manager.observe(w);
  ASSERT_EQ(f.manager.alerts().size(), 2u);
  EXPECT_NE(f.manager.alerts()[0].fingerprint, f.manager.alerts()[1].fingerprint);
}

TEST(AlertManagerTest, FingerprintIsStable) {
  Rule rule;
  rule.name = "drop-burst";
  const WindowKey key{3, 42};
  const auto fp1 = AlertManager::fingerprint(rule, key);
  const auto fp2 = AlertManager::fingerprint(rule, key);
  EXPECT_EQ(fp1, fp2);
  Rule other;
  other.name = "acl-deny";
  EXPECT_NE(fp1, AlertManager::fingerprint(other, key));
}

TEST(AlertManagerTest, FingerprintValuesArePinned) {
  // Golden values: alert fingerprints name incidents across runs and
  // tools, so a change to the hash is a format change, not a refactor.
  struct Golden {
    const char* rule;
    WindowKey key;
    std::uint64_t fingerprint;
  };
  const Golden golden[] = {
      {"drop-burst", {0, 0x0ull}, 0x1ac4b24c739e4577ull},
      {"drop-burst", {3, 0x1234abcdull}, 0x4472a13c2142b78bull},
      {"acl-deny", {17, 0x1f5ull}, 0x02a15e7feca754ccull},
      {"congestion-shift", {211, 0xffffffffull}, 0x58fb43badae8879bull},
      {"queue-latency", {3, 0x1234abcdull}, 0xf4d5df4998e55a53ull},
      {"pause-storm", {17, 0x1f5ull}, 0xdbe86459d8a91987ull},
      {"", {0, 0x0ull}, 0x7432e8a0a26c100dull},
      {"r", {211, 0xffffffffull}, 0xccc7441aecf35d71ull},
  };
  for (const Golden& g : golden) {
    Rule rule;
    rule.name = g.rule;
    EXPECT_EQ(AlertManager::fingerprint(rule, g.key), g.fingerprint) << g.rule;
    EXPECT_EQ(AlertManager::fingerprint(AlertManager::rule_hash(rule), g.key), g.fingerprint);
  }

  // A window engine hashes its rule once and stamps every window with
  // it; the manager folds the key into that hash for the same value.
  const RuleSet set = RuleSet::defaults();
  const Rule& drop_burst = set.rules[0];
  ASSERT_EQ(drop_burst.name, "drop-burst");
  WindowEngine engine(drop_burst, set);
  std::vector<WindowResult> closed;
  const auto sink = [&](const WindowResult& win) { closed.push_back(win); };
  packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                       packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6, 1000, 80};
  engine.offer(backend::StoredEvent{core::make_event(core::EventType::kDrop, flow, 3, 0), 0},
               sink);
  engine.advance(2 * set.window + set.lateness, sink);
  ASSERT_FALSE(closed.empty());
  EXPECT_EQ(closed[0].rule_hash, AlertManager::rule_hash(drop_burst));

  AlertManager manager(set);
  WindowResult w = closed[0];
  w.key = WindowKey{3, 0x1234abcdull};
  w.result.firing = true;
  manager.observe(w);
  ASSERT_EQ(manager.alerts().size(), 1u);
  EXPECT_EQ(manager.alerts()[0].fingerprint, 0x4472a13c2142b78bull);
}

TEST(AlertManagerTest, QuietWindowsForUnknownKeysAllocateNothing) {
  Fixture f;
  for (std::int64_t i = 0; i < 100; ++i) f.window(i, false);
  EXPECT_TRUE(f.manager.alerts().empty());
  EXPECT_EQ(f.manager.stats().raised, 0u);
}

}  // namespace
}  // namespace netseer::detect
