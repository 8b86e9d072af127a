#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "detect/window.h"

namespace netseer::detect {

enum class AlertSeverity : std::uint8_t { kWarning, kCritical };
enum class AlertState : std::uint8_t { kActive, kResolved };

[[nodiscard]] const char* to_string(AlertSeverity severity);
[[nodiscard]] const char* to_string(AlertState state);

/// One alert episode (possibly reopened across flaps). The fingerprint
/// is stable across the alert's whole life: hash of (rule name, switch,
/// scope discriminator), so the same victim re-firing dedups onto the
/// same record instead of paging again.
struct Alert {
  std::uint64_t fingerprint = 0;
  const Rule* rule = nullptr;
  WindowKey key;
  core::FlowEvent sample;  // a representative event (flow, ports, drop code)
  AlertSeverity severity = AlertSeverity::kWarning;
  AlertState state = AlertState::kActive;

  util::SimTime raised_at = 0;     // start of the first window of the first episode
  util::SimTime last_firing = 0;   // start of the most recent firing window
  util::SimTime resolved_at = 0;   // valid when state == kResolved

  std::uint32_t firing_windows = 0;  // firing windows in the current episode
  std::uint32_t episodes = 1;        // 1 + reopen count
  std::uint32_t flaps = 0;           // re-fires within the damping horizon

  double peak_value = 0.0;
  double peak_score = 0.0;
  double last_expected = 0.0;
};

struct AlertStats {
  std::uint64_t raised = 0;     // new alert records created
  std::uint64_t reopened = 0;   // resolved alerts re-activated (flap damping)
  std::uint64_t escalated = 0;  // warning -> critical transitions
  std::uint64_t resolved = 0;
  std::uint64_t active = 0;     // currently-active count
};

/// The alert pipeline: consumes every closed window and runs the
/// per-fingerprint state machine —
///
///   idle --raise_after consecutive firing windows--> active(warning)
///   active --escalate_after firing windows--> active(critical)
///   active --clear_after consecutive quiet windows--> resolved
///   resolved --re-fire within damp_windows--> reopened (same record,
///       flap counted) instead of a fresh page
///
/// raise_after debounces one-window blips; the per-family hysteresis in
/// DetectorResult.firing plus the damping horizon keep an oscillating
/// signal from generating an alert storm. Non-firing windows for keys
/// with no standing state are the fast path: no track is allocated.
class AlertManager {
 public:
  explicit AlertManager(const RuleSet& set) : window_(set.window) {}

  /// Feed one closed window (the WindowEngine sink).
  void observe(const WindowResult& win);

  /// Every alert ever raised, in raise order (reopens mutate in place).
  [[nodiscard]] const std::vector<Alert>& alerts() const { return alerts_; }
  [[nodiscard]] const AlertStats& stats() const { return stats_; }

  /// FNV-1a over the rule name: the per-rule half of a fingerprint.
  [[nodiscard]] static std::uint64_t rule_hash(const Rule& rule);
  /// Fold a window key into a rule_hash() value.
  [[nodiscard]] static std::uint64_t fingerprint(std::uint64_t rule_hash, const WindowKey& key);
  [[nodiscard]] static std::uint64_t fingerprint(const Rule& rule, const WindowKey& key) {
    return fingerprint(rule_hash(rule), key);
  }

 private:
  struct Track {
    std::uint32_t firing_streak = 0;
    std::uint32_t quiet_streak = 0;
    std::int64_t alert_index = -1;  // into alerts_, -1 = never raised
  };

  util::SimDuration window_;
  std::unordered_map<std::uint64_t, Track> tracks_;
  std::vector<Alert> alerts_;
  AlertStats stats_;
};

}  // namespace netseer::detect
