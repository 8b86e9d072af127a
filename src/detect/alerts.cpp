#include "detect/alerts.h"

namespace netseer::detect {

const char* to_string(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::kWarning: return "warning";
    case AlertSeverity::kCritical: return "critical";
  }
  return "?";
}

const char* to_string(AlertState state) {
  switch (state) {
    case AlertState::kActive: return "active";
    case AlertState::kResolved: return "resolved";
  }
  return "?";
}

std::uint64_t AlertManager::rule_hash(const Rule& rule) {
  // FNV-1a over the rule name — stable across runs (no pointer or ASLR
  // input), which the e2e tests rely on.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : rule.name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t AlertManager::fingerprint(std::uint64_t rule_hash, const WindowKey& key) {
  // One more FNV step folds in the window key's mix.
  return (rule_hash ^ WindowKeyHash{}(key)) * 0x100000001b3ull;
}

namespace {

void note_firing(Alert& alert, const WindowResult& win) {
  alert.last_firing = win.window_start;
  alert.last_expected = win.result.expected;
  if (win.result.value > alert.peak_value) alert.peak_value = win.result.value;
  if (win.result.score > alert.peak_score) alert.peak_score = win.result.score;
}

}  // namespace

void AlertManager::observe(const WindowResult& win) {
  const Rule& rule = *win.rule;
  const std::uint64_t fp = fingerprint(win.rule_hash, win.key);
  auto it = tracks_.find(fp);
  if (it == tracks_.end()) {
    // Fast path: a quiet window for a key with no standing state.
    if (!win.result.firing) return;
    it = tracks_.emplace(fp, Track{}).first;
  }
  Track& track = it->second;

  if (win.result.firing) {
    track.quiet_streak = 0;
    ++track.firing_streak;

    Alert* alert = track.alert_index >= 0 ? &alerts_[static_cast<std::size_t>(
                                                track.alert_index)]
                                          : nullptr;
    if (alert != nullptr && alert->state == AlertState::kActive) {
      ++alert->firing_windows;
      note_firing(*alert, win);
      if (alert->severity == AlertSeverity::kWarning &&
          alert->firing_windows >= rule.escalate_after) {
        alert->severity = AlertSeverity::kCritical;
        ++stats_.escalated;
      }
      return;
    }
    if (track.firing_streak < rule.raise_after) return;  // still debouncing

    const util::SimDuration damp_horizon =
        static_cast<util::SimDuration>(rule.damp_windows) * window_;
    if (alert != nullptr && win.window_start - alert->resolved_at <= damp_horizon) {
      // Flap: the same fingerprint re-fired right after resolving.
      // Reopen the existing record (severity is sticky) instead of
      // paging a second time.
      alert->state = AlertState::kActive;
      alert->firing_windows = track.firing_streak;
      ++alert->episodes;
      ++alert->flaps;
      note_firing(*alert, win);
      ++stats_.reopened;
      ++stats_.active;
      return;
    }

    Alert fresh;
    fresh.fingerprint = fp;
    fresh.rule = &rule;
    fresh.key = win.key;
    fresh.sample = win.sample;
    fresh.firing_windows = track.firing_streak;
    // Back-date to the first window of the debounce streak so the
    // incident reports measure true detection latency.
    fresh.raised_at = win.window_start -
                      static_cast<util::SimDuration>(track.firing_streak - 1) * window_;
    note_firing(fresh, win);
    if (fresh.firing_windows >= rule.escalate_after) {
      fresh.severity = AlertSeverity::kCritical;
      ++stats_.escalated;
    }
    track.alert_index = static_cast<std::int64_t>(alerts_.size());
    alerts_.push_back(fresh);
    ++stats_.raised;
    ++stats_.active;
    return;
  }

  track.firing_streak = 0;
  if (track.alert_index < 0) {
    // A debounce streak that never reached raise_after fizzled out.
    tracks_.erase(it);
    return;
  }
  Alert& alert = alerts_[static_cast<std::size_t>(track.alert_index)];
  if (alert.state != AlertState::kActive) return;  // resolved; waiting out damping
  ++track.quiet_streak;
  if (track.quiet_streak >= rule.clear_after) {
    alert.state = AlertState::kResolved;
    alert.resolved_at = win.window_start;
    ++stats_.resolved;
    --stats_.active;
  }
}

}  // namespace netseer::detect
