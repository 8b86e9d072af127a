#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "backend/event_store.h"
#include "detect/detector.h"
#include "detect/rules.h"
#include "util/ids.h"
#include "util/time.h"
#include "util/annotations.h"

namespace netseer::detect {

/// The grouping key one rule aggregates under: always the emitting
/// switch, plus a scope-dependent discriminator (flow hash, ACL rule
/// id, or nothing for device-wide rules).
struct WindowKey {
  util::NodeId switch_id = util::kInvalidNode;
  std::uint64_t group = 0;

  friend bool operator==(const WindowKey&, const WindowKey&) = default;
};

struct WindowKeyHash {
  std::size_t operator()(const WindowKey& key) const noexcept {
    // splitmix-style fold; keys are few, this only needs to spread.
    std::uint64_t x = key.group + 0x9e3779b97f4a7c15ull * (key.switch_id + 1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    return static_cast<std::size_t>(x);
  }
};

/// One closed window as handed to the alert pipeline.
struct WindowResult {
  const Rule* rule = nullptr;
  std::uint64_t rule_hash = 0;  // AlertManager::rule_hash(*rule), hashed once per engine
  WindowKey key;
  core::FlowEvent sample;  // last row seen for this key (fingerprint context)
  util::SimTime window_start = 0;
  bool empty = false;  // no rows landed in this window for this key
  DetectorResult result;
};

struct WindowEngineStats {
  std::uint64_t rows = 0;           // rows accepted into a window
  std::uint64_t late_rows = 0;      // rows behind an already-closed window (dropped)
  std::uint64_t windows_closed = 0; // non-empty windows evaluated
  std::uint64_t windows_empty = 0;  // empty windows evaluated (quiescence signal)
  std::uint64_t keys_created = 0;
  std::uint64_t keys_recycled = 0;  // idle-GC'd; detector returned to free list
  std::uint64_t keys_active = 0;
  std::uint64_t keys_visited = 0;   // key slots advance() touched (its work, not its output)
};

/// Tumbling-window aggregation for one rule. Rows are keyed by
/// (switch, scope discriminator) and bucketed by detection time into
/// windows of RuleSet::window width. Because every key pins one switch
/// and each switch emits events in time order, a row for a later bucket
/// proves the key's open window is complete, so windows close eagerly on
/// rollover; `advance()` closes the rest once the stream-wide watermark
/// (max detected_at minus lateness) passes them, emitting empty windows
/// so detectors and the alert pipeline see quiescence. Keys idle for
/// idle_gc_windows are garbage-collected and their slot (detector
/// included) is recycled through a free list — steady state allocates
/// nothing once the key population stabilizes.
///
/// Key state lives in a slot arena with stable indices. Each live slot
/// is threaded onto the intrusive due list of its open window's bucket:
/// a ring of kRingBuckets lists covering [cursor, cursor + kRingBuckets)
/// windows, plus one overflow list for keys far behind or far ahead of
/// the ring. advance() pops only the buckets its target passed, so a
/// pump costs O(rows + due windows), not O(live keys), and emits due
/// windows in a deterministic order: overflow slots first, then ring
/// buckets ascending, each list in link order.
class WindowEngine {
 public:
  using Sink = std::function<void(const WindowResult&)>;

  WindowEngine(const Rule& rule, const RuleSet& set);

  /// Offer one stored row; ignored unless it matches the rule's event
  /// type. May close this key's open window (rollover) via `sink`.
  NETSEER_HOT void offer(const backend::StoredEvent& row, const Sink& sink);

  /// Advance the stream-wide watermark: close every window it has
  /// passed, emit empty windows up to it, GC idle keys. Touches only the
  /// keys whose open window lies behind the new close target.
  NETSEER_HOT void advance(util::SimTime watermark, const Sink& sink);

  [[nodiscard]] const Rule& rule() const { return rule_; }
  [[nodiscard]] const WindowEngineStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t active_keys() const { return index_.size(); }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::int64_t kRingBuckets = 64;  // power of two
  static constexpr auto kOverflow = static_cast<std::uint32_t>(kRingBuckets);  // list id

  struct KeyState {
    WindowKey key;
    util::SimTime window_start = 0;
    std::uint64_t rows = 0;
    std::uint64_t packets = 0;
    double latency_sum = 0.0;
    std::uint32_t idle_windows = 0;
    // Intrusive links: the due list this slot sits on (a ring bucket or
    // kOverflow), or the free list (next only) once GC'd.
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t list = kNil;
    core::FlowEvent sample{};
    std::unique_ptr<Detector> detector;
  };

  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  [[nodiscard]] util::SimTime bucket(util::SimTime at) const;
  [[nodiscard]] double feature_value(const KeyState& state) const;
  void close_window(KeyState& state, bool empty, const Sink& sink);
  /// First row for a key: claim a slot, recycling a GC'd one (and its
  /// detector) off the free list when one is available. The allocating
  /// branch of offer(), taken once per key until the population
  /// stabilizes.
  NETSEER_HOT_ALLOW_INIT std::uint32_t materialize_key(const WindowKey& key,
                                                       util::SimTime start);
  /// Close + empty-fill `state` up to (excluding) `next_start`; returns
  /// false when the key went idle past the GC horizon and should die.
  bool roll_to(KeyState& state, util::SimTime next_start, const Sink& sink);
  /// Open a fresh window at `start` with a reset detector.
  void restart(KeyState& state, util::SimTime start);

  void enqueue(List& list, std::uint32_t idx);
  /// Append all of `from` to `into` in O(1), leaving `from` empty.
  void splice(List& into, List& from);
  void unlink(std::uint32_t idx);
  /// Whether bucket number `n` (window_start / window) has a ring list.
  [[nodiscard]] bool in_ring(std::int64_t n) const;
  /// Thread a slot onto the due list its window_start belongs to.
  void link(std::uint32_t idx);
  /// Walk the overflow list: slots due before bucket `target_n` move to
  /// `due`, slots that now fit the ring move into it.
  void sweep_overflow(std::int64_t target_n, List& due);
  /// Idle GC: drop the key, chain the slot onto the free list.
  void release(std::uint32_t idx);

  // Owned copy: WindowResult::rule points at it, and callers routinely
  // construct engines from temporaries. Engines must not be moved while
  // downstream consumers hold alert records referencing the rule.
  Rule rule_;
  std::uint64_t rule_hash_;
  util::SimDuration window_;
  util::SimDuration lateness_;
  std::uint32_t idle_gc_windows_;

  std::vector<KeyState> slots_;
  std::unordered_map<WindowKey, std::uint32_t, WindowKeyHash> index_;
  std::uint32_t free_head_ = kNil;
  std::array<List, kRingBuckets + 1> lists_{};  // ring buckets, then overflow
  // Lowest bucket number (window_start / window) the ring holds: list
  // n & (kRingBuckets - 1) holds bucket n for n in [cursor_, cursor_ +
  // kRingBuckets). Unset until the first advance(); before it every slot
  // waits on the overflow list.
  std::int64_t cursor_ = 0;
  bool cursor_set_ = false;
  // Lower bound on the overflow list's bucket numbers (exact after a sweep).
  std::int64_t overflow_min_ = std::numeric_limits<std::int64_t>::max();
  WindowEngineStats stats_;
};

}  // namespace netseer::detect
