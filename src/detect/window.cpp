#include "detect/window.h"

#include <algorithm>

#include "detect/alerts.h"

namespace netseer::detect {

WindowEngine::WindowEngine(const Rule& rule, const RuleSet& set)
    : rule_(rule), rule_hash_(AlertManager::rule_hash(rule_)), window_(set.window),
      lateness_(set.lateness), idle_gc_windows_(set.idle_gc_windows) {}

util::SimTime WindowEngine::bucket(util::SimTime at) const {
  auto q = at / window_;
  if (at < 0 && at % window_ != 0) --q;
  return q * window_;
}

double WindowEngine::feature_value(const KeyState& state) const {
  switch (rule_.feature) {
    case Feature::kPackets: return static_cast<double>(state.packets);
    case Feature::kEvents: return static_cast<double>(state.rows);
    case Feature::kLatencyMeanUs:
      return state.rows == 0 ? 0.0 : state.latency_sum / static_cast<double>(state.rows);
  }
  return 0.0;
}

void WindowEngine::close_window(KeyState& state, bool empty, const Sink& sink) {
  WindowResult out;
  out.rule = &rule_;
  out.rule_hash = rule_hash_;
  out.key = state.key;
  out.sample = state.sample;
  out.window_start = state.window_start;
  out.empty = empty;
  out.result = state.detector->observe(feature_value(state), empty);
  if (empty) ++stats_.windows_empty;
  else ++stats_.windows_closed;
  if (sink) sink(out);
}

bool WindowEngine::roll_to(KeyState& state, util::SimTime next_start, const Sink& sink) {
  while (state.window_start < next_start) {
    const bool empty = state.rows == 0;
    close_window(state, empty, sink);
    state.idle_windows = empty ? state.idle_windows + 1 : 0;
    state.rows = 0;
    state.packets = 0;
    state.latency_sum = 0.0;
    state.window_start += window_;
    if (state.idle_windows > idle_gc_windows_) return false;
  }
  return true;
}

void WindowEngine::restart(KeyState& state, util::SimTime start) {
  state.detector->reset();
  state.window_start = start;
  state.rows = 0;
  state.packets = 0;
  state.latency_sum = 0.0;
  state.idle_windows = 0;
}

void WindowEngine::enqueue(List& list, std::uint32_t idx) {
  KeyState& state = slots_[idx];
  state.prev = list.tail;
  state.next = kNil;
  if (list.tail == kNil) {
    list.head = idx;
  } else {
    slots_[list.tail].next = idx;
  }
  list.tail = idx;
}

void WindowEngine::splice(List& into, List& from) {
  if (from.head == kNil) return;
  if (into.tail == kNil) {
    into.head = from.head;
  } else {
    slots_[into.tail].next = from.head;
    slots_[from.head].prev = into.tail;
  }
  into.tail = from.tail;
  from = List{};
}

void WindowEngine::unlink(std::uint32_t idx) {
  KeyState& state = slots_[idx];
  List& list = lists_[state.list];
  if (state.prev == kNil) {
    list.head = state.next;
  } else {
    slots_[state.prev].next = state.next;
  }
  if (state.next == kNil) {
    list.tail = state.prev;
  } else {
    slots_[state.next].prev = state.prev;
  }
}

bool WindowEngine::in_ring(std::int64_t n) const {
  return cursor_set_ && n >= cursor_ && n - cursor_ < kRingBuckets;
}

void WindowEngine::link(std::uint32_t idx) {
  KeyState& state = slots_[idx];
  // window_start is always window-aligned, so this division is exact.
  const std::int64_t n = state.window_start / window_;
  if (in_ring(n)) {
    state.list = static_cast<std::uint32_t>(n & (kRingBuckets - 1));
  } else {
    state.list = kOverflow;
    overflow_min_ = std::min(overflow_min_, n);
  }
  enqueue(lists_[state.list], idx);
}

void WindowEngine::sweep_overflow(std::int64_t target_n, List& due) {
  std::int64_t low = std::numeric_limits<std::int64_t>::max();
  for (std::uint32_t idx = lists_[kOverflow].head; idx != kNil;) {
    const std::uint32_t next = slots_[idx].next;
    const std::int64_t n = slots_[idx].window_start / window_;
    if (n < target_n) {
      unlink(idx);
      enqueue(due, idx);  // counted as visited when advance() rolls it
    } else {
      ++stats_.keys_visited;
      if (in_ring(n)) {
        unlink(idx);
        link(idx);
      } else {
        low = std::min(low, n);
      }
    }
    idx = next;
  }
  overflow_min_ = low;
}

void WindowEngine::release(std::uint32_t idx) {
  KeyState& state = slots_[idx];
  index_.erase(state.key);
  state.list = kNil;
  state.next = free_head_;
  free_head_ = idx;
  ++stats_.keys_recycled;
}

std::uint32_t WindowEngine::materialize_key(const WindowKey& key, util::SimTime start) {
  std::uint32_t idx = free_head_;
  if (idx != kNil) {
    free_head_ = slots_[idx].next;
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back().detector = make_detector(rule_);
  }
  slots_[idx].key = key;
  restart(slots_[idx], start);
  index_.emplace(key, idx);
  link(idx);
  ++stats_.keys_created;
  return idx;
}

void WindowEngine::offer(const backend::StoredEvent& row, const Sink& sink) {
  const core::FlowEvent& event = row.event;
  if (event.type != rule_.type) return;

  WindowKey key;
  key.switch_id = event.switch_id;
  switch (rule_.scope) {
    case Scope::kDeviceFlow: key.group = event.flow_hash; break;
    case Scope::kDevice: key.group = 0; break;
    case Scope::kDeviceRule: key.group = event.acl_rule_id; break;
  }
  const util::SimTime start = bucket(event.detected_at);

  std::uint32_t idx = 0;
  if (const auto it = index_.find(key); it == index_.end()) {
    idx = materialize_key(key, start);
  } else {
    idx = it->second;
    KeyState& state = slots_[idx];
    if (start < state.window_start) {
      // Behind a window this key already closed; the watermark contract
      // was violated (or lateness is too tight). Count, don't crash.
      ++stats_.late_rows;
      return;
    }
    if (start > state.window_start) {
      if (!roll_to(state, start, sink)) {
        // The key went dark past the GC horizon and is now back: restart
        // it with a fresh baseline rather than resuming stale state.
        restart(state, start);
        ++stats_.keys_recycled;
      }
      unlink(idx);
      link(idx);
    }
  }

  KeyState& state = slots_[idx];
  ++state.rows;
  state.packets += event.counter;
  state.latency_sum += static_cast<double>(event.queue_latency_us);
  state.sample = event;
  ++stats_.rows;
  stats_.keys_active = index_.size();
}

void WindowEngine::advance(util::SimTime watermark, const Sink& sink) {
  const util::SimTime target = bucket(watermark - lateness_);
  const std::int64_t target_n = target / window_;

  // Detach every ring bucket the target passed before the cursor moves:
  // survivors relink at the target, which may share a bucket's ring
  // position with a passed one.
  List ring_due;
  if (cursor_set_ && target_n > cursor_) {
    const std::int64_t end = std::min(target_n, cursor_ + kRingBuckets);
    for (std::int64_t n = cursor_; n < end; ++n) {
      splice(ring_due, lists_[static_cast<std::size_t>(n & (kRingBuckets - 1))]);
    }
  }
  if (!cursor_set_ || target_n > cursor_) {
    cursor_ = target_n;
    cursor_set_ = true;
  }

  List due;
  if (overflow_min_ < cursor_ + kRingBuckets) sweep_overflow(target_n, due);
  splice(due, ring_due);

  for (std::uint32_t idx = due.head; idx != kNil;) {
    const std::uint32_t next = slots_[idx].next;
    ++stats_.keys_visited;
    if (roll_to(slots_[idx], target, sink)) {
      link(idx);
    } else {
      release(idx);
    }
    idx = next;
  }
  stats_.keys_active = index_.size();
}

}  // namespace netseer::detect
