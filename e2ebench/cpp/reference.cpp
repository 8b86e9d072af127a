#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace e2e {

using namespace netseer;

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n));
  if (rank == 0) rank = 1;
  return samples[rank - 1];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

bool matches(const backend::EventQuery& query, const core::FlowEvent& event) {
  if (query.flow && !(event.flow == *query.flow)) return false;
  if (query.type && event.type != *query.type) return false;
  if (query.switch_id && event.switch_id != *query.switch_id) return false;
  if (query.from && event.detected_at < *query.from) return false;
  if (query.to && event.detected_at >= *query.to) return false;
  return true;
}

std::vector<core::FlowEvent> brute_force(std::span<const core::FlowEvent> events,
                                         const backend::EventQuery& query) {
  std::vector<core::FlowEvent> out;
  for (const auto& event : events) {
    if (matches(query, event)) out.push_back(event);
  }
  return out;
}

namespace {

bool event_less(const core::FlowEvent& a, const core::FlowEvent& b) {
  if (a.detected_at != b.detected_at) return a.detected_at < b.detected_at;
  if (a.switch_id != b.switch_id) return a.switch_id < b.switch_id;
  const auto wa = a.serialize();
  const auto wb = b.serialize();
  return std::memcmp(wa.data(), wb.data(), wa.size()) < 0;
}

}  // namespace

bool same_events(std::vector<core::FlowEvent> a, std::vector<core::FlowEvent> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end(), event_less);
  std::sort(b.begin(), b.end(), event_less);
  return a == b;
}

namespace {

bool wanted(const std::vector<core::EventType>& types, core::EventType type) {
  return std::find(types.begin(), types.end(), type) != types.end();
}

}  // namespace

GroupSet truth_groups(const std::vector<monitors::TrueEvent>& events,
                      const std::vector<core::EventType>& types) {
  GroupSet set;
  for (const auto& ev : events) {
    if (wanted(types, ev.type)) {
      set.emplace(ev.node, ev.flow.hash64(), static_cast<int>(ev.type));
    }
  }
  return set;
}

GroupSet stored_groups(const std::vector<backend::StoredEvent>& rows,
                       const std::vector<core::EventType>& types) {
  GroupSet set;
  for (const auto& row : rows) {
    if (wanted(types, row.event.type)) {
      set.emplace(row.event.switch_id, row.event.flow.hash64(),
                  static_cast<int>(row.event.type));
    }
  }
  return set;
}

GroupSet missing(const GroupSet& want, const GroupSet& have) {
  GroupSet out;
  std::set_difference(want.begin(), want.end(), have.begin(), have.end(),
                      std::inserter(out, out.end()));
  return out;
}

std::set<AlertId> expected_alerts(const std::vector<Burst>& bursts, double threshold) {
  std::set<AlertId> out;
  for (const auto& burst : bursts) {
    if (static_cast<double>(burst.events) * burst.packets >= threshold) {
      out.emplace("drop-burst", burst.switch_id, burst.flow.hash64());
    }
  }
  return out;
}

}  // namespace e2e
