// References computed apart from the program: the benchmark checks the
// program's outputs against these, never against the program's own
// views of the same data.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "backend/event_store.h"
#include "core/event.h"
#include "monitors/ground_truth.h"

namespace e2e {

/// Nearest-rank percentile, q in [0, 1]: the smallest sample with at
/// least q of the samples at or below it. 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Median (the 0.5 nearest-rank percentile).
[[nodiscard]] double median(std::vector<double> samples);

/// Brute-force EventQuery filter over the benchmark's own copy of the
/// events: flow, type, switch and the [from, to) detected_at window.
[[nodiscard]] bool matches(const netseer::backend::EventQuery& query, const netseer::core::FlowEvent& event);
[[nodiscard]] std::vector<netseer::core::FlowEvent> brute_force(
    std::span<const netseer::core::FlowEvent> events, const netseer::backend::EventQuery& query);

/// Order-free comparison of two event lists (the store returns rows in
/// LSN order, which per-switch batching makes differ from ingest order).
[[nodiscard]] bool same_events(std::vector<netseer::core::FlowEvent> a, std::vector<netseer::core::FlowEvent> b);

/// A (switch, flow, type) event group, as the paper scores coverage.
using Group = std::tuple<std::uint32_t, std::uint64_t, int>;
using GroupSet = std::set<Group>;

/// Ground-truth groups of `types` from the oracle's raw event records.
[[nodiscard]] GroupSet truth_groups(const std::vector<netseer::monitors::TrueEvent>& events,
                                    const std::vector<netseer::core::EventType>& types);
/// Stored groups of `types` from stored rows.
[[nodiscard]] GroupSet stored_groups(const std::vector<netseer::backend::StoredEvent>& rows,
                                     const std::vector<netseer::core::EventType>& types);
/// Groups of `want` absent from `have`.
[[nodiscard]] GroupSet missing(const GroupSet& want, const GroupSet& have);

/// An alert's identity: rule name, switch, flow (5-tuple hash).
using AlertId = std::tuple<std::string, std::uint32_t, std::uint64_t>;

/// One drop burst the backend generator injects: `events` drop events,
/// each counting `packets` packets, for one flow at one switch, all
/// detected inside one detection window starting at `start`.
struct Burst {
  std::uint32_t switch_id = 0;
  netseer::packet::FlowKey flow{};
  std::int64_t start = 0;
  std::uint32_t events = 0;
  std::uint16_t packets = 0;
};

/// The alerts the shipped drop-burst rule (threshold `threshold`
/// packets per window and flow) must raise for `bursts`.
[[nodiscard]] std::set<AlertId> expected_alerts(const std::vector<Burst>& bursts,
                                                double threshold);

}  // namespace e2e
