// Pieces both workload kinds share: the query mix and run bookkeeping.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "core/event.h"
#include "store/store.h"
#include "workload.h"

namespace e2e {

/// num / den, 0 when den is 0 (a layer the workload did not exercise).
[[nodiscard]] inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A query the mix issued and what the store returned, kept for
/// checking after the timed part of the round: `prefix` is how many of
/// the benchmark's events the store held when it ran.
struct IssuedQuery {
  netseer::backend::EventQuery query;
  std::size_t prefix = 0;
  int kind = 0;
  std::vector<netseer::core::FlowEvent> got;
};

/// Issue `per_kind` queries of each kind against `store` — by flow, by
/// switch plus detection-time window, by type plus window, the types in
/// turn — timing each (scan plus reading every row) into `latency_us`,
/// and append each with its result to `issued`. The store holds the
/// first `prefix` of `events`, the benchmark's own copy of what it was
/// given. Flows and switches are those of events drawn from that prefix,
/// so popular flows are queried more; windows are `window` wide and lie
/// in [0, end). `turn` carries the type rotation across calls. Returns
/// the number of queries issued.
std::uint64_t run_query_mix(const netseer::store::FlowEventStore& store,
                            const std::vector<netseer::core::FlowEvent>& events,
                            std::size_t prefix, std::mt19937_64& rng, std::uint32_t per_kind,
                            std::int64_t window, std::int64_t end, std::uint64_t& turn,
                            std::vector<double>& latency_us, std::vector<IssuedQuery>& issued,
                            Tracer* tracer);

/// Check every issued query's rows against a brute-force filter over
/// the events the store held when it ran. Untimed: the filter streams
/// every event, so it runs after the timed queries, not between them.
void check_queries(const std::vector<netseer::core::FlowEvent>& events,
                   const std::vector<IssuedQuery>& issued, Outcome& outcome);

}  // namespace e2e
