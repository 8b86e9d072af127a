#include "common.h"

#include <sys/resource.h>

#include <cstdio>
#include <string>

#include "reference.h"

namespace e2e {

using namespace netseer;

double peak_rss_mb() {
  // VmHWM is this address space's own high-water mark. getrusage's
  // ru_maxrss survives exec, so under run.py it reads at least the
  // Python parent's resident set at fork, more than the backend uses.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + round + 1;
  x = (x ^ (x >> 30u)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27u)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31u);
}

std::uint64_t run_query_mix(const store::FlowEventStore& store,
                            const std::vector<core::FlowEvent>& events, std::size_t prefix,
                            std::mt19937_64& rng, std::uint32_t per_kind, std::int64_t window,
                            std::int64_t end, std::uint64_t& turn, std::vector<double>& latency_us,
                            std::vector<IssuedQuery>& issued, Tracer* tracer) {
  if (prefix == 0) return 0;
  static constexpr core::EventType kTypes[] = {core::EventType::kDrop,
                                               core::EventType::kCongestion,
                                               core::EventType::kPathChange};
  std::uint64_t count = 0;
  for (std::uint32_t i = 0; i < per_kind; ++i) {
    for (int kind = 0; kind < 3; ++kind) {
      const auto& sample = events[rng() % prefix];
      const std::int64_t from =
          end > window ? static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(end - window))
                       : 0;
      IssuedQuery& q = issued.emplace_back();
      q.prefix = prefix;
      q.kind = kind;
      if (kind == 0) {
        q.query.for_flow(sample.flow);
      } else if (kind == 1) {
        q.query.for_switch(sample.switch_id).between(from, from + window);
      } else {
        q.query.of_type(kTypes[turn++ % 3]).between(from, from + window);
      }
      const auto start = Clock::now();
      {
        Tracer::Scope span(tracer, "store.query");
        for (const auto& row : store.scan(q.query)) q.got.push_back(row.event);
      }
      latency_us.push_back(seconds_since(start) * 1e6);
      ++count;
    }
  }
  return count;
}

void check_queries(const std::vector<core::FlowEvent>& events,
                   const std::vector<IssuedQuery>& issued, Outcome& outcome) {
  for (const auto& q : issued) {
    if (!same_events(q.got, brute_force({events.data(), q.prefix}, q.query))) {
      outcome.fail("query kind " + std::to_string(q.kind) + " returned " +
                   std::to_string(q.got.size()) + " rows, brute force disagrees");
    }
  }
}

}  // namespace e2e
