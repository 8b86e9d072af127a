// What every workload takes and what it hands back to main().
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measure whole rounds until this much wall time is spent
  bool trace = false;
  std::string work_dir;   // store directories and the trace file go here
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One run's result. `attempted` counts fabric runs, store recoveries,
/// ingest chunks, queries and detect passes; every round attempts the
/// same operations, so `failed` is a fixed share of it.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rounds = 0;
  std::vector<Metric> metrics;       // end-to-end, from untraced rounds
  std::map<std::string, double> layers;  // per-layer, from traced rounds
  std::vector<std::string> summary;  // human-readable lines printed before the result

  /// Record a failed correctness check; the run's result turns incorrect.
  void fail(const std::string& what) {
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  void add(std::string name, std::string unit, double value) {
    metrics.push_back(Metric{std::move(name), std::move(unit), value});
  }
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// peak_rss_mb is read after this many untraced rounds, a fixed amount
/// of work: read at the end it would grow with the rounds a run fits.
inline constexpr std::uint64_t kRssRounds = 3;

/// Seed of round `round` of a run seeded `seed` (splitmix64 mix, so
/// neighbouring run seeds give unrelated round inputs).
[[nodiscard]] std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round);

Outcome run_fabric(const RunOptions& options, Tracer& tracer);
Outcome run_backend(const RunOptions& options, Tracer& tracer);

}  // namespace e2e
