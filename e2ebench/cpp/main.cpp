// netseer_e2e: the end-to-end NetSeer benchmark. run.py builds and runs
// it; see ../README.md.
//
//   netseer_e2e --workload fabric-web-lossy --seed 1 --seconds 20 --trace 0
//               --work-dir DIR [--trace-file FILE] [--commit SHA]
//
// Prints a metadata line, a few human-readable lines, then as its last
// line one JSON object: correct, attempted, failed and the metrics —
// end-to-end ones with --trace 0, per-layer ones with --trace 1.
// Exits 1 when a correctness check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workload.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using e2e::Outcome;

/// Every per-layer metric, in print order, with its unit. A workload
/// that does not exercise a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"scenarios.build_s", "s"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.traffic_s", "s"},
    {"sim.drain_s", "s"},
    {"sim.task_heap_allocs", "count"},
    {"traffic.flows_started", "count"},
    {"pdp.packets", "count"},
    {"pdp.mmu_drops", "count"},
    {"pdp_net_monitors.s", "s"},
    {"core.agent_ns_per_pkt", "ns"},
    {"core.flush_s", "s"},
    {"core.dedup_ratio", "ratio"},
    {"core.fp_eliminated", "count"},
    {"core.report_lag_p99_us", "us"},
    {"backend.segments", "count"},
    {"backend.duplicates", "count"},
    {"store.flush_s", "s"},
    {"store.add_batch_s", "s"},
    {"store.sync_s", "s"},
    {"store.checkpoint_s", "s"},
    {"store.recover_s", "s"},
    {"store.query_s", "s"},
    {"store.query_p99_us", "us"},
    {"store.wal_bytes_per_event", "B"},
    {"store.fsync_groups", "count"},
    {"store.rows_examined_per_match", "ratio"},
    {"store.prune_ratio", "ratio"},
    {"detect.construct_s", "s"},
    {"detect.pump_s", "s"},
    {"detect.pump_p99_us", "us"},
    {"detect.rows", "count"},
    {"detect.windows_closed", "count"},
    {"detect.late_rows", "count"},
    {"trace.overhead_s", "s"},
};

const char* const kWorkloads[] = {"fabric-web-lossy", "fabric-incast-churn",
                                  "backend-restart-tail"};

int usage(const char* why) {
  std::fprintf(stderr,
               "netseer_e2e: %s\nusage: netseer_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-file FILE] [--commit SHA]\n"
               "workloads: fabric-web-lossy fabric-incast-churn backend-restart-tail\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions options;
  std::string trace_file;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds <= 0) return usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const char* name : kWorkloads) known = known || options.workload == name;
  if (!have_workload || !known) return usage("unknown or missing --workload");
  if (options.work_dir.empty()) return usage("missing --work-dir");
  std::filesystem::create_directories(options.work_dir);

  char meta[512];
  std::snprintf(meta, sizeof(meta),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
                "\"nproc\": %u, \"compiler\": \"gcc %s\", \"build_type\": \"%s\", "
                "\"commit\": \"%s\"}",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, std::thread::hardware_concurrency(),
                json_escape(__VERSION__).c_str(), E2E_BUILD_TYPE,
                json_escape(commit).c_str());
  std::printf("meta %s\n", meta);
  std::fflush(stdout);

  e2e::Tracer tracer;
  const Outcome out = options.workload == "backend-restart-tail"
                          ? e2e::run_backend(options, tracer)
                          : e2e::run_fabric(options, tracer);
  std::filesystem::remove_all(options.work_dir);

  for (const auto& line : out.summary) std::printf("%s\n", line.c_str());
  std::printf("rounds %llu\n", static_cast<unsigned long long>(out.rounds));

  std::string metrics;
  const auto add = [&](const std::string& name, const std::string& unit, double value) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), value, unit.c_str());
    metrics += buf;
  };
  if (options.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = out.layers.find(name);
      add(name, unit, it == out.layers.end() ? 0.0 : it->second);
    }
    if (!trace_file.empty() && !tracer.write_json(trace_file, meta)) {
      std::fprintf(stderr, "netseer_e2e: cannot write %s\n", trace_file.c_str());
    }
  } else {
    for (const auto& m : out.metrics) add(m.name, m.unit, m.value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return out.correct ? 0 : 1;
}
