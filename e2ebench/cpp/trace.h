// Benchmark-side spans around each call into a program layer.
//
// A span is (name, start, end, parent). Spans nest on the one thread
// that drives a workload, so a span's self time is its duration minus
// the durations of its direct children. Untraced rounds pass a null
// tracer: Scope then costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  double start_s = 0.0;  // seconds since the tracer was made
  double end_s = 0.0;
  std::int64_t parent = -1;  // index into Tracer::spans(), -1 = root
};

class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on `tracer` that closes with the scope; records
  /// nothing when `tracer` is null.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when recording is off
    std::size_t index_ = 0;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name, summed over every span of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Write every span plus `meta_json` (an object) as one JSON file.
  /// Returns false when the file cannot be written.
  [[nodiscard]] bool write_json(const std::string& path, const std::string& meta_json) const;

 private:
  [[nodiscard]] double now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // stack of open span indexes
};

/// Self time of each span given flat (start, end, parent) records:
/// duration minus the summed durations of direct children.
[[nodiscard]] std::map<std::string, double> self_times(const std::vector<Span>& spans);

}  // namespace e2e
