#include "trace.h"

#include <cstdio>

namespace e2e {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : static_cast<std::int64_t>(tracer_->open_.back());
  span.start_s = tracer_->now();
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_s = tracer_->now();
  tracer_->open_.pop_back();
}

std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const auto& span : spans) {
    if (span.parent >= 0) {
      child[static_cast<std::size_t>(span.parent)] += span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[spans[i].name] += spans[i].end_s - spans[i].start_s - child[i];
  }
  return self;
}

std::map<std::string, double> Tracer::self_seconds() const { return self_times(spans_); }

bool Tracer::write_json(const std::string& path, const std::string& meta_json) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"meta\": %s,\n \"self_s\": {", meta_json.c_str());
  bool first = true;
  for (const auto& [name, seconds] : self_seconds()) {
    std::fprintf(f, "%s\"%s\": %.9f", first ? "" : ", ", name.c_str(), seconds);
    first = false;
  }
  std::fprintf(f, "},\n \"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "  {\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, \"parent\": %lld}%s\n",
                 s.name.c_str(), s.start_s, s.end_s, static_cast<long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, " ]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
