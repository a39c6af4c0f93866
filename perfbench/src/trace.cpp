#include "trace.hpp"

#include <cstdio>

#include "common.hpp"

namespace perfbench {

int Tracer::begin(const char* name) {
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  rss_at_begin_.push_back(vm_rss_mb());
  span.start = now_s();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  const double end = now_s();
  SpanRecord& span = spans_[static_cast<std::size_t>(id)];
  span.end = end;
  // Spans nest strictly (Stage is scoped), so the closing span is the
  // innermost open one.
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
    span.rss_delta_mb = vm_rss_mb() - rss_at_begin_.back();
    rss_at_begin_.pop_back();
  }
}

double Tracer::self_time(int id) const {
  const SpanRecord& span = spans_[static_cast<std::size_t>(id)];
  double children = 0.0;
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size();
       ++i) {
    if (spans_[i].parent == id) children += spans_[i].end - spans_[i].start;
  }
  return (span.end - span.start) - children;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<std::size_t>(span.parent)] +=
          span.end - span.start;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    SpanTotals& totals = out[span.name];
    totals.total_s += span.end - span.start;
    totals.self_s += (span.end - span.start) - child_time[i];
    totals.rss_delta_mb += span.rss_delta_mb;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d,\"self\":%.9f,\"rss_delta_mb\":%.3f}\n",
                 i, json_escape(span.name).c_str(), span.start, span.end,
                 span.parent, self_time(static_cast<int>(i)),
                 span.rss_delta_mb);
  }
  std::fclose(file);
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

Stage::Stage(const char* name) {
  if (tracer().enabled()) span_ = tracer().begin(name);
  start_ = now_s();
}

Stage::~Stage() { stop(); }

double Stage::stop() {
  if (elapsed_ < 0.0) {
    elapsed_ = now_s() - start_;
    if (span_ >= 0) tracer().end(span_);
  }
  return elapsed_;
}

}  // namespace perfbench
