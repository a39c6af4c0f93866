// In-memory span tracing around the benchmark's calls into the library.
//
// A span has a name, a start, an end, the span that was open when it
// began (its parent), and the VmRSS change across it. Spans are kept in
// memory and written out when the run ends. A span's self time is its
// duration minus the time its child spans cover.
//
// Stage is the one timing primitive the workloads use: it always reads
// the clock (the untraced run needs the durations for its end-to-end
// metrics) and records a span only when tracing is on, so the untraced
// run pays two clock reads per stage and nothing else.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start = 0.0;  // seconds, perfbench::now_s()
  double end = 0.0;
  int parent = -1;     // index into Tracer::spans(), -1 for a root
  double rss_delta_mb = 0.0;
};

/// Per-name totals over every span of that name.
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  double rss_delta_mb = 0.0;
};

class Tracer {
 public:
  void enable(bool on) { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  int begin(const char* name);
  void end(int id);

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  /// Self time of span `id`: its duration minus its children's.
  double self_time(int id) const;
  std::map<std::string, SpanTotals> totals() const;

  /// Writes one JSON object per span (name, start, end, parent, self,
  /// rss_delta_mb) to `path`.
  void write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  std::vector<double> rss_at_begin_;
};

Tracer& tracer();

class Stage {
 public:
  explicit Stage(const char* name);
  ~Stage();
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Ends the stage (idempotent) and returns its duration in seconds.
  double stop();

 private:
  double start_ = 0.0;
  double elapsed_ = -1.0;
  int span_ = -1;
};

}  // namespace perfbench
