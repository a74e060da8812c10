// In-memory span recorder for the traced run (--trace 1).
//
// Spans wrap the benchmark's own calls into each library layer; nothing
// inside src/ is instrumented from here. A span stores its name, start and
// end on the steady clock, the span that was open when it started (its
// parent) and the root span of the unit of work it belongs to (one pass,
// episode or churn batch), so the dump is a real tree rather than a flat
// list. With tracing off a Scope is one branch and records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  // seconds since the tracer was created
  double end_s = 0.0;
  int parent = -1;  // index into Tracer::spans(), -1 for a root
  int root = -1;    // index of the root span of the same unit of work
};

class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // RAII span: opened at construction, closed at destruction.
  class Scope {
   public:
    explicit Scope(std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    int index_ = -1;  // -1 when tracing was off at open
  };

  // Self time of every closed span (its duration minus the durations of its
  // direct children; spans are single-threaded, so children never overlap),
  // grouped by span name, in recording order.
  std::map<std::string, std::vector<double>> self_seconds_by_name() const;

  // Writes every span as JSON lines. Returns false when the file cannot be
  // written.
  bool write_json(const std::string& path) const;

 private:
  Tracer();
  double now_s() const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace perfbench
