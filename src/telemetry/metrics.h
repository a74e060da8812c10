// Telemetry subsystem: a process-wide metrics registry (DESIGN.md §10).
//
// The registry owns named Counters, Gauges, and Histograms plus the
// completed TraceSpan records (see trace.h). Components resolve their
// instruments once (construction time) and record through them on hot
// paths; every record call first branches on the registry's atomic enabled
// flag, so a disabled registry costs one relaxed load per site and writes
// nothing. Recording is strictly observational — no instrument touches RNG
// streams, simulated time, or any algorithm state — which is what keeps
// determinism guarantees intact with telemetry on or off.
//
// Lifecycle: MetricsRegistry::global() is the instance the instrumented
// subsystems use. It starts enabled iff the SDNPROBE_METRICS environment
// variable is set (mirroring SDNPROBE_LOG), and when that variable names a
// path the registry's JSON export is written there at process exit. Tests
// and benches construct private registries or call set_enabled() directly.
//
// Thread safety: all instrument operations and registry lookups are safe
// from any thread. Counters/gauges are single atomics; histograms take a
// short mutex; instrument resolution (counter()/gauge()/histogram()) locks
// the registry map and returns a pointer stable for the registry's lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json_writer.h"
#include "util/stats.h"

namespace sdnprobe::telemetry {

class MetricsRegistry;

// Monotonic event count. add() is wait-free (one relaxed fetch_add).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<std::uint64_t> value_{0};
};

// Last-written value with a high-water mark (e.g. queue depth). set() and
// set_max() are lock-free.
class Gauge {
 public:
  void set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
    update_max(v);
  }
  // Raises the high-water mark without recording a current value change.
  void set_max(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    update_max(v);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void update_max(double v) {
    double cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
  std::atomic<double> max_{0.0};
};

// Value distribution with two backends: fixed bucket counts (always, O(1)
// memory) and exact quantiles via util::Samples up to `sample_cap` recorded
// values (after which quantiles describe the first `sample_cap` samples and
// the bucket counts stay exact). Mean/min/max come from util::Accumulator
// and are always exact.
class Histogram {
 public:
  void record(double v);

  std::size_t count() const;
  double mean() const;
  double min() const;
  double max() const;
  // Exact quantile over the retained sample window; 0.0 when empty.
  double quantile(double q) const;

  const std::vector<double>& bucket_bounds() const { return bounds_; }
  // bucket i counts values <= bounds_[i]; the last bucket is the overflow.
  std::vector<std::uint64_t> bucket_counts() const;

 private:
  friend class MetricsRegistry;
  Histogram(const std::atomic<bool>* enabled, std::vector<double> bounds,
            std::size_t sample_cap);

  const std::atomic<bool>* enabled_;
  const std::vector<double> bounds_;
  const std::size_t sample_cap_;
  mutable std::mutex mu_;
  util::Accumulator acc_;
  util::Samples samples_;
  std::vector<std::uint64_t> buckets_;  // bounds_.size() + 1 (overflow)
};

// One finished trace span (recorded by telemetry::TraceSpan's destructor).
struct SpanRecord {
  std::string name;
  int depth = 0;            // nesting level on the recording thread (0 = root)
  std::uint64_t thread = 0;  // small sequential id, same scheme as logging
  double wall_ms = 0.0;     // wall-clock duration
  bool has_sim = false;     // sim_* fields valid (a sim clock was attached)
  double sim_start_s = 0.0;  // sim::SimTime at span open
  double sim_end_s = 0.0;    // sim::SimTime at span close
  // Small typed payload, e.g. {"round", 7}, {"failures", 2}.
  std::vector<std::pair<std::string, double>> attrs;
};

class MetricsRegistry {
 public:
  // Construction state: disabled unless `enabled` (instruments can still be
  // resolved while disabled; they record nothing until enabled).
  explicit MetricsRegistry(bool enabled = false) : enabled_(enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry used by the instrumented subsystems. Enabled
  // at first use iff SDNPROBE_METRICS is set in the environment; when that
  // value is a non-empty path, the JSON export is written there at exit.
  static MetricsRegistry& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Get-or-create by name. Returned references stay valid for the
  // registry's lifetime. Names are dot-separated lowercase paths
  // ("dataplane.packets_forwarded").
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // `bounds` applies on first creation only (subsequent lookups reuse the
  // existing histogram); empty bounds use a generic log-spaced default.
  Histogram& histogram(std::string_view name,
                       std::vector<double> bounds = {});

  // Appends a finished span. Spans beyond `span_cap()` are counted but
  // dropped (the `spans_dropped` counter in exports).
  void record_span(SpanRecord span);
  static constexpr std::size_t span_cap() { return 65536; }
  std::vector<SpanRecord> spans() const;

  // Clears every instrument value and span (instrument identities survive:
  // pointers previously handed out keep working). For tests and benches
  // that reuse the global registry across repetitions.
  void reset();

  // --- Exporters (export.cc). ---
  // Human-readable table of every instrument with a non-zero footprint.
  std::string to_text() const;
  // Stable-schema document: {"schema":"sdnprobe.metrics.v1", "counters":
  // {...}, "gauges":{...}, "histograms":{...}, "spans":[...]}.
  JsonValue to_json() const;

 private:
  std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  // std::map: exports iterate in name order without re-sorting; node-based
  // storage keeps instrument addresses stable across rehash-free growth.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<SpanRecord> spans_;
  std::uint64_t spans_dropped_ = 0;
};

// Writes `registry.to_json()` (pretty-printed) to `path`. Returns false and
// logs a warning when the file cannot be written.
bool write_metrics_file(const MetricsRegistry& registry,
                        const std::string& path);

}  // namespace sdnprobe::telemetry
