// Shared pieces of the three workloads: input synthesis, the ruleset →
// probe-set pipeline, one localization episode, output fingerprints, the
// statistics rules every reported timing obeys, and the result record the
// benchmark prints. See README.md for why each rule exists.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis_snapshot.h"
#include "core/localizer.h"
#include "core/mlpc.h"
#include "core/probe_engine.h"
#include "core/rule_graph.h"
#include "core/scenario.h"
#include "dataplane/channel_model.h"
#include "dataplane/network.h"
#include "flow/ruleset.h"

namespace perfbench {

using namespace sdnprobe;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // span dump of a traced run (JSON lines)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. `gate` records a correctness check; any
// failed gate makes the run incorrect and is explained on stderr.
class Result {
 public:
  void gate(bool ok, std::string_view what);
  // An end-to-end metric (printed by untraced runs).
  void metric(std::string name, double value, std::string unit);
  // A per-layer metric (printed by traced runs).
  void layer(std::string name, double value, std::string unit);
  void count_attempt(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<Metric>& layers() const { return layers_; }

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<Metric> layers_;
};

// ---- Steadiness rules (README.md, "Rules every timing obeys") ----

// Fewest repeats a reported median may rest on, unless every sample is an
// aggregate of at least kMinAggregateSeconds of work.
inline constexpr std::size_t kMinRepeats = 5;
inline constexpr double kMinAggregateSeconds = 1.0;
// A percentile is reported only when at least this many samples lie beyond
// it.
inline constexpr std::size_t kMinTailSamples = 10;

// A series of wall-clock samples of one kind of unit (seconds).
class Timings {
 public:
  explicit Timings(std::string name) : name_(std::move(name)) {}
  void add(double seconds) { xs_.push_back(seconds); }
  std::size_t size() const { return xs_.size(); }
  // Median; gates `result` on the repeat rule above.
  double median(Result& result) const;
  // The q-quantile (nearest rank), or nothing when the tail rule above
  // does not hold.
  std::optional<double> percentile(double q) const;

 private:
  std::string name_;
  std::vector<double> xs_;
};

double median_of(std::vector<double> xs);

// ---- Host-speed normalization ----
//
// The 4-vCPU VM this benchmark was tuned on changes speed by up to 1.4x for
// minutes at a time, which moves every wall time of a run together. Each
// run therefore times a fixed calibration kernel (benchmark code only: a
// hash table and a sort over buffers allocated once, so no library change
// can move it) at every set-up and at most every kCalibrationPeriodS during
// the timed loop, and scales its end-to-end wall times by
// kReferenceCalibrationS / (median kernel time). On a host that runs the
// kernel in the reference time the scale is 1 and the figures are plain
// wall times. The raw kernel median is the per-layer metric
// host.calibration_ms.
inline constexpr double kReferenceCalibrationS = 0.0045;
inline constexpr double kCalibrationPeriodS = 0.2;

// Times the kernel once and keeps the sample.
void sample_host_speed();
// Samples when kCalibrationPeriodS has passed since the last sample.
void sample_host_speed_if_due();
// Median kernel time so far, in seconds (0 before any sample).
double host_calibration_s();


// Wall seconds since `t0` on the steady clock.
double seconds_since(std::chrono::steady_clock::time_point t0);

// Peak resident set of this process, in MiB.
double peak_rss_mb();

// ---- Inputs ----

// Every workload times its loop on one fixed network, synthesized from this
// seed, so the run-to-run spread of its timings is measurement noise rather
// than network-to-network variation: with networks drawn from --seed, five
// seeds spread isp-precompute's precompute_s by 12% and lossy-localize's
// episode_ms by 12%. --seed draws what happens on the network (fault plans,
// channel-loss draws, localizer jitter) and isp-precompute's audit network.
inline constexpr std::uint64_t kNetworkSeed = 1;

struct NetworkShape {
  int switches = 20;
  int links = 36;
  long rules = 10'000;
};

// Topology and ruleset for `shape`, both drawn from `seed`: destination
// routes over K=3 shortest paths, aggregates, 5% set-field rewrites.
flow::RuleSet synthesize_network(const NetworkShape& shape, std::uint64_t seed);

// ---- The ruleset → probe-set pipeline (the paper's pre-computation) ----

struct ProbeSet {
  std::unique_ptr<core::RuleGraph> graph;
  std::unique_ptr<core::AnalysisSnapshot> snapshot;
  core::Cover cover;
  std::vector<core::Probe> probes;
  core::ProbeStats stats;
};

// Rule graph → snapshot → deterministic MLPC → make_probes, single-threaded.
ProbeSet precompute(const flow::RuleSet& rules, std::uint64_t seed);

// True when every active rule-graph vertex lies on some probe's path.
bool covers_every_active_vertex(const core::AnalysisSnapshot& snap,
                                const std::vector<core::Probe>& probes);

// ---- One localization episode on a fresh dataplane ----

struct EpisodeSpec {
  std::uint64_t seed = 1;
  std::size_t faults = 0;  // entry faults drawn from `mix`
  core::FaultMix mix;      // default: drop, misdirect and modify
  dataplane::ChannelModelConfig channel;  // noiseless by default
};

struct Episode {
  core::DetectionReport report;
  std::vector<flow::SwitchId> faulty_switches;  // ground truth, sorted
  dataplane::NetworkCounters counters;
  dataplane::ChannelCounters channel;
  double run_s = 0.0;  // wall time of FaultLocalizer::run alone
};

// Localizer settings shared by every episode: loss-tolerant (two confirm
// retries, adaptive timeouts) and with generation time kept off the
// simulated clock, so simulated metrics do not depend on the host.
core::LocalizerConfig episode_localizer_config(std::uint64_t seed);

// True when an episode stopped at max_rounds instead of reaching a verdict.
bool hit_max_rounds(const core::DetectionReport& report);

Episode run_episode(const core::AnalysisSnapshot& snap,
                    const std::vector<core::Probe>& cover,
                    const EpisodeSpec& spec);

// Localization accuracy against ground truth, summed over episodes.
struct Detection {
  std::uint64_t faulty = 0;          // faulty switch-episodes
  std::uint64_t faulty_flagged = 0;
  std::uint64_t clean = 0;           // clean switch-episodes
  std::uint64_t clean_flagged = 0;
  std::vector<double> delay_s;  // simulated time to the last correct flag

  // One episode over `switch_count` switches; `delay_s` is recorded when at
  // least one faulty switch was flagged.
  void add(const std::vector<flow::SwitchId>& flagged,
           const std::vector<flow::SwitchId>& truth, int switch_count,
           double delay_s);
};

// The end-to-end figures every workload reports (README.md lists how each
// workload defines its units).
struct EndToEnd {
  Timings setup{"setup_s"};
  Timings precompute{"precompute_s"};
  std::size_t probe_count = 0;
  Timings episode{"episode_ms"};
  std::uint64_t episode_probes = 0;  // probes sent plus retries, all episodes
  Detection detection;
  double loop_s = 0.0;  // every timed unit together
};

void report_end_to_end(const EndToEnd& e2e, Result& result);

// ---- Output fingerprints (FNV-1a over the observable outputs) ----

class Fingerprint {
 public:
  void mix(std::uint64_t v);
  void mix_probes(const std::vector<core::Probe>& probes);
  void mix_report(const core::DetectionReport& report);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---- Per-layer accounting for the traced run ----

// Counters read from the library's public stats structs over the traced
// units of a run. Span self times and telemetry-registry counters are read
// separately (main.cc); the registry is enabled only while a traced unit
// runs, so its totals cover exactly those units.
struct LayerStats {
  // Rule graph of the workload's network.
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t cover_paths = 0;
  std::uint64_t headers_by_sat = 0;  // ProbeStats, summed
  // FaultLocalizer episodes (DetectionReport, NetworkCounters).
  std::uint64_t episodes = 0;
  std::uint64_t rounds = 0;
  std::uint64_t retries_sent = 0;
  std::uint64_t retry_recoveries = 0;
  std::uint64_t packets_forwarded = 0;
  std::uint64_t packet_ins = 0;
  std::uint64_t channel_drops = 0;
  double localizer_wall_s = 0.0;
  std::vector<double> episode_s;  // every episode, traced or not
  // Monitor (ChurnStats, VerifySummary) and repair (RepairOutcome).
  std::uint64_t probes_kept = 0;
  std::uint64_t probes_regenerated = 0;
  std::uint64_t classes_reused = 0;
  std::uint64_t classes_verified = 0;
  double verify_ms = 0.0;
  std::vector<double> drain_s;       // every churn batch, traced or not
  std::vector<double> time_to_heal_s;  // simulated, per successful heal
  // Wall time of each unit of work, split by whether it was traced.
  std::vector<double> traced_unit_s;
  std::vector<double> untraced_unit_s;

  void add_episode(const Episode& ep);
  // Wall time of every timed unit together.
  double units_s() const;
};

// Brackets one timed unit of work, after sampling the host-speed kernel
// when due. When the run is traced and the unit is one of the traced half
// (even units), the span recorder and the library's telemetry registry are
// enabled for the unit's lifetime. The unit's wall time lands in the traced
// or untraced series, whose medians give telemetry.overhead_ratio.
class UnitScope {
 public:
  UnitScope(const Options& opt, std::size_t unit, LayerStats& layers);
  ~UnitScope();
  UnitScope(const UnitScope&) = delete;
  UnitScope& operator=(const UnitScope&) = delete;

 private:
  bool traced_;
  LayerStats* layers_;
  std::chrono::steady_clock::time_point start_{};
};

// Enables both recorders for set-up in a traced run (set-up is not part of
// the overhead comparison).
void set_tracing(bool on);

// ---- Workloads (one per source file) ----

void run_isp_precompute(const Options& opt, Result& result,
                        LayerStats& layers);
void run_lossy_localize(const Options& opt, Result& result,
                        LayerStats& layers);
void run_monitor_churn(const Options& opt, Result& result,
                       LayerStats& layers);

}  // namespace perfbench
