#include "world.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "controller/controller.h"
#include "core/scenario.h"
#include "flow/synthesizer.h"
#include "sim/event_loop.h"
#include "telemetry/metrics.h"
#include "topo/generator.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {

void Result::gate(bool ok, std::string_view what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: correctness gate failed: %.*s\n",
               static_cast<int>(what.size()), what.data());
}

void Result::metric(std::string name, double value, std::string unit) {
  gate(std::isfinite(value) && value > 0.0,
       name + " must be a positive number");
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Result::layer(std::string name, double value, std::string unit) {
  gate(std::isfinite(value), name + " must be finite");
  layers_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Detection::add(const std::vector<flow::SwitchId>& flagged,
                    const std::vector<flow::SwitchId>& truth,
                    int switch_count, double delay) {
  std::uint64_t hit = 0;
  for (const flow::SwitchId s : flagged) {
    if (std::binary_search(truth.begin(), truth.end(), s)) ++hit;
  }
  faulty += truth.size();
  faulty_flagged += hit;
  clean += static_cast<std::uint64_t>(switch_count) - truth.size();
  clean_flagged += flagged.size() - hit;
  if (hit > 0) delay_s.push_back(delay);
}

void report_end_to_end(const EndToEnd& e2e, Result& result) {
  const Detection& d = e2e.detection;
  const double calibration_s = host_calibration_s();
  result.gate(calibration_s > 0.0, "no host-speed calibration sample");
  const double scale =
      calibration_s > 0.0 ? kReferenceCalibrationS / calibration_s : 0.0;
  result.metric("setup_s", scale * e2e.setup.median(result), "s");
  result.metric("precompute_s", scale * e2e.precompute.median(result), "s");
  result.metric("probe_count", static_cast<double>(e2e.probe_count),
                "count");
  result.metric("episode_ms", scale * 1e3 * e2e.episode.median(result),
                "ms");
  result.metric("probes_per_episode",
                static_cast<double>(e2e.episode_probes) /
                    static_cast<double>(std::max<std::size_t>(
                        e2e.episode.size(), 1)),
                "count");
  result.gate(d.delay_s.size() >= kMinRepeats,
              "detect_delay_s: fewer than 5 detections");
  result.metric("detect_delay_s", median_of(d.delay_s), "s");
  result.metric("detect_tpr",
                static_cast<double>(d.faulty_flagged) /
                    static_cast<double>(std::max<std::uint64_t>(d.faulty, 1)),
                "ratio");
  result.metric(
      "detect_specificity",
      1.0 - static_cast<double>(d.clean_flagged) /
                static_cast<double>(std::max<std::uint64_t>(d.clean, 1)),
      "ratio");
  result.gate(e2e.loop_s >= kMinAggregateSeconds,
              "loop_s: timed loop shorter than 1 s");
  result.metric("loop_s", scale * e2e.loop_s, "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

namespace {

// The calibration kernel: open-addressing inserts and lookups, then a sort,
// over buffers allocated once so that heap state never reaches the timing.
class CalibrationKernel {
 public:
  CalibrationKernel() : table_(kSlots), keys_(kKeys), sorted_(kKeys) {}

  double run() {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::fill(table_.begin(), table_.end(), 0);
    for (std::uint64_t& k : keys_) {
      k = next() | 1;
      std::size_t i = k & (kSlots - 1);
      while (table_[i] != 0 && table_[i] != k) i = (i + 1) & (kSlots - 1);
      table_[i] = k;
    }
    std::uint64_t hits = 0;
    for (std::size_t j = 0; j < 2 * kKeys; ++j) {
      const std::uint64_t k = j % 2 == 0 ? keys_[j / 2] : next() | 1;
      std::size_t i = k & (kSlots - 1);
      while (table_[i] != 0 && table_[i] != k) i = (i + 1) & (kSlots - 1);
      hits += table_[i] == k ? 1 : 0;
    }
    std::copy(keys_.begin(), keys_.end(), sorted_.begin());
    std::sort(sorted_.begin(), sorted_.end());
    sink_ = hits + sorted_[kKeys / 2];
    return seconds_since(t0);
  }

 private:
  static constexpr std::size_t kSlots = std::size_t{1} << 17;
  static constexpr std::size_t kKeys = std::size_t{1} << 15;
  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> sorted_;
  volatile std::uint64_t sink_ = 0;
};

struct HostSpeed {
  CalibrationKernel kernel;
  std::vector<double> samples;
  std::chrono::steady_clock::time_point last{};
};

HostSpeed& host_speed() {
  static HostSpeed h;
  return h;
}

}  // namespace

void sample_host_speed() {
  HostSpeed& h = host_speed();
  h.samples.push_back(h.kernel.run());
  h.last = std::chrono::steady_clock::now();
}

void sample_host_speed_if_due() {
  if (seconds_since(host_speed().last) >= kCalibrationPeriodS) {
    sample_host_speed();
  }
}

double host_calibration_s() { return median_of(host_speed().samples); }

double Timings::median(Result& result) const {
  const bool aggregates =
      !xs_.empty() && *std::min_element(xs_.begin(), xs_.end()) >=
                          kMinAggregateSeconds;
  result.gate(xs_.size() >= kMinRepeats || aggregates,
              name_ + ": median of fewer than 5 sub-second samples");
  return median_of(xs_);
}

std::optional<double> Timings::percentile(double q) const {
  std::vector<double> xs = xs_;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  // Nearest rank: the smallest sample with at least q·n samples at or
  // below it; everything after that rank lies beyond the percentile.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  if (rank < 1 || rank > n || n - rank < kMinTailSamples) return std::nullopt;
  return xs[rank - 1];
}

double peak_rss_mb() {
  rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

flow::RuleSet synthesize_network(const NetworkShape& shape,
                                 std::uint64_t seed) {
  Tracer::Scope span("flow.synthesize");
  topo::GeneratorConfig tc;
  tc.node_count = shape.switches;
  tc.link_count = shape.links;
  tc.seed = util::Rng::derive(seed, 1);
  const topo::Graph g = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = shape.rules;
  sc.aggregates = true;
  sc.set_field_fraction = 0.05;
  sc.k_paths = 3;
  sc.seed = util::Rng::derive(seed, 2);
  return flow::synthesize_ruleset(g, sc);
}

ProbeSet precompute(const flow::RuleSet& rules, std::uint64_t seed) {
  ProbeSet out;
  {
    Tracer::Scope span("rule_graph.build");
    out.graph = std::make_unique<core::RuleGraph>(rules);
  }
  {
    Tracer::Scope span("snapshot.build");
    out.snapshot = std::make_unique<core::AnalysisSnapshot>(*out.graph);
  }
  {
    Tracer::Scope span("mlpc.solve");
    core::MlpcConfig mc;
    mc.common.threads = 1;
    mc.common.seed = seed;
    out.cover = core::MlpcSolver(mc).solve(*out.snapshot);
  }
  {
    Tracer::Scope span("probe_engine.make_probes");
    core::ProbeEngineConfig pc;
    pc.common.threads = 1;
    core::ProbeEngine engine(*out.snapshot, pc);
    util::Rng rng(seed);
    out.probes = engine.make_probes(out.cover, rng);
    out.stats = engine.stats();
  }
  return out;
}

bool covers_every_active_vertex(const core::AnalysisSnapshot& snap,
                                const std::vector<core::Probe>& probes) {
  std::vector<char> seen(static_cast<std::size_t>(snap.vertex_count()), 0);
  for (const core::Probe& p : probes) {
    for (const core::VertexId v : p.path) {
      if (v >= 0 && v < snap.vertex_count()) seen[v] = 1;
    }
  }
  for (core::VertexId v = 0; v < snap.vertex_count(); ++v) {
    if (snap.is_active(v) && !seen[v]) return false;
  }
  return true;
}

core::LocalizerConfig episode_localizer_config(std::uint64_t seed) {
  core::LocalizerConfig lc;
  lc.common.threads = 1;
  lc.common.seed = seed;
  lc.confirm_retries = 2;
  lc.adaptive_timeout = true;
  lc.charge_generation_time = false;
  return lc;
}

bool hit_max_rounds(const core::DetectionReport& report) {
  return report.rounds >= episode_localizer_config(0).max_rounds;
}

Episode run_episode(const core::AnalysisSnapshot& snap,
                    const std::vector<core::Probe>& cover,
                    const EpisodeSpec& spec) {
  Tracer::Scope episode_span("episode");
  Episode ep;
  const flow::RuleSet& rules = snap.rules();
  sim::EventLoop loop;
  dataplane::NetworkConfig nc;
  nc.channel = spec.channel;
  nc.channel.seed = util::Rng::derive(spec.seed, 3);
  std::unique_ptr<dataplane::Network> net;
  {
    Tracer::Scope span("dataplane.build");
    net = std::make_unique<dataplane::Network>(rules, loop, nc);
  }
  controller::Controller ctrl(rules, *net);
  if (spec.faults > 0) {
    util::Rng rng(util::Rng::derive(spec.seed, 4));
    const std::vector<flow::EntryId> entries = core::plan_basic_faults(
        snap.graph(), spec.faults, spec.mix, rng, &net->faults());
    for (const flow::EntryId e : entries) {
      ep.faulty_switches.push_back(rules.entry(e).switch_id);
    }
    std::sort(ep.faulty_switches.begin(), ep.faulty_switches.end());
    ep.faulty_switches.erase(
        std::unique(ep.faulty_switches.begin(), ep.faulty_switches.end()),
        ep.faulty_switches.end());
  }
  const core::LocalizerConfig lc =
      episode_localizer_config(util::Rng::derive(spec.seed, 5));
  core::FaultLocalizer localizer(snap, ctrl, loop, lc);
  localizer.set_cover_probes(cover);
  sample_host_speed_if_due();
  {
    Tracer::Scope span("localizer.run");
    const auto t0 = std::chrono::steady_clock::now();
    ep.report = localizer.run();
    ep.run_s = seconds_since(t0);
  }
  ep.counters = net->counters();
  ep.channel = net->channel().counters();
  return ep;
}

void Fingerprint::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::mix_probes(const std::vector<core::Probe>& probes) {
  mix(probes.size());
  for (const core::Probe& p : probes) {
    mix(p.path.size());
    for (const core::VertexId v : p.path) mix(static_cast<std::uint64_t>(v));
    mix(p.header.hash());
    mix(p.expected_return.hash());
    mix(static_cast<std::uint64_t>(p.inject_switch));
  }
}

void Fingerprint::mix_report(const core::DetectionReport& r) {
  mix(r.flagged_switches.size());
  for (const flow::SwitchId s : r.flagged_switches) {
    mix(static_cast<std::uint64_t>(s));
  }
  std::uint64_t bits = 0;
  std::memcpy(&bits, &r.detection_time_s, sizeof bits);
  mix(bits);
  std::memcpy(&bits, &r.total_time_s, sizeof bits);
  mix(bits);
  mix(r.probes_sent);
  mix(r.retries_sent);
  mix(r.retry_recoveries);
  mix(static_cast<std::uint64_t>(r.rounds));
  for (const auto& [sw, entry] : r.flag_culprits) {
    mix(static_cast<std::uint64_t>(sw));
    mix(static_cast<std::uint64_t>(entry));
  }
}

void LayerStats::add_episode(const Episode& ep) {
  episode_s.push_back(ep.run_s);
  if (!Tracer::get().enabled()) return;
  ++episodes;
  rounds += static_cast<std::uint64_t>(ep.report.rounds);
  retries_sent += ep.report.retries_sent;
  retry_recoveries += ep.report.retry_recoveries;
  packets_forwarded += ep.counters.packets_forwarded;
  packet_ins += ep.counters.packet_ins;
  channel_drops += ep.channel.link_drops + ep.channel.control_drops;
  localizer_wall_s += ep.run_s;
}

double LayerStats::units_s() const {
  double s = 0.0;
  for (const double x : traced_unit_s) s += x;
  for (const double x : untraced_unit_s) s += x;
  return s;
}

void set_tracing(bool on) {
  Tracer::get().set_enabled(on);
  telemetry::MetricsRegistry::global().set_enabled(on);
}

UnitScope::UnitScope(const Options& opt, std::size_t unit,
                     LayerStats& layers)
    : traced_(opt.trace && unit % 2 == 0), layers_(&layers) {
  sample_host_speed_if_due();
  set_tracing(traced_);
  start_ = std::chrono::steady_clock::now();
}

UnitScope::~UnitScope() {
  const double s = seconds_since(start_);
  set_tracing(false);
  (traced_ ? layers_->traced_unit_s : layers_->untraced_unit_s).push_back(s);
}

}  // namespace perfbench
