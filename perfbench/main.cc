// perfbench: the repository benchmark executable.
//
//   perfbench --workload <isp-precompute|lossy-localize|monitor-churn>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Runs one workload in this process (so peak_rss_mb belongs to it alone),
// checks its outputs, and prints one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones from a
// traced run. README.md documents every metric and the layer it follows.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "telemetry/metrics.h"
#include "trace.h"
#include "world.h"

namespace perfbench {
namespace {

bool parse_args(int argc, char** argv, Options* opt) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opt->seconds > 0.0)) return false;
    } else if (key == "--trace-out") {
      opt->trace_out = value;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      opt->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median_self_s(
    const std::map<std::string, std::vector<double>>& self_s,
    const std::string& name) {
  const auto it = self_s.find(name);
  return it == self_s.end() ? 0.0 : median_of(it->second);
}

// Every per-layer metric, on every workload (0 where the workload does not
// exercise the layer). Span-derived figures are median self times per call.
void report_layers(const LayerStats& l, Result& r) {
  const auto self_s = Tracer::get().self_seconds_by_name();
  const auto c = [](std::string_view name) {
    return static_cast<double>(
        telemetry::MetricsRegistry::global().counter(name).value());
  };
  const double episodes = static_cast<double>(l.episodes);

  r.layer("flow.synthesize_s", median_self_s(self_s, "flow.synthesize"), "s");
  r.layer("rule_graph.build_s", median_self_s(self_s, "rule_graph.build"),
          "s");
  r.layer("rule_graph.vertices", static_cast<double>(l.vertices), "count");
  r.layer("rule_graph.edges", static_cast<double>(l.edges), "count");
  r.layer("snapshot.build_s", median_self_s(self_s, "snapshot.build"), "s");
  r.layer("mlpc.solve_s", median_self_s(self_s, "mlpc.solve"), "s");
  r.layer("mlpc.cover_paths", static_cast<double>(l.cover_paths), "count");
  r.layer("mlpc.search_budget_consumed",
          ratio(c("mlpc.search_budget_consumed"), c("mlpc.solves")), "count");
  r.layer("probe_engine.make_probes_s",
          median_self_s(self_s, "probe_engine.make_probes"), "s");
  r.layer("probe_engine.commit_ratio",
          ratio(c("probe_engine.headers_committed"),
                c("probe_engine.header_candidates")),
          "ratio");
  r.layer("probe_engine.headers_by_sat", static_cast<double>(l.headers_by_sat),
          "count");
  r.layer("sat.session.queries", c("sat.session.queries"), "count");
  r.layer("localizer.run_ms", 1e3 * median_self_s(self_s, "localizer.run"),
          "ms");
  r.layer("localizer.rounds", ratio(static_cast<double>(l.rounds), episodes),
          "count");
  r.layer("localizer.retries_sent",
          ratio(static_cast<double>(l.retries_sent), episodes), "count");
  r.layer("localizer.recovery_ratio",
          ratio(static_cast<double>(l.retry_recoveries),
                static_cast<double>(l.retries_sent)),
          "ratio");
  // A p90 needs 100 samples; it reads 0 on a workload with fewer.
  Timings episode("localizer.episode_p90_ms");
  for (const double s : l.episode_s) episode.add(s);
  r.layer("localizer.episode_p90_ms", 1e3 * episode.percentile(0.9).value_or(0),
          "ms");
  r.layer("dataplane.build_ms", 1e3 * median_self_s(self_s, "dataplane.build"),
          "ms");
  r.layer("dataplane.packets_forwarded",
          ratio(static_cast<double>(l.packets_forwarded), episodes), "count");
  r.layer("dataplane.packet_ins",
          ratio(static_cast<double>(l.packet_ins), episodes), "count");
  r.layer("dataplane.channel_drops",
          ratio(static_cast<double>(l.channel_drops), episodes), "count");
  r.layer("dataplane.forwarded_per_s",
          ratio(static_cast<double>(l.packets_forwarded), l.localizer_wall_s),
          "1/s");
  r.layer("monitor.construct_s", median_self_s(self_s, "monitor.construct"),
          "s");
  r.layer("monitor.drain_ms",
          1e3 * median_self_s(self_s, "monitor.drain_churn"), "ms");
  Timings drain("monitor.drain_p90_ms");
  for (const double s : l.drain_s) drain.add(s);
  r.layer("monitor.drain_p90_ms", 1e3 * drain.percentile(0.9).value_or(0),
          "ms");
  r.layer("monitor.round_ms", 1e3 * median_self_s(self_s, "monitor.run_round"),
          "ms");
  r.layer("monitor.keep_ratio",
          ratio(static_cast<double>(l.probes_kept),
                static_cast<double>(l.probes_kept + l.probes_regenerated)),
          "ratio");
  r.layer("verifier.total_verify_ms", l.verify_ms, "ms");
  r.layer("verifier.reuse_ratio",
          ratio(static_cast<double>(l.classes_reused),
                static_cast<double>(l.classes_reused + l.classes_verified)),
          "ratio");
  r.layer("repair.heal_ms", 1e3 * median_self_s(self_s, "repair.heal"), "ms");
  r.layer("repair.time_to_heal_s", median_of(l.time_to_heal_s), "s");
  r.layer("lint.runs", c("lint.runs"), "count");
  r.layer("host.calibration_ms", 1e3 * host_calibration_s(), "ms");
  r.layer("telemetry.overhead_ratio",
          ratio(median_of(l.traced_unit_s), median_of(l.untraced_unit_s)),
          "ratio");
}

void print_result(const Result& r, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted()),
              static_cast<unsigned long long>(r.failed()));
  const auto& list = trace ? r.layers() : r.metrics();
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Metric& m = list[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse_args(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <isp-precompute|lossy-localize|"
                 "monitor-churn> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  // Telemetry stays off outside traced units, whatever SDNPROBE_METRICS
  // says, so untraced runs measure the library with recording disabled.
  telemetry::MetricsRegistry::global().set_enabled(false);

  Result result;
  LayerStats layers;
  if (opt.workload == "isp-precompute") {
    run_isp_precompute(opt, result, layers);
  } else if (opt.workload == "lossy-localize") {
    run_lossy_localize(opt, result, layers);
  } else if (opt.workload == "monitor-churn") {
    run_monitor_churn(opt, result, layers);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  if (opt.trace) {
    report_layers(layers, result);
    if (!opt.trace_out.empty() && !Tracer::get().write_json(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
    }
  }
  print_result(result, opt.trace);
  return 0;
}
