// isp-precompute: the paper's pre-computation path (Table II, topology 2).
//
// Set-up synthesizes a 30-switch, 54-link, ~33.6k-rule network. Each timed
// unit is one ruleset → probe-set pass (rule graph → snapshot → MLPC →
// make_probes) followed by a few noiseless localization episodes with
// entry drops drawn from --seed, which verify the fresh probe set in use. Pass time dominates
// the run, so this workload moves with flow, rule_graph, mlpc and
// probe_engine and barely with the localizer or the dataplane.
#include <algorithm>
#include <cmath>

#include "trace.h"
#include "util/rng.h"
#include "world.h"

namespace perfbench {
namespace {

constexpr NetworkShape kShape{30, 54, 33'637};
constexpr std::size_t kSetups = 9;
constexpr std::size_t kEpisodesPerPass = 3;
constexpr std::size_t kFaultsPerEpisode = 2;
// Nominal seconds one pass with its episodes takes on a 4-core x86 host;
// sizes the pass count from --seconds.
constexpr double kNominalUnitS = 3.8;

EpisodeSpec verification_episode(std::uint64_t seed, std::size_t pass,
                                  std::size_t i) {
  EpisodeSpec spec;
  spec.seed = util::Rng::derive(seed, 1000 + pass * kEpisodesPerPass + i);
  spec.faults = kFaultsPerEpisode;
  spec.mix.misdirect = false;
  spec.mix.modify = false;
  return spec;
}

}  // namespace

void run_isp_precompute(const Options& opt, Result& result,
                        LayerStats& layers) {
  EndToEnd e2e;
  set_tracing(opt.trace);
  flow::RuleSet rules;
  for (std::size_t i = 0; i < kSetups; ++i) {
    sample_host_speed();
    const auto t0 = std::chrono::steady_clock::now();
    rules = synthesize_network(kShape, kNetworkSeed);
    e2e.setup.add(seconds_since(t0));
  }
  set_tracing(false);
  const int switches = rules.switch_count();

  // Audit, untimed: the same pipeline on a network drawn from --seed, and
  // one fault-free, noiseless episode with its probes. The probe set must
  // cover the network and the episode must flag nothing. Probes the episode
  // loses are counted as a failed attempt rather than gated: on some seeds
  // a fault-free network already loses probes (README.md, "Known program
  // defects").
  {
    const flow::RuleSet audit_rules = synthesize_network(kShape, opt.seed);
    const ProbeSet ps = precompute(audit_rules, opt.seed);
    result.gate(covers_every_active_vertex(*ps.snapshot, ps.probes),
                "isp-precompute: audit probe set leaves a vertex uncovered");
    EpisodeSpec clean;
    clean.seed = util::Rng::derive(opt.seed, 999);
    const Episode ep = run_episode(*ps.snapshot, ps.probes, clean);
    result.gate(ep.report.flagged_switches.empty(),
                "isp-precompute: a clean-network episode flagged a switch");
    std::size_t lost = 0;
    for (const core::RoundRecord& r : ep.report.round_log) lost += r.failures;
    result.count_attempt(lost > 0);
  }

  // Warm-up pass: fills caches and allocator pools, and is the reference
  // every timed pass must reproduce bit for bit. Its episodes replay the
  // seeds of timed pass 0.
  Fingerprint reference;
  std::vector<std::uint64_t> reference_reports;
  {
    const ProbeSet ps = precompute(rules, kNetworkSeed);
    reference.mix_probes(ps.probes);
    result.gate(covers_every_active_vertex(*ps.snapshot, ps.probes),
                "isp-precompute: probe set leaves an active vertex uncovered");
    layers.vertices = static_cast<std::uint64_t>(ps.graph->vertex_count());
    layers.edges = ps.graph->edge_count();
    layers.cover_paths = ps.cover.path_count();
    for (std::size_t i = 0; i < kEpisodesPerPass; ++i) {
      Fingerprint f;
      f.mix_report(
          run_episode(*ps.snapshot, ps.probes,
                      verification_episode(opt.seed, 0, i))
              .report);
      reference_reports.push_back(f.value());
    }
  }

  const auto passes = std::max<std::size_t>(
      kMinRepeats,
      static_cast<std::size_t>(std::lround(opt.seconds / kNominalUnitS)));
  for (std::size_t pass = 0; pass < passes; ++pass) {
    UnitScope unit(opt, pass, layers);
    const auto t0 = std::chrono::steady_clock::now();
    const ProbeSet ps = precompute(rules, kNetworkSeed);
    e2e.precompute.add(seconds_since(t0));
    e2e.probe_count = ps.probes.size();

    Fingerprint f;
    f.mix_probes(ps.probes);
    result.gate(f.value() == reference.value(),
                "isp-precompute: a pass produced a different probe set");
    for (std::size_t i = 0; i < ps.cover.path_count(); ++i) {
      result.count_attempt(i < ps.stats.sat_failures);
    }
    if (Tracer::get().enabled()) {
      layers.headers_by_sat += ps.stats.headers_by_sat;
    }

    for (std::size_t i = 0; i < kEpisodesPerPass; ++i) {
      const Episode ep = run_episode(*ps.snapshot, ps.probes,
                                     verification_episode(opt.seed, pass, i));
      if (pass == 0) {
        Fingerprint r;
        r.mix_report(ep.report);
        result.gate(r.value() == reference_reports[i],
                    "isp-precompute: an episode replay differs from warm-up");
      }
      e2e.episode.add(ep.run_s);
      e2e.episode_probes += ep.report.probes_sent + ep.report.retries_sent;
      e2e.detection.add(ep.report.flagged_switches, ep.faulty_switches,
                        switches, ep.report.detection_time_s);
      result.count_attempt(hit_max_rounds(ep.report));
      layers.add_episode(ep);
    }
  }
  e2e.loop_s = layers.units_s();
  report_end_to_end(e2e, result);
}

}  // namespace perfbench
