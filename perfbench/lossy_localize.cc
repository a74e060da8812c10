// lossy-localize: the paper's error-prone localization loop (Fig. 8b/c, 9).
//
// Set-up synthesizes a 20-switch, 36-link, ~10k-rule network and computes
// the deterministic cover once. Each timed unit is one episode on a fresh
// dataplane with 1% link loss and two entry faults from the default
// drop/misdirect/modify mix, localized by a FaultLocalizer that is handed
// the precomputed cover. The loop does no MLPC or synthesis work, so it is
// the bypass workload for changes there and moves with core.localizer,
// the dataplane and its channel, and the simulator.
#include <algorithm>
#include <cmath>

#include "trace.h"
#include "util/rng.h"
#include "world.h"

namespace perfbench {
namespace {

constexpr NetworkShape kShape{20, 36, 10'000};
constexpr std::size_t kSetups = 5;
constexpr std::size_t kMinEpisodes = 100;
constexpr std::size_t kFaultsPerEpisode = 2;
constexpr double kLinkLoss = 0.01;
// One untimed-episode gap in every kPassEvery episodes runs a timed
// ruleset → probe-set pass, so precompute_s is a median of passes spread
// over the whole run rather than clustered in set-up.
constexpr std::size_t kPassEvery = 18;
// Nominal seconds per episode (network build plus run) on a 4-core x86
// host; sizes the episode count from --seconds.
constexpr double kNominalUnitS = 0.11;

EpisodeSpec lossy_episode(std::uint64_t seed, std::size_t i) {
  EpisodeSpec spec;
  spec.seed = util::Rng::derive(seed, 1000 + i);
  spec.faults = kFaultsPerEpisode;
  spec.channel.link_loss = kLinkLoss;
  return spec;
}

}  // namespace

void run_lossy_localize(const Options& opt, Result& result,
                        LayerStats& layers) {
  EndToEnd e2e;
  flow::RuleSet rules;
  ProbeSet ps;
  std::uint64_t reference = 0;
  set_tracing(opt.trace);
  for (std::size_t i = 0; i < kSetups; ++i) {
    sample_host_speed();
    const auto t0 = std::chrono::steady_clock::now();
    rules = synthesize_network(kShape, kNetworkSeed);
    ps = precompute(rules, kNetworkSeed);
    e2e.setup.add(seconds_since(t0));
    Fingerprint f;
    f.mix_probes(ps.probes);
    if (i == 0) reference = f.value();
    result.gate(f.value() == reference,
                "lossy-localize: set-up produced a different cover");
  }
  set_tracing(false);
  result.gate(covers_every_active_vertex(*ps.snapshot, ps.probes),
              "lossy-localize: cover leaves an active vertex uncovered");
  for (std::size_t i = 0; i < ps.cover.path_count(); ++i) {
    result.count_attempt(i < ps.stats.sat_failures);
  }
  e2e.probe_count = ps.probes.size();
  layers.vertices = static_cast<std::uint64_t>(ps.graph->vertex_count());
  layers.edges = ps.graph->edge_count();
  layers.cover_paths = ps.cover.path_count();
  layers.headers_by_sat = ps.stats.headers_by_sat;
  const int switches = rules.switch_count();

  // Warm-up: episode 0, replayed first in the timed loop, where its report
  // must come out bit-identical.
  Fingerprint warm;
  warm.mix_report(run_episode(*ps.snapshot, ps.probes,
                              lossy_episode(opt.seed, 0))
                      .report);

  const auto episodes = std::max<std::size_t>(
      kMinEpisodes,
      static_cast<std::size_t>(std::lround(opt.seconds / kNominalUnitS)));
  for (std::size_t i = 0; i < episodes; ++i) {
    if (i % kPassEvery == kPassEvery / 2) {
      const auto t0 = std::chrono::steady_clock::now();
      const ProbeSet again = precompute(rules, kNetworkSeed);
      e2e.precompute.add(seconds_since(t0));
      Fingerprint f;
      f.mix_probes(again.probes);
      result.gate(f.value() == reference,
                  "lossy-localize: a pass produced a different cover");
    }
    UnitScope unit(opt, i, layers);
    const Episode ep =
        run_episode(*ps.snapshot, ps.probes, lossy_episode(opt.seed, i));
    if (i == 0) {
      Fingerprint f;
      f.mix_report(ep.report);
      result.gate(f.value() == warm.value(),
                  "lossy-localize: episode replay differs from warm-up");
    }
    e2e.episode.add(ep.run_s);
    e2e.episode_probes += ep.report.probes_sent + ep.report.retries_sent;
    e2e.detection.add(ep.report.flagged_switches, ep.faulty_switches,
                      switches, ep.report.detection_time_s);
    result.count_attempt(hit_max_rounds(ep.report));
    layers.add_episode(ep);
  }
  e2e.loop_s = layers.units_s();
  report_end_to_end(e2e, result);
}

}  // namespace perfbench
