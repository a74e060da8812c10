// monitor-churn: continuous monitoring under live rule churn.
//
// The same ~10k-rule network as lossy-localize runs under a
// monitor::Monitor that verifies the built-in invariants at every epoch
// swap. Each timed unit is one churn batch (four installs, two removals of
// earlier churn installs) drained explicitly, then one monitoring round.
// Every kFaultEvery batches an entry drop is injected into the dataplane;
// each switch a round newly flags is handed to RepairEngine::heal. This
// reuses the probe-engine, localizer and verifier layers of the other two
// workloads, but as incremental writes (churn repair, Verifier::apply_delta,
// heals) interleaved with reads (rounds), so a gain for batch
// pre-computation that costs incremental repair shows here.
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "analysis/invariant.h"
#include "controller/controller.h"
#include "core/scenario.h"
#include "dataplane/fault.h"
#include "flow/synthesizer.h"
#include "monitor/monitor.h"
#include "repair/engine.h"
#include "sim/event_loop.h"
#include "trace.h"
#include "util/rng.h"
#include "world.h"

namespace perfbench {
namespace {

constexpr NetworkShape kShape{20, 36, 10'000};
constexpr std::size_t kSetups = 5;
constexpr std::size_t kMinBatches = 100;
constexpr std::size_t kInstallsPerBatch = 4;
constexpr std::size_t kRemovalsPerBatch = 2;
constexpr std::size_t kFaultEvery = 20;
constexpr std::size_t kFirstFault = 5;
// No fault is injected this close to the end of a stream, so every fault
// has rounds left to be detected and healed.
constexpr std::size_t kHealMargin = 3;
// Batches the warm-up replays on a second rig before timing (one fault and
// its heal included); the timed rig must match it bit for bit there.
constexpr std::size_t kWarmBatches = 10;
// Every kPassEvery batches a timed ruleset → probe-set pass runs over the
// network as churn has left it (what a full regeneration would cost), so
// precompute_s is a median of passes spread over the whole run.
constexpr std::size_t kPassEvery = 13;
// Nominal seconds per batch (drain, round, amortized heals) on a 4-core
// x86 host; sizes the batch count from --seconds.
constexpr double kNominalUnitS = 0.15;

// One monitored network: ruleset, dataplane, controller, monitor, repair.
struct Rig {
  flow::RuleSet rules;
  flow::RuleSet spare;  // source of churn installs, same topology
  sim::EventLoop loop;
  std::unique_ptr<dataplane::Network> net;
  std::unique_ptr<controller::Controller> ctrl;
  std::unique_ptr<monitor::Monitor> mon;
  std::unique_ptr<repair::RepairEngine> repair;
  std::deque<flow::EntryId> churn_installed;  // removable, oldest first
  std::vector<flow::SwitchId> faulty;         // injected, not yet healed
  double fault_injected_s = 0.0;
  std::uint64_t initial_violations = 0;
};

std::unique_ptr<Rig> build_rig(std::uint64_t seed) {
  auto rig = std::make_unique<Rig>();
  rig->rules = synthesize_network(kShape, kNetworkSeed);
  {
    // Churn installs come from shortest-path routes only, with no
    // aggregates: every hop of such a route moves packets strictly closer
    // to their destination and the policy's aggregates still match them,
    // so any prefix of a route, installed or half-removed, keeps the
    // network loop- and blackhole-free and the invariant gate meaningful.
    Tracer::Scope span("flow.synthesize");
    flow::SynthesizerConfig sc;
    sc.target_entry_count = 2'000;
    sc.k_paths = 1;
    sc.aggregates = false;
    sc.seed = util::Rng::derive(kNetworkSeed, 7);
    rig->spare = flow::synthesize_ruleset(rig->rules.topology(), sc);
  }
  {
    Tracer::Scope span("dataplane.build");
    rig->net = std::make_unique<dataplane::Network>(rig->rules, rig->loop);
  }
  rig->ctrl = std::make_unique<controller::Controller>(rig->rules, *rig->net);
  monitor::MonitorConfig mc;
  mc.common.threads = 1;
  mc.common.seed = kNetworkSeed;
  mc.localizer = episode_localizer_config(kNetworkSeed);
  mc.charge_repair_time = false;
  mc.verify_invariants = true;
  mc.invariants = analysis::InvariantSet::builtin();
  {
    Tracer::Scope span("monitor.construct");
    rig->mon = std::make_unique<monitor::Monitor>(rig->rules, *rig->ctrl,
                                                  rig->loop, mc);
  }
  repair::RepairConfig rc;
  rc.invariants = analysis::InvariantSet::builtin();
  rc.common.threads = 1;
  rc.common.seed = seed;
  rc.confirm = episode_localizer_config(seed);
  rig->repair = std::make_unique<repair::RepairEngine>(*rig->mon, *rig->ctrl,
                                                       rig->loop, rc);
  rig->initial_violations = rig->mon->status().invariant_violations;
  return rig;
}

// What one batch observed, for the metrics and gates.
struct BatchOutcome {
  double drain_s = 0.0;
  double round_s = 0.0;
  double coverage = 0.0;  // right after the drain
  std::uint64_t violations = 0;
  std::size_t probes_sent = 0;
  std::size_t faulty_switches = 0;  // injected, unhealed, during the round
  std::size_t clean_flagged = 0;    // switches flagged without a fault
  double flag_delay_s = -1.0;  // simulated, when a faulty switch was flagged
  bool fault_injected = false;
  dataplane::NetworkCounters counters;  // after the round
  std::vector<repair::RepairOutcome> heals;
};

BatchOutcome run_batch(Rig& rig, std::uint64_t seed, std::size_t b,
                       std::size_t batches) {
  BatchOutcome out;
  const auto spare_n = static_cast<flow::EntryId>(rig.spare.entry_count());
  for (std::size_t k = 0; k < kInstallsPerBatch; ++k) {
    flow::FlowEntry e = rig.spare.entry(
        static_cast<flow::EntryId>(b * kInstallsPerBatch + k) % spare_n);
    e.id = -1;
    rig.mon->enqueue(monitor::ChurnOp::install(std::move(e)));
  }
  for (std::size_t k = 0; k < kRemovalsPerBatch && !rig.churn_installed.empty();
       ++k) {
    rig.mon->enqueue(monitor::ChurnOp::remove(rig.churn_installed.front()));
    rig.churn_installed.pop_front();
  }
  {
    Tracer::Scope span("monitor.drain_churn");
    const auto t0 = std::chrono::steady_clock::now();
    rig.mon->drain_churn();
    out.drain_s = seconds_since(t0);
  }
  for (const monitor::AppliedOp& op : rig.mon->last_churn().applied) {
    if (op.kind == monitor::ChurnOp::Kind::kInstall) {
      rig.churn_installed.push_back(op.id);
    }
  }
  const monitor::MonitorStatus st = rig.mon->status();
  out.coverage = st.coverage_fraction;
  out.violations = st.invariant_violations;

  if (b >= kFirstFault && (b - kFirstFault) % kFaultEvery == 0 &&
      b + kHealMargin < batches) {
    util::Rng rng(util::Rng::derive(seed, 5000 + b));
    const auto snap = rig.mon->snapshot();
    const flow::EntryId id = core::choose_faulty_entries(snap->graph(), 1,
                                                         rng)
                                 .front();
    rig.net->faults().add_fault(id, dataplane::FaultSpec::Drop());
    rig.faulty.push_back(rig.rules.entry(id).switch_id);
    rig.fault_injected_s = rig.loop.now();
    out.fault_injected = true;
  }

  {
    Tracer::Scope span("monitor.run_round");
    const auto t0 = std::chrono::steady_clock::now();
    rig.mon->run_round();
    out.round_s = seconds_since(t0);
  }
  const monitor::MonitorRound& rec = rig.mon->report().round_log.back();
  out.probes_sent = rec.probes_sent;
  out.counters = rig.net->counters();
  out.faulty_switches = rig.faulty.size();
  for (const flow::SwitchId sw : rec.newly_flagged) {
    if (std::find(rig.faulty.begin(), rig.faulty.end(), sw) !=
        rig.faulty.end()) {
      out.flag_delay_s = rec.start_s +
                         rig.mon->last_detection().detection_time_s -
                         rig.fault_injected_s;
    } else {
      ++out.clean_flagged;
    }
  }
  for (const flow::SwitchId sw : rec.newly_flagged) {
    Tracer::Scope span("repair.heal");
    out.heals.push_back(rig.repair->heal(sw));
    if (out.heals.back().healed) {
      rig.faulty.erase(std::remove(rig.faulty.begin(), rig.faulty.end(), sw),
                       rig.faulty.end());
    }
  }
  return out;
}

std::uint64_t fingerprint(const Rig& rig) {
  Fingerprint f;
  f.mix_probes(rig.mon->probes());
  f.mix_report(rig.mon->last_detection());
  f.mix(rig.mon->epoch());
  return f.value();
}

}  // namespace

void run_monitor_churn(const Options& opt, Result& result,
                       LayerStats& layers) {
  EndToEnd e2e;
  std::unique_ptr<Rig> rig;
  std::unique_ptr<Rig> warm;
  std::uint64_t reference = 0;
  set_tracing(opt.trace);
  for (std::size_t i = 0; i < kSetups; ++i) {
    sample_host_speed();
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<Rig> r = build_rig(opt.seed);
    e2e.setup.add(seconds_since(t0));
    const std::uint64_t f = fingerprint(*r);
    if (i == 0) reference = f;
    result.gate(f == reference,
                "monitor-churn: set-up produced a different probe set");
    if (!rig) {
      rig = std::move(r);
    } else if (!warm) {
      warm = std::move(r);
    }
  }
  set_tracing(false);
  const monitor::MonitorStatus initial = rig->mon->status();
  result.gate(initial.coverage_fraction == 1.0,
              "monitor-churn: initial probe set does not cover the network");
  e2e.probe_count = initial.probe_count;
  {
    const auto snap = rig->mon->snapshot();
    layers.vertices = static_cast<std::uint64_t>(snap->vertex_count());
    layers.edges = snap->graph().edge_count();
    layers.cover_paths = initial.probe_count;
  }
  const int switches = rig->rules.switch_count();

  // Warm-up on the second rig; the timed rig must reach the same state.
  for (std::size_t b = 0; b < kWarmBatches; ++b) {
    run_batch(*warm, opt.seed, b, kWarmBatches);
  }
  const std::uint64_t warm_fingerprint = fingerprint(*warm);
  warm.reset();

  const auto batches = std::max<std::size_t>(
      kMinBatches,
      static_cast<std::size_t>(std::lround(opt.seconds / kNominalUnitS)));
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_detected = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    if (b % kPassEvery == kPassEvery / 2) {
      const auto t0 = std::chrono::steady_clock::now();
      const ProbeSet ps = precompute(rig->rules, kNetworkSeed);
      e2e.precompute.add(seconds_since(t0));
      result.gate(covers_every_active_vertex(*ps.snapshot, ps.probes),
                  "monitor-churn: a pass left an active vertex uncovered");
    }
    UnitScope unit(opt, b, layers);
    const bool traced = Tracer::get().enabled();
    const monitor::ChurnStats churn_before = rig->mon->churn_stats();
    const monitor::VerifySummary verify_before = rig->mon->verify_summary();
    const dataplane::NetworkCounters net_before = rig->net->counters();
    const BatchOutcome out = run_batch(*rig, opt.seed, b, batches);
    if (b + 1 == kWarmBatches) {
      result.gate(fingerprint(*rig) == warm_fingerprint,
                  "monitor-churn: timed run diverged from the warm-up replay");
    }
    // A batch fails when it leaves part of the network unprobed.
    result.count_attempt(out.coverage < 1.0);
    result.gate(out.coverage == 1.0,
                "monitor-churn: coverage below 1.0 after a churn batch");
    result.gate(out.violations <= rig->initial_violations,
                "monitor-churn: invariant errors grew under churn");
    e2e.episode.add(out.round_s);
    e2e.episode_probes += out.probes_sent;
    layers.drain_s.push_back(out.drain_s);

    faults_injected += out.fault_injected ? 1 : 0;
    if (out.flag_delay_s >= 0.0) {
      ++faults_detected;
      e2e.detection.delay_s.push_back(out.flag_delay_s);
    }
    e2e.detection.clean +=
        static_cast<std::uint64_t>(switches) - out.faulty_switches;
    e2e.detection.clean_flagged += out.clean_flagged;
    for (const repair::RepairOutcome& h : out.heals) {
      bool rolled_back = false;
      for (const repair::PatchAttempt& a : h.attempts) {
        rolled_back |= a.rolled_back;
      }
      // A heal fails when it does not heal or has to roll a patch back.
      result.count_attempt(!h.healed || rolled_back);
      if (h.healed) layers.time_to_heal_s.push_back(h.time_to_heal_s);
    }
    if (traced) {
      const monitor::ChurnStats& c = rig->mon->churn_stats();
      const monitor::VerifySummary& v = rig->mon->verify_summary();
      layers.probes_kept += c.probes_kept - churn_before.probes_kept;
      layers.probes_regenerated +=
          c.probes_regenerated - churn_before.probes_regenerated;
      layers.classes_reused += v.classes_reused - verify_before.classes_reused;
      layers.classes_verified +=
          v.classes_verified - verify_before.classes_verified;
      layers.verify_ms += v.total_verify_ms - verify_before.total_verify_ms;
      const core::DetectionReport& rep = rig->mon->last_detection();
      ++layers.episodes;
      layers.rounds += static_cast<std::uint64_t>(rep.rounds);
      layers.retries_sent += rep.retries_sent;
      layers.retry_recoveries += rep.retry_recoveries;
      layers.localizer_wall_s += out.round_s;
      layers.packets_forwarded +=
          out.counters.packets_forwarded - net_before.packets_forwarded;
      layers.packet_ins += out.counters.packet_ins - net_before.packet_ins;
    }
    layers.episode_s.push_back(out.round_s);
  }
  e2e.loop_s = layers.units_s();
  result.gate(rig->faulty.empty(),
              "monitor-churn: an injected entry fault was not healed");
  e2e.detection.faulty = faults_injected;
  e2e.detection.faulty_flagged = faults_detected;
  report_end_to_end(e2e, result);
}

}  // namespace perfbench
