// Self-healing repair bench (DESIGN.md §15): time-to-heal per fault kind,
// with live churn riding along every monitoring round.
//
// For each fault kind (drop / misdirect / modify / colluding detour) the
// monitor detects the fault, the auto-repair stage diagnoses it, dry-run
// verifies candidate patches, installs the safest survivor, and confirms
// with a targeted re-probe. A fifth scenario injects a *switch-level*
// sticky drop: reinstalled copies inherit the fault, so the engine must
// roll the failed patches back (exercising the inverse-FlowMod path) and
// either reroute around the switch or give up cleanly.
//
// Deterministic probing cannot observe every fault instance (a misdirect
// whose detour rejoins the expected path downstream is invisible to
// return-based probes), so each kind retries a few seeded draws and
// reports the first detectable one — mirroring how the accuracy benches
// pick observable fault plans.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/invariant.h"
#include "bench/bench_util.h"
#include "monitor/monitor.h"
#include "repair/corpus.h"
#include "repair/engine.h"

using namespace sdnprobe;

namespace {

enum class Kind { kDrop, kMisdirect, kModify, kDetour, kSwitchDrop };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kDrop:
      return "drop";
    case Kind::kMisdirect:
      return "misdirect";
    case Kind::kModify:
      return "modify";
    case Kind::kDetour:
      return "detour";
    case Kind::kSwitchDrop:
      return "switch-drop";
  }
  return "?";
}

struct Result {
  bool detected = false;
  bool healed = false;
  bool quarantined = false;
  std::string strategy = "-";
  double time_to_heal_s = 0.0;
  std::size_t patches_proposed = 0;
  std::size_t attempts = 0;
  std::size_t rollbacks = 0;
  int verify_reruns = 0;
  int rounds_to_detect = 0;
};

constexpr int kMaxRounds = 6;
constexpr int kSeedTries = 6;
constexpr int kChurnPerRound = 2;

// One full scenario: fresh world, one clean round, inject, then monitor
// rounds with a live churn feed until the auto-repair stage reports.
Result run_once(const bench::WorkloadSpec& spec, Kind kind,
                std::uint64_t fault_seed) {
  Result res;
  bench::Workload w = bench::make_workload(spec);
  flow::SynthesizerConfig spare_sc;
  spare_sc.target_entry_count = 64;
  spare_sc.seed = spec.seed * 7919 + 997;
  const flow::RuleSet spare = flow::synthesize_ruleset(w.topology, spare_sc);

  sim::EventLoop loop;
  dataplane::Network net(w.rules, loop);
  controller::Controller ctrl(w.rules, net);
  monitor::Monitor mon(w.rules, ctrl, loop, {});
  repair::RepairConfig rc;
  rc.invariants = analysis::InvariantSet::builtin();
  repair::AutoRepair heal(mon, ctrl, loop, rc);

  mon.run_round();  // healthy baseline
  util::Rng rng(fault_seed);
  const auto snap = mon.snapshot();
  const core::RuleGraph& graph = snap->graph();
  if (kind == Kind::kSwitchDrop) {
    const auto ids = core::choose_faulty_entries(graph, 1, rng);
    dataplane::FaultSpec fs;
    fs.kind = dataplane::FaultKind::kDrop;
    net.faults().add_switch_fault(w.rules.entry(ids[0]).switch_id, fs);
  } else if (kind == Kind::kDetour) {
    const auto ids = core::choose_faulty_entries(graph, 20, rng);
    bool planted = false;
    for (const flow::EntryId id : ids) {
      dataplane::FaultSpec fs;
      if (core::make_detour_fault(graph, id, /*min_skip=*/2, rng, &fs)) {
        net.faults().add_fault(id, fs);
        planted = true;
        break;
      }
    }
    if (!planted) return res;  // no colluding partner in this draw
  } else {
    core::FaultMix mix;
    mix.drop = kind == Kind::kDrop;
    mix.misdirect = kind == Kind::kMisdirect;
    mix.modify = kind == Kind::kModify;
    const auto ids = core::choose_faulty_entries(graph, 1, rng);
    net.faults().add_fault(ids[0],
                           core::make_fault(graph, ids[0], mix, rng));
  }

  flow::EntryId next_spare = 0;
  for (int r = 1; r <= kMaxRounds && heal.outcomes().empty(); ++r) {
    // Live churn keeps flowing while the fault is hunted and healed.
    for (int k = 0; k < kChurnPerRound; ++k) {
      flow::FlowEntry e = spare.entry(
          next_spare++ % static_cast<flow::EntryId>(spare.entry_count()));
      e.id = -1;
      mon.enqueue(monitor::ChurnOp::install(std::move(e)));
    }
    mon.run_round();
    res.rounds_to_detect = r;
  }
  if (heal.outcomes().empty()) {
    // Fault never observed: preserve the world for offline replay.
    if (const char* dir = std::getenv("SDNPROBE_CORPUS_DIR")) {
      const repair::Scenario sc = repair::capture_scenario(
          w.rules, net.faults(),
          std::string("bench_repair: undetected ") + kind_name(kind),
          "detected");
      repair::save_scenario_file(
          sc, std::string(dir) + "/bench_repair_undetected_" +
                  kind_name(kind) + ".scenario");
    }
    return res;
  }
  res.detected = true;
  const repair::RepairOutcome& out = heal.outcomes().front();
  res.healed = out.healed;
  res.quarantined = out.quarantined;
  if (out.healed) res.strategy = repair::strategy_name(out.strategy);
  res.time_to_heal_s = out.time_to_heal_s;
  res.patches_proposed = out.patches_proposed;
  res.verify_reruns = out.verify_reruns;
  for (const repair::RepairOutcome& o : heal.outcomes()) {
    res.attempts += o.attempts.size();
    for (const repair::PatchAttempt& at : o.attempts) {
      if (at.rolled_back) ++res.rollbacks;
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  bench::print_header("Self-healing repair: time-to-heal per fault kind",
                      "SDNProbe ICDCS'18 SectionIII-B faults, closed-loop "
                      "repair (DESIGN.md SS15)");
  bench::BenchReport report("repair",
                            "SDNProbe ICDCS'18 SectionIII-B faults, "
                            "closed-loop repair (DESIGN.md SS15)",
                            full);

  bench::WorkloadSpec spec;
  spec.switches = full ? 20 : 14;
  spec.links = full ? 36 : 24;
  spec.rule_target = full ? 4000 : 1500;
  spec.seed = 3;
  report.set_param("switches", spec.switches);
  report.set_param("rule_target",
                   static_cast<std::uint64_t>(spec.rule_target));
  report.set_param("churn_per_round", std::uint64_t{kChurnPerRound});
  report.set_param("max_rounds", std::uint64_t{kMaxRounds});

  const std::vector<Kind> kinds = {Kind::kDrop, Kind::kMisdirect,
                                   Kind::kModify, Kind::kDetour,
                                   Kind::kSwitchDrop};
  std::size_t entry_kinds_healed = 0;
  std::size_t rollbacks_total = 0;
  bool all_detected = true;
  std::printf("%12s | %8s %8s %22s %12s | %8s %9s %9s\n", "fault", "detect",
              "healed", "strategy", "heal(s)", "patches", "attempts",
              "rollbacks");
  for (const Kind kind : kinds) {
    Result res;
    for (int t = 0; t < kSeedTries; ++t) {
      res = run_once(spec, kind, 100 + static_cast<std::uint64_t>(t));
      if (res.detected) break;
    }
    all_detected &= res.detected;
    if (kind != Kind::kSwitchDrop && res.healed) ++entry_kinds_healed;
    rollbacks_total += res.rollbacks;
    std::printf("%12s | %8s %8s %22s %12.3f | %8zu %9zu %9zu\n",
                kind_name(kind), res.detected ? "yes" : "NO",
                res.healed ? (res.quarantined ? "quarant." : "yes") : "no",
                res.strategy.c_str(), res.time_to_heal_s,
                res.patches_proposed, res.attempts, res.rollbacks);
    auto& row = report.add_row();
    row["kind"] = kind_name(kind);
    row["detected"] = res.detected;
    row["healed"] = res.healed;
    row["quarantined"] = res.quarantined;
    row["strategy"] = res.strategy;
    row["time_to_heal_s"] = res.time_to_heal_s;
    row["patches_proposed"] = std::uint64_t{res.patches_proposed};
    row["attempts"] = std::uint64_t{res.attempts};
    row["rollbacks"] = std::uint64_t{res.rollbacks};
    row["verify_reruns"] = res.verify_reruns;
    row["rounds_to_detect"] = res.rounds_to_detect;
  }
  report.set_summary("entry_kinds_healed", std::uint64_t{entry_kinds_healed});
  report.set_summary("rollbacks_total", std::uint64_t{rollbacks_total});
  report.set_summary("rollback_exercised", rollbacks_total >= 1);
  report.set_summary("all_detected", all_detected);
  std::printf(
      "\nentry-level faults heal by reinstalling the intended rule (the "
      "dataplane fault is keyed to the broken installation); a switch-level "
      "fault defeats reinstalls — failed patches roll back via inverse "
      "FlowMods and only a reroute around the switch (quarantine) can "
      "restore traffic\n");
  return entry_kinds_healed >= 3 ? 0 : 1;
}
