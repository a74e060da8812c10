// The determinism contract: MLPC covers, end-to-end DetectionReports and
// monitor runs are pure functions of their inputs and seeds, so the same
// configuration run twice is bit-identical, on a Table-2-sized topology
// (30 switches / 54 links, thousands of rules). Probe headers are pinned by
// goldens in probe_engine_test.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/localizer.h"
#include "core/mlpc.h"
#include "core/probe_engine.h"
#include "core/rule_graph.h"
#include "core/scenario.h"
#include "dataplane/network.h"
#include "flow/synthesizer.h"
#include "monitor/monitor.h"
#include "sim/event_loop.h"
#include "topo/generator.h"

namespace sdnprobe::core {
namespace {

flow::RuleSet table2_sized_ruleset() {
  topo::GeneratorConfig tc;
  tc.node_count = 30;
  tc.link_count = 54;
  tc.seed = 2;
  const topo::Graph g = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = 6000;
  sc.aggregates = true;
  sc.k_paths = 3;
  sc.seed = 71;
  return flow::synthesize_ruleset(g, sc);
}

std::vector<std::vector<VertexId>> cover_paths(const Cover& c) {
  std::vector<std::vector<VertexId>> out;
  out.reserve(c.paths.size());
  for (const auto& p : c.paths) out.push_back(p.vertices);
  return out;
}

std::vector<std::string> probe_fingerprints(const std::vector<Probe>& probes) {
  std::vector<std::string> out;
  out.reserve(probes.size());
  for (const Probe& p : probes) {
    std::string fp = p.header.to_string() + "|" +
                     p.expected_return.to_string() + "|";
    for (const VertexId v : p.path) fp += std::to_string(v) + ",";
    out.push_back(std::move(fp));
  }
  return out;
}

TEST(Determinism, MlpcCoverIsBitIdenticalAcrossRuns) {
  const flow::RuleSet rs = table2_sized_ruleset();
  const RuleGraph graph(rs);
  const AnalysisSnapshot snap(graph);
  const Cover reference = MlpcSolver().solve(snap);
  EXPECT_GT(reference.path_count(), 0u);
  EXPECT_EQ(cover_paths(MlpcSolver().solve(snap)), cover_paths(reference));
}

// --- End-to-end DetectionReport determinism ------------------------------

flow::RuleSet report_sized_ruleset() {
  topo::GeneratorConfig tc;
  tc.node_count = 12;
  tc.link_count = 20;
  tc.seed = 9;
  const topo::Graph g = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = 900;
  sc.seed = 41;
  return flow::synthesize_ruleset(g, sc);
}

// Bit-exact fingerprint of everything a DetectionReport records. hexfloat
// keeps the doubles lossless, so any drift — even one ULP of simulated
// time — fails the comparison.
std::string report_fingerprint(const DetectionReport& r) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto s : r.flagged_switches) os << s << ",";
  os << "|" << r.detection_time_s << "|" << r.total_time_s << "|"
     << r.probes_sent << "|" << r.retries_sent << "|" << r.retry_recoveries
     << "|" << r.rounds << "\n";
  for (const auto& rec : r.round_log) {
    os << rec.round << ":" << rec.start_s << ":" << rec.end_s << ":"
       << rec.probes << ":" << rec.failures << ":" << rec.retries << ":"
       << rec.recovered << ":";
    for (const auto s : rec.newly_flagged) os << s << ",";
    os << "\n";
  }
  return os.str();
}

struct ReportRunOptions {
  bool randomized = false;
  int confirm_retries = 0;
  bool adaptive_timeout = false;
  // When set, installs an explicit (possibly all-zero) channel model.
  const dataplane::ChannelModelConfig* channel = nullptr;
};

DetectionReport run_report(const flow::RuleSet& rs,
                           const ReportRunOptions& opt) {
  const RuleGraph graph(rs);
  const AnalysisSnapshot snap(graph);
  sim::EventLoop loop;
  dataplane::NetworkConfig nc;
  if (opt.channel) nc.channel = *opt.channel;
  dataplane::Network net(rs, loop, nc);
  controller::Controller ctrl(rs, net);
  util::Rng rng(17);
  plan_basic_faults(graph, 2, FaultMix{}, rng, &net.faults());
  LocalizerConfig lc;
  lc.common.randomized = opt.randomized;
  lc.max_rounds = 24;
  // Wall-clock generation charging is real-time noise by design; exact
  // report equality requires it off.
  lc.charge_generation_time = false;
  lc.confirm_retries = opt.confirm_retries;
  lc.adaptive_timeout = opt.adaptive_timeout;
  FaultLocalizer loc(snap, ctrl, loop, lc);
  return loc.run();
}

TEST(Determinism, DetectionReportIsBitIdenticalAcrossRuns) {
  const flow::RuleSet rs = report_sized_ruleset();
  for (const bool randomized : {false, true}) {
    ReportRunOptions opt;
    opt.randomized = randomized;
    const std::string ref = report_fingerprint(run_report(rs, opt));
    EXPECT_EQ(report_fingerprint(run_report(rs, opt)), ref)
        << "a rerun changed the report (randomized=" << randomized << ")";
  }
}

// --- Monitor churn-round determinism -------------------------------------

// Bit-exact fingerprint of a whole monitor run: every round record, the
// cumulative report, churn/repair counters, and the live probe set.
std::string monitor_fingerprint(const monitor::Monitor& mon) {
  std::ostringstream os;
  os << std::hexfloat;
  const monitor::MonitorReport& rep = mon.report();
  for (const auto s : rep.flagged_switches) os << s << ",";
  os << "|" << rep.rounds << "|" << rep.probes_sent << "|" << rep.failures
     << "\n";
  for (const monitor::MonitorRound& r : rep.round_log) {
    os << r.index << ":" << r.epoch << ":" << r.start_s << ":" << r.end_s
       << ":" << r.probes_sent << ":" << r.failures << ":"
       << r.localizer_rounds << ":";
    for (const auto s : r.newly_flagged) os << s << ",";
    os << "\n";
  }
  const monitor::ChurnStats& cs = mon.churn_stats();
  os << cs.batches << "|" << cs.installs << "|" << cs.removals << "|"
     << cs.probes_kept << "|" << cs.probes_regenerated << "|"
     << cs.probes_retired << "\n";
  for (const std::string& fp : probe_fingerprints(mon.probes())) {
    os << fp << "\n";
  }
  return os.str();
}

// One scripted monitor lifetime: clean round, churn batch (installs and
// removals), round against the new epoch, a drop fault, localizing round.
std::string run_monitor_scripted(const flow::RuleSet& pristine) {
  flow::RuleSet rules = pristine;
  flow::SynthesizerConfig spare_sc;
  spare_sc.target_entry_count = 60;
  spare_sc.seed = 97;
  const flow::RuleSet spare =
      flow::synthesize_ruleset(rules.topology(), spare_sc);
  sim::EventLoop loop;
  dataplane::Network net(rules, loop);
  controller::Controller ctrl(rules, net);
  monitor::MonitorConfig mc;
  mc.localizer.charge_generation_time = false;
  monitor::Monitor mon(rules, ctrl, loop, mc);

  mon.run_round();
  for (std::size_t i = 0; i < 4; ++i) {
    flow::FlowEntry e = spare.entry(static_cast<flow::EntryId>(i));
    e.id = -1;
    mon.enqueue(monitor::ChurnOp::install(std::move(e)));
  }
  mon.enqueue(monitor::ChurnOp::remove(7));
  mon.enqueue(monitor::ChurnOp::remove(23));
  mon.run_round();

  util::Rng rng(17);
  const auto snap = mon.snapshot();
  const auto faulty = choose_faulty_entries(snap->graph(), 1, rng);
  FaultMix mix;
  mix.misdirect = false;
  mix.modify = false;
  net.faults().add_fault(faulty[0],
                         make_fault(snap->graph(), faulty[0], mix, rng));
  mon.run_round();
  mon.run_round();
  return monitor_fingerprint(mon);
}

TEST(Determinism, MonitorChurnRoundsAreBitIdenticalAcrossRuns) {
  const flow::RuleSet rs = report_sized_ruleset();
  EXPECT_EQ(run_monitor_scripted(rs), run_monitor_scripted(rs));
}

TEST(Determinism, ZeroRateChannelModelKeepsReportsBitIdentical) {
  const flow::RuleSet rs = report_sized_ruleset();
  ReportRunOptions opt;
  const std::string ref = report_fingerprint(run_report(rs, opt));
  // An explicit all-zero channel model (with a nonzero seed) must take the
  // noiseless fast path: zero RNG draws, so the report stays bit-identical
  // to a network that predates the channel model.
  dataplane::ChannelModelConfig cm;
  cm.seed = 0xDEADBEEFu;
  opt.channel = &cm;
  EXPECT_EQ(report_fingerprint(run_report(rs, opt)), ref)
      << "zero-rate channel model perturbed the report";
}

TEST(Determinism, LossToleranceConfigIsBitIdenticalAcrossRuns) {
  // Retries + adaptive timeouts enabled: genuinely faulty paths do trigger
  // confirmation re-sends, and the grace periods derive from observed RTTs.
  // Both mechanisms must stay bit-identical across runs.
  const flow::RuleSet rs = report_sized_ruleset();
  ReportRunOptions opt;
  opt.confirm_retries = 2;
  opt.adaptive_timeout = true;
  const std::string ref = report_fingerprint(run_report(rs, opt));
  EXPECT_EQ(report_fingerprint(run_report(rs, opt)), ref);
}

}  // namespace
}  // namespace sdnprobe::core
