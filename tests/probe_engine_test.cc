// Tests for probe synthesis: header legality and uniqueness, expected
// return headers under set-field rewrites, probes kept clear of each other's
// test entries, the traffic-profile sampler, and sampled and exact-fallback
// headers against recorded golden answers.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "controller/controller.h"
#include "core/analysis_snapshot.h"
#include "core/localizer.h"
#include "core/mlpc.h"
#include "core/probe_engine.h"
#include "core/rule_graph.h"
#include "core/scenario.h"
#include "core/traffic_profile.h"
#include "dataplane/network.h"
#include "flow/campus.h"
#include "flow/synthesizer.h"
#include "topo/generator.h"

namespace sdnprobe::core {
namespace {

hsa::TernaryString ts(const char* s) {
  return *hsa::TernaryString::parse(s);
}

flow::RuleSet small_ruleset() {
  topo::GeneratorConfig tc;
  tc.node_count = 10;
  tc.link_count = 16;
  tc.seed = 3;
  const topo::Graph g = topo::make_rocketfuel_like(tc);
  flow::SynthesizerConfig sc;
  sc.target_entry_count = 600;
  sc.set_field_fraction = 0.2;  // plenty of rewrites to exercise transforms
  sc.seed = 4;
  return flow::synthesize_ruleset(g, sc);
}

TEST(ProbeEngine, HeadersAreUniqueAndLegal) {
  const flow::RuleSet rs = small_ruleset();
  RuleGraph graph(rs);
  AnalysisSnapshot snap(graph);
  const Cover cover = MlpcSolver().solve(snap);
  ProbeEngine engine(snap);
  util::Rng rng(5);
  const auto probes = engine.make_probes(cover, rng);
  EXPECT_EQ(probes.size(), cover.path_count());
  std::set<std::string> headers;
  for (const auto& p : probes) {
    EXPECT_TRUE(p.header.is_concrete());
    // The header lies in the path's injectable space (matches every tested
    // entry along the way).
    EXPECT_TRUE(graph.path_input_space(p.path).contains(p.header))
        << "illegal probe header";
    EXPECT_TRUE(headers.insert(p.header.to_string()).second)
        << "duplicate probe header violates §VI uniqueness";
  }
}

TEST(ProbeEngine, ExpectedReturnAppliesUpstreamSetFields) {
  // Two-switch chain where the first rule rewrites a host bit: the terminal
  // must expect the rewritten header.
  topo::Graph g(2);
  g.add_edge(0, 1);
  flow::RuleSet rs(g, 8);
  flow::FlowEntry first;
  first.switch_id = 0;
  first.priority = 10;
  first.match = ts("001xxxxx");
  first.set_field = ts("xxxxxxx1");
  first.action = flow::Action::output(*rs.ports().port_to(0, 1));
  rs.add_entry(first);
  flow::FlowEntry second;
  second.switch_id = 1;
  second.priority = 10;
  second.match = ts("001xxxxx");
  second.action = flow::Action::output(rs.ports().host_port(1));
  rs.add_entry(second);

  RuleGraph graph(rs);
  AnalysisSnapshot snap(graph);
  ProbeEngine engine(snap);
  util::Rng rng(1);
  const auto probe =
      engine.make_probe({graph.vertex_for(0), graph.vertex_for(1)}, rng);
  ASSERT_TRUE(probe.has_value());
  EXPECT_TRUE(probe->expected_return == probe->header.transform(ts("xxxxxxx1")));
  EXPECT_EQ(probe->inject_switch, 0);
  EXPECT_EQ(probe->terminal_entry, 1);
}

TEST(ProbeEngine, IllegalPathYieldsNoProbe) {
  const flow::RuleSet rs = small_ruleset();
  RuleGraph graph(rs);
  AnalysisSnapshot snap(graph);
  ProbeEngine engine(snap);
  util::Rng rng(2);
  // Two unrelated vertices rarely form a legal path; find a genuinely
  // illegal pair (no edge and disjoint spaces).
  for (VertexId a = 0; a < graph.vertex_count(); ++a) {
    for (VertexId b = 0; b < graph.vertex_count(); ++b) {
      if (a == b) continue;
      if (!graph.is_legal_path({a, b})) {
        EXPECT_FALSE(engine.make_probe({a, b}, rng).has_value());
        return;
      }
    }
  }
  FAIL() << "no illegal pair found (unexpected for this workload)";
}

TEST(ProbeEngine, ResetAllowsHeaderReuse) {
  topo::Graph g(2);
  g.add_edge(0, 1);
  flow::RuleSet rs(g, 8);
  flow::FlowEntry e;
  e.switch_id = 0;
  e.priority = 10;
  e.match = ts("0010101x");  // tiny space: 2 headers
  e.action = flow::Action::output(*rs.ports().port_to(0, 1));
  rs.add_entry(e);
  RuleGraph graph(rs);
  AnalysisSnapshot snap(graph);
  ProbeEngine engine(snap);
  util::Rng rng(1);
  ASSERT_TRUE(engine.make_probe({0}, rng).has_value());
  ASSERT_TRUE(engine.make_probe({0}, rng).has_value());
  EXPECT_FALSE(engine.make_probe({0}, rng).has_value())
      << "2-header space must exhaust after two unique probes";
  engine.reset_uniqueness();
  EXPECT_TRUE(engine.make_probe({0}, rng).has_value());
}

// Two cover paths converging on entry r after a set field:
//
//   A: u (sw0, 0xxxxxxx, sets H[0] = 1) -> r (sw1, 1xxxxxxx) -> w (sw2)
//   B: r alone, so B's test entry sits in sw1's test table
//
// With every header from the exact fallback, B's lex-min header is
// 10000000 and A's lex-min header 00000000 reaches r as 10000000 too. Unique
// injected headers alone let both through; A then meets B's test entry at
// r and is punted to the controller at sw1, mid-path, on a fault-free
// network. Either commit order must keep the two apart, so a fault-free
// episode loses no probe and ends after one round.
TEST(ProbeEngine, ConvergingSetFieldPathsKeepClearOfTestEntries) {
  topo::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  flow::RuleSet rs(g, 8);
  flow::FlowEntry u;
  u.switch_id = 0;
  u.priority = 10;
  u.match = ts("0xxxxxxx");
  u.set_field = ts("1xxxxxxx");
  u.action = flow::Action::output(*rs.ports().port_to(0, 1));
  const flow::EntryId u_id = rs.add_entry(u);
  flow::FlowEntry r;
  r.switch_id = 1;
  r.priority = 10;
  r.match = ts("1xxxxxxx");
  r.action = flow::Action::output(*rs.ports().port_to(1, 2));
  const flow::EntryId r_id = rs.add_entry(r);
  flow::FlowEntry w;
  w.switch_id = 2;
  w.priority = 10;
  w.match = ts("1xxxxxxx");
  w.action = flow::Action::output(rs.ports().host_port(2));
  const flow::EntryId w_id = rs.add_entry(w);

  RuleGraph graph(rs);
  AnalysisSnapshot snap(graph);
  const std::vector<VertexId> path_a = {
      graph.vertex_for(u_id), graph.vertex_for(r_id), graph.vertex_for(w_id)};
  const std::vector<VertexId> path_b = {graph.vertex_for(r_id)};
  ASSERT_TRUE(graph.is_legal_path(path_a));

  for (const bool b_first : {true, false}) {
    SCOPED_TRACE(b_first ? "B committed first" : "A committed first");
    Cover cover;
    for (const auto* path : {b_first ? &path_b : &path_a,
                             b_first ? &path_a : &path_b}) {
      cover.paths.push_back(CoverPath{*path, graph.path_output_space(*path)});
    }
    ProbeEngineConfig cfg;
    cfg.sample_attempts = 0;
    ProbeEngine engine(snap, cfg);
    util::Rng rng(1);
    const std::vector<Probe> probes = engine.make_probes(cover, rng);
    ASSERT_EQ(probes.size(), 2u);
    const Probe& a = probes[b_first ? 1 : 0];
    const Probe& b = probes[b_first ? 0 : 1];
    EXPECT_NE(a.header.transform(u.set_field).to_string(),
              b.expected_return.to_string());

    sim::EventLoop loop;
    dataplane::Network net(rs, loop);
    controller::Controller ctrl(rs, net);
    FaultLocalizer loc(snap, ctrl, loop);
    loc.set_cover_probes(probes);
    const DetectionReport rep = loc.run();
    EXPECT_TRUE(rep.flagged_switches.empty());
    EXPECT_TRUE(rep.evidence.empty());
    std::size_t lost = 0;
    for (const RoundRecord& rr : rep.round_log) lost += rr.failures;
    EXPECT_EQ(lost, 0u);
    EXPECT_EQ(rep.rounds, 1);
  }
}

// One line per entry of a golden fixture under tests/data/.
std::vector<std::string> read_golden(const std::string& name) {
  std::ifstream in(std::string(SDNPROBE_TEST_DATA_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing golden fixture " << name;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// The goldens were recorded from the paper-style CDCL SAT session that the
// exact fallback replaced; both answer the lex-min query, so every line must
// match byte for byte.
TEST(ExactFallback, CampusExclusionStreamMatchesGolden) {
  // The campus dataset's first 64 deep-overlap input spaces (>= 8
  // higher-priority overlaps), queried 4 rounds over; every answer joins
  // one global forbidden pool, like the probe engine's §VI uniqueness pool.
  const flow::RuleSet rs = flow::make_campus_ruleset(flow::CampusConfig{});
  const RuleGraph graph(rs);
  std::vector<const hsa::HeaderSpace*> spaces;
  for (VertexId v = 0; v < graph.vertex_count() && spaces.size() < 64; ++v) {
    const flow::FlowEntry& e = rs.entry(graph.entry_of(v));
    if (rs.table(e.switch_id, e.table_id).overlapping_above(e).size() < 8) {
      continue;
    }
    spaces.push_back(&graph.in_space(v));
  }
  ASSERT_EQ(spaces.size(), 64u);
  std::unordered_set<hsa::TernaryString, hsa::TernaryStringHash> forbidden;
  std::vector<std::string> stream;
  for (int round = 0; round < 4; ++round) {
    for (const hsa::HeaderSpace* space : spaces) {
      const auto h = space->lex_min_excluding(forbidden);
      stream.push_back(h.has_value() ? h->to_string() : std::string());
      if (h.has_value()) forbidden.insert(*h);
    }
  }
  EXPECT_EQ(stream, read_golden("campus_exclusion_stream.golden"));
}

// One `header|expected_return` line per probe, the goldens' format.
std::vector<std::string> render(const std::vector<Probe>& probes) {
  std::vector<std::string> rendered;
  rendered.reserve(probes.size());
  for (const Probe& p : probes) {
    rendered.push_back(p.header.to_string() + "|" +
                       p.expected_return.to_string());
  }
  return rendered;
}

TEST(ExactFallback, CampusProbesMatchGolden) {
  // sample_attempts = 0 forces every probe header through the exact
  // fallback.
  const flow::RuleSet rs = flow::make_campus_ruleset(flow::CampusConfig{});
  const RuleGraph graph(rs);
  const AnalysisSnapshot snap(graph);
  const Cover cover = MlpcSolver().solve(snap);
  const std::vector<std::string> golden =
      read_golden("campus_fallback_probes.golden");
  ASSERT_FALSE(golden.empty());
  ProbeEngineConfig cfg;
  cfg.sample_attempts = 0;
  ProbeEngine engine(snap, cfg);
  util::Rng rng(11);
  const auto probes = engine.make_probes(cover, rng);
  EXPECT_EQ(engine.stats().headers_by_sampling, 0u);
  EXPECT_EQ(engine.stats().headers_by_sat, probes.size());
  EXPECT_EQ(render(probes), golden);
}

// The campus cover with default sampling, with and without a traffic
// profile. The goldens were recorded from the engine that drew all
// sample_attempts candidates of every path up front; drawing lazily from
// the same per-path streams must reproduce them byte for byte.
TEST(SampledHeaders, CampusProbesMatchGolden) {
  const flow::RuleSet rs = flow::make_campus_ruleset(flow::CampusConfig{});
  const RuleGraph graph(rs);
  const AnalysisSnapshot snap(graph);
  const Cover cover = MlpcSolver().solve(snap);
  util::Rng traffic_rng(7);
  const TrafficModel traffic = make_traffic_model(graph, 6, traffic_rng);
  for (const bool with_profile : {false, true}) {
    SCOPED_TRACE(with_profile ? "traffic profile" : "uniform");
    ProbeEngine engine(snap);
    util::Rng rng(11);
    const auto probes = engine.make_probes(
        cover, rng, with_profile ? &traffic.profile : nullptr);
    const std::vector<std::string> golden =
        read_golden(with_profile ? "campus_profile_probes.golden"
                                 : "campus_sampled_probes.golden");
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(render(probes), golden);
    // Recorded with the goldens: every header sampled, none from the
    // fallback.
    ProbeStats expected;
    expected.headers_by_sampling = 579;
    EXPECT_TRUE(engine.stats() == expected);
    // make_probes consumes exactly one caller draw.
    util::Rng once(11);
    once.next();
    EXPECT_EQ(rng.next(), once.next());
  }
}

TEST(TrafficProfileTest, SampleBiasesTowardPopularCube) {
  TrafficProfile profile;
  const auto popular = ts("xxxx1111");
  profile.add_flow(popular, 10.0);
  util::Rng rng(9);
  const hsa::HeaderSpace space = hsa::HeaderSpace::full(8);
  int hits = 0;
  for (int i = 0; i < 100; ++i) {
    const auto h = profile.sample(space, rng);
    ASSERT_TRUE(h.has_value());
    if (popular.covers(*h)) ++hits;
  }
  EXPECT_GT(hits, 90) << "samples should come from the observed flow";
}

TEST(TrafficProfileTest, FallsBackWhenNoOverlap) {
  TrafficProfile profile;
  profile.add_flow(ts("1111xxxx"), 1.0);
  util::Rng rng(9);
  // The requested space is disjoint from every observed cube.
  const hsa::HeaderSpace space(ts("0000xxxx"));
  const auto h = profile.sample(space, rng);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(space.contains(*h));
}

TEST(TrafficProfileTest, PeriodSnapshotIsOneFlow) {
  TrafficProfile profile;
  profile.add_flow(ts("1111xxxx"), 1.0);
  profile.add_flow(ts("0000xxxx"), 1.0);
  util::Rng rng(4);
  const TrafficProfile snap = profile.period_snapshot(rng);
  EXPECT_EQ(snap.flow_count(), 1u);
}

}  // namespace
}  // namespace sdnprobe::core
