// Ablation bench (ours, motivated by DESIGN.md): how much each ingredient
// of SDNProbe's test-packet generation contributes.
//
//   (a) Legality during cover construction: plain Minimum Path Cover on the
//       step-1 rule graph (the paper's Fig. 3 strawman) produces paths no
//       packet can traverse; we count how many MPC paths are illegal.
//   (b) The deterministic pass (DFS stitching + augmentation) vs pure
//       direct-successor greedy stitching.
//   (c) Randomized acceptance probability vs probe count (the cost knob of
//       Randomized SDNProbe's path diversity).
#include <cstdio>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "core/analysis_snapshot.h"
#include "core/legal_paths.h"
#include "core/mlpc.h"

using namespace sdnprobe;

namespace {

// Plain MPC: greedy chain decomposition over step-1 edges ignoring header
// legality — the strawman SDNProbe's MLPC fixes.
std::vector<std::vector<core::VertexId>> plain_mpc(
    const core::RuleGraph& g) {
  const int V = g.vertex_count();
  std::vector<std::uint8_t> has_pred(static_cast<std::size_t>(V), 0);
  std::vector<std::uint8_t> used_as_succ(static_cast<std::size_t>(V), 0);
  std::vector<std::vector<core::VertexId>> paths;
  std::vector<std::uint8_t> covered(static_cast<std::size_t>(V), 0);
  for (core::VertexId v = 0; v < V; ++v) {
    for (const core::VertexId w : g.successors(v)) {
      has_pred[static_cast<std::size_t>(w)] = 1;
    }
  }
  for (core::VertexId v = 0; v < V; ++v) {
    if (covered[static_cast<std::size_t>(v)]) continue;
    std::vector<core::VertexId> path{v};
    covered[static_cast<std::size_t>(v)] = 1;
    core::VertexId at = v;
    for (;;) {
      core::VertexId next = -1;
      for (const core::VertexId w : g.successors(at)) {
        if (!covered[static_cast<std::size_t>(w)]) {
          next = w;
          break;
        }
      }
      if (next < 0) break;
      covered[static_cast<std::size_t>(next)] = 1;
      path.push_back(next);
      at = next;
    }
    paths.push_back(std::move(path));
  }
  return paths;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  bench::print_header("Ablation: MLPC ingredients", "DESIGN.md ablations");
  bench::BenchReport report("ablation_mlpc", "DESIGN.md ablations", full);
  bench::WorkloadSpec spec;
  spec.switches = full ? 30 : 20;
  spec.links = full ? 54 : 36;
  spec.rule_target = full ? 10000 : 3000;
  spec.seed = 2;
  const bench::Workload w = bench::make_workload(spec);
  core::RuleGraph graph(w.rules);
  const core::AnalysisSnapshot snap(graph);
  std::printf("workload: %zu rules, %d testable vertices\n\n",
              w.rules.entry_count(), graph.vertex_count());
  report.set_param("rules", std::uint64_t{w.rules.entry_count()});
  report.set_param("testable_vertices", graph.vertex_count());

  // (a) Legality matters: plain MPC paths that no packet can traverse.
  {
    const auto mpc = plain_mpc(graph);
    std::size_t illegal = 0;
    for (const auto& p : mpc) {
      if (!graph.is_legal_path(p)) ++illegal;
    }
    std::printf("(a) plain MPC (no legality): %zu paths, %zu (%.0f%%) are "
                "NOT traversable by any packet\n",
                mpc.size(), illegal,
                100.0 * static_cast<double>(illegal) /
                    static_cast<double>(mpc.size()));
    report.set_summary("plain_mpc_paths", std::uint64_t{mpc.size()});
    report.set_summary("plain_mpc_illegal_paths", std::uint64_t{illegal});
  }

  // (b) Greedy-only vs the full deterministic pass.
  {
    core::MlpcConfig greedy_only;
    greedy_only.search_budget = 1;  // cripples the DFS: near-pure greedy
    const auto crippled = core::MlpcSolver(greedy_only).solve(snap);
    const auto one_pass = core::MlpcSolver().solve(snap);

    std::printf("(b) probes: direct-successor greedy %zu; +DFS+augment "
                "(one reverse-topological pass) %zu\n",
                crippled.path_count(), one_pass.path_count());
    report.set_summary("greedy_only_probes",
                       std::uint64_t{crippled.path_count()});
    report.set_summary("augmented_probes",
                       std::uint64_t{one_pass.path_count()});
  }

  // (c) Randomized acceptance probability: probe count & terminal spread.
  {
    std::printf("(c) randomized acceptance sweep (5 seeds each):\n");
    std::printf("    %8s %10s %18s\n", "accept", "probes", "distinct terminals");
    for (const double accept : {1.0, 0.85, 0.65, 0.45}) {
      util::Samples probes;
      std::set<core::VertexId> terminals;
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        core::MlpcConfig mc;
        mc.common.randomized = true;
        mc.common.seed = seed;
        mc.stitch_accept_probability = accept;
        const auto cover = core::MlpcSolver(mc).solve(snap);
        probes.add(static_cast<double>(cover.path_count()));
        for (const auto& p : cover.paths) terminals.insert(p.vertices.back());
      }
      std::printf("    %8.2f %10.0f %18zu\n", accept, probes.mean(),
                  terminals.size());
      auto& row = report.add_row();
      row["accept_probability"] = accept;
      row["mean_probes"] = probes.mean();
      row["distinct_terminals"] = std::uint64_t{terminals.size()};
    }
  }
  return 0;
}
