#include "shard/sharded_engine.h"

#include <algorithm>

#include "core/mlpc.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"

namespace sdnprobe::shard {
namespace {

// Stream tag for boundary stitch probes: far outside the per-shard stream
// indices (0..shard_count-1), so boundary headers never collide with a
// shard's per-path streams however many shards there are.
constexpr std::uint64_t kBoundaryStream = 0x626f756e64617279ull;  // "boundary"

struct ShardInstruments {
  telemetry::Gauge& shard_count;
  telemetry::Gauge& boundary_fraction;
  telemetry::Counter& covers_solved;
  telemetry::Counter& boundary_probes;

  static ShardInstruments& get() {
    static auto& reg = telemetry::MetricsRegistry::global();
    static ShardInstruments i{
        reg.gauge("shard.count"),
        reg.gauge("shard.boundary_probe_fraction"),
        reg.counter("shard.covers_solved"),
        reg.counter("shard.boundary_probes"),
    };
    return i;
  }
};

}  // namespace

ProbeSet ShardedProbeEngine::generate(util::Rng& rng) {
  telemetry::TraceSpan span("shard.generate");
  const int k = snap_->shard_count();
  // One base draw, like make_probes: shard 0 samples from the raw base (so
  // one shard reproduces the unsharded pipeline bit-for-bit), shard s > 0
  // from derive(base, s); path i within a shard from derive(shard_base, i).
  const std::uint64_t base = rng.next();

  struct ShardWork {
    core::Cover cover;
    std::vector<core::ProbeEngine::PathCandidates> candidates;
  };
  std::vector<ShardWork> work(static_cast<std::size_t>(k));

  // Superstep 1 (parallel over shards): per-shard MLPC + candidate
  // sampling. Each worker touches only its own slot; MLPC runs serially
  // inside the shard (the fan-out is across shards).
  auto run_shard = [&](std::size_t s) {
    telemetry::TraceSpan solve_span("shard.solve");
    solve_span.annotate("shard", static_cast<double>(s));
    const core::AnalysisSnapshot& local = snap_->shard(static_cast<int>(s));
    core::MlpcConfig mc;
    mc.common = config_.common;
    mc.common.threads = 1;
    mc.common.seed = s == 0
                         ? config_.common.seed
                         : util::Rng::derive(config_.common.seed,
                                             static_cast<std::uint64_t>(s));
    mc.search_budget = config_.mlpc_search_budget;
    mc.deterministic_restarts = config_.mlpc_restarts;
    ShardWork& w = work[s];
    w.cover = core::MlpcSolver(mc).solve(local);
    const std::uint64_t shard_base =
        s == 0 ? base : util::Rng::derive(base, static_cast<std::uint64_t>(s));
    w.candidates.reserve(w.cover.paths.size());
    for (std::size_t i = 0; i < w.cover.paths.size(); ++i) {
      w.candidates.push_back(core::ProbeEngine::sample_path_candidates(
          local, w.cover.paths[i].vertices,
          util::Rng::derive(shard_base, static_cast<std::uint64_t>(i)),
          config_.sample_attempts));
    }
    solve_span.annotate("cover_paths", static_cast<double>(w.cover.paths.size()));
    ShardInstruments::get().covers_solved.add();
  };
  const std::size_t workers = std::min(
      util::ThreadPool::resolve_thread_count(config_.common.threads),
      static_cast<std::size_t>(k));
  if (workers <= 1 || k <= 1) {
    for (int s = 0; s < k; ++s) run_shard(static_cast<std::size_t>(s));
  } else if (pool_ != nullptr) {
    util::parallel_for(pool_, static_cast<std::size_t>(k), run_shard);
  } else {
    util::ThreadPool transient(workers);
    util::parallel_for(&transient, static_cast<std::size_t>(k), run_shard);
  }

  // Boundary stitch candidates (pure, parallel): one 2-vertex path per
  // cross-shard edge, sampled against the full snapshot from the dedicated
  // boundary stream.
  const auto& edges = snap_->boundary_edges();
  const std::uint64_t boundary_base = util::Rng::derive(base, kBoundaryStream);
  std::vector<core::ProbeEngine::PathCandidates> boundary_candidates(
      edges.size());
  auto sample_edge = [&](std::size_t j) {
    const std::vector<core::VertexId> path{edges[j].from, edges[j].to};
    boundary_candidates[j] = core::ProbeEngine::sample_path_candidates(
        snap_->full(), path,
        util::Rng::derive(boundary_base, static_cast<std::uint64_t>(j)),
        config_.sample_attempts);
  };
  if (workers <= 1 || edges.size() < 2) {
    for (std::size_t j = 0; j < edges.size(); ++j) sample_edge(j);
  } else if (pool_ != nullptr) {
    util::parallel_for(pool_, edges.size(), sample_edge);
  } else {
    util::ThreadPool transient(workers);
    util::parallel_for(&transient, edges.size(), sample_edge);
  }

  // Superstep 2 (serial, canonical order): merge through one network-wide
  // committer — the global §VI uniqueness pool — shard
  // covers first (shard asc, path asc), then boundary stitches (global edge
  // order). Probe ids are the merged sequence.
  telemetry::TraceSpan merge_span("shard.merge");
  core::ProbeEngineConfig pc;
  pc.common.threads = 1;
  pc.sample_attempts = config_.sample_attempts;
  core::ProbeEngine committer(snap_->full(), pc);
  ProbeSet out;
  out.shard_cover_sizes.assign(static_cast<std::size_t>(k), 0);
  for (int s = 0; s < k; ++s) {
    const ShardWork& w = work[static_cast<std::size_t>(s)];
    for (std::size_t i = 0; i < w.cover.paths.size(); ++i) {
      const auto& local_path = w.cover.paths[i].vertices;
      if (local_path.empty()) continue;
      auto p = committer.commit_probe(snap_->shard(s), local_path,
                                      w.candidates[i]);
      if (!p.has_value()) {
        LOG_WARN << "shard " << s << ": probe synthesis failed for a cover "
                 << "path of length " << local_path.size();
        continue;
      }
      for (core::VertexId& v : p->path) v = snap_->to_global(s, v);
      out.probes.push_back(std::move(*p));
      ++out.shard_cover_sizes[static_cast<std::size_t>(s)];
    }
  }
  out.cover_probe_count = out.probes.size();
  for (std::size_t j = 0; j < edges.size(); ++j) {
    const std::vector<core::VertexId> path{edges[j].from, edges[j].to};
    auto p = committer.commit_probe(snap_->full(), path, boundary_candidates[j]);
    if (!p.has_value()) {
      LOG_WARN << "boundary stitch probe synthesis failed for edge ("
               << edges[j].from << ", " << edges[j].to << ")";
      continue;
    }
    out.probes.push_back(std::move(*p));
    ++out.boundary_probe_count;
  }
  out.stats = committer.stats();

  ShardInstruments::get().shard_count.set(static_cast<double>(k));
  ShardInstruments::get().boundary_probes.add(out.boundary_probe_count);
  ShardInstruments::get().boundary_fraction.set(
      out.probes.empty() ? 0.0
                         : static_cast<double>(out.boundary_probe_count) /
                               static_cast<double>(out.probes.size()));
  merge_span.annotate("probes", static_cast<double>(out.probes.size()));
  span.annotate("shards", static_cast<double>(k));
  return out;
}

}  // namespace sdnprobe::shard
