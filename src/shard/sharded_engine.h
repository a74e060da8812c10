// ShardedProbeEngine (DESIGN.md §17): BSP-style per-shard MLPC + probe
// candidate generation, stitched into one canonical probe set.
//
// Superstep 1 (parallel over shards): each shard solves MLPC on its own
// sliced snapshot and samples header candidates for its cover paths, from
// RNG streams derived per shard — shard 0 reads the caller's raw streams so
// shard_count=1 is bit-identical to the unsharded pipeline. Superstep 2
// (serial, canonical order): covers merge shard-ascending / path-ascending
// through one network-wide ProbeEngine committer (global header-uniqueness
// pool, §VI), then every cross-shard boundary edge gets a
// two-vertex stitch probe, in global sorted edge order. The merged output
// is therefore a pure function of (snapshot, layout, config, rng state) —
// never of thread count or scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/common_options.h"
#include "core/probe_engine.h"
#include "shard/sharded_snapshot.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sdnprobe::shard {

struct ShardedEngineConfig {
  // threads caps superstep-1 fan-out; seed feeds per-shard MLPC streams.
  core::CommonOptions common;
  std::size_t mlpc_search_budget = 4096;
  int mlpc_restarts = 4;
  int sample_attempts = 16;
};

struct ProbeSet {
  // Canonical merged order: shard covers (shard asc, path asc), then
  // boundary stitch probes (global edge order). Paths use *global* vertex
  // ids of the full snapshot; probe ids are 1..n in merged order.
  std::vector<core::Probe> probes;
  std::size_t cover_probe_count = 0;
  std::size_t boundary_probe_count = 0;
  std::vector<std::size_t> shard_cover_sizes;  // probes per shard cover
  core::ProbeStats stats;
};

class ShardedProbeEngine {
 public:
  ShardedProbeEngine(const ShardedSnapshot& snap,
                     ShardedEngineConfig config = {},
                     util::ThreadPool* pool = nullptr)
      : snap_(&snap), config_(config), pool_(pool) {}

  // Consumes exactly one draw from `rng` (like ProbeEngine::make_probes),
  // so the caller's stream advances identically for any shard count.
  ProbeSet generate(util::Rng& rng);

 private:
  const ShardedSnapshot* snap_;
  ShardedEngineConfig config_;
  util::ThreadPool* pool_;
};

}  // namespace sdnprobe::shard
