// Probe construction (§V-B step 3 and §VI header uniqueness): turns cover
// paths into concrete test packets with headers that (a) traverse the whole
// tested path, (b) are unique across probes, via rejection sampling backed
// by an exact fallback (HeaderSpace::lex_min_excluding) when sampling stalls.
//
// make_probes runs in two phases. Phase A — per-path input-space computation
// and header-candidate sampling — is read-only over the snapshot and fans
// out across worker threads, with path i sampling from its own derived RNG
// stream. Phase B — the uniqueness commit against the `used_` header pool
// (and the rare exact fallback) — is serialized in cover order. Output is
// therefore bit-identical for any thread count, including 1.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/analysis_snapshot.h"
#include "core/common_options.h"
#include "core/mlpc.h"
#include "core/rule_graph.h"
#include "core/traffic_profile.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sdnprobe::core {

struct Probe {
  std::uint64_t probe_id = 0;
  // The tested path as rule-graph vertices, in traversal order.
  std::vector<VertexId> path;
  // Same path as entry ids (convenience for localization bookkeeping).
  std::vector<flow::EntryId> entries;
  // Concrete header injected at the first switch.
  hsa::TernaryString header;
  // The header the terminal test entry must exact-match: the injected header
  // transformed by every set field *before* the terminal entry.
  hsa::TernaryString expected_return;
  flow::SwitchId inject_switch = -1;
  flow::EntryId terminal_entry = -1;
};

struct ProbeStats {
  std::uint64_t headers_by_sampling = 0;
  // Headers from the exact fallback (the paper's SAT query, §VI).
  std::uint64_t headers_by_sat = 0;
  // Paths the exact fallback found no unique header for.
  std::uint64_t sat_failures = 0;

  friend bool operator==(const ProbeStats&, const ProbeStats&) = default;
};

struct ProbeEngineConfig {
  // Shared knobs (core/common_options.h). The engine uses `threads` for
  // make_probes' candidate-generation phase (0 = hardware_concurrency,
  // 1 = serial; headers and stats identical for any value, see the file
  // comment). `seed` / `randomized` are unused here — the engine draws all
  // randomness from the caller-provided Rng.
  CommonOptions common;
  // Header candidates sampled per path before the exact fallback.
  int sample_attempts = 16;
};

class ProbeEngine {
 public:
  // Phase-A output for one path: its input space plus the header candidates
  // drawn from the path's derived RNG stream.
  struct PathCandidates {
    hsa::HeaderSpace input;
    std::vector<hsa::TernaryString> samples;
  };

  explicit ProbeEngine(const AnalysisSnapshot& snapshot,
                       ProbeEngineConfig config = {},
                       util::ThreadPool* pool = nullptr)
      : snapshot_(&snapshot), config_(config), pool_(pool) {}

  // Phase-A unit, exposed for shard::ShardedProbeEngine: the input space of
  // `path` (vertices of `snap`) and up to `attempts` candidates drawn from
  // util::Rng(stream_seed) — exactly what make_probes computes for path i
  // with stream_seed = derive(base, i). Pure function of its arguments;
  // safe to call concurrently from worker threads.
  static PathCandidates sample_path_candidates(
      const AnalysisSnapshot& snap, const std::vector<VertexId>& path,
      std::uint64_t stream_seed, int attempts,
      const TrafficProfile* profile = nullptr);

  // Phase-B unit, exposed for shard::ShardedProbeEngine: commits the first
  // candidate not colliding with this engine's network-wide `used_` pool
  // (exact fallback otherwise) and assembles the probe against `snap` — which
  // may be a per-shard snapshot; `path` uses its vertex ids. Serial only,
  // like all phase-B code. Returns nullopt when no unique header exists.
  std::optional<Probe> commit_probe(const AnalysisSnapshot& snap,
                                    const std::vector<VertexId>& path,
                                    const PathCandidates& candidates);

  // Builds probes for every path of `cover`. Paths whose header synthesis
  // fails (exhausted header space) are skipped; see stats().sat_failures.
  // Consumes exactly one draw from `rng` (the per-path stream base), so the
  // caller's stream advances identically for any thread count.
  std::vector<Probe> make_probes(const Cover& cover, util::Rng& rng,
                                 const TrafficProfile* profile = nullptr);

  // Builds a probe for one legal path (used by Algorithm 2's path slicing).
  // Returns nullopt if the path is illegal or no unique header exists.
  std::optional<Probe> make_probe(const std::vector<VertexId>& path,
                                  util::Rng& rng,
                                  const TrafficProfile* profile = nullptr);

  // Forget previously issued headers (e.g. between detection rounds when
  // test points were torn down). Probe-header uniqueness (§VI) only matters
  // among *concurrently installed* test points, so callers reset per round
  // and re-register the headers still in flight via note_used().
  void reset_uniqueness();

  // Registers an externally retained header (a probe reused from a previous
  // round) so new headers keep differing from it.
  void note_used(const hsa::TernaryString& header) { used_.insert(header); }

  const ProbeStats& stats() const { return stats_; }

 private:
  std::optional<hsa::TernaryString> pick_unique_header(
      const hsa::HeaderSpace& input_space, util::Rng& rng,
      const TrafficProfile* profile);

  // Phase-B helper: first non-colliding candidate, else the exact
  // fallback. Serial only.
  std::optional<hsa::TernaryString> commit_unique_header(
      const hsa::HeaderSpace& input_space,
      const std::vector<hsa::TernaryString>& candidates);

  // Shared tail of both pickers once every candidate collided: the lex-min
  // header of `input_space` outside `used_`, committed to the pool.
  std::optional<hsa::TernaryString> exact_fallback(
      const hsa::HeaderSpace& input_space);

  // Adds a picked header to `used_` and counts it as committed.
  void commit(const hsa::TernaryString& h);

  // Fills in entries / inject switch / expected return for a legal path of
  // `snap` whose header has been chosen.
  Probe finish_probe(const AnalysisSnapshot& snap,
                     const std::vector<VertexId>& path,
                     hsa::TernaryString header);

  const AnalysisSnapshot* snapshot_;
  ProbeEngineConfig config_;
  util::ThreadPool* pool_;
  std::uint64_t next_probe_id_ = 1;
  std::unordered_set<hsa::TernaryString, hsa::TernaryStringHash> used_;
  ProbeStats stats_;
};

}  // namespace sdnprobe::core
