// Probe construction (§V-B step 3 and §VI header uniqueness): turns cover
// paths into concrete test packets with headers that (a) traverse the whole
// tested path, (b) are unique across probes, via rejection sampling backed
// by an exact fallback (HeaderSpace::lex_min_excluding) when sampling stalls,
// and (c) never meet another probe's test entry before their own terminal.
//
// (c) is what uniqueness of the *injected* header misses once set fields
// rewrite headers in flight: a probe whose header, at some hop on switch S,
// equals the expected return of a probe terminating on S is punted to the
// controller there, mid-path (the controller keeps one test table per
// switch, so every test entry on S sees every packet redirected into it).
// The engine therefore also refuses a header when its arrival header at a
// non-terminal hop equals a committed probe's (terminal switch, expected
// return), or when its own (terminal switch, expected return) equals a
// committed probe's arrival header at a non-terminal hop on that switch.
// Equal expected returns at the terminal itself are harmless: both probes
// are punted where they should be.
//
// make_probes runs in two phases. Phase A — per-path input-space computation
// and header-candidate sampling — is read-only over the snapshot and fans
// out across worker threads, with path i sampling from its own derived RNG
// stream. Phase B — the uniqueness commit against the committed probes (and
// the rare exact fallback) — is serialized in cover order. Output is
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
  explicit ProbeEngine(const AnalysisSnapshot& snapshot,
                       ProbeEngineConfig config = {},
                       util::ThreadPool* pool = nullptr)
      : snapshot_(&snapshot), config_(config), pool_(pool) {}

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

  // Forget previously issued probes (e.g. between detection rounds when
  // test points were torn down). Probe-header uniqueness (§VI) only matters
  // among *concurrently installed* test points, so callers reset per round
  // and re-register the probes still in flight via note_used().
  void reset_uniqueness();

  // Registers an externally retained probe (one reused from a previous round
  // or epoch, built over this engine's snapshot) so new probes keep
  // differing from its header and keep clear of its test entry and of the
  // headers it carries through each switch.
  void note_used(const Probe& probe);

  const ProbeStats& stats() const { return stats_; }

 private:
  // Phase-A output for one path: its input space plus the header candidates
  // drawn from the path's derived RNG stream.
  struct PathCandidates {
    hsa::HeaderSpace input;
    std::vector<hsa::TernaryString> samples;
  };

  // (switch, concrete header) pairs a switch's test table can see, each
  // flagged as a committed probe's test entry and/or an arrival at one of
  // its non-terminal hops. Open addressing with generation stamps: clear()
  // is O(1), and once grown the table registers without allocating —
  // callers re-register every retained probe per round or churn batch. A
  // slot keeps only the header's value words: a concrete header is its
  // width and bits.
  class HopPool {
   public:
    static constexpr std::uint8_t kTerminal = 1;
    static constexpr std::uint8_t kTransit = 2;

    // The flags of (sw, header); 0 when absent.
    std::uint8_t flags(flow::SwitchId sw,
                       const hsa::TernaryString& header) const;
    void add(flow::SwitchId sw, const hsa::TernaryString& header,
             std::uint8_t flag);
    void clear();
    bool empty() const { return size_ == 0; }

   private:
    struct Slot {
      std::uint64_t bits0 = 0;
      std::uint64_t bits1 = 0;
      flow::SwitchId sw = -1;
      std::uint32_t generation = 0;  // live iff equal to generation_
      std::uint8_t width = 0;
      std::uint8_t flags = 0;

      bool same_key(const Slot& o) const {
        return sw == o.sw && width == o.width && bits0 == o.bits0 &&
               bits1 == o.bits1;
      }
    };
    static Slot key_of(flow::SwitchId sw, const hsa::TernaryString& header);
    // Index of the live slot with `key`'s key, else of the free slot where
    // it would go.
    std::size_t find(const Slot& key) const;

    std::vector<Slot> slots_;  // power-of-two size, at most 3/4 full
    std::uint32_t generation_ = 1;
    std::size_t size_ = 0;
  };

  // Phase-A unit: the input space of `path` and up to `attempts` candidates
  // drawn from util::Rng(stream_seed). Pure function of its arguments; safe
  // to call concurrently from worker threads.
  static PathCandidates sample_path_candidates(
      const AnalysisSnapshot& snap, const std::vector<VertexId>& path,
      std::uint64_t stream_seed, int attempts, const TrafficProfile* profile);

  // Phase-B unit: the probe for the first admissible candidate, else the
  // exact fallback's. Serial only.
  std::optional<Probe> commit_first_admissible(
      const std::vector<VertexId>& path, const PathCandidates& candidates);

  // The probe `header` makes of `path`, committed, when it passes both
  // uniqueness checks; nullopt otherwise.
  std::optional<Probe> try_commit(const std::vector<VertexId>& path,
                                  const hsa::TernaryString& header);

  // Once every sampled candidate was refused: the probe for the lex-min
  // admissible header of `input`, committed; nullopt when none exists.
  std::optional<Probe> exact_fallback(const std::vector<VertexId>& path,
                                      hsa::HeaderSpace input);

  // The probe `header` makes of a legal `path` (no id yet, not committed).
  Probe assemble(const std::vector<VertexId>& path,
                 hsa::TernaryString header) const;

  // nullopt when `p` meets no committed probe's test entry before its
  // terminal and no committed probe meets `p`'s test entry. Otherwise the
  // cube of injected headers that collide the same way at the same hop:
  // `p`'s arrival header there, pulled back through the set fields before
  // that hop.
  std::optional<hsa::TernaryString> collision(const Probe& p) const;

  // Assigns the next probe id and registers `p` (note_used).
  void commit(Probe& p);

  const AnalysisSnapshot* snapshot_;
  ProbeEngineConfig config_;
  util::ThreadPool* pool_;
  std::uint64_t next_probe_id_ = 1;
  // Injected headers of committed probes.
  std::unordered_set<hsa::TernaryString, hsa::TernaryStringHash> used_;
  // (terminal switch, expected return) of committed probes, flagged
  // kTerminal, and (switch, arrival header) at each of their non-terminal
  // hops, flagged kTransit.
  HopPool hops_;
  ProbeStats stats_;
};

}  // namespace sdnprobe::core
