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
// make_probes is one serial loop in cover order: path i draws candidates
// lazily from its own derived RNG stream, commits the first that passes both
// checks, and falls back to the exact query only when every draw collides —
// usually the first draw commits. Probe construction is serial by design;
// per-path streams keep each path's draws independent of the others'.
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
  // Shared knobs (core/common_options.h). The engine reads none of them:
  // probe construction is serial, and all randomness comes from the
  // caller-provided Rng. Kept so pipeline code can configure every
  // component with the same vocabulary.
  CommonOptions common;
  // Header candidates sampled per path before the exact fallback.
  int sample_attempts = 16;
};

class ProbeEngine {
 public:
  explicit ProbeEngine(const AnalysisSnapshot& snapshot,
                       ProbeEngineConfig config = {})
      : snapshot_(&snapshot), config_(config) {}

  // Builds probes for every path of `cover`. Paths whose header synthesis
  // fails (exhausted header space) are skipped; see stats().sat_failures.
  // Consumes exactly one draw from `rng`: path i samples from
  // util::Rng(Rng::derive(draw, i)).
  std::vector<Probe> make_probes(const Cover& cover, util::Rng& rng,
                                 const TrafficProfile* profile = nullptr);

  // Builds a probe for one legal path, drawing up to sample_attempts
  // candidates from `rng` (make_probes runs it per cover path; Algorithm 2's
  // path slicing calls it directly). Returns nullopt if the path is illegal
  // or no unique header exists.
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
