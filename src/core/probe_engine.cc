#include "core/probe_engine.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"

namespace sdnprobe::core {
namespace {

// Process-wide instruments, resolved once (thread-safe static init). The
// per-engine ProbeStats stays the determinism-checked source of truth;
// these aggregate across engines into the run artifact. Observational only.
struct EngineInstruments {
  telemetry::Counter& candidates;
  telemetry::Counter& committed;
  telemetry::Counter& sat_fallbacks;
  telemetry::Counter& sat_failures;

  static EngineInstruments& get() {
    static auto& reg = telemetry::MetricsRegistry::global();
    static EngineInstruments i{
        reg.counter("probe_engine.header_candidates"),
        reg.counter("probe_engine.headers_committed"),
        reg.counter("probe_engine.sat_fallbacks"),
        reg.counter("probe_engine.sat_failures"),
    };
    return i;
  }
};

}  // namespace

std::optional<Probe> ProbeEngine::try_commit(
    const std::vector<VertexId>& path, const hsa::TernaryString& header) {
  if (used_.count(header) != 0) return std::nullopt;
  Probe p = assemble(path, header);
  if (collision(p).has_value()) return std::nullopt;
  ++stats_.headers_by_sampling;
  commit(p);
  return p;
}

std::optional<Probe> ProbeEngine::exact_fallback(
    const std::vector<VertexId>& path, hsa::HeaderSpace input) {
  // The paper's MiniSat query (§VI) — a header in the space differing from
  // every previously issued header — answered exactly over the cube union.
  // A colliding answer removes its whole collision cube from the space, so
  // the walk ends after at most one step per distinct collision.
  EngineInstruments::get().sat_fallbacks.add();
  while (auto h = input.lex_min_excluding(used_)) {
    Probe p = assemble(path, std::move(*h));
    const std::optional<hsa::TernaryString> cube = collision(p);
    if (!cube.has_value()) {
      ++stats_.headers_by_sat;
      commit(p);
      return p;
    }
    input = input.subtract(*cube);
  }
  ++stats_.sat_failures;
  EngineInstruments::get().sat_failures.add();
  return std::nullopt;
}

Probe ProbeEngine::assemble(const std::vector<VertexId>& path,
                            hsa::TernaryString header) const {
  Probe p;
  p.path = path;
  p.header = std::move(header);
  const auto& rules = snapshot_->rules();
  p.entries.reserve(path.size());
  for (const VertexId v : path) p.entries.push_back(snapshot_->entry_of(v));
  p.inject_switch = rules.entry(p.entries.front()).switch_id;
  p.terminal_entry = p.entries.back();
  // Expected header at the terminal's test table: transformed by every set
  // field strictly before the terminal entry.
  hsa::TernaryString h = p.header;
  for (std::size_t i = 0; i + 1 < p.entries.size(); ++i) {
    h = h.transform(rules.entry(p.entries[i]).set_field);
  }
  p.expected_return = h;
  return p;
}

std::optional<hsa::TernaryString> ProbeEngine::collision(const Probe& p) const {
  if (hops_.empty()) return std::nullopt;
  const auto& rules = snapshot_->rules();
  const std::size_t last = p.entries.size() - 1;
  hsa::TernaryString at = p.header;  // arrival header at hop i
  for (std::size_t i = 0; i <= last; ++i) {
    const flow::FlowEntry& e = rules.entry(p.entries[i]);
    const std::uint8_t hit = i < last ? HopPool::kTerminal : HopPool::kTransit;
    if ((hops_.flags(e.switch_id, at) & hit) != 0) {
      for (std::size_t j = i; j-- > 0;) {
        // Never nullopt: `at` is an arrival header, so it agrees with every
        // bit the earlier set fields wrote.
        at = *at.inverse_transform(rules.entry(p.entries[j]).set_field);
      }
      return at;
    }
    at = at.transform(e.set_field);
  }
  return std::nullopt;
}

void ProbeEngine::note_used(const Probe& probe) {
  used_.insert(probe.header);
  const auto& rules = snapshot_->rules();
  hsa::TernaryString at = probe.header;
  for (std::size_t i = 0; i + 1 < probe.entries.size(); ++i) {
    const flow::FlowEntry& e = rules.entry(probe.entries[i]);
    hops_.add(e.switch_id, at, HopPool::kTransit);
    at = at.transform(e.set_field);
  }
  hops_.add(rules.entry(probe.terminal_entry).switch_id, probe.expected_return,
            HopPool::kTerminal);
}

void ProbeEngine::commit(Probe& p) {
  EngineInstruments::get().committed.add();
  p.probe_id = next_probe_id_++;
  note_used(p);
}

std::optional<Probe> ProbeEngine::make_probe(const std::vector<VertexId>& path,
                                             util::Rng& rng,
                                             const TrafficProfile* profile) {
  if (path.empty()) return std::nullopt;
  hsa::HeaderSpace input = snapshot_->path_input_space(path);
  if (input.is_empty()) return std::nullopt;
  // Fast path: sample (traffic-biased when a profile is given) and reject on
  // collision. Collisions are rare because header spaces are huge relative
  // to probe counts, so the first draw usually commits.
  for (int attempt = 0; attempt < config_.sample_attempts; ++attempt) {
    std::optional<hsa::TernaryString> h =
        profile ? profile->sample(input, rng) : input.sample(rng);
    if (!h.has_value()) break;
    EngineInstruments::get().candidates.add();
    if (auto p = try_commit(path, *h)) return p;
  }
  return exact_fallback(path, std::move(input));
}

std::vector<Probe> ProbeEngine::make_probes(const Cover& cover,
                                            util::Rng& rng,
                                            const TrafficProfile* profile) {
  telemetry::TraceSpan span("probe_engine.make_probes");
  // One base draw: path i samples from its own stream derive(base, i), so
  // how many candidates one path draws never shifts another path's draws,
  // and the caller's stream advances by exactly one draw.
  const std::uint64_t base = rng.next();
  std::vector<Probe> probes;
  probes.reserve(cover.paths.size());
  for (std::size_t i = 0; i < cover.paths.size(); ++i) {
    const auto& path = cover.paths[i].vertices;
    if (path.empty()) continue;
    util::Rng path_rng(util::Rng::derive(base, static_cast<std::uint64_t>(i)));
    if (auto p = make_probe(path, path_rng, profile)) {
      probes.push_back(std::move(*p));
    } else {
      LOG_WARN << "probe synthesis failed for a cover path of length "
               << path.size();
    }
  }
  span.annotate("probes", static_cast<double>(probes.size()));
  return probes;
}

void ProbeEngine::reset_uniqueness() {
  used_.clear();
  hops_.clear();
}

ProbeEngine::HopPool::Slot ProbeEngine::HopPool::key_of(
    flow::SwitchId sw, const hsa::TernaryString& header) {
  SDNPROBE_DCHECK(header.is_concrete());
  Slot key;
  key.bits0 = header.bits_word(0);
  key.bits1 = header.bits_word(1);
  key.sw = sw;
  key.width = static_cast<std::uint8_t>(header.width());
  return key;
}

std::size_t ProbeEngine::HopPool::find(const Slot& key) const {
  // Rng::derive is a splitmix64 mix, so the low bits the mask keeps are
  // well spread.
  const std::uint64_t x = util::Rng::derive(
      key.bits0 ^ (key.bits1 * 0x9e3779b97f4a7c15ull) ^ key.width,
      static_cast<std::uint64_t>(key.sw));
  const std::size_t mask = slots_.size() - 1;
  for (auto i = static_cast<std::size_t>(x) & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.generation != generation_ || s.same_key(key)) return i;
  }
}

std::uint8_t ProbeEngine::HopPool::flags(
    flow::SwitchId sw, const hsa::TernaryString& header) const {
  if (size_ == 0) return 0;
  const Slot& s = slots_[find(key_of(sw, header))];
  return s.generation == generation_ ? s.flags : 0;
}

void ProbeEngine::HopPool::add(flow::SwitchId sw,
                               const hsa::TernaryString& header,
                               std::uint8_t flag) {
  if (4 * (size_ + 1) > 3 * slots_.size()) {
    std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.generation == generation_) slots_[find(s)] = s;
    }
  }
  const Slot key = key_of(sw, header);
  Slot& s = slots_[find(key)];
  if (s.generation != generation_) {
    s = key;
    s.generation = generation_;
    ++size_;
  }
  s.flags |= flag;
}

void ProbeEngine::HopPool::clear() {
  size_ = 0;
  if (++generation_ == 0) {  // wrapped: no stale stamp may read as live
    for (Slot& s : slots_) s.generation = 0;
    generation_ = 1;
  }
}

}  // namespace sdnprobe::core
