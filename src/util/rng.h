// Deterministic pseudo-random number generation for reproducible experiments.
//
// All randomized components in this repository (topology generation, ruleset
// synthesis, fault injection, randomized matching, header sampling) draw from
// util::Rng instances seeded explicitly, so every experiment is replayable
// from its seed.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace sdnprobe::util {

// xoshiro256** by Blackman & Vigna: fast, high-quality, 256-bit state.
// Satisfies the C++ UniformRandomBitGenerator concept so it can be used with
// <random> distributions if desired, though the member helpers below cover
// the common cases without the libstdc++ distribution-object overhead.
class Rng {
 public:
  using result_type = std::uint64_t;

  // Seeds the full 256-bit state from a 64-bit seed via splitmix64, as
  // recommended by the xoshiro authors.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  void reseed(std::uint64_t seed);

  std::uint64_t operator()() { return next(); }

  std::uint64_t next();

  // Uniform integer in [0, bound). bound == 0 returns 0.
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1).
  double next_double();

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool next_bool(double p);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Picks a uniformly random element index for a non-empty container size.
  std::size_t pick_index(std::size_t size) {
    return static_cast<std::size_t>(next_below(size));
  }

  // Derives an independent child generator; useful for giving each component
  // its own stream while keeping a single experiment master seed.
  Rng fork();

  // Pure stream splitter: maps (seed, stream) to a decorrelated 64-bit child
  // seed via splitmix64 mixing. Unlike fork(), derive() consumes no generator
  // state, so stream r can be handed to work unit r (a probe path, a
  // localization round) and draw identical values regardless of evaluation
  // order.
  static std::uint64_t derive(std::uint64_t seed, std::uint64_t stream);

 private:
  std::uint64_t s_[4];
};

}  // namespace sdnprobe::util
