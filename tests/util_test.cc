// Tests for the utility layer: RNG determinism and distribution sanity,
// streaming statistics, quantiles, confusion-count arithmetic, and log-level
// parsing (the SDNPROBE_LOG environment override) plus the line-prefix
// format (timestamp + thread ordinal).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <thread>

#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sdnprobe::util {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(Rng, NextBelowIsInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> buckets(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++buckets[static_cast<std::size_t>(v)];
  }
  for (const int b : buckets) {
    EXPECT_NEAR(b, kDraws / 10, kDraws / 100);  // within 10% relative
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double min = 1.0, max = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    min = std::min(min, d);
    max = std::max(max, d);
  }
  EXPECT_LT(min, 0.05);
  EXPECT_GT(max, 0.95);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

TEST(Rng, DeriveIsDeterministicAndStreamSeparated) {
  // Same (seed, stream) -> same derived seed; different streams (and
  // different base seeds) must decorrelate, since parallel MLPC restarts and
  // per-path probe sampling each draw from their own derived stream.
  EXPECT_EQ(Rng::derive(42, 0), Rng::derive(42, 0));
  EXPECT_NE(Rng::derive(42, 0), Rng::derive(42, 1));
  EXPECT_NE(Rng::derive(42, 0), Rng::derive(43, 0));
  // Streams must not collide for a dense range (restart/path indices).
  std::set<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 1000; ++s) seen.insert(Rng::derive(7, s));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Rng, ForkGivesIndependentStream) {
  Rng parent(1);
  Rng child = parent.fork();
  // The child's stream should not replicate the parent's next outputs.
  bool differs = false;
  for (int i = 0; i < 16; ++i) differs |= (parent.next() != child.next());
  EXPECT_TRUE(differs);
}

TEST(Accumulator, MeanVarianceMinMax) {
  Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(SamplesTest, QuantilesInterpolate) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.9), 90.1, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

// Regression: every Samples statistic is defined (0.0) on an empty set, the
// same convention as Accumulator — telemetry histograms export quantiles
// unconditionally and must not hit UB before the first record.
TEST(SamplesTest, EmptySetStatisticsAreZero) {
  const Samples s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(s.median(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(SamplesTest, AddAfterQuantileStillCorrect) {
  Samples s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);  // forces a sort
  s.add(0.5);                      // invalidates sortedness
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
}

TEST(ConfusionCountsTest, RatesAndAccumulation) {
  ConfusionCounts a{/*tp=*/3, /*fp=*/1, /*tn=*/5, /*fn=*/1};
  EXPECT_DOUBLE_EQ(a.false_positive_rate(), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(a.false_negative_rate(), 0.25);
  EXPECT_DOUBLE_EQ(a.precision(), 0.75);
  EXPECT_DOUBLE_EQ(a.recall(), 0.75);
  ConfusionCounts b{1, 0, 2, 0};
  a += b;
  EXPECT_EQ(a.true_positive, 4u);
  EXPECT_EQ(a.true_negative, 7u);
  // Degenerate denominators return 0 instead of NaN.
  const ConfusionCounts empty;
  EXPECT_DOUBLE_EQ(empty.false_positive_rate(), 0.0);
  EXPECT_DOUBLE_EQ(empty.false_negative_rate(), 0.0);
}

TEST(Logging, ParseLogLevelRecognizesAllNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("none"), LogLevel::kOff);
}

TEST(Logging, ParseLogLevelIsCaseInsensitive) {
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("Info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("OFF"), LogLevel::kOff);
}

TEST(Logging, ParseLogLevelRejectsUnknownNames) {
  EXPECT_EQ(parse_log_level(""), std::nullopt);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
  EXPECT_EQ(parse_log_level("warn "), std::nullopt);
  EXPECT_EQ(parse_log_level("2"), std::nullopt);
}

// True when all of `s` matches `pattern`, where '#' stands for one decimal
// digit and '*' for a run of two or more; any other character matches
// itself.
bool matches_digit_pattern(std::string_view s, std::string_view pattern) {
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  std::size_t i = 0;
  for (const char want : pattern) {
    if (want == '*') {
      const std::size_t run = i;
      while (i < s.size() && digit(s[i])) ++i;
      if (i - run < 2) return false;
    } else if (i == s.size() || (want == '#' ? !digit(s[i]) : s[i] != want)) {
      return false;
    } else {
      ++i;
    }
  }
  return i == s.size();
}

TEST(Logging, PrefixCarriesLevelTimestampThreadAndLocation) {
  const std::string p = format_log_prefix(LogLevel::kWarn, "dir/file.cc", 42);
  // "[WARN  12:34:56.789 t01] file.cc:42: " — wall-clock time of day with
  // milliseconds plus the per-thread ordinal shared with trace spans.
  EXPECT_TRUE(matches_digit_pattern(p, "[WARN  ##:##:##.### t*] file.cc:42: "))
      << "prefix was: " << p;
}

TEST(Logging, ThreadOrdinalIsStablePerThreadAndUniqueAcrossThreads) {
  const std::uint64_t mine = thread_ordinal();
  EXPECT_GE(mine, 1u);
  EXPECT_EQ(thread_ordinal(), mine);  // stable on repeated calls
  std::uint64_t other = 0;
  std::thread t([&] { other = thread_ordinal(); });
  t.join();
  EXPECT_NE(other, mine);
  EXPECT_EQ(thread_ordinal(), mine);  // unchanged by other threads
}

TEST(Logging, SetLogThresholdRoundTrips) {
  const LogLevel before = log_threshold();
  set_log_threshold(LogLevel::kError);
  EXPECT_EQ(log_threshold(), LogLevel::kError);
  set_log_threshold(before);
  EXPECT_EQ(log_threshold(), before);
}

}  // namespace
}  // namespace sdnprobe::util
